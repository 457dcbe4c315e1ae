import random
import signal
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import product
from operator import mul
from types import SimpleNamespace

import pytest

from oracles import brute_partition_function, fraction_partition_function
from treehom import (
    SMALL_TARGETS,
    SizeLimitError,
    TargetGraph,
    Tree,
    activities,
    all_trees,
    check_blowup_identity,
    hom_brute_force,
    hom_count,
    hom_vector,
    kc_decompositions,
    kc_difference_decomposition,
    make_capacity_graph,
    make_folkman_plus_dominating,
    make_widom_rowlinson,
    path,
    path_pair_counts,
    star,
    tree_hom,
    tree_partition_function,
)
from treehom.automorphy import Quotient, _equitable_quotient, orbit_partition
from treehom.cli import parse_target_spec
from treehom import homcount
from treehom.graphs import add_looped_dominating
from treehom.homcount import _absorb, _compiled, _message, _path_hom, _star_hom
from treehom.trees import TREE_LIMIT, _shapes, bounded_fold

H_IND = SMALL_TARGETS[7]


def tg(n, *edges):
    return TargetGraph.from_edges(n, edges)


def random_tree(rng, n):
    # random attachment tree on n vertices
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    return Tree.from_edges(n, edges)


class TestTreeWalk:
    def test_fibonacci_on_hind_paths(self):
        # independent sets of P_n follow the Fibonacci recurrence
        want = [2, 3, 5, 8, 13, 21, 34, 55]
        got = [tree_hom(path(n), H_IND) for n in range(1, 9)]
        assert got == want

    def test_independent_sets_of_star(self):
        # star: 2^(n-1) sets without the center plus 1 with it
        for n in range(2, 8):
            assert tree_hom(star(n), H_IND) == 2 ** (n - 1) + 1

    def test_two_routes_agree_with_brute_force(self):
        rng = random.Random(19)
        for _ in range(25):
            t = random_tree(rng, rng.randint(1, 7))
            h = SMALL_TARGETS[rng.randint(1, 28)]
            expect = hom_brute_force(t, h)
            assert tree_hom(t, h) == expect
            assert hom_count(t, h) == expect

    def test_root_choice_irrelevant(self):
        t = random_tree(random.Random(23), 8)
        m = orbit_partition(SMALL_TARGETS[22])
        totals = {
            sum(a * x for a, x in zip(m.sizes, hom_vector(t, r, m)))
            for r in range(t.n)
        }
        assert len(totals) == 1

    @pytest.mark.parametrize("root", [-1, 3])
    def test_root_outside_the_tree_refused(self, root):
        m = orbit_partition(H_IND)
        with pytest.raises(ValueError) as exc:
            hom_vector(path(3), root, m)
        assert str(exc.value) == f"root {root} not a vertex of the tree"

    def test_brute_force_budget(self):
        with pytest.raises(SizeLimitError, match="budget"):
            hom_brute_force(path(10), SMALL_TARGETS[28], budget=100)

    def test_brute_force_refuses_exactly_past_the_budget(self, monkeypatch):
        # the refusal's bit-length shortcut decides as H.n ** T.n > budget
        # does; with no map enumerated, a kept input counts 0
        monkeypatch.setattr(homcount, "product", lambda *args, **kwargs: iter(()))
        budgets = [-1, 0, 1, *(2 ** k + d for k in range(21) for d in (-1, 1))]
        for h_n, t_n, budget in product(range(5), range(1, 13), budgets):
            H, T = SimpleNamespace(n=h_n), SimpleNamespace(n=t_n, edges=())
            if h_n ** t_n > budget:
                with pytest.raises(SizeLimitError) as exc:
                    hom_brute_force(T, H, budget)
                assert str(exc.value) == f"brute force needs {h_n}^{t_n} maps, budget is {budget}"
            else:
                assert hom_brute_force(T, H, budget) == 0

    def test_brute_force_refuses_a_huge_power_at_once(self):
        # 1000 ** 1000000 takes seconds to form; the refusal forms no power
        H, T = parse_target_spec("clique:1000"), SimpleNamespace(n=10 ** 6, edges=())

        def timeout(*args):
            raise AssertionError("the refusal took more than a second")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(1)
        try:
            with pytest.raises(SizeLimitError) as exc:
                hom_brute_force(T, H)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert str(exc.value) == "brute force needs 1000^1000000 maps, budget is 100000000"

    def test_single_vertex_tree(self):
        t = Tree.from_edges(1, [])
        for h in SMALL_TARGETS.values():
            assert tree_hom(t, h) == h.n


class TestPathPairCounts:
    def brute_pairs(self, t, h, Q):
        """Endpoint-class path counts by explicit enumeration."""
        from itertools import product

        k = len(Q.classes)
        table = [[0] * k for _ in range(k)]
        for f in product(range(h.n), repeat=t):
            if all(h.has_edge(f[i], f[i + 1]) for i in range(t - 1)):
                table[Q.class_of[f[0]]][Q.class_of[f[-1]]] += 1
        return table

    def test_matches_enumeration(self):
        for hid in (7, 19, 22, 24, 26):
            h = SMALL_TARGETS[hid]
            m = orbit_partition(h)
            for t in range(1, 6):
                table = path_pair_counts(t, m)
                brute = self.brute_pairs(t, h, m)
                for i in range(m.k):
                    for j in range(m.k):
                        assert table[i, j] == brute[i][j], (hid, t, i, j)

    def test_symmetry(self):
        m = orbit_partition(SMALL_TARGETS[24])
        for t in range(1, 8):
            table = path_pair_counts(t, m)
            for i in range(m.k):
                for j in range(m.k):
                    assert table[i, j] == table[j, i]

    def test_empty_path_refused(self):
        m = orbit_partition(H_IND)
        with pytest.raises(ValueError) as exc:
            path_pair_counts(0, m)
        assert str(exc.value) == "path length must be >= 1 vertex"

    def test_total_is_path_hom(self):
        h = SMALL_TARGETS[22]
        m = orbit_partition(h)
        for t in range(1, 8):
            table = path_pair_counts(t, m)
            total = sum(table[i, j] for i in range(m.k) for j in range(m.k))
            assert total == tree_hom(path(t), h)


class TestKCDecomposition:
    def test_identity_on_random_sites(self):
        rng = random.Random(31)
        checked = 0
        while checked < 40:
            t = random_tree(rng, rng.randint(4, 9))
            h = SMALL_TARGETS[rng.randint(1, 28)]
            vl, vr = rng.sample(range(t.n), 2)
            try:
                lhs, rhs = kc_difference_decomposition(t, vl, vr, h)
            except ValueError:
                continue
            assert lhs == rhs
            checked += 1

    def test_known_move_on_path(self):
        # P_4 -> S_4 under H_ind: 8 -> 9 independent sets
        lhs, rhs = kc_difference_decomposition(path(4), 1, 2, H_IND)
        assert lhs == rhs == 1

    def test_endpoint_outside_the_tree_refused(self):
        # -2 would alias vertex 4 of the 6-vertex path and give a false mismatch
        for v_left, v_right, bad in (-2, 2, -2), (1, 6, 6), (1, -5, -5):
            with pytest.raises(ValueError, match=f"endpoint {bad} is not a vertex of the tree"):
                kc_difference_decomposition(path(6), v_left, v_right, H_IND)

    def test_builds_no_tree(self, monkeypatch):
        # the L and R vectors are walks of T itself, and the moved tree is
        # walked as glued adjacency lists: a site builds no tree
        built = []
        real = Tree.from_edges.__func__

        def counting(cls, n, edges):
            built.append(n)
            return real(cls, n, edges)

        t = Tree.from_edges(9, [(0, 1), (0, 2), (2, 3), (3, 4), (4, 5), (4, 6), (6, 7), (6, 8)])
        monkeypatch.setattr(Tree, "from_edges", classmethod(counting))
        lhs, rhs = kc_difference_decomposition(t, 0, 4, make_capacity_graph(3))
        assert lhs == rhs and built == []

    @pytest.mark.parametrize("H", [H_IND, make_capacity_graph(3)], ids=["hind", "capacity:3"])
    def test_reads_adjacency_lists_not_accessors(self, monkeypatch, H):
        # sites, sides and glued sites are all read off T's adjacency lists
        trees = [ct.tree for n in range(1, 10) for ct in all_trees(n)]
        want = [list(kc_decompositions(T, H)) for T in trees]

        def refuse(*args):
            raise AssertionError("kc called a Tree accessor")

        for name in ("neighbors", "degree", "vertices"):
            monkeypatch.setattr(Tree, name, refuse)
        assert [list(kc_decompositions(T, H)) for T in trees] == want

    def test_work_limit_checked_before_any_walk(self, monkeypatch):
        # 28,203 sites x 240 vertices into hind is past the cap: the API
        # refuses it before counting anything, as the CLI does
        def refuse(*args, **kwargs):
            raise AssertionError("walked before the work limit was checked")

        monkeypatch.setattr(homcount, "_walk", refuse)
        monkeypatch.setattr(homcount, "tree_hom", refuse)
        with pytest.raises(SizeLimitError, match="KC_WORK_LIMIT"):
            next(kc_decompositions(path(240), SMALL_TARGETS[7]))

    def test_long_path_refused_before_its_sites_are_listed(self, monkeypatch):
        # path:3000 has 4,492,503 sites; they are counted, not listed
        def refuse(*args, **kwargs):
            raise AssertionError("listed the sites before the work limit was checked")

        monkeypatch.setattr(homcount, "_kc_paths", refuse)
        with pytest.raises(SizeLimitError, match="= 4492503 x 3000 x 5 x 5 = 336937725000 is past"):
            next(kc_decompositions(path(3000), H_IND))


def random_rows(rng, k, width):
    # a quotient's rows: sorted classes with repeats, some of them empty
    return tuple(tuple(sorted(rng.randrange(k) for _ in range(rng.randint(0, width))))
                 for _ in range(k))


class TestAbsorber:
    """The walk's plain and generated steps against `_message` and a product."""

    def test_hand_built_quotient_with_list_rows(self):
        # hom_vector takes any Quotient; the walk's step count and kernel cache are keyed by tuples
        Q = orbit_partition(make_capacity_graph(3))
        listed = Quotient(Q.class_of, Q.sizes, [list(row) for row in Q.rows])
        for t in path(7), star(6), path(300):
            assert hom_vector(t, 1, listed) == hom_vector(t, 1, Q)

    def test_steps_are_message_times_weights(self):
        rng = random.Random(28)
        cases = [(), ((),), ((0, 0, 0),), ((0, 0, 0, 0, 1), (0,) * 20 + (1,)), ((1, 1), ())]
        cases += [random_rows(rng, rng.randint(1, 12), 9) for _ in range(60)]
        for rows in cases:
            for _ in range(3):
                a = [rng.randint(0, 10 ** 30) for _ in rows]
                h = [rng.randint(0, 10 ** 30) for _ in rows]
                want = list(map(mul, a, _message(rows, h)))
                assert _absorb(rows, a, h) == want
                assert _compiled(rows)(a, h) == want

    def test_only_integer_entries_are_compiled(self):
        # the kernel's source is made from the rows' entries: any other entry is refused
        for entry in "__import__('os')", 1.0, None:
            with pytest.raises(TypeError):
                _compiled.__wrapped__(((0, entry),))

    def test_compiled_once_the_walks_reach_the_step_count(self, monkeypatch):
        # plain steps until the walks over a quotient, the current one counted,
        # reach ABSORB_WALK_STEPS vertices
        real, compiled = _compiled, []
        monkeypatch.setattr(homcount, "_walked", Counter())
        monkeypatch.setattr(homcount, "_compiled", lambda rows: compiled.append(rows) or real(rows))
        steps = homcount.ABSORB_WALK_STEPS
        H = make_capacity_graph(3)
        for n in steps // 2, steps // 2 + 1:  # steps - 1 vertices walked in all
            assert tree_hom(path(n), H) == _path_hom(_equitable_quotient(H), n)
        assert compiled == []
        assert tree_hom(path(2), H) == _path_hom(_equitable_quotient(H), 2)
        assert len(compiled) == 1
        # one walk of that many vertices is compiled at once
        H = SMALL_TARGETS[9]
        assert tree_hom(path(steps + 1), H) == _path_hom(_equitable_quotient(H), steps + 1)
        assert len(compiled) == 2

    def test_past_the_cap_nothing_is_compiled(self, monkeypatch):
        # at the cap the rows are compiled; one term past it they are not
        rows = ((0, 1, 1), (0, 0, 2), (1,))
        a, h = [3, 5, 7], [11, 13, 17]
        want = list(map(mul, a, _message(rows, h)))
        monkeypatch.setattr(homcount, "ABSORB_TERM_LIMIT", 5)
        assert _compiled.__wrapped__(rows)(a, h) == want

        def refuse(*args):
            raise AssertionError("compiled past the cap")

        monkeypatch.setattr(homcount, "ABSORB_TERM_LIMIT", 4)
        monkeypatch.setattr(homcount, "eval", refuse, raising=False)
        assert _compiled.__wrapped__(rows)(a, h) == want

    def test_long_rows_compile(self, monkeypatch):
        # a 5,000-term row, added as a balanced tree: as one chain of + it
        # would be nested past the compiler's recursion limit
        rows = (tuple(range(5000)),) + ((0,),) * 4999
        monkeypatch.setattr(homcount, "ABSORB_TERM_LIMIT", 9999)
        h = list(range(1, 5001))
        assert _compiled.__wrapped__(rows)([1] * 5000, h) == [5000 * 5001 // 2] + [1] * 4999

    def test_past_the_cap_walk_matches_fraction_walk(self, monkeypatch):
        # path:200 plus a looped vertex joined to every vertex: 101 classes
        # and 400 terms, past a cap of 100, on walks that ask for compiling
        H = add_looped_dominating(tg(200, *[(i, i + 1) for i in range(199)]), 1)
        rows = _equitable_quotient(H).rows
        assert (len(rows), sum(len(set(row)) for row in rows)) == (101, 400)
        monkeypatch.setattr(homcount, "ABSORB_TERM_LIMIT", 100)
        monkeypatch.setattr(homcount, "ABSORB_WALK_STEPS", 0)
        _compiled.cache_clear()
        try:
            for t in path(30), random_tree(random.Random(200), 40):
                assert tree_hom(t, H) == fraction_partition_function(t, H, [1] * H.n)
        finally:
            _compiled.cache_clear()


class TestPartitionFunction:
    def test_unit_activities_recover_hom(self):
        rng = random.Random(37)
        for _ in range(15):
            t = random_tree(rng, rng.randint(1, 8))
            h = SMALL_TARGETS[rng.randint(1, 28)]
            lam = activities([1] * h.n)
            assert tree_partition_function(t, h, lam) == tree_hom(t, h)

    def test_tree_route_matches_brute_route(self):
        rng = random.Random(41)
        for _ in range(10):
            t = random_tree(rng, rng.randint(1, 5))
            h = SMALL_TARGETS[rng.randint(1, 28)]
            lam = activities(
                [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(h.n)]
            )
            assert tree_partition_function(t, h, lam) == \
                brute_partition_function(t.n, t.edges, h, lam)

    def test_rejects_nonpositive_activity(self):
        with pytest.raises(ValueError, match="positive"):
            activities([1, 0])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="activities"):
            tree_partition_function(path(3), H_IND, activities([1]))

    def test_hard_core_single_site(self):
        lam = activities(["3/2", 1])
        # one vertex: occupied (3/2) + empty (1)
        assert tree_partition_function(Tree.from_edges(1, []), H_IND, lam) == Fraction(5, 2)


class TestIntegerRoute:
    """The integer-numerator walk against the Fraction walk and brute force
    kept in tests/oracles.py."""

    def test_long_path_matches_fraction_walk(self):
        H = make_widom_rowlinson(3)
        lam = activities(["3", "7/2", "10/3", "3"])
        T = path(2000)
        assert tree_partition_function(T, H, lam) == fraction_partition_function(T, H, lam)

    def test_large_random_tree_matches_fraction_walk(self):
        # coprime denominators: the common denominator is 210
        H = make_capacity_graph(3)
        lam = activities(["1/2", "4/3", "6/5", "9/7"])
        T = random_tree(random.Random(3000), 3000)
        assert tree_partition_function(T, H, lam) == fraction_partition_function(T, H, lam)

    def test_single_vertex_tree(self):
        H = make_widom_rowlinson(3)
        lam = activities(["1/2", "2/3", "3/5", 7])
        T = Tree.from_edges(1, [])
        assert tree_partition_function(T, H, lam) == sum(lam) == \
            fraction_partition_function(T, H, lam)


class TestBlowUpIdentity:
    def test_small_cases_exact(self):
        rng = random.Random(43)
        for hid in (7, 19):
            h = SMALL_TARGETS[hid]
            for _ in range(5):
                t = random_tree(rng, rng.randint(1, 6))
                sizes = [rng.randint(1, 3) for _ in range(h.n)]
                scale = rng.randint(1, 3)
                lhs, rhs = check_blowup_identity(t, h, sizes, scale)
                assert lhs == rhs


def test_path_count_without_building_the_path():
    for H in list(SMALL_TARGETS.values()) + [make_capacity_graph(3), make_widom_rowlinson(3),
                                             make_capacity_graph(5), make_folkman_plus_dominating()]:
        for n in range(1, TREE_LIMIT + 1):
            assert _path_hom(_equitable_quotient(H), n) == tree_hom(path(n), H)


def test_star_count_without_building_the_star():
    for H in list(SMALL_TARGETS.values()) + [make_capacity_graph(5), make_folkman_plus_dominating()]:
        Q = _equitable_quotient(H)
        assert _star_hom(Q, 1) == H.n  # the single vertex
        for n in range(2, 13):
            assert _star_hom(Q, n) == tree_hom(star(n), H)


def test_shape_vectors_refused_past_the_cap(monkeypatch):
    # the 9-vertex path has 5 classes, and n = 16 composes 200 rooted shapes
    H = tg(9, *[(i, i + 1) for i in range(8)])
    Q = _equitable_quotient(H)
    monkeypatch.setattr("treehom.trees.SHAPE_VECTOR_LIMIT", 1000)
    assert _shapes().end[TREE_LIMIT // 2] == 200
    assert Q.k == 5
    bounded_fold(TREE_LIMIT, Q.sizes, partial(_message, Q.rows))
    monkeypatch.setattr("treehom.trees.SHAPE_VECTOR_LIMIT", 999)
    with pytest.raises(SizeLimitError, match="200 x 5 = 1000, past SHAPE_VECTOR_LIMIT = 999"):
        bounded_fold(TREE_LIMIT, Q.sizes, partial(_message, Q.rows))

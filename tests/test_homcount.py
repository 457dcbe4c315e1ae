import random
from fractions import Fraction

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
    partition_function,
    path,
    path_pair_counts,
    star,
    tree_hom,
    tree_partition_function,
)
from treehom.automorphy import class_data
from treehom import homcount
from treehom.homcount import _path_hom, _star_hom, sweep_quotient
from treehom.trees import TREE_LIMIT, shape_count

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
        _, m = class_data(SMALL_TARGETS[22])
        totals = {
            sum(a * x for a, x in zip(m.sizes, hom_vector(t, r, m)))
            for r in range(t.n)
        }
        assert len(totals) == 1

    def test_brute_force_budget(self):
        with pytest.raises(SizeLimitError, match="budget"):
            hom_brute_force(path(10), SMALL_TARGETS[28], budget=100)

    def test_single_vertex_tree(self):
        t = Tree.from_edges(1, [])
        for h in SMALL_TARGETS.values():
            assert tree_hom(t, h) == h.n


class TestPathPairCounts:
    def brute_pairs(self, t, h, p_class):
        """Endpoint-class path counts by explicit enumeration."""
        from itertools import product

        k = len(p_class.classes)
        table = [[0] * k for _ in range(k)]
        for f in product(range(h.n), repeat=t):
            if all(h.has_edge(f[i], f[i + 1]) for i in range(t - 1)):
                table[p_class.class_of[f[0]]][p_class.class_of[f[-1]]] += 1
        return table

    def test_matches_enumeration(self):
        for hid in (7, 19, 22, 24, 26):
            h = SMALL_TARGETS[hid]
            p_class, m = class_data(h)
            for t in range(1, 6):
                table = path_pair_counts(t, m)
                brute = self.brute_pairs(t, h, p_class)
                for i in range(m.k):
                    for j in range(m.k):
                        assert table[i, j] == brute[i][j], (hid, t, i, j)

    def test_symmetry(self):
        _, m = class_data(SMALL_TARGETS[24])
        for t in range(1, 8):
            table = path_pair_counts(t, m)
            for i in range(m.k):
                for j in range(m.k):
                    assert table[i, j] == table[j, i]

    def test_total_is_path_hom(self):
        h = SMALL_TARGETS[22]
        _, m = class_data(h)
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

    def test_work_limit_checked_before_any_walk(self, monkeypatch):
        # 28,203 sites x 240 vertices into hind is past the cap: the API
        # refuses it before counting anything, as the CLI does
        def refuse(*args, **kwargs):
            raise AssertionError("walked before the work limit was checked")

        monkeypatch.setattr(homcount, "_walk", refuse)
        monkeypatch.setattr(homcount, "tree_hom", refuse)
        with pytest.raises(SizeLimitError, match="KC_WORK_LIMIT"):
            next(kc_decompositions(path(240), SMALL_TARGETS[7]))


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
            via_tree = partition_function(t, h, lam)
            via_brute = partition_function((t.n, t.edges), h, lam)
            assert via_tree == via_brute

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

    def test_non_tree_fallback_matches_brute_force(self):
        # a 4-cycle with a chord, and a triangle with a pendant vertex
        graphs = [(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]),
                  (4, [(0, 1), (1, 2), (0, 2), (2, 3)])]
        for H, lam in [(H_IND, activities(["3/2", "2/5"])),
                       (make_widom_rowlinson(2), activities(["1/3", 2, "5/7"])),
                       (SMALL_TARGETS[28], activities([2, 3, 5]))]:
            for n, edges in graphs:
                assert partition_function((n, edges), H, lam) == \
                    brute_partition_function(n, edges, H, lam)

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

    def test_non_tree_graph_route(self):
        # 4-cycle into H_ind blow-up
        cyc = (4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        lhs, rhs = check_blowup_identity(cyc, H_IND, [2, 1], 2)
        assert lhs == rhs


def test_path_count_without_building_the_path():
    for H in list(SMALL_TARGETS.values()) + [make_capacity_graph(3), make_widom_rowlinson(3),
                                             make_capacity_graph(5), make_folkman_plus_dominating()]:
        for n in range(1, TREE_LIMIT + 1):
            assert _path_hom(H, n) == tree_hom(path(n), H)


def test_star_count_without_building_the_star():
    for H in list(SMALL_TARGETS.values()) + [make_capacity_graph(5), make_folkman_plus_dominating()]:
        assert _star_hom(H, 1) == H.n  # the single vertex
        for n in range(2, 13):
            assert _star_hom(H, n) == tree_hom(star(n), H)


def test_shape_vectors_refused_past_the_cap(monkeypatch):
    # the 9-vertex path has 5 classes, and n = 16 composes 200 rooted shapes
    H = tg(9, *[(i, i + 1) for i in range(8)])
    monkeypatch.setattr(homcount, "SHAPE_VECTOR_LIMIT", 1000)
    assert shape_count(TREE_LIMIT) == 200
    assert len(sweep_quotient(H, TREE_LIMIT)[0]) == 5
    monkeypatch.setattr(homcount, "SHAPE_VECTOR_LIMIT", 999)
    with pytest.raises(SizeLimitError, match="200 x 5 = 1000, past SHAPE_VECTOR_LIMIT = 999"):
        sweep_quotient(H, TREE_LIMIT)

import itertools
import math
import random

import pytest

from treehom import automorphy
from treehom import (
    SMALL_TARGETS,
    SizeLimitError,
    TargetGraph,
    automorphisms,
    disjoint_union,
    find_increasing_ordering,
    has_increasing_columns,
    make_capacity_graph,
    make_folkman_plus_dominating,
    orbit_partition,
    similarity_matrix,
)
from treehom.automorphy import SimilarityMatrix, _equitable_quotient
from treehom.cli import parse_target_spec

from oracles import dense_regular_21


def tg(n, *edges):
    return TargetGraph.from_edges(n, edges)


# 3-regular on 9 vertices (a loop counts once), 9 singleton classes, and no
# passing ordering: a search over whole equal-degree blocks tries all 9!
REGULAR_9 = tg(9, (0, 0), (0, 4), (0, 7), (1, 1), (1, 4), (1, 6), (2, 5), (2, 7), (2, 8),
               (3, 3), (3, 5), (3, 6), (4, 7), (5, 8), (6, 8))


class TestAutomorphisms:
    def test_unlooped_triangle_full_symmetric_group(self):
        assert len(automorphisms(tg(3, (0, 1), (0, 2), (1, 2)))) == 6

    def test_loops_break_symmetry(self):
        # loop at one triangle vertex: only the swap of the other two survives
        auts = automorphisms(tg(3, (0, 1), (0, 2), (1, 2), (0, 0)))
        assert sorted(auts) == [(0, 1, 2), (0, 2, 1)]

    def test_path_target_reflection(self):
        h = tg(4, (0, 1), (1, 2), (2, 3))
        assert sorted(automorphisms(h)) == [(0, 1, 2, 3), (3, 2, 1, 0)]

    def test_group_closure(self):
        rng = random.Random(5)
        for _ in range(15):
            n = rng.randint(2, 6)
            h = TargetGraph.from_edges(
                n, [(u, v) for u in range(n) for v in range(u, n) if rng.random() < 0.5]
            )
            auts = set(automorphisms(h))
            assert tuple(range(n)) in auts
            for a in auts:
                for b in auts:
                    assert tuple(a[b[v]] for v in range(n)) in auts
            assert len(auts) > 0 and math.factorial(n) % len(auts) == 0

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            automorphisms(tg(13))

    def test_each_mapped_neighbour_is_checked(self):
        # K6 less the edges 1-5 and 2-4, whose complement is two edges and
        # two isolated vertices: 2 * 2 * 2 * 2 = 16 automorphisms. Checking
        # how many neighbours are used, not which, lets 32 maps through
        h = tg(6, *[(u, v) for u, v in itertools.combinations(range(6), 2)
                    if (u, v) not in {(1, 5), (2, 4)}])
        want = [p for p in itertools.permutations(range(6))
                if tg(6, *[(p[u], p[v]) for u, v in h.edges]) == h]
        assert len(want) == 16 and sorted(automorphisms(h)) == want

    def test_zero_vertex_target_has_the_empty_map(self):
        assert automorphisms(tg(0)) == [()]


class TestIsomorphism:
    """The search over vertex images of H onto itself (`automorphy._maps`)."""

    def test_refinement_blind_pair(self):
        # both 2-regular on 6 vertices, so color refinement gives one color
        # and only the check against mapped neighbours rejects a map
        c6 = tg(6, *[(i, (i + 1) % 6) for i in range(6)])
        two_triangles = tg(6, (0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))
        assert len(automorphisms(c6)) == 12
        assert len(automorphisms(two_triangles)) == 72
        # an edge-preserving bijection of a graph onto itself keeps non-edges
        # too, so the used-neighbour count only prunes. Pinned 0 -> 6 (3
        # steps), each of cycle vertex 1's two images (4 steps) leaves vertex
        # 2 two candidates (4 steps each), one used and one that closes a
        # triangle: 3 + 2 * (4 + 2 * 4) = 27 steps
        union = disjoint_union(c6, two_triangles)
        spent = [0]
        assert next(automorphy._maps(union, [0] * 12, spent, (0, 6)), None) is None
        assert spent == [27]

    def test_size_limit(self, monkeypatch):
        # the first map found is the identity: at depth d the d used vertices
        # are tried first, one step each (no neighbours), then vertex d, so
        # it costs sum(d + 1 for d < 13) = 91 steps
        spent = [0]
        assert next(automorphy._maps(tg(13), [0] * 13, spent)) == tuple(range(13))
        assert spent == [91]
        monkeypatch.setattr(automorphy, "AUT_WORK_LIMIT", 90)
        with pytest.raises(SizeLimitError, match="AUT_WORK_LIMIT"):
            next(automorphy._maps(tg(13), [0] * 13, [0]))
        with pytest.raises(SizeLimitError, match="AUT_WORK_LIMIT"):
            automorphisms(tg(13))

    def test_pinned_searches_of_a_path_grow_linearly(self, monkeypatch):
        # one pinned search finds the reflection; each candidate is checked
        # against its mapped neighbours only, so the steps grow with n, not n^2
        steps = {}
        own = automorphy._charge

        def charge(spent, k, limit="AUT_WORK_LIMIT"):
            steps[n] += k
            own(spent, k, limit)

        monkeypatch.setattr(automorphy, "_charge", charge)
        for n in (1000, 2000):
            steps[n] = 0
            q = orbit_partition.__wrapped__(tg(n, *[(i, i + 1) for i in range(n - 1)]))
            assert q.k == n // 2
        assert steps[1000] < 10 * 1000 and steps[2000] < 2.1 * steps[1000]


class TestOrbitPartition:
    def test_star_target_two_classes(self):
        p = orbit_partition(tg(3, (0, 1), (0, 2)))
        assert p.classes == ((0,), (1, 2))

    def test_hind_singleton_classes(self):
        p = orbit_partition(SMALL_TARGETS[7])
        assert p.classes == ((0,), (1,))

    def test_clique_past_enumeration_reach(self):
        # 14! automorphisms; one pinned search per vertex finds the orbit
        k14 = tg(14, *[(i, j) for i in range(14) for j in range(i + 1, 14)])
        assert orbit_partition(k14).classes == (tuple(range(14)),)

    def test_refinement_blind_orbits(self):
        # 2-regular on 12 vertices, so refinement gives one color and the
        # searches pinned from a cycle vertex to a triangle vertex must fail
        c6 = tg(6, *[(i, (i + 1) % 6) for i in range(6)])
        two_triangles = tg(6, (0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))
        p = orbit_partition(disjoint_union(c6, two_triangles))
        assert p.classes == (tuple(range(6)), tuple(range(6, 12)))

    def test_size_limit(self):
        # refinement splits an asymmetric graph into singletons: no search
        p = orbit_partition(tg(13, *[(i, i + 1) for i in range(12)], (0, 0)))
        assert p.classes == tuple((v,) for v in range(13))
        # refinement cannot split a 16-regular graph, and its pinned searches
        # fail only deep down: refused at AUT_WORK_LIMIT steps
        with pytest.raises(SizeLimitError, match="AUT_WORK_LIMIT"):
            orbit_partition(dense_regular_21())

    def test_classes_partition_vertices(self):
        for h in SMALL_TARGETS.values():
            p = orbit_partition(h)
            assert sorted(v for cls in p.classes for v in cls) == list(range(h.n))


class TestSimilarityMatrix:
    def test_orbits_are_equitable_everywhere(self):
        # representative independence across the whole catalog: every member
        # of a class has the same neighbour count in each class, and those
        # counts are the row similarity_matrix reads off the least member
        for h in SMALL_TARGETS.values():
            p = orbit_partition(h)
            rows = similarity_matrix(p).m
            for i, cls in enumerate(p.classes):
                counts = {tuple(sum(1 for u in h.neighbors(v) if p.class_of[u] == j)
                                for j in range(p.k)) for v in cls}
                assert counts == {rows[i]}

    def test_ordering_permutes_rows_and_columns(self):
        p = orbit_partition(SMALL_TARGETS[7])
        m_id = similarity_matrix(p)
        m_sw = similarity_matrix(p, (1, 0))
        assert m_sw.m[0][0] == m_id.m[1][1]
        assert m_sw.m[0][1] == m_id.m[1][0]
        assert m_sw.sizes == tuple(reversed(m_id.sizes))

    def test_bad_ordering_rejected(self):
        p = orbit_partition(SMALL_TARGETS[7])
        with pytest.raises(ValueError, match="permutation"):
            similarity_matrix(p, (0, 0))

    def test_any_equitable_quotient(self):
        # folkman+dom's coarsest equitable partition merges its two orbits
        # of 10, and that matrix passes where every ordering of the orbits'
        # fails: a certificate must be read off the orbits
        h = make_folkman_plus_dominating()
        coarse = similarity_matrix(_equitable_quotient(h))
        assert coarse.sizes == (20, 1) and coarse.m == ((4, 1), (20, 1))
        assert has_increasing_columns(coarse)
        orbits = orbit_partition(h)
        assert similarity_matrix(orbits).m == ((0, 4, 1), (4, 0, 1), (10, 10, 1))
        for ordering in itertools.permutations(range(3)):
            assert not has_increasing_columns(similarity_matrix(orbits, ordering))


class TestIncreasingColumns:
    def mat(self, rows):
        k = len(rows)
        return SimilarityMatrix(k, tuple(map(tuple, rows)), (1,) * k, tuple(range(k)))

    def test_hand_checked_pass_and_fail(self):
        assert has_increasing_columns(self.mat([[0, 1], [1, 1]]))
        assert not has_increasing_columns(self.mat([[1, 1], [0, 1]]))
        # terminal-segment condition, not entrywise: row sums must also grow
        assert has_increasing_columns(self.mat([[2, 0], [1, 2]]))

    def test_single_class_always_passes(self):
        assert has_increasing_columns(self.mat([[3]]))

    def test_hind_ordering_found(self):
        ordering = find_increasing_ordering(SMALL_TARGETS[7])
        assert ordering == (1, 0)  # unlooped class first
        ordered = similarity_matrix(orbit_partition(SMALL_TARGETS[7]), ordering)
        assert ordered.m == ((0, 1), (1, 1))

    def test_unlooped_two_edge_star_fails(self):
        # K_{1,2}: classes (leaves, center), matrix [[0,1],[2,0]]; the
        # terminal column {1} sums decrease 1 -> 0, and the reversed
        # ordering is not degree sorted
        assert find_increasing_ordering(SMALL_TARGETS[19]) is None

    @pytest.mark.parametrize("spec", [f"star:{n}" for n in range(3, 10)]
                             + [f"K{a},{b}" for a, b in ((2, 3), (2, 5), (3, 4), (4, 6), (5, 2))])
    def test_biregular_bipartite_targets_fail(self, spec):
        # sides of degrees d1 != d2: root-w-{two leaves} counts d1·d2² on
        # the side of degree d1 and d2·d1² on the other, the reverse of the
        # degree order, so no ordering passes, alone or beside a certified
        # target (capacity:3)
        if spec.startswith("K"):
            a, b = map(int, spec[1:].split(","))
            H = tg(a + b, *((u, a + w) for u in range(a) for w in range(b)))
        else:
            H = parse_target_spec(spec)
        certified = make_capacity_graph(3)
        assert find_increasing_ordering(certified) is not None
        for G in H, disjoint_union(H, certified), disjoint_union(certified, H):
            assert find_increasing_ordering(G) is None

    def test_single_orbit_target_passes_trivially(self):
        # unlooped K_2 has one orbit; the 1x1 matrix passes vacuously
        got = find_increasing_ordering(SMALL_TARGETS[6])
        assert got == (0,)
        assert similarity_matrix(orbit_partition(SMALL_TARGETS[6]), got).m == ((1,),)


class TestOrderingSearch:
    def test_no_ordering_found_without_building_matrices(self, monkeypatch):
        calls = []
        real = automorphy.similarity_matrix

        def counted(*args):
            calls.append(args)
            if len(calls) > 10:
                raise AssertionError("ordering search builds a matrix per candidate")
            return real(*args)

        monkeypatch.setattr(automorphy, "similarity_matrix", counted)
        assert orbit_partition(REGULAR_9).k == 9
        assert find_increasing_ordering(REGULAR_9) is None
        assert len(calls) <= 1  # the cached identity matrix, if not built yet

    def test_capacity_twenty_within_small_node_limit(self, monkeypatch):
        monkeypatch.setattr(automorphy, "ORDERING_WORK_LIMIT", 10_000)
        got = find_increasing_ordering(make_capacity_graph(20))
        assert got == tuple(range(20, -1, -1))

    def test_node_limit_named(self, monkeypatch):
        monkeypatch.setattr(automorphy, "ORDERING_WORK_LIMIT", 5)
        with pytest.raises(SizeLimitError, match="limited to 5 steps"):
            find_increasing_ordering(make_capacity_graph(20))

import pickle
import random

import pytest

from treehom import (
    GraphParseError,
    TargetGraph,
    Tree,
    add_looped_dominating,
    automorphisms,
    blow_up,
    disjoint_union,
    format_graph,
    hom_brute_force,
    orbit_partition,
    parse_graph,
    tensor_product,
)
from oracles import bipartition, queue_search
from treehom.graphs import _search
from treehom.trees import _kc_glue, bare_path


def tg(n, *edges):
    return TargetGraph.from_edges(n, edges)


def random_target(rng, n):
    edges = [(u, v) for u in range(n) for v in range(u, n) if rng.random() < 0.5]
    return TargetGraph.from_edges(n, edges)


class TestTargetGraph:
    def test_loop_counts_once_in_degree(self):
        h = tg(2, (0, 0), (0, 1))
        assert h.degree(0) == 2  # loop once, plus the edge
        assert h.degree(1) == 1
        assert h.has_loop(0) and not h.has_loop(1)

    def test_neighbors_contains_self_iff_looped(self):
        h = tg(2, (0, 0), (0, 1))
        assert h.neighbors(0) == {0, 1}
        assert h.neighbors(1) == {0}

    def test_edge_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            tg(2, (0, 2))

    def test_hashable_and_equal_by_value(self):
        assert tg(2, (0, 1)) == tg(2, (1, 0))
        assert len({tg(2, (0, 1)), tg(2, (1, 0))}) == 1


class TestTree:
    def test_rejects_wrong_edge_count(self):
        with pytest.raises(ValueError, match="edges"):
            Tree.from_edges(3, [(0, 1)])

    def test_rejects_cycle(self):
        with pytest.raises(ValueError, match="cycle"):
            Tree.from_edges(4, [(0, 1), (1, 2), (0, 2)])

    def test_rejects_loop(self):
        with pytest.raises(ValueError, match="loop"):
            Tree.from_edges(2, [(0, 0)])

    def test_bipartition_sizes(self):
        t = Tree.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        x, y = bipartition(t)
        assert len(x) == 2 and len(y) == 2
        assert set(x) | set(y) == {0, 1, 2, 3}


class TestSearch:
    # a spider whose KC site (0, 4) moves two neighbours of 4, so its glued
    # lists mix T's tuples with the moved neighbours' new lists
    SPIDER = Tree.from_edges(8, [(0, 1), (0, 2), (2, 3), (3, 4), (4, 5), (4, 6), (6, 7)])

    def adjacencies(self):
        glued = _kc_glue(self.SPIDER, 0, bare_path(self.SPIDER, 0, 4)[-2], 4)
        assert {type(a) for a in glued} == {tuple, list}
        # a looped vertex and two components: frozenset rows, some vertices unreached
        target = tg(7, (0, 0), (0, 1), (1, 2), (1, 3), (4, 5), (5, 6), (6, 4))
        return [self.SPIDER._adj, glued, target._adj]

    def test_matches_a_queue_search(self):
        for adj in self.adjacencies():
            for root in range(len(adj)):
                for skip in [None, *(u for u in adj[root] if u != root)]:
                    order, parent = _search(adj, root, skip)
                    assert (order, parent) == queue_search(adj, root, skip)
                    assert order[0] == root and parent[root] == root
                    if skip is not None:
                        assert parent[skip] == skip and skip not in order
                    assert all(parent[v] == -1 for v in range(len(adj))
                               if v not in order and v != skip)

    def test_stops_at_the_component_and_at_skip(self):
        _, _, target = self.adjacencies()
        assert _search(target, 0) == ([0, 1, 2, 3], [0, 0, 1, 1, -1, -1, -1])
        assert _search(target, 0, skip=1) == ([0], [0, 1, -1, -1, -1, -1, -1])
        assert _search(target, 5)[0] in ([5, 4, 6], [5, 6, 4])


class TestValueSemantics:
    # both graph classes compare and hash on (n, edges) alone, which is what
    # the lru_cache keys on targets rely on
    CASES = [
        (lambda: tg(3, (1, 0), (2, 2)), lambda: TargetGraph(3, frozenset({(0, 1), (2, 2)}))),
        (lambda: Tree.from_edges(3, [(2, 1), (1, 0)]), lambda: Tree(3, ((0, 1), (1, 2)))),
        # the bare constructors normalize too: a set with a reversed pair,
        # and a tree's edges as a list, out of order, or reversed
        (lambda: TargetGraph(3, {(1, 0), (2, 2)}), lambda: tg(3, (0, 1), (2, 2))),
        (lambda: Tree(3, [(0, 1), (1, 2)]), lambda: Tree.from_edges(3, [(0, 1), (1, 2)])),
        (lambda: Tree(3, ((1, 2), (0, 1))), lambda: Tree.from_edges(3, [(1, 2), (0, 1)])),
        (lambda: Tree(3, ((1, 0), (2, 1))), lambda: Tree.from_edges(3, [(1, 0), (2, 1)])),
    ]

    @pytest.mark.parametrize("make, same", CASES)
    def test_equal_fields_equal_objects_and_hashes(self, make, same):
        a, b = make(), same()
        assert a is not b and a == b and hash(a) == hash(b) == hash((a.n, a.edges))
        assert len({a, b}) == 1 and pickle.loads(pickle.dumps(a)) == a

    def test_unequal_fields_or_classes(self):
        assert tg(3, (0, 1)) != tg(4, (0, 1)) and tg(3, (0, 1)) != tg(3, (1, 2))
        assert Tree.from_edges(3, [(0, 1), (0, 2)]) != Tree.from_edges(3, [(0, 1), (1, 2)])
        assert tg(2, (0, 1)) != Tree.from_edges(2, [(0, 1)])
        assert tg(2, (0, 1)) != (2, frozenset({(0, 1)}))

    @pytest.mark.parametrize("make, _", CASES)
    @pytest.mark.parametrize("attr", ["n", "edges", "_adj", "other"])
    def test_attribute_assignment_refused(self, make, _, attr):
        g = make()
        with pytest.raises(AttributeError):
            setattr(g, attr, 1)
        with pytest.raises(AttributeError):
            delattr(g, attr)
        assert g == make()

    def test_repr_shows_n_and_edges(self):
        assert repr(Tree.from_edges(3, [(1, 0), (2, 1)])) == "Tree(n=3, edges=((0, 1), (1, 2)))"
        h = tg(2, (0, 1))
        assert repr(h) == "TargetGraph(n=2, edges=frozenset({(0, 1)}))"


class TestParsing:
    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(20):
            h = random_target(rng, rng.randint(1, 8))
            assert parse_graph(format_graph(h)) == h

    def test_comments_and_blank_lines_skipped(self):
        h = parse_graph("# a target\n\n2 2\n0 0\n# loop above\n0 1\n")
        assert h == tg(2, (0, 0), (0, 1))

    def test_bad_header(self):
        with pytest.raises(GraphParseError, match="line 1"):
            parse_graph("2\n0 1")

    def test_out_of_range_names_line(self):
        with pytest.raises(GraphParseError, match="line 3"):
            parse_graph("2 2\n0 1\n0 5")

    def test_duplicate_edge(self):
        with pytest.raises(GraphParseError, match="duplicate"):
            parse_graph("2 2\n0 1\n1 0")

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphParseError, match="announces"):
            parse_graph("2 2\n0 1")


class TestConstructions:
    def test_disjoint_union_hom_additive(self):
        # colorings of a connected graph into a union split by component
        t = Tree.from_edges(3, [(0, 1), (1, 2)])
        h1, h2 = tg(2, (0, 1)), tg(2, (0, 0), (0, 1))
        u = disjoint_union(h1, h2)
        assert hom_brute_force(t, u) == hom_brute_force(t, h1) + hom_brute_force(t, h2)

    def test_tensor_product_hom_multiplicative(self):
        t = Tree.from_edges(4, [(0, 1), (1, 2), (1, 3)])
        h1, h2 = tg(2, (0, 0), (0, 1)), tg(3, (0, 1), (1, 2), (1, 1))
        p = tensor_product(h1, h2)
        assert hom_brute_force(t, p) == hom_brute_force(t, h1) * hom_brute_force(t, h2)

    def test_blow_up_shapes(self):
        # looped vertex -> fully looped clique; unlooped -> empty set
        h = tg(2, (0, 0), (0, 1))
        b = blow_up(h, [2, 3])
        assert b.n == 5
        assert b.has_edge(0, 1) and b.has_loop(0) and b.has_loop(1)
        assert not b.has_edge(2, 3) and not b.has_loop(2)
        assert all(b.has_edge(i, j) for i in (0, 1) for j in (2, 3, 4))

    def test_blow_up_by_ones_is_identity(self):
        h = tg(3, (0, 1), (1, 1), (1, 2))
        assert blow_up(h, [1, 1, 1]) == h

    def test_add_looped_dominating(self):
        h = tg(2, (0, 1))
        d = add_looped_dominating(h, 2)
        assert d.n == 4
        for w in (2, 3):
            assert d.has_loop(w)
            assert all(d.has_edge(w, v) for v in range(4) if v != w or v == w)

    @pytest.mark.parametrize("build, message", [
        (lambda: TargetGraph(-1, frozenset()), "vertex count must be non-negative"),
        (lambda: blow_up(tg(2, (0, 1)), [1]), "need one size per vertex: got 1 for n=2"),
        (lambda: blow_up(tg(2, (0, 1)), [0, 1]), "blow-up sizes must be positive"),
        (lambda: add_looped_dominating(tg(2, (0, 1)), -1), "b must be non-negative"),
    ])
    def test_refuses_bad_sizes(self, build, message):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message


def orbit_sizes(h):
    return sorted(orbit_partition(h).sizes)


class TestIsomorphism:
    def test_relabeling_keeps_group_and_orbit_sizes(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 7)
            h = random_target(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            g = TargetGraph.from_edges(n, [(perm[u], perm[v]) for u, v in h.edges])
            assert len(automorphisms(g)) == len(automorphisms(h))
            assert orbit_sizes(g) == orbit_sizes(h)

    def test_loop_placement_distinguishes(self):
        # path with a loop at an end vs at the middle: only the second keeps
        # the reflection
        a = tg(3, (0, 1), (1, 2), (0, 0))
        b = tg(3, (0, 1), (1, 2), (1, 1))
        assert len(automorphisms(a)) == 1 and orbit_sizes(a) == [1, 1, 1]
        assert len(automorphisms(b)) == 2 and orbit_sizes(b) == [1, 2]

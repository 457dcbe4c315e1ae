"""Property tests on random small loopy targets and random trees: the tree
walk's three entry points against brute force, the composed sweep against
the walk over `all_trees` and, position by position, over each listed
tree (and the sweep verdicts against a walk-and-code reference), the
bounded fold against the sweep's counts at most a bound and against the
walk of each listed tree, check-hl's verdict on certified targets
against the fold's counts and every three-leg spider's, the two lemmas of
that verdict's proof (degrees order every walk count on a certified
target, and no bipartite target with unequal side degrees passes), the
quotient path count against the walk of the path, the count of a
disjoint union against the sum of its parts' counts, the
four constructions against their adjacency definitions,
the closed-form counts of regular targets against the walk over `all_trees`, colour
refinement against refinement in rounds and against loops, the KC machinery against bare_path, its identity and
the contraction oracle, the
automorphism search and the orbit search against all vertex permutations,
the class-ordering search against all class orderings, the strict-minimality
certificate against adjacency-matrix powers and against the degree test, the one-pass tree constructor
against its edge-by-edge check, and the edge-list format round trip."""

from fractions import Fraction
from functools import partial
from itertools import islice, permutations
from math import lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import (
    as_certificate, blown_up_edges, brute_partition_function, dominated_edges,
    first_increasing_ordering, fold_counts, fraction_partition_function,
    has_balanced_bipartition, isomorphic, kc_moved_edges, product_edges, quotient_hom,
    queue_search, round_refined_colors, spider_counts, strict_witness_pairs, union_edges,
)
from treehom import (
    SMALL_TARGETS,
    MinimizerReport,
    TargetGraph,
    Tree,
    activities,
    add_looped_dominating,
    all_trees,
    automorphisms,
    bare_path,
    blow_up,
    canonical_code,
    check_strong_hl_certificate,
    classify_small_targets,
    disjoint_union,
    find_increasing_ordering,
    format_graph,
    hom_brute_force,
    hom_count,
    kc_decompositions,
    kc_difference_decomposition,
    kc_move,
    kc_sites,
    make_capacity_graph,
    make_folkman_plus_dominating,
    make_widom_rowlinson,
    minimizers,
    orbit_partition,
    parse_graph,
    path,
    sidorenko_check,
    similarity_matrix,
    star,
    tensor_product,
    tree_hom,
    tree_partition_function,
    verify_hoffman_london,
)
from treehom import extremal, graphs, trees as trees_module
from treehom.automorphy import Quotient, _equitable_quotient, _refined_colors
from treehom.homcount import _message, _path_counts, _path_hom, _star_hom
from treehom.trees import free_trees
from treehom.extremal import (
    LABEL_ALL, LABEL_BALANCED, LABEL_OTHER, LABEL_PATHS, LABEL_ZERO, OrderVerdict,
)

# deterministic and bounded, so the suite stays reproducible and fast
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def targets(draw, max_n=5):
    """Loopy graphs on at most max_n vertices: a free random graph on n
    vertices, blown up by random cluster sizes. The clusters are twins, so
    classes of size and multiplicity above 2 turn up often; all sizes 1
    leaves the random graph as it is."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    sizes, room = [], max_n - n
    for _ in range(n):
        extra = draw(st.integers(0, room))
        sizes.append(1 + extra)
        room -= extra
    return blow_up(TargetGraph.from_edges(n, [e for e, k in zip(pairs, keep) if k]), sizes)


@st.composite
def trees(draw, max_n=8):
    """Trees on 1..max_n vertices: vertex v > 0 attaches to an earlier vertex,
    under a random relabelling so vertex 0 is not always the root."""
    n = draw(st.integers(1, max_n))
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    label = draw(st.permutations(range(n)))
    return Tree.from_edges(n, [(label[p], label[v]) for v, p in enumerate(parents, 1)])


rationals = st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))


@PROPERTY
@given(targets(), trees())
def test_walk_routes_agree_with_brute_force(H, T):
    want = hom_brute_force(T, H)
    assert tree_hom(T, H) == want
    assert hom_count(T, H) == want
    assert tree_partition_function(T, H, activities([1] * H.n)) == want


@PROPERTY
@given(targets(), trees(), st.data())
def test_weighted_walk_agrees_with_brute_force(H, T, data):
    lam = activities(data.draw(st.lists(rationals, min_size=H.n, max_size=H.n)))
    assert tree_partition_function(T, H, lam) == brute_partition_function(T.n, T.edges, H, lam)


# five numerators and five denominators, cut to the target's order: the
# denominators are distinct primes (pairwise coprime, so the common
# denominator is their product) or all 1. Trees stop at 6 vertices so the
# Fraction brute force (5^6 maps) stays cheap.
numerators = st.lists(st.integers(1, 30), min_size=5, max_size=5)
coprime_denominators = st.permutations([2, 3, 5, 7, 11])
SINGLE_VERTEX = Tree.from_edges(1, [])


@PROPERTY
@given(targets(), trees(max_n=6), numerators, coprime_denominators, st.booleans())
@example(make_widom_rowlinson(3), SINGLE_VERTEX, [3, 7, 10, 3, 1], [2, 3, 5, 7, 11], False)
@example(make_widom_rowlinson(3), SINGLE_VERTEX, [3, 7, 10, 3, 1], [2, 3, 5, 7, 11], True)
def test_integer_route_matches_fraction_walk_and_brute_force(H, T, nums, dens, integral):
    lam = activities(Fraction(a, 1 if integral else d) for a, d in zip(nums[:H.n], dens))
    want = fraction_partition_function(T, H, lam)
    assert want == brute_partition_function(T.n, T.edges, H, lam)
    assert tree_partition_function(T, H, lam) == want


@PROPERTY
@given(targets(), st.integers(1, 9))
def test_sweep_counts_are_the_walk_counts(H, n):
    assert sorted(fold_counts(H, n)) == sorted(tree_hom(ct.tree, H) for ct in all_trees(n))


def tree_at(parts):
    """The tree `free_trees` lists as parts, as a Tree."""
    adj = trees_module._adjacency(parts)
    return Tree.from_edges(len(adj), [(u, v) for u, a in enumerate(adj) for v in a if u < v])


# a fold's tables are built for an order n_max and reach n_max // 2 vertices
# (the tail size), so for n >= 3 the order's own tables leave its root, and
# more nodes, to branch, while a larger order's take more children, or the
# whole tree, from one table block
@PROPERTY
@given(targets(), st.integers(1, 12))
@example(TargetGraph.from_edges(3, [(0, 0), (0, 1)]), 12)  # an isolated vertex
@example(TargetGraph.from_edges(4, [(0, 0), (1, 1), (2, 3)]), 11)  # loops apart
@example(TargetGraph.from_edges(2, []), 10)  # no edges at all
def test_sweep_count_at_each_position_is_the_walk_count(H, n):
    want = [tree_hom(tree_at(parts), H) for parts in free_trees(n)]
    for n_max in n, trees_module.TREE_LIMIT:
        assert fold_counts(H, n, n_max) == want, n_max


def _larger(n, extra):
    """The order extra past n, at most TREE_LIMIT, whose tables also fold n."""
    return min(n + extra, trees_module.TREE_LIMIT)


# a looped vertex joined to an unlooped one, a looped vertex alone, and an
# isolated vertex, whose class has no neighbours and counts no coloring of
# a tree with an edge
POSITION_TARGET = TargetGraph.from_edges(4, [(0, 0), (0, 1), (2, 2)])


# (extra, n_max): each order n <= n_max is folded from tables built for an
# order extra past it, at most TREE_LIMIT; extra 0 is the order's own
TAIL_CASES = [(8, trees_module.TREE_LIMIT), (0, 12), (3, 12), (6, 12)]


@pytest.mark.parametrize("extra, n_max", TAIL_CASES)
def test_sweep_positions_hold_at_every_tail_size(extra, n_max):
    for n in range(1, n_max + 1):
        want = [tree_hom(tree_at(parts), POSITION_TARGET) for parts in free_trees(n)]
        assert fold_counts(POSITION_TARGET, n, _larger(n, extra)) == want, n


def _bounds(H, n, counts):
    """Bounds below every count, just below and at the path's count, at a
    middle count, just below the star's count and at the largest count."""
    Q = _equitable_quotient(H)
    return (min(counts) - 1, _path_hom(Q, n) - 1, _path_hom(Q, n),
            sorted(counts)[len(counts) // 2], _star_hom(Q, n) - 1, max(counts))


def _sides(counts, bound):
    """The (position, count) pairs at most bound and those above it."""
    return ([(i, c) for i, c in enumerate(counts) if c <= bound],
            [(i, c) for i, c in enumerate(counts) if c > bound])


@PROPERTY
@given(targets(), st.integers(1, 12))
@example(TargetGraph.from_edges(3, [(0, 0), (0, 1)]), 12)  # an isolated vertex
@example(TargetGraph.from_edges(4, [(0, 0), (1, 1), (2, 3)]), 11)  # loops apart
@example(TargetGraph.from_edges(2, []), 10)  # no edges at all
def test_bounded_fold_lists_the_counts_at_most_its_bound(H, n):
    counts = fold_counts(H, n)
    _, fold = extremal._bounded_fold(H, n)
    for bound in _bounds(H, n, counts):
        assert (fold(n, bound), fold(n, bound, above=True)) == _sides(counts, bound), bound


BOUNDED_TARGETS = {"capacity:3": make_capacity_graph(3), "wr:3": make_widom_rowlinson(3),
                   "folkman+dom": make_folkman_plus_dominating()}


@pytest.mark.parametrize("extra, n_max", TAIL_CASES)
@pytest.mark.parametrize("name", list(BOUNDED_TARGETS))
def test_bounded_fold_holds_at_every_tail_size(name, extra, n_max):
    # whether the bounded fold bisects a table block or prunes stack nodes:
    # each order from its own tables, and from one set built for the order
    # extra past n_max that every order reads, as check-hl reads it
    H = BOUNDED_TARGETS[name]
    _, shared = extremal._bounded_fold(H, _larger(n_max, extra))
    for n in range(1, n_max + 1):
        counts = fold_counts(H, n)
        _, own = extremal._bounded_fold(H, n)
        for bound in _bounds(H, n, counts):
            for fold in own, shared:
                assert (fold(n, bound), fold(n, bound, above=True)) == _sides(counts, bound), \
                    (n, bound)


@st.composite
def quotients(draw, max_k=3):
    """Equitable quotients with no graph behind them: k <= max_k classes of
    sizes s_i in 1..3, and W[i][j] = W[j][i] drawn from {0, 1, 2} times
    lcm(s_i, s_j), so that m[i][j] = W[i][j] / s_i is whole and s_i·m[i][j]
    = s_j·m[j][i]; rows[i] lists class j m[i][j] times. Many have no graph:
    a class of one vertex may have two neighbours in itself."""
    k = draw(st.integers(1, max_k))
    sizes = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    W = {}
    for i in range(k):
        for j in range(i, k):
            W[i, j] = W[j, i] = draw(st.integers(0, 2)) * lcm(sizes[i], sizes[j])
    rows = tuple(tuple(j for j in range(k) for _ in range(W[i, j] // sizes[i]))
                 for i in range(k))
    class_of = tuple(c for c, s in enumerate(sizes) for _ in range(s))
    return Quotient(class_of, tuple(sizes), rows)


@PROPERTY
@given(quotients())
def test_sweep_counts_read_any_quotient(Q):
    # the fold, the path counts and the star counts read only the class
    # sizes and rows, so they hold on quotients no graph realizes
    paths = list(islice(_path_counts(Q), 7))
    for n in range(1, 8):
        counts = [quotient_hom(tree_at(parts), Q.sizes, Q.rows) for parts in free_trees(n)]
        fold = trees_module.bounded_fold(n, Q.sizes, partial(_message, Q.rows))
        for bound in min(counts) - 1, sorted(counts)[len(counts) // 2], max(counts):
            assert (fold(n, bound), fold(n, bound, above=True)) == _sides(counts, bound), n
        assert paths[n - 1] == quotient_hom(path(n), Q.sizes, Q.rows), n
        assert _star_hom(Q, n) == quotient_hom(star(n) if n > 1 else path(1), Q.sizes, Q.rows)


# the bounded fold's reference here is the walk of each listed tree, not the
# sweep; each order is folded from the tables of the order extra past it
READER_EXTRAS = (0, 3, 6, 8)


def _readers_are_the_walk_counts(H, n_max, extra):
    Q = _equitable_quotient(H)
    for n in range(1, n_max + 1):
        bounded = trees_module.bounded_fold(_larger(n, extra), Q.sizes, partial(_message, Q.rows))
        want = [tree_hom(tree_at(parts), H) for parts in free_trees(n)]
        for bound in _bounds(H, n, want):
            assert (bounded(n, bound), bounded(n, bound, above=True)) == _sides(want, bound), \
                (n, bound)


@PROPERTY
@given(targets(), st.integers(1, 10), st.sampled_from(READER_EXTRAS))
@example(TargetGraph.from_edges(3, [(0, 0), (0, 1)]), 10, 0)  # an isolated vertex
@example(TargetGraph.from_edges(2, []), 10, 8)  # no edges at all
def test_fold_readers_are_the_walk_counts(H, n_max, extra):
    _readers_are_the_walk_counts(H, n_max, extra)


@pytest.mark.parametrize("extra", READER_EXTRAS)
@pytest.mark.parametrize("name", list(BOUNDED_TARGETS))
def test_fold_readers_are_the_walk_counts_on_named_targets(name, extra):
    _readers_are_the_walk_counts(BOUNDED_TARGETS[name], 12, extra)


@PROPERTY
@given(targets(max_n=6), st.integers(1, 30))
def test_path_count_is_the_walk_count(H, n):
    assert _path_hom(_equitable_quotient(H), n) == tree_hom(path(n), H)


@PROPERTY
@given(st.lists(targets(max_n=4), min_size=1, max_size=3), trees(max_n=6))
def test_disjoint_union_count_is_the_sum_of_its_parts(Hs, T):
    # T is connected, so each of its colourings lies in one part: the
    # identity hom(T, H1 ⊔ H2) = hom(T, H1) + hom(T, H2) the sweeps count
    # components by, the union walked on its own quotient
    assert tree_hom(T, disjoint_union(*Hs)) == sum(hom_brute_force(T, H) for H in Hs)


@st.composite
def loopy_targets(draw, max_n=5):
    """Any loopy graph on at most max_n vertices, the empty one included."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u, n)]
    return TargetGraph.from_edges(n, draw(st.lists(st.sampled_from(pairs), unique=True))
                                  if pairs else [])


@PROPERTY
@given(loopy_targets(), loopy_targets(), st.data())
def test_constructions_are_their_adjacency_definitions(H1, H2, data):
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=H1.n, max_size=H1.n))
    b = data.draw(st.integers(0, 3))
    for got, want in ((tensor_product(H1, H2), product_edges(H1, H2)),
                      (blow_up(H1, sizes), blown_up_edges(H1, sizes)),
                      (add_looped_dominating(H1, b), dominated_edges(H1, b)),
                      (disjoint_union(H1, H2, H1), union_edges(H1, H2, H1))):
        assert (got.n, got.edges) == want and type(got.edges) is frozenset


@st.composite
def regular_targets(draw, max_n=7):
    """Loopy graphs whose every edge joins two vertices of one degree:
    disjoint cycles (degree 2) or disjoint (d + 1)-cliques, each with its
    own d, some edges {u, v} of a matching traded for loops at u and at v
    (so those vertices keep their degree), and some isolated vertices."""
    n = 0
    edges = []
    if draw(st.booleans()):  # cycles
        while n < max_n - 2 and (not edges or draw(st.booleans())):
            k = draw(st.integers(3, max_n - n))
            edges += [(n + i, n + (i + 1) % k) for i in range(k)]
            n += k
    else:  # cliques
        while n <= max_n - 2 and (not edges or draw(st.booleans())):
            d = draw(st.integers(1, min(3, max_n - n - 1)))
            edges += [(n + i, n + j) for i in range(d + 1) for j in range(i + 1, d + 1)]
            n += d + 1
    used: set[int] = set()
    for e in draw(st.lists(st.sampled_from(edges), unique=True)):
        if used.isdisjoint(e):
            used.update(e)
            edges.remove(e)
            edges += [(e[0], e[0]), (e[1], e[1])]
    return TargetGraph.from_edges(n + draw(st.integers(0, 2)), edges)


@PROPERTY
@given(regular_targets(), st.integers(1, 9))
# a path with both ends looped, and an isolated vertex
@example(TargetGraph.from_edges(4, [(0, 0), (1, 1), (0, 2), (1, 2)]), 6)
@example(TargetGraph.from_edges(3, []), 5)  # no edges at all
@example(SMALL_TARGETS[18], 7)  # a looped edge and a looped vertex: degrees 2 and 1
def test_regular_targets_are_counted_without_the_fold(H, n):
    # the closed form classify reads: Σ_v deg(v)^(n-1)
    assert all(H.degree(u) == H.degree(v) for u in H.vertices() for v in H.neighbors(u))
    count = sum(H.degree(v) ** (n - 1) for v in H.vertices())
    counts = [tree_hom(ct.tree, H) for ct in all_trees(n)]
    assert counts == [count] * len(counts)
    # every tree has the same class vector, so the bounds are exact and the
    # bounded fold at the common count sums no block's class vectors on
    # either side; at the count itself it sums every tree's
    Q = _equitable_quotient(H)
    fold = trees_module.bounded_fold(n, Q.sizes, partial(_message, Q.rows))
    summed = []

    def spy(f, *iterables):
        if f is sum:
            summed.append(n)
        return map(f, *iterables)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trees_module, "map", spy, raising=False)
        assert fold(n, count - 1) == [] == fold(n, count, above=True)
        assert summed == []
        assert fold(n, count) == list(enumerate(counts))
        assert summed


@PROPERTY
@given(targets(max_n=6), trees(max_n=7), st.data())
def test_quotient_partition_function_with_repeated_activities(H, T, data):
    # at most two distinct activities, so vertices alike in H and in
    # activity share a class of the quotient the weighted walk runs on
    pool = data.draw(st.lists(rationals, min_size=1, max_size=2))
    lam = activities(data.draw(st.lists(st.sampled_from(pool), min_size=H.n, max_size=H.n)))
    assert tree_partition_function(T, H, lam) == fraction_partition_function(T, H, lam)


@st.composite
def target_unions(draw):
    """A draw of targets(max_n=6), or the disjoint union of two."""
    H = draw(targets(max_n=6))
    return disjoint_union(H, draw(targets(max_n=6))) if draw(st.booleans()) else H


def _blocks(colors):
    groups = {}
    for v, c in enumerate(colors):
        groups.setdefault(c, []).append(v)
    return sorted(groups.values())


@PROPERTY
@given(target_unions())
def test_quotient_is_the_coarsest_equitable_partition(H):
    class_of, sizes, rows = _equitable_quotient(H)
    assert _blocks(class_of) == _blocks(round_refined_colors(H))
    assert list(sizes) == [class_of.count(c) for c in range(len(sizes))]
    # equitable: every member's neighbour classes, with multiplicity, are
    # its class's row
    for v in H.vertices():
        assert tuple(sorted(class_of[u] for u in H.neighbors(v))) == rows[class_of[v]]


@PROPERTY
@given(targets(max_n=6), targets(max_n=6))
# an edge and a looped vertex: every vertex has one neighbour, so only the
# loops split the colours, on G itself and on the union
@example(TargetGraph.from_edges(3, [(0, 1), (2, 2)]), TargetGraph.from_edges(1, []))
@example(TargetGraph.from_edges(2, [(0, 1)]), TargetGraph.from_edges(1, [(0, 0)]))
def test_refined_classes_agree_on_loops(G, H):
    # the isomorphism search compares colours only, so a colour must fix the loop
    for graph in G, disjoint_union(G, H):
        by_class = {}
        for v, c in enumerate(_refined_colors(graph)):
            by_class.setdefault(c, set()).add(graph.has_loop(v))
        assert all(len(loops) == 1 for loops in by_class.values())


# ---------------------------------------------------------------------------
# sweep verdicts against a reference that walks and codes every tree

REFERENCE_N = 10
REFERENCE_TARGETS = {f"h{i}": H for i, H in SMALL_TARGETS.items()}
REFERENCE_TARGETS.update({"capacity:3": make_capacity_graph(3),
                          "wr:3": make_widom_rowlinson(3),
                          "folkman+dom": make_folkman_plus_dominating()})


def _reference_counts(H):
    """{n: {canonical code: hom(T, H)}} by walking every tree of all_trees."""
    return {n: {ct.code: tree_hom(ct.tree, H) for ct in all_trees(n)}
            for n in range(1, REFERENCE_N + 1)}


def _first_in_code_order(n, counts, offends, bound):
    bad = sorted(code for code, c in counts.items() if offends(c, bound))
    return (n, bad[0], counts[bad[0]], bound) if bad else None


@PROPERTY
@given(targets(), st.integers(2, 10))
def test_spider_route_is_the_fold_verdict_on_random_targets(H, n_max):
    # check-hl on a target the increasing-columns test certifies reads the
    # path's count and the degree test, no tree: against every tree's count
    assume(find_increasing_ordering(H) is not None)
    Q, want = _equitable_quotient(H), []
    for n in range(2, n_max + 1):
        counts, path_count = fold_counts(H, n, n_max), _path_hom(Q, n)
        lo = min(counts)
        want.append(OrderVerdict(n, lo, path_count == lo,
                                 path_count == lo and counts.count(lo) == 1))
    assert verify_hoffman_london(H, n_max).reports == tuple(want)


@PROPERTY
@given(target_unions(), st.integers(4, 30))
@example(make_capacity_graph(2), 30)
def test_degree_verdict_is_the_spider_verdict_on_random_targets(H, n_max):
    # the degree test against every three-leg spider's count: none counts
    # less than the path, and the path is alone least exactly when every
    # spider counts more
    assume(find_increasing_ordering(H) is not None)
    for v in verify_hoffman_london(H, n_max).reports[2:]:
        path_count, spiders = spider_counts(H, v.n)
        assert (v.min_count, v.path_is_min) == (path_count, True) and min(spiders) >= path_count
        assert v.path_is_unique_min == (min(spiders) > path_count)


@PROPERTY
@given(target_unions())
@example(make_capacity_graph(3))
def test_degrees_order_every_walk_count_on_certified_targets(H):
    # lemma (i) of the degree test's proof: on a certified target, deg x <
    # deg y within one component gives p_j(x) < p_j(y), p_j = A^j·1, j >= 1
    assume(find_increasing_ordering(H) is not None)
    adj = [sorted(H.neighbors(v)) for v in H.vertices()]
    component = [min(queue_search(adj, v)[0]) for v in H.vertices()]
    pairs = [(x, y) for x in H.vertices() for y in H.vertices()
             if component[x] == component[y] and H.degree(x) < H.degree(y)]
    p = [1] * H.n
    for _ in range(12):
        p = [sum(p[u] for u in adj[v]) for v in H.vertices()]
        assert all(p[x] < p[y] for x, y in pairs)


@st.composite
def biregular_bipartite(draw):
    """Bipartite graphs with degree d1 on one side and d2 > d1 on the other:
    side-1 vertex a (of m1 = g·d2) joined to side-2 vertices (a·d1 + t) mod
    m2, t < d1 (of m2 = g·d1), then random switches of two edges' ends that
    keep every degree and make no repeated edge."""
    d1 = draw(st.integers(1, 3))
    d2, g = draw(st.integers(d1 + 1, 4)), draw(st.integers(1, 2))
    m1, m2 = g * d2, g * d1
    edges = {(a, m1 + (a * d1 + t) % m2) for a in range(m1) for t in range(d1)}
    for i, j in draw(st.lists(st.tuples(st.integers(0, len(edges) - 1),
                                        st.integers(0, len(edges) - 1)), max_size=6)):
        (a1, b1), (a2, b2) = sorted(edges)[i], sorted(edges)[j]
        if (a1, b2) not in edges and (a2, b1) not in edges:
            edges -= {(a1, b1), (a2, b2)}
            edges |= {(a1, b2), (a2, b1)}
    return TargetGraph.from_edges(m1 + m2, edges)


@PROPERTY
@given(biregular_bipartite(), st.sampled_from([None, 3, 7, 26]))
def test_biregular_bipartite_targets_have_no_passing_ordering(H, other):
    # lemma (ii): the rooted tree root-w-{two leaves} counts d1·d2² on the
    # side of degree d1 and d2·d1² on the other, the reverse of the degree
    # order, so no ordering passes, alone or beside a certified small target
    assert len({H.degree(v) for v in H.vertices()}) == 2
    if other is not None:
        assert find_increasing_ordering(SMALL_TARGETS[other]) is not None
        H = disjoint_union(SMALL_TARGETS[other], H)
    assert find_increasing_ordering(H) is None


@pytest.mark.parametrize("name", list(REFERENCE_TARGETS))
def test_sweep_verdicts_match_reference(name):
    H = REFERENCE_TARGETS[name]
    ref = _reference_counts(H)
    for n, counts in ref.items():
        lo, hi = min(counts.values()), max(counts.values())
        mins = tuple(sorted(code for code, c in counts.items() if c == lo))
        path_code = canonical_code(path(n))
        star_code = canonical_code(star(n)) if n >= 2 else path_code
        assert minimizers(H, n) == MinimizerReport(
            n, lo, mins, path_code in mins, mins == (path_code,), hi, counts[star_code] == hi)

    violation = None
    for n in range(2, REFERENCE_N + 1):
        star_count = ref[n][canonical_code(star(n))]
        violation = _first_in_code_order(n, ref[n], int.__gt__, star_count)
        if violation:
            break
    assert sidorenko_check(H, REFERENCE_N) == (violation is None, violation)


@pytest.mark.parametrize("name", ["h6", "h7", "h19", "capacity:3"])
def test_offender_is_first_in_code_order(name, monkeypatch):
    # The star is the maximizer on every target here, so no real offender
    # exists. Lower the star's count by one at n = 7 only: the offenders are
    # then the trees tying it, and the report must name the first of them in
    # code order.
    H, n = REFERENCE_TARGETS[name], 7
    counts = {ct.code: tree_hom(ct.tree, H) for ct in all_trees(n)}
    stars = extremal._star_hom
    monkeypatch.setattr(extremal, "_star_hom", lambda Q, m: stars(Q, m) - (m == n))
    star_count = counts[canonical_code(star(n))]
    first = min(code for code, c in counts.items() if c >= star_count)
    assert sidorenko_check(H, 9) == (False, (n, first, counts[first], star_count - 1))


def test_classify_labels_match_reference():
    balanced = {n: {ct.code for ct in all_trees(n) if has_balanced_bipartition(ct.tree)}
                for n in range(2, REFERENCE_N + 1)}
    for row in classify_small_targets(REFERENCE_N):
        ref = _reference_counts(SMALL_TARGETS[row.target_id])
        for (n, min_count), (n2, labels) in zip(row.min_counts, row.labels):
            counts = ref[n]
            lo = min(counts.values())
            mins = {code for code, c in counts.items() if c == lo}
            want = {LABEL_ZERO} if lo == 0 else set()
            if mins == set(counts):
                want.add(LABEL_ALL)
            if mins == {canonical_code(path(n))}:
                want.add(LABEL_PATHS)
            if mins == balanced[n]:
                want.add(LABEL_BALANCED)
            assert (n, min_count) == (n2, lo)
            assert labels == frozenset(want or {LABEL_OTHER}), (row.target_id, n)


@st.composite
def target_pairs(draw):
    """(G, H) on at most 5 vertices: H is a relabelled copy of G, that copy
    with one edge moved (same vertex and edge counts), or a second draw."""
    G = draw(targets())
    kind = draw(st.sampled_from(["copy", "moved", "free"]))
    if kind == "free":
        return G, draw(targets())
    label = draw(st.permutations(range(G.n)))
    edges = {tuple(sorted((label[u], label[v]))) for u, v in G.edges}
    absent = [(u, v) for u in range(G.n) for v in range(u, G.n) if (u, v) not in edges]
    if kind == "moved" and edges and absent:
        edges.remove(draw(st.sampled_from(sorted(edges))))
        edges.add(draw(st.sampled_from(absent)))
    return G, TargetGraph.from_edges(G.n, edges)


def _relabel(H, perm):
    return TargetGraph.from_edges(H.n, [(perm[u], perm[v]) for u, v in H.edges])


@PROPERTY
@given(target_pairs())
def test_isomorphism_search_agrees_with_all_permutations(pair):
    G, H = pair
    perms = list(permutations(range(G.n)))
    assert sorted(automorphisms(G)) == [p for p in perms if _relabel(G, p) == G]
    if isomorphic(G, H):
        assert len(automorphisms(H)) == len(automorphisms(G))
        assert sorted(orbit_partition(H).sizes) == sorted(orbit_partition(G).sizes)


@PROPERTY
@given(targets(max_n=6))
def test_orbit_search_agrees_with_all_permutations(H):
    auts = [p for p in permutations(range(H.n)) if _relabel(H, p) == H]
    orbits = {tuple(sorted({p[v] for p in auts})) for v in H.vertices()}
    assert orbit_partition(H).classes == tuple(sorted(orbits))


@PROPERTY
@given(targets(max_n=7), st.sampled_from([orbit_partition, _equitable_quotient]))
def test_quotient_classes_list_each_class(H, quotient):
    Q = quotient(H)
    assert sorted(v for cls in Q.classes for v in cls) == list(range(H.n))
    assert Q.classes == tuple(tuple(v for v in H.vertices() if Q.class_of[v] == c)
                              for c in range(Q.k))
    assert tuple(map(len, Q.classes)) == Q.sizes


@PROPERTY
@given(targets(max_n=7))
def test_ordering_search_agrees_with_all_orderings(H):
    m = similarity_matrix(orbit_partition(H)).m
    want = first_increasing_ordering(m)
    got = find_increasing_ordering(H)
    if want is None:
        assert got is None
    else:
        assert got == want
        ordered = similarity_matrix(orbit_partition(H), got).m
        assert ordered == tuple(tuple(m[i][j] for j in want) for i in want)


@PROPERTY
@given(targets(max_n=7), st.integers(2, 12), st.integers(2, 12))
@example(SMALL_TARGETS[7], 7, 7)
@example(SMALL_TARGETS[28], 3, 3)
@example(SMALL_TARGETS[15], 7, 7)  # witness (1, 2) at every length: a second support
def test_strict_certificate_agrees_with_adjacency_powers(H, t_max, s_max):
    ordering = find_increasing_ordering(H)
    assume(ordering is not None)
    want = strict_witness_pairs(H, orbit_partition(H).classes, ordering, t_max, s_max)
    got = check_strong_hl_certificate(H, ordering, t_max=t_max, s_max=s_max)
    assert got == as_certificate(want, ordering, t_max, s_max)


@PROPERTY
@given(target_unions(), st.integers(2, 30))
@example(disjoint_union(SMALL_TARGETS[7], SMALL_TARGETS[28]), 30)
def test_strong_certificate_is_found_exactly_off_regular_targets(H, n_max):
    # lemma (ii) through check-hl's route: on a certified target a walk of
    # every length joins two classes of unequal degrees exactly when some
    # edge does, so the certificate is found exactly when H is not regular
    assume(find_increasing_ordering(H) is not None)
    got = verify_hoffman_london(H, n_max).strong_certificate
    assert (got is not None) == (not extremal._regular(_equitable_quotient(H)))


@PROPERTY
@given(trees(max_n=10))
def test_kc_sites_are_the_bare_path_sites(T):
    accepted = []
    for u in T.vertices():
        for v in range(u + 1, T.n):
            try:
                p = bare_path(T, u, v)
            except ValueError:
                continue
            accepted.append((u, v, p[1], p[-2], len(p)))
    assert kc_sites(T) == [site[:2] for site in accepted]
    assert trees_module._kc_paths(T) == accepted


@PROPERTY
@given(trees(max_n=10))
def test_kc_move_keeps_vertex_count(T):
    for site in kc_sites(T):
        assert kc_move(T, *site).n == T.n


@PROPERTY
@given(targets(max_n=4), trees())
def test_kc_identity_at_every_site(H, T):
    for vl, vr in kc_sites(T):
        lhs, rhs = kc_difference_decomposition(T, vl, vr, H)
        assert lhs == rhs == hom_count(kc_move(T, vl, vr), H) - hom_count(T, H)


@PROPERTY
@given(targets(max_n=4), trees())
def test_glued_count_is_the_moved_trees_count(H, T):
    # kc counts hom(T_KC, H) on the glued adjacency lists; they are the
    # validated moved tree's, which is the contraction oracle's tree
    hom_T = tree_hom(T, H)
    for vl, vr in kc_sites(T):
        moved = kc_move(T, vl, vr)
        glued = trees_module._kc_glue(T, vl, bare_path(T, vl, vr)[-2], vr)
        assert [sorted(glued[v]) for v in T.vertices()] == [
            list(moved.neighbors(v)) for v in T.vertices()]
        lhs, _ = kc_difference_decomposition(T, vl, vr, H)
        assert lhs + hom_T == tree_hom(moved, H)
        oracle = Tree.from_edges(T.n, kc_moved_edges(T.n, T.edges, vl, vr))
        assert canonical_code(moved) == canonical_code(oracle)


@PROPERTY
@given(targets(max_n=4), trees(max_n=12))
def test_kc_decompositions_are_the_per_site_decompositions(H, T):
    # the per-tree routine shares hom(T, H), sides and path-pair tables
    # between sites; the per-site one computes each site alone
    rows = list(kc_decompositions(T, H))
    assert rows == [(vl, vr, *kc_difference_decomposition(T, vl, vr, H)) for vl, vr in kc_sites(T)]
    hom_T = tree_hom(T, H)
    for vl, vr, lhs, rhs in rows:
        assert lhs == rhs == tree_hom(kc_move(T, vl, vr), H) - hom_T


@PROPERTY
@given(targets())
def test_edge_list_round_trip(H):
    assert parse_graph(format_graph(H)) == H


@PROPERTY
@given(trees(), st.data())
def test_tree_constructor_agrees_with_the_edge_by_edge_check(T, data):
    # the one-pass build against the union-find check it falls back to:
    # sorted or shuffled edges, either orientation, one edge maybe replaced
    # by any pair (out of range, a loop, a repeat or a cycle)
    edges = list(T.edges)
    if data.draw(st.booleans()):
        edges = [(v, u) if data.draw(st.booleans()) else (u, v)
                 for u, v in data.draw(st.permutations(edges))]
    if edges and data.draw(st.booleans()):
        edges[data.draw(st.integers(0, len(edges) - 1))] = data.draw(
            st.tuples(st.integers(-1, T.n), st.integers(-1, T.n)))
    edges = tuple(edges)
    try:
        want = graphs._checked_adjacency(T.n, edges)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            Tree(T.n, edges)
        assert str(got.value) == str(e)
    else:
        assert tuple(map(Tree(T.n, edges).neighbors, range(T.n))) == want

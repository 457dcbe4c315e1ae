"""Property tests on random small loopy targets and random trees: the tree
walk's three entry points against brute force, the KC machinery against
bare_path and its identity, the isomorphism search and the orbit search
against all vertex permutations, and the edge-list format round trip."""

from fractions import Fraction
from itertools import permutations

from hypothesis import given, settings, strategies as st

from treehom import (
    TargetGraph,
    Tree,
    activities,
    automorphisms,
    bare_path,
    blow_up,
    format_graph,
    hom_brute_force,
    hom_count,
    is_isomorphic,
    kc_difference_decomposition,
    kc_move,
    kc_sites,
    orbit_partition,
    parse_graph,
    partition_function,
    tree_hom,
    tree_partition_function,
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
    assert partition_function(T, H, lam) == partition_function((T.n, T.edges), H, lam)


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
    assert is_isomorphic(G, H) == (G.n == H.n and any(_relabel(G, p) == H for p in perms))
    assert sorted(automorphisms(G)) == [p for p in perms if _relabel(G, p) == G]


@PROPERTY
@given(targets(max_n=6))
def test_orbit_search_agrees_with_all_permutations(H):
    auts = [p for p in permutations(range(H.n)) if _relabel(H, p) == H]
    orbits = {tuple(sorted({p[v] for p in auts})) for v in H.vertices()}
    assert orbit_partition(H).classes == tuple(sorted(orbits))


@PROPERTY
@given(trees(max_n=10))
def test_kc_sites_are_the_bare_path_sites(T):
    accepted = []
    for u in T.vertices():
        for v in range(u + 1, T.n):
            try:
                bare_path(T, u, v)
            except ValueError:
                continue
            accepted.append((u, v))
    assert kc_sites(T) == accepted


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
        assert lhs == rhs


@PROPERTY
@given(targets())
def test_edge_list_round_trip(H):
    assert parse_graph(format_graph(H)) == H

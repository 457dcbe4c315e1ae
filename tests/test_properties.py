"""Property tests: the tree walk's three entry points against brute force on
random small loopy targets and random trees."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from treehom import (
    TargetGraph,
    Tree,
    activities,
    blow_up,
    hom_brute_force,
    hom_count,
    partition_function,
    tree_hom,
    tree_partition_function,
)

# deterministic and bounded, so the suite stays reproducible and fast
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def targets(draw):
    """Loopy graphs on at most 5 vertices: a free random graph on n vertices,
    blown up by random cluster sizes. The clusters are twins, so classes of
    size and multiplicity above 2 turn up often; all sizes 1 leaves the
    random graph as it is."""
    n = draw(st.integers(1, 5))
    pairs = [(u, v) for u in range(n) for v in range(u, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    sizes, room = [], 5 - n
    for _ in range(n):
        extra = draw(st.integers(0, room))
        sizes.append(1 + extra)
        room -= extra
    return blow_up(TargetGraph.from_edges(n, [e for e, k in zip(pairs, keep) if k]), sizes)


@st.composite
def trees(draw):
    """Trees on 1..8 vertices: vertex v > 0 attaches to an earlier vertex,
    under a random relabelling so vertex 0 is not always the root."""
    n = draw(st.integers(1, 8))
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

"""Exact H-coloring counts of trees: one tree walk with three entry points,
brute force, path-pair tables, the KC difference decomposition, weighted
partition functions and the blow-up identity, each taking a `Tree`.

The walk computes h(v) = w ⊙ Π_children A·h(c) bottom-up over the order of
`graphs._search` on a tree's adjacency lists (a `Tree`'s `_adj` or a KC
site's glued lists), A listed by the rows of an `automorphy.Quotient`.
`tree_hom`, `tree_partition_function` and the KC decomposition (at one site,
or at every site of a tree by `kc_decompositions`, which reads each site's
path ends off the chain walk that lists the sites, `trees._kc_paths`) run it
over H's coarsest equitable quotient (rooted counts agree on its classes;
activities refine it), `hom_count` over the paper's automorphic similarity
classes (`automorphy.orbit_partition`). The message step A·h is `_message`;
every repeated step, from path counts to the certificate's columns, reads one
iterator of them, `_steps`. The walk's own step, a ⊙ A·h for a parent's
vector a, is `_message` and a product (`_absorb`) until walks over the quotient
reach ABSORB_WALK_STEPS vertices (`_walked` counts them), and from then
on one generated straight-line function per quotient (`_compiled`, cached)
of at most ABSORB_TERM_LIMIT terms.
A sweep's fold (`trees.bounded_fold`) takes a quotient's class sizes and
message step, and composes every tree's count out of shared subtree vectors
instead of walking each tree; the path and star counts it is read against
(`_path_counts`, `_star_hom`) read the same quotient. Brute-force
enumeration of a tree's vertex maps is kept apart from the walk as the
independent oracle.

All counting is in arbitrary-precision integers (counts grow like d^n).
Weighted counts are integer numerators over one common denominator D^n (D the
lcm of the activities' denominators), with a single exact Fraction formed at
the end: none per vertex, and never a float.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import lru_cache, partial
from itertools import combinations, islice, product
from math import lcm
from operator import index, mul

from .automorphy import Quotient, _equitable_quotient, orbit_partition
from .graphs import SizeLimitError, TargetGraph, Tree, _search, blow_up
from .trees import _kc_glue, _kc_paths, bare_path, kc_site_count

BRUTE_FORCE_BUDGET = 10 ** 8

#: Cap on `kc`'s work, sites x n x (k + 3) x (r + k) for H's quotient with k
#: classes and r row entries: per site, at most three n-vertex walks and k
#: columns of at most n message steps (sides and path-pair tables that sites
#: share are computed once). A path on n vertices has ~n^2/2 sites.
KC_WORK_LIMIT = 25_000_000

#: Vertices walked over one quotient before `_walk` compiles its step
#: (`_compiled`). Compiling costs about 11 µs per term (0.04 ms at least)
#: and saves 0.09 to 1 µs per term per vertex walked (54 on clique:200's one
#: term): it paid for itself within 140 vertices on each of capacity:3,
#: wr:3, hind, folkman+dom, lpath:30, h17, h28, clique:200 and path:900.
ABSORB_WALK_STEPS = 256

#: Cap on the terms (distinct row entries) of a compiled walk step: compiling
#: holds about 2.6 KB per term at its peak, some 42 MB at the cap.
ABSORB_TERM_LIMIT = 16_384

# ---------------------------------------------------------------------------
# the tree walk

def _message(rows: Sequence[Sequence[int]], h: Sequence) -> list:
    """The walk's message step rows · h, where rows[x] lists x's neighbours
    repeated by multiplicity: entry x sums h over the neighbours of x."""
    get = h.__getitem__
    return [sum(map(get, row)) for row in rows]


def _steps(rows: Sequence[Sequence[int]], h: Sequence) -> Iterator[list]:
    """h, rows · h, rows² · h, ...: the message steps from h, without end."""
    while True:
        yield h
        h = _message(rows, h)


def _sum_source(terms: Sequence[str]) -> str:
    """terms added as a balanced tree, so the compiler nests them only
    log2(len(terms)) deep; "0" for none."""
    if len(terms) <= 2:
        return " + ".join(terms) or "0"
    half = len(terms) // 2
    return f"({_sum_source(terms[:half])}) + ({_sum_source(terms[half:])})"


def _absorb(rows: Sequence[Sequence[int]], a: Sequence, h: Sequence) -> list:
    """a ⊙ (rows · h) by `_message` and a product."""
    return list(map(mul, a, _message(rows, h)))


@lru_cache(maxsize=None)
def _compiled(rows: tuple[tuple[int, ...], ...]) -> Callable[[Sequence, Sequence], list]:
    """`_absorb(rows, ...)` as one generated straight-line function, each row's
    repeats one coefficient: folkman+dom's rows ((0, 0, 0, 0, 1), (0,) * 20 + (1,))
    give lambda a, h: [a[0] * (4 * h[0] + h[1]), a[1] * (20 * h[0] + h[1])].
    Made by eval from the rows' integers alone (`operator.index` refuses any
    other entry), with no builtins; past ABSORB_TERM_LIMIT terms it is
    `_absorb` instead."""
    counts = [Counter(map(index, row)) for row in rows]
    if sum(map(len, counts)) > ABSORB_TERM_LIMIT:
        return partial(_absorb, rows)

    def total(count):
        return _sum_source([f"{m} * h[{x}]" if m > 1 else f"h[{x}]" for x, m in count.items()])

    body = ", ".join(f"a[{i}] * ({total(count)})" for i, count in enumerate(counts))
    return eval(f"lambda a, h: [{body}]", {"__builtins__": {}})


_walked: Counter = Counter()  # rows -> vertices the walks over them have taken


def _walk(adj: Sequence[Sequence[int]], root: int, rows: tuple[tuple[int, ...], ...],
          weights: Sequence, skip: int | None = None) -> list:
    """h(root) for h(v) = weights ⊙ Π_children (rows · h(c)), over the tree of
    adjacency lists adj without the branch through root's neighbour skip.
    In post-order, each vertex's message is folded into its parent's vector
    by one step absorb(a, h) = a ⊙ (rows · h): `_absorb` until the walks over
    rows, this one counted, reach ABSORB_WALK_STEPS vertices, and
    `_compiled(rows)` from then on.
    Every leaf sends the same message, rows · weights, priced once, and a
    parent whose first child is a leaf starts from one shared weights ⊙ leaf
    list (no vector is ever changed in place)."""
    order, parent = _search(adj, root, skip)
    _walked[rows] += len(order) - 1
    absorb = partial(_absorb, rows) if _walked[rows] < ABSORB_WALK_STEPS else _compiled(rows)
    h: list[list | None] = [None] * len(adj)
    leaf = _message(rows, weights)
    first = list(map(mul, weights, leaf))
    for v in order[:0:-1]:  # every vertex after its children, the root left out
        vec = h[v]
        h[v] = None  # consumed: only the root's vector is returned
        p = parent[v]
        above = h[p]
        if vec is None:
            h[p] = first if above is None else list(map(mul, above, leaf))
        else:
            h[p] = absorb(weights if above is None else above, vec)
    return list(weights) if h[root] is None else h[root]


def hom_vector(T: Tree, root: int, Q: Quotient) -> tuple[int, ...]:
    """Entry c = number of H-colorings sending root to any one vertex of
    class c of the equitable quotient Q."""
    if not 0 <= root < T.n:
        raise ValueError(f"root {root} not a vertex of the tree")
    # Q may be built by hand with list rows; the walk's step count and kernel cache are keyed by tuples
    return tuple(_walk(T._adj, root, tuple(map(tuple, Q.rows)), [1] * Q.k))


def hom_count(T: Tree, H: TargetGraph) -> int:
    """hom(T, H) via the walk over the paper's automorphic similarity classes."""
    Q = orbit_partition(H)
    return sum(map(mul, Q.sizes, hom_vector(T, 0, Q)))


def tree_hom(T: Tree, H: TargetGraph) -> int:
    """hom(T, H) by the walk over H's coarsest equitable quotient, the root's
    entries weighted by class size: no automorphism search, no size limit."""
    _, sizes, rows = _equitable_quotient(H)
    return sum(map(mul, sizes, _walk(T._adj, 0, rows, [1] * len(sizes))))


def _path_counts(Q: Quotient) -> Iterator[int]:
    """hom(P_n, H) = 1ᵀA^(n-1)1 for n = 1, 2, ..., Q an equitable quotient
    of H: one message step per order from the all-ones vector, weighted by
    class size. No path is built."""
    return (sum(map(mul, Q.sizes, h)) for h in _steps(Q.rows, [1] * Q.k))


def _path_hom(Q: Quotient, n: int) -> int:
    """hom(P_n, H): n - 1 steps of `_path_counts`."""
    return next(islice(_path_counts(Q), max(n - 1, 0), None))


def _star_hom(Q: Quotient, n: int) -> int:
    """hom(S_n, H) = Σ_c sizes[c]·len(rows[c])^(n-1), Q an equitable
    quotient of H: the centre takes a vertex of class c, and each of the
    n - 1 leaves any of its len(rows[c]) neighbours. No star is built;
    n = 1 gives H.n, the single vertex's count."""
    return sum(m * len(row) ** (n - 1) for m, row in zip(Q.sizes, Q.rows))


# ---------------------------------------------------------------------------
# brute force oracle

def hom_brute_force(T: Tree, H: TargetGraph, budget: int = BRUTE_FORCE_BUDGET) -> int:
    """Count the H-colorings of the tree T by enumerating every vertex map
    and checking its edges, after checking the number of maps against budget
    (H.n^T.n >= 2^T.n > budget once T.n >= budget.bit_length(), no power formed)."""
    if H.n >= 2 and T.n >= budget.bit_length() or H.n ** T.n > budget:
        raise SizeLimitError(f"brute force needs {H.n}^{T.n} maps, budget is {budget}")
    return sum(1 for f in product(range(H.n), repeat=T.n)
               if all(H.has_edge(f[u], f[v]) for u, v in T.edges))


# ---------------------------------------------------------------------------
# path-pair counts

def path_pair_counts(t: int, Q: Quotient) -> dict[tuple[int, int], int]:
    """p[i, j] = Q.sizes[i]·(B^(t-1))[i][j], B the class matrix Q.rows list:
    H-colorings of the t-vertex path with its ends in classes i and j.
    Column j is t - 1 message steps from class j's indicator."""
    if t < 1:
        raise ValueError("path length must be >= 1 vertex")
    p = {}
    for j in range(Q.k):
        p.update(((i, j), Q.sizes[i] * x) for i, x in enumerate(_column(Q.rows, j, t - 1)))
    return p


def _column(rows: Sequence[Sequence[int]], x: int, steps: int) -> list[int]:
    """B^steps e_x: class x's indicator after `steps` message steps."""
    return next(islice(_steps(rows, [int(c == x) for c in range(len(rows))]), steps, None))


# ---------------------------------------------------------------------------
# KC difference decomposition

def kc_decompositions(T: Tree, H: TargetGraph) -> Iterator[tuple[int, int, int, int]]:
    """(v_left, v_right, lhs, rhs) of `kc_difference_decomposition` at each
    site of `trees.kc_sites(T)` in turn, after refusing, before any site is
    listed or walked, an input whose work estimate is past KC_WORK_LIMIT
    (SizeLimitError): counted in O(n) (`trees.kc_site_count`), then listed
    with their paths' ends (`trees._kc_paths`), both off one chain walk."""
    sites = kc_site_count(T)
    Q = _equitable_quotient(H)
    k, r = Q.k, sum(map(len, Q.rows))
    work = sites * T.n * (k + 3) * (r + k)
    if work > KC_WORK_LIMIT:
        raise SizeLimitError(f"kc work sites x n x (k + 3) x (r + k) = {sites} x {T.n} x "
                             f"{k + 3} x {r + k} = {work} is past KC_WORK_LIMIT = {KC_WORK_LIMIT}")
    yield from _kc_rows(T, Q, _kc_paths(T))


def kc_difference_decomposition(T: Tree, v_left: int, v_right: int,
                                H: TargetGraph) -> tuple[int, int]:
    """(lhs, rhs): lhs = hom(T_KC, H) - hom(T, H) counted directly, rhs the
    class-level sum below; the two agree.

    With t the site's path length, ℓ_x (r_y) the colorings of the v_left
    (v_right) side with its end at x (y), and P_t(x, y) those of the path with
    its ends at x and y: hom(T, H) = Σ ℓ_x P_t(x,y) r_y and, the sides glued,
    hom(T_KC, H) = Σ ℓ_x r_x P_t(x,y). P_t is symmetric, so the difference is
    ½ Σ P_t(x,y)(ℓ_x − ℓ_y)(r_x − r_y). ℓ and r are constant on the classes of
    any equitable partition and Σ_{x∈i, y∈j} P_t(x,y) = sizes[i]·(B^(t−1))[i][j],
    so rhs = Σ_{i<j} (ℓ_j − ℓ_i)(r_j − r_i)·p[i, j] is the same integer on
    every equitable partition, orbits included; it runs on H's coarsest one.

    hom(T_KC, H), the identity's independent side, is a walk of the glued
    adjacency lists (`trees._kc_glue`), with no Tree built; ℓ and r are walks
    of T from v_left and v_right that skip the first path vertex."""
    p = bare_path(T, v_left, v_right)
    site = v_left, v_right, p[1], p[-2], len(p)
    _, _, lhs, rhs = next(_kc_rows(T, _equitable_quotient(H), [site]))
    return lhs, rhs


def _kc_rows(T: Tree, Q: Quotient, sites: Iterable) -> Iterator[tuple]:
    """(v_left, v_right, lhs, rhs) at each legal site (v_left, v_right, first,
    last, t) of `trees._kc_paths` in turn. Sites share work: hom(T, H) is
    counted once, at the first site, each side once per (end, first path
    vertex) and each path-pair table once per path length."""
    ones = [1] * Q.k
    hom_T, sides, tables = None, {}, {}
    for v_left, v_right, first, last, t in sites:
        if hom_T is None:
            hom_T = sum(map(mul, Q.sizes, _walk(T._adj, 0, Q.rows, ones)))
        moved = _walk(_kc_glue(T, v_left, last, v_right), 0, Q.rows, ones)
        lhs = sum(map(mul, Q.sizes, moved)) - hom_T
        if t not in tables:
            tables[t] = path_pair_counts(t, Q)
        for end, near in (v_left, first), (v_right, last):
            if (end, near) not in sides:
                sides[end, near] = _walk(T._adj, end, Q.rows, ones, skip=near)
        ell, arr, p = sides[v_left, first], sides[v_right, last], tables[t]
        rhs = sum((ell[j] - ell[i]) * (arr[j] - arr[i]) * p[i, j]
                  for i, j in combinations(range(Q.k), 2))
        yield v_left, v_right, lhs, rhs


# ---------------------------------------------------------------------------
# weighted partition functions

# `fractions` (and `decimal` through it) is imported only where activities
# are made or a weighted sum is formed, so a CLI process that counts no
# weighted sum does not load it
ActivityVector = tuple["Fraction", ...]


def activities(values: str | Iterable[int | str | Fraction]) -> ActivityVector:
    """Exact positive activities, one per target vertex ("3/2", 1, Fraction...)
    or comma-separated in one string ("3/2,1,5"); their count is checked where
    H is known. No exponent notation: Fraction("1e10000000") takes seconds."""
    from fractions import Fraction
    parts = values.split(",") if isinstance(values, str) else list(values)
    if any(isinstance(v, str) and "e" in v.lower() for v in parts):
        raise ValueError(f"bad activity in {values!r}: no 'e' (exponent notation) is accepted")
    try:
        out = tuple(Fraction(v.strip() if isinstance(v, str) else v) for v in parts)
    except ZeroDivisionError:
        raise ValueError(f"bad activity in {values!r}: zero denominator") from None
    if any(a <= 0 for a in out):
        raise ValueError("activities must be strictly positive")
    return out


def tree_partition_function(T: Tree, H: TargetGraph, lam: ActivityVector) -> Fraction:
    """Σ_f Π_v λ_{f(v)} over the H-colorings f of the tree T, exact.

    With λ_x = a_x / D for D the lcm of the denominators, the sum is
    Σ_f Π_v a_{f(v)} / D^n. The numerator is a weighted walk in integers
    over H's coarsest equitable quotient refined from the activities a, so
    that each class has one activity; one Fraction is formed at the end.
    """
    from fractions import Fraction
    if len(lam) != H.n:
        raise ValueError(f"need {H.n} activities, got {len(lam)}")
    D = lcm(*(x.denominator for x in lam))
    a = tuple(x.numerator * (D // x.denominator) for x in lam)
    class_of, sizes, rows = _equitable_quotient(H, a)
    w = dict(zip(class_of, a))
    numerator = sum(map(mul, sizes, _walk(T._adj, 0, rows, [w[c] for c in range(len(sizes))])))
    return Fraction(numerator, D ** T.n)


def check_blowup_identity(T: Tree, H: TargetGraph, sizes: Sequence[int],
                          scale: int = 1) -> tuple[Fraction, int]:
    """(lhs, rhs) for the scaling identity on the tree T between its weighted
    partition function at activities sizes[i]/scale, times scale^n, and its
    coloring count into the blow-up of H by sizes; the two agree exactly."""
    from fractions import Fraction
    lam = activities(Fraction(s, scale) for s in sizes)
    lhs = Fraction(scale) ** T.n * tree_partition_function(T, H, lam)
    return lhs, tree_hom(T, blow_up(H, sizes))

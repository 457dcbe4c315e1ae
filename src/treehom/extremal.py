"""Minimizer sweeps over trees, path-minimality verdicts and certificates,
named target families, loop-threshold recognition, and the classification
of the small-target catalog.

The sweeps (`minimizers`, `sidorenko_check`, and `verify_hoffman_london` on
a target without a certificate) are exhaustive over all non-isomorphic trees
of each order and report exact counts; "strongly path-minimal at desk scale"
always means per-n verdicts up to the swept bound, never the unbounded
property. The classification sweeps no tree: each of its rows reads the
target's one quotient, for a reason that is a closed form, an identity or a
certificate (`classify_small_targets`).

On a target that passes the increasing-columns test, `verify_hoffman_london`
lists no tree either, at every order up to SPIDER_ORDER_LIMIT. By the
paper's theorem, through the KC difference formula, no KC move (Csikvari,
"On a poset of trees", Combinatorica 30, 2010) lowers such a target's count.
A KC move adds exactly one leaf, and every tree with ℓ >= 4 leaves is the
image of one with ℓ - 1: take a vertex x of degree >= 3 at the end of a
pendant path and move x's other branches to the path's far end. So every
tree but the path lies above a tree with three leaves, a three-leg spider
S(a, b, c) with legs of a, b, c >= 1 vertices, and the path is least.

As an extension, the path is then the only least tree at n >= 4 exactly
when some edge joins two vertices of unequal degrees (`_regular`); if none
does, every tree counts Σ_v d(v)^(n-1) and all tie. Let A be H's adjacency
matrix, p_j = A^j·1, σ a passing ordering, C a component with an edge and
L its lowest class. The test makes |N(v) ∩ S| nondecreasing along σ for
every suffix S of σ, so A keeps nonnegative nondecreasing vectors
nondecreasing along σ, and so does their product: every p_j and every
rooted tree's count is nondecreasing.

(i) deg x < deg y in C gives p_j(x) < p_j(y) for j >= 1. Write p_(j-1) as
    Σ_q Δ_q·1_(S_q) over the suffixes S_q, Δ_q >= 0. Then p_j(y) - p_j(x)
    = Σ_q Δ_q(|N(y) ∩ S_q| - |N(x) ∩ S_q|) >= p_(j-1)(L)·(deg y - deg x)
    > 0: x precedes y, so each bracket is >= 0, a suffix holding C gives
    the degrees, and p_(j-1) >= 1 on C, as its vertices have neighbours.
(ii) If C is not regular, then for every c >= 1 some x, y in C of unequal
    degrees have A^c[x][y] > 0. For odd c, walk x y x ... y along an edge
    xy of unequal degrees; for even c, walk x z x ... z y, where z has
    neighbours x and y of unequal degrees. If no such z exists, each
    vertex's neighbours share one degree, so degrees alternate d1 != d2
    along every walk in C: C is bipartite, and H does not pass, as the
    rooted tree root-w-{two leaves} counts d1·d2² at a vertex of degree d1
    and d2·d1² at one of degree d2, the reverse of the degrees.

Rooted at its centre, hom(S(a, b, c)) = Σ_v p_a(v)p_b(v)p_c(v), and the
path's count is p_aᵀ·A^c·p_b, so hom(S(a, b, c)) - hom(P_n) =
½ Σ_(x,y) A^c[x][y](p_a(x) - p_a(y))(p_b(x) - p_b(y)). Each term is >= 0,
as p_a and p_b are both nondecreasing along σ, and on a component that is
not regular the pair of (ii) gives one > 0 by (i): every spider, and so
every tree but the path, counts more. The verdict is certified, not swept; the tests
check it against the bounded fold at every order up to the enumeration
limit and against every spider's count up to n = 60.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial
from itertools import combinations, compress, islice

from .automorphy import (
    Quotient,
    _equitable_quotient,
    find_increasing_ordering,
    has_increasing_columns,
    orbit_partition,
    similarity_matrix,
)
from .graphs import SizeLimitError, TargetGraph, _Record
from .homcount import _message, _path_counts, _path_hom, _star_hom
from .trees import _check_order, bounded_fold, canonical_code, path, tree_codes


#: Largest order `verify_hoffman_london` answers on a certified target: its path
#: counts take n_max message steps, its certificate n_max support steps per class read.
SPIDER_ORDER_LIMIT = 200


# ---------------------------------------------------------------------------
# target catalog: every loopy graph on at most three vertices

def _tg(n: int, *edges: tuple[int, int]) -> TargetGraph:
    return TargetGraph.from_edges(n, edges)


#: All 28 targets on <= 3 vertices, keyed 1..28. Vertices are 0,1,2 with the
#: third vertex (when present) the "apex"; loops written as (v, v).
SMALL_TARGETS: dict[int, TargetGraph] = {
    1: _tg(1),
    2: _tg(1, (0, 0)),
    3: _tg(2),
    4: _tg(2, (1, 1)),
    5: _tg(2, (0, 0), (1, 1)),
    6: _tg(2, (0, 1)),
    7: _tg(2, (0, 0), (0, 1)),
    8: _tg(2, (0, 0), (0, 1), (1, 1)),
    9: _tg(3),
    10: _tg(3, (1, 1)),
    11: _tg(3, (0, 0), (2, 2)),
    12: _tg(3, (0, 0), (1, 1), (2, 2)),
    13: _tg(3, (0, 1)),
    14: _tg(3, (0, 1), (2, 2)),
    15: _tg(3, (0, 0), (0, 1)),
    16: _tg(3, (0, 0), (0, 1), (2, 2)),
    17: _tg(3, (0, 0), (0, 1), (1, 1)),
    18: _tg(3, (0, 0), (0, 1), (1, 1), (2, 2)),
    19: _tg(3, (0, 1), (1, 2)),
    20: _tg(3, (0, 0), (0, 1), (1, 2)),
    21: _tg(3, (0, 1), (1, 1), (1, 2)),
    22: _tg(3, (0, 1), (1, 1), (1, 2), (2, 2)),
    23: _tg(3, (0, 0), (0, 1), (1, 2), (2, 2)),
    24: _tg(3, (0, 0), (0, 1), (1, 1), (1, 2), (2, 2)),
    25: _tg(3, (0, 1), (0, 2), (1, 2)),
    26: _tg(3, (0, 0), (0, 1), (0, 2), (1, 2)),
    27: _tg(3, (0, 0), (0, 1), (0, 2), (1, 1), (1, 2)),
    28: _tg(3, (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)),
}


# ---------------------------------------------------------------------------
# family constructors

def make_capacity_graph(C: int) -> TargetGraph:
    """Vertices 0..C, edge {a, b} whenever a + b <= C (loop at i iff 2i <= C)."""
    if C < 1:
        raise ValueError("capacity must be >= 1")
    edges = [(a, b) for a in range(C + 1) for b in range(a, C + 1) if a + b <= C]
    return TargetGraph.from_edges(C + 1, edges)


def make_widom_rowlinson(k: int) -> TargetGraph:
    """Fully looped star: center 0 adjacent to k looped leaf vertices."""
    if k < 1:
        raise ValueError("need k >= 1 particle types")
    edges = [(v, v) for v in range(k + 1)] + [(0, v) for v in range(1, k + 1)]
    return TargetGraph.from_edges(k + 1, edges)


def make_H_abl(a: int, b: int, ell: int) -> TargetGraph:
    """A clique on b vertices with ell a-cliques appended at each clique
    vertex, each appended clique sharing only that vertex."""
    if a < 1 or b < 1 or ell < 0:
        raise ValueError("need a, b >= 1 and ell >= 0")
    edges = [(u, v) for u, v in combinations(range(b), 2)]
    nxt = b
    for v in range(b):
        for _ in range(ell if a > 1 else 0):  # an appended 1-clique adds nothing
            new = list(range(nxt, nxt + a - 1))
            nxt += a - 1
            members = [v] + new
            edges += [(x, y) for x, y in combinations(members, 2)]
    return TargetGraph.from_edges(nxt, edges)


def make_folkman_plus_dominating() -> TargetGraph:
    """The 21-vertex example: subdivide every edge of a 5-clique, clone the
    five branch vertices, then add one looped dominating vertex.

    Vertices 0..9 are the clones (two per original clique vertex), 10..19
    the subdivision vertices (one per clique edge), 20 the dominating vertex.
    """
    clones = {(i, c): 2 * i + c for i in range(5) for c in range(2)}
    edges = []
    sub = 10
    for i, j in combinations(range(5), 2):
        for c in range(2):
            edges.append((clones[(i, c)], sub))
            edges.append((clones[(j, c)], sub))
        sub += 1
    edges += [(v, 20) for v in range(20)]
    edges.append((20, 20))
    return TargetGraph.from_edges(21, edges)


# ---------------------------------------------------------------------------
# loop-threshold recognition

def is_loop_threshold(H: TargetGraph) -> tuple[int, ...] | None:
    """A vertex ordering with nested neighborhoods, or None.

    If any nested ordering exists the degree-sorted one works: equal-degree
    vertices in a nested chain have identical neighborhoods, so only the
    pairwise containment along the degree sort needs checking.
    """
    order = sorted(H.vertices(), key=lambda v: (H.degree(v), v))
    for u, v in zip(order, order[1:]):
        if not H.neighbors(u) <= H.neighbors(v):
            return None
    return tuple(order)


# ---------------------------------------------------------------------------
# minimizer sweeps

class MinimizerReport(_Record):
    """One order's sweep: the least and largest counts, the trees attaining
    the least, and whether the path attains it (alone) and the star the
    largest."""

    __slots__ = ()
    n: int
    min_count: int
    minimizers: tuple[str, ...]  # canonical codes attaining the minimum
    path_is_min: bool
    path_is_unique_min: bool
    max_count: int
    star_is_max: bool


class OrderVerdict(_Record):
    """What a path-minimality check reads from one order's sweep: the least
    count and whether the path attains it, alone or not. No tree is coded."""

    __slots__ = ()
    n: int
    min_count: int
    path_is_min: bool
    path_is_unique_min: bool


class HLVerdict(_Record):
    """Path minimality per order up to n_max, with the certificates found:
    the passing ordering and the witness pairs (`check_strong_hl_certificate`)."""

    __slots__ = ()
    n_max: int
    reports: tuple[OrderVerdict, ...]
    matrix_certificate: tuple[int, ...] | None
    strong_certificate: tuple[tuple[int, tuple[int, int]], ...] | None

    @property
    def hoffman_london(self) -> bool:
        return all(r.path_is_min for r in self.reports)

    @property
    def strongly_hoffman_london(self) -> bool:
        return all(r.path_is_unique_min for r in self.reports if r.n >= 4)


def _bounded_fold(H: TargetGraph, n_max: int
                  ) -> tuple[Quotient, Callable[..., list[tuple[int, int]]]]:
    """(Q, fold): H's coarsest equitable quotient, which the sweep's path and
    star counts read, and `trees.bounded_fold` over H's counts, fold(n,
    bound, above=False) for every order up to n_max, with one set of tables
    for the whole sweep: the classes weighted by their sizes, so that a
    tree's count is one sum. An order past the limit is refused before H is
    refined."""
    _check_order(n_max)
    Q = _equitable_quotient(H)
    return Q, bounded_fold(n_max, Q.sizes, partial(_message, Q.rows))


def _least(counts: list[int]) -> tuple[int, int]:
    """The least of counts and how many of them attain it."""
    lo = min(counts)
    return lo, counts.count(lo)


def _verdict(n: int, least: int, ties: int, path_count: int) -> OrderVerdict:
    """The verdict at order n from the least count over its trees, the
    number of trees attaining it, and hom(P_n, H)."""
    path_is_min = path_count == least
    return OrderVerdict(n, least, path_is_min, path_is_min and ties == 1)


def minimizers(H: TargetGraph, n: int) -> MinimizerReport:
    """The least count and its ties among the trees counted at most the path,
    the largest among those counted at least the star, both among them."""
    # the fold refuses an order past the limit before the two counts, which take n steps
    Q, fold = _bounded_fold(H, n)
    path_count, star_count = _path_hom(Q, n), _star_hom(Q, n)
    low = fold(n, path_count)
    least = min(c for _, c in low)
    tied = [i for i, c in low if c == least]
    v = _verdict(n, least, len(tied), path_count)
    hi = max(c for _, c in fold(n, star_count - 1, above=True))
    # the path alone is coded directly; ties are coded off the tree listing
    codes = ([canonical_code(path(n))] if v.path_is_unique_min
             else sorted(tree_codes(n, tied).values()))
    return MinimizerReport(
        n=n,
        min_count=least,
        minimizers=tuple(codes),
        path_is_min=v.path_is_min,
        path_is_unique_min=v.path_is_unique_min,
        max_count=hi,
        star_is_max=star_count == hi,
    )


def _check_n_max(n_max: int, what: str, name: str = "n_max") -> None:
    """Sweeps cover the orders 2..n_max, the strict-minimality certificate the
    lengths 2..t_max; a bound below 2 would pass vacuously."""
    if n_max < 2:
        raise ValueError(f"{what} needs {name} >= 2, got {n_max}")


def _regular(Q: Quotient) -> bool:
    """Whether every edge of Q's graph joins two vertices of one degree: each
    class's neighbour classes have its own degree."""
    return all(len(Q.rows[c]) == len(row) for row in Q.rows for c in row)


def verify_hoffman_london(H: TargetGraph, n_max: int) -> HLVerdict:
    """Path minimality at each order 2..n_max, and the certificates found.

    A target that passes the increasing-columns test
    (`find_increasing_ordering`) is answered at every order up to
    SPIDER_ORDER_LIMIT from one equitable quotient and its message steps,
    with no tree listed: the path is least, and past 3 vertices it is the
    only least tree exactly when H is not `_regular` (the module docstring).
    Any other target is swept by the bounded fold, up to the enumeration
    limit. An order past SPIDER_ORDER_LIMIT is refused before any search or
    refinement."""
    _check_n_max(n_max, "the path-minimality check")
    if n_max > SPIDER_ORDER_LIMIT:
        raise SizeLimitError(f"path-minimality checks limited to 2..{SPIDER_ORDER_LIMIT}, "
                             f"got n={n_max}")
    try:
        cert = find_increasing_ordering(H)
    except SizeLimitError:
        cert = None
    if cert is None:
        # the path is among the trees counted at most its own count, so the
        # least count and its ties are among them too
        Q, fold = _bounded_fold(H, n_max)
        paths = islice(_path_counts(Q), 1, None)  # from n = 2
        reports = tuple(_verdict(n, *_least([c for _, c in fold(n, p)]), p)
                        for n, p in zip(range(2, n_max + 1), paths))
    else:
        Q = _equitable_quotient(H)
        strict, paths = not _regular(Q), islice(_path_counts(Q), 1, None)
        reports = tuple(OrderVerdict(n, p, True, n <= 3 or strict)
                        for n, p in zip(range(2, n_max + 1), paths))
    got = cert is not None and check_strong_hl_certificate(H, cert, t_max=n_max)
    return HLVerdict(n_max, reports, cert, got if isinstance(got, tuple) else None)


def check_strong_hl_certificate(H: TargetGraph, ordering: tuple[int, ...], t_max: int = 9
                                ) -> tuple[tuple[int, tuple[int, int]], ...] | str:
    """The witness pairs ((t, (a, b)), ...) for t = 2..t_max, or why there
    are none: ordering positions a and b, holding classes x and y, with a
    joint endpoint coloring ((B^(t-1))[x][y] > 0, B the orbit quotient's
    class matrix) and a larger degree at y than at x; the lexicographically
    least pair wins.

    No count is formed: B^(t-1)[x][y] > 0 exactly when y is in x's walk
    support, {x} stepped t - 1 times to its neighbour classes, built when the
    scan first reaches x and stepped once per length after that. On a passing
    ordering, lemma (i) of the module docstring makes y's endpoint count
    (B^(s-1)·1) larger than x's at every s >= 2 exactly when its degree is,
    as a walk joins x and y."""
    _check_n_max(t_max, "the strict-minimality certificate", "t_max")
    Q = orbit_partition(H)
    if not has_increasing_columns(similarity_matrix(Q, ordering)):
        return "ordering does not pass the increasing-columns test"
    deg = list(map(len, Q.rows))

    def walk(support: set[int], steps: int = 1) -> set[int]:
        for _ in range(steps):
            support = {y for c in support for y in Q.rows[c]}
        return support

    live: dict[int, set[int]] = {}  # x -> its walk support at this length
    witnesses = []
    for t in range(2, t_max + 1):
        live = {x: walk(support) for x, support in live.items()}
        for a, x in enumerate(ordering):
            if x not in live:  # first reached at this length
                live[x] = walk({x}, t - 1)
            b = next((b for b, y in enumerate(ordering) if y in live[x] and deg[y] > deg[x]), None)
            if b is not None:
                witnesses.append((t, (a, b)))
                break
        else:
            return f"no witness class pair for path length t={t}"
    return tuple(witnesses)


# ---------------------------------------------------------------------------
# star maximality

def sidorenko_check(H: TargetGraph, n_max: int):
    """Verify the star maximizes at every order; returns (ok, violation)
    where violation is (n, code, count, star_count) for the tree first in
    code order among those counted above the star at the first such order
    n = 2..n_max. Only the trees the bounded fold keeps are listed and coded."""
    _check_n_max(n_max, "the star-maximality check")
    Q, fold = _bounded_fold(H, n_max)
    for n in range(2, n_max + 1):
        bound = _star_hom(Q, n)
        found = fold(n, bound, above=True)
        if found:
            codes = tree_codes(n, (i for i, _ in found))
            first, count = min(found, key=lambda f: codes[f[0]])
            return False, (n, codes[first], count, bound)
    return True, None


# ---------------------------------------------------------------------------
# classification of the small-target catalog

LABEL_ALL = "all-trees"
LABEL_PATHS = "paths"
LABEL_BALANCED = "balanced-bipartition-trees"
LABEL_ZERO = "zero-count"
LABEL_OTHER = "other"


class ClassificationRow(_Record):
    """One small target's least counts and minimizer labels per order, and
    the label that summarizes them."""

    __slots__ = ()
    target_id: int
    min_counts: tuple[tuple[int, int], ...]            # (n, min hom count)
    labels: tuple[tuple[int, frozenset[str]], ...]     # (n, applicable labels)
    summary: str


_LABEL_PRIORITY = (LABEL_ZERO, LABEL_ALL, LABEL_PATHS, LABEL_BALANCED, LABEL_OTHER)


def classify_small_targets(n_max: int) -> list[ClassificationRow]:
    """Per small target, the least count and the labels of its minimizers at
    each order 2..n_max, and the label that summarizes them, each from a
    reason: no tree is listed and no fold is run.

    Each target H is read whole, off one equitable quotient Q
    (`_equitable_quotient`), whose message steps give the path's count. Each
    target has one of three reasons, checked before any order is read:

    - H is `_regular`. Every tree then has the count Σ_v d(v)^(n-1): the
      root takes any vertex v, and each child any of its parent image's d(v)
      neighbours, all of degree d(v). All trees tie.
    - H is P3 (target 19): hom(T, P3) = 2^|X| + 2^|Y| for a tree with sides
      X and Y (one side sits on the middle vertex, the other's vertices take
      either end), least exactly on the balanced-bipartition trees, the path
      among them. Past 4 vertices the spider S(1, 1, n - 3) (odd n) or
      S(2, 1, n - 4) (even n) is balanced too, so the path is not alone.
    - H passes the increasing-columns test (`find_increasing_ordering`) and
      is not regular: the path alone is least (the module docstring).

    Off P3 the minimizers are the balanced trees only where they are the
    path alone at n <= 4, or all trees tie at n <= 3, where the path is the
    only tree. The descriptions coincide at small n, so every label that
    holds is kept. A target no reason covers is refused (ValueError).

    The argument rests on the paper's theorem, the KC difference formula
    and the module docstring's proof; the tests check every row against
    each target's own bounded fold at every n <= 16, and against closed
    forms and every spider's count up to n = 100. Orders past
    SPIDER_ORDER_LIMIT are refused before any target is refined."""
    _check_n_max(n_max, "classification")
    if n_max > SPIDER_ORDER_LIMIT:
        raise SizeLimitError(f"classification limited to 2..{SPIDER_ORDER_LIMIT}, got n={n_max}")
    rows = []
    for hid, H in SMALL_TARGETS.items():
        Q = _equitable_quotient(H)
        regular = _regular(Q)
        is_p3 = H.n == 3 and len(H.edges) == 2 and not any(map(H.has_loop, H.vertices()))
        if not (regular or is_p3) and find_increasing_ordering(H) is None:
            raise ValueError(f"target {hid}: no reason names its minimizers")
        mins, labels = [], []
        for n, least in zip(range(2, n_max + 1), islice(_path_counts(Q), 1, None)):
            # below 4 vertices the path is the only tree
            tie = regular or n <= 3
            alone = n <= 3 or not (regular or is_p3 and n > 4)
            labs = frozenset(compress((LABEL_ZERO, LABEL_ALL, LABEL_PATHS, LABEL_BALANCED),
                                      (least == 0, tie, alone, is_p3 or alone and n <= 4)))
            mins.append((n, least))
            labels.append((n, labs or frozenset({LABEL_OTHER})))
        # orders below 4 are degenerate (at most two tree classes exist, so
        # the label sets coincide); summarize from the informative orders
        informative = [labs for n, labs in labels if n >= 4] or [labs for _, labs in labels]
        common = frozenset.intersection(*informative)
        summary = next((lab for lab in _LABEL_PRIORITY if lab in common), "mixed")
        rows.append(ClassificationRow(hid, tuple(mins), tuple(labels), summary))
    return rows


def display_label(labels: frozenset[str]) -> str:
    """One representative label when a minimizer set matches several classes."""
    return next(lab for lab in _LABEL_PRIORITY if lab in labels)

"""Automorphism orbits, similarity matrices, and the increasing-columns test.

Automorphisms and orbits come from one search: backtracking over vertex
images, pruned by colour refinement, each candidate checked against its
mapped neighbours only, so structured graphs of a couple of dozen vertices
(e.g. the 21-vertex Folkman-plus-dominating example) and long paths are
still fast despite the worst case being factorial. The same refinement gives
the coarsest equitable partition that `homcount` counts on. Orbits do not
list the group: each comes from searches pinned to one vertex pair, which
stop at the first automorphism found (orbit pruning, McKay & Piperno,
"Practical graph isomorphism II", 2014), so a clique's orbit costs n
searches, not n! automorphisms. The searches count their steps and stop at
AUT_WORK_LIMIT; a vertex count is no guide to their cost.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate

from .graphs import SizeLimitError, TargetGraph, _find, _Record

AUT_WORK_LIMIT = 2_000_000
ORDERING_WORK_LIMIT = 10_000_000


class SimilarityMatrix(_Record):
    """Cross-class neighbor counts m[i][j] under a chosen class ordering.

    ordering[p] is the original class index placed at position p; sizes[p]
    is the size of that class.
    """

    __slots__ = ()
    k: int
    m: tuple[tuple[int, ...], ...]
    sizes: tuple[int, ...]
    ordering: tuple[int, ...]


def _refined_colors(H: TargetGraph, initial: tuple | None = None) -> list[int]:
    """Class numbers 0..k-1 of H's coarsest equitable partition refining the
    initial colouring: loops, paired with initial[v].

    A splitter queue (Paige & Tarjan 1987): pop a class, count each vertex's
    neighbours in it, and split every class whose members' counts differ. A
    split class re-queues its new parts, and, unless it was queued, all parts
    but the largest, whose counts follow from the rest: O(m log n) work.
    """
    first: dict = {}
    color = [first.setdefault(H.has_loop(v) if initial is None else (H.has_loop(v), initial[v]),
                              len(first)) for v in H.vertices()]
    classes: list[set[int]] = [set() for _ in first]
    for v, c in enumerate(color):
        classes[c].add(v)
    queue = dict.fromkeys(range(len(classes)))  # an ordered set
    while queue:
        s, _ = queue.popitem()
        hit: dict[int, dict[int, list[int]]] = {}
        for v, x in Counter(u for y in classes[s] for u in H.neighbors(y)).items():
            hit.setdefault(color[v], {}).setdefault(x, []).append(v)
        for c, by_count in hit.items():
            parts = list(by_count.values())
            classes[c].difference_update(*parts)
            if not classes[c]:  # every member was counted: one part keeps c
                classes[c].update(parts.pop())
            split = [c]
            for part in parts:
                split.append(len(classes))
                classes.append(set(part))
                for v in part:
                    color[v] = split[-1]
            skip = c if c in queue else max(split, key=lambda i: len(classes[i]))
            queue.update(dict.fromkeys(i for i in split if i != skip))
    return color


class Quotient(_Record):
    """An equitable partition of H, the form every count walks: each vertex's
    class in 0..k-1, the class sizes, and per class the classes of a member's
    neighbours with repeats, the same for all (Dell, Grohe & Rattan, 2018)."""

    __slots__ = ()
    class_of: tuple[int, ...]
    sizes: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.sizes)

    @property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """Each class's vertices, in increasing order."""
        classes: list[list[int]] = [[] for _ in self.sizes]
        for v, c in enumerate(self.class_of):
            classes[c].append(v)
        return tuple(map(tuple, classes))


def _quotient(H: TargetGraph, class_of) -> Quotient:
    """The Quotient of an equitable partition of H, classes numbered 0..k-1."""
    member = {c: v for v, c in enumerate(class_of)}
    sizes = Counter(class_of)
    return Quotient(tuple(class_of), tuple(sizes[c] for c in range(len(sizes))), tuple(
        tuple(sorted(class_of[u] for u in H.neighbors(member[c]))) for c in range(len(sizes))))


@lru_cache(maxsize=None)
def _equitable_quotient(H: TargetGraph, initial: tuple | None = None) -> Quotient:
    """`_quotient` of `_refined_colors(H, initial)`, cached."""
    return _quotient(H, _refined_colors(H, initial))


def _charge(spent: list[int], steps: int, limit: str = "AUT_WORK_LIMIT") -> None:
    """Add steps to a search's running count spent[0]; past the module
    constant named limit, SizeLimitError."""
    spent[0] += steps
    if spent[0] > (cap := globals()[limit]):
        raise SizeLimitError(f"search limited to {cap} steps ({limit})")


def _maps(H: TargetGraph, colors, spent: list[int], pin: tuple[int, int] | None = None):
    """Backtrack over vertex images, yielding the color-preserving
    automorphisms of H (colors: `_refined_colors` classes, which start from
    each vertex's loop, so a color-preserving map keeps loops too).

    With pin = (r, w), r is mapped first and w is its only candidate, so
    only the maps sending r to w are yielded. A candidate w for the vertex v
    at depth d passes when it is unused and has v's color, its neighbours
    include the image of every neighbour of v mapped before v (back[d]), and
    it has no other used neighbour; it is charged 1 + len(back[d]) + deg(w)
    steps to spent (see _charge). The backtrack keeps its own stack of
    candidate iterators, one per depth.
    """
    by_color: dict[int, list[int]] = {}
    for w in H.vertices():
        by_color.setdefault(colors[w], []).append(w)

    # map vertices in an order that keeps each new vertex adjacent to a
    # mapped one where possible (tight candidate sets); each component
    # starts at its unplaced vertex of fewest candidates, read off one sort
    order: list[int] = []
    placed = [False] * H.n
    stack: list[int] = [pin[0]] if pin else []
    starts = iter(sorted(H.vertices(), key=lambda u: (len(by_color[colors[u]]), u)))
    while len(order) < H.n:
        if not stack:
            stack.append(next(u for u in starts if not placed[u]))
        v = stack.pop()
        if placed[v]:
            continue
        placed[v] = True
        order.append(v)
        stack.extend(sorted(H.neighbors(v) - {v}, reverse=True))
    # a vertex's candidates are the neighbours of its first mapped neighbour's image
    depth = {v: d for d, v in enumerate(order)}
    back = [[u for u in H.neighbors(v) if depth[u] < d] for d, v in enumerate(order)]

    def candidates(d: int):
        if back[d]:
            return iter(sorted(H.neighbors(image[back[d][0]])))
        return iter((pin[1],) if pin and d == 0 else by_color[colors[order[d]]])

    if not H.n:
        yield ()
        return
    image = [0] * H.n
    used = [False] * H.n
    tries = [candidates(0)]
    while tries:
        d = len(tries) - 1
        v = order[d]
        for w in tries[-1]:
            near = H.neighbors(w)
            _charge(spent, 1 + len(back[d]) + len(near))
            if (not used[w] and colors[w] == colors[v]
                    and all(image[u] in near for u in back[d])
                    and sum(used[x] for x in near) == len(back[d])):
                break
        else:
            tries.pop()
            if d:  # the depth above goes on to its next candidate
                used[image[order[d - 1]]] = False
            continue
        image[v] = w
        used[w] = True
        if d + 1 < H.n:
            tries.append(candidates(d + 1))
        else:
            yield tuple(image)
            used[w] = False


def automorphisms(H: TargetGraph) -> list[tuple[int, ...]]:
    """All loop- and adjacency-preserving vertex permutations."""
    return list(_maps(H, _equitable_quotient(H)[0], [0]))


@lru_cache(maxsize=None)
def orbit_partition(H: TargetGraph) -> Quotient:
    """The Quotient of H's automorphism orbits (orbits are equitable), classes
    numbered in order of least vertex: the paper's automorphic similarity
    classes. Cached, and the only route to the orbits, so a target's orbit
    search runs once per process.

    The group is not listed. Vertices are taken in order; a vertex w not yet
    joined to a known orbit is tried against the representative r of each
    known orbit of w's refined color by one search pinned to r -> w, which
    stops at the first automorphism found and joins all of its cycles. A
    vertex that no such search reaches represents a new orbit. That is at
    most n * k searches (k orbits), each still exponential in the worst case
    on graphs that color refinement cannot split, so together they stop at
    AUT_WORK_LIMIT steps.
    """
    colors = _equitable_quotient(H)[0]
    spent = [0]
    parent = list(range(H.n))
    reps: dict[int, list[int]] = {}  # refined color -> orbit representatives
    for w in H.vertices():
        same = reps.setdefault(colors[w], [])
        if any(_find(parent, r) == _find(parent, w) for r in same):
            continue
        for r in same:
            sigma = next(_maps(H, colors, spent, (r, w)), None)
            if sigma is not None:
                for v in H.vertices():
                    ru, rv = _find(parent, v), _find(parent, sigma[v])
                    if ru != rv:
                        parent[ru] = rv
                break
        else:
            same.append(w)
    index: dict[int, int] = {}  # orbit root -> class, numbered in order of least member
    return _quotient(H, [index.setdefault(_find(parent, v), len(index)) for v in H.vertices()])


def similarity_matrix(Q: Quotient,
                      ordering: tuple[int, ...] | None = None) -> SimilarityMatrix:
    """m[i][j] = neighbors in class j of any vertex in class i of the
    equitable quotient Q, classes in ordering (index order by default);
    refused past AUT_WORK_LIMIT entries, before any is built."""
    k = Q.k
    if ordering is None:
        ordering = tuple(range(k))
    if sorted(ordering) != list(range(k)):
        raise ValueError(f"ordering {ordering} is not a permutation of 0..{k - 1}")
    if k * k > AUT_WORK_LIMIT:
        raise SizeLimitError(f"similarity matrix of {k} classes has {k * k} entries, "
                             f"past AUT_WORK_LIMIT = {AUT_WORK_LIMIT}")
    counts = [Counter(Q.rows[i]) for i in ordering]
    m = tuple(tuple(c[j] for j in ordering) for c in counts)
    return SimilarityMatrix(k, m, tuple(Q.sizes[i] for i in ordering), tuple(ordering))


def has_increasing_columns(M: SimilarityMatrix) -> bool:
    """True iff every terminal column-segment sum is non-decreasing down rows (O(k^2))."""
    tails = [list(accumulate(reversed(row))) for row in M.m]
    return all(x <= y for a, b in zip(tails, tails[1:]) for x, y in zip(a, b))


def find_increasing_ordering(H: TargetGraph) -> tuple[int, ...] | None:
    """First ordering (lexicographic) of H's orbits whose matrix passes, or None.

    A passing ordering is sorted by f_S(x) = sum of m[x][y], y in S, for each
    suffix set S (the classes from some position on). Classes are placed
    front to back, lowest index first, with backtracking: x extends the
    prefix only if, under each f_S that the prefix and x fix, the prefix then
    x is sorted and no unplaced class scores below x. Both are necessary, so
    the first full ordering reached is the first that passes.

    Each prefix costs |scores| * |rest| steps and each candidate k + |placed|;
    past ORDERING_WORK_LIMIT steps, SizeLimitError. The prefix of length j
    costs (j + 1)(k - j), so reaching depth d costs at least d(d + 1)(d + 2)/6
    steps and the recursion never goes past about 390 frames.
    """
    Q = orbit_partition(H)
    base = similarity_matrix(Q).m
    spent = [0]

    def extend(placed: list[int], scores: list[list[int]], rest: list[int]):
        # scores[p][x] = f_S(x), S the suffix set from position p on
        if not rest:
            return tuple(placed)
        _charge(spent, len(scores) * len(rest), "ORDERING_WORK_LIMIT")
        lows = [min(s[y] for y in rest) for s in scores]
        for x in rest:
            _charge(spent, Q.k + len(placed), "ORDERING_WORK_LIMIT")
            if any(s[x] > low for s, low in zip(scores, lows)):
                continue
            after, seq = [y for y in rest if y != x], placed + [x]
            f = [a - row[x] for a, row in zip(scores[-1], base)]
            if any(f[y] < f[x] for y in after) or any(f[a] > f[b] for a, b in zip(seq, seq[1:])):
                continue
            if (found := extend(seq, scores + [f], after)) is not None:
                return found
        return None

    return extend([], [[sum(row) for row in base]], list(range(Q.k)))

"""Generation, canonicalization, and KC moves on trees.

Canonical codes are classic center-rooted AHU strings: equal codes iff
isomorphic, invariant under relabeling. The centers, a longest path's
middle, come off two breadth-first searches (`graphs._search`).

Trees are generated from a table of rooted shapes: integer IDs, each a
non-increasing tuple of child IDs, numbered by vertex count. A free tree
splits at its centroid into a multiset of rooted shapes with fewer than n/2
vertices each, or, for even n only, into a pair of shapes with n/2 vertices
joined by the central edge (Otter 1948). `free_trees` lists both kinds as
tuples of shape IDs. One walk (`bounded_fold`) lists in the same order the
counts at most a bound, or above it, from class weights and a message step,
a tree's class vector the product of its parts, without building the tree:
the children that complete a tree multiply to a value that depends only on
how many vertices they hold and the bound on their IDs, so for up to `_TAIL`
vertices those products are tabulated, one table for every order of a sweep,
whose first rows are the rooted shapes' own vectors (refused past
SHAPE_VECTOR_LIMIT shapes x classes). The walk skips every part of the fold
whose lower (upper) bound is past the bound.
`all_trees` materializes the enumeration and `tree_count` reads its size off
one table of tree counts (`_counts`), which also places the fold's blocks;
the tests cross-check both against a Prufer-sequence dedup oracle and
Otter's counting recurrence.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import lru_cache
from itertools import repeat
from operator import mul

from .graphs import SizeLimitError, Tree, _Record, _search

TREE_LIMIT = 16

#: Cap on a sweep's shapes x classes: the fold's table (`_table`) holds a
#: vector and a message of one entry per class for each rooted shape, and
#: many more vectors of that length.
SHAPE_VECTOR_LIMIT = 1_000_000


class CanonicalTree(_Record):
    """A tree and its canonical code (`canonical_code`)."""

    __slots__ = ()
    tree: Tree
    code: str


def path(n: int) -> Tree:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Tree.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star(n: int) -> Tree:
    if n < 2:
        raise ValueError("star needs n >= 2")
    return Tree.from_edges(n, [(0, i) for i in range(1, n)])


# ---------------------------------------------------------------------------
# canonical codes (on adjacency lists, so generated trees need no Tree)

def _rooted_code(adj: Sequence[Sequence[int]], root: int) -> str:
    """AHU code of the tree rooted at root: each vertex is an opening
    parenthesis, its children's codes in sorted order, and a closing one.
    Built bottom-up over a BFS order, so deep trees need no recursion."""
    order, parent = _search(adj, root)
    subs: list[list[str]] = [[] for _ in adj]
    for v in reversed(order):  # the root, its own parent, comes last
        code = "(" + "".join(sorted(subs[v])) + ")"
        subs[v] = []
        subs[parent[v]].append(code)
    return code


def _code(adj: Sequence[Sequence[int]]) -> str:
    """The least `_rooted_code` at a center, a middle vertex (1 or 2) of a
    longest path: a search's last vertex, far, ends one, and a search from
    far reaches its other end last; parents lead back to far."""
    far = _search(adj)[0][-1]
    order, parent = _search(adj, far)
    v = order[-1]
    pth = [v]
    while v != far:
        v = parent[v]
        pth.append(v)
    return min(_rooted_code(adj, c) for c in pth[(len(pth) - 1) // 2:len(pth) // 2 + 1])


def canonical_code(T: Tree) -> str:
    return _code(T._adj)


def _tree_from_code(code: str) -> Tree:
    """The tree a canonical code describes, labelled in preorder: vertex 0 is
    the center the code is rooted at, and each "(" opens the next vertex."""
    edges, open_, n = [], [], 0
    for ch in code:
        if ch == "(":
            if open_:
                edges.append((open_[-1], n))
            open_.append(n)
            n += 1
        else:
            open_.pop()
    return Tree.from_edges(n, edges)


# ---------------------------------------------------------------------------
# rooted shapes and the free-tree generator

class _Shapes(_Record):
    """The rooted-shape table `free_trees` composes, by shape ID."""

    __slots__ = ()
    children: list[tuple[int, ...]]  # shape ID -> child IDs, non-increasing
    size: list[int]                  # shape ID -> vertex count
    end: list[int]                   # end[s] = number of shapes on <= s vertices


#: Vertex counts up to which `bounded_fold` takes a tree's last children
#: from one table of shared products, counted as one block, instead of
#: branching on each child.
_TAIL = 8


def _fits(t: _Shapes, total: int, top: int) -> int:
    """The IDs below top of shapes on at most total vertices: range(_fits(...))."""
    return min(top, t.end[total]) if total < len(t.end) else top


def _multisets(t: _Shapes, total: int, top: int,
               prefix: tuple[int, ...] = ()) -> Iterator[tuple[int, ...]]:
    """prefix extended by every non-increasing sequence of shape IDs below
    top whose vertex counts sum to total, largest IDs first."""
    if total == 0:
        yield prefix
        return
    for c in range(_fits(t, total, top) - 1, -1, -1):
        yield from _multisets(t, total - t.size[c], c + 1, prefix + (c,))


@lru_cache(maxsize=None)
def _shapes() -> _Shapes:
    """Every rooted tree on up to TREE_LIMIT // 2 vertices, numbered by vertex
    count: a shape on s vertices is a multiset of shapes on s - 1 in total,
    all with smaller IDs."""
    t = _Shapes([], [], [0])
    for s in range(1, TREE_LIMIT // 2 + 1):
        t.children.extend(_multisets(t, s - 1, t.end[s - 1]))
        t.size.extend([s] * (len(t.children) - len(t.size)))
        t.end.append(len(t.children))
    return t


@lru_cache(maxsize=None)
def _counts() -> list[list[int]]:
    """num[r][b], r < TREE_LIMIT: the number of non-increasing sequences of
    shape IDs below b whose vertex counts sum to r, by a knapsack over the
    IDs, num[r][b + 1] = num[r][b] + num[r - size(b)][b + 1]. The trees that
    complete a fold node, and so every tree count, are read off it."""
    num = [[1]] + [[0] for _ in range(TREE_LIMIT - 1)]
    for s in _shapes().size:
        for r, row in enumerate(num):
            row.append(row[-1] + (num[r - s][-1] if r >= s else 0))
    return num


def _check_order(n: int) -> None:
    if not 1 <= n <= TREE_LIMIT:
        raise SizeLimitError(f"tree enumeration limited to 1..{TREE_LIMIT}, got n={n}")


def free_trees(n: int) -> Iterator[tuple[int, ...]]:
    """One tuple (s, c_1, ..., c_k) per isomorphism class of trees on n
    vertices, in a fixed generation order (not code order): the rooted shape
    s, by its ID (one of the rooted trees on up to max(1, n // 2) vertices),
    with extra children c_1 >= ... >= c_k at its root.

    The tree is the centroid as a bare vertex (s = 0) with every branch, each
    under n/2 vertices, or, for even n, the pair a <= b of n/2-vertex halves
    as s = a, c_1 = b.
    """
    _check_order(n)
    t = _shapes()
    yield from _multisets(t, n - 1, t.end[(n - 1) // 2], (0,))
    if n % 2 == 0:
        lo, hi = t.end[n // 2 - 1], t.end[n // 2]
        for b in range(lo, hi):
            for a in range(lo, b + 1):
                yield a, b


def _table(n_max: int, k: int, step: Callable[[list[int]], list[int]]
           ) -> tuple[_Shapes, int, list[list[list[int]]], list[list[int]]]:
    """(shapes, most, tails, msg) of a fold up to n_max on k classes, most =
    min(n_max - 1, _TAIL). For r up to most and every r below n_max // 2,
    tails[r] lists Π msg[c_i] over every non-increasing sequence of IDs
    below end[(n_max - 1) // 2] whose vertex counts sum to r, in
    `free_trees` order, largest IDs first, so those with IDs below b are its
    last num[r][b] (`_counts`). For r < n_max // 2 all IDs that fit are
    below that bound, so tails[r] are the (r + 1)-vertex shapes' vectors
    h_s = Π msg[c] over s's children, in ID order, and msg[s] = step(h_s).
    Refused past SHAPE_VECTOR_LIMIT over the shapes `free_trees(n_max)`
    composes, before any vector is built."""
    _check_order(n_max)
    t, num = _shapes(), _counts()
    shapes = t.end[max(1, n_max // 2)]
    if shapes * k > SHAPE_VECTOR_LIMIT:
        raise SizeLimitError(f"shape vectors need shapes x classes = {shapes} x {k} = "
                             f"{shapes * k}, past SHAPE_VECTOR_LIMIT = {SHAPE_VECTOR_LIMIT}")
    most, top = min(n_max - 1, _TAIL), t.end[(n_max - 1) // 2]
    tails: list[list[list[int]]] = []
    msg: list[list[int]] = []
    for r in range(max(most, n_max // 2 - 1) + 1):
        prods = [[1] * k] if r == 0 else []
        for c in range(_fits(t, r, top) - 1, -1, -1):
            rest, m = r - t.size[c], msg[c]
            prods.extend([list(map(mul, m, p)) for p in tails[rest][-num[rest][c + 1]:]])
        tails.append(prods)
        if r < n_max // 2:
            msg.extend(map(step, prods))
    return t, most, tails, msg


def _check_covered(n: int, n_max: int) -> None:
    """A fold whose tables were built for n_max lists wrong positions past it."""
    _check_order(n)
    if n > n_max:
        raise ValueError(f"the fold's tables cover n <= {n_max}, got n={n}")


def _dot(x: Sequence[int], y: Sequence[int]) -> int:
    return sum(map(mul, x, y))


def _suffix(pick: Callable[[int, int], int], prods: list[list[int]]) -> list[list[int]]:
    """out[j] = the entrywise pick (min or max) of prods[j:]."""
    out = prods[-1:]
    for p in reversed(prods[:-1]):
        out.append(list(map(pick, p, out[-1])))
    out.reverse()
    return out


def bounded_fold(n_max: int, weights: Sequence[int], step: Callable[[list[int]], list[int]]
                 ) -> Callable[..., list[tuple[int, int]]]:
    """fold(n, bound, above=False) for every order n <= n_max: (i, c) for
    each tree on n vertices whose count c is at most bound (with above,
    more), i its position in `free_trees` order. With `_table`'s h and msg,
    the tree (s, c_1, ..., c_k) has the class vector weights ⊙ h_s ⊙
    msg[c_1] ⊙ ... ⊙ msg[c_k] (⊙ elementwise), and its count is that
    vector's sum.

    The product is commutative, so the children that complete a tree
    multiply to a value that depends only on their vertex count r and the
    bound b on their IDs, not on the children before them. The walk keeps a
    stack of nodes (r, b, x), x the prefix product. For r up to _TAIL the
    completions are tabulated once (`_table`), and the node is one block,
    x ⊙ entry over the table's entries, counted in C and read in order from
    the position of its first tree; above it, the walk branches on the next
    child, largest ID first. For even n one block per b follows: the halves
    (a, b), a <= b, as roots[a] ⊙ msg[b], roots = weights ⊙ h. A block's
    counts are kept only if its best (least, with above largest) is.

    The bound needs weights and step's matrix entrywise >= 0. The walk
    counts only blocks that may hold counts at most the bound, or with
    above, counts above it. Every completion of a node (r, b, x) has a
    product between low(r, b) and high(r, b) entrywise, the least and the
    largest of those products, so a count between x · low(r, b) and
    x · high(r, b). A node whose lower bound is past `bound` (with above,
    whose upper bound is at most it) is skipped whole, its position advanced
    by the number of its completions, num[r][b] (`_counts`). A completion
    with IDs below b either has none equal to b - 1, or is msg[b - 1] times
    a completion of r - size(b - 1) vertices with IDs below b. The least and
    the largest over a union are those of its parts, and ⊙ msg[b - 1] >= 0
    keeps both:

        low(r, b) = min(low(r, b - 1), msg[b - 1] ⊙ low(r - size(b - 1), b))

    high alike with max, low(0, b) = high(0, b) = 1 (the empty completion),
    and nothing at b = 0 for r > 0; ID 0 fits in any r, so every node with
    b >= 1 has completions. A row is grown only as far as a visited node's
    b asks, one entry from the one before, and only for the r that nodes
    reach. For r <= _TAIL the completions are the last num[r][b] entries of
    the `_table` block tails[r], so low and high are its suffix minima and
    maxima. A shorter suffix has a larger minimum and a smaller maximum, so
    as j grows x · (suffix minimum at j) never falls, x · (suffix maximum
    at j) never rises, and a bisection ends the block at the first entry
    whose bound is past `bound`. The halves (a, b) count roots[a] · msg[b],
    between min(roots[lo..b]) · msg[b] and max(roots[lo..b]) · msg[b], a
    running minimum and maximum over b.

    None of these tables depends on the order: a `_table` block with IDs
    below b is the same whatever larger bound on IDs the table was built
    for, and low, high and num depend only on r and b. So they are built
    for n_max and shared by every order's walk.
    """
    t, most, tails, msg = _table(n_max, len(weights), step)
    num = _counts()

    def side(pick: Callable[[int, int], int]):
        """(pick, ends, edge), pick min for low and max for high: ends(r) the
        suffix picks of tails[r], edge(r, b) low or high, None if num[r][b] = 0."""
        ends = lru_cache(maxsize=None)(lambda r: _suffix(pick, tails[r]))
        rows: dict[int, list[list[int] | None]] = {}

        def edge(r: int, b: int) -> list[int] | None:
            if r <= most:
                return ends(r)[-num[r][b]] if num[r][b] else None
            row = rows.setdefault(r, [None])
            b = _fits(t, r, b)
            while len(row) <= b:
                c = len(row) - 1
                term = list(map(mul, msg[c], edge(r - t.size[c], c + 1)))
                row.append(term if row[c] is None else list(map(pick, row[c], term)))
            return row[b]

        return pick, ends, edge

    sides = side(min), side(max)

    def fold(n: int, bound: int, above: bool = False) -> list[tuple[int, int]]:
        _check_covered(n, n_max)
        from bisect import bisect_left  # imported here, so only sweeps load it
        pick, ends, edge = sides[above]
        past = bound.__ge__ if above else bound.__lt__  # past(v): no count bounded by v is kept
        out: list[tuple[int, int]] = []

        def count(at: int, vectors: Iterator[Iterator[int]]) -> None:
            """Keep the counts of a block whose first tree is at position at."""
            counts = list(map(sum, vectors))
            if not past(pick(counts)):
                out.extend((i, c) for i, c in enumerate(counts, at) if not past(c))

        at = 0  # position of the next tree in free_trees order
        todo = [(n - 1, t.end[(n - 1) // 2], weights)]
        while todo:
            r, b, x = todo.pop()
            extreme = edge(r, b)
            if extreme is None or past(_dot(x, extreme)):
                at += num[r][b]
                continue
            if r <= most:  # extreme bounds the block's first entry, so the block is not empty
                prods = tails[r]
                start = len(prods) - num[r][b]
                stop = bisect_left(ends(r), True, start, len(prods),
                                   key=lambda p: past(_dot(x, p)))
                count(at, map(map, repeat(mul), repeat(x), prods[start:stop]))
                at += num[r][b]
            else:  # pushed smallest ID first, so the largest is folded first
                todo.extend((r - t.size[c], c + 1, list(map(mul, x, msg[c])))
                            for c in range(_fits(t, r, b)))
        if n % 2 == 0:  # roots[j] = weights ⊙ h_a for the half a = end[n/2 - 1] + j
            roots = [list(map(mul, weights, h)) for h in tails[n // 2 - 1]]
            extreme = roots[0]
            for j, (root, m) in enumerate(zip(roots, msg[t.end[n // 2 - 1]:]), 1):
                extreme = list(map(pick, extreme, root))
                if not past(_dot(extreme, m)):
                    count(at, map(map, repeat(mul), roots[:j], repeat(m)))
                at += j
        return out

    return fold


def _adjacency(parts: tuple[int, ...]) -> list[list[int]]:
    """Adjacency lists of the tree free_trees names by (s, c_1, ..., c_k),
    labelled depth-first from its root."""
    children = _shapes().children
    adj: list[list[int]] = [[]]
    todo = [(0, c) for c in children[parts[0]] + parts[1:]]
    while todo:
        parent, s = todo.pop()
        v = len(adj)
        adj.append([parent])
        adj[parent].append(v)
        todo.extend((v, c) for c in children[s])
    return adj


def tree_codes(n: int, picked: Iterable[int]) -> dict[int, str]:
    """Canonical codes of the trees at the picked positions of free_trees(n)."""
    want = set(picked)
    return {i: _code(_adjacency(parts)) for i, parts in enumerate(free_trees(n))
            if i in want}


def all_trees(n: int) -> tuple[CanonicalTree, ...]:
    """One representative per isomorphism class, ordered by canonical code;
    each tree is labelled in preorder of its code (`_tree_from_code`)."""
    codes = sorted(_code(_adjacency(parts)) for parts in free_trees(n))
    return tuple(CanonicalTree(_tree_from_code(c), c) for c in codes)


def tree_count(n: int) -> int:
    """The number of trees `free_trees(n)` lists, read off the count table
    without listing them: num[n - 1][b] (`_counts`), the multisets of shape
    IDs below its bound b whose vertex counts sum to n - 1, plus, for even
    n, the pairs a <= b of n/2-vertex shapes."""
    _check_order(n)
    t = _shapes()
    halves = t.end[n // 2] - t.end[n // 2 - 1] if n % 2 == 0 else 0
    return _counts()[n - 1][t.end[(n - 1) // 2]] + halves * (halves + 1) // 2


# ---------------------------------------------------------------------------
# KC moves (generalized tree shifts)

def _runs(adj: Sequence[Sequence[int]]) -> Iterator[list[int]]:
    """The non-leaves of each maximal path of the tree adj whose internal
    vertices have degree two and whose ends do not, in path order: each such
    path is walked from both ends and kept from its smaller one. Two vertices
    are a KC site exactly when they lie in one run, and the run between them
    is the site's bare path. Two steps per vertex, so O(n) in all."""
    deg = list(map(len, adj))
    for v, out in enumerate(adj):
        if deg[v] == 2:
            continue
        for u in out:
            run, prev = [v], v
            while deg[u] == 2:
                run.append(u)
                nbrs = adj[u]
                prev, u = u, nbrs[nbrs[0] == prev]
            if v < u:
                yield run[deg[v] == 1:] + [u] * (deg[u] > 1)


def _kc_paths(T: Tree) -> list[tuple[int, int, int, int, int]]:
    """(v_left, v_right, first, last, t) at every KC site, in `kc_sites`
    order, for each pair of vertices of one of `_runs`: first the path vertex
    after v_left, last the one before v_right, t the path's vertex count."""
    sites = []
    for run in _runs(T._adj):
        for j, b in enumerate(run):
            for i, a in enumerate(run[:j]):
                t = j - i + 1
                sites.append((a, b, run[i + 1], run[j - 1], t) if a < b
                             else (b, a, run[j - 1], run[i + 1], t))
    return sorted(sites)


def kc_sites(T: Tree) -> list[tuple[int, int]]:
    """Every legal KC move site (v_left, v_right) with v_left < v_right, sorted:
    two non-leaves joined by a path whose internal vertices have degree two."""
    return [site[:2] for site in _kc_paths(T)]


def kc_site_count(T: Tree) -> int:
    """len(kc_sites(T)) in O(n), with no site listed: C(len(run), 2) over `_runs`."""
    return sum(len(run) * (len(run) - 1) // 2 for run in _runs(T._adj))


def bare_path(T: Tree, v_left: int, v_right: int) -> list[int]:
    """The v_left..v_right path, validated as a legal KC move site.

    Raises ValueError naming the failing condition: the endpoints must be
    distinct non-leaf vertices of T and every internal path vertex must have
    degree two.
    """
    for v in (v_left, v_right):
        if not 0 <= v < T.n:
            raise ValueError(f"KC move endpoint {v} is not a vertex of the tree (0..{T.n - 1})")
    if v_left == v_right:
        raise ValueError("KC move needs two distinct vertices")
    for v in (v_left, v_right):
        if T.degree(v) < 2:
            raise ValueError(f"KC move endpoint {v} is a leaf")
    _, parent = _search(T._adj, v_left)
    pth = [v_right]
    while pth[-1] != v_left:
        pth.append(parent[pth[-1]])
    pth.reverse()
    for v in pth[1:-1]:
        if T.degree(v) != 2:
            raise ValueError(f"internal path vertex {v} has degree {T.degree(v)}, not 2")
    return pth


def kc_move(T: Tree, v_left: int, v_right: int) -> Tree:
    """Glue the two ends of a bare path and re-append the path as a pendant.

    The vertex count is preserved; the glued vertex keeps all non-path
    neighbors of both endpoints. The moved tree keeps T's labels
    (`_kc_glue`) and is validated as any Tree is (`_glued_tree`).
    """
    return _glued_tree(_kc_glue(T, v_left, bare_path(T, v_left, v_right)[-2], v_right))


def _kc_glue(T: Tree, v_left: int, last: int, v_right: int) -> list[Sequence[int]]:
    """kc_move's adjacency lists at the legal site (v_left, v_right), last the
    path vertex before v_right, unvalidated: T's lists with three edits.
    v_right's neighbours off the path move to v_left, which glues the two
    ends; the path itself, v_left's first path neighbour to v_right, is then
    the pendant path of t - 1 vertices hanging from the glued vertex. Only
    the lists of v_left, v_right and v_right's moved neighbours change."""
    adj = list(T._adj)
    moved = [w for w in adj[v_right] if w != last]
    adj[v_left] += tuple(moved)
    adj[v_right] = (last,)
    for w in moved:
        adj[w] = [v_left if x == v_right else x for x in adj[w]]
    return adj


def _glued_tree(adj: Sequence[Sequence[int]]) -> Tree:
    """The Tree of glued adjacency lists (`_kc_glue`), validated as any Tree is."""
    return Tree.from_edges(len(adj), ((u, v) for u, a in enumerate(adj) for v in a if u < v))


def kc_successors(T: Tree) -> tuple[CanonicalTree, ...]:
    """All canonical results of a single KC move; empty iff T is a star or
    a single vertex. Each site's moved adjacency (`_kc_glue`, its path's
    last vertex read off `_kc_paths`) is coded as it stands, and a Tree is
    built, as `kc_move` builds it, only for the first site of each code."""
    by_code: dict[str, CanonicalTree] = {}
    for vl, vr, _, last, _ in _kc_paths(T):
        moved = _kc_glue(T, vl, last, vr)
        if (c := _code(moved)) not in by_code:
            by_code[c] = CanonicalTree(_glued_tree(moved), c)
    return tuple(by_code[c] for c in sorted(by_code))


def kc_closure(start: Tree) -> set[str]:
    """Canonical codes of all trees reachable by sequences of KC moves."""
    seen = {canonical_code(start)}
    frontier = [start]
    while frontier:
        t = frontier.pop()
        for succ in kc_successors(t):
            if succ.code not in seen:
                seen.add(succ.code)
                frontier.append(succ.tree)
    return seen


"""Independent oracles used to cross-check the package's fast routes.

Two tree-counting oracles that share no code with treehom.trees.all_trees:

* prufer_tree_count: decode every Prufer sequence on n labels and dedup the
  resulting labeled trees up to isomorphism by `tree_code` of their
  adjacency lists. Exhaustive ground truth, but
  n^(n-2) sequences limit it to small n.
* otter_tree_count: the classic counting recurrence (rooted-tree convolution
  followed by the rooted-to-free correction). Pure integer arithmetic, fast
  for any desk-scale n.

One canonical code that shares no code with treehom.trees or treehom.graphs:

* tree_code: the least AHU string at a center, the centers found by
  stripping leaves layer by layer and each string built depth-first with an
  explicit stack; equal to treehom's `_code`, which reads both off
  breadth-first searches.

Three activity-weighted partition-function oracles that share no code with
treehom.homcount, all in Fractions from the first multiplication on:

* fraction_partition_function: the tree walk with a Fraction product at every
  vertex, as the package computed it before it moved to integer numerators.
* brute_partition_function: Σ over every vertex map that sends edges to
  edges, for any loopless graph.
* path_partition_function: 1ᵀ(ΛA)^(n-1)Λ1 for the n-vertex path, by
  repeated squaring of the transfer matrix ΛA.

Two oracles that share no code with treehom.automorphy:

* first_increasing_ordering: every one of the k! class orderings in
  lexicographic order, each put through the terminal-sum test written out.
* round_refined_colors: colour refinement in rounds. Every round recolours
  every vertex by its colour and its neighbours' colour multiset, until the
  number of colours stops growing; a path takes Θ(n) rounds, so it is for
  small graphs only.

One oracle that needs no graph, only an equitable quotient, and shares no
code with treehom.homcount or treehom.trees:

* quotient_hom: hom(T, Q) for a quotient's class sizes and rows, by brute
  force over every map of T's vertices to classes.

One oracle that shares no code with treehom.extremal and uses no quotient:

* strict_witness_pairs: the strict-minimality certificate's witness pairs,
  read off powers of the vertex adjacency matrix; as_certificate puts them
  in the form check_strong_hl_certificate returns.

One oracle that shares no code with treehom.trees' KC moves:

* kc_moved_edges: the KC move by contraction, as the definition reads: the
  path's internal vertices and v_right are dropped, v_right's other
  neighbours join v_left, and t - 1 fresh vertices hang from v_left as a
  path.

Two oracles for `classify`'s balanced-bipartition label: by the identity
hom(T, P3) = 2^|X| + 2^|Y| target 19, the path a-b-c, is least exactly on
these trees, and the tests check its bounded fold's ties against them. They
share no code with treehom and count no colouring:

* bipartition: the two colour classes of a tree, by a 2-colouring search.
* has_balanced_bipartition: whether those classes differ in size by at most
  one.

One oracle that shares no code with treehom.automorphy's search and
runs no refinement:

* isomorphic: whether some permutation of one graph's vertices maps its
  edges and loops onto the other's, trying every permutation, so it is for
  graphs of at most 7 or so vertices.

One oracle that shares no code with treehom.graphs' search:

* queue_search: breadth-first search with a queue and a dict of parents,
  reading each vertex's neighbours in their own order.

Four oracles for the constructions that share no code with treehom.graphs.
Each gives (n, edges) by testing an adjacency predicate on every pair of
vertices i <= j:

* product_edges: (x1,y1)~(x2,y2) iff x1~x2 and y1~y2, the pair (x, y)
  numbered x * n2 + y.
* blown_up_edges: a cluster vertex is adjacent to every vertex of each
  cluster whose vertex is adjacent to its own, so a looped vertex's cluster
  is fully looped and an unlooped one's has no edge inside.
* dominated_edges: each new vertex is adjacent to every vertex, itself too.
* union_edges: vertices are (graph, vertex) in order, adjacent iff in the
  same graph and adjacent there.

One hard target: dense_regular_21, a 16-regular graph on 21 vertices that
colour refinement cannot split and whose pinned orbit searches fail only
deep down.

One oracle for the verdict `check-hl` and `classify` read on a certified
target, the path alone least exactly when some edge joins unequal degrees.
It shares no code with treehom and uses no quotient:

* spider_counts: the path's count and every three-leg spider's, off the
  vertex vectors p_j = A^j·1.

The tests' full-fold reference, which is treehom's own bounded fold and so
no independent oracle: it is checked against the walk of each listed tree,
and the reads of the fold at other bounds against it:

* fold_counts: every tree's count, in `free_trees` order, from a target's
  bounded fold at a bound no count passes, H.n^n (every map of the n
  vertices).
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import lru_cache, partial
from itertools import permutations, product
from math import prod

from treehom import StrongHLCertificate, TargetGraph, Tree
from treehom.automorphy import _equitable_quotient
from treehom.homcount import _message
from treehom.trees import bounded_fold

PRUFER_LIMIT = 8  # n^(n-2) sequences; 8^6 ~ 262k is the comfortable cap
ORDERING_ORACLE_LIMIT = 7  # k! orderings; 7! = 5040


def prufer_decode(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    """Edges of the labeled tree on 0..n-1 with the given Prufer sequence."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        for v in range(n):
            if degree[v] == 1:
                edges.append((v, x))
                degree[v] -= 1
                degree[x] -= 1
                break
    last = [v for v in range(n) if degree[v] == 1]
    edges.append((last[0], last[1]))
    return edges


@lru_cache(maxsize=None)
def prufer_tree_count(n: int) -> int:
    """Isomorphism classes among all n^(n-2) labeled trees, each coded
    from its decoded adjacency lists."""
    if n <= 2:
        return 1
    if n > PRUFER_LIMIT:
        raise ValueError(f"prufer oracle capped at n={PRUFER_LIMIT}")
    codes = set()
    for seq in product(range(n), repeat=n - 2):
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in prufer_decode(seq, n):
            adj[u].append(v)
            adj[v].append(u)
        codes.add(tree_code(adj))
    return len(codes)


def _leaf_stripped_centers(adj: list[list[int]]) -> list[int]:
    """The 1 or 2 vertices left when leaves are stripped a layer at a time."""
    n = len(adj)
    if n <= 2:
        return list(range(n))
    deg = [len(a) for a in adj]
    layer = [v for v in range(n) if deg[v] == 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            deg[v] = 0
            for u in adj[v]:
                if deg[u] > 0:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        layer = nxt
    return layer


def _ahu(adj: list[list[int]], root: int) -> str:
    """The AHU string of adj rooted at root: "(" + the children's strings,
    sorted, + ")", built over a depth-first preorder read backwards, so each
    vertex is closed after all its children."""
    up, order, stack = {root: root}, [], [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for u in adj[v]:
            if u not in up:
                up[u] = v
                stack.append(u)
    subs: dict[int, list[str]] = {v: [] for v in order}
    for v in reversed(order):
        code = "(" + "".join(sorted(subs[v])) + ")"
        subs[up[v]].append(code)
    return code


def tree_code(adj: list[list[int]]) -> str:
    """The canonical code of the tree with adjacency lists adj: the least AHU
    string rooted at one of its leaf-stripped centers."""
    return min(_ahu(adj, c) for c in _leaf_stripped_centers(adj))


@lru_cache(maxsize=None)
def _rooted_counts(n: int) -> list[int]:
    """r[k] = rooted trees on k vertices, via the divisor-sum convolution."""
    r = [0] * (n + 1)
    r[1] = 1
    for m in range(2, n + 1):
        total = 0
        for k in range(1, m):
            c = sum(d * r[d] for d in range(1, k + 1) if k % d == 0)
            total += c * r[m - k]
        r[m] = total // (m - 1)
    return r


def otter_tree_count(n: int) -> int:
    """Free trees on n vertices from rooted counts (centroid correction)."""
    if n < 1:
        raise ValueError("n must be positive")
    r = _rooted_counts(n)
    pairs = sum(r[i] * r[n - i] for i in range(1, n))
    t2 = 2 * r[n] - pairs
    if n % 2 == 0:
        t2 += r[n // 2]
    assert t2 % 2 == 0
    return t2 // 2


def fraction_partition_function(T: Tree, H: TargetGraph, lam) -> Fraction:
    """Σ_f Π_v λ_{f(v)} by the weighted walk in Fractions: rooted at vertex
    0, z(v)[x] = λ_x Π_children Σ_{y ~ x} z(c)[y], summed over x at the root."""
    rows = [sorted(H.neighbors(x)) for x in range(H.n)]
    parent = {0: None}
    order = [0]
    for v in order:
        for u in T.neighbors(v):
            if u not in parent:
                parent[u] = v
                order.append(u)
    z = {}
    for v in reversed(order):
        vec = [Fraction(a) for a in lam]
        for c in T.neighbors(v):
            if parent.get(c) == v:
                zc = z.pop(c)
                vec = [a * sum((zc[y] for y in row), Fraction(0)) for a, row in zip(vec, rows)]
        z[v] = vec
    return sum(z[0], Fraction(0))


def brute_partition_function(n: int, edges, H: TargetGraph, lam) -> Fraction:
    """Σ over all maps f: {0..n-1} -> V(H) sending edges to edges of
    Π_v λ_{f(v)}, in Fractions."""
    return sum((prod((Fraction(lam[x]) for x in f), start=Fraction(1))
                for f in product(range(H.n), repeat=n)
                if all(H.has_edge(f[u], f[v]) for u, v in edges)), Fraction(0))


def quotient_hom(T: Tree, sizes, rows) -> int:
    """Σ_f sizes[f(0)]·Π m[f(parent)][f(child)] over every map f of T's
    vertices to classes, the edges oriented away from vertex 0, with m[i][j]
    the number of times j appears in rows[i]. On the equitable quotient of a
    graph H this is hom(T, H); with s_i·m[i][j] = s_j·m[j][i] it does not
    depend on the root."""
    k = len(sizes)
    m = [[list(row).count(j) for j in range(k)] for row in rows]
    parent = {0: None}
    order = [0]
    for v in order:
        for u in T.neighbors(v):
            if u not in parent:
                parent[u] = v
                order.append(u)
    arcs = [(parent[v], v) for v in order[1:]]
    return sum(sizes[f[0]] * prod(m[f[p]][f[c]] for p, c in arcs)
               for f in product(range(k), repeat=T.n))


def _matmul(X, Y):
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*Y)]
            for row in X]


def path_partition_function(n: int, H: TargetGraph, lam) -> Fraction:
    """1ᵀ(ΛA)^(n-1)Λ1 for the n-vertex path into H, A the adjacency matrix
    (a loop counts once) and Λ = diag(λ)."""
    k = H.n
    step = [[Fraction(lam[x]) * H.has_edge(x, y) for y in range(k)] for x in range(k)]
    power = [[Fraction(int(x == y)) for y in range(k)] for x in range(k)]
    e = n - 1
    while e:
        if e & 1:
            power = _matmul(power, step)
        e >>= 1
        if e:
            step = _matmul(step, step)
    return sum((power[x][y] * lam[y] for x in range(k) for y in range(k)), Fraction(0))


def first_increasing_ordering(m) -> tuple[int, ...] | None:
    """The lexicographically first ordering o of the k classes of the k x k
    neighbour-count matrix m (classes in index order) under which, for every
    start column c, the terminal sums Σ_{j ≥ c} m[o[i]][o[j]] never decrease
    from row i to row i + 1; None if no ordering passes."""
    k = len(m)
    if k > ORDERING_ORACLE_LIMIT:
        raise ValueError(f"ordering oracle capped at k={ORDERING_ORACLE_LIMIT}")
    for o in permutations(range(k)):
        tail = [[sum(m[o[i]][o[j]] for j in range(c, k)) for c in range(k)] for i in range(k)]
        if all(tail[i][c] <= tail[i + 1][c] for i in range(k - 1) for c in range(k)):
            return o
    return None


def strict_witness_pairs(H: TargetGraph, classes, ordering, t_max: int, s_max: int) -> list:
    """Per path length t = 2..t_max, the lexicographically least pair (a, b)
    of positions in ordering such that (A^(t-1))[x][y] > 0 for some x in
    class ordering[a] and y in class ordering[b], and (A^(s-1)·1)[y] >
    (A^(s-1)·1)[x] for all such x and y and every s = 2..s_max; None where no
    pair has both. A is H's vertex adjacency matrix (a loop counts once)."""
    n = H.n
    adj = [[Fraction(int(H.has_edge(x, y))) for y in range(n)] for x in range(n)]
    powers = [[[Fraction(int(x == y)) for y in range(n)] for x in range(n)]]
    while len(powers) < max(t_max, s_max):
        powers.append(_matmul(powers[-1], adj))
    ends = [[sum(row) for row in powers[s - 1]] for s in range(2, s_max + 1)]
    members = [classes[c] for c in ordering]
    pairs = [(a, b) for a in range(len(members)) for b in range(len(members)) if a != b]
    return [next(((a, b) for a, b in pairs
                  if any(powers[t - 1][x][y] for x in members[a] for y in members[b])
                  and all(e[y] > e[x] for e in ends for x in members[a] for y in members[b])),
                 None)
            for t in range(2, t_max + 1)]


def as_certificate(want: list, ordering, t_max: int, s_max: int) -> StrongHLCertificate | str:
    """What check_strong_hl_certificate returns for strict_witness_pairs'
    list want: the certificate, or the refusal at the first length with no
    pair."""
    if None in want:
        return f"no witness class pair for path length t={want.index(None) + 2}"
    return StrongHLCertificate(tuple(ordering), t_max, s_max, tuple(enumerate(want, 2)))


def round_refined_colors(H: TargetGraph) -> list[int]:
    """Stable iterated refinement of (degree, loop) vertex colours, one
    full round over every vertex at a time; colours compare only for
    equality."""
    col = {v: hash((H.degree(v), H.has_loop(v))) for v in H.vertices()}
    ncolors = len(set(col.values()))
    while True:
        raw = {v: (col[v], tuple(sorted(col[u] for u in H.neighbors(v))))
               for v in H.vertices()}
        palette = {c: i for i, c in enumerate(sorted(set(raw.values()), key=repr))}
        col = {v: palette[raw[v]] for v in H.vertices()}
        if len(palette) == ncolors:
            return [col[v] for v in H.vertices()]
        ncolors = len(palette)


def kc_moved_edges(n: int, edges, v_left: int, v_right: int) -> list[tuple[int, int]]:
    """Edges of the KC move at (v_left, v_right) of the tree (n, edges), on
    the kept vertices in increasing order followed by the fresh path."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    parent = {v_left: None}
    frontier = [v_left]
    while frontier:
        u = frontier.pop()
        for w in adj[u] - parent.keys():
            parent[w] = u
            frontier.append(w)
    pth = [v_right]
    while pth[-1] != v_left:
        pth.append(parent[pth[-1]])
    dropped = set(pth[:-1])  # v_right and the internal vertices
    label = {v: i for i, v in enumerate(v for v in range(n) if v not in dropped)}
    out = {tuple(sorted((label[u], label[v]))) for u, v in edges if not {u, v} & dropped}
    out |= {tuple(sorted((label[v_left], label[w]))) for w in adj[v_right] - dropped - {v_left}}
    chain = [label[v_left], *range(len(label), n)]
    return sorted(out | set(zip(chain, chain[1:])))


def isomorphic(G: TargetGraph, H: TargetGraph) -> bool:
    """Whether some vertex permutation p sends G's edges and loops exactly
    onto H's, by trying every p."""
    return G.n == H.n and any(
        frozenset(tuple(sorted((p[u], p[v]))) for u, v in G.edges) == H.edges
        for p in permutations(range(G.n)))


def _adjacent(H: TargetGraph, u: int, v: int) -> bool:
    return (u, v) in H.edges or (v, u) in H.edges


def _by_predicate(n: int, adjacent) -> tuple[int, frozenset]:
    return n, frozenset((i, j) for i in range(n) for j in range(i, n) if adjacent(i, j))


def product_edges(H1: TargetGraph, H2: TargetGraph) -> tuple[int, frozenset]:
    pair = [(x, y) for x in range(H1.n) for y in range(H2.n)]
    return _by_predicate(len(pair), lambda i, j: _adjacent(H1, pair[i][0], pair[j][0])
                         and _adjacent(H2, pair[i][1], pair[j][1]))


def blown_up_edges(H: TargetGraph, sizes) -> tuple[int, frozenset]:
    owner = [v for v, size in enumerate(sizes) for _ in range(size)]
    return _by_predicate(len(owner), lambda i, j: _adjacent(H, owner[i], owner[j]))


def dominated_edges(H: TargetGraph, b: int) -> tuple[int, frozenset]:
    return _by_predicate(H.n + b, lambda i, j: j >= H.n or _adjacent(H, i, j))


def union_edges(*graphs: TargetGraph) -> tuple[int, frozenset]:
    owner = [(k, v) for k, H in enumerate(graphs) for v in range(H.n)]
    return _by_predicate(len(owner), lambda i, j: owner[i][0] == owner[j][0]
                         and _adjacent(graphs[owner[i][0]], owner[i][1], owner[j][1]))


def queue_search(adj, root: int, skip: int | None = None) -> tuple[list[int], list[int]]:
    """(order, parent) of a breadth-first search from root over the lists
    adj, without entering skip: the vertices in the order they leave the
    queue, and each one's parent, root's and skip's themselves, -1 for a
    vertex not reached."""
    parent = {root: root}
    if skip is not None:
        parent[skip] = skip
    order, queue = [], deque([root])
    while queue:
        v = queue.popleft()
        order.append(v)
        for u in adj[v]:
            if u not in parent:
                parent[u] = v
                queue.append(u)
    return order, [parent.get(v, -1) for v in range(len(adj))]


def bipartition(T: Tree) -> tuple[list[int], list[int]]:
    """The unique 2-coloring classes (X, Y) of a tree, with |X| <= |Y|."""
    color = [-1] * T.n
    color[0] = 0
    stack = [0]
    while stack:
        u = stack.pop()
        for w in T.neighbors(u):
            if color[w] < 0:
                color[w] = 1 - color[u]
                stack.append(w)
    x = [v for v in T.vertices() if color[v] == 0]
    y = [v for v in T.vertices() if color[v] == 1]
    return (x, y) if len(x) <= len(y) else (y, x)


def has_balanced_bipartition(T: Tree) -> bool:
    x, y = bipartition(T)
    return len(y) - len(x) <= 1


def dense_regular_21() -> TargetGraph:
    """The complement of the circulant C21(1, 2) after its edges (0, 1) and
    (10, 11) are replaced by (0, 10) and (1, 11): 16-regular, 168 edges."""
    sparse = {tuple(sorted((i, (i + d) % 21))) for i in range(21) for d in (1, 2)}
    sparse = sparse - {(0, 1), (10, 11)} | {(0, 10), (1, 11)}
    return TargetGraph.from_edges(21, [(i, j) for i in range(21) for j in range(i + 1, 21)
                                       if (i, j) not in sparse])


def spider_counts(H: TargetGraph, n: int) -> tuple[int, list[int]]:
    """hom(P_n, H) and hom(S(a, b, c), H) for every three-leg spider on n
    vertices, legs of a >= b >= c >= 1 vertices (none below 4 vertices).
    Rooted at the centre, a leg of j vertices sends p_j = A^j·1, A H's
    adjacency matrix, so a spider counts Σ_v p_a(v)·p_b(v)·p_c(v) and the
    path Σ_v p_(n-1)(v). No tree is built."""
    p = [[1] * H.n]
    for _ in range(n - 1):
        p.append([sum(p[-1][u] for u in H.neighbors(v)) for v in H.vertices()])
    spiders = [sum(x * y * z for x, y, z in zip(p[n - 1 - b - c], p[b], p[c]))
               for c in range(1, (n - 1) // 3 + 1) for b in range(c, (n - 1 - c) // 2 + 1)]
    return sum(p[n - 1]), spiders


def fold_counts(H: TargetGraph, n: int, n_max: int | None = None) -> list[int]:
    """Every tree's count on n vertices, in `free_trees` order, from H's lone
    bounded fold at a bound no count passes, its tables built for n_max
    (by default n)."""
    Q = _equitable_quotient(H)
    fold = bounded_fold(n_max or n, Q.sizes, partial(_message, Q.rows))
    return [c for _, c in fold(n, H.n ** n)]

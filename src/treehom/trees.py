"""Generation, canonicalization, and KC moves on trees.

Canonical codes are classic center-rooted AHU strings: equal codes iff
isomorphic, invariant under relabeling. The generator for all non-isomorphic
trees on n vertices wraps networkx's free-tree enumerator and is cross-checked
in the tests against an independent Prufer-sequence dedup oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import networkx as nx

from .graphs import SizeLimitError, Tree, bipartition

TREE_LIMIT = 16


@dataclass(frozen=True)
class CanonicalTree:
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


def _centers(T: Tree) -> list[int]:
    """The 1 or 2 middle vertices, found by repeated leaf stripping."""
    if T.n <= 2:
        return list(T.vertices())
    deg = [T.degree(v) for v in T.vertices()]
    layer = [v for v in T.vertices() if deg[v] == 1]
    remaining = T.n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            deg[v] = 0
            for u in T.neighbors(v):
                if deg[u] > 0:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        layer = nxt
    return sorted(layer)


def _rooted_code(T: Tree, root: int) -> str:
    def code(v: int, parent: int) -> str:
        subs = sorted(code(u, v) for u in T.neighbors(v) if u != parent)
        return "(" + "".join(subs) + ")"

    return code(root, -1)


def canonical_code(T: Tree) -> str:
    return min(_rooted_code(T, c) for c in _centers(T))


@lru_cache(maxsize=None)
def all_trees(n: int) -> tuple[CanonicalTree, ...]:
    """One representative per isomorphism class, ordered by canonical code."""
    if not 1 <= n <= TREE_LIMIT:
        raise SizeLimitError(f"tree enumeration limited to 1..{TREE_LIMIT}, got n={n}")
    if n == 1:
        t = Tree.from_edges(1, [])
        return (CanonicalTree(t, canonical_code(t)),)
    by_code: dict[str, CanonicalTree] = {}
    for g in nx.nonisomorphic_trees(n):
        t = Tree.from_edges(n, g.edges())
        c = canonical_code(t)
        by_code.setdefault(c, CanonicalTree(t, c))
    return tuple(by_code[c] for c in sorted(by_code))


def tree_count(n: int) -> int:
    return len(all_trees(n))


# ---------------------------------------------------------------------------
# KC moves (generalized tree shifts)

def kc_sites(T: Tree) -> list[tuple[int, int]]:
    """Every legal KC move site (v_left, v_right) with v_left < v_right, sorted:
    two non-leaves joined by a path whose internal vertices have degree two.

    From each non-leaf, walks out along each chain of degree-2 vertices; every
    non-leaf reached is a site, and the walk stops at the first vertex whose
    degree is not 2.
    """
    sites = []
    for v in T.vertices():
        if T.degree(v) < 2:
            continue
        for u in T.neighbors(v):
            prev = v
            while T.degree(u) >= 2:
                if v < u:
                    sites.append((v, u))
                if T.degree(u) != 2:
                    break
                prev, u = u, next(w for w in T.neighbors(u) if w != prev)
    return sorted(sites)


def bare_path(T: Tree, v_left: int, v_right: int) -> list[int]:
    """The v_left..v_right path, validated as a legal KC move site.

    Raises ValueError naming the failing condition: the endpoints must be
    distinct non-leaves and every internal path vertex must have degree two.
    """
    if v_left == v_right:
        raise ValueError("KC move needs two distinct vertices")
    for v in (v_left, v_right):
        if T.degree(v) < 2:
            raise ValueError(f"KC move endpoint {v} is a leaf")
    # unique tree path by DFS
    parent = {v_left: -1}
    stack = [v_left]
    while stack:
        u = stack.pop()
        if u == v_right:
            break
        for w in T.neighbors(u):
            if w not in parent:
                parent[w] = u
                stack.append(w)
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
    neighbors of both endpoints.
    """
    pth = bare_path(T, v_left, v_right)
    t = len(pth)
    internal = set(pth[1:-1])
    keep = [v for v in T.vertices() if v not in internal and v != v_right]
    relabel = {v: i for i, v in enumerate(keep)}
    merged = relabel[v_left]
    edges = []
    for u, v in T.edges:
        if u in internal or v in internal:
            continue
        if (u, v) == (min(v_left, v_right), max(v_left, v_right)):
            continue  # the t=2 path edge disappears in the gluing
        a = merged if u == v_right else relabel[u]
        b = merged if v == v_right else relabel[v]
        edges.append((a, b))
    # pendant path of t-1 new vertices at the glued vertex
    prev = merged
    for i in range(t - 1):
        w = len(keep) + i
        edges.append((prev, w))
        prev = w
    return Tree.from_edges(T.n, edges)


def kc_successors(T: Tree) -> tuple[CanonicalTree, ...]:
    """All canonical results of a single KC move; empty iff T is a star."""
    by_code: dict[str, CanonicalTree] = {}
    for vl, vr in kc_sites(T):
        moved = kc_move(T, vl, vr)
        c = canonical_code(moved)
        by_code.setdefault(c, CanonicalTree(moved, c))
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


def has_balanced_bipartition(T: Tree) -> bool:
    x, y = bipartition(T)
    return len(y) - len(x) <= 1

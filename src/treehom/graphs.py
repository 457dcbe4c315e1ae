"""Target graphs (loops allowed) and trees, and the tuple base of the
package's records.

Degree convention: a loop contributes 1 to the degree of its vertex, not 2.
This differs from the common convention and is used consistently everywhere
in this package (similarity matrices and nested-neighborhood orderings
depend on it).

Edges are stored as normalized pairs (u, v) with u <= v; (u, u) is a loop.
Both constructors take pairs in either orientation and any order and store
that form: a TargetGraph their frozenset, a Tree their sorted tuple. All
graph and tree values are immutable after construction and safe to share.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import accumulate, islice
from operator import itemgetter, lt


class _Record(tuple):
    """A tuple of named fields, the annotated names of its subclass's body in
    order, each read by an `itemgetter` property. It keeps what the package
    uses of `collections.namedtuple` (`_fields`, keyword construction, repr,
    pickling and copying) without generating code for each class. A
    subclass declares `__slots__ = ()`."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i), doc=f"Field {i} of the tuple."))

    def __new__(cls, *args, **kwargs):
        fields = cls._fields
        if kwargs:
            try:
                args += tuple(map(kwargs.pop, fields[len(args):]))
            except KeyError as missing:
                raise TypeError(f"{cls.__name__}() missing field {missing}") from None
            if kwargs:
                raise TypeError(f"{cls.__name__}() got unexpected fields {sorted(kwargs)}")
        if len(args) != len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} fields, got {len(args)}")
        return tuple.__new__(cls, args)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map('{}={!r}'.format, self._fields, self))})"

    def __getnewargs__(self) -> tuple:
        return tuple(self)


class GraphParseError(ValueError):
    """Malformed graph text (bad header, bad index, duplicate edge...)."""


class SizeLimitError(ValueError):
    """Input exceeds a configured exhaustive-search limit."""


class _Graph:
    """Immutable graph value: equal and hashed by (n, edges); the adjacency
    `_adj` is derived from them on construction."""

    __slots__ = ("n", "edges", "_adj")

    def _set(self, n: int, edges, adj: tuple) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_adj", adj)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n!r}, edges={self.edges!r})"

    def __reduce__(self):
        return type(self), (self.n, self.edges)

    def neighbors(self, v: int):
        """Open neighborhood: a frozenset for a TargetGraph, containing v
        itself iff v is looped; a sorted tuple for a Tree."""
        return self._adj[v]

    def degree(self, v: int) -> int:
        """Number of incident edges; a loop counts once."""
        return len(self._adj[v])

    def vertices(self) -> range:
        return range(self.n)


class TargetGraph(_Graph):
    """A coloring-constraint graph: simple, undirected, loops allowed."""

    __slots__ = ()
    n: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]) -> None:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        edges = frozenset((u, v) if u <= v else (v, u) for u, v in edges)
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u].add(v)
            adj[v].add(u)
        self._set(n, edges, tuple(map(frozenset, adj)))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "TargetGraph":
        return cls(n, edges)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def has_loop(self, v: int) -> bool:
        return (v, v) in self.edges


class Tree(_Graph):
    """A connected acyclic loopless graph; validated eagerly on construction."""

    __slots__ = ()
    n: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n: int, edges: Sequence[tuple[int, int]]) -> None:
        edges = tuple(edges)
        if n < 1:
            raise ValueError("a tree has at least one vertex")
        if len(edges) != n - 1:
            raise ValueError(f"a tree on {n} vertices needs {n - 1} edges, "
                             f"got {len(edges)}")
        # one pass for normalized edges; n - 1 edges that connect every
        # vertex make a tree. Anything else takes the checking pass, which
        # names the first faulty edge.
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not 0 <= u < v < n:
                break
            adj[u].append(v)
            adj[v].append(u)
        else:
            if len(_search(adj)[0]) == n:
                if not all(map(lt, edges, islice(edges, 1, None))):
                    edges = tuple(sorted(edges))
                    adj = list(map(sorted, adj))  # sorted edges give sorted lists
                self._set(n, edges, tuple(map(tuple, adj)))
                return
        adj = _checked_adjacency(n, edges)
        self._set(n, tuple(sorted((u, v) if u <= v else (v, u) for u, v in edges)), adj)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Tree":
        return cls(n, tuple(sorted((u, v) if u <= v else (v, u) for u, v in edges)))


def _search(adj: Sequence[Iterable[int]], root: int = 0,
            skip: int | None = None) -> tuple[list[int], list[int]]:
    """(order, parent) of a breadth-first search from root over the lists adj
    of each vertex's neighbours: the vertices reached, root first, and each
    one's parent (the root's is itself, an unreached vertex's -1). The branch
    through root's neighbour skip, if given, is left out: skip is marked
    visited up front (as its own parent), so it is never entered."""
    parent = [-1] * len(adj)
    parent[root] = root
    if skip is not None:
        parent[skip] = skip
    order = [root]
    for v in order:
        for u in adj[v]:
            if parent[u] < 0:
                parent[u] = v
                order.append(u)
    return order, parent


def _find(parent: list[int], x: int) -> int:
    """x's root in the union-find forest parent, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _checked_adjacency(n: int, edges: tuple[tuple[int, int], ...]) -> tuple[tuple[int, ...], ...]:
    """Sorted adjacency of n - 1 edges in any orientation, checked edge by
    edge in order: the first edge out of range, a loop, or closing a cycle
    (union-find) raises ValueError."""
    parent = list(range(n))
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"loop at {u}: trees are loopless")
        ru, rv = _find(parent, u), _find(parent, v)
        if ru == rv:
            raise ValueError(f"edge ({u},{v}) closes a cycle")
        parent[ru] = rv
        adj[u].append(v)
        adj[v].append(u)
    return tuple(tuple(sorted(a)) for a in adj)


# ---------------------------------------------------------------------------
# parsing / formatting (loopy edge-list text format)

def _read_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    """(n, edges) of the loopy edge-list format, each edge as (min, max), in
    file order.

    First non-comment line is "n m"; then m lines "u v" with 0-based vertex
    indices, where "u u" denotes a loop. Lines starting with '#' are comments.
    """
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines())]
    lines = [(no, ln) for no, ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GraphParseError("empty graph description")
    no, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise GraphParseError(f"line {no}: header must be 'n m', got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphParseError(f"line {no}: header must be two integers, got {header!r}")
    if n < 0 or m < 0:
        raise GraphParseError(f"line {no}: negative count in header {header!r}")
    body = lines[1:]
    if len(body) != m:
        raise GraphParseError(f"header announces {m} edges but {len(body)} edge lines found")
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for no, ln in body:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphParseError(f"line {no}: edge must be 'u v', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"line {no}: edge must be two integers, got {ln!r}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"line {no}: vertex index out of range 0..{n - 1} in {ln!r}")
        e = (u, v) if u <= v else (v, u)
        if e in seen:
            raise GraphParseError(f"line {no}: duplicate edge {ln!r}")
        seen.add(e)
        edges.append(e)
    return n, edges


def parse_graph(text: str, max_n: int | None = None) -> TargetGraph:
    """The TargetGraph of a `_read_edge_list` text. A header past max_n
    vertices raises SizeLimitError before any vertex's neighbour set is made."""
    n, edges = _read_edge_list(text)
    if max_n is not None and n > max_n:
        raise SizeLimitError(f"an edge-list target of {n} vertices is past the limit of {max_n}")
    return TargetGraph(n, edges)


def format_graph(H: TargetGraph) -> str:
    """Inverse of parse_graph (up to edge order)."""
    lines = [f"{H.n} {len(H.edges)}"]
    lines += [f"{u} {v}" for u, v in sorted(H.edges)]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# constructions

def disjoint_union(*graphs: TargetGraph) -> TargetGraph:
    """The graphs side by side, each one's vertices shifted past those before it."""
    starts = list(accumulate((H.n for H in graphs), initial=0))
    return TargetGraph(starts[-1], (
        (u + s, v + s) for H, s in zip(graphs, starts) for u, v in H.edges))


def tensor_product(H1: TargetGraph, H2: TargetGraph) -> TargetGraph:
    """Vertices are pairs; (x1,y1)~(x2,y2) iff x1~x2 and y1~y2."""
    m = H2.n
    return TargetGraph(H1.n * m, (
        (x1 * m + y1, x2 * m + y2)
        for x1 in H1.vertices() for x2 in H1.neighbors(x1)
        for y1 in H2.vertices() for y2 in H2.neighbors(y1)))


def blow_up(H: TargetGraph, sizes: Iterable[int]) -> TargetGraph:
    """Replace vertex v by a cluster of sizes[v] vertices.

    Looped vertices become fully looped cliques, unlooped become empty sets,
    edges become complete bipartite connections.
    """
    sizes = list(sizes)
    if len(sizes) != H.n:
        raise ValueError(f"need one size per vertex: got {len(sizes)} for n={H.n}")
    if any(s < 1 for s in sizes):
        raise ValueError("blow-up sizes must be positive")
    start = list(accumulate(sizes, initial=0))
    return TargetGraph(start[-1], (
        (a, b) for u, v in H.edges
        for a in range(start[u], start[u + 1]) for b in range(start[v], start[v + 1])))


def add_looped_dominating(H: TargetGraph, b: int) -> TargetGraph:
    """Add b new looped vertices, each adjacent to every vertex (old and new)."""
    if b < 0:
        raise ValueError("b must be non-negative")
    n = H.n + b
    return TargetGraph(n, (*H.edges, *((v, w) for w in range(H.n, n) for v in range(w + 1))))


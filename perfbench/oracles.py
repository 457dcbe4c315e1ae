"""Reference answers the benchmark checks the CLI's output against.

Nothing here imports treehom: every target graph is rebuilt from its
definition, tree counts come from Otter's recurrence, and hom counts and
partition functions come from a separate exact tree DP. A fault in the
package's counting code therefore cannot also hide in its check.
"""

from __future__ import annotations

import heapq
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm

# Adjacency is a list of neighbour lists; a loop at x puts x in its own list.
Adjacency = list[list[int]]


def adjacency(n: int, edges) -> Adjacency:
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return [sorted(s) for s in nbrs]


def capacity(c: int) -> Adjacency:
    """Vertices 0..c, a ~ b iff a + b <= c (so a loop iff 2a <= c)."""
    return adjacency(c + 1, [(a, b) for a in range(c + 1) for b in range(a, c + 1) if a + b <= c])


def widom_rowlinson(k: int) -> Adjacency:
    """Fully looped star: centre 0 and k looped leaves."""
    return adjacency(k + 1, [(v, v) for v in range(k + 1)] + [(0, v) for v in range(1, k + 1)])


def folkman_plus_dominating() -> Adjacency:
    """Subdivide every edge of K5, duplicate the five branch vertices (each
    copy joined to the same subdivision vertices), add a looped vertex joined
    to all 21."""
    edges = []
    for s, (i, j) in enumerate(combinations(range(5), 2)):
        for copy in range(2):
            edges += [(2 * i + copy, 10 + s), (2 * j + copy, 10 + s)]
    edges += [(v, 20) for v in range(21)]
    return adjacency(21, edges)


#: The 28 loopy graphs on at most three vertices, numbered as the CLI's h1..h28,
#: with the minimizer class of the paper's table (tests/test_acceptance.py).
SMALL_TARGETS: dict[int, tuple[int, tuple[tuple[int, int], ...], str]] = {
    1: (1, (), "zero-count"),
    2: (1, ((0, 0),), "all-trees"),
    3: (2, (), "zero-count"),
    4: (2, ((1, 1),), "all-trees"),
    5: (2, ((0, 0), (1, 1)), "all-trees"),
    6: (2, ((0, 1),), "all-trees"),
    7: (2, ((0, 0), (0, 1)), "paths"),
    8: (2, ((0, 0), (0, 1), (1, 1)), "all-trees"),
    9: (3, (), "zero-count"),
    10: (3, ((1, 1),), "all-trees"),
    11: (3, ((0, 0), (2, 2)), "all-trees"),
    12: (3, ((0, 0), (1, 1), (2, 2)), "all-trees"),
    13: (3, ((0, 1),), "all-trees"),
    14: (3, ((0, 1), (2, 2)), "all-trees"),
    15: (3, ((0, 0), (0, 1)), "paths"),
    16: (3, ((0, 0), (0, 1), (2, 2)), "paths"),
    17: (3, ((0, 0), (0, 1), (1, 1)), "all-trees"),
    18: (3, ((0, 0), (0, 1), (1, 1), (2, 2)), "all-trees"),
    19: (3, ((0, 1), (1, 2)), "balanced-bipartition-trees"),
    20: (3, ((0, 0), (0, 1), (1, 2)), "paths"),
    21: (3, ((0, 1), (1, 1), (1, 2)), "paths"),
    22: (3, ((0, 1), (1, 1), (1, 2), (2, 2)), "paths"),
    23: (3, ((0, 0), (0, 1), (1, 2), (2, 2)), "all-trees"),
    24: (3, ((0, 0), (0, 1), (1, 1), (1, 2), (2, 2)), "paths"),
    25: (3, ((0, 1), (0, 2), (1, 2)), "all-trees"),
    26: (3, ((0, 0), (0, 1), (0, 2), (1, 2)), "paths"),
    27: (3, ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2)), "paths"),
    28: (3, ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)), "all-trees"),
}


def small_target(hid: int) -> Adjacency:
    n, edges, _ = SMALL_TARGETS[hid]
    return adjacency(n, edges)


# ---------------------------------------------------------------------------
# counts

@lru_cache(maxsize=None)
def otter_tree_count(n: int) -> int:
    """Unlabelled free trees on n vertices by Otter's formula
    t(n) = r(n) - (sum_k r(k) r(n-k) - [n even] r(n/2)) / 2, with the rooted
    counts r from the divisor-sum recurrence."""
    r = [0, 1]
    for m in range(1, n):
        total = sum(sum(d * r[d] for d in range(1, k + 1) if k % d == 0) * r[m - k + 1]
                    for k in range(1, m + 1))
        r.append(total // m)
    pairs = sum(r[k] * r[n - k] for k in range(1, n))
    if n % 2 == 0:
        pairs -= r[n // 2]
    return r[n] - pairs // 2


def sweep_tree_total(n_max: int) -> int:
    """Trees a sweep over orders 2..n_max evaluates."""
    return sum(otter_tree_count(n) for n in range(2, n_max + 1))


def path_hom(adj: Adjacency, n: int) -> int:
    """hom(P_n, H) = 1^T A^(n-1) 1, by n-1 integer matrix-vector products."""
    v = [1] * len(adj)
    for _ in range(n - 1):
        v = [sum(v[y] for y in nbrs) for nbrs in adj]
    return sum(v)


def tree_weighted_hom(n: int, edges, adj: Adjacency, weights=None) -> int:
    """Sum over H-colourings f of the tree of prod weights[f(v)]; every
    weight is 1 when weights is None. Children are folded into their parent
    in reverse breadth-first order."""
    tree_nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        tree_nbrs[u].append(v)
        tree_nbrs[v].append(u)
    init = list(weights) if weights is not None else [1] * len(adj)
    order, parent = [0], [-1] * n
    seen = [False] * n
    seen[0] = True
    for v in order:
        for u in tree_nbrs[v]:
            if not seen[u]:
                seen[u] = True
                parent[u] = v
                order.append(u)
    table: list[list[int] | None] = [None] * n
    for v in reversed(order):
        vec = table[v] if table[v] is not None else init[:]
        p = parent[v]
        if p >= 0:
            msg = [sum(vec[y] for y in nbrs) for nbrs in adj]
            base = table[p] if table[p] is not None else init[:]
            table[p] = [a * b for a, b in zip(base, msg)]
            table[v] = None
        else:
            table[v] = vec
    return sum(table[0])


def partition_function(n: int, edges, adj: Adjacency, activities: list[Fraction]) -> Fraction:
    """Activity-weighted colouring sum, from an integer DP on the activities
    scaled by the lcm of their denominators."""
    scale = lcm(*(a.denominator for a in activities))
    weights = [int(a * scale) for a in activities]
    return Fraction(tree_weighted_hom(n, edges, adj, weights), scale ** n)


def kc_sites(n: int, edges) -> int:
    """Legal KC move sites: unordered pairs of non-leaves whose connecting
    path has only degree-2 internal vertices."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    sites = 0
    for u in range(n):
        if len(nbrs[u]) < 2:
            continue
        for first in nbrs[u]:
            prev, w = u, first
            while len(nbrs[w]) >= 2:
                if w > u:
                    sites += 1
                if len(nbrs[w]) != 2:
                    break
                prev, w = w, next(x for x in nbrs[w] if x != prev)
    return sites


# ---------------------------------------------------------------------------
# seeded inputs

def random_tree(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Edges of the labelled tree on 0..n-1 with a uniformly random Prufer
    sequence (n >= 2)."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def random_activities(k: int, rng: random.Random) -> list[Fraction]:
    """k activities j + 1/q with q = 1, 2, 3, 1, 2, 3, ... by vertex and a
    seeded whole part j in {2, 3}, so 2 < a <= 4.

    The denominators are fixed so that the cost of the exact Fraction walk,
    which the lcm of the denominators drives, does not change with the seed.
    """
    return [rng.randint(2, 3) + Fraction(1, 1 + x % 3) for x in range(k)]

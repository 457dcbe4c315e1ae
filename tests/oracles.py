"""Independent oracles used to cross-check the package's fast routes.

Two tree-counting oracles that share no code with treehom.trees.all_trees:

* prufer_tree_count: decode every Prufer sequence on n labels and dedup the
  resulting labeled trees up to isomorphism. Exhaustive ground truth, but
  n^(n-2) sequences limit it to small n.
* otter_tree_count: the classic counting recurrence (rooted-tree convolution
  followed by the rooted-to-free correction). Pure integer arithmetic, fast
  for any desk-scale n.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from treehom import Tree, canonical_code

PRUFER_LIMIT = 8  # n^(n-2) sequences; 8^6 ~ 262k is the comfortable cap


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
    """Isomorphism classes among all n^(n-2) labeled trees."""
    if n <= 2:
        return 1
    if n > PRUFER_LIMIT:
        raise ValueError(f"prufer oracle capped at n={PRUFER_LIMIT}")
    codes = set()
    for seq in product(range(n), repeat=n - 2):
        t = Tree.from_edges(n, prufer_decode(seq, n))
        codes.add(canonical_code(t))
    return len(codes)


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

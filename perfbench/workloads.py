"""The four workloads: fixed lists of treehom CLI commands, and the check each
command's output must pass.

Only `single` depends on the seed, which draws its tree shapes (random Prufer
sequences) and its activities; its tree sizes are a fixed ladder. The other
three workloads are fixed instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import oracles

INT_STR_LIMIT = "Exceeds the limit (4300 digits) for integer string conversion"

# A check gets the command's stdout and returns None when the output is
# right, else a description of what is wrong.
Check = Callable[[str], Optional[str]]


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Check
    trees: int            # trees the command evaluates: t(n) per swept order, 1 per one-tree command
    tree_hom_calls: int   # calls to homcount.tree_hom it implies: one per tree a sweep or `hom` walks
    known_defect: str = ""  # why the package as first benchmarked fails it, if it does

    @property
    def label(self) -> str:
        """The command line with tree files shown by file name only."""
        args = list(self.argv)
        for i in range(len(args) - 1):
            if args[i] == "--tree":
                args[i + 1] = Path(args[i + 1]).name
        return " ".join(args)


def _rows(out: str) -> list[list[str]]:
    return [line.split("\t") for line in out.splitlines() if line]


def _first_mismatch(pairs) -> Optional[str]:
    for what, got, want in pairs:
        if got != want:
            return f"{what}: got {got!r}, expected {want!r}"
    return None


# ---------------------------------------------------------------------------
# checks

def check_hl_rows(adj: oracles.Adjacency, n_max: int) -> Check:
    """Each order's minimum is the path count 1^T A^(n-1) 1, the path is the
    unique minimizer at every order, and the strong verdict is 1."""
    def check(out: str) -> Optional[str]:
        rows = _rows(out)
        n_rows = [r for r in rows if r[0] == "n"]
        verdict = [r for r in rows if r[0] == "verdict"]
        pairs = [("orders", [r[1] for r in n_rows], [str(n) for n in range(2, n_max + 1)]),
                 ("verdict", verdict, [["verdict", "1"]])]
        for r in n_rows:
            n = int(r[1])
            pairs.append((f"n={n} row", r[2:], [str(oracles.path_hom(adj, n)), "1", "1"]))
        return _first_mismatch(pairs)
    return check


def check_classify(n_max: int) -> Check:
    """Every target's summary is the paper's table entry, and at every order
    the minimum equals the path count (each table class contains the path)."""
    def check(out: str) -> Optional[str]:
        rows = {int(r[1]): r for r in _rows(out) if r[0] == "target"}
        pairs = [("targets", sorted(rows), list(oracles.SMALL_TARGETS))]
        for hid, (_, _, label) in oracles.SMALL_TARGETS.items():
            if hid not in rows:
                continue
            adj = oracles.small_target(hid)
            want = ";".join(f"{n}:{oracles.path_hom(adj, n)}" for n in range(2, n_max + 1))
            pairs += [(f"h{hid} summary", rows[hid][2], label),
                      (f"h{hid} minima", rows[hid][3], want)]
        return _first_mismatch(pairs)
    return check


def check_matrix_folkman(out: str) -> Optional[str]:
    rows = {r[0]: r[1:] for r in _rows(out)}
    return _first_mismatch([("sizes", rows.get("sizes"), ["10,10,1"]),
                            ("verdict", rows.get("verdict"), ["no-increasing-ordering"])])


def check_one_orbit(k: int) -> Check:
    def check(out: str) -> Optional[str]:
        want = [["class", "0", str(k), ",".join(map(str, range(k)))]]
        return _first_mismatch([("classes", _rows(out), want)])
    return check


def check_value(kind: str, n: int, k: int, exact: Callable[[], Fraction]) -> Check:
    """One `kind<TAB>n<TAB>k<TAB>value` row whose value equals exact(), which
    is computed on first use so that it runs after timing."""
    exact = cache(exact)

    def check(out: str) -> Optional[str]:
        rows = _rows(out)
        if len(rows) != 1 or len(rows[0]) != 4 or rows[0][:3] != [kind, str(n), str(k)]:
            return f"malformed output {out[:80]!r}"
        try:
            got = Fraction(rows[0][3])
        except ValueError:
            return f"unparseable value {rows[0][3][:40]!r}"
        return None if got == exact() else f"{kind} value differs from the exact DP"
    return check


def check_kc(sites: int) -> Check:
    """One row per legal move site, each with lhs == rhs and flag 1."""
    def check(out: str) -> Optional[str]:
        rows = _rows(out)
        bad = [r for r in rows if len(r) != 6 or r[0] != "kc" or r[3] != r[4] or r[5] != "1"]
        return _first_mismatch([("rows", len(rows), sites),
                                ("rows failing lhs == rhs", bad[:1], [])])
    return check


# ---------------------------------------------------------------------------
# workloads

SWEEP_N = 16
CLASSIFY_N = 14
FOLKMAN_N = 13

# (command, target, tree size). Sizes are fixed; the seed draws only shapes
# and activities. Bounds that make every verdict seed-independent, for any
# tree T on n vertices (bipartition classes X, |Y| >= n/2):
#  * hom(T, folkman+dom) >= 21^(n/2): colour X with the looped dominating
#    vertex and Y freely. At n = 8000 that is > 5200 digits, past Python's
#    4300-digit int-to-str limit, so the command must fail (known defect).
#  * partition(T, wr:3) with activities >= 2 is >= 2^n * 4^(n/2) = 4^n, so
#    its numerator has > 4800 digits at n = 8000: the same known defect.
#  * Every other case has fewer than 2600 digits: hom(T, H) <= |H| * D^(n-1)
#    (D = max degree <= 21), and partition numerators are below
#    (4 * 4 * 6)^n at n <= 1200 (4-vertex targets) and (84 * 6)^n at n = 400.
SINGLE_LADDER = (
    ("hom", "capacity:3", 400), ("hom", "capacity:3", 1200), ("hom", "capacity:3", 3000),
    ("hom", "wr:3", 400), ("hom", "wr:3", 1200), ("hom", "wr:3", 3000),
    ("hom", "folkman+dom", 400), ("hom", "folkman+dom", 1500), ("hom", "folkman+dom", 8000),
    ("partition", "capacity:3", 400), ("partition", "capacity:3", 1200),
    ("partition", "wr:3", 400), ("partition", "wr:3", 1200), ("partition", "wr:3", 8000),
    ("partition", "folkman+dom", 400),
    ("kc", "capacity:3", 40), ("kc", "capacity:3", 80), ("kc", "hind", 60), ("kc", "hind", 120),
)

SINGLE_TARGETS = {
    "capacity:3": oracles.capacity(3),
    "wr:3": oracles.widom_rowlinson(3),
    "folkman+dom": oracles.folkman_plus_dominating(),
    "hind": oracles.small_target(7),
}


def sweep(_seed: int, _inputs: Path) -> list[Command]:
    n = SWEEP_N
    total = oracles.sweep_tree_total(n)
    return [Command(("check-hl", "--target", "capacity:3", "--n-max", str(n), "--strong", "--rows"),
                    check_hl_rows(oracles.capacity(3), n), total, total)]


def classify(_seed: int, _inputs: Path) -> list[Command]:
    n = CLASSIFY_N
    total = len(oracles.SMALL_TARGETS) * oracles.sweep_tree_total(n)
    return [Command(("classify", "--n-max", str(n), "--rows"), check_classify(n), total, total)]


def symmetric(_seed: int, _inputs: Path) -> list[Command]:
    folkman_total = oracles.sweep_tree_total(FOLKMAN_N)
    return [
        Command(("matrix", "--target", "folkman+dom", "--rows"), check_matrix_folkman, 0, 0),
        Command(("orbits", "--target", "clique:8", "--rows"), check_one_orbit(8), 0, 0),
        Command(("check-hl", "--target", "folkman+dom", "--n-max", str(FOLKMAN_N), "--strong", "--rows"),
                check_hl_rows(oracles.folkman_plus_dominating(), FOLKMAN_N),
                folkman_total, folkman_total),
        Command(("orbits", "--target", "clique:10", "--rows"), check_one_orbit(10), 0, 0,
                known_defect="automorphism search enumerates all 10! automorphisms"),
    ]


def single(seed: int, inputs: Path) -> list[Command]:
    rng = random.Random(seed)
    inputs.mkdir(parents=True, exist_ok=True)
    commands = []
    for i, (kind, target, n) in enumerate(SINGLE_LADDER):
        edges = oracles.random_tree(n, rng)
        tree_file = inputs / f"tree-{i:02d}-{n}.txt"
        tree_file.write_text(f"{n} {n - 1}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        adj = SINGLE_TARGETS[target]
        argv = (kind, "--tree", str(tree_file), "--target", target, "--rows")
        # hom and partition at n >= 8000 exceed the limit at every seed (see above)
        defect = "result past the 4300-digit int-to-str limit" if n >= 8000 else ""
        if kind == "hom":
            check = check_value("hom", n, len(adj),
                                lambda n=n, e=edges, a=adj: oracles.tree_weighted_hom(n, e, a))
            calls = 1
        elif kind == "partition":
            lam = oracles.random_activities(len(adj), rng)
            argv += ("--activities", ",".join(map(str, lam)))
            check = check_value("partition", n, len(adj),
                                lambda n=n, e=edges, a=adj, l=lam: oracles.partition_function(n, e, a, l))
            calls = 0
        else:
            check = check_kc(oracles.kc_sites(n, edges))
            calls = 0
        commands.append(Command(argv, check, 1, calls, defect))
    return commands


WORKLOADS: dict[str, Callable[[int, Path], list[Command]]] = {
    "sweep": sweep,
    "classify": classify,
    "symmetric": symmetric,
    "single": single,
}

# `treehom family h7`: starts the CLI, parses a shorthand and prints a
# 2-vertex graph, so its wall time is process start-up.
SETUP_COMMAND = Command(("family", "h7"),
                        lambda out: _first_mismatch([("graph", out.split(), "2 2 0 0 0 1".split())]),
                        0, 0)

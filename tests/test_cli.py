import gc
import hashlib
import io
import os
import random
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import cache
from itertools import chain, product

import pytest
from hypothesis import given, settings, strategies as st

from oracles import dense_regular_21, path_partition_function, spider_counts
import treehom
from treehom import automorphy, cli, extremal, homcount, trees
from treehom import (
    Tree, canonical_code, format_graph, is_loop_threshold, kc_sites, parse_graph,
    path,
    make_capacity_graph, make_widom_rowlinson, tree_count,
)
from treehom.cli import (
    EDGE_LIST_VERTEX_LIMIT, SHORTHAND_EDGE_LIMIT, _parse_fast, build_parser, main,
    parse_target_spec, parse_tree_spec,
)
from treehom.homcount import KC_WORK_LIMIT


#: SHA-256 of `classify --n-max 16 --rows` stdout.
CLASSIFY_16_ROWS_SHA256 = "39e7618befe0c543c355eb48f5712fec73d20e7be399c4768dbf71096890995e"
#: SHA-256 of the stdout of commands that print canonical codes.
CODE_ROWS_SHA256 = {
    "trees -n 12 --rows": "610d98c1f2e63af31069b22dfcb56991b979d7856c6aac8ba0ba16779adae34d",
    "minimize --target h19 -n 12 --rows":
        "b82e2eae7479251cd4e85f8e16651a241a463bf4582de265f819959933052ba7",
}


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


class TestSpecs:
    def test_shorthand_matches_constructors(self):
        assert parse_target_spec("capacity:3") == make_capacity_graph(3)
        assert parse_target_spec("wr:2") == make_widom_rowlinson(2)
        assert parse_target_spec("hind") == parse_target_spec("h7")

    def test_inline_with_escaped_newlines(self):
        h = parse_target_spec("inline:2 2\\n0 0\\n0 1")
        assert h == parse_target_spec("h7")

    def test_tree_shorthand(self):
        assert parse_tree_spec("path:5").n == 5
        assert parse_tree_spec("star:4").degree(0) == 3

    def test_tree_from_any_target_spec(self, tmp_path):
        assert parse_tree_spec("clique:2") == path(2)
        f = tmp_path / "t.txt"
        f.write_text("3 2\n0 1\n1 2\n")
        assert parse_tree_spec(str(f)) == path(3)
        with pytest.raises(ValueError):
            parse_tree_spec("lpath:3")

    def test_file_input(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("2 1\n0 1\n")
        assert parse_target_spec(str(f)).n == 2


class TestSubcommands:
    def test_hom_example(self, capsys):
        status, out, _ = run(capsys, "hom", "--tree", "path:5",
                             "--target", "inline:2 2\\n0 0\\n0 1")
        assert status == 0 and out.strip() == "13"

    def test_hom_brute_agrees(self, capsys):
        _, walk, _ = run(capsys, "hom", "--tree", "path:6", "--target", "h22")
        _, brute, _ = run(capsys, "hom", "--tree", "path:6", "--target", "h22",
                          "--brute")
        assert walk == brute

    def test_partition(self, capsys):
        status, out, _ = run(capsys, "partition", "--tree", "path:2",
                             "--target", "hind", "--activities", "3/2,1")
        # valid colorings of the edge: (0,0) loop, (0,1), (1,0)
        # weights (3/2)^2 + 3/2 + 3/2 = 21/4
        assert status == 0 and out.strip() == "21/4"

    def test_orbits_rows(self, capsys):
        status, out, _ = run(capsys, "orbits", "--target", "wr:3", "--rows")
        assert status == 0
        assert out.splitlines() == ["class\t0\t1\t0", "class\t1\t3\t1,2,3"]

    def test_matrix_verdicts(self, capsys):
        status, out, _ = run(capsys, "matrix", "--target", "folkman+dom")
        assert status == 0 and "no increasing ordering" in out
        status, out, _ = run(capsys, "matrix", "--target", "hind")
        assert status == 0 and "increasing ordering found" in out

    def test_check_hl_certifies_on_the_orbits(self, capsys):
        # no ordering of folkman+dom's three orbits passes, though its
        # coarsest equitable quotient's matrix does: the certificate reads
        # the orbits, and the verdict the sweep alone
        assert run(capsys, "check-hl", "--target", "folkman+dom", "--n-max", "8",
                   "--strong", "--rows") == (0, (
                       "n\t2\t121\t1\t1\n"
                       "n\t3\t941\t1\t1\n"
                       "n\t4\t6641\t1\t1\n"
                       "n\t5\t48261\t1\t1\n"
                       "n\t6\t347561\t1\t1\n"
                       "n\t7\t2509981\t1\t1\n"
                       "n\t8\t18110881\t1\t1\n"
                       "matrix-certificate\t0\n"
                       "strong-certificate\t0\n"
                       "verdict\t1\n"), "")

    def test_trees_count(self, capsys):
        status, out, _ = run(capsys, "trees", "-n", "9", "--count")
        assert status == 0 and out.strip() == "47"

    def test_trees_count_codes_no_tree(self, capsys, monkeypatch):
        def refuse(adj):
            raise AssertionError("trees --count coded a tree")

        monkeypatch.setattr(trees, "_code", refuse)
        status, out, _ = run(capsys, "trees", "-n", "12", "--count")
        assert status == 0 and out.strip() == "551"  # Otter's count at n = 12

    def test_trees_rows_edges_spell_the_code(self, capsys):
        # the edge column is the code's own tree (preorder from the center the
        # code is rooted at), so it parses back to the printed code
        for n in range(1, 10):
            status, out, _ = run(capsys, "trees", "-n", str(n), "--rows")
            assert status == 0
            codes = []
            for line in out.splitlines():
                kind, order, code, edges = line.split("\t")
                assert (kind, order) == ("tree", str(n))
                pairs = [tuple(map(int, e.split("-"))) for e in edges.split(",") if e]
                assert canonical_code(Tree.from_edges(n, pairs)) == code
                codes.append(code)
            assert codes == sorted(set(codes))
            assert len(codes) == tree_count(n)

    def test_minimize(self, capsys):
        status, out, _ = run(capsys, "minimize", "--target", "hind", "-n", "5",
                             "--rows")
        assert status == 0
        fields = out.strip().split("\t")
        assert fields[:3] == ["minimize", "5", "13"]

    def test_check_hl_exit_codes(self, capsys):
        assert run(capsys, "check-hl", "--target", "hind", "--n-max", "6",
                   "--strong")[0] == 0
        # unlooped K_2: all trees tie, so never strongly path-minimal
        assert run(capsys, "check-hl", "--target", "h6", "--n-max", "6",
                   "--strong")[0] == 1

    def test_classify_row_count(self, capsys):
        status, out, _ = run(capsys, "classify", "--n-max", "4", "--rows")
        assert status == 0 and len(out.splitlines()) == 28

    def test_classify_rows_are_pinned(self, capsys):
        # the table at the enumeration limit, byte for byte
        status, out, _ = run(capsys, "classify", "--n-max", "16", "--rows")
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == CLASSIFY_16_ROWS_SHA256

    @pytest.mark.parametrize("command", sorted(CODE_ROWS_SHA256))
    def test_printed_codes_byte_for_byte(self, capsys, command):
        status, out, _ = run(capsys, *command.split())
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == CODE_ROWS_SHA256[command]

    def test_family_round_trip(self, capsys):
        for spec, builder in [("capacity", make_capacity_graph),
                              ("wr", make_widom_rowlinson)]:
            status, out, _ = run(capsys, "family", spec, "3")
            assert status == 0
            assert parse_graph(out) == builder(3)

    def test_sidorenko(self, capsys):
        assert run(capsys, "sidorenko", "--target", "h24", "--n-max", "6")[0] == 0

    def test_kc(self, capsys):
        status, out, _ = run(capsys, "kc", "--tree", "path:6", "--target", "hind",
                             "--rows")
        assert status == 0
        for line in out.splitlines():
            fields = line.split("\t")
            assert fields[0] == "kc" and fields[3] == fields[4] and fields[5] == "1"

    @pytest.mark.parametrize("tree, reason", [
        ("path:1", "tree has one vertex"), ("path:2", "tree is a star"), ("star:6", "tree is a star")])
    def test_kc_without_sites_says_why(self, capsys, tree, reason):
        # path:1 has no site, but it is not a star: star(1) is refused
        assert run(capsys, "kc", "--tree", tree, "--target", "hind") == (
            0, f"no legal KC move site ({reason})\n", "")
        assert run(capsys, "kc", "--tree", tree, "--target", "hind", "--rows") == (0, "", "")

    def test_kc_counts_the_tree_once(self, capsys, monkeypatch):
        # hom(T, H) is shared by every site; hom(T_KC, H) is counted per site,
        # each a walk of a whole tree's adjacency lists (no skip)
        counted = []
        walk = homcount._walk

        def counting_walk(adj, root, rows, weights, skip=None):
            if skip is None:
                counted.append(adj)
            return walk(adj, root, rows, weights, skip)

        monkeypatch.setattr(homcount, "_walk", counting_walk)
        status, out, _ = run(capsys, "kc", "--tree", "path:7", "--target", "hind", "--rows")
        sites = kc_sites(path(7))
        assert status == 0 and len(out.splitlines()) == len(sites) > 1
        assert counted[0] == path(7)._adj and len(counted) == len(sites) + 1

    def test_kc_walks_each_side_once(self, capsys, monkeypatch):
        # sites share sides (end, first path vertex) and path lengths
        sides, lengths = [], []
        walk, table = homcount._walk, homcount.path_pair_counts

        def counting_walk(T, root, rows, weights, skip=None):
            if skip is not None:
                sides.append((root, skip))
            return walk(T, root, rows, weights, skip)

        def counting_table(t, Q):
            lengths.append(t)
            return table(t, Q)

        monkeypatch.setattr(homcount, "_walk", counting_walk)
        monkeypatch.setattr(homcount, "path_pair_counts", counting_table)
        status, out, _ = run(capsys, "kc", "--tree", "path:9", "--target", "capacity:3", "--rows")
        paths = [trees.bare_path(path(9), vl, vr) for vl, vr in kc_sites(path(9))]
        assert status == 0 and len(out.splitlines()) == len(paths) == 21
        assert sorted(sides) == sorted({(p[0], p[1]) for p in paths} | {(p[-1], p[-2]) for p in paths})
        assert sorted(lengths) == sorted({len(p) for p in paths})

    def test_kc_past_the_orbit_search_size_limit(self, capsys):
        # lpath:22 is past the orbit search's 21 vertices; kc counts on the
        # equitable quotient, so no KC site is skipped
        status, out, _ = run(capsys, "kc", "--tree", "path:6", "--target", "lpath:22", "--rows")
        rows = [line.split("\t") for line in out.splitlines()]
        assert status == 0 and len(rows) == len(kc_sites(path(6)))
        assert all(f[0] == "kc" and f[3] == f[4] and f[5] == "1" for f in rows)

    @pytest.mark.parametrize("target", ["hind", "capacity:3", "folkman+dom", "lpath:22"])
    def test_kc_runs_no_orbit_search(self, capsys, monkeypatch, target):
        def refuse(*args):
            raise AssertionError("kc ran an automorphism search")

        monkeypatch.setattr(automorphy, "_maps", refuse)
        automorphy.orbit_partition.cache_clear()
        status, out, _ = run(capsys, "kc", "--tree", "path:7", "--target", target, "--rows")
        calls = automorphy.orbit_partition.cache_info()
        automorphy.orbit_partition.cache_clear()
        assert calls.hits == calls.misses == 0
        assert status == 0 and len(out.splitlines()) == len(kc_sites(path(7)))

    def test_kc_derives_each_path_once(self, capsys, monkeypatch, tmp_path):
        # kc reads each site's path off the one walk that lists the sites,
        # so it validates no path of its own
        rng = random.Random(1)
        edges = [(rng.randrange(v), v) for v in range(1, 60)]
        f = tmp_path / "tree.txt"
        f.write_text("60 59\n" + "".join(f"{u} {v}\n" for u, v in edges))
        calls = []
        real = trees.bare_path

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(trees, "bare_path", counted)
        monkeypatch.setattr(homcount, "bare_path", counted)
        status, out, _ = run(capsys, "kc", "--tree", str(f), "--target", "hind", "--rows")
        sites = kc_sites(Tree.from_edges(60, edges))
        assert status == 0 and len(out.splitlines()) == len(sites) > 1
        assert calls == []

    @pytest.mark.parametrize("c", range(9, 21))
    def test_capacity_certified_past_nine_classes(self, capsys, c):
        # capacity:c has c + 1 classes and is loop-threshold, so Hoffman-London
        status, out, _ = run(capsys, "check-hl", "--target", f"capacity:{c}", "--n-max", "8",
                             "--strong", "--rows")
        assert status == 0 and "matrix-certificate\t1" in out.splitlines()
        assert is_loop_threshold(make_capacity_graph(c)) is not None

    def test_matrix_past_node_limit_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr(automorphy, "ORDERING_WORK_LIMIT", 5)
        status, out, err = run(capsys, "matrix", "--target", "capacity:20", "--rows")
        assert status == 2 and out == "" and "limited to 5 steps" in err


CLASSIFY_4_PLAIN = """\
target  class                         min counts (n=2..4)
     1  zero-count                    0, 0, 0
     2  all-trees                     1, 1, 1
     3  zero-count                    0, 0, 0
     4  all-trees                     1, 1, 1
     5  all-trees                     2, 2, 2
     6  all-trees                     2, 2, 2
     7  paths                         3, 5, 8
     8  all-trees                     4, 8, 16
     9  zero-count                    0, 0, 0
    10  all-trees                     1, 1, 1
    11  all-trees                     2, 2, 2
    12  all-trees                     3, 3, 3
    13  all-trees                     2, 2, 2
    14  all-trees                     3, 3, 3
    15  paths                         3, 5, 8
    16  paths                         4, 6, 9
    17  all-trees                     4, 8, 16
    18  all-trees                     5, 9, 17
    19  paths                         4, 6, 8
    20  paths                         5, 9, 16
    21  paths                         5, 11, 21
    22  paths                         6, 14, 31
    23  all-trees                     6, 12, 24
    24  paths                         7, 17, 41
    25  all-trees                     6, 12, 24
    26  paths                         7, 17, 41
    27  paths                         8, 22, 60
    28  all-trees                     9, 27, 81
"""


# each small target's least count at n = 2 and n = 3, where one tree exists
# at each order; below n = 4 every summary is read from these orders alone
CLASSIFY_MIN_COUNTS_2_3 = {
    1: (0, 0), 2: (1, 1), 3: (0, 0), 4: (1, 1), 5: (2, 2), 6: (2, 2), 7: (3, 5), 8: (4, 8),
    9: (0, 0), 10: (1, 1), 11: (2, 2), 12: (3, 3), 13: (2, 2), 14: (3, 3), 15: (3, 5),
    16: (4, 6), 17: (4, 8), 18: (5, 9), 19: (4, 6), 20: (5, 9), 21: (5, 11), 22: (6, 14),
    23: (6, 12), 24: (7, 17), 25: (6, 12), 26: (7, 17), 27: (8, 22), 28: (9, 27),
}


def _classify_below_4(n_max, rows):
    """classify's output at n_max = 2 or 3: zero-count where the least
    count is 0, all-trees everywhere else."""
    lines = [] if rows else [f"target  class                         min counts (n=2..{n_max})"]
    for hid, mins in CLASSIFY_MIN_COUNTS_2_3.items():
        mins = mins[:n_max - 1]
        label = "zero-count" if mins[0] == 0 else "all-trees"
        if rows:
            lines.append(f"target\t{hid}\t{label}\t"
                         + ";".join(f"{n}:{c}" for n, c in enumerate(mins, 2)) + "\t"
                         + ";".join(f"{n}:{label}" for n in range(2, n_max + 1)))
        else:
            lines.append(f"{hid:>6}  {label:<28}  " + ", ".join(map(str, mins)))
    return "\n".join(lines) + "\n"


class TestPinnedOutput:
    """Stdout and exit status of the output forms no other test reads."""

    @pytest.mark.parametrize("argv, want", [
        (("orbits", "--target", "h19"),
         "2 similarity classes\n"
         "  class 0: size 2, vertices [0, 2]\n"
         "  class 1: size 1, vertices [1]\n"),
        (("matrix", "--target", "h19", "--rows"),
         "sizes\t2,1\nrow\t0,1\nrow\t2,0\nverdict\tno-increasing-ordering\n"),
        (("trees", "-n", "4"),
         "((())())  edges [(0, 1), (0, 3), (1, 2)]\n"
         "(()()())  edges [(0, 1), (0, 2), (0, 3)]\n"),
        (("minimize", "--target", "capacity:3", "-n", "6"),
         "n=6: min 707, max 1300\n"
         "path minimal: True (unique: True); star maximal: True\n"
         "1 minimizing tree class(es):\n"
         "  (((()))(()))\n"),
        # the path is among target 19's minimizers, but no ordering passes
        (("check-hl", "--target", "h19", "--n-max", "5"),
         "n=2: path minimal: True (unique), min 4\n"
         "n=3: path minimal: True (unique), min 6\n"
         "n=4: path minimal: True (unique), min 8\n"
         "n=5: path minimal: True, min 12\n"
         "increasing-columns certificate: none\n"
         "verdict: path-minimal up to n=5: True\n"),
        (("classify", "--n-max", "4"), CLASSIFY_4_PLAIN),
        (("kc", "--tree", "path:5", "--target", "hind"),
         "move (1,2): difference 1, decomposition 1\n"
         "move (1,3): difference 1, decomposition 1\n"
         "move (2,3): difference 1, decomposition 1\n"),
        (("matrix", "--target", "capacity:3", "--rows"),
         "sizes\t1,1,1,1\nrow\t1,1,1,1\nrow\t1,1,1,0\nrow\t1,1,0,0\nrow\t1,0,0,0\n"
         "verdict\tincreasing\t3,2,1,0\n"
         "ordered-row\t0,0,0,1\nordered-row\t0,0,1,1\nordered-row\t0,1,1,1\n"
         "ordered-row\t1,1,1,1\n"),
        (("sidorenko", "--target", "h7", "--n-max", "5", "--rows"), "sidorenko\tok\t5\n"),
    ])
    def test_plain_output(self, capsys, argv, want):
        assert run(capsys, *argv) == (0, want, "")

    @pytest.mark.parametrize("n_max", [2, 3])
    @pytest.mark.parametrize("rows", [False, True])
    def test_classify_below_order_4(self, capsys, n_max, rows):
        argv = ("classify", "--n-max", str(n_max)) + ("--rows",) * rows
        assert run(capsys, *argv) == (0, _classify_below_4(n_max, rows), "")

    @pytest.mark.parametrize("rows, want", [
        (False, "violation at n=2: tree (()) has 11 > star's 10\n"),
        (True, "sidorenko\tviolated\t2\t(())\t11\t10\n"),
    ])
    def test_sidorenko_violation(self, capsys, monkeypatch, rows, want):
        # a fold that keeps its first tree one above every bound
        def fold(H, n_max):
            return (automorphy._equitable_quotient(H),
                    lambda n, bound, above=False: [(0, bound + 1)] if above else [])

        monkeypatch.setattr(extremal, "_bounded_fold", fold)
        argv = ("sidorenko", "--target", "capacity:3", "--n-max", "5") + ("--rows",) * rows
        assert run(capsys, *argv) == (1, want, "")

    def test_kc_mismatch(self, capsys, monkeypatch):
        # path counts doubled, so every site's decomposition is twice its difference
        table = homcount.path_pair_counts
        monkeypatch.setattr(homcount, "path_pair_counts",
                            lambda t, Q: {k: 2 * v for k, v in table(t, Q).items()})
        assert run(capsys, "kc", "--tree", "path:5", "--target", "hind") == (1, (
            "move (1,2): difference 1, decomposition 2  MISMATCH\n"
            "move (1,3): difference 1, decomposition 2  MISMATCH\n"
            "move (2,3): difference 1, decomposition 2  MISMATCH\n"), "")


class TestOrbitSearchOnce:
    @pytest.mark.parametrize("argv", [
        ("matrix", "--target", "folkman+dom"),
        ("check-hl", "--target", "capacity:3", "--n-max", "6", "--strong"),
    ])
    def test_one_orbit_search(self, capsys, argv):
        automorphy.orbit_partition.cache_clear()
        status, _, _ = run(capsys, *argv)
        calls = automorphy.orbit_partition.cache_info()
        automorphy.orbit_partition.cache_clear()
        assert status in (0, 1) and calls.misses == 1


def full_str(value):
    """str(value) past the interpreter's default int-to-str limit, which is
    lifted only to format the expected value (0 = no limit)."""
    old = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if old:
        sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        if old:
            sys.set_int_max_str_digits(old)


class TestLargeResults:
    def test_hom_past_int_str_digit_limit(self, capsys):
        status, out, err = run(capsys, "hom", "--tree", "path:15000",
                               "--target", "lclique:2")
        assert status == 0 and err == ""
        # 2^15000 has 4516 digits
        assert out.strip() == full_str(2 ** 15000)

    def test_partition_reach_on_long_path(self, capsys):
        # the Fraction-per-vertex walk took about 30 s here; the integer
        # numerators over one common denominator take well under a second
        lam = ["3", "7/2", "10/3", "3"]
        start = time.perf_counter()
        status, out, err = run(capsys, "partition", "--tree", "path:8000", "--target", "wr:3",
                               "--activities", ",".join(lam), "--rows")
        elapsed = time.perf_counter() - start
        assert status == 0 and err == ""
        assert elapsed < 5.0, f"partition on path:8000 took {elapsed:.1f} s"
        want = path_partition_function(8000, make_widom_rowlinson(3), [Fraction(x) for x in lam])
        assert out.strip() == f"partition\t8000\t4\t{full_str(want)}"

    def test_kc_past_int_str_digit_limit(self, capsys, tmp_path):
        # a double star: one KC site, whose count difference into the looped
        # 3-path is about 3^9000
        n = 9100
        edges = [(0, 1)] + [(0 if v < n // 2 else 1, v) for v in range(2, n)]
        f = tmp_path / "tree.txt"
        f.write_text(f"{n} {n - 1}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        status, out, err = run(capsys, "kc", "--tree", str(f),
                               "--target", "lpath:3", "--rows")
        assert status == 0 and err == ""
        fields = out.strip().split("\t")
        assert fields[:3] == ["kc", "0", "1"] and fields[5] == "1"
        assert fields[3] == fields[4] and len(fields[3]) > 4300


class TestReach:
    @pytest.mark.parametrize("target", ["capacity:3", "wr:3", "capacity:100"])
    def test_certified_check_hl_at_its_order_limit(self, capsys, target):
        # past the enumeration limit a certified target is answered from its
        # path counts and the degree test: the path's count at every order,
        # the path alone least; at the limit every three-leg spider counts more
        n_max = extremal.SPIDER_ORDER_LIMIT
        start = time.perf_counter()
        status, out, err = run(capsys, "check-hl", "--target", target,
                               "--n-max", str(n_max), "--strong", "--rows")
        assert time.perf_counter() - start < 5.0
        H = parse_target_spec(target)
        ends, want = [1] * H.n, []
        for n in range(2, n_max + 1):  # ends[v]: (n-1)-vertex paths ending at v
            ends = [sum(ends[u] for u in H.neighbors(v)) for v in H.vertices()]
            want.append(f"n\t{n}\t{full_str(sum(ends))}\t1\t1")
        path_count, spiders = spider_counts(H, n_max)
        assert path_count == sum(ends) < min(spiders)
        want += ["matrix-certificate\t1", "strong-certificate\t1", "verdict\t1"]
        assert status == 0 and err == "" and out.splitlines() == want

    def test_classify_past_the_enumeration_limit(self, capsys):
        # no tree is listed: the table at n = 100 is read off each target's
        # path counts in one process, with the summaries read at n = 14
        start = time.perf_counter()
        status, out, err = run(capsys, "classify", "--n-max", "100", "--rows")
        assert time.perf_counter() - start < 2.0
        assert status == 0 and err == "" and len(out.splitlines()) == 28
        summaries = [line.split("\t")[2] for line in out.splitlines()]
        _, at_14, _ = run(capsys, "classify", "--n-max", "14", "--rows")
        assert summaries == [line.split("\t")[2] for line in at_14.splitlines()]

    def test_hom_long_path_into_large_clique(self, capsys):
        # the walk runs on the clique's one-class quotient; a walk over its
        # 200 vertices takes about 1.5 s for path:300 alone
        start = time.perf_counter()
        status, out, err = run(capsys, "hom", "--tree", "path:1000",
                               "--target", "clique:200", "--rows")
        elapsed = time.perf_counter() - start
        assert status == 0 and err == ""
        assert out.strip() == f"hom\t1000\t200\t{full_str(200 * 199 ** 999)}"
        assert elapsed < 2.0, f"hom into clique:200 took {elapsed:.1f} s"

    def test_orbits_of_a_long_path(self, capsys):
        # one pinned search finds the reflection, 6,593 steps
        status, out, err = run(capsys, "orbits", "--target", "path:1100", "--rows")
        rows = [line.split("\t") for line in out.splitlines()]
        assert status == 0 and err == "" and len(rows) == 550
        assert rows[0] == ["class", "0", "2", "0,1099"]

    def test_orbits_of_a_path_past_quadratic_reach(self, capsys):
        # a candidate is checked against its mapped neighbours only, so the
        # one pinned search, which finds the reflection, takes 11,993 steps
        status, out, err = run(capsys, "orbits", "--target", "path:2000", "--rows")
        rows = [line.split("\t") for line in out.splitlines()]
        assert status == 0 and err == "" and len(rows) == 1000
        assert rows[-1] == ["class", "999", "2", "999,1000"]

    @pytest.mark.parametrize("target", ["lpath:30", "path:30", "capacity:25"])
    def test_certificates_past_twenty_one_vertices(self, capsys, target):
        # the certified targets must also pass the sweep (verdict 1)
        status, out, _ = run(capsys, "check-hl", "--target", target, "--n-max", "10",
                             "--strong", "--rows")
        tail = out.splitlines()[-3:]
        assert status == 0 and tail == ["matrix-certificate\t1", "strong-certificate\t1",
                                         "verdict\t1"]

    @pytest.mark.parametrize("command", ["orbits", "matrix"])
    def test_dense_regular_search_refused_fast(self, capsys, tmp_path, command):
        f = tmp_path / "dense.txt"
        f.write_text(format_graph(dense_regular_21()))
        start = time.perf_counter()
        status, out, err = run(capsys, command, "--target", str(f), "--rows")
        assert time.perf_counter() - start < 5.0
        assert status == 2 and out == "" and "AUT_WORK_LIMIT" in err

    def test_dense_regular_check_hl_without_certificate(self, capsys, tmp_path):
        # every tree on n vertices has 21 * 16^(n-1) colourings, so the path
        # ties all trees and is the unique minimizer only for n <= 3
        f = tmp_path / "dense.txt"
        f.write_text(format_graph(dense_regular_21()))
        start = time.perf_counter()
        status, out, err = run(capsys, "check-hl", "--target", str(f), "--n-max", "9", "--rows")
        assert time.perf_counter() - start < 5.0
        want = [f"n\t{n}\t{21 * 16 ** (n - 1)}\t1\t{int(n < 4)}" for n in range(2, 10)]
        want += ["matrix-certificate\t0", "strong-certificate\t0", "verdict\t1"]
        assert status == 0 and err == "" and out.splitlines() == want

    def test_matrix_refused_by_its_size(self, capsys):
        # path:2900's orbits take one short search, but 1,450 classes make
        # a matrix of 2,102,500 entries, refused before any is built
        status, out, err = run(capsys, "matrix", "--target", "path:2900", "--rows")
        assert status == 2 and out == "" and "AUT_WORK_LIMIT" in err
        assert "1450 classes" in err and "2102500 entries" in err

    @pytest.mark.parametrize("command", ["orbits", "matrix"])
    def test_many_components_search_refused_fast(self, capsys, command):
        # one isolated vertex per component at the edge-list vertex cap: each
        # component's first vertex is the next of one sort, found in O(1)
        start = time.perf_counter()
        status, out, err = run(capsys, command, "--target",
                               f"inline:{EDGE_LIST_VERTEX_LIMIT} 0", "--rows")
        assert time.perf_counter() - start < 5.0
        assert status == 2 and out == "" and "AUT_WORK_LIMIT" in err

    def test_many_components_check_hl_without_certificate(self, capsys):
        # no edge, so every tree on n >= 2 vertices has no colouring
        start = time.perf_counter()
        status, out, err = run(capsys, "check-hl", "--target",
                               f"inline:{EDGE_LIST_VERTEX_LIMIT} 0", "--n-max", "4", "--rows")
        assert time.perf_counter() - start < 5.0
        want = [f"n\t{n}\t0\t1\t{int(n < 4)}" for n in range(2, 5)]
        want += ["matrix-certificate\t0", "strong-certificate\t0", "verdict\t1"]
        assert status == 0 and err == "" and out.splitlines() == want


class TestErrorHandling:
    def test_parse_error_exit_2(self, capsys):
        status, _, err = run(capsys, "hom", "--tree", "path:4",
                             "--target", "inline:2 2\\n0 9")
        assert status == 2 and "error" in err

    def test_missing_file_exit_2(self, capsys):
        status, _, err = run(capsys, "orbits", "--target", "/no/such/file")
        assert status == 2 and "error" in err

    def test_unknown_subcommand_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "invalid choice: 'frobnicate'" in out.err

    @pytest.mark.parametrize("argv", [
        ("classify", "--threads", "2"),
        ("check-hl", "--target", "hind", "--budget", "5"),
        ("hom", "--tree", "path:3", "--target", "hind", "--size-limit", "5"),
        ("classify", "--size-limit", "5"),
        ("kc", "--tree", "path:6", "--target", "hind", "--size-limit", "5"),
        ("partition", "--tree", "path:3", "--target", "hind", "--activities", "1,1",
         "--budget", "5"),
        ("orbits", "--target", "hind", "--size-limit", "5"),
        ("matrix", "--target", "hind", "--size-limit", "5"),
        ("check-hl", "--target", "hind", "--size-limit", "5"),
    ])
    def test_removed_knobs_rejected(self, capsys, argv):
        # each argv ends with the removed option and its value
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and f"unrecognized arguments: {' '.join(argv[-2:])}" in out.err

    @pytest.mark.parametrize("argv, message", [
        (("family", "capacity", "0"), "capacity must be >= 1"),
        (("trees", "-n", "0"), "tree enumeration limited to 1..16, got n=0"),
    ])
    def test_order_out_of_range_exit_2(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_brute_force_budget_exit_2(self, capsys):
        status, _, err = run(capsys, "hom", "--brute", "--budget", "100",
                             "--tree", "path:10", "--target", "h28")
        assert status == 2 and "budget" in err

    @pytest.mark.parametrize("argv, needle", [
        # 3,003 sites on 80 vertices into path:21's 11 classes and 21 row
        # entries: an estimate of 107,627,520
        (("kc", "--tree", "path:80", "--target", "path:21"), "KC_WORK_LIMIT"),
        (("partition", "--tree", "path:3", "--target", "hind",
          "--activities", "1/0,1"), "bad activity"),
        (("classify", "--n-max", "1"), "n_max >= 2"),
        (("orbits", "--target", "clique:100"), "AUT_WORK_LIMIT"),
        # sweeps over no order: a pass would be vacuous
        (("check-hl", "--target", "hind", "--n-max", "0"), "n_max >= 2"),
        (("check-hl", "--target", "hind", "--n-max", "1", "--strong", "--rows"), "n_max >= 2"),
        (("sidorenko", "--target", "hind", "--n-max", "1"), "n_max >= 2"),
    ])
    def test_failure_reported_exit_2(self, capsys, argv, needle):
        status, out, err = run(capsys, *argv)
        assert status == 2 and out == "" and needle in err

    @pytest.mark.parametrize("acts", ["1e10000000,1", "1,2E3", "1.5e-3,1"])
    def test_exponent_activities_refused_fast(self, capsys, acts):
        # Fraction("1e10000000") alone builds a 10,000,001-digit integer
        start = time.perf_counter()
        status, out, err = run(capsys, "partition", "--tree", "path:3", "--target", "hind",
                               "--activities", acts)
        assert time.perf_counter() - start < 1.0
        assert status == 2 and out == "" and "(exponent notation)" in err

    def test_kc_work_estimate_reads_the_target_quotient(self, capsys):
        # 3 sites x 5 vertices is tiny, but path:3000's quotient has 1,500
        # classes: the estimate is past the cap before any site is counted
        start = time.perf_counter()
        status, out, err = run(capsys, "kc", "--tree", "path:5", "--target", "path:3000")
        assert time.perf_counter() - start < 1.0
        assert status == 2 and out == "" and "KC_WORK_LIMIT" in err

    def test_kc_work_limit_checked_before_any_site(self, capsys):
        # a path has ~n^2/2 sites; 28,203 sites x 240 vertices is past the cap
        start = time.perf_counter()
        status, out, err = run(capsys, "kc", "--tree", "path:240", "--target", "hind")
        assert time.perf_counter() - start < 1.0
        assert status == 2 and out == "" and str(KC_WORK_LIMIT) in err

    @pytest.mark.parametrize("argv", [
        ("check-hl", "--target", "lpath:10002", "--n-max", "16"),
        ("minimize", "--target", "lpath:10002", "-n", "16"),
        ("sidorenko", "--target", "lpath:10002", "--n-max", "16"),
    ], ids=lambda argv: argv[0])
    def test_sweep_past_the_shape_vector_limit_refused(self, capsys, argv):
        # lpath:10002's quotient has 5,001 classes and n = 16 composes 200
        # rooted shapes, one class past the cap: refused once the quotient
        # is known, before any vector is built
        start = time.perf_counter()
        status, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 5.0
        assert status == 2 and out == ""
        assert err == ("error: shape vectors need shapes x classes = 200 x 5001 = 1000200, "
                       f"past SHAPE_VECTOR_LIMIT = {trees.SHAPE_VECTOR_LIMIT}\n")

    @pytest.mark.parametrize("spec", [
        "path:2000000", "lpath:600000", "star:2000000", "clique:20000", "lclique:20000",
        "capacity:20000", "wr:600000", "habl:100,100,100",
    ])
    def test_oversized_shorthand_exit_2_unbuilt(self, capsys, spec):
        start = time.perf_counter()
        status, out, err = run(capsys, "orbits", "--target", spec)
        assert time.perf_counter() - start < 1.0
        assert status == 2 and out == "" and str(SHORTHAND_EDGE_LIMIT) in err

    @pytest.mark.parametrize("header", ["3000000 0", "1000001 0", "100001 0"])
    def test_oversized_edge_list_exit_2_unbuilt(self, capsys, tmp_path, header):
        # a header alone would make one neighbour set per announced vertex
        f = tmp_path / "wide.txt"
        f.write_text(header + "\n")
        for spec in (f"inline:{header}", str(f)):
            start = time.perf_counter()
            status, out, err = run(capsys, "hom", "--tree", "path:2", "--target", spec)
            assert time.perf_counter() - start < 1.0
            assert status == 2 and out == "" and str(EDGE_LIST_VERTEX_LIMIT) in err

    def test_edge_list_at_the_vertex_limit_is_counted_quickly(self, capsys):
        start = time.perf_counter()
        status, out, _ = run(capsys, "hom", "--tree", "path:2", "--target",
                             f"inline:{EDGE_LIST_VERTEX_LIMIT} 0", "--rows")
        assert time.perf_counter() - start < 1.0
        assert status == 0 and out.split() == ["hom", "2", str(EDGE_LIST_VERTEX_LIMIT), "0"]

    @pytest.mark.parametrize("argv", [
        ("check-hl", "--target", "h23", "--n-max"),
        ("sidorenko", "--target", "capacity:3", "--n-max"),
        ("minimize", "--target", "capacity:3", "-n"),
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("n", [trees.TREE_LIMIT + 1, 100_000_000])
    def test_sweep_past_the_limit_refused_fast(self, capsys, argv, n):
        # refused before any order is folded, naming the order asked. No
        # ordering certifies h23, so check-hl sweeps it and 17 is past the
        # enumeration limit; an order past SPIDER_ORDER_LIMIT is refused first
        start = time.perf_counter()
        status, out, err = run(capsys, *argv, str(n))
        assert time.perf_counter() - start < 5.0
        assert status == 2 and out == ""
        limit = f"tree enumeration limited to 1..{trees.TREE_LIMIT}"
        if argv[0] == "check-hl" and n > extremal.SPIDER_ORDER_LIMIT:
            limit = f"path-minimality checks limited to 2..{extremal.SPIDER_ORDER_LIMIT}"
        assert err == f"error: {limit}, got n={n}\n"

    @pytest.mark.parametrize("target", ["h23", "folkman+dom"])
    def test_uncertified_check_hl_past_the_enumeration_limit_refused(self, capsys, target):
        # no ordering of either target's orbits passes, so the bounded fold answers
        n = trees.TREE_LIMIT + 1
        status, out, err = run(capsys, "check-hl", "--target", target, "--n-max", str(n))
        assert status == 2 and out == ""
        assert err == f"error: tree enumeration limited to 1..{trees.TREE_LIMIT}, got n={n}\n"

    @pytest.mark.parametrize("n", [extremal.SPIDER_ORDER_LIMIT + 1, 100_000_000])
    def test_certified_check_hl_past_its_order_limit_refused_fast(self, capsys, monkeypatch, n):
        # refused before the ordering search or any refinement of the target
        def refuse(*args):
            raise AssertionError("the target was searched or refined")

        monkeypatch.setattr(extremal, "find_increasing_ordering", refuse)
        monkeypatch.setattr(extremal, "_equitable_quotient", refuse)
        start = time.perf_counter()
        status, out, err = run(capsys, "check-hl", "--target", "capacity:3", "--n-max", str(n))
        assert time.perf_counter() - start < 5.0
        assert status == 2 and out == ""
        assert err == (f"error: path-minimality checks limited to "
                       f"2..{extremal.SPIDER_ORDER_LIMIT}, got n={n}\n")

    @pytest.mark.parametrize("n", [extremal.SPIDER_ORDER_LIMIT + 1, 100_000_000])
    def test_classify_past_its_order_limit_refused_fast(self, capsys, monkeypatch, n):
        # classify lists no tree, so its limit is the certified route's, not
        # the enumeration limit; it is refused before any target is refined
        def refuse(*args):
            raise AssertionError("a target was refined")

        monkeypatch.setattr(extremal, "_equitable_quotient", refuse)
        start = time.perf_counter()
        status, out, err = run(capsys, "classify", "--n-max", str(n))
        assert time.perf_counter() - start < 5.0
        assert status == 2 and out == ""
        assert err == (f"error: classification limited to "
                       f"2..{extremal.SPIDER_ORDER_LIMIT}, got n={n}\n")

    @pytest.mark.parametrize("head", list(cli._SHORTHANDS))
    def test_malformed_shorthand_named(self, capsys, head):
        # a wrong parameter count or a non-integer parameter is reported as
        # the shorthand's, not as a missing file
        arity = cli._SHORTHANDS[head][0]
        want = f"shorthand {head} takes {arity} integer parameter{'s' * (arity > 1)}"
        for params in ["2"] * (arity + 1), ["2"] * (arity - 1) + ["x"]:
            spec = f"{head}:{','.join(params)}"
            for argv in ("orbits", "--target", spec), ("family", head, *params):
                status, out, err = run(capsys, *argv)
                assert status == 2 and out == ""
                assert err == f"error: cannot read graph {spec!r}: {want}\n"

    def test_file_named_like_a_malformed_shorthand_is_read(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "capacity:1,2").write_text("2 1\n0 1\n")
        assert parse_target_spec("capacity:1,2") == parse_target_spec("clique:2")

    @pytest.mark.parametrize("name", ["folkman+dom", "folkman", "hind", "h1", "h7", "h28"])
    def test_named_target_with_parameters_named(self, capsys, name):
        # reported as the name's, not as a missing file
        for params in ["3"], ["1", "2"]:
            spec = f"{name}:{','.join(params)}"
            for argv in ("orbits", "--target", spec), ("family", name, *params):
                status, out, err = run(capsys, *argv)
                assert status == 2 and out == ""
                assert err == f"error: cannot read graph {spec!r}: {name} takes no parameters\n"

    def test_past_the_catalog_is_no_named_target(self, capsys):
        status, _, err = run(capsys, "family", "h29", "1")
        assert status == 2 and "No such file" in err

    def test_file_named_like_a_named_target_with_parameters_is_read(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "folkman:3").write_text("2 1\n0 1\n")
        assert parse_target_spec("folkman:3") == parse_target_spec("clique:2")

    def test_shorthand_edge_counts_match_built_graphs(self):
        for head, (arity, edges, _) in cli._SHORTHANDS.items():
            for args in product(range(2, 6), repeat=arity):
                spec = f"{head}:{','.join(map(str, args))}"
                assert edges(*args) == len(parse_target_spec(spec).edges), spec

    def test_appended_one_cliques_add_nothing(self):
        # habl with a = 1 has no appended edge or vertex, however many are asked for
        start = time.perf_counter()
        assert parse_target_spec(f"habl:1,3,{10 ** 12}") == parse_target_spec("clique:3")
        assert time.perf_counter() - start < 1.0


@cache
def _parser():
    return build_parser()


def _argparse_vars(argv):
    """vars() of argparse's namespace for argv, or None where argparse exits
    (a usage error or --help); what it prints is discarded."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return vars(_parser().parse_args(argv))
    except SystemExit:
        return None


_OPTIONS = sorted({a[0] for _, _, arguments in cli._COMMANDS.values() for a in arguments
                   if a[2] not in cli._POSITIONAL})
_INTS = st.one_of(st.integers(-12, 30).map(str),
                  st.sampled_from(["1_000", "junk", " 7", "0x1f", "\u0663", "1e3", "", "-0"]))
_STRS = st.sampled_from(["h7", "path:5", "hind", "3/2,1", "habl", "3", "", "-x", "--rows"])
_NOISE = st.sampled_from(["-h", "--help", "--", "--targ", "--target=h7", "--n-max=4", "-n5",
                          "-", "extra", *_OPTIONS])


@st.composite
def command_lines(draw):
    """A subcommand (or junk) and its arguments, each present 0-2 times, in
    any order, sometimes with a value dropped or noise inserted."""
    name = draw(st.sampled_from([*cli._COMMANDS, "frobnicate", "--help"]))
    chunks = []
    for flag, _, kind, _, _, _ in cli._COMMANDS.get(name, (None, None, ()))[2]:
        for _ in range(draw(st.sampled_from([0, 1, 1, 1, 1, 1, 2]))):
            if kind == "flag":
                chunks.append([flag])
            elif kind == "positional":
                chunks.append([draw(_STRS)])
            elif kind == "*":
                chunks.append(draw(st.lists(_INTS, max_size=3)))
            else:
                value = draw(_INTS if kind == "int" else _STRS)
                chunks.append([flag] if draw(st.integers(0, 9)) == 0 else [flag, value])
    chunks = draw(st.permutations(chunks))
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 0, 1, 2]))):
        chunks.insert(draw(st.integers(0, len(chunks))), [draw(_NOISE)])
    return [name, *chain.from_iterable(chunks)]


# every argv shape the CI smoke step, the README examples and the benchmark
# workloads run (tree files and activities stand for the seeded ones)
FAST_COMMAND_LINES = [
    # CI smoke step
    "orbits --target clique:14 --rows",
    "matrix --target clique:16 --rows",
    "check-hl --target folkman+dom --n-max 8 --strong --rows",
    "check-hl --target capacity:3 --n-max 16 --strong --rows",
    "partition --tree path:8000 --target wr:3 --activities 3,7/2,10/3,3 --rows",
    "trees -n 16 --count",
    "kc --tree path:40 --target capacity:3 --rows",
    "check-hl --target capacity:20 --n-max 10 --strong --rows",
    "matrix --target 'inline:9 15\\n0 0\\n0 4\\n0 7' --rows",
    "orbits --target path:900 --rows",
    "orbits --target path:20000 --rows",
    "hom --tree path:1000 --target clique:200 --rows",
    "classify --n-max 14 --rows",
    "kc --tree path:20 --target lpath:30 --rows",
    "kc --tree path:5 --target path:3000",
    "kc --tree path:3000 --target hind",
    "check-hl --target lpath:30 --n-max 10 --strong --rows",
    "orbits --target dense21.txt",
    "hom --tree path:50 --target dom.txt --rows",
    "check-hl --target lpath:300 --n-max 12 --strong --rows",
    "hom --tree path:2 --target 'inline:2000000 0'",
    "minimize --target capacity:3 -n 16 --rows",
    "sidorenko --target capacity:3 --n-max 16 --rows",
    "sidorenko --target wr:3 --n-max 16 --rows",
    "classify --n-max 16 --rows",
    "check-hl --target path:700 --n-max 10 --strong --rows",
    "check-hl --target folkman+dom --n-max 16 --strong --rows",
    "sidorenko --target h23 --n-max 16 --rows",
    "orbits --target 'inline:100000 0'",
    "check-hl --target 'inline:100000 0' --n-max 4 --rows",
    "classify --n-max 100000000",
    "check-hl --target wr:3 --n-max 17",
    "check-hl --target lpath:300000 --n-max 16",
    "check-hl --target lpath:10002 --n-max 16",
    "family folkman 3",
    # README examples
    "hom --tree path:5 --target 'inline:2 2\\n0 0\\n0 1'",
    "matrix --target folkman+dom",
    "check-hl --target capacity:3 --n-max 9 --strong",
    "classify --n-max 9",
    "family habl 3 2 2",
    # benchmark workloads and their start-up command
    "check-hl --target capacity:3 --n-max 16 --strong --rows",
    "classify --n-max 14 --rows",
    "matrix --target folkman+dom --rows",
    "orbits --target clique:8 --rows",
    "check-hl --target folkman+dom --n-max 13 --strong --rows",
    "orbits --target clique:10 --rows",
    "hom --tree tree-00-400.txt --target capacity:3 --rows",
    "partition --tree tree-09-400.txt --target capacity:3 --rows --activities 7/2,1,5,2/3",
    "kc --tree tree-15-40.txt --target capacity:3 --rows",
    "kc --tree tree-17-60.txt --target hind --rows",
    "family h7",
]


class TestParser:
    def test_positionals_only_where_no_option_is_taken(self):
        # so `_parse_fast` never meets positionals split by an option
        for name, (_, _, arguments) in cli._COMMANDS.items():
            kinds = {a[2] for a in arguments}
            assert not kinds & set(cli._POSITIONAL) or kinds <= set(cli._POSITIONAL), name

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(command_lines())
    def test_fast_parse_is_argparse_or_none(self, argv):
        fast = _parse_fast(argv)
        assert fast is None or vars(fast) == _argparse_vars(argv)

    @pytest.mark.parametrize("line", FAST_COMMAND_LINES)
    def test_command_lines_in_use_take_the_fast_path(self, line):
        argv = shlex.split(line)
        fast = _parse_fast(argv)
        assert fast is not None and vars(fast) == _argparse_vars(argv)

    @pytest.mark.parametrize("argv, dest, value", [
        # a repeated option: argparse keeps the last
        (["hom", "--tree", "path:3", "--target", "h6", "--target", "h7"], "target", "h7"),
        # a negative number is a value, as no option looks like one
        (["trees", "-n", "-3"], "n", -3),
        # abbreviations and --opt=value
        (["hom", "--tree", "path:3", "--targ", "h7"], "target", "h7"),
        (["check-hl", "--target=h7", "--n-max=4"], "n_max", 4),
        (["trees", "-n5"], "n", 5),
    ])
    def test_argparse_reads_what_the_fast_path_leaves(self, argv, dest, value):
        assert _parse_fast(argv) is None
        assert _argparse_vars(argv)[dest] == value

    @pytest.mark.parametrize("argv", [
        # family takes no --rows: its output is already an edge list
        ["family", "h7", "--rows", "3"],
        ["family", "--rows"],
        ["hom", "--tree", "path:3"],
        ["trees", "-n", "x"],
        ["trees", "-n"],
        ["hom", "--tree", "path:3", "--target", "h7", "extra"],
        [],
        # options the subcommand would ignore
        ["hom", "--tree", "path:5", "--target", "hind", "--budget", "1"],
        ["trees", "-n", "5", "--count", "--rows"],
    ])
    def test_usage_errors_left_to_argparse(self, capsys, argv):
        assert _parse_fast(argv) is None
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2 and capsys.readouterr().err.startswith("usage: treehom")

    @pytest.mark.parametrize("argv, error", [
        (["hom", "--budget", "5", "--tree", "path:3", "--target", "hind"],
         "treehom hom: error: --budget applies only with --brute"),
        (["hom", "--tree", "path:3", "--target", "hind", "--budget=0"],
         "treehom hom: error: --budget applies only with --brute"),
        (["trees", "--rows", "-n", "5", "--count"],
         "treehom trees: error: --rows does not apply with --count"),
    ])
    def test_ignored_option_is_a_usage_error(self, capsys, argv, error):
        # one error line after the usage, and nothing counted or listed
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err.startswith("usage: treehom") and err.endswith(f"\n{error}\n")
        assert err.count("error") == 1

    @pytest.mark.parametrize("argv", [["hom", "--help"], ["--help"], ["family", "-h"]])
    def test_help_is_argparse_help(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr().out
        assert exc.value.code == 0 and out.startswith("usage: treehom")
        assert "show this help message and exit" in out
        with redirect_stdout(io.StringIO()) as want, pytest.raises(SystemExit):
            _parser().parse_args(argv)
        assert out == want.getvalue()


# malformed tree files: (file text, exit status, stderr). The messages are the
# parser's and the Tree's; when a file has several faults, the parser's first
# fault in line order wins, then the Tree's first in sorted edge order.
TREE_FILE_CASES = {
    "empty": ("", 2, "error: empty graph description\n"),
    "comments only": ("# nothing\n\n", 2, "error: empty graph description\n"),
    "bad header": ("3\n0 1\n1 2\n", 2, "error: line 1: header must be 'n m', got '3'\n"),
    "non-integer header": ("a b\n", 2, "error: line 1: header must be two integers, got 'a b'\n"),
    "negative count": ("-1 0\n", 2, "error: line 1: negative count in header '-1 0'\n"),
    "negative edge count": ("2 -1\n", 2, "error: line 1: negative count in header '2 -1'\n"),
    "too few edge lines": ("3 2\n0 1\n", 2,
                           "error: header announces 2 edges but 1 edge lines found\n"),
    "too many edge lines": ("3 1\n0 1\n1 2\n", 2,
                            "error: header announces 1 edges but 2 edge lines found\n"),
    "non-integer edge": ("3 2\n0 1\n1 x\n", 2,
                         "error: line 3: edge must be two integers, got '1 x'\n"),
    "three fields": ("3 2\n0 1 2\n1 2\n", 2, "error: line 2: edge must be 'u v', got '0 1 2'\n"),
    "out of range": ("3 2\n0 1\n1 3\n", 2,
                     "error: line 3: vertex index out of range 0..2 in '1 3'\n"),
    "duplicate edge": ("3 2\n0 1\n1 0\n", 2, "error: line 3: duplicate edge '1 0'\n"),
    "loop": ("3 2\n0 1\n1 1\n", 2, "error: loop at 1: trees are loopless\n"),
    "cycle": ("4 3\n0 1\n1 2\n2 0\n", 2, "error: edge (1,2) closes a cycle\n"),
    "cycle apart": ("5 4\n3 4\n0 1\n1 2\n0 2\n", 2, "error: edge (1,2) closes a cycle\n"),
    "wrong edge count": ("4 2\n0 1\n2 3\n", 2,
                         "error: a tree on 4 vertices needs 3 edges, got 2\n"),
    "no vertex": ("0 0\n", 2, "error: a tree has at least one vertex\n"),
    "duplicate before range": ("3 3\n0 1\n0 1\n5 5\n", 2,
                               "error: line 3: duplicate edge '0 1'\n"),
    "loop sorts before cycle": ("5 4\n2 3\n3 4\n2 4\n0 0\n", 2,
                                "error: loop at 0: trees are loopless\n"),
    "valid with comments": ("# a path\n3 2\n\n0 1  \n  # mid\n2 1\n", 0, ""),
}


class TestTreeFiles:
    @pytest.mark.parametrize("name", list(TREE_FILE_CASES))
    def test_hom_on_tree_file(self, capsys, tmp_path, name):
        text, status, err = TREE_FILE_CASES[name]
        f = tmp_path / "tree.txt"
        f.write_text(text)
        got = run(capsys, "hom", "--tree", str(f), "--target", "h6", "--rows")
        assert got == (status, "hom\t3\t2\t2\n" if status == 0 else "", err)
        # an inline spec reads the same text the same way
        inline = "inline:" + text.replace("\n", "\\n")
        assert run(capsys, "hom", "--tree", inline, "--target", "h6", "--rows") == got

    def test_tree_file_read_straight_into_a_tree(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("a tree file went through a TargetGraph")

        monkeypatch.setattr(cli, "parse_graph", refuse)
        monkeypatch.setattr(cli.TargetGraph, "__init__", refuse)
        f = tmp_path / "tree.txt"
        f.write_text("4 3\n2 1\n0 1\n3 1\n")
        assert parse_tree_spec(str(f)) == Tree.from_edges(4, [(0, 1), (1, 2), (1, 3)])


def _process(argv, **env):
    """A fresh interpreter running `argv`, with the package importable."""
    src = os.path.dirname(os.path.dirname(treehom.__file__))
    return dict(args=[sys.executable, *argv],
                env={**os.environ, "PYTHONPATH": src, **env})


class TestProcess:
    def test_import_loads_no_dataclasses_or_fractions(self):
        # -S: no site hooks, which could load (and so hide) these modules
        code = ("import sys; import treehom.cli; "
                "print(sorted({'dataclasses', 'fractions', 'decimal'} & set(sys.modules)))")
        out = subprocess.run(**_process(["-S", "-c", code]), capture_output=True, text=True,
                             check=True).stdout
        assert out == "[]\n"

    @pytest.mark.parametrize("argv", [["family", "h7"],
                                      ["hom", "--tree", "path:5", "--target", "hind", "--rows"]])
    def test_well_formed_command_loads_no_argparse(self, argv):
        code = ("import sys; from treehom.cli import main; status = main(sys.argv[1:]); "
                "print('argparse' in sys.modules, status)")
        out = subprocess.run(**_process(["-S", "-c", code, *argv]), capture_output=True,
                             text=True, check=True).stdout
        assert out.splitlines()[-1] == "False 0"

    def test_entry_point_freezes_the_collector(self):
        # what is alive before parsing moves to the permanent generation,
        # which the collections at interpreter exit skip
        # counted from start-up, since Python 3.12 starts with objects already there
        code = ("import gc; from treehom.cli import main; start = gc.get_freeze_count(); "
                "status = main(); print(gc.get_freeze_count() > start, status)")
        out = subprocess.run(**_process(["-S", "-c", code, "family", "h7"]), capture_output=True,
                             text=True, check=True).stdout
        assert out.splitlines()[-1] == "True 0"

    def test_in_process_call_leaves_the_collector_unfrozen(self, capsys):
        before = gc.get_freeze_count()
        assert main(["family", "h7"]) == 0
        assert gc.get_freeze_count() == before
        assert capsys.readouterr().out == "2 2\n0 0\n0 1\n"

    @staticmethod
    def _first_row_then_close(argv, **env):
        """Exit status, first stdout line and stderr of a process running
        `argv` whose reader closes stdout after one line."""
        proc = subprocess.Popen(**_process(argv, **env),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        return proc.wait(timeout=60), first, err

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_stdout_is_a_normal_end(self, unbuffered):
        # 3,159 rows are well past a pipe's buffer, so the writer meets the
        # closed pipe whether or not its stdout is buffered
        argv = ["-c", "import sys; from treehom.cli import main; sys.exit(main())",
                "trees", "-n", "14", "--rows"]
        status, first, err = self._first_row_then_close(argv, PYTHONUNBUFFERED=unbuffered)
        assert status == 0 and first.startswith(b"tree\t14\t") and err == b""

    def test_closed_stdout_ends_the_module_entry_point_normally(self):
        # python -m treehom.cli runs the module's own `sys.exit(main())`
        argv = ["-m", "treehom.cli", "trees", "-n", "14", "--rows"]
        status, first, err = self._first_row_then_close(argv)
        assert status == 0 and first.startswith(b"tree\t14\t") and err == b""

"""Command-line front end.

Exit status contract: 0 on success, 1 when a verification subcommand finds
its property violated (check-hl, sidorenko, kc), 2 on usage or parse errors
and on inputs past a size limit or searches past a work limit.
`--rows` switches every subcommand but `family` to machine-readable output,
one record per line with tab-separated fields in a stable order.

One table (`_COMMANDS`) declares the subcommands and their arguments. A
well-formed command line is read from it without argparse (`_parse_fast`);
argparse, built from the same table, reads every other one and prints help
and usage errors.
"""

from __future__ import annotations

import gc
import os
import sys
from collections.abc import Sequence
from itertools import combinations, combinations_with_replacement
from types import SimpleNamespace

from .automorphy import find_increasing_ordering, orbit_partition, similarity_matrix
from .graphs import (
    GraphParseError,
    SizeLimitError,
    TargetGraph,
    Tree,
    _read_edge_list,
    format_graph,
    parse_graph,
)
from .homcount import (
    BRUTE_FORCE_BUDGET,
    activities,
    hom_brute_force,
    kc_decompositions,
    tree_hom,
    tree_partition_function,
)
from .extremal import (
    SMALL_TARGETS,
    classify_small_targets,
    display_label,
    make_capacity_graph,
    make_folkman_plus_dominating,
    make_H_abl,
    make_widom_rowlinson,
    minimizers,
    sidorenko_check,
    verify_hoffman_london,
)
from .trees import all_trees, path, star, tree_count


# ---------------------------------------------------------------------------
# graph / tree specification strings

#: Cap on a shorthand target's edges, counted from its parameters unbuilt.
SHORTHAND_EDGE_LIMIT = 1_000_000

#: Cap on an edge-list target's vertices, read from its header ("3000000 0").
#: A header alone makes one neighbour set per vertex; at the cap, a target of
#: isolated vertices is still counted within a second.
EDGE_LIST_VERTEX_LIMIT = 100_000

# name: (parameter count, edge count from the parameters, builder); path and
# star build a Tree, which a target spec turns into a TargetGraph
_SHORTHANDS = {
    "path": (1, lambda n: n - 1, path),
    "lpath": (1, lambda n: 2 * n - 1, lambda n: TargetGraph.from_edges(
        n, [(i, j) for i in range(n) for j in (i, i + 1) if j < n])),
    "star": (1, lambda n: n - 1, star),
    "clique": (1, lambda n: n * (n - 1) // 2,
               lambda n: TargetGraph.from_edges(n, combinations(range(n), 2))),
    "lclique": (1, lambda n: n * (n + 1) // 2,
                lambda n: TargetGraph.from_edges(n, combinations_with_replacement(range(n), 2))),
    "capacity": (1, lambda c: (c // 2 + 1) * (c - c // 2 + 1), make_capacity_graph),
    "wr": (1, lambda k: 2 * k + 1, make_widom_rowlinson),
    "habl": (3, lambda a, b, ell: b * (b - 1) // 2 + b * ell * (a * (a - 1) // 2), make_H_abl),
}


def _target_source(spec: str) -> TargetGraph | Tree | str:
    """The graph a shorthand or name builds, or the edge-list text of an
    inline spec or a file, in `parse_target_spec`'s order."""
    if spec.startswith("inline:"):
        return spec[len("inline:"):].replace("\\n", "\n")
    head, sep, rest = spec.partition(":")
    if sep and head in _SHORTHANDS:
        try:
            args = [int(x) for x in rest.split(",")]
        except ValueError:
            args = None
        arity, edges, build = _SHORTHANDS[head]
        if args is not None and len(args) == arity:
            m = edges(*(max(x, 0) for x in args))  # the builder rejects x < 0
            if m > SHORTHAND_EDGE_LIMIT:
                raise SizeLimitError(f"{spec} would have {m} edges; shorthand targets "
                                     f"are limited to {SHORTHAND_EDGE_LIMIT} edges")
            return build(*args)
    if (named := _named_target(spec)) is not None:
        return named
    try:
        with open(spec) as fh:
            return fh.read()
    except OSError as exc:
        reason = str(exc)
        if head in _SHORTHANDS:  # a shorthand's name with malformed parameters
            arity = _SHORTHANDS[head][0]
            reason = f"shorthand {head} takes {arity} integer parameter{'s' * (arity > 1)}"
        elif _named_target(head) is not None:  # a named target given parameters
            reason = f"{head} takes no parameters"
        raise GraphParseError(f"cannot read graph {spec!r}: {reason}")


def _named_target(name: str) -> TargetGraph | None:
    """The graph folkman+dom (or folkman), h1..h28 or hind names, or None."""
    if name in ("folkman+dom", "folkman"):
        return make_folkman_plus_dominating()
    if name.startswith("h") and name[1:].isdecimal():  # not isdigit(): int() refuses "²"
        return SMALL_TARGETS.get(int(name[1:]))
    return SMALL_TARGETS[7] if name == "hind" else None


def parse_target_spec(spec: str) -> TargetGraph:
    """Shorthand (path:n, lpath:n, star:n, clique:n, lclique:n, capacity:C,
    wr:k, habl:a,b,l, folkman+dom, h1..h28), inline:"n m\\n...", or a file path.
    A shorthand past SHORTHAND_EDGE_LIMIT edges, or an edge list past
    EDGE_LIST_VERTEX_LIMIT vertices, raises SizeLimitError unbuilt.
    """
    g = _target_source(spec)
    if isinstance(g, Tree):
        return TargetGraph.from_edges(g.n, g.edges)
    return parse_graph(g, EDGE_LIST_VERTEX_LIMIT) if isinstance(g, str) else g


def parse_tree_spec(spec: str) -> Tree:
    """Any target spec whose graph is a tree (path:n, star:n, inline:..., a
    file path...); other graphs raise ValueError. A path or star shorthand is
    built as a Tree, and edge-list text is read once, straight into the Tree."""
    g = _target_source(spec)
    if isinstance(g, str):
        n, edges = _read_edge_list(g)
        return Tree(n, tuple(sorted(edges)))
    return g if isinstance(g, Tree) else Tree.from_edges(g.n, g.edges)


def _exact_str(value) -> str:
    """str() of an exact result, without the interpreter's int-to-str digit
    limit. The limit guards parsing of untrusted input, which keeps it; a
    value the program computed itself is printed in full."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(value)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(old)


# ---------------------------------------------------------------------------
# subcommand implementations (each returns the exit status)

def _cmd_hom(args) -> int:
    T = parse_tree_spec(args.tree)
    H = parse_target_spec(args.target)
    budget = BRUTE_FORCE_BUDGET if args.budget is None else args.budget
    count = _exact_str(hom_brute_force(T, H, budget) if args.brute else tree_hom(T, H))
    print(f"hom\t{T.n}\t{H.n}\t{count}" if args.rows else count)
    return 0


def _cmd_partition(args) -> int:
    T = parse_tree_spec(args.tree)
    H = parse_target_spec(args.target)
    lam = activities(args.activities)
    z = _exact_str(tree_partition_function(T, H, lam))
    print(f"partition\t{T.n}\t{H.n}\t{z}" if args.rows else z)
    return 0


def _cmd_orbits(args) -> int:
    H = parse_target_spec(args.target)
    Q = orbit_partition(H)
    if args.rows:
        for i, cls in enumerate(Q.classes):
            print(f"class\t{i}\t{len(cls)}\t{','.join(map(str, cls))}")
    else:
        print(f"{Q.k} similarity classes")
        for i, cls in enumerate(Q.classes):
            print(f"  class {i}: size {len(cls)}, vertices {list(cls)}")
    return 0


def _cmd_matrix(args) -> int:
    H = parse_target_spec(args.target)
    ordering = find_increasing_ordering(H)
    Q = orbit_partition(H)
    base = similarity_matrix(Q)

    def show(M, tag: str) -> None:
        for row in M.m:
            print(f"{tag}\t{','.join(map(str, row))}" if args.rows
                  else "  " + "  ".join(f"{x:3d}" for x in row))

    if args.rows:
        print(f"sizes\t{','.join(map(str, base.sizes))}")
    else:
        print(f"{base.k} classes, sizes {list(base.sizes)}")
        print("similarity matrix (classes in index order):")
    show(base, "row")
    if ordering is None:
        print("verdict\tno-increasing-ordering" if args.rows else "verdict: no increasing ordering")
    else:
        print(f"verdict\tincreasing\t{','.join(map(str, ordering))}" if args.rows
              else f"verdict: increasing ordering found, class order {list(ordering)}")
        show(similarity_matrix(Q, ordering), "ordered-row")
    return 0


def _cmd_trees(args) -> int:
    if args.count:
        print(tree_count(args.n))
        return 0
    for ct in all_trees(args.n):
        if args.rows:
            edges = ",".join(f"{u}-{v}" for u, v in ct.tree.edges)
            print(f"tree\t{args.n}\t{ct.code}\t{edges}")
        else:
            print(f"{ct.code}  edges {list(ct.tree.edges)}")
    return 0


def _cmd_minimize(args) -> int:
    H = parse_target_spec(args.target)
    rep = minimizers(H, args.n)
    if args.rows:
        print(f"minimize\t{rep.n}\t{rep.min_count}\t{rep.max_count}"
              f"\t{int(rep.path_is_min)}\t{int(rep.path_is_unique_min)}"
              f"\t{int(rep.star_is_max)}\t{';'.join(rep.minimizers)}")
    else:
        print(f"n={rep.n}: min {rep.min_count}, max {rep.max_count}")
        print(f"path minimal: {rep.path_is_min} (unique: {rep.path_is_unique_min}); "
              f"star maximal: {rep.star_is_max}")
        print(f"{len(rep.minimizers)} minimizing tree class(es):")
        for code in rep.minimizers:
            print(f"  {code}")
    return 0


def _cmd_check_hl(args) -> int:
    H = parse_target_spec(args.target)
    verdict = verify_hoffman_london(H, args.n_max)
    ok = verdict.strongly_hoffman_london if args.strong else verdict.hoffman_london
    if args.rows:
        for rep in verdict.reports:
            print(f"n\t{rep.n}\t{rep.min_count}\t{int(rep.path_is_min)}"
                  f"\t{int(rep.path_is_unique_min)}")
        print(f"matrix-certificate\t{int(verdict.matrix_certificate is not None)}")
        print(f"strong-certificate\t{int(verdict.strong_certificate is not None)}")
        print(f"verdict\t{int(ok)}")
    else:
        for rep in verdict.reports:
            uniq = " (unique)" if rep.path_is_unique_min else ""
            print(f"n={rep.n}: path minimal: {rep.path_is_min}{uniq}, min {rep.min_count}")
        if verdict.matrix_certificate is not None:
            print(f"increasing-columns certificate: class order {list(verdict.matrix_certificate)}")
        else:
            print("increasing-columns certificate: none")
        if verdict.strong_certificate is not None:
            w = dict(verdict.strong_certificate)
            print(f"strict-minimality certificate: witness pairs {w}")
        kind = "strongly path-minimal" if args.strong else "path-minimal"
        print(f"verdict: {kind} up to n={args.n_max}: {ok}")
    return 0 if ok else 1


def _cmd_classify(args) -> int:
    rows = classify_small_targets(args.n_max)
    if args.rows:
        for row in rows:
            counts = ";".join(f"{n}:{c}" for n, c in row.min_counts)
            labels = ";".join(f"{n}:{display_label(labs)}" for n, labs in row.labels)
            print(f"target\t{row.target_id}\t{row.summary}\t{counts}\t{labels}")
    else:
        print(f"{'target':>6}  {'class':<28}  min counts (n=2..{args.n_max})")
        for row in rows:
            counts = ", ".join(str(c) for _, c in row.min_counts)
            print(f"{row.target_id:>6}  {row.summary:<28}  {counts}")
    return 0


def _cmd_family(args) -> int:
    spec = f"{args.name}:{','.join(args.params)}" if args.params else args.name
    print(format_graph(parse_target_spec(spec)))
    return 0


def _cmd_sidorenko(args) -> int:
    H = parse_target_spec(args.target)
    ok, violation = sidorenko_check(H, args.n_max)
    if ok:
        print(f"sidorenko\tok\t{args.n_max}" if args.rows
              else f"star is maximal for all trees up to n={args.n_max}")
    else:
        n, code, count, star_count = violation
        print(f"sidorenko\tviolated\t{n}\t{code}\t{count}\t{star_count}" if args.rows
              else f"violation at n={n}: tree {code} has {count} > star's {star_count}")
    return 0 if ok else 1


def _cmd_kc(args) -> int:
    T = parse_tree_spec(args.tree)
    H = parse_target_spec(args.target)
    status = sites = 0
    for sites, (vl, vr, lhs, rhs) in enumerate(kc_decompositions(T, H), 1):
        ok = lhs == rhs
        if not ok:
            status = 1
        lhs, rhs = _exact_str(lhs), _exact_str(rhs)
        if args.rows:
            print(f"kc\t{vl}\t{vr}\t{lhs}\t{rhs}\t{int(ok)}")
        else:
            tag = "" if ok else "  MISMATCH"
            print(f"move ({vl},{vr}): difference {lhs}, decomposition {rhs}{tag}")
    if not sites and not args.rows:
        print(f"no legal KC move site (tree {'has one vertex' if T.n == 1 else 'is a star'})")
    return status


# ---------------------------------------------------------------------------
# the command table: one entry per subcommand, read both by build_parser and
# by _parse_fast

# An argument is (option string, or a positional's name; dest; kind; default;
# required; help). The kinds are "flag" (store_true), "int", "str",
# "positional" and "*" (a positional taking any number of values). The order
# is build_parser's add_argument order, so it is also the order --help lists.
_ROWS = ("--rows", "rows", "flag", False, False, "machine-readable tab-separated output")
_BUDGET = ("--budget", "budget", "int", None, False, "brute-force enumeration cap")
_TARGET = ("--target", "target", "str", None, True, "target graph: shorthand, inline:..., or file")
_TREE = ("--tree", "tree", "str", None, True, "tree: any target spec whose graph is a tree")
_N = ("-n", "n", "int", None, True, "tree order")
_N_MAX = ("--n-max", "n_max", "int", 9, False, "largest tree order checked")

_POSITIONAL = ("positional", "*")

# name: (help, handler, arguments)
_COMMANDS = {
    "hom": ("count H-colorings of a tree", _cmd_hom, (
        _ROWS, _BUDGET, _TARGET, _TREE,
        ("--brute", "brute", "flag", False, False,
         "use brute-force enumeration instead of the tree walk"))),
    "partition": ("activity-weighted coloring sum of a tree", _cmd_partition, (
        _ROWS, _TARGET, _TREE,
        ("--activities", "activities", "str", None, True,
         'comma-separated rationals, e.g. "3/2,1,5"'))),
    "orbits": ("automorphic similarity classes of a target", _cmd_orbits, (_ROWS, _TARGET)),
    "matrix": ("similarity matrix and increasing-columns verdict", _cmd_matrix, (_ROWS, _TARGET)),
    "trees": ("list non-isomorphic trees of an order", _cmd_trees, (
        _ROWS, _N, ("--count", "count", "flag", False, False, "print only the class count"))),
    "minimize": ("exhaustive minimizer sweep at one order", _cmd_minimize, (_ROWS, _TARGET, _N)),
    "check-hl": ("path minimality up to an order: certified, else swept", _cmd_check_hl, (
        _ROWS, _TARGET, _N_MAX,
        ("--strong", "strong", "flag", False, False,
         "require the path to be the unique minimizer (n >= 4)"))),
    "classify": ("minimizer classes of the 28 small targets", _cmd_classify, (_ROWS, _N_MAX)),
    "family": ("emit a named family graph as an edge list", _cmd_family, (
        ("name", "name", "positional", None, True,
         "capacity | wr | habl | folkman (or any shorthand)"),
        ("params", "params", "*", None, False, "numeric parameters"))),
    "sidorenko": ("check the star maximizes over trees", _cmd_sidorenko, (_ROWS, _TARGET, _N_MAX)),
    "kc": ("verify the KC difference decomposition on a tree", _cmd_kc, (_ROWS, _TARGET, _TREE)),
}


def _ignored_option(args) -> str | None:
    """The usage error of an option the subcommand would not read, or None."""
    if args.func is _cmd_hom and args.budget is not None and not args.brute:
        return "--budget applies only with --brute"
    if args.func is _cmd_trees and args.count and args.rows:
        return "--rows does not apply with --count"
    return None


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the command table. argparse is imported here,
    so a command line that `_parse_fast` reads never loads it."""
    import argparse

    class Subcommand(argparse.ArgumentParser):  # refuses an option it would ignore
        def parse_known_args(self, args=None, namespace=None):
            ns, extras = super().parse_known_args(args, namespace)
            if (error := _ignored_option(ns)) is not None:
                self.error(error)
            return ns, extras

    top = argparse.ArgumentParser(
        prog="treehom",
        description="Exact H-coloring counts of trees and path-minimality checks.",
    )
    sub = top.add_subparsers(dest="command", required=True, parser_class=Subcommand)
    for name, (text, func, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag, dest, kind, default, required, help_ in arguments:
            if kind == "flag":
                p.add_argument(flag, dest=dest, action="store_true", help=help_)
            elif kind in _POSITIONAL:
                p.add_argument(flag, nargs="*" if kind == "*" else None, help=help_)
            else:
                p.add_argument(flag, dest=dest, type=int if kind == "int" else None,
                               default=default, required=required, help=help_)
        p.set_defaults(func=func)
    return top


def _parse_fast(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace build_parser().parse_args(argv) returns, read from the
    command table without argparse, or None when argv is outside the strict
    form read here: an exact subcommand name first; then exact option strings
    of that subcommand, each at most once, each value present and not
    starting with "-", every int value one that int() reads, and every
    required option there; and as many positionals as the subcommand takes
    (only `family` takes any, and it takes no option); and no option the
    subcommand would ignore (`_ignored_option`). So -h, --help, --,
    --opt=value, an abbreviated option and every usage error are left to
    argparse, which prints their help or message exactly as before."""
    entry = _COMMANDS.get(argv[0]) if argv else None
    if entry is None:
        return None
    _, func, arguments = entry
    options = {a[0]: a for a in arguments if a[2] not in _POSITIONAL}
    got: dict = {}
    free: list[str] = []  # the positionals' values
    i = 1
    while i < len(argv):
        arg = argv[i]
        if not arg.startswith("-"):
            free.append(arg)
            i += 1
            continue
        a = options.get(arg)
        if a is None or a[1] in got:
            return None
        if a[2] == "flag":
            got[a[1]] = True
            i += 1
            continue
        if i + 1 == len(argv) or argv[i + 1].startswith("-"):
            return None
        value = argv[i + 1]
        if a[2] == "int":
            try:
                value = int(value)
            except ValueError:
                return None
        got[a[1]] = value
        i += 2
    ns = SimpleNamespace(command=argv[0])
    for _, dest, kind, default, required, _ in arguments:
        if kind == "positional":
            if not free:
                return None
            value = free.pop(0)
        elif kind == "*":
            value, free = free, []
        elif dest in got:
            value = got[dest]
        elif required:
            return None
        else:
            value = default
        setattr(ns, dest, value)
    if free:
        return None  # more positionals than the subcommand takes
    ns.func = func
    return None if _ignored_option(ns) else ns


def main(argv=None) -> int:
    """Run one command line and return its exit status. With no argv this is
    the process's entry point: it reads sys.argv and first freezes the
    collector, so every object alive by then (imports, the target catalog)
    sits in the permanent generation, which neither the run's full
    collections nor the interpreter's at exit walk. Objects the command makes
    are collected as before. A caller passing argv is left unfrozen."""
    if argv is None:
        gc.freeze()
        argv = sys.argv[1:]
    args = _parse_fast(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return status
    except BrokenPipeError:
        # the reader closed stdout: a normal end. Point the descriptor at
        # /dev/null so the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (GraphParseError, SizeLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

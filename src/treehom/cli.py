"""Command-line front end.

Exit status contract: 0 on success, 1 when a verification subcommand finds
its property violated (check-hl, sidorenko, kc), 2 on usage or parse errors
and on inputs past a size limit or searches past a work limit.
`--rows` switches every subcommand to machine-readable one-record-per-line
output with tab-separated fields in a stable order.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import combinations, combinations_with_replacement

from .automorphy import (
    _equitable_quotient,
    class_data,
    find_increasing_ordering,
    orbit_partition,
    similarity_matrix,
)
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
    kc_difference_decomposition,
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
from .trees import all_trees, kc_sites, path, star, tree_count


#: Cap on `kc`'s work, sites x n x (k + 3) x (r + k) for H's quotient with k
#: classes and r row entries: per site, at most three n-vertex walks and k
#: columns of at most n message steps (sides and path-pair tables that sites
#: share are computed once). A path on n vertices has ~n^2/2 sites.
KC_WORK_LIMIT = 25_000_000


# ---------------------------------------------------------------------------
# graph / tree specification strings

#: Cap on a shorthand target's edges, counted from its parameters unbuilt, and
#: on an edge-list target's vertices, read from its header ("3000000 0").
SHORTHAND_EDGE_LIMIT = 1_000_000

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
    if spec in ("folkman+dom", "folkman"):
        return make_folkman_plus_dominating()
    if spec.startswith("h") and spec[1:].isdigit() and int(spec[1:]) in SMALL_TARGETS:
        return SMALL_TARGETS[int(spec[1:])]
    if spec == "hind":
        return SMALL_TARGETS[7]
    try:
        with open(spec) as fh:
            return fh.read()
    except OSError as exc:
        raise GraphParseError(f"cannot read graph {spec!r}: {exc}")


def parse_target_spec(spec: str) -> TargetGraph:
    """Shorthand (path:n, lpath:n, star:n, clique:n, lclique:n, capacity:C,
    wr:k, habl:a,b,l, folkman+dom, h1..h28), inline:"n m\\n...", or a file path.
    A shorthand past SHORTHAND_EDGE_LIMIT edges, or an edge list past that
    many vertices, raises SizeLimitError unbuilt.
    """
    g = _target_source(spec)
    if isinstance(g, Tree):
        return TargetGraph.from_edges(g.n, g.edges)
    return parse_graph(g, SHORTHAND_EDGE_LIMIT) if isinstance(g, str) else g


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
    count = _exact_str(hom_brute_force(T, H, args.budget) if args.brute
                       else tree_hom(T, H))
    if args.rows:
        print(f"hom\t{T.n}\t{H.n}\t{count}")
    else:
        print(count)
    return 0


def _cmd_partition(args) -> int:
    T = parse_tree_spec(args.tree)
    H = parse_target_spec(args.target)
    lam = activities(args.activities)
    z = _exact_str(tree_partition_function(T, H, lam))
    if args.rows:
        print(f"partition\t{T.n}\t{H.n}\t{z}")
    else:
        print(z)
    return 0


def _cmd_orbits(args) -> int:
    H = parse_target_spec(args.target)
    P = orbit_partition(H)
    if args.rows:
        for i, cls in enumerate(P.classes):
            print(f"class\t{i}\t{len(cls)}\t{','.join(map(str, cls))}")
    else:
        print(f"{P.k} similarity classes")
        for i, cls in enumerate(P.classes):
            print(f"  class {i}: size {len(cls)}, vertices {list(cls)}")
    return 0


def _cmd_matrix(args) -> int:
    H = parse_target_spec(args.target)
    result = find_increasing_ordering(H)
    base = similarity_matrix(class_data(H)[0])

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
    if result is None:
        print("verdict\tno-increasing-ordering" if args.rows else "verdict: no increasing ordering")
    else:
        ordering, M = result
        print(f"verdict\tincreasing\t{','.join(map(str, ordering))}" if args.rows
              else f"verdict: increasing ordering found, class order {list(ordering)}")
        show(M, "ordered-row")
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
            ordering, _ = verdict.matrix_certificate
            print(f"increasing-columns certificate: class order {list(ordering)}")
        else:
            print("increasing-columns certificate: none")
        if verdict.strong_certificate is not None:
            w = dict(verdict.strong_certificate.witnesses)
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
    name = args.name
    params = args.params
    spec = name if not params else f"{name}:{','.join(params)}"
    H = parse_target_spec(spec)
    print(format_graph(H))
    return 0


def _cmd_sidorenko(args) -> int:
    H = parse_target_spec(args.target)
    ok, violation = sidorenko_check(H, args.n_max)
    if args.rows:
        if ok:
            print(f"sidorenko\tok\t{args.n_max}")
        else:
            n, code, count, star_count = violation
            print(f"sidorenko\tviolated\t{n}\t{code}\t{count}\t{star_count}")
    else:
        if ok:
            print(f"star is maximal for all trees up to n={args.n_max}")
        else:
            n, code, count, star_count = violation
            print(f"violation at n={n}: tree {code} has {count} > star's {star_count}")
    return 0 if ok else 1


def _cmd_kc(args) -> int:
    T = parse_tree_spec(args.tree)
    H = parse_target_spec(args.target)
    sites = kc_sites(T)
    _, sizes, rows = _equitable_quotient(H)
    k, r = len(sizes), sum(map(len, rows))
    work = len(sites) * T.n * (k + 3) * (r + k)
    if work > KC_WORK_LIMIT:
        raise SizeLimitError(f"kc work sites x n x (k + 3) x (r + k) = {len(sites)} x {T.n} x "
                             f"{k + 3} x {r + k} = {work} is past KC_WORK_LIMIT = {KC_WORK_LIMIT}")
    status = 0
    # hom(T, H) is the same at every site: count it once (a star has none);
    # sides and path-pair tables shared by sites are computed once too
    hom_T = tree_hom(T, H) if sites else None
    memo: dict = {}
    for vl, vr in sites:
        lhs, rhs = kc_difference_decomposition(T, vl, vr, H, hom_T, memo)
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
        print("no legal KC move site (tree is a star)")
    return status


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="treehom",
        description="Exact H-coloring counts of trees and path-minimality checks.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, target=False, tree=False, n=False, n_max=False, budget=False):
        p.add_argument("--rows", action="store_true",
                       help="machine-readable tab-separated output")
        if budget:
            p.add_argument("--budget", type=int, default=BRUTE_FORCE_BUDGET,
                           help="brute-force enumeration cap")
        if target:
            p.add_argument("--target", required=True,
                           help="target graph: shorthand, inline:..., or file")
        if tree:
            p.add_argument("--tree", required=True,
                           help="tree: any target spec whose graph is a tree")
        if n:
            p.add_argument("-n", type=int, required=True, help="tree order")
        if n_max:
            p.add_argument("--n-max", type=int, default=9, dest="n_max",
                           help="largest tree order swept")

    p = sub.add_parser("hom", help="count H-colorings of a tree")
    common(p, target=True, tree=True, budget=True)
    p.add_argument("--brute", action="store_true",
                   help="use brute-force enumeration instead of the tree walk")
    p.set_defaults(func=_cmd_hom)

    p = sub.add_parser("partition", help="activity-weighted coloring sum of a tree")
    common(p, target=True, tree=True)
    p.add_argument("--activities", required=True,
                   help='comma-separated rationals, e.g. "3/2,1,5"')
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("orbits", help="automorphic similarity classes of a target")
    common(p, target=True)
    p.set_defaults(func=_cmd_orbits)

    p = sub.add_parser("matrix", help="similarity matrix and increasing-columns verdict")
    common(p, target=True)
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("trees", help="list non-isomorphic trees of an order")
    common(p, n=True)
    p.add_argument("--count", action="store_true", help="print only the class count")
    p.set_defaults(func=_cmd_trees)

    p = sub.add_parser("minimize", help="exhaustive minimizer sweep at one order")
    common(p, target=True, n=True)
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("check-hl", help="sweep path minimality up to an order")
    common(p, target=True, n_max=True)
    p.add_argument("--strong", action="store_true",
                   help="require the path to be the unique minimizer (n >= 4)")
    p.set_defaults(func=_cmd_check_hl)

    p = sub.add_parser("classify", help="minimizer classes of the 28 small targets")
    common(p, n_max=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("family", help="emit a named family graph as an edge list")
    common(p)
    p.add_argument("name", help="capacity | wr | habl | folkman (or any shorthand)")
    p.add_argument("params", nargs="*", help="numeric parameters")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("sidorenko", help="check the star maximizes over trees")
    common(p, target=True, n_max=True)
    p.set_defaults(func=_cmd_sidorenko)

    p = sub.add_parser("kc", help="verify the KC difference decomposition on a tree")
    common(p, target=True, tree=True)
    p.set_defaults(func=_cmd_kc)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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

"""Per-layer metrics from the spans tracer.py writes, one file per command.

A span's self time is its duration minus the durations of its direct child
spans; a function's inclusive time (`.s`) counts only spans with no ancestor
of the same name, so recursion is not counted twice.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(commands, untraced, traced):
    """(metrics, checks) for one untraced and one traced pass over commands.

    checks is a list of (name, passed, detail); they describe the tracer and
    the counts it sees, not the program's output.
    """
    calls: dict[str, int] = defaultdict(int)
    incl: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    counters: dict[str, int] = defaultdict(int)
    cache_hits: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    import_s, main_s, main_covered, trees_built = [], 0.0, 0.0, 0
    missing, unwrapped, wrapped = [], [], set()

    for r in traced:
        try:
            rec = json.loads(r.trace_file.read_text())
        except (OSError, ValueError):
            missing.append(r.command.label)
            continue
        wrapped.add(rec["wrapped"])
        unwrapped += rec["unwrapped"]
        import_s.append(rec["import_s"])
        for key, value in rec["counters"].items():
            counters[key] += value
        for name, (hits, misses) in rec["caches"].items():
            cache_hits[name][0] += hits
            cache_hits[name][1] += misses
        names, spans = rec["names"], rec["spans"]
        covered = [0.0] * len(spans)
        for nid, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        in_all_trees = [False] * len(spans)
        for i, (nid, start, end, parent) in enumerate(spans):
            name, dur = names[nid], end - start
            calls[name] += 1
            self_s[name] += dur - covered[i]
            if parent >= 0:
                in_all_trees[i] = in_all_trees[parent] or names[spans[parent][0]] == "trees.all_trees"
            outermost, a = True, parent
            while a >= 0 and outermost:
                outermost = names[spans[a][0]] != name
                a = spans[a][3]
            if outermost:
                incl[name] += dur
            if name == "graphs.Tree.from_edges" and in_all_trees[i]:
                trees_built += 1
            if name == "cli.main":
                main_s += dur
                main_covered += covered[i]

    m: dict[str, float] = {}
    for name in ("trees.all_trees", "trees.canonical_code", "trees.kc_move", "graphs.Tree.from_edges",
                 "homcount.tree_hom", "homcount.hom_vector", "homcount.kc_difference_decomposition",
                 "automorphy.automorphisms", "automorphy.orbit_partition",
                 "automorphy.has_increasing_columns", "extremal.minimizers"):
        m[f"{name}.calls"] = calls[name]
    for name in ("trees.canonical_code", "trees.kc_move", "graphs.Tree.from_edges", "graphs.parse_graph",
                 "homcount.tree_hom", "homcount.hom_vector", "homcount.path_pair_counts",
                 "homcount.tree_partition_function", "automorphy.automorphisms",
                 "automorphy.find_increasing_ordering", "extremal.check_strong_hl_certificate",
                 "cli.main"):
        m[f"{name}.s"] = incl[name]
    for name in ("trees.all_trees", "homcount.kc_difference_decomposition", "extremal.sweep_counts",
                 "extremal.classify_small_targets"):
        m[f"{name}.self_s"] = self_s[name]
    for name in ("trees.all_trees", "automorphy.class_data"):
        hits, misses = cache_hits[name]
        m[f"{name}.hit_ratio"] = _ratio(hits, hits + misses)
    m["trees.trees_built"] = trees_built
    m["homcount.tree_hom.ops"] = counters["homcount.tree_hom.ops"]
    m["homcount.tree_hom.ops_per_s"] = _ratio(m["homcount.tree_hom.ops"], incl["homcount.tree_hom"])
    m["automorphy.automorphisms.found"] = counters["automorphy.automorphisms.found"]
    m["cli.import_s"] = statistics.median(import_s) if import_s else 0.0
    m["cli.main.coverage"] = _ratio(main_covered, main_s)
    both = [(u.ref_wall_s, t.ref_wall_s) for u, t in zip(untraced, traced)
            if u.status is not None and t.status is not None]
    m["trace.overhead_ratio"] = _ratio(sum(t for _, t in both), sum(u for u, _ in both))

    implied = sum(c.tree_hom_calls for c in commands)
    checks = [
        ("tracer binding", not missing and not unwrapped and len(wrapped) == 1,
         f"{len(traced) - len(missing)}/{len(traced)} span files, wrapped {sorted(wrapped)} functions,"
         f" originals left {unwrapped or 'none'}, missing {missing or 'none'}"),
        ("tree count", calls["homcount.tree_hom"] == implied,
         f"homcount.tree_hom.calls {calls['homcount.tree_hom']} vs {implied} implied by Otter counts"),
    ]
    return m, checks

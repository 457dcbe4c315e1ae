"""treehom benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from `src/`.
Every command is a fresh `treehom` process, so the all_trees and class_data
caches start cold as a user pays for them. Commands run one at a time in a
closed loop with one client, pinned to one core that this mostly idle process
shares with the child so that it can probe the core's speed (see probe()).

--trace 0 repeats the workload's command list until S seconds have passed
(always at least once) and reports the end-to-end metrics of BENCHMARK.json.
--trace 1 runs the list once untraced and once through tracer.py and reports
the per-layer metrics. Either way the output checks run after timing, and the
last stdout line is the JSON result; the lines above it are a readable report.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True

import workloads  # noqa: E402
from layers import layer_metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
COMMAND_TIME_LIMIT_S = 20.0   # above every command that finishes (<= 10 s here)
SIGTERM_GRACE_S = 10.0        # time a traced child gets to write its spans
SETUP_RUNS = 10
PROBE_PERIOD_S = 0.25
PROBE_REF_S = 0.00115         # median probe() time on the baseline host (see README)


def probe() -> float:
    """Seconds this core takes for a fixed ~1 ms slice of interpreter work
    (integer arithmetic, dict stores, list appends, a string join).

    The host's CPU speed drifts by up to 1.5x over seconds to minutes. Timing
    this slice on the child's core while the child runs lets each command's
    wall time be scaled to one reference speed.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    parts = []
    for i in range(4000):
        x = i * i % 7
        table[i & 255] = x
        parts.append(str(x))
    "".join(parts)
    return time.perf_counter() - start


@dataclass
class Result:
    command: workloads.Command
    wall_s: float
    status: int | None     # exit status, None when stopped at the time limit
    maxrss_mb: float
    stdout: str
    stderr: str
    probe_s: float         # median probe() time around and during the command
    trace_file: Path | None = None
    failure: str = ""      # empty when the command passed its check
    wrong: bool = False    # the command reached a verdict and the verdict is wrong

    @property
    def ref_wall_s(self) -> float:
        """Wall time scaled to the reference probe speed. A command stopped at
        the time limit keeps its real wall time: the limit is a fixed span of
        real time, whatever the speed."""
        if self.status is None:
            return self.wall_s
        return self.wall_s * PROBE_REF_S / self.probe_s


def child_env() -> dict[str, str]:
    """Bytecode is cached under .bench_build, as an installed package has it;
    the checkout itself and the interpreter's own tree stay untouched."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


_running: list[int] = []


def run_command(cmd: workloads.Command, workdir: Path, env, trace_file: Path | None = None) -> Result:
    """One CLI process, timed from spawn to exit, with its own rusage. The
    core is probed before, every PROBE_PERIOD_S during, and after it."""
    if trace_file is None:
        argv = [sys.executable, "-c", "import sys; from treehom.cli import main; sys.exit(main())"]
    else:
        argv = [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(trace_file), cmd.label]
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    probes = [probe()]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv + list(cmd.argv), env,
                             file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                                           (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
        _running.append(pid)
        pidfd = os.pidfd_open(pid)
        try:
            deadline = start + COMMAND_TIME_LIMIT_S
            while True:
                left = deadline - time.perf_counter()
                timed_out = left <= 0
                if timed_out or select.select([pidfd], [], [], min(PROBE_PERIOD_S, left))[0]:
                    break
                probes.append(probe())
            if timed_out:
                if trace_file is None:
                    os.kill(pid, signal.SIGKILL)
                else:
                    os.kill(pid, signal.SIGTERM)
                    if not select.select([pidfd], [], [], SIGTERM_GRACE_S)[0]:
                        os.kill(pid, signal.SIGKILL)
            _, wait_status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - start
        finally:
            os.close(pidfd)
            _running.remove(pid)
    probes.append(probe())
    status = None if timed_out else os.waitstatus_to_exitcode(wait_status)
    return Result(cmd, wall, status, usage.ru_maxrss / 1024.0,
                  out_path.read_text(errors="replace"), err_path.read_text(errors="replace"),
                  statistics.median(probes), trace_file)


def stop_children(signum=None, frame=None) -> None:
    for pid in list(_running):
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    if signum is not None:
        sys.exit(128 + signum)


def judge(r: Result) -> None:
    """Fill in r.failure / r.wrong from the exit status and the output check."""
    cmd = r.command
    defect = f" [known defect: {cmd.known_defect}]" if cmd.known_defect else ""
    if r.status is None:
        r.failure = f"stopped at the {COMMAND_TIME_LIMIT_S:g} s time limit{defect}"
        return
    if r.status not in (0, 1):
        last = r.stderr.strip().splitlines()[-1:] or [""]
        if workloads.INT_STR_LIMIT in r.stderr:
            r.failure = f"exit {r.status}: Python's 4300-digit int-to-str limit{defect}"
        else:
            r.failure = f"exit {r.status}: {last[0][:200]}{defect}"
        return
    problem = cmd.check(r.stdout)
    if r.status != 0:
        problem = f"exit {r.status}" + (f"; {problem}" if problem else "")
    if problem:
        r.failure, r.wrong = f"wrong output: {problem}", True


# ---------------------------------------------------------------------------
# provenance

def git_commit() -> str:
    """HEAD of the checkout read from .git without running git, or 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args) -> dict:
    try:
        nx_version = importlib.metadata.version("networkx")
    except importlib.metadata.PackageNotFoundError:
        nx_version = "missing"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(), "src_sha256": source_digest(),
        "python": platform.python_version(), "networkx": nx_version,
        "nproc": os.cpu_count(), "time_limit_s": COMMAND_TIME_LIMIT_S,
    }


# ---------------------------------------------------------------------------

def end_to_end(setup: list[Result], iterations: list[list[Result]]) -> dict[str, float]:
    walls = [sum(r.ref_wall_s for r in it) for it in iterations]
    wall = statistics.median(walls)
    workload = [r for it in iterations for r in it]
    failed = sum(1 for r in workload if r.failure)
    completed = [r for r in workload if r.status is not None]
    return {
        "wall_s": wall,
        "trees_per_s": sum(r.command.trees for r in iterations[0]) / wall,
        "setup_s": statistics.median(r.ref_wall_s for r in setup),
        "peak_rss_mb": max((r.maxrss_mb for r in completed), default=0.0),
        "pass_ratio": 1 - failed / len(workload),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "treehom" / "cli.py").is_file():
        print(f"no treehom source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.set_int_max_str_digits(0)
    signal.signal(signal.SIGTERM, stop_children)

    # The child runs on the probed core: one core, shared with this mostly
    # idle process, so that the probe sees the speed the child gets.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    BUILD.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=BUILD))
    env = child_env()
    try:
        commands = workloads.WORKLOADS[args.workload](args.seed, workdir / "inputs")
        run_command(workloads.SETUP_COMMAND, workdir, env)  # warm the file and bytecode caches
        # half the start-up samples before the workload and half after, so
        # their median spans the run rather than one moment of it
        setup = [run_command(workloads.SETUP_COMMAND, workdir, env) for _ in range(SETUP_RUNS // 2)]
        iterations: list[list[Result]] = []
        start = time.perf_counter()
        while not iterations or (args.trace == 0 and time.perf_counter() - start < args.seconds):
            iterations.append([run_command(c, workdir, env) for c in commands])
        setup += [run_command(workloads.SETUP_COMMAND, workdir, env)
                  for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
        traced = []
        if args.trace:
            traced = [run_command(c, workdir, env, workdir / f"spans-{i}.json")
                      for i, c in enumerate(commands)]

        everything = setup + [r for it in iterations for r in it] + traced
        for r in everything:
            judge(r)
        if args.trace:
            metrics, trace_checks = layer_metrics(commands, iterations[0], traced)
            wanted = spec["per_layer"]
        else:
            metrics, trace_checks = end_to_end(setup, iterations), []
            wanted = spec["end_to_end"]
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)

    report(args, setup, iterations, traced, metrics, trace_checks, wanted)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"benchmark defect: metrics not computed: {missing}", file=sys.stderr)
        return 3
    result = {
        "correct": not any(r.wrong for r in everything),
        "attempted": len(everything),
        "failed": sum(1 for r in everything if r.failure),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


def report(args, setup, iterations, traced, metrics, trace_checks, wanted) -> None:
    print(f"# provenance {json.dumps(provenance(args))}")
    print("# pass      cmd                                                     wall_s  ref_wall_s  probe_ms   exit  rss_mb  verdict")
    rows = [("setup", r) for r in setup]
    rows += [(f"iter {i + 1}", r) for i, it in enumerate(iterations) for r in it]
    rows += [("traced", r) for r in traced]
    for tag, r in rows:
        status = "limit" if r.status is None else str(r.status)
        verdict = r.failure or "ok"
        print(f"# {tag:<9} {r.command.label[:55]:<55} {r.wall_s:7.3f} {r.ref_wall_s:11.3f} "
              f"{r.probe_s * 1000:9.3f} {status:>6} {r.maxrss_mb:7.1f}  {verdict}")
    workload = [r for it in iterations for r in it]
    failed = sum(1 for r in workload if r.failure)
    print(f"# fail_ratio = {failed}/{len(workload)} = {failed / len(workload):.4f} ratio "
          f"(workload commands; every failure is listed above with its reason)")
    for name, ok, detail in trace_checks:
        print(f"# check {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    for m in wanted:
        print(f"# metric {m['name']} = {metrics.get(m['name'])!r} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())

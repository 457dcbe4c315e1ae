"""Run one treehom CLI command with spans around the package's public functions.

Usage: python3 perfbench/tracer.py SPANS_JSON COMMAND_ID CLI_ARG...

The package is not edited: after `import treehom.cli` this wraps every public
module-level function and public classmethod of the traced layers, rebinds
every `treehom.*` attribute that held an original (the modules import each
other's functions by name), and records any original still left there. Spans
are kept in memory and written to SPANS_JSON when the command ends, also when
the caller stops it with SIGTERM at its time limit; the spans still open then
are closed at that moment.

Instance methods (neighbors, degree, has_edge, ...) are left alone: they are
accessors called millions of times, so wrapping them would measure the tracer.
"""

from __future__ import annotations

import functools
import json
import signal
import sys
import types
from time import perf_counter

LAYERS = ("graphs", "trees", "homcount", "automorphy", "extremal", "cli")


class TimeLimit(BaseException):
    """Raised by the SIGTERM handler; BaseException so `except Exception`
    blocks in the package cannot swallow it."""


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.stack = [-1]
        self.counters: dict[str, int] = {}
        self.caches: dict[str, object] = {}   # name -> lru_cache object
        self.wrapped: dict[int, object] = {}  # id(original) -> wrapper
        self.unwrapped: list[str] = []        # binding self-check: originals left

    def wrap(self, name: str, fn, before=None, after=None):
        nid = len(self.names)
        self.names.append(name)
        names, starts, ends, parents, stack = (
            self.span_name, self.span_start, self.span_end, self.span_parent, self.stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            i = len(names)
            names.append(nid)
            starts.append(perf_counter())
            ends.append(-1.0)
            parents.append(stack[-1])
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                ends[i] = perf_counter()
            if after is not None:
                after(result)
            return result

        self.wrapped[id(fn)] = traced
        if hasattr(fn, "cache_info"):
            self.caches[name] = fn
        return traced

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def install(self) -> None:
        mods = {layer: sys.modules[f"treehom.{layer}"] for layer in LAYERS}
        degree_sums: dict[object, int] = {}

        def tree_hom_ops(args):
            T, H = args[0], args[1]
            s = degree_sums.get(H)
            if s is None:
                s = degree_sums[H] = sum(len(H.neighbors(x)) for x in H.vertices())
            self.count("homcount.tree_hom.ops", (T.n - 1) * s)

        before = {"homcount.tree_hom": tree_hom_ops}
        after = {"automorphy.automorphisms":
                 lambda found: self.count("automorphy.automorphisms.found", len(found))}

        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"):
                    key = f"{layer}.{attr}"
                    self.wrap(key, obj, before.get(key), after.get(key))
                elif isinstance(obj, type):
                    for meth, raw in list(vars(obj).items()):
                        if isinstance(raw, classmethod) and not meth.startswith("_"):
                            fn = self.wrap(f"{layer}.{attr}.{meth}", raw.__func__)
                            setattr(obj, meth, classmethod(fn))
        self.rebind()

    def treehom_modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == "treehom" or name.startswith("treehom."))]

    def rebind(self) -> None:
        """Point every treehom.* attribute that holds an original at its
        wrapper, then record any original that is left."""
        for mod in self.treehom_modules():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in self.wrapped:
                    setattr(mod, attr, self.wrapped[id(obj)])
        left = self.unwrapped
        for mod in self.treehom_modules():
            for attr, obj in vars(mod).items():
                if id(obj) in self.wrapped:
                    left.append(f"{mod.__name__}.{attr}")
                if isinstance(obj, type):
                    for meth, raw in vars(obj).items():
                        if isinstance(raw, classmethod) and id(raw.__func__) in self.wrapped:
                            left.append(f"{mod.__name__}.{attr}.{meth}")

    def dump(self, path: str, command_id: str, import_s: float, status, timed_out: bool) -> None:
        now = perf_counter()
        t0 = self.span_start[0] if self.span_start else now
        ends = [e if e >= 0 else now for e in self.span_end]
        record = {
            "command": command_id,
            "import_s": import_s,
            "status": status,
            "timed_out": timed_out,
            "wrapped": len(self.wrapped),
            "unwrapped": self.unwrapped,
            "names": self.names,
            # one span per row: [name index, start, end, parent span index]
            "spans": [[n, round(s - t0, 7), round(e - t0, 7), p]
                      for n, s, e, p in zip(self.span_name, self.span_start, ends, self.span_parent)],
            "counters": self.counters,
            "caches": {name: list(fn.cache_info()[:2]) for name, fn in self.caches.items()},
        }
        with open(path, "w") as fh:
            json.dump(record, fh, separators=(",", ":"))


def _on_sigterm(signum, frame):
    raise TimeLimit()


def main() -> int:
    out_path, command_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    t = perf_counter()
    import treehom.cli
    import_s = perf_counter() - t

    tracer = Tracer()
    tracer.install()
    signal.signal(signal.SIGTERM, _on_sigterm)
    status, timed_out = 1, False
    try:
        status = treehom.cli.main(argv)
    except TimeLimit:
        status, timed_out = 124, True
    except SystemExit as exc:
        status = exc.code
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        tracer.dump(out_path, command_id, import_s, status, timed_out)
    return status


if __name__ == "__main__":
    sys.exit(main())

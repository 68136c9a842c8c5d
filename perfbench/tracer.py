"""Traced run of one lipext command, timed from outside the package.

Usage: python3 perfbench/tracer.py SPANS.json lipext-arg...

The script imports ``lipext.cli``, rebinds every alias of the traced public
functions (the modules bind them by name at import) to a wrapper that
records a span, runs ``cli.main`` in-process and writes the spans to
SPANS.json.  A span is (name, start, end, parent, info): ``parent`` is the
index of the enclosing span, -1 for the root, and ``info`` holds the work
counts of that call.  Spans stay in memory until the command has returned,
in parallel lists of numbers rather than one list per span, which keeps the
garbage collector's work small.  ``aggregate`` turns a spans file into the
per-layer metrics.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.ids: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.info: dict[int, dict] = {}
        self.stack: list[int] = []

    def call(self, name, fn, args, kwargs, info=None):
        k = len(self.name)
        self.name.append(self.ids.setdefault(name, len(self.ids)))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(k)
        self.start.append(perf_counter())
        try:
            out = fn(*args, **kwargs)
        finally:
            self.end[k] = perf_counter()
            self.stack.pop()
        if info is not None:
            self.info[k] = info(args, kwargs, out)
        return out

    def to_json_dict(self) -> dict:
        return {"names": list(self.ids), "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "info": self.info}

    def wrap(self, name, fn, info=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, info)

        return traced


def _rows(x) -> int:
    return int(np.atleast_2d(np.asarray(x)).shape[0])


# (span name, module, function, info(args, kwargs, result) or None)
TARGETS = (
    ("phi.phi_eval", "phi", "phi_eval", lambda a, k, out: {"elements": int(np.size(a[1]))}),
    ("constants.coherence_constant", "constants", "coherence_constant",
     lambda a, k, out: {"pairs": len(a[0]) * (len(a[0]) - 1) // 2}),
    ("extension.fit_extension", "extension", "fit_extension", lambda a, k, out: {"queries": len(a[0])}),
    ("extension.whitney_batch", "extension", "whitney_batch", lambda a, k, out: {"queries": _rows(a[1])}),
    ("extension.mcshane_batch", "extension", "mcshane_batch", lambda a, k, out: {"queries": _rows(a[1])}),
    ("extension.predict", "extension", "predict", lambda a, k, out: {"queries": _rows(a[1])}),
    ("extension.optimal_alpha", "extension", "optimal_alpha",
     lambda a, k, out: {"queries": int(np.size(a[0]))}),
    ("pipeline.split", "pipeline", "split", None),
    ("pipeline.minmax_scale", "pipeline", "minmax_scale", None),
    ("pipeline.cross_validate", "pipeline", "cross_validate",
     lambda a, k, out: {"failed": out.failed, "repeats": out.repeats}),
    ("dataio.read_dataset", "dataio", "read_dataset",
     lambda a, k, out: {"rows": out.n_rows, "bytes": os.path.getsize(a[0])}),
    ("dataio.write", "dataio", "write_json", lambda a, k, out: {"rows": 0, "bytes": os.path.getsize(a[0])}),
    ("dataio.write", "dataio", "write_csv",
     lambda a, k, out: {"rows": len(a[2]), "bytes": os.path.getsize(a[0])}),
)


def install(tracer: Tracer) -> list[str]:
    """Rebind every alias of the traced functions; return the aliases rebound."""
    import lipext.cli  # noqa: F401  (imports every module of the package)

    modules = {n: m for n, m in sys.modules.items() if n == "lipext" or n.startswith("lipext.")}

    def rebind(module: str, func: str, wrapper) -> None:
        orig = getattr(modules["lipext." + module], func)
        for mod_name, mod in modules.items():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
                    rebound.append(f"{mod_name}.{attr}")

    rebound: list[str] = []
    for name, module, func, info in TARGETS:
        orig = getattr(modules["lipext." + module], func)
        rebind(module, func, tracer.wrap(name, orig, info))

    pairwise = modules["lipext.metrics"].pairwise_base

    def pairwise_base(*args, **kwargs):
        # tracemalloc runs only around this call; its own start/stop cost
        # is the enclosing trace.tracemalloc span, so no layer is charged.
        def measured():
            k = len(tracer.name)  # the index the pairwise_base span will take
            tracemalloc.start()
            try:
                out = tracer.call("metrics.pairwise_base", pairwise, args, kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            q, n, m = _rows(args[1]), _rows(args[2]), int(np.shape(args[1])[-1])
            tracer.info[k] = {"entries": q * n, "bytes": q * n * m * 8, "peak": peak}
            return out

        return tracer.call("trace.tracemalloc", measured, (), {})

    rebind("metrics", "pairwise_base", pairwise_base)

    # The objective builders return closures; wrap those too.
    for module, func, span in (
        ("swarm", "objective_kq", "swarm.objective_kq"),
        ("pipeline", "objective_test_rmse", "pipeline.objective_test_rmse"),
    ):
        build = getattr(modules["lipext." + module], func)

        def traced_build(*args, _build=build, _span=span, **kwargs):
            closure = tracer.call(_span, _build, args, kwargs)
            return tracer.wrap(_span, closure)

        rebind(module, func, traced_build)

    pso = modules["lipext.swarm"].pso_minimize

    def pso_minimize(objective, *args, **kwargs):
        def counted(lam):
            return tracer.call(
                "swarm.objective", objective, (lam,), {},
                lambda a, k, out: {"finite": int(math.isfinite(out))},
            )

        def iters_to_best(a, k, result):
            history = np.asarray(result.history)
            return {"iters_to_best": int(np.flatnonzero(history == history[-1])[0]) + 1}

        return tracer.call("swarm.pso_minimize", pso, (counted, *args), kwargs, iters_to_best)

    rebind("swarm", "pso_minimize", pso_minimize)
    return rebound


def aggregate(doc: dict) -> dict:
    """Per-layer metrics of one traced command, from its spans file."""
    names, name_ids, parents = doc["names"], doc["name"], doc["parent"]
    durations = [e - s for s, e in zip(doc["start"], doc["end"])]
    extras = {int(k): v for k, v in doc["info"].items()}
    child_time = [0.0] * len(durations)
    for parent, dur in zip(parents, durations):
        if parent >= 0:
            child_time[parent] += dur

    incl = defaultdict(float)
    calls = defaultdict(int)
    self_by_module = defaultdict(float)
    info = defaultdict(lambda: defaultdict(float))
    peak = defaultdict(float)
    for k, (name_id, dur) in enumerate(zip(name_ids, durations)):
        name = names[name_id]
        calls[name] += 1
        self_by_module[name.split(".")[0]] += dur - child_time[k]
        # Inclusive time counts the outermost span of a name only.
        p = parents[k]
        while p >= 0 and name_ids[p] != name_id:
            p = parents[p]
        if p < 0:
            incl[name] += dur
        for key, val in extras.get(k, {}).items():
            if key == "peak":
                peak[name] = max(peak[name], val)
            else:
                info[name][key] += val

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    pw = "metrics.pairwise_base"
    put(pw + ".s", incl[pw], "s")
    put(pw + ".calls", calls[pw], "count")
    put(pw + ".entries", int(info[pw]["entries"]), "count")
    put(pw + ".bytes_computed", int(info[pw]["bytes"]), "B")
    put(pw + ".peak_mb", peak[pw] / 2**20, "MiB")
    cc = "constants.coherence_constant"
    put(cc + ".s", incl[cc], "s")
    put(cc + ".calls", calls[cc], "count")
    put(cc + ".pairs", int(info[cc]["pairs"]), "count")
    for func in ("fit_extension", "whitney_batch", "mcshane_batch", "predict", "optimal_alpha"):
        name = "extension." + func
        put(name + ".s", incl[name], "s")
        put(name + ".calls", calls[name], "count")
        put(name + ".queries", int(info[name]["queries"]), "count")
    put("phi.phi_eval.s", incl["phi.phi_eval"], "s")
    put("phi.phi_eval.elements", int(info["phi.phi_eval"]["elements"]), "count")
    put("swarm.pso_minimize.s", incl["swarm.pso_minimize"], "s")
    evals = calls["swarm.objective"]
    put("swarm.objective.s", incl["swarm.objective"], "s")
    put("swarm.objective.evals", evals, "count")
    put("swarm.objective.finite_ratio", info["swarm.objective"]["finite"] / evals if evals else 0.0, "ratio")
    put("swarm.iters_to_best", int(info["swarm.pso_minimize"]["iters_to_best"]), "count")
    for func in ("split", "cross_validate", "objective_test_rmse", "minmax_scale"):
        name = "pipeline." + func
        put(name + ".s", incl[name], "s")
        put(name + ".calls", calls[name], "count")
    cv = info["pipeline.cross_validate"]
    put("pipeline.cv.failed_ratio", cv["failed"] / cv["repeats"] if cv["repeats"] else 0.0, "ratio")
    for name in ("dataio.read_dataset", "dataio.write"):
        put(name + ".s", incl[name], "s")
        put(name + ".rows", int(info[name]["rows"]), "count")
        put(name + ".bytes", int(info[name]["bytes"]), "B")
    for module in ("cli", "dataio", "pipeline", "metrics", "phi", "constants", "extension", "swarm"):
        put(module + ".self_s", self_by_module[module], "s")
    return out


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    rebound = install(tracer)
    from lipext import cli

    rc = tracer.call("cli.main", cli.main, (cli_args,), {})
    t1 = perf_counter()
    doc = {"rebound": rebound, **tracer.to_json_dict()}
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))
    # The caller excludes the time spent writing the spans from the wall time.
    with open(spans_path + ".dump_s", "w", encoding="utf-8") as fh:
        fh.write(repr(perf_counter() - t1))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

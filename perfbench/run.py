"""Benchmark of the lipext command line.

Run from the repository root:

    python3 perfbench/run.py --workload cv-blend --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --all            # every workload, every metric
    python3 perfbench/run.py --all --smoke    # tiny sizes: a check in seconds

One run generates the workload's seeded datasets, then drives ``python3 -m
lipext`` in a closed loop: one client, one command at a time, each started
only after the previous one exited, stdout and stderr sent to files and
LIPEXT_THREADS unset.  Steps cycle over the datasets until ``--seconds``
have passed and every dataset has run once.  Every command's outputs are
checked against the brute-force references in checks.py.

With ``--trace 0`` a step times the probe, one set-up process and one
command, and the run reports the end-to-end metrics.  With ``--trace 1`` a
step runs the command untraced and under tracer.py, and the run reports the
per-layer metrics of the traced command with the median wall time.  The
last line of stdout is the result as one JSON object; the run's
environment, samples and extra figures go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import tracer
from workloads import SMOKE_PSO, SMOKE_SIZES, WORKLOADS, generate

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
DATASETS = 4  # per run; quality_loss is their mean
#: Times are reported at the host speed at which the probe takes this long.
PROBE_REF_S = 0.25
SMOKE_DATASETS = 2
DEADLINE_S = 170.0  # every child is killed after this much of the run
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "LIPEXT_THREADS",
)
SETUP_CODE = (
    "import sys; import lipext.cli; from lipext.dataio import read_dataset; "
    "from lipext.pipeline import minmax_scale; minmax_scale(read_dataset(sys.argv[1]))"
)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("LIPEXT_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], out_dir: Path, deadline: float) -> tuple[float, float, float, int]:
    """Run one child to exit: (wall s, user+sys CPU s, peak RSS MB, exit code)."""
    timeout = max(0.0, deadline - time.monotonic())
    done = subprocess.run(
        [sys.executable, str(HERE / "spawn.py"), repr(timeout), str(out_dir), sys.executable, *argv],
        env=child_env(), capture_output=True, text=True, timeout=timeout + 10.0, check=True,
    )
    r = json.loads(done.stdout)
    return r["wall_s"], r["cpu_s"], r["peak_rss_mb"], r["exit_code"]


def probe() -> float:
    """Wall time of a fixed computation that mixes numpy and interpreter work.

    It runs before every step and after the last, so that times can be
    scaled to a reference host speed: on a shared host the speed drifts by
    tens of percent over minutes, more than any bound worth setting.  The
    probe does not use lipext, so changes to lipext's speed show in full.
    """
    a = np.random.default_rng(0).uniform(size=(400, 3))
    t0 = time.perf_counter()
    for _ in range(30):
        d = np.sqrt(np.sum((a[:, None, :] - a[None, :, :]) ** 2, axis=-1))
        float(np.max(np.abs(d[0] - d) / (1.0 + d)))
    total = 0
    for k in range(600_000):
        total += k % 7
    return time.perf_counter() - t0


def error_line(out_dir: Path) -> str | None:
    for name in ("stderr.txt", "stdout.txt"):
        with open(out_dir / name, encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("error:"):
                    return line.strip()
    return None


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


class Run:
    """One benchmark run of one workload: its datasets, samples and failures."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: int, smoke: bool):
        self.w = WORKLOADS[workload]
        self.seconds = seconds
        self.trace = trace
        self.deadline = time.monotonic() + DEADLINE_S
        self.work = HERE / "work" / f"{workload}-s{seed}-t{trace}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        extra = []
        if smoke:
            (self.work / "pso.json").write_text(SMOKE_PSO, encoding="utf-8")
            extra = ["--config", str(self.work / "pso.json")]
        self.sets = []
        for k in range(SMOKE_DATASETS if smoke else DATASETS):
            ds = generate(self.w, seed, k, SMOKE_SIZES[workload] if smoke else None)
            d = self.work / f"d{k}"
            d.mkdir()
            (d / "data.csv").write_text(ds.csv_text, encoding="utf-8")
            args = [*self.w.args, "--data", str(d / "data.csv"), "--out", str(d / "out"), *extra]
            self.sets.append({"dir": d, "args": args, "ref": checks.Reference(workload, ds),
                              "csv_bytes": len(ds.csv_text.encode()), "quality": None})
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, k: int, what: str) -> None:
        self.failures.append(f"{self.w.name} dataset {k}: {what}")

    def command(self, k: int, traced: bool = False) -> dict:
        """Run the command on dataset k once, check it, return its sample."""
        s = self.sets[k]
        out = s["dir"] / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        spans = s["dir"] / "spans.json"
        argv = [str(HERE / "tracer.py"), str(spans)] if traced else ["-m", "lipext"]
        wall, cpu, rss, code = spawn(argv + s["args"], s["dir"], self.deadline)
        sample = {"dataset": k, "traced": traced, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss}
        self.attempted += 1
        try:
            checks.expect(code == 0, f"exit code {code}")
            line = error_line(s["dir"])
            checks.expect(line is None, f"printed {line}")
            quality = s["ref"].check(out)
            checks.expect(s["quality"] in (None, quality), f"output differs between runs: {quality}")
            s["quality"] = quality
            if traced:
                doc = json.loads(spans.read_text(encoding="utf-8"))
                dump_s = float(Path(str(spans) + ".dump_s").read_text(encoding="utf-8"))
                sample["wall_s"] = wall - dump_s
                sample["layers"] = tracer.aggregate(doc)
                sample["rebound"] = doc["rebound"]
        except (checks.CheckError, OSError, ValueError, KeyError) as exc:
            self.fail(k, str(exc))
            sample["failed"] = str(exc)
        return sample

    def setup(self, k: int) -> float:
        """Wall time of a fresh process that imports lipext and loads dataset k."""
        self.attempted += 1
        wall, _, _, code = spawn(["-c", SETUP_CODE, str(self.sets[k]["dir"] / "data.csv")],
                                 self.sets[k]["dir"], self.deadline)
        if code != 0 or error_line(self.sets[k]["dir"]) is not None:
            self.fail(k, f"set-up exit code {code}")
        return wall

    def loop(self, step) -> list:
        """Call step(i, k) for steps i = 0, 1, ... on dataset k = i mod the dataset
        count, until the run has lasted long enough."""
        done = []
        t0 = time.monotonic()
        while (not done or time.monotonic() - t0 < self.seconds
               or (not self.trace and len(done) < len(self.sets))):
            if time.monotonic() > self.deadline:
                self.failures.append(f"{self.w.name}: run deadline reached")
                break
            i = len(done)
            done.append(step(i, i % len(self.sets)))
        return done

    def measure(self) -> tuple[dict, dict]:
        """The end-to-end metrics and the extra figures for the results file."""
        probes = []

        def step(i: int, k: int) -> tuple[float, dict]:
            probes.append(probe())
            return self.setup(k), self.command(k)

        steps = self.loop(step)
        probes.append(probe())
        setups = [t for t, _ in steps]
        samples = [c for _, c in steps]
        good = [c for c in samples if "failed" not in c]
        extra = {"samples": samples, "setup_s": setups, "probe_s": probes,
                 "wall_s_tail": tail([c["wall_s"] for c in good])}
        if not good:
            return {}, extra
        measured = {"wall_s": statistics.median(c["wall_s"] for c in good),
                    "cpu_s": statistics.median(c["cpu_s"] for c in good),
                    "setup_s": statistics.median(setups),
                    "probe_s": statistics.median(probes)}
        extra["measured"] = measured
        scale = PROBE_REF_S / measured["probe_s"]
        metrics = {name: {"value": measured[name] * scale, "unit": "s"}
                   for name in ("wall_s", "cpu_s", "setup_s")}
        metrics["peak_rss_mb"] = {
            "value": statistics.median(c["peak_rss_mb"] for c in good), "unit": "MiB",
        }
        if all(s["quality"] for s in self.sets):
            metrics["quality_loss"] = {
                "value": statistics.fmean(s["quality"]["quality_loss"] for s in self.sets),
                "unit": "ratio",
            }
        return metrics, extra

    def measure_traced(self) -> tuple[dict, dict]:
        """The per-layer metrics and the extra figures for the results file."""
        def step(i: int, k: int) -> tuple[dict, dict]:
            # Alternate the order, so that an effect of running second cancels.
            if i % 2:
                traced = self.command(k, traced=True)
                return self.command(k), traced
            return self.command(k), self.command(k, traced=True)

        pairs = self.loop(step)
        pairs = [(u, t) for u, t in pairs if "failed" not in u and "failed" not in t]
        extra = {"samples": [{k: v for k, v in c.items() if k not in ("layers", "rebound")}
                             for p in pairs for c in p]}
        if not pairs:
            return {}, extra
        traced = sorted((t for _, t in pairs), key=lambda t: t["wall_s"])
        extra["wall_s"] = statistics.median(u["wall_s"] for u, _ in pairs)
        extra["traced_wall_s"] = traced[(len(traced) - 1) // 2]["wall_s"]
        extra["rebound"] = traced[0]["rebound"]
        metrics = dict(traced[(len(traced) - 1) // 2]["layers"])
        metrics["trace.overhead_s"] = {
            "value": statistics.median(t["wall_s"] - u["wall_s"] for u, t in pairs), "unit": "s",
        }
        return metrics, extra

    def result(self) -> tuple[dict, dict]:
        """The JSON result line and the extra figures for the results file."""
        self.setup(0)  # compiles bytecode and fills the file cache; not timed
        metrics, extra = self.measure_traced() if self.trace else self.measure()
        extra["datasets"] = [{"csv_bytes": s["csv_bytes"], "quality": s["quality"]} for s in self.sets]
        extra["failures"] = self.failures
        line = {"correct": not self.failures and bool(metrics), "attempted": self.attempted,
                "failed": len(self.failures), "metrics": metrics}
        return line, extra


def describe(workload: str, line: dict, extra: dict) -> list[str]:
    """Human-readable lines for one run: every metric with its unit."""
    rows = [f"{workload}: correct={line['correct']} attempted={line['attempted']} "
            f"failed={line['failed']} fail_ratio={line['failed'] / line['attempted']:.4g}"]
    rows += [f"  {name} = {m['value']:.6g} {m['unit']}" for name, m in line["metrics"].items()]
    if "traced_wall_s" in extra:
        rows.append(f"  untraced wall_s = {extra['wall_s']:.6g} s (median), "
                    f"traced command reported: {extra['traced_wall_s']:.6g} s")
    elif "measured" in extra:
        n = sum(1 for c in extra["samples"] if "failed" not in c)
        rows.append("  measured, not scaled: " + ", ".join(
            f"{name} = {v:.6g} s" for name, v in extra["measured"].items()) + f" (medians; {n} commands)")
        t = extra["wall_s_tail"]
        rows.append(f"  wall_s_tail = {t[1]:.6g} s (p{t[0]:.0f} of {n} samples)" if t else
                    f"  wall_s_tail = n/a ({n} samples; ten beyond a percentile need at least 11)")
    for k, d in enumerate(extra["datasets"]):
        quality = ", ".join(f"{q} = {v:.6g}" for q, v in (d["quality"] or {}).items())
        rows.append(f"  dataset {k}: {d['csv_bytes']} CSV bytes; {quality}")
    rows += [f"  FAILED {f}" for f in extra["failures"]]
    return rows


def run_one(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> tuple[dict, dict]:
    run = Run(workload, seed, seconds, trace, smoke)
    try:
        line, extra = run.result()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "smoke": smoke, "environment": environment(), "result": line, **extra}
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    tag = "smoke-" if smoke else ""
    (results / f"{tag}{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return line, extra


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, traced and not")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes and a short search")
    args = parser.parse_args()
    if not (ROOT / "src" / "lipext" / "cli.py").is_file():
        print(f"error: no lipext sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    seconds = args.seconds
    if seconds is None:
        seconds = 0.0 if args.smoke else json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    if args.workload:
        line, extra = run_one(args.workload, args.seed, seconds, args.trace, args.smoke)
        print("\n".join(describe(args.workload, line, extra)))
        print("environment: " + json.dumps(environment(), sort_keys=True))
        print(json.dumps(line))
        return 0 if line["correct"] else 1

    ok = True
    print("environment: " + json.dumps(environment(), sort_keys=True))
    for workload in WORKLOADS:
        for trace in (0, 1):
            line, extra = run_one(workload, args.seed, seconds, trace, args.smoke)
            print("\n".join(describe(f"{workload} trace={trace}", line, extra)), flush=True)
            ok = ok and line["correct"]
    print("all output checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in benchmark of cubiclass.

    python3 bench/run.py --workload classify --seed 0 --seconds 30 --trace 0

Runs one workload (classify, forms or orbits; see bench/README.md) in this
process, with no worker threads and CUBICLASS_THREADS removed from the
environment, repeating whole passes over the seeded inputs for about
``--seconds``.  Every output goes through its gate.  The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
wrapper installed; with ``--trace 1`` half the time runs untraced and half
under the tracer, and the metrics are the per-layer ones.  Lines before
it give the run conditions and the figures behind each metric, and the
whole result, spans included, is written to bench/out/.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_SPAWNS = 9
SETUP_CODE = (
    "import sys, cubiclass.cli as cli; "
    "sys.exit(cli.main(['admissible', '--n', '2']))"
)
SETUP_OUTPUT = "| n | admissible primes |\n|---|---|\n| 2 | 2, 3, 5 |\n"
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CUBICLASS_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    return env


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def setup_seconds(spawns: int):
    """Median cold start of `admissible --n 2` in a fresh interpreter.

    One extra spawn first lets the byte-code cache fill.  Returns
    (median seconds, error or None).
    """
    env, times = child_env(), []
    for i in range(spawns + 1):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120,
        )
        dt = perf_counter() - t0
        if proc.returncode != 0 or proc.stdout != SETUP_OUTPUT:
            return None, f"setup spawn exited {proc.returncode}: {proc.stderr[-300:]}"
        if i:
            times.append(dt)
    return statistics.median(times), None


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def tail_percentile(values):
    """(q, value) for the highest q in PERCENTILES with >= 10 samples beyond."""
    n = len(values)
    for q in PERCENTILES:
        if n - math.ceil(q / 100 * n) >= 10:
            return q, percentile(values, q)
    return None, None


class Runner:
    """Runs whole passes over the items and gates every output."""

    def __init__(self, items):
        self.items = items
        self.reference = [None] * len(items)  # first output that passed its gate
        self.attempted = 0
        self.failures = []

    def run_pass(self, tracer=None) -> list:
        durations = []
        for idx, item in enumerate(self.items):
            self.attempted += 1
            t0 = perf_counter()
            try:
                if tracer is None:
                    output = item.run()
                else:
                    with tracer.request(f"request.{item.kind}"):
                        output = item.run()
            except Exception as exc:  # a request that raises is a failed item
                durations.append(perf_counter() - t0)
                error = f"raised {exc!r}"
            else:
                durations.append(perf_counter() - t0)
                error = self._gate(idx, output)
            if error is not None:
                self.failures.append(f"{item.kind}: {error}")
        return durations

    def _gate(self, idx: int, output):
        """The item's gate on its first correct output, equality after it."""
        ref = self.reference[idx]
        if ref is not None:
            return None if output == ref else "output differs from the first pass"
        error = self.items[idx].check(output)
        if error is None:
            self.reference[idx] = output
        return error

    def run_for(self, seconds: float, tracer=None) -> list:
        """Whole passes while the next one, timed like the last, ends within
        `seconds`; at least one."""
        passes = []
        t0 = perf_counter()
        while True:
            start = perf_counter()
            passes.append(self.run_pass(tracer))
            now = perf_counter()
            if now - t0 + (now - start) > seconds:
                return passes


def end_to_end(passes, items, setup_s: float):
    """The end-to-end metrics and the lines that give their bases.

    Request-latency percentiles are printed, not reported as metrics: their
    run-to-run spread exceeds any usable bound.
    """
    walls = [sum(p) for p in passes]
    latencies_ms = [d * 1e3 for p in passes for d in p]
    units = sum(item.units for item in items) * len(passes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "items_per_s": (units / sum(walls), "1/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }
    notes = [
        f"setup_s: median of {SETUP_SPAWNS} spawns",
        f"items_per_s: {units} items in {sum(walls):.4f} s",
        f"item_ms.p50: {percentile(latencies_ms, 50):.4f} ms, "
        f"item_ms.p90: {percentile(latencies_ms, 90):.4f} ms",
    ]
    for label, values, unit in (("wall_s", walls, "s"), ("item_ms", latencies_ms, "ms")):
        q, v = tail_percentile(values)
        tail = f"p{q:g} = {v:.4f} {unit}" if q is not None else "none"
        notes.append(
            f"{label}: {len(values)} samples; highest percentile with >= 10 "
            f"samples beyond it: {tail}"
        )
    return metrics, notes


def per_layer(runner, seconds: float, tracing):
    """Half the time untraced, half traced: per-layer metrics and notes."""
    untraced = runner.run_for(seconds / 2)
    with tracing.Tracer() as tracer:
        traced = runner.run_for(seconds / 2, tracer)
    traced_wall = statistics.median(sum(p) for p in traced)
    untraced_wall = statistics.median(sum(p) for p in untraced)
    values = tracing.layer_metrics(tracer.spans, len(traced), traced_wall, untraced_wall)
    metrics = {k: (values[k], u) for k, u in tracing.LAYER_UNITS.items()}
    smq = "smoothness.is_smooth_mod_q"
    notes = [
        f"traced passes: {len(traced)}, untraced passes: {len(untraced)}, "
        f"spans: {len(tracer.spans)}, requests: {tracer.requests}",
        f"{smq}: {values[smq + '.failed']:g} of {values[smq + '.calls']:g} calls "
        f"failed per pass, taking {values[smq + '.failed_s']:.4f} s of a "
        f"{traced_wall:.4f} s traced pass ({values[smq + '.failed_wall_share']:.1%})",
    ]
    return metrics, notes, untraced + traced, tracer.spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cubiclass" / "__init__.py").is_file():
        print(f"error: no cubiclass sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("CUBICLASS_THREADS", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    conditions = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }
    OUT.mkdir(exist_ok=True)
    failures = []
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        items = workloads.WORKLOADS[args.workload](args.seed, Path(workdir))
        runner = Runner(items)
        if args.trace:
            metrics, notes, passes, spans = per_layer(runner, args.seconds, tracing)
        else:
            setup_s, error = setup_seconds(SETUP_SPAWNS)
            runner.attempted += 1
            if error:
                failures.append(f"setup: {error}")
                setup_s = 0.0
            passes, spans = runner.run_for(args.seconds), []
            metrics, notes = end_to_end(passes, items, setup_s)
    failures += runner.failures
    conditions["threads"] = threading.active_count()
    if conditions["threads"] != 1:
        failures.append(f"{conditions['threads']} threads running")

    attempted = runner.attempted
    notes.append(f"failed_ratio: {len(failures)}/{attempted} = {len(failures) / attempted:g}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    suffix = "_trace" if args.trace else ""
    (OUT / f"BENCH_{args.workload}_seed{args.seed}{suffix}.json").write_text(
        json.dumps(
            {"conditions": conditions, "result": result, "notes": notes,
             "failures": failures, "pass_durations": passes, "spans": spans},
            separators=(",", ":"),
        )
    )
    print("# " + " ".join(f"{k}={v}" for k, v in conditions.items()))
    for line in notes + [f"FAILED {f}" for f in failures[:20]]:
        print("# " + line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

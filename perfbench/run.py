"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload crosscheck --seed 1 --seconds 15 --trace 0

Run it from the repository root.  It needs nothing but the Python standard
library and the sources under ``src/``.

``--trace 0`` reports the end-to-end metrics.  Set-up (a fresh interpreter
importing quivergrass and building the workload from the seed) is timed in
``SETUP_SAMPLES`` fresh interpreters, the measuring worker being the last,
and reported as their median.  The measuring worker then runs the workload's
items for ``--seconds``.  Every time is taken on the worker's nominal clock,
which scales wall time by the CPU's measured speed (see ``worker.py``); the
report also prints the wall-clock values.

``--trace 1`` reports the per-layer metrics.  A traced worker runs for half
of ``--seconds``; a fresh untraced worker then runs the same items, and the
ratio of the two speeds is ``trace.overhead_ratio``.  Span times are not
scaled.

Lines before the last are a readable report.  The last line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from tracing import OVERHEAD, metric_unit

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
WORKLOADS = ("crosscheck", "shuffle", "locality", "cli")

# End-to-end metric -> unit.
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
SETUP_SAMPLES = 7
TAIL_BEYOND = 10  # items slower than the reported tail latency
BUDGET_S = 170.0  # the whole run, every worker included


class BenchError(Exception):
    pass


def spawn(args: argparse.Namespace, deadline: float, seconds: float, *extra: str) -> Dict:
    """Run one worker to completion and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted")
    # Workers keep bytecode caches, as an installed package has them, so
    # that set-up does not depend on the caller's PYTHONDONTWRITEBYTECODE.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONHASHSEED"] = str(args.seed % 2**32)
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--spawned-at", repr(time.time()), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(extra) or 'run'} exceeded the time budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_latency(latencies: List[float]) -> Tuple[float, float, int]:
    """(latency, percentile, items beyond): the highest percentile with at
    least TAIL_BEYOND items beyond it."""
    ordered = sorted(latencies)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def _latency_metrics(latencies: List[float]) -> Dict[str, float]:
    return {
        "items_per_s": len(latencies) / sum(latencies),
        "item_p50_ms": statistics.median(latencies) * 1000,
        "item_tail_ms": tail_latency(latencies)[0] * 1000,
    }


def end_to_end(args, deadline: float) -> Tuple[Dict, int, int]:
    probes = [spawn(args, deadline, 0, "--setup-only") for _ in range(SETUP_SAMPLES - 1)]
    run = spawn(args, deadline, args.seconds)
    setup = [p["setup_s"] for p in probes + [run]]
    lat = run["latencies"]
    _, pct, beyond = tail_latency(lat)
    n, failed = len(lat), len(run["wrong"])
    values = {"setup_s": statistics.median(setup), **_latency_metrics(lat),
              "peak_rss_mb": run["peak_rss_mb"]}
    wall = {"setup_s": statistics.median(p["setup_wall_s"] for p in probes + [run]),
            **_latency_metrics(run["wall_latencies"]), "peak_rss_mb": run["peak_rss_mb"]}
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    print(f"{'metric':16s} {'nominal':>12s} {'wall':>12s}")
    for name, (value, unit) in metrics.items():
        print(f"{name:16s} {value:12.4f} {wall[name]:12.4f} {unit}")
    print(f"  setup_s: median of {len(setup)} fresh interpreters: "
          + ", ".join(f"{s:.3f}" for s in setup))
    print(f"  item_tail_ms: p{pct:.2f} of {n} items, {beyond} items beyond it")
    print(f"failed_ratio     {failed / n:12.4f} ratio ({failed} wrong verdicts of {n} items)")
    for key in run["wrong"][:5]:
        print(f"  wrong verdict: {key}")
    return metrics, n, failed


def per_layer(args, deadline: float) -> Tuple[Dict, int, int]:
    # Half the time traced and about half replaying, so that a traced run
    # takes no longer than an untraced one.
    traced = spawn(args, deadline, args.seconds / 2, "--trace")
    n = len(traced["latencies"])
    plain = spawn(args, deadline, args.seconds, "--items", str(n))
    overhead = sum(plain["latencies"]) / sum(traced["latencies"])
    metrics = {name: (value, metric_unit(name)) for name, value in traced["layers"].items()}
    metrics[OVERHEAD] = (overhead, metric_unit(OVERHEAD))
    print(f"traced {n} items in {sum(traced['wall_latencies']):.2f} s; untraced in "
          f"{sum(plain['wall_latencies']):.2f} s (wall clock); "
          f"overhead ratio {overhead:.3f} (nominal clock)")
    print("self time, largest first (share of traced item time):")
    for name, self_s, share in traced["ranking"]:
        print(f"  {name:40s} {self_s:9.3f} s  {100 * share:5.1f}%")
    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value:14.6g} {unit}")
    wrong = traced["wrong"] + plain["wrong"]
    for key in wrong[:5]:
        print(f"  wrong verdict: {key}")
    return metrics, n + len(plain["latencies"]), len(wrong)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "quivergrass" / "__init__.py").is_file():
        print(f"error: no quivergrass sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    try:
        if args.trace:
            metrics, attempted, failed = per_layer(args, deadline)
        else:
            metrics, attempted, failed = end_to_end(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

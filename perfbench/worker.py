"""Run one workload in a fresh interpreter; ``run.py`` starts this process.

The worker builds the workload (set-up), then runs its items in a closed
loop with one client: the next item starts when the previous one has
returned.  It prints one JSON object with every item's latency, the
wrong verdicts and its peak resident memory.  With ``--trace`` the public
quivergrass functions are wrapped for the timed loop only, and the
per-layer metrics are added to the result.

The speed of a shared virtual CPU changes while a run goes on: a fixed
piece of pure-Python work takes up to 1.7 times as long in some
stretches, which last from a tenth of a second to tens of seconds, and
the two vCPUs change independently.  So every time the worker reports is
also given on a nominal clock (``SpeedClock``): an interval timer
interrupts the run every ``PROBE_EVERY_S``, times a fixed reference
routine, and until the next probe wall time counts at the speed that
probe measured, relative to ``REFERENCE_NOMINAL_S``.  The probes' own
time is left out of the nominal clock; wall-clock latencies and traced
spans include it.

    python3 perfbench/worker.py --workload crosscheck --seed 1 --seconds 15 \
        --spawned-at <time.time() of the parent> [--trace | --items N | --setup-only]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

SPANS_DIR = ROOT / ".perfbench_out"
MAX_REPORTED_ERRORS = 5
PROBE_EVERY_S = 0.02
WALL_CAP = 2.0
# One reference run on the machine the bounds were set on (2 vCPUs of an
# Intel Xeon virtual machine) in its fast stretches.
REFERENCE_NOMINAL_S = 0.00056


def _reference_work():
    terms = {}
    for i in range(1, 200):
        k = (i * 2654435761) & 0xFFF
        terms[k] = terms.get(k, Fraction(0)) + Fraction(i, 7 + i % 5)
    return sorted(terms.items())


def reference_s() -> float:
    t0 = time.perf_counter()
    _reference_work()
    return time.perf_counter() - t0


class SpeedClock:
    """Seconds at nominal CPU speed, measured by periodic reference probes."""

    def __init__(self):
        # (nominal seconds at ``last``, perf_counter at the last probe's end,
        # nominal seconds per wall second), replaced as one object so that
        # ``now`` never sees half of an update made by the signal handler.
        scale = REFERENCE_NOMINAL_S / reference_s()
        self.state = (0.0, time.perf_counter(), scale)
        self._previous = None

    def _probe(self, signum, frame) -> None:
        nominal, last, scale = self.state
        nominal += (time.perf_counter() - last) * scale
        scale = REFERENCE_NOMINAL_S / reference_s()
        self.state = (nominal, time.perf_counter(), scale)

    def now(self) -> float:
        t = time.perf_counter()
        nominal, last, scale = self.state
        return nominal + max(t - last, 0.0) * scale

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


def run_loop(clock: SpeedClock, items, more, seconds: float, limit, tracer):
    """Run ``items``, then the passes ``more`` yields, until ``seconds`` have
    passed on the nominal clock, or exactly ``limit`` items.  Counting
    nominal seconds keeps the work a run does, and so its mix of items, the
    same on a slow or a fast CPU.  On a CPU slower than ``WALL_CAP`` times
    the nominal speed the run stops after ``WALL_CAP * seconds`` of wall
    time, so that it still ends in time.

    Returns each item's latency on the wall clock and on the nominal clock,
    and the wrong verdicts.
    """
    wall, nominal, wrong = [], [], []
    start, wall_start = clock.now(), time.perf_counter()
    i = at = 0
    while True:
        if limit is not None:
            if i >= limit:
                break
        elif i and (clock.now() - start >= seconds
                    or time.perf_counter() - wall_start >= WALL_CAP * seconds):
            break
        if at == len(items):
            items, at = next(more), 0
        item = items[at]
        at += 1
        t0, n0 = time.perf_counter(), clock.now()
        try:
            ok = tracer.run_item(i, item.run) if tracer else item.run()
        except Exception:  # an exception is a wrong verdict; keep measuring
            ok = False
            if len(wrong) < MAX_REPORTED_ERRORS:
                traceback.print_exc()
        nominal.append(clock.now() - n0)
        wall.append(time.perf_counter() - t0)
        if not ok:
            wrong.append(repr(item.key))
        i += 1
    return wall, nominal, wrong


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--items", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    with SpeedClock() as clock:
        # Set-up on the nominal clock: the interpreter's start at the speed
        # of the first probe, then the rest as measured.
        started = time.time() - args.spawned_at
        before = started * clock.state[2]
        # Imported here, so that importing quivergrass counts on the clock.
        import tracing
        import workloads

        # Relative paths in the CLI commands and their goldens start at the root.
        os.chdir(ROOT)
        passes = workloads.passes(args.workload, args.seed)
        items = next(passes)
        setup = {"setup_s": before + clock.now(), "setup_wall_s": time.time() - args.spawned_at}
        if args.setup_only:
            print(json.dumps(setup))
            return 0

        # The workload's own inputs stay alive for the whole run; keep them
        # out of the collector's work so that its pauses come from the program.
        gc.collect()
        gc.freeze()
        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        try:
            wall, nominal, wrong = run_loop(clock, items, passes, args.seconds, args.items, tracer)
        finally:
            if tracer:
                tracer.uninstall()

    result = {
        **setup,
        "wall_latencies": wall,
        "latencies": nominal,
        "wrong": wrong,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        summary = tracer.summary()
        result["layers"] = tracer.layer_metrics(summary)
        result["ranking"] = tracing.self_time_ranking(summary)[:8]
        tracer.write(SPANS_DIR / f"spans-{args.workload}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

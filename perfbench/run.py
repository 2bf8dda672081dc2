"""Serving-path benchmark: drives ``QueryService`` and checks every response.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hot_hits --seed 1 --seconds 20 --trace 0

One closed-loop client thread sends a request, waits for its response,
checks it against the reference semantics in ``queries.py`` and sends the
next (``harness.py``). Workloads are defined in ``workloads.py``. With
``--trace 0`` the last line of standard output is a JSON object carrying
the end-to-end metrics; with ``--trace 1`` every other operation of each
kind runs with the layer functions wrapped (``tracing.py``), and the JSON
carries the per-layer metrics and the tracing overhead (``layers.py``).
Untraced runs time their set-ups in a second process (``setups.py``).
See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_to_one_cpu() -> None:
    """Keep the client and the service's workers on one CPU.

    Unpinned, the client and worker threads woke each other across CPUs
    and ``hot_hits`` ran a quarter slower and swung more between identical
    runs. Threads and processes started later inherit the mask, so this
    runs before the service and the set-up process start. Only this
    process and its children are affected.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()

    from harness import Run, counters, end_to_end, peak_rss_mb, percentile, self_check, timed_loop
    from setups import SetupTimer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    rss_baseline = peak_rss_mb()

    setups = None if args.trace else SetupTimer(args.workload, args.seed)
    try:
        run = Run(WORKLOADS[args.workload], args.seed)
        caught = self_check(run)
        print(f"self-check: corrupted response {'caught' if caught else 'NOT caught'}")

        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        else:
            setups.ready()
        before = counters(run)
        gc.collect()
        tally = timed_loop(run, args.seconds, args.seed, tracer, setups)
        after = counters(run)
        peak_growth = peak_rss_mb() - rss_baseline
    finally:
        if setups is not None:
            setups.close()

    for kind in ("read", "write"):
        print(f"{kind}: attempted {tally.attempted[kind]} failed {tally.failed[kind]}")
    for err in tally.errors[:5]:
        print(f"failed: {err}")
    for err in run.warm_errors[:5]:
        print(f"failed during warm-up: {err}")
    p99 = percentile(tally.read_ms, 99)
    beyond = sum(v > p99 for v in tally.read_ms)
    print(f"reads: {len(tally.read_ms)} samples in {len(tally.blocks)} blocks, {beyond} beyond the p99")
    if tally.write_ms:
        print(f"writes: {len(tally.write_ms)} Table calls, p50 {statistics.median(tally.write_ms):.4f} ms")

    if tracer is not None:
        from layers import report

        trace_path = HERE / "traces" / f"{args.workload}-seed{args.seed}.json"
        metrics = report(tracer, tally, before, after, run, trace_path)
    run.close()
    if tracer is None:
        for err in setups.errors[:5]:
            print(f"failed during a timed set-up: {err}")
        print(f"set-ups: {len(setups.seconds)} timed")
        metrics = end_to_end(tally, statistics.median(setups.seconds), peak_growth)
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    result = {
        "correct": caught and not run.warm_errors and not tally.errors and not (setups and setups.errors),
        "attempted": sum(tally.attempted.values()),
        "failed": sum(tally.failed.values()),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

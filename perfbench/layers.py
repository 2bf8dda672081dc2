"""Per-layer metrics from a traced run's spans, responses and cache counters.

A ``*_ms`` metric is the median, over the traced reads that entered the
layer, of the time that read spent in it; ``*_per_read`` counts calls per
traced read; ``*_ratio`` metrics are counter deltas over the whole timed
loop; ``cache.*_bytes`` are read from ``QueryService.caches()`` at its end.
README.md maps each metric to the end-to-end metric it should move.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

#: metric name -> the span names whose per-read time it sums.
TIMED = {
    "server.submit_ms": ("server.submit",),
    "pipeline.prepared_ms": ("pipeline.prepared",),
    "lang.parse_ms": ("lang.parse",),
    "lang.typecheck_ms": ("lang.typecheck",),
    "core.translate_ms": ("core.translate",),
    "algebra.rewrite_ms": ("algebra.rewrite",),
    "engine.compile_ms": ("engine.compile",),
    "engine.execute_ms": ("engine.execute", "engine.analyze"),
    "engine.cache.result_put_ms": ("engine.cache.result_put",),
    "engine.cache.plan_put_ms": ("engine.cache.plan_put",),
    "engine.cache.build_put_ms": ("engine.cache.build_put",),
}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def per_layer(tracer, tally, before: dict, after: dict, run) -> dict:
    responses = tally.traced_responses
    per_read: dict = defaultdict(lambda: defaultdict(float))
    calls: dict = defaultdict(int)
    # Per request: the worker's whole request, and the layer spans in it.
    handle: dict = {}
    in_handle: dict = defaultdict(float)
    write_ms = []
    spans = tracer.spans
    for name, start, end, parent, request, _tid in spans:
        if name == "client.read":
            continue
        if name == "engine.table.write":
            write_ms.append((end - start) * 1e3)
            continue
        if name == "server.handle":
            handle[request] = end - start
            continue
        calls[name] += 1
        per_read[request][name] += end - start
        if parent is not None and spans[parent][0] == "server.handle":
            in_handle[request] += end - start

    reads = len(responses)
    queue_ms = [response.queue_seconds * 1e3 for _, response in responses]
    self_ms = [(handle[request] - in_handle[request]) * 1e3 for request, _ in responses if request in handle]
    metrics = {
        "server.queue_ms": _median(queue_ms),
        "server.self_ms": _median(self_ms),
    }
    for metric, names in TIMED.items():
        times = [sum(spans.get(n, 0.0) for n in names) * 1e3
                 for spans in (per_read[request] for request, _ in responses)
                 if any(n in spans for n in names)]
        metrics[metric] = _median(times)
    metrics["engine.compiles_per_read"] = _ratio(calls["engine.compile"], reads)
    metrics["engine.analyze_per_read"] = _ratio(calls["engine.analyze"], reads)
    metrics["engine.table.write_ms"] = _median(write_ms)

    delta = {k: after[k] - before[k] for k in after}
    metrics["server.result_hit_ratio"] = _ratio(delta["result_hits"], delta["result_lookups"])
    metrics["pipeline.plan_hit_ratio"] = _ratio(delta["plan_hits"], delta["plan_lookups"])
    metrics["engine.build_hit_ratio"] = _ratio(delta["build_hits"], delta["build_lookups"])
    metrics["engine.build_puts_per_read"] = _ratio(delta["build_puts"], len(tally.read_ms))

    caches = run.service.caches(top_k=0)["caches"]
    for name in ("result", "plan", "build"):
        metrics[f"cache.{name}_bytes"] = caches[name]["bytes"]

    units = {"_ms": "ms", "_ratio": "ratio", "_per_read": "count", "_bytes": "bytes"}
    return {
        name: {"value": value, "unit": next(u for suffix, u in units.items() if name.endswith(suffix))}
        for name, value in metrics.items()
    }


#: The spans that tile a read: admission on the client thread, the queue
#: wait, and the worker's request (its own work plus the layers in it).
_TILES = (
    "server.submit_ms",
    "server.queue_ms",
    "server.self_ms",
    "pipeline.prepared_ms",
    "engine.compile_ms",
    "engine.execute_ms",
    "engine.cache.result_put_ms",
)


def accounted_ms(metrics: dict) -> float:
    """Sum of the medians of the layers that tile a read (compile weighted
    by how often a read compiles)."""
    total = 0.0
    for name in _TILES:
        value = metrics[name]["value"]
        if name == "engine.compile_ms":
            value *= min(1.0, metrics["engine.compiles_per_read"]["value"])
        total += value
    return total


def tracing_overhead(samples: list[tuple]) -> tuple[float, float]:
    """Traced against untraced throughput at the run's own operation mix.

    Operations alternate traced / untraced, but a rare slow operation lands
    on one side by chance; so each side's time per operation is its mean
    per operation kind, weighted by how often that kind ran. Kinds seen on
    only one side are left out. Returns (untraced, traced) operations/s.
    """
    sums: dict = {}
    for key, traced, seconds in samples:
        entry = sums.setdefault(key, [0, 0.0, 0, 0.0])
        side = 2 if traced else 0
        entry[side] += 1
        entry[side + 1] += seconds
    untraced = traced = 0.0
    count = 0
    for n_off, t_off, n_on, t_on in sums.values():
        if n_off and n_on:
            n = n_off + n_on
            untraced += n * t_off / n_off
            traced += n * t_on / n_on
            count += n
    return count / untraced, count / traced


def report(tracer, tally, before: dict, after: dict, run, trace_path) -> dict:
    """Write the Chrome trace, print the overhead and coverage, return the
    per-layer metrics."""
    written = tracer.write_chrome(str(trace_path))
    print(f"trace: {written} of {len(tracer.spans)} spans written to {trace_path}")
    metrics = per_layer(tracer, tally, before, after, run)
    untraced, traced = tracing_overhead(tally.samples)
    overhead = untraced / traced - 1
    metrics["trace.overhead_pct"] = {"value": overhead * 100, "unit": "%"}
    print(f"tracing overhead: untraced {untraced:.1f} ops/s, traced {traced:.1f} ops/s ({overhead * 100:+.1f}%)")
    client_p50 = statistics.median(ms * 1e3 for key, on, ms in tally.samples if on and key != "write")
    layers = accounted_ms(metrics)
    print(f"layers account for {layers:.4f} of {client_p50:.4f} ms traced read p50 ({layers / client_p50:.0%})")
    return metrics

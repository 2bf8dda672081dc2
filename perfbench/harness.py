"""The benchmark's client: set-up, the timed loop, and the end-to-end metrics.

Imported by ``run.py`` once the program's ``src`` directory is on the path.
"""

from __future__ import annotations

import array
import dataclasses
import os
import random
import resource
import statistics
import time

from repro import clear_plan_cache, plan_cache_stats, run_query
from repro.engine.cache import build_cache_stats, clear_build_cache
from repro.server.request import bind_params
from repro.server.service import QueryService

from check import Checker
from data import make_catalog
from queries import FAMILIES
from setups import SETUP_EVERY

#: Rounds are grouped into blocks of at least this much service time and
#: this many reads; throughput, read p50 and CPU per operation are medians
#: over blocks. The read p99 is taken over all the reads of the run.
BLOCK_SECONDS, BLOCK_READS = 1.0, 1000
#: Reads per run whose response is also compared with the interpreter.
ORACLE_SAMPLE = 2

END_TO_END_UNITS = {
    "throughput_ops": "1/s",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class Run:
    """One workload's service, catalog, shadow rows and checker."""

    def __init__(self, workload_cls, seed: int):
        # Every set-up starts cold, as a fresh process would.
        clear_plan_cache()
        clear_build_cache()
        start = time.perf_counter()
        self.workload = workload_cls(seed)
        self.catalog, self.shadow, self.maker = make_catalog(seed, self.workload.scale)
        self.service = QueryService(
            self.catalog,
            workers=min(2, os.cpu_count() or 1),
            result_cache_size=self.workload.result_cache_size,
        ).start()
        warm = [(op, self.read(op)) for op in self.workload.warmup()]
        self.setup_seconds = time.perf_counter() - start
        self.checker = Checker(self.catalog, self.shadow)
        self.warm_errors = [err for op, resp in warm if (err := self.checker.check(op, resp))]
        self.warm = warm

    def read(self, op):
        family = FAMILIES[op.family]
        params = None if family.param is None else {family.param: op.param}
        return self.service.submit(family.text, params=params).result()

    def write(self, op) -> tuple[float, float]:
        """Apply a write to the catalog and the shadow.

        Returns the wall and CPU seconds of the ``Table`` call alone.
        """
        table = self.catalog[op.table]
        rows = self.shadow[op.table]
        if op.action == "insert":
            row = self.maker.fresh(op.table, self.shadow)
            start, cpu = time.perf_counter(), time.thread_time()
            table.insert([row])
            elapsed, cpu = time.perf_counter() - start, time.thread_time() - cpu
            rows.append(row)
        else:
            victim = self.workload.rng.choice(rows)
            start, cpu = time.perf_counter(), time.thread_time()
            table.delete(lambda row: row is victim)
            elapsed, cpu = time.perf_counter() - start, time.thread_time() - cpu
            del rows[next(i for i, row in enumerate(rows) if row is victim)]
        self.checker.on_write(op.table)
        return elapsed, cpu

    def close(self) -> None:
        self.service.stop()


def self_check(run: Run) -> bool:
    """Corrupt one verified response and confirm the checker rejects it."""
    for op, resp in run.warm:
        if resp.ok and resp.value:
            dropped = next(iter(resp.value))
            bad = dataclasses.replace(resp, value=resp.value - {dropped})
            return run.checker.check(op, bad) is not None
    return False


def oracle_agrees(run: Run, op, response) -> bool:
    """The interpreter oracle gives the value the service served."""
    family = FAMILIES[op.family]
    text = bind_params(family.text, None if family.param is None else {family.param: op.param})
    return run_query(text, run.catalog, engine="interpret").value == response.value


class Block:
    """Whole rounds timed together: operations, service seconds, CPU, reads."""

    __slots__ = ("ops", "seconds", "cpu", "reads")

    def __init__(self):
        self.ops, self.seconds, self.cpu, self.reads = 0, 0.0, 0.0, array.array("d")

    def add(self, ops: int, seconds: float, cpu: float, reads) -> None:
        self.ops += ops
        self.seconds += seconds
        self.cpu += cpu
        self.reads.extend(reads)

    def full(self) -> bool:
        return self.seconds >= BLOCK_SECONDS and len(self.reads) >= BLOCK_READS


class Tally:
    """Operations, latencies and the time the service was driven."""

    def __init__(self):
        self.attempted = {"read": 0, "write": 0}
        self.failed = {"read": 0, "write": 0}
        # Flat arrays: the run's own memory should not grow with its speed.
        self.read_ms = array.array("d")
        self.write_ms = array.array("d")
        self.blocks: list[Block] = [Block()]
        self.errors: list[str] = []
        #: Traced runs only: (operation key, traced?, seconds) per operation.
        self.samples: list[tuple] = []
        #: Traced runs only: (request id, response) per traced read.
        self.traced_responses: list[tuple] = []


def timed_loop(run: Run, seconds: float, seed: int, tracer=None, setups=None) -> Tally:
    """Send whole rounds until *seconds* of service time have passed.

    Client-side work (drawing the next round, checking responses, the
    oracle sample, keeping the shadow rows) is timed separately and left
    out of throughput and CPU per operation; latencies never include it.
    Rounds are grouped into blocks (``BLOCK_SECONDS``, ``BLOCK_READS``).
    With a *tracer*, every other operation of each kind runs traced. With
    a ``setups.SetupTimer``, one set-up is timed before the first
    operation and then before the first operation that starts
    ``SETUP_EVERY`` seconds of service time after the last; the loop waits
    for it, as client time.
    """
    tally = Tally()
    oracle_rng = random.Random(seed)
    client_wall = client_cpu = 0.0
    wall0, cpu0 = time.perf_counter(), time.process_time()
    service = service_cpu = 0.0
    round_no = 0
    traced = False
    seen: dict = {}
    next_setup = 0.0
    while True:
        c0, t0 = time.perf_counter(), time.thread_time()
        ops = run.workload.round()
        first_read = len(tally.read_ms)
        if round_no == 0:
            oracle_at = set(oracle_rng.sample(range(len(ops)), ORACLE_SAMPLE))
        for i, op in enumerate(ops):
            if setups is not None and c0 - wall0 - client_wall >= next_setup:
                # Client time: it falls between c0 and the operation's start.
                setups.time_one()
                next_setup = c0 - wall0 - client_wall + SETUP_EVERY
            if tracer is not None:
                # Alternate per kind of operation, so each family (and
                # the writes) is traced half the time.
                key = "write" if op.kind == "write" else op.family
                seen[key] = seen.get(key, 0) + 1
                traced = seen[key] % 2 == 0
                tracer.request = (round_no, i)
            tally.attempted[op.kind] += 1
            now, now_cpu = time.perf_counter(), time.thread_time()
            client_wall += now - c0
            client_cpu += now_cpu - t0
            if traced:
                tracer.install()
            if op.kind == "write":
                elapsed, cpu = run.write(op)
                tally.write_ms.append(elapsed * 1e3)
                # Only the Table call is service time; the rest of the
                # write (drawing the row, the shadow) is client time.
                c0, t0 = now + elapsed, now_cpu + cpu
                if traced:
                    tracer.uninstall()
            else:
                start = time.perf_counter()
                response = run.read(op)
                c0 = time.perf_counter()
                t0 = time.thread_time()
                elapsed = c0 - start
                if traced:
                    tracer.uninstall()
                tally.read_ms.append(elapsed * 1e3)
                err = run.checker.check(op, response)
                if err is None and round_no == 0 and i in oracle_at and not oracle_agrees(run, op, response):
                    err = "differs from the interpreter oracle"
                if err is not None:
                    tally.failed["read"] += 1
                    tally.errors.append(f"{op.family}({op.param}): {err}")
                if traced:
                    tracer.span("client.read", start, c0)
                    tally.traced_responses.append((tracer.request, response))
            if tracer is not None:
                tally.samples.append((key, traced, elapsed))
        round_no += 1
        client_wall += time.perf_counter() - c0
        client_cpu += time.thread_time() - t0
        last_service, last_cpu = service, service_cpu
        service = time.perf_counter() - wall0 - client_wall
        service_cpu = time.process_time() - cpu0 - client_cpu
        if tally.blocks[-1].full():
            tally.blocks.append(Block())
        tally.blocks[-1].add(len(ops), service - last_service, service_cpu - last_cpu, tally.read_ms[first_read:])
        if service >= seconds:
            break
    if len(tally.blocks) > 1 and not tally.blocks[-1].full():
        # A short last block would give a noisy figure: fold it into the one before.
        last = tally.blocks.pop()
        tally.blocks[-1].add(last.ops, last.seconds, last.cpu, last.reads)
    return tally


def percentile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(tally: Tally, setup_s: float, peak_growth_mb: float) -> dict:
    """Medians over blocks, so a stretch in which the shared machine ran
    slow moves a metric only once it covers half the run.

    The p99 is the exception: it is taken over every read of the run. A
    block's p99 rests on the ten reads beyond it, and on ``param_sweep``
    most of those are nested-loop reads and full garbage collections, so
    one more of them in a block moved its p99 from the tail of the COUNT
    shape to a 20–120 ms pause. Over the whole run, at least forty reads
    lie beyond the p99, and the outliers fill a steady share of them.

    *peak_growth_mb* is the peak resident set above the one the process had
    once the interpreter and the program were imported.
    """
    blocks = tally.blocks
    values = {
        "throughput_ops": statistics.median(b.ops / b.seconds for b in blocks),
        "read_p50_ms": statistics.median(statistics.median(b.reads) for b in blocks),
        "read_p99_ms": percentile(tally.read_ms, 99),
        "cpu_ms_per_op": statistics.median(b.cpu * 1e3 / b.ops for b in blocks),
        "peak_rss_mb": peak_growth_mb,
        "setup_s": setup_s,
    }
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()}


def counters(run: Run) -> dict:
    """Cache counters that the per-layer ratios are deltas of."""
    plan, build = plan_cache_stats(), build_cache_stats()
    service = run.service.stats()["counters"]
    return {
        "plan_hits": plan.hits,
        "plan_lookups": plan.lookups,
        "build_hits": build.hits,
        "build_lookups": build.lookups,
        "build_puts": build.inserts,
        "result_hits": service["result_hits"],
        "result_lookups": service["result_hits"] + service["result_misses"] + service["result_coalesced"],
    }

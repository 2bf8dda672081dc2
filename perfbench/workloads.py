"""The four serving workloads: catalog scale, service settings, request rounds.

A run repeats whole *rounds*: one round is a fixed multiset of operations,
shuffled by the run's seed, so every run holds the same mix whatever its
length. An operation is a read (a query family plus its parameter binding)
or a write (a single-row insert or delete on one table).
"""

from __future__ import annotations

import random

from data import PARAM_DOMAIN, TABLES
from queries import PAPER


class Read:
    __slots__ = ("family", "param")
    kind = "read"

    def __init__(self, family: str, param=None):
        self.family = family
        self.param = param


class Write:
    __slots__ = ("table", "action")
    kind = "write"

    def __init__(self, table: str, action: str):
        self.table = table
        self.action = action


class Workload:
    """One traffic mix: the catalog it runs on and the rounds it sends.

    ``result_cache_size`` is the only service setting that departs from the
    ``QueryService`` defaults, and only ``miss_exec`` departs.
    """

    name = ""
    scale = 1
    result_cache_size = 256

    def __init__(self, seed: int):
        self.rng = random.Random(seed ^ 0x5EED)

    def warmup(self) -> list:
        return self.round()

    def round(self) -> list:
        raise NotImplementedError


class HotHits(Workload):
    """The paper queries plus 16 point lookups; all result-cache hits once warm."""

    name = "hot_hits"

    def __init__(self, seed: int):
        super().__init__(seed)
        # Keys span R.a and a little beyond it, so a few lookups select nothing.
        self.keys = self.rng.sample(range(220 * self.scale), 16)

    def round(self) -> list:
        ops = [Read(f) for f in PAPER] + [Read("lookup", k) for k in self.keys]
        self.rng.shuffle(ops)
        return ops


class MissExec(Workload):
    """The paper queries on a catalog twice the default, result cache off."""

    name = "miss_exec"
    scale = 2
    result_cache_size = 0

    def warmup(self) -> list:
        return self.round() + self.round()

    def round(self) -> list:
        ops = [Read(f) for f in PAPER]
        self.rng.shuffle(ops)
        return ops


class WriteChurn(Workload):
    """Paper queries interleaved with single-row writes, one write in eight.

    A round holds an insert and a delete on each of the seven tables the
    queries read (14 writes) and each paper query 14 times (98 reads): seven
    reads, then a write, fourteen times over. Inserts and deletes balance,
    so table sizes hold steady over a run.
    """

    name = "write_churn"
    scale = 4

    def warmup(self) -> list:
        ops = [Read(f) for f in PAPER]
        self.rng.shuffle(ops)
        return ops

    def round(self) -> list:
        writes = [Write(t, a) for t in TABLES for a in ("insert", "delete")]
        self.rng.shuffle(writes)
        ops: list = []
        for write in writes:
            reads = [Read(f) for f in PAPER]
            self.rng.shuffle(reads)
            ops += reads
            ops.append(write)
        return ops


class ParamSweep(Workload):
    """Parameterized Table 2 shapes, almost every bound text new.

    A round binds each of the five join-translated shapes 200 times with
    values drawn from ``PARAM_DOMAIN`` (16x the plan cache), IN and NOT IN
    sharing each value so their answers can be checked to partition X.
    It also sends each nested-loop shape once: 2 of 1,002 reads (0.2%), so
    they weigh on throughput. Full garbage collections land on about
    another 0.4% of reads. Together they stay well inside the 1% that
    ``read_p99_ms`` looks past, so the p99 falls in the tail of the COUNT
    shape rather than at the edge of these outliers (see README.md).
    """

    name = "param_sweep"
    PER_SHAPE = 200

    def _p(self) -> int:
        return self.rng.randrange(PARAM_DOMAIN)

    def _sal(self) -> int:
        return 20000 + 50 * self.rng.randrange(PARAM_DOMAIN)

    def warmup(self) -> list:
        p = self._p()
        return [
            Read("p_count", self._p()),
            Read("p_in", p),
            Read("p_not_in", p),
            Read("p_subseteq", self._p()),
            Read("p_select", self._sal()),
        ]

    def round(self) -> list:
        ops: list = []
        for _ in range(self.PER_SHAPE):
            p = self._p()
            ops += [
                Read("p_count", self._p()),
                Read("p_in", p),
                Read("p_not_in", p),
                Read("p_subseteq", self._p()),
                Read("p_select", self._sal()),
            ]
        ops += [Read("p_exists", self._p()), Read("p_uncorrelated_in", self._p())]
        self.rng.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (HotHits, MissExec, WriteChurn, ParamSweep)}

"""The benchmark's query texts and their reference semantics.

The texts are the benchmark's own copy: a change to ``repro.workloads`` or
``repro.server.workload`` cannot change what is measured. Each family has
a direct Python evaluation over the shadow rows (hash grouping, never the
engine), and every response is compared with it. ``properties`` holds the
checks that hold beside the reference: the COUNT-bug rows that must
survive, and the IN / NOT IN partition of the outer table.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from repro import Tup

EMPTY: frozenset = frozenset()

# -- the seven paper queries (Sections 2-8) ---------------------------------

COUNT_BUG = "SELECT r FROM R r WHERE r.b = COUNT(SELECT s FROM S s WHERE r.c = s.c)"
Q1_SAME_STREET = (
    "SELECT d FROM DEPT d WHERE (s = d.address.street, c = d.address.city) "
    "IN (SELECT (s = e.address.street, c = e.address.city) FROM d.emps e)"
)
Q2_EMPS_BY_CITY = (
    "SELECT (dname = d.name, emps = (SELECT e FROM EMP e "
    "WHERE e.address.city = d.address.city)) FROM DEPT d"
)
SUBSETEQ_BUG = "SELECT x FROM X x WHERE x.a SUBSETEQ (SELECT y.a FROM Y y WHERE x.b = y.b)"
SECTION8 = (
    "SELECT x FROM X x WHERE x.a SUBSETEQ (SELECT y.a FROM Y y WHERE x.b = y.b AND "
    "y.c SUBSETEQ (SELECT z.c FROM Z z WHERE y.d = z.d))"
)
SECTION8_FLAT = (
    "SELECT x FROM X x WHERE x.c IN (SELECT y.a FROM Y y WHERE x.b = y.b AND "
    "y.a NOT IN (SELECT z.c FROM Z z WHERE y.d = z.d))"
)
UNNEST_COLLAPSE = "UNNEST(SELECT (SELECT (a = x.a, b = y.b) FROM Y y WHERE x.b = y.a) FROM X x)"

POINT_LOOKUP = "SELECT r FROM R r WHERE r.a = $key"

# -- parameterized Table 2 shapes (param_sweep) ------------------------------

PARAM_COUNT = "SELECT r FROM R r WHERE r.b = COUNT(SELECT s FROM S s WHERE r.c = s.c AND s.d < $p)"
PARAM_IN = "SELECT x FROM X x WHERE x.c IN (SELECT y.a FROM Y y WHERE x.b = y.b AND y.e < $p)"
PARAM_NOT_IN = "SELECT x FROM X x WHERE x.c NOT IN (SELECT y.a FROM Y y WHERE x.b = y.b AND y.e < $p)"
PARAM_SUBSETEQ = "SELECT x FROM X x WHERE x.a SUBSETEQ (SELECT y.a FROM Y y WHERE x.b = y.b AND y.e < $p)"
PARAM_SELECT = (
    "SELECT (dname = d.name, emps = (SELECT e FROM EMP e "
    "WHERE e.address.city = d.address.city AND e.sal < $p)) FROM DEPT d"
)
# The two shapes the translator leaves as per-row nested loops: a quantifier
# directly over a stored table, and an uncorrelated IN subquery.
PARAM_EXISTS = "SELECT r FROM R r WHERE EXISTS s IN S (s.c = r.c AND s.d < $p)"
PARAM_UNCORRELATED_IN = "SELECT r FROM R r WHERE r.c IN (SELECT s.c FROM S s WHERE s.d < $p)"


# -- reference semantics -----------------------------------------------------

def _count_bug(sh: dict, p=None) -> frozenset:
    # A table is a set: equal S rows (S.d is drawn at random) count once.
    counts = Counter(s.c for s in set(sh["S"]) if p is None or s.d < p)
    return frozenset(r for r in sh["R"] if r.b == counts.get(r.c, 0))


def _q1(sh: dict, _p=None) -> frozenset:
    out = set()
    for d in sh["DEPT"]:
        street, city = d.address.street, d.address.city
        if any(e.address.street == street and e.address.city == city for e in d.emps):
            out.add(d)
    return frozenset(out)


def _q2(sh: dict, p=None) -> frozenset:
    by_city: dict = defaultdict(set)
    for e in sh["EMP"]:
        if p is None or e.sal < p:
            by_city[e.address.city].add(e)
    return frozenset(
        Tup(dname=d.name, emps=frozenset(by_city.get(d.address.city, EMPTY))) for d in sh["DEPT"]
    )


def _ya_by_b(sh: dict, p=None) -> dict:
    ya: dict = defaultdict(set)
    for y in sh["Y"]:
        if p is None or y.e < p:
            ya[y.b].add(y.a)
    return ya


def _subseteq(sh: dict, p=None) -> frozenset:
    ya = _ya_by_b(sh, p)
    return frozenset(x for x in sh["X"] if x.a <= ya.get(x.b, EMPTY))


def _zc_by_d(sh: dict) -> dict:
    zc: dict = defaultdict(set)
    for z in sh["Z"]:
        zc[z.d].add(z.c)
    return zc


def _section8(sh: dict, _p=None) -> frozenset:
    zc = _zc_by_d(sh)
    ya: dict = defaultdict(set)
    for y in sh["Y"]:
        if y.c <= zc.get(y.d, EMPTY):
            ya[y.b].add(y.a)
    return frozenset(x for x in sh["X"] if x.a <= ya.get(x.b, EMPTY))


def _section8_flat(sh: dict, _p=None) -> frozenset:
    zc = _zc_by_d(sh)
    ya: dict = defaultdict(set)
    for y in sh["Y"]:
        if y.a not in zc.get(y.d, EMPTY):
            ya[y.b].add(y.a)
    return frozenset(x for x in sh["X"] if x.c in ya.get(x.b, EMPTY))


def _unnest(sh: dict, _p=None) -> frozenset:
    yb: dict = defaultdict(set)
    for y in sh["Y"]:
        yb[y.a].add(y.b)
    return frozenset(Tup(a=x.a, b=b) for x in sh["X"] for b in yb.get(x.b, EMPTY))


def _lookup(sh: dict, key) -> frozenset:
    return frozenset(r for r in sh["R"] if r.a == key)


def _in(sh: dict, p) -> frozenset:
    ya = _ya_by_b(sh, p)
    return frozenset(x for x in sh["X"] if x.c in ya.get(x.b, EMPTY))


def _not_in(sh: dict, p) -> frozenset:
    ya = _ya_by_b(sh, p)
    return frozenset(x for x in sh["X"] if x.c not in ya.get(x.b, EMPTY))


def _r_with_partner(sh: dict, p) -> frozenset:
    # Both nested-loop shapes mean "R rows with an S partner on c whose
    # d is below p".
    cs = {s.c for s in sh["S"] if s.d < p}
    return frozenset(r for r in sh["R"] if r.c in cs)


class Family:
    """A query text, the tables it reads, the parameter name it binds (if
    any), and its reference."""

    def __init__(self, name: str, text: str, tables: tuple, reference, param: str | None = None):
        self.name = name
        self.text = text
        self.tables = tables
        self.reference = reference
        self.param = param


RS, XY, XYZ, COMPANY = ("R", "S"), ("X", "Y"), ("X", "Y", "Z"), ("EMP", "DEPT")

FAMILIES = {
    f.name: f
    for f in (
        Family("count_bug", COUNT_BUG, RS, _count_bug),
        Family("q1", Q1_SAME_STREET, ("DEPT",), _q1),
        Family("q2", Q2_EMPS_BY_CITY, COMPANY, _q2),
        Family("subseteq_bug", SUBSETEQ_BUG, XY, _subseteq),
        Family("section8", SECTION8, XYZ, _section8),
        Family("section8_flat", SECTION8_FLAT, XYZ, _section8_flat),
        Family("unnest", UNNEST_COLLAPSE, XY, _unnest),
        Family("lookup", POINT_LOOKUP, ("R",), _lookup, param="key"),
        Family("p_count", PARAM_COUNT, RS, _count_bug, param="p"),
        Family("p_in", PARAM_IN, XY, _in, param="p"),
        Family("p_not_in", PARAM_NOT_IN, XY, _not_in, param="p"),
        Family("p_subseteq", PARAM_SUBSETEQ, XY, _subseteq, param="p"),
        Family("p_select", PARAM_SELECT, COMPANY, _q2, param="p"),
        Family("p_exists", PARAM_EXISTS, RS, _r_with_partner, param="p"),
        Family("p_uncorrelated_in", PARAM_UNCORRELATED_IN, RS, _r_with_partner, param="p"),
    )
}

#: The seven paper queries, in paper order.
PAPER = ("count_bug", "q1", "q2", "subseteq_bug", "section8", "section8_flat", "unnest")


# -- properties beside the reference -----------------------------------------

def count_bug_survivors(sh: dict, p=None) -> frozenset:
    """R rows with no S partner (after the filter) and b = 0.

    The COUNT bug of Section 2 loses exactly these rows; the nest-join
    translation must keep every one of them.
    """
    partnered = {s.c for s in sh["S"] if p is None or s.d < p}
    return frozenset(r for r in sh["R"] if r.b == 0 and r.c not in partnered)


def partitions(outer: list, inside: frozenset, outside: frozenset) -> bool:
    """IN and NOT IN of one predicate split the outer table in two."""
    return not (inside & outside) and (inside | outside) == frozenset(outer)

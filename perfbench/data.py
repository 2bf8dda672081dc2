"""Seeded catalogs for the serving benchmark, and the shadow rows they mirror.

Every catalog is built through the public loading API only
(``Catalog.add_rows`` of ``Tup`` rows), from a ``random.Random(seed)``, so
the same seed gives identical inputs. Next to the catalog the benchmark
keeps *shadow* rows: a dict of plain Python lists holding the very same
``Tup`` objects. Writes are applied to both, so the reference semantics in
``queries.py`` can always be evaluated at the catalog version a response
reports.

The universes mirror the paper's examples: R/S (the COUNT bug), X/Y/Z (the
SUBSETEQ bug and the Section 8 chain), and EMP/DEPT (Q1/Q2). ``scale``
multiplies every table; scale 1 is R 200 / S 1,200, X/Y/Z 40 (Z 80 rows),
8 departments / 80 employees.
"""

from __future__ import annotations

import random

from repro import Catalog, Tup

#: Parameter domain of the sweep: values of S.d and Y.e are drawn from it,
#: and ``param_sweep`` draws its ``$p`` bindings from it. 2,048 values per
#: shape is 16x the plan cache's 128 entries, so a bound text almost never
#: repeats while it is still cached.
PARAM_DOMAIN = 2048

#: Tables the seven paper queries read; ``write_churn`` mutates all of them.
TABLES = ("R", "S", "X", "Y", "Z", "EMP", "DEPT")

CITIES = ("Enschede", "Hengelo", "Almelo", "Zwolle", "Deventer", "Apeldoorn", "Arnhem", "Nijmegen")
STREETS = ("Drienerlolaan", "Oude Markt", "Langestraat", "Stationsplein", "De Heurne", "Boulevard 1945")
SET_DOMAIN = 8


class RowMaker:
    """Generates fresh rows for each table (catalog build and inserts)."""

    def __init__(self, rng: random.Random, scale: int):
        self.rng = rng
        self.n_r = 200 * scale
        self.n_s = 1200 * scale
        self.n_chain = 40 * scale
        self.n_dept = 8 * scale
        self.n_emp = 80 * scale
        self.next_a = self.n_r
        self.next_emp = self.n_emp
        self.next_dept = self.n_dept

    def address(self) -> Tup:
        rng = self.rng
        return Tup(street=rng.choice(STREETS), nr=str(rng.randrange(1, 200)), city=rng.choice(CITIES))

    def int_set(self) -> frozenset:
        return frozenset(self.rng.sample(range(SET_DOMAIN), k=self.rng.randrange(1, 3)))

    def r_row(self, a: int, partners: int) -> Tup:
        # Half the rows carry their true partner count in b, so the COUNT
        # predicate accepts a known mix of matched and dangling rows.
        b = partners if self.rng.random() < 0.5 else partners + 1 + self.rng.randrange(3)
        return Tup(a=a, b=b, c=a)

    def s_row(self, c: int) -> Tup:
        return Tup(c=c, d=self.rng.randrange(PARAM_DOMAIN))

    def x_row(self, empty: bool = False) -> Tup:
        rng = self.rng
        a = frozenset() if empty else self.int_set()
        return Tup(a=a, b=rng.randrange(self.n_chain), c=rng.randrange(SET_DOMAIN))

    def y_row(self, b: int) -> Tup:
        rng = self.rng
        return Tup(
            a=rng.randrange(SET_DOMAIN),
            b=b,
            c=self.int_set(),
            d=rng.randrange(int(self.n_chain * 0.7)),
            e=rng.randrange(PARAM_DOMAIN),
        )

    def z_row(self) -> Tup:
        rng = self.rng
        return Tup(c=rng.randrange(SET_DOMAIN), d=rng.randrange(self.n_chain))

    def emp_row(self, i: int) -> Tup:
        return Tup(name=f"emp-{i}", address=self.address(), sal=self.rng.randrange(20, 120) * 1000)

    def dept_row(self, i: int, emps: list[Tup]) -> Tup:
        address = self.address()
        if emps and self.rng.random() < 0.3:
            # Relocate one member to the department's street and city, so
            # Q1 has answers.
            k = self.rng.randrange(len(emps))
            emps = list(emps)
            emps[k] = emps[k].replace(address=address.replace(nr=emps[k].address.nr))
        return Tup(name=f"dept-{i}", address=address, emps=frozenset(emps))

    # -- single fresh rows for write_churn inserts -----------------------
    def fresh(self, table: str, shadow: dict) -> Tup:
        rng = self.rng
        if table == "R":
            # A new key; c may or may not meet an S row.
            self.next_a += 1
            return Tup(a=self.next_a, b=rng.randrange(4), c=rng.randrange(2 * self.n_r))
        if table == "S":
            return self.s_row(rng.randrange(self.n_r))
        if table == "X":
            return self.x_row(empty=rng.random() < 0.15)
        if table == "Y":
            return self.y_row(rng.randrange(self.n_chain))
        if table == "Z":
            return self.z_row()
        if table == "EMP":
            self.next_emp += 1
            return self.emp_row(self.next_emp)
        if table == "DEPT":
            self.next_dept += 1
            members = rng.sample(shadow["EMP"], k=min(len(shadow["EMP"]), 10))
            return self.dept_row(self.next_dept, members)
        raise KeyError(table)


def make_catalog(seed: int, scale: int) -> tuple[Catalog, dict, RowMaker]:
    """A seeded catalog at *scale*, its shadow rows, and its row maker."""
    rng = random.Random(seed)
    maker = RowMaker(rng, scale)
    n_r, n_s, n_chain = maker.n_r, maker.n_s, maker.n_chain
    matched = n_r // 2
    r_rows = [maker.r_row(i, 3 if i < matched else 0) for i in range(n_r)]
    s_rows = [maker.s_row(i) for i in range(matched) for _ in range(3)]
    # Pad S with rows that join no R row.
    s_rows += [maker.s_row(n_r + k) for k in range(n_s - len(s_rows))]
    # The first X row is non-empty so the inferred type is a set of INT;
    # about 15% of the rest have a = {} (the SUBSETEQ-bug candidates).
    x_rows = [maker.x_row(empty=i > 0 and rng.random() < 0.15) for i in range(n_chain)]
    # Y.b covers 70% of X.b values, so some X rows have no Y partner.
    y_rows = [maker.y_row(rng.randrange(int(n_chain * 0.7))) for _ in range(n_chain)]
    z_rows = [maker.z_row() for _ in range(2 * n_chain)]
    emps = [maker.emp_row(i) for i in range(maker.n_emp)]
    groups: list[list[Tup]] = [[] for _ in range(maker.n_dept)]
    for emp in emps:
        groups[rng.randrange(maker.n_dept)].append(emp)
    depts = [maker.dept_row(i, groups[i] or [emps[i]]) for i in range(maker.n_dept)]

    tables = {"R": r_rows, "S": s_rows, "X": x_rows, "Y": y_rows, "Z": z_rows, "EMP": emps, "DEPT": depts}
    catalog = Catalog()
    for name, rows in tables.items():
        catalog.add_rows(name, rows, key=("a",) if name == "R" else None)
    shadow = {name: list(rows) for name, rows in tables.items()}
    return catalog, shadow, maker

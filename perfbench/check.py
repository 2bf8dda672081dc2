"""Checks every response against the reference semantics and properties."""

from __future__ import annotations

from queries import FAMILIES, count_bug_survivors, partitions

#: Families whose answers must keep the COUNT-bug survivors.
_COUNT_FAMILIES = ("count_bug", "p_count")
#: IN / NOT IN pairs that must partition X for one parameter value.
_PARTNER = {"p_in": "p_not_in", "p_not_in": "p_in"}
#: Tables each memo key reads, by the key's first element.
_TABLES = {name: f.tables for name, f in FAMILIES.items()} | {"survivors": ("R", "S")}
#: Memo entries kept before starting over. The memos only pay off for
#: repeated reads (hot_hits has 23 keys); param_sweep keys rarely repeat,
#: and a larger memo would hold thousands of answers alive.
MEMO_LIMIT = 256


class Checker:
    """Verifies responses at the catalog version they report.

    Reference answers are memoized per (family, parameter) until a write
    touches a table the family reads, so a write recomputes only the
    references it can change. A value object that was already verified for
    the same key is accepted by identity: result-cache hits hand back the
    very object that was checked, and frozensets cannot change.
    """

    def __init__(self, catalog, shadow: dict):
        self.catalog = catalog
        self.shadow = shadow
        self.catalog_version = catalog.version
        self._refs: dict = {}
        self._verified: dict = {}
        self._unpaired: dict = {}

    def on_write(self, table: str) -> None:
        """A write moved the catalog and the shadow rows of *table*.

        Memo entries that read *table* are dropped.
        """
        self.catalog_version = self.catalog.version
        self._unpaired.clear()
        for memo in (self._refs, self._verified):
            for key in [k for k in memo if table in _TABLES[k[0]]]:
                del memo[key]

    def _memo(self, key: tuple, compute):
        value = self._refs.get(key)
        if value is None:
            if len(self._refs) >= MEMO_LIMIT:
                self._refs.clear()
            value = self._refs[key] = compute()
        return value

    def check(self, op, response) -> str | None:
        """None when *response* is right for *op*, else what is wrong."""
        if response.outcome != "ok":
            return f"outcome {response.outcome}: {response.error}"
        if response.catalog_version != self.catalog_version:
            return f"answered at version {response.catalog_version}, catalog is at {self.catalog_version}"
        family = FAMILIES[op.family]
        key = (op.family, op.param)
        value = response.value
        if self._verified.get(key) is value:
            return None
        ref = self._memo(key, lambda: family.reference(self.shadow, op.param))
        if value != ref:
            return f"{len(value)} rows, reference has {len(ref)} ({len(value ^ ref)} differ)"
        if op.family in _COUNT_FAMILIES:
            survivors = self._memo(("survivors", op.param), lambda: count_bug_survivors(self.shadow, op.param))
            if not survivors <= value:
                return f"COUNT bug: {len(survivors - value)} dangling rows with b = 0 lost"
        partner = _PARTNER.get(op.family)
        if partner is not None:
            other = self._unpaired.pop((partner, op.param), None)
            if other is None:
                self._unpaired[(op.family, op.param)] = value
            elif not partitions(self.shadow["X"], value, other):
                return f"IN and NOT IN with p = {op.param} do not partition X"
        if len(self._verified) >= MEMO_LIMIT:
            self._verified.clear()
        self._verified[key] = value
        return None

"""The classical primitives and the independent references for the engine.

The primitives are the textbook definitions on frozensets and object-index
tuples: indiscernibility partitions, the generalized decision and
decision-positive regions. The brute-force route enumerates every attribute
subset against the positive region and keeps the minimal preserving ones;
it is exponential on purpose and guarded by hard size limits. The pairwise
discernibility matrix is the textbook object-pair form of the engine's
class-level clauses, quadratic in the rows; ``absorb`` is subset absorption
by its literal rule on frozensets, and ``discernibility_function``, the two
together, is the reference for the clauses the engine absorbs on bitmasks.
``is_antichain`` tests that no set contains another. The oracle shares only
the table model (``table.py``) with the engine and imports no engine module,
so the routes can catch each other's bugs.

The four family-level sets are given here by their literal definitions.
Each generalized set intersects membership member by member, and each plain
set is its generalized form restricted to the system's: the dynamic core is
Core(S) & GDCore(F), and the dynamic reducts are those of RED(S) in GDR(F).
The engine computes all four as its support filter at threshold 1 instead,
so these are the reference that keeps a threshold-1 set from being checked
against itself: ``dynamic.stability_report`` records ``literal_dynamic_core``
as the reference of law T2b, and the tests hold the report's plain sets to
all four. They read a ``dynamic.FamilyAnalysis`` and speak its form:
attribute sets are bitmasks and ``&`` intersects them.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .errors import CapacityError
from .table import Table, _Record, checked_attrs

ORACLE_MAX_ATTRS = 16
ORACLE_MAX_OBJECTS = 64


def condition_classes(table: Table, attrs: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Equivalence classes of "equal codes on every attribute in attrs".

    Blocks are ascending object-index tuples, listed in order of first
    occurrence; the empty attribute set yields a single block.
    """
    attrs = checked_attrs(table, attrs)
    parent = table.parent
    blocks: dict[tuple[int, ...], list[int]] = {}
    for i in table.object_indices:
        row = parent.rows[i]
        blocks.setdefault(tuple(row[a] for a in attrs), []).append(i)
    return tuple(tuple(b) for b in blocks.values())


def generalized_decision(table: Table) -> dict[tuple[int, ...], frozenset[int]]:
    """Per full-attribute condition class, the set of decision codes in it.

    Every class maps to a singleton exactly when the table is consistent.
    """
    parent = table.parent
    return {
        block: frozenset(parent.decisions[i] for i in block)
        for block in condition_classes(table, range(parent.n_attrs))
    }


def positive_region(table: Table, attrs: Iterable[int]) -> frozenset[int]:
    """Objects in blocks of ``attrs``-classes that agree on the decision."""
    parent = table.parent
    region: set[int] = set()
    for block in condition_classes(table, attrs):
        first = parent.decisions[block[0]]
        if all(parent.decisions[i] == first for i in block[1:]):
            region.update(block)
    return frozenset(region)


def brute_force_reducts(table: Table) -> tuple[frozenset[int], ...]:
    """All minimal positive-region-preserving attribute subsets, canonical order."""
    n = table.parent.n_attrs
    n_obj = table.n_objects
    if n > ORACLE_MAX_ATTRS:
        raise CapacityError(f"|C| = {n} exceeds the oracle limit {ORACLE_MAX_ATTRS}")
    if n_obj > ORACLE_MAX_OBJECTS:
        raise CapacityError(f"|U| = {n_obj} exceeds the oracle limit {ORACLE_MAX_OBJECTS}")

    target = positive_region(table, range(n))
    preserving = [
        frozenset(subset)
        for size in range(n + 1)
        for subset in combinations(range(n), size)
        if positive_region(table, subset) == target
    ]
    minimal = [s for s in preserving if not any(t < s for t in preserving)]
    return tuple(sorted(minimal, key=sorted))


def brute_force_core(table: Table) -> frozenset[int]:
    """Literal intersection of the brute-force reducts."""
    return frozenset.intersection(*brute_force_reducts(table))


class DiscernibilityMatrix(_Record):
    """Cells (object pair, attribute set) for the pairs a reduct must split."""

    cells: tuple[tuple[tuple[int, int], frozenset[int]], ...]


def discernibility_matrix(table: Table) -> DiscernibilityMatrix:
    """Pairwise cells whose joint separation preserves the positive region.

    A pair (x, y) is stored when merging the two objects would corrupt the
    full-attribute positive region: at least one of them lies in that region
    and either the other does not, or their decisions differ. Pairs sharing
    a condition class never qualify, so every stored cell is non-empty.
    """
    parent = table.parent
    uni = table.object_indices
    attrs = range(parent.n_attrs)
    pos = positive_region(table, attrs)
    cells = []
    for k, x in enumerate(uni):
        for y in uni[k + 1 :]:
            x_in, y_in = x in pos, y in pos
            if not (x_in or y_in):
                continue
            if x_in and y_in and parent.decisions[x] == parent.decisions[y]:
                continue
            diff = frozenset(a for a in attrs if parent.rows[x][a] != parent.rows[y][a])
            assert diff, "pair needing separation cannot share all condition values"
            cells.append(((x, y), diff))
    return DiscernibilityMatrix(tuple(cells))


def absorb(clauses: Iterable[frozenset[int]]) -> tuple[frozenset[int], ...]:
    """Drop every clause that has a strict subset present; canonical order, idempotent."""
    distinct = set(clauses)
    kept = [c for c in distinct if not any(d < c for d in distinct)]
    return tuple(sorted(kept, key=sorted))


def discernibility_function(table: Table) -> tuple[frozenset[int], ...]:
    """Absorbed clause list of the table's discernibility function, canonical order."""
    return absorb(cell for _, cell in discernibility_matrix(table).cells)


def is_antichain(sets: Iterable[frozenset[int]]) -> bool:
    """No set in the collection is a strict subset of another."""
    items = list(sets)
    return not any(a < b for a in items for b in items)


def literal_dynamic_reduct(analysis) -> tuple[int, ...]:
    """Reducts of the system that are reducts of every member: RED(S) intersected with GDR(F)."""
    common = set(literal_generalized_dynamic_reduct(analysis))
    return tuple(r for r in analysis.red_s if r in common)


def literal_generalized_dynamic_reduct(analysis) -> tuple[int, ...]:
    """Attribute sets that are reducts of every member, in ascending mask order."""
    common = set(analysis.per_member[0].reducts)
    for m in analysis.per_member[1:]:
        common &= set(m.reducts)
    return tuple(sorted(common))


def literal_dynamic_core(analysis) -> int:
    """Core attributes of the system that are core in every member: Core(S) & GDCore(F)."""
    return analysis.core_s & literal_generalized_dynamic_core(analysis)


def literal_generalized_dynamic_core(analysis) -> int:
    """Attributes that are core in every member, regardless of the system."""
    members = analysis.per_member
    out = members[0].core
    for m in members[1:]:
        out &= m.core
    return out

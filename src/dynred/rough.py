"""Classical rough-set primitives over decision tables and sub-tables.

Indiscernibility partitions, the generalized decision of inconsistent
tables, decision-positive regions, the discernibility clauses built over
condition classes, and the reduct predicate. Everything here is a pure
function; attribute sets are frozensets of condition-attribute indices,
and clauses are int bitmasks over the same indices.
"""

from __future__ import annotations

from typing import Iterable, Union

from .errors import DomainError
from .table import DecisionSystem, SubSystem

Table = Union[DecisionSystem, SubSystem]


def base_system(table: Table) -> DecisionSystem:
    return table.parent if isinstance(table, SubSystem) else table


def universe(table: Table) -> tuple[int, ...]:
    """Object indices of the table, always in parent-row numbering."""
    if isinstance(table, SubSystem):
        return table.object_indices
    return tuple(range(table.n_objects))


def _checked_attrs(table: Table, attrs: Iterable[int]) -> tuple[int, ...]:
    out = tuple(sorted(set(attrs)))
    n = base_system(table).n_attrs
    if out and (out[0] < 0 or out[-1] >= n):
        raise DomainError(f"attribute index out of range for |C| = {n}")
    return out


def condition_classes(table: Table, attrs: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Equivalence classes of "equal codes on every attribute in attrs".

    Blocks are ascending object-index tuples, listed in order of first
    occurrence; the empty attribute set yields a single block.
    """
    attrs = _checked_attrs(table, attrs)
    parent = base_system(table)
    blocks: dict[tuple[int, ...], list[int]] = {}
    for i in universe(table):
        row = parent.rows[i]
        blocks.setdefault(tuple(row[a] for a in attrs), []).append(i)
    return tuple(tuple(b) for b in blocks.values())


def generalized_decision(table: Table) -> dict[tuple[int, ...], frozenset[int]]:
    """Per full-attribute condition class, the set of decision codes in it.

    Every class maps to a singleton exactly when the table is consistent.
    """
    parent = base_system(table)
    return {
        block: frozenset(parent.decisions[i] for i in block)
        for block in condition_classes(table, range(parent.n_attrs))
    }


def positive_region(table: Table, attrs: Iterable[int]) -> frozenset[int]:
    """Objects in blocks of ``attrs``-classes that agree on the decision."""
    parent = base_system(table)
    region: set[int] = set()
    for block in condition_classes(table, attrs):
        first = parent.decisions[block[0]]
        if all(parent.decisions[i] == first for i in block[1:]):
            region.update(block)
    return frozenset(region)


def discernibility_masks(table: Table) -> set[int]:
    """Distinct attribute masks of the condition-class pairs a reduct must split.

    Works on distinct full-attribute condition classes, not on object pairs:
    objects of one class never need splitting, and whether two classes must
    be split depends only on their positive-region status and decision. A
    pair qualifies when at least one class lies in the positive region and
    either the other does not or their decisions differ. Bit ``a`` of a
    mask is set when the two classes differ on attribute ``a``.

    Each class row is packed into one fixed-width field per attribute, with
    a guard bit above the widest code. For packed rows x and y,
    ``((x ^ y) + low) & guard`` keeps the guard bit of exactly the fields
    where they differ: a field of x ^ y plus its all-ones ``low`` part never
    carries past its own guard bit. Only distinct guard patterns are
    unpacked into attribute masks.
    """
    parent = base_system(table)
    n = parent.n_attrs
    classes = [
        (parent.rows[block[0]], decisions)
        for block, decisions in generalized_decision(table).items()
    ]
    width = max((code for row, _ in classes for code in row), default=0).bit_length() + 1
    low = sum(((1 << (width - 1)) - 1) << (a * width) for a in range(n))
    guard = sum(1 << (a * width + width - 1) for a in range(n))
    positive: dict[int, list[int]] = {}
    boundary: list[int] = []
    for row, decisions in classes:
        packed = sum(code << (a * width) for a, code in enumerate(row))
        if len(decisions) == 1:
            positive.setdefault(next(iter(decisions)), []).append(packed)
        else:
            boundary.append(packed)

    groups = list(positive.values())
    patterns: set[int] = set()
    for k, xs in enumerate(groups):
        for ys in groups[k + 1 :] + [boundary]:
            patterns |= {((x ^ y) + low) & guard for x in xs for y in ys}
    return {
        sum(1 << a for a in range(n) if p >> (a * width + width - 1) & 1) for p in patterns
    }


def is_reduct(table: Table, attrs: Iterable[int]) -> bool:
    """True iff ``attrs`` preserves the full positive region and is minimal.

    Minimality is checked on one-attribute deletions only; the positive
    region is monotone in the attribute set, so that is equivalent to
    minimality over all proper subsets.
    """
    candidate = frozenset(_checked_attrs(table, attrs))
    parent = base_system(table)
    target = positive_region(table, range(parent.n_attrs))
    if positive_region(table, candidate) != target:
        return False
    return all(positive_region(table, candidate - {a}) != target for a in candidate)

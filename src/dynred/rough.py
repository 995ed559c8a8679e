"""The engine's view of a decision table: one labelled class table.

``class_table`` packs each distinct full-attribute condition class into an
int and maps it to its decision code, or to ``BOUNDARY`` when its objects
disagree. One rule then answers both engine questions: two classes must be
split exactly when their labels differ, and an attribute set preserves the
positive region exactly when every block it induces on the classes carries
a single label (``preserves``). The discernibility clauses and the reduct
predicate are built on it. The classical partitions and positive regions
these rules restate are the oracle's (``oracle.py``). Everything here is a
pure function; clauses and probe masks are int bitmasks over
condition-attribute indices, and clauses are absorbed where they are made.
A table is read as its ``parent`` system and its ``object_indices``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .table import Table, checked_attrs

BOUNDARY = -1  # label of a class whose objects disagree on the decision


@dataclass(frozen=True)
class ClassTable:
    """Distinct full-attribute condition classes of one table, packed and labelled.

    ``labels`` maps each packed class row to its decision code, or to
    ``BOUNDARY`` when the class's objects disagree. ``fields[a]`` is the bit
    range of attribute ``a`` in a packed row, its guard bit included, and
    ``guard`` holds every field's guard bit, which no packed row sets.
    """

    labels: dict[int, int]
    fields: tuple[int, ...]
    guard: int


def class_table(table: Table) -> ClassTable:
    """Pack and label the table's full-attribute condition classes.

    Each class row gets one fixed-width field per attribute, wide enough for
    the largest code plus a guard bit above it.
    """
    parent = table.parent
    by_row: dict[tuple[int, ...], int] = {}
    for i in table.object_indices:
        d = parent.decisions[i]
        if by_row.setdefault(parent.rows[i], d) != d:
            by_row[parent.rows[i]] = BOUNDARY
    width = max((code for row in by_row for code in row), default=0).bit_length() + 1
    fields = tuple(((1 << width) - 1) << (a * width) for a in range(parent.n_attrs))
    labels = {
        sum(code << (a * width) for a, code in enumerate(row)): label
        for row, label in by_row.items()
    }
    guard = sum(1 << (a * width + width - 1) for a in range(parent.n_attrs))
    return ClassTable(labels, fields, guard)


def preserves(classes: ClassTable, mask: int) -> bool:
    """True iff the attributes in ``mask`` keep the full positive region.

    That holds exactly when every block the attributes induce on the classes
    carries a single label: a positive class shares its block with no other
    label, and boundary classes may share one. One AND and one dict probe per
    class, stopping at the first block with two labels.
    """
    keep = 0
    for a, field in enumerate(classes.fields):
        if mask >> a & 1:
            keep |= field
    seen: dict[int, int] = {}
    for packed, label in classes.labels.items():
        if seen.setdefault(packed & keep, label) != label:
            return False
    return True


def _minimal_masks(masks: set[int]) -> list[int]:
    """Masks with no strict subset present, ordered by popcount, then value."""
    kept: list[int] = []
    # A stable sort by popcount of the value-sorted masks.
    for m in sorted(sorted(masks), key=int.bit_count):
        for k in kept:
            if k & m == k:
                break
        else:
            kept.append(m)
    return kept


def discernibility_masks(table: Table) -> list[int]:
    """Minimal clauses of the table's discernibility function, as attribute masks.

    Works on distinct full-attribute condition classes, not on object pairs:
    objects of one class never need splitting, and two classes must be split
    exactly when their labels (decision code or ``BOUNDARY``) differ. Bit
    ``a`` of a clause is set when the two classes differ on attribute ``a``.
    Clauses come ordered by size, then by mask value.

    For packed rows x and y, ``((x ^ y) + low) & guard`` keeps the guard bit
    of exactly the fields where they differ: a field of x ^ y plus its
    all-ones ``low`` part never carries past its own guard bit. Each
    attribute owns one guard bit, in attribute order, so the distinct
    patterns are absorbed and ordered as their masks would be, and only the
    survivors are unpacked.
    """
    classes = class_table(table)
    guard = classes.guard
    low = sum(classes.fields) ^ guard
    by_label: dict[int, list[int]] = {}
    for packed, label in classes.labels.items():
        by_label.setdefault(label, []).append(packed)

    groups = list(by_label.values())
    patterns: set[int] = set()
    for k, xs in enumerate(groups):
        for ys in groups[k + 1 :]:
            patterns |= {((x ^ y) + low) & guard for x in xs for y in ys}
    return [
        sum(1 << a for a, field in enumerate(classes.fields) if p & field)
        for p in _minimal_masks(patterns)
    ]


def is_reduct(table: Table, attrs: Iterable[int]) -> bool:
    """True iff ``attrs`` preserves the full positive region and is minimal.

    Minimality is checked on one-attribute deletions only; the positive
    region is monotone in the attribute set, so that is equivalent to
    minimality over all proper subsets. Takes |attrs| + 1 probes of one
    class table.
    """
    candidate = checked_attrs(table, attrs)
    mask = sum(1 << a for a in candidate)
    classes = class_table(table)
    return preserves(classes, mask) and not any(
        preserves(classes, mask & ~(1 << a)) for a in candidate
    )

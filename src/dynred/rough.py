"""The engine's view of a decision table: one labelled class table.

``class_table`` packs each distinct full-attribute condition class into an
int of bit planes and maps it to its decision code, or to ``BOUNDARY`` when
its objects disagree. One rule then answers both engine questions: two
classes must be split exactly when their labels differ, and an attribute set
preserves the positive region exactly when every block it induces on the
classes carries a single label (``preserves``). The discernibility clauses
and the reduct predicate are built on it. The classical partitions and
positive regions these rules restate are the oracle's (``oracle.py``).
Everything here is a pure function; clauses and probe masks are int
bitmasks over condition-attribute indices, and clauses are absorbed where
they are made.
A table is read as its ``parent`` system and its ``object_indices``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import lshift
from typing import Iterable

from .table import Table, checked_attrs

BOUNDARY = -1  # label of a class whose objects disagree on the decision


@dataclass(frozen=True)
class ClassTable:
    """Distinct full-attribute condition classes of one table, packed and labelled.

    ``labels`` maps each packed class row to its decision code, or to
    ``BOUNDARY`` when the class's objects disagree. Bit ``j * n_attrs + a``
    of a packed row is bit ``j`` of attribute ``a``'s code, for ``j`` below
    ``planes``, the bit length of the table's largest code.
    """

    labels: dict[int, int]
    n_attrs: int
    planes: int


def class_table(table: Table) -> ClassTable:
    """Pack and label the table's full-attribute condition classes.

    Each code present is spread once (bit ``j`` to bit ``j * n_attrs``), and
    a row packs as its spread codes shifted by their attribute indices, so
    the cost is O(distinct rows * n_attrs) whatever the codes' range.
    """
    parent = table.parent
    rows, decisions = parent.rows, parent.decisions
    by_row: dict[tuple[int, ...], int] = {}
    for i in table.object_indices:
        if by_row.setdefault(rows[i], decisions[i]) != decisions[i]:
            by_row[rows[i]] = BOUNDARY
    m = parent.n_attrs
    codes = set().union(*by_row)
    spread = {c: int(("0" * (m - 1)).join(format(c, "b")), 2) for c in codes}.__getitem__
    attrs = range(m)
    labels = {sum(map(lshift, map(spread, row), attrs)): label for row, label in by_row.items()}
    return ClassTable(labels, m, max(codes, default=0).bit_length())


def preserves(classes: ClassTable, mask: int) -> bool:
    """True iff the attributes in ``mask`` keep the full positive region.

    That holds exactly when every block the attributes induce on the classes
    carries a single label: a positive class shares its block with no other
    label, and boundary classes may share one. ``mask`` repeated in every
    plane keeps its attributes' bits; then one AND and one dict probe per
    class, stopping at the first block with two labels.
    """
    keep = mask * sum(1 << (j * classes.n_attrs) for j in range(classes.planes))
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

    Rows ``x`` and ``y`` differ on attribute ``a`` exactly when some plane
    of ``x ^ y`` sets bit ``a``. Each class is split once into its lowest
    ``h = ceil(planes / 2)`` planes and the rest, so a pair's XORed halves,
    ORed, hold every plane folded onto the lowest ``h``: the clause when
    there are at most two planes. Otherwise each pair's value is folded in
    half until one plane is left before it is kept, so the set holds only
    attribute masks, at most 2^m of them, however many pairs there are.
    """
    classes = class_table(table)
    m = classes.n_attrs
    h = (classes.planes + 1) // 2
    shift, low = h * m, (1 << h * m) - 1
    by_label: dict[int, list[tuple[int, int]]] = {}
    for packed, label in classes.labels.items():
        by_label.setdefault(label, []).append((packed & low, packed >> shift))

    # The shifts that fold h planes in half down to one; none for h == 1.
    # Plane 0 gathers every plane, and the planes above it are masked off.
    shifts: list[int] = []
    while h > 1:
        h = (h + 1) // 2
        shifts.append(h * m)
    plane = (1 << m) - 1

    def fold(v: int) -> int:
        for s in shifts:
            v |= v >> s
        return v & plane

    groups = list(by_label.values())
    masks: set[int] = set()
    for k, xs in enumerate(groups):
        for ys in groups[k + 1 :]:
            if shifts:
                masks |= {fold((a ^ c) | (b ^ d)) for a, b in xs for c, d in ys}
            else:
                masks |= {(a ^ c) | (b ^ d) for a, b in xs for c, d in ys}
    return _minimal_masks(masks)


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

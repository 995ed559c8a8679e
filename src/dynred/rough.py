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
bitmasks over condition-attribute indices. ``pair_masks`` gives the
distinct clauses of a class table as the class pairs make them; nothing
here absorbs them. A table is read as its ``parent`` system and its
``object_indices``: ``class_table`` packs a table's own distinct rows, and
``family_classes`` packs every row of a system once, so that each member's
class table is one labelling pass over the member's object indices.
"""

from __future__ import annotations

import sys
from itertools import repeat
from operator import lshift, or_
from typing import Callable, Collection, Iterable, Sequence

from .table import Table, _Record, checked_attrs

BOUNDARY = -1  # label of a class whose objects disagree on the decision


class ClassTable(_Record):
    """Distinct full-attribute condition classes of one table, packed and labelled.

    ``labels`` maps each packed class row to its decision code, or to
    ``BOUNDARY`` when the class's objects disagree. Bit ``j * n_attrs + a``
    of a packed row is bit ``j`` of attribute ``a``'s code, for ``j`` below
    ``planes``, the bit length of the table's largest code.
    """

    labels: dict[int, int]
    n_attrs: int
    planes: int


def _labels(rows: Sequence, table: Table) -> dict:
    """Each distinct row of the table, read from ``rows`` by object index, to its label.

    The label is the row's decision code, or ``BOUNDARY`` when the table's
    objects with that row disagree.
    """
    decisions = table.parent.decisions
    labels: dict = {}
    for i in table.object_indices:
        if labels.setdefault(rows[i], decisions[i]) != decisions[i]:
            labels[rows[i]] = BOUNDARY
    return labels


def _pack(rows: Collection[tuple[int, ...]], m: int) -> tuple[list[int], int]:
    """Each row of m codes packed into bit planes, and the plane count.

    Each code present is spread once (bit ``j`` to bit ``j * m``), and a row
    packs as its spread codes shifted by their attribute indices, so the
    cost is O(rows * m) whatever the codes' range.
    """
    codes = set().union(*rows)
    spread = {c: int(("0" * (m - 1)).join(format(c, "b")), 2) for c in codes}.__getitem__
    attrs = range(m)
    packed = [sum(map(lshift, map(spread, row), attrs)) for row in rows]
    return packed, max(codes, default=0).bit_length()


def class_table(table: Table) -> ClassTable:
    """Pack and label the table's full-attribute condition classes.

    Only the table's distinct rows are packed, so time and memory follow
    the table, not its parent or the codes' range.
    """
    by_row = _labels(table.parent.rows, table)
    packed, planes = _pack(by_row, table.parent.n_attrs)
    return ClassTable(dict(zip(packed, by_row.values())), table.parent.n_attrs, planes)


def family_classes(system: Table) -> Callable[[Table], ClassTable]:
    """The class table of any table of the system's parent, its rows packed once.

    Every row of the parent is packed here, once; a member's class table is
    then one labelling pass over its object indices, with no packing. Its
    labels are ``class_table(member)``'s, and its plane count is the
    parent's, at least the member's own: an extra plane is zero in every
    class and changes no clause and no probe.
    """
    parent = system.parent
    packed, planes = _pack(parent.rows, parent.n_attrs)
    return lambda table: ClassTable(_labels(packed, table), parent.n_attrs, planes)


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


def pair_masks(classes: ClassTable) -> set[int]:
    """The distinct clauses of a class table's discernibility function, unabsorbed.

    Works on distinct full-attribute condition classes, not on object pairs:
    objects of one class never need splitting, and two classes must be split
    exactly when their labels (decision code or ``BOUNDARY``) differ. Bit
    ``a`` of a clause is set when the two classes differ on attribute ``a``,
    that is when some plane of their XOR sets bit ``a``.

    The pairs are compared bit-sliced. For each pair of label groups, plane
    j of every class in the larger group is laid side by side in one int,
    one slot of W bits per class: the smallest of 8, 16, 32 and 64 that
    holds m, or 64 * k bits past 64. A class x of the other group, its
    plane j repeated in every slot (``x_j * rep``), then meets all of them
    at once: the OR over planes of the XORs holds each pair's clause in its
    own slot, with no carry or fold across slots. The slots are read back
    as W-bit words through a memoryview, a slot's k words joined by
    shifting at C level, so the Python loop runs once per class of the
    smaller group, not once per pair. The set holds only attribute masks,
    at most 2^m of them, however many pairs there are.
    """
    m = classes.n_attrs
    plane = (1 << m) - 1
    shifts = [j * m for j in range(classes.planes)]
    by_label: dict[int, list[int]] = {}
    for packed, label in classes.labels.items():
        by_label.setdefault(label, []).append(packed)

    width = max(8, 1 << (m - 1).bit_length()) if m <= 64 else -(-m // 64) * 64
    size, k = width // 8, max(1, width // 64)  # bytes and words per slot
    fmt = {1: "B", 2: "H", 4: "I"}.get(size, "Q")
    order = sys.byteorder
    # Memory offsets of a slot's words, its highest word first.
    top, *lower = range(k)[::-1] if order == "little" else range(k)
    one = (1).to_bytes(size, order)

    groups = list(by_label.values())
    masks: set[int] = set()
    for g, group in enumerate(groups):
        for other in groups[g + 1 :]:
            xs, ys = sorted((group, other), key=len)
            rep = int.from_bytes(one * len(ys), order)
            slices = []
            for s in shifts:
                laid = b"".join((y >> s & plane).to_bytes(size, order) for y in ys)
                slices.append((s, int.from_bytes(laid, order)))
            nbytes = size * len(ys)
            for x in xs:
                d = 0
                for s, ys_plane in slices:
                    d |= (x >> s & plane) * rep ^ ys_plane
                view = memoryview(d.to_bytes(nbytes, order)).cast(fmt)
                words = view[top::k]
                for i in lower:
                    words = map(or_, map(lshift, words, repeat(64)), view[i::k])
                masks.update(words)
    return masks


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

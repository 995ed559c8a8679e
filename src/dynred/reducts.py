"""Exact reduct enumeration via prime implicants of the discernibility function.

The clauses, one attribute mask per pair of condition classes that a reduct
must split (``rough.discernibility_masks``), form a monotone CNF over
condition attributes; its prime implicants are exactly the minimal
attribute sets splitting every such pair, i.e. the reducts. Enumeration
distributes one clause at a time with subset absorption after every step
(Berge's minimal-hitting-set scheme), shortest clauses first to maximize
early absorption. The core needs no clauses: it is read off the positive
region with one attribute deleted at a time. Internally clauses and
implicants are bitmasks; the public surface speaks frozensets.
"""

from __future__ import annotations

from typing import Iterable

from .errors import CapacityError
from .rough import Table, base_system, discernibility_masks, positive_region

DEFAULT_MAX_ATTRS = 24
DEFAULT_MAX_REDUCTS = 100_000


def canonical_reducts(sets: Iterable[frozenset[int]]) -> tuple[frozenset[int], ...]:
    """Deduplicate and order lexicographically by ascending index sequence."""
    return tuple(sorted(set(sets), key=sorted))


def is_antichain(sets: Iterable[frozenset[int]]) -> bool:
    items = list(sets)
    return not any(a < b for a in items for b in items)


def intersect_all(sets: Iterable[frozenset[int]], n_attrs: int) -> frozenset[int]:
    """Intersection of a reduct collection; the full attribute set when empty.

    The full set is the identity of intersection over subsets of C, which
    keeps containment checks meaningful when a dynamic reduct set is empty.
    """
    out = frozenset(range(n_attrs))
    for s in sets:
        out &= s
    return out


def _mask(attrs: frozenset[int]) -> int:
    m = 0
    for a in attrs:
        m |= 1 << a
    return m


def _unmask(mask: int) -> frozenset[int]:
    out = []
    a = 0
    while mask:
        if mask & 1:
            out.append(a)
        mask >>= 1
        a += 1
    return frozenset(out)


def _minimal_masks(masks: Iterable[int]) -> list[int]:
    # Subset absorption: keep only masks with no strict subset present.
    ordered = sorted(set(masks), key=int.bit_count)
    kept: list[int] = []
    for m in ordered:
        if not any(k & m == k for k in kept):
            kept.append(m)
    return kept


def absorb(clauses: Iterable[frozenset[int]]) -> tuple[frozenset[int], ...]:
    """Drop every clause that contains another one; idempotent."""
    return canonical_reducts(_unmask(m) for m in _minimal_masks(map(_mask, clauses)))


def discernibility_function(table: Table) -> tuple[frozenset[int], ...]:
    """Absorbed clause list of the table's discernibility function."""
    return canonical_reducts(_unmask(m) for m in _minimal_masks(discernibility_masks(table)))


def all_reducts(
    table: Table,
    *,
    max_attrs: int = DEFAULT_MAX_ATTRS,
    max_reducts: int = DEFAULT_MAX_REDUCTS,
) -> tuple[frozenset[int], ...]:
    """Every reduct of the table, in canonical order.

    A table with no clauses reduces to the empty attribute set.
    Raises CapacityError rather than truncating when |C| exceeds
    ``max_attrs`` or the running implicant count exceeds ``max_reducts``.
    """
    n = base_system(table).n_attrs
    if n > max_attrs:
        raise CapacityError(f"|C| = {n} exceeds the enumeration limit max_attrs = {max_attrs}")

    clauses = sorted(
        _minimal_masks(discernibility_masks(table)), key=lambda m: (m.bit_count(), m)
    )
    implicants = [0]
    for clause in clauses:
        widened: list[int] = []
        for imp in implicants:
            if imp & clause:
                widened.append(imp)
            else:
                bits = clause
                while bits:
                    low = bits & -bits
                    widened.append(imp | low)
                    bits ^= low
        implicants = _minimal_masks(widened)
        if len(implicants) > max_reducts:
            raise CapacityError(
                f"more than max_reducts = {max_reducts} candidate reducts; raise the cap"
            )
    return canonical_reducts(_unmask(m) for m in implicants)


def core_of(table: Table) -> frozenset[int]:
    """Attributes whose deletion from C shrinks the positive region.

    Takes m + 1 partition passes and no clauses. The positive region is
    monotone in the attribute set, so this equals the singleton clauses of
    the discernibility function and the intersection of all reducts (empty
    when the sole reduct is the empty set), without enumeration.
    """
    attrs = range(base_system(table).n_attrs)
    target = positive_region(table, attrs)
    return frozenset(
        a for a in attrs if positive_region(table, (b for b in attrs if b != a)) != target
    )

"""Exact reduct enumeration as minimal hitting sets of the discernibility clauses.

The clauses, one attribute mask per pair of condition classes that a reduct
must split, form a monotone CNF over condition attributes; its prime
implicants, the minimal attribute sets hitting every clause, are exactly
the reducts. ``rough.discernibility_masks`` hands over the clauses already
absorbed, so this module reads them as they come and never absorbs. The
minimal hitting sets are found on one of two paths, chosen from |C| alone
before any search. Both return the reducts in ascending mask order and
count them against the cap before listing them:

* A table of at most ``LATTICE_MAX_ATTRS`` (16) condition attributes is
  swept as a whole subset lattice: bit S of a 2**|C|-bit int stands for the
  attribute set whose mask is S, and 2|C| shift-and-mask steps mark every
  transversal and then the minimal ones, whatever the number of clauses or
  reducts. Each int holds at most 2**16 bits (8 KiB); the per-attribute
  masks are cached once per |C|. The cap is checked once, on the count of
  marked bits.
* A wider table is searched with MMCS (Murakami & Uno, Discrete Applied
  Math. 2014): a depth-first search that adds one attribute of an
  uncovered clause at a time and prunes a branch as soon as some chosen
  attribute is left without a critical clause (one that no other chosen
  attribute hits). Every leaf is a reduct and no partial implicant
  outlives its branch, so memory beyond the reducts found grows with the
  search depth. Attributes in exactly the same clauses (twins) stand in
  for each other in every reduct and never share one (Eiter & Gottlob,
  SIAM J. Comput. 1995), so MMCS runs over the quotient, one
  representative per twin group, and each leaf expands into its reducts
  by swapping representatives for their twins. The cap is checked once
  per quotient reduct, on the size of its expansion, before it is built.

The core needs no clauses: it is the attributes whose deletion fails the
positive-region probe of the table's labelled class table
(``rough.preserves``), one probe per attribute. Clauses and
attribute sets are bitmasks (bit ``a`` is condition attribute ``a``, listed
by ``mask_indices``):
``table_reducts`` is the per-table result the family analysis and the CLI
read. ``all_reducts`` and ``core_of`` are the only frozenset views: the
library's public reduct and core, in the form the benchmark's output
checks and the oracle's references read. The clause reference is the
oracle's ``discernibility_function``.
"""

from __future__ import annotations

from functools import cache
from math import prod
from typing import Iterable

from .errors import CapacityError
from .rough import class_table, discernibility_masks, preserves
from .table import Table

DEFAULT_MAX_ATTRS = 24
DEFAULT_MAX_REDUCTS = 100_000
# Widest |C| searched by the subset-lattice sweep; MMCS takes wider tables.
# Set from a crossover timed on synthetic 3-uniform cycle tables (no twins);
# the benchmark has a workload on each side: static_rows and family_verify
# (|C| = 12) sweep, matching (|C| = 24) runs MMCS.
LATTICE_MAX_ATTRS = 16


def intersect_all(masks: Iterable[int], n_attrs: int) -> int:
    """AND of a collection of attribute masks; the full mask when it is empty.

    The full set is the identity of intersection over subsets of C, which
    keeps containment checks meaningful when a dynamic reduct set is empty.
    """
    out = (1 << n_attrs) - 1
    for mask in masks:
        out &= mask
    return out


def mask_indices(mask: int) -> list[int]:
    """Set bits of a non-negative ``mask`` in ascending order, one ``str.find`` per bit."""
    out = []
    marks = bin(mask)[:1:-1]  # character i is bit i
    i = marks.find("1")
    while i >= 0:
        out.append(i)
        i = marks.find("1", i + 1)
    return out


def attr_mask(attrs: Iterable[int]) -> int:
    """The bitmask of some attribute indices; the inverse of ``mask_indices``."""
    return sum(1 << a for a in attrs)


@cache
def _subset_bits(q: int) -> tuple[int, ...]:
    """One 2**q-bit int per attribute a < q, whose bit S is set when mask S contains a.

    Cached per |C| = q: at most 17 entries (q = 0..``LATTICE_MAX_ATTRS``)
    of at most 8 KiB ints.
    """
    size, has = 1 << q, []
    for a in range(q):
        step = 1 << a
        bits, width = ((1 << step) - 1) << step, 2 * step  # one period: subsets 0..2**(a+1)-1
        while width < size:
            bits |= bits << width
            width *= 2
        has.append(bits)
    return tuple(has)


def _minimal_transversals(clauses: Iterable[int], q: int) -> int:
    """The minimal transversals of clauses over q attributes, as a 2**q-bit int.

    Bit S of the result is set when the attribute set S meets every clause
    and no proper subset of S does. The complement of each clause marks
    the largest set missing it, and q down-steps mark every set missing
    some clause; the rest are the transversals, and one up-step per
    attribute marks those with a transversal one attribute smaller. That
    is 2q operations on 2**q-bit ints, whatever the number of clauses or
    reducts (the subset zeta transform; Bjorklund, Husfeldt, Kaski &
    Koivisto, STOC 2007).
    """
    has = _subset_bits(q)
    full = (1 << q) - 1
    miss = 0
    for clause in clauses:
        miss |= 1 << (full ^ clause)
    for a, bits in enumerate(has):
        miss |= (miss & bits) >> (1 << a)
    hits = ((1 << (1 << q)) - 1) & ~miss
    nonminimal = 0
    for a, bits in enumerate(has):
        nonminimal |= (hits & ~bits) << (1 << a)
    return hits & ~nonminimal


def reduct_masks(
    table: Table,
    *,
    max_attrs: int = DEFAULT_MAX_ATTRS,
    max_reducts: int = DEFAULT_MAX_REDUCTS,
) -> list[int]:
    """Every reduct of the table as an attribute bitmask, in ascending order.

    Each reduct appears exactly once; a table with no clauses yields the
    single empty mask. Raises CapacityError rather than truncating when |C|
    exceeds ``max_attrs`` or the table has more than ``max_reducts``
    reducts. The count is checked before any reduct it covers is listed:
    once on the lattice, and on MMCS once per quotient reduct with all its
    twin swaps, so the search stops as soon as the count would pass the cap
    instead of finishing the enumeration.
    """
    n = table.parent.n_attrs
    if n > max_attrs:
        raise CapacityError(f"|C| = {n} exceeds the enumeration limit max_attrs = {max_attrs}")

    clauses = discernibility_masks(table)

    def check_cap(count: int) -> None:
        if count > max_reducts:
            raise CapacityError(
                f"more than max_reducts = {max_reducts} reducts "
                f"({len(clauses)} absorbed clauses, |C| = {n}); raise the cap"
            )

    if n <= LATTICE_MAX_ATTRS:
        minimal = _minimal_transversals(clauses, n)
        check_cap(minimal.bit_count())
        return mask_indices(minimal)

    edges = [0] * n  # edges[a]: mask of the clauses containing attribute a
    for i, clause in enumerate(clauses):
        for a in mask_indices(clause):
            edges[a] |= 1 << i

    # Twins (equal, non-empty edges) are searched through their lowest
    # attribute; a leaf expands by XOR with rep ^ twin for each twin, the
    # 0 delta keeping the representative.
    groups: dict[int, list[int]] = {}
    for a in range(n):
        if edges[a]:
            groups.setdefault(edges[a], []).append(1 << a)
    reps = 0
    swaps: dict[int, list[int]] = {}
    for bits in groups.values():
        reps |= bits[0]
        if len(bits) > 1:
            swaps[bits[0]] = [bits[0] ^ b for b in bits]

    found: list[int] = []

    def emit(chosen: int) -> None:
        # The product's size is checked before it is built, so no list ever
        # grows past the cap.
        factors = [deltas for rep, deltas in swaps.items() if chosen & rep]
        check_cap(len(found) + prod(map(len, factors)))
        leaf = [chosen]
        for deltas in factors:
            leaf = [x ^ d for x in leaf for d in deltas]
        found.extend(leaf)

    if not clauses:
        emit(0)
        return found
    # A node: chosen attributes, one critical-clause mask per chosen
    # attribute, candidate attributes, uncovered clauses. An explicit stack
    # keeps the depth (up to |C|) off the interpreter's recursion limit.
    stack = [(0, [], reps, (1 << len(clauses)) - 1)]
    while stack:
        chosen, crits, cand, uncov = stack.pop()
        # Branch on the uncovered clause with the fewest candidates. The scan
        # may stop at one candidate: a clause with none can wait, since it
        # stays uncoverable in every descendant.
        branch, width, rest = 0, n + 1, uncov
        while rest and width > 1:
            low = rest & -rest
            rest ^= low
            c = clauses[low.bit_length() - 1] & cand
            if c.bit_count() < width:
                branch, width = c, c.bit_count()
        # Child v may still take the candidates tried before it, never
        # those after it, so each reduct is reached exactly once. A child
        # that covers every clause and keeps its critical clauses is a
        # leaf, emitted where it is found.
        cand &= ~branch
        while branch:
            v = branch & -branch
            branch ^= v
            hit = edges[v.bit_length() - 1]
            kept = [c & ~hit for c in crits]
            if all(kept):
                left = uncov & ~hit
                if left:
                    kept.append(uncov & hit)
                    stack.append((chosen | v, kept, cand, left))
                else:
                    emit(chosen | v)
            cand |= v
    found.sort()
    return found


def table_reducts(
    table: Table,
    *,
    max_attrs: int = DEFAULT_MAX_ATTRS,
    max_reducts: int = DEFAULT_MAX_REDUCTS,
) -> tuple[tuple[int, ...], int]:
    """``reduct_masks`` in ascending order, and the core as their AND; same caps."""
    masks = tuple(reduct_masks(table, max_attrs=max_attrs, max_reducts=max_reducts))
    return masks, intersect_all(masks, table.parent.n_attrs)


def all_reducts(
    table: Table,
    *,
    max_attrs: int = DEFAULT_MAX_ATTRS,
    max_reducts: int = DEFAULT_MAX_REDUCTS,
) -> tuple[frozenset[int], ...]:
    """Every reduct of the table, in canonical order; ``reduct_masks`` with its caps."""
    masks = reduct_masks(table, max_attrs=max_attrs, max_reducts=max_reducts)
    return tuple(map(frozenset, sorted(map(mask_indices, masks))))


def core_of(table: Table) -> frozenset[int]:
    """Attributes whose deletion from C shrinks the positive region.

    Takes m probes of one class table and no clauses. The positive region
    is monotone in the attribute set, so this equals the singleton clauses
    of the discernibility function and the intersection of all reducts
    (empty when the sole reduct is the empty set), without enumeration.
    """
    n = table.parent.n_attrs
    classes = class_table(table)
    full = (1 << n) - 1
    return frozenset(a for a in range(n) if not preserves(classes, full & ~(1 << a)))

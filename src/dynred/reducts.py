"""Exact reduct enumeration as minimal hitting sets of the discernibility clauses.

The clauses, one attribute mask per pair of condition classes that a reduct
must split, form a monotone CNF over condition attributes; its prime
implicants, the minimal attribute sets hitting every clause, are exactly
the reducts. ``_reducts`` reads a class table's clauses once, as the class
pairs make them (``rough.pair_masks``), takes the core off them (the
singleton clauses) and hands them to one of two searches, chosen from |C|
alone. Both read only the clause set, |C| and the cap, return the minimal
transversals in ascending mask order, and count them against the cap first:

* ``_sweep``, for at most ``LATTICE_MAX_ATTRS`` (16) attributes, marks the
  whole subset lattice in 2|C| shift-and-mask steps on 2**|C|-bit ints and
  reads the clauses as they are;
* ``_mmcs``, for wider tables, is a depth-first search over twin groups
  that absorbs its own input, the only place clauses are absorbed.

``core_of`` needs no clauses: the core is the attributes whose deletion
fails the positive-region probe of the table's labelled class table
(``rough.preserves``), one probe per attribute. Clauses and attribute sets
are bitmasks (bit ``a`` is condition attribute ``a``, listed by
``mask_indices``). ``table_reducts`` is ``_reducts`` on one table's
``rough.class_table``, the result the CLI reads; the family analysis calls
``_reducts`` on class tables read through its system's rows, packed once
(``rough.family_classes``). ``all_reducts`` and ``core_of`` are the only
frozenset views: the library's public reduct and core, in the form the
benchmark's output checks and the oracle's references read. The clause
reference is the oracle's ``discernibility_function``.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, repeat
from math import prod
from operator import xor

from .errors import CapacityError
from .rough import ClassTable, class_table, pair_masks, preserves
from .table import Table

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable

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


def _minimal_masks(masks: Iterable[int]) -> list[int]:
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


def _too_many(max_reducts: int, absorbed: int, n: int) -> CapacityError:
    """The reduct cap's error, naming the cap, the minimal clauses and |C|."""
    return CapacityError(
        f"more than max_reducts = {max_reducts} reducts "
        f"({absorbed} absorbed clauses, |C| = {n}); raise the cap"
    )


def _sweep(clauses: Iterable[int], n: int, max_reducts: int) -> list[int]:
    """The minimal transversals of non-zero clauses over n attributes, by a subset-lattice sweep.

    Bit S of a 2**n-bit int stands for the attribute set S. Each clause c
    marks the largest set missing it, its complement: character c of a
    string of 2**n zeros read most significant bit first is bit
    ``full ^ c``. The n down-steps mark every subset of a marked set, which
    leaves the sets that miss some clause; the rest are the transversals,
    and n up-steps mark those with a transversal one attribute smaller.
    That is 2n operations on 2**n-bit ints whatever the number of clauses
    or reducts (the subset zeta transform; Bjorklund, Husfeldt, Kaski &
    Koivisto, STOC 2007). The clauses need no absorption: one with a strict
    subset among them marks only sets the down-steps mark anyway. A cap
    exit names the minimal clauses, counted without absorbing as the
    maximal sets that miss a clause.
    """
    marks = bytearray(b"0") * (1 << n)
    for clause in clauses:
        marks[clause] = 49  # ord("1")
    miss = int(marks, 2)
    has = _subset_bits(n)
    for a, bits in enumerate(has):
        miss |= (miss & bits) >> (1 << a)
    hits = ((1 << (1 << n)) - 1) & ~miss
    nonminimal = 0
    for a, bits in enumerate(has):
        nonminimal |= (hits & ~bits) << (1 << a)
    minimal = hits & ~nonminimal
    if minimal.bit_count() > max_reducts:
        nonmaximal = 0
        for a, bits in enumerate(has):
            nonmaximal |= (miss & bits) >> (1 << a)
        raise _too_many(max_reducts, (miss & ~nonmaximal).bit_count(), n)
    return mask_indices(minimal)


def _mmcs(clauses: Iterable[int], n: int, max_reducts: int) -> list[int]:
    """The minimal transversals of non-zero clauses over n attributes, by MMCS over twin groups.

    MMCS (Murakami & Uno, Discrete Applied Math. 2014) is a depth-first
    search that adds one attribute of an uncovered clause at a time and
    prunes a branch as soon as some chosen attribute is left without a
    critical clause (one that no other chosen attribute hits). Critical
    clauses and twins are defined on the minimal clauses, so the search
    absorbs its input first. Twins, attributes in exactly the same clauses,
    stand in for each other in every minimal transversal and never share
    one (Eiter & Gottlob, SIAM J. Comput. 1995): the search runs over one
    representative per group, and each node that covers every clause
    expands into its transversals by swapping representatives for their
    twins, after the size of that expansion is checked against the cap.
    The expansion takes the groups in order of their second-lowest
    attribute, and each twin appends one block: the blocks before its
    group with the representative swapped for the twin. With twin pairs
    each block lies wholly above the blocks before it, so a leaf comes out
    ascending and the final sort only merges sorted runs; it still orders
    several leaves, and groups of three or more twins whose bits interleave.
    """
    clauses = _minimal_masks(clauses)
    edges = [0] * n  # edges[a]: mask of the clauses containing attribute a
    for i, clause in enumerate(clauses):
        for a in mask_indices(clause):
            edges[a] |= 1 << i

    # Twins (equal, non-empty edges) are searched through their lowest
    # attribute. A group enters ``swaps`` at its second-lowest attribute, so
    # the groups with twins are in that order, each with its deltas
    # rep ^ twin in ascending twin order.
    reps: dict[int, int] = {}  # edges -> the group's lowest attribute
    swaps: dict[int, list[int]] = {}  # lowest attribute -> its twins' deltas
    for a in range(n):
        if edges[a]:
            rep = reps.setdefault(edges[a], 1 << a)
            if rep != 1 << a:
                swaps.setdefault(rep, []).append(rep ^ 1 << a)

    found: list[int] = []
    # A node: chosen attributes, one critical-clause mask per chosen
    # attribute, candidate attributes, uncovered clauses. An explicit stack
    # keeps the depth (up to |C|) off the interpreter's recursion limit.
    stack = [(0, [], sum(reps.values()), (1 << len(clauses)) - 1)]
    while stack:
        chosen, crits, cand, uncov = stack.pop()
        if not uncov:
            # A leaf, the root too when there are no clauses. The product's
            # size is checked before it is built, so no list grows past the cap.
            factors = [deltas for rep, deltas in swaps.items() if chosen & rep]
            if len(found) + prod(len(deltas) + 1 for deltas in factors) > max_reducts:
                raise _too_many(max_reducts, len(clauses), n)
            leaf = [chosen]
            for deltas in factors:
                # Each twin appends one finished block: the blocks before
                # its group XOR its delta. A lazy map over ``leaf`` would
                # extend it without end.
                leaf += [*chain.from_iterable([map(xor, leaf, repeat(d)) for d in deltas])]
            found.extend(leaf)
            continue
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
        # that leaves a chosen attribute without a critical clause is pruned.
        cand &= ~branch
        while branch:
            v = branch & -branch
            branch ^= v
            hit = edges[v.bit_length() - 1]
            kept = [c & ~hit for c in crits]
            if all(kept):
                kept.append(uncov & hit)
                stack.append((chosen | v, kept, cand, uncov & ~hit))
            cand |= v
    found.sort()
    return found


def _reducts(classes: ClassTable, max_attrs: int, max_reducts: int) -> tuple[tuple[int, ...], int]:
    """Every reduct of a class table as an attribute bitmask in ascending order, and the core.

    The reducts are the minimal transversals of the table's clauses
    (``rough.pair_masks``), found by ``_sweep`` when |C| is at most
    ``LATTICE_MAX_ATTRS`` and by ``_mmcs`` above it. The core is the
    singleton clauses, not the reducts' AND, so it can check the search.
    Each reduct appears exactly once; a table with no clauses yields the
    single empty mask. Raises CapacityError rather than truncating when |C|
    exceeds ``max_attrs`` or the table has more than ``max_reducts``
    reducts; the count is checked before any reduct it covers is listed,
    so the search stops as soon as it would pass the cap.
    """
    n = classes.n_attrs
    if n > max_attrs:
        raise CapacityError(f"|C| = {n} exceeds the enumeration limit max_attrs = {max_attrs}")
    search = _sweep if n <= LATTICE_MAX_ATTRS else _mmcs
    clauses = pair_masks(classes)
    core = attr_mask(a for a in range(n) if 1 << a in clauses)
    return tuple(search(clauses, n, max_reducts)), core


def table_reducts(
    table: Table,
    *,
    max_attrs: int = DEFAULT_MAX_ATTRS,
    max_reducts: int = DEFAULT_MAX_REDUCTS,
) -> tuple[tuple[int, ...], int]:
    """The table's reducts as masks in ascending order, and the core from the singleton clauses.

    ``_reducts`` on the table's ``rough.class_table``, with its caps.
    """
    return _reducts(class_table(table), max_attrs, max_reducts)


def all_reducts(
    table: Table,
    *,
    max_attrs: int = DEFAULT_MAX_ATTRS,
    max_reducts: int = DEFAULT_MAX_REDUCTS,
) -> tuple[frozenset[int], ...]:
    """Every reduct of the table, in canonical order; ``table_reducts`` with its caps."""
    masks, _ = table_reducts(table, max_attrs=max_attrs, max_reducts=max_reducts)
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

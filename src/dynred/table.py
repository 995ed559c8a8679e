"""Decision-table model, CSV ingestion, sub-table views, and family sampling.

A table is a row set of one system: its ``parent`` and the ``object_indices``
it keeps. A ``DecisionSystem`` is its own parent and keeps every row, so the
engine and the oracle read any ``Table`` through those two names alone.

Sampling is bit-exact across platforms: one splitmix64 stream per plan drives
a partial Fisher-Yates shuffle, with rejection sampling for unbiased bounded
draws. Identical (table, plan) inputs always produce identical families.

Every record of the package derives from ``_Record``, defined here because
every layer imports this module: a frozen class whose fields are its own
annotations. Its methods are written once, not generated per class, so a
short-lived CLI process neither imports a record library nor compiles code
for each record.
"""

from __future__ import annotations

import csv
import io
from itertools import count
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Union

from .errors import (
    CapacityError,
    DomainError,
    MissingValueError,
    ParameterError,
    ParseError,
    SchemaError,
)

if TYPE_CHECKING:
    from fractions import Fraction

MASK64 = (1 << 64) - 1


class _Record:
    """A frozen record: its fields are its class's own annotations, in order.

    A field with a class-level value may be omitted. Records are built by
    position or by name, then ``__post_init__`` checks them; they compare
    (same class only), hash and print by their fields as a frozen dataclass
    does, and ``_replace`` builds a changed copy through the same checks.
    """

    _fields: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        cls._fields = fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
        cls._key = attrgetter(*fields)

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            rest = fields[len(args):]
            named = self._defaults | kwargs
            if len(args) > len(fields) or not kwargs.keys() <= set(rest) <= named.keys():
                raise TypeError(
                    f"{type(self).__name__}({', '.join(fields)}) got {len(args)} values by "
                    f"position and {sorted(kwargs)} by name: a field is missing, unknown or twice given"
                )
            args = (*args, *map(named.__getitem__, rest))
        # Set one field at a time: reading ``__dict__`` would give the instance
        # a materialised dict, which makes every later attribute read slower.
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _replace(self, **changes) -> _Record:
        """A copy with ``changes`` applied, checked again by ``__post_init__``."""
        return type(self)(**{f: getattr(self, f) for f in self._fields} | changes)


class DecisionSystem(_Record):
    """A finite, unnamed table of objects with coded condition attributes and one decision.

    Value codes are dense integers assigned per attribute in first-occurrence
    order; ``dictionaries`` maps each attribute name to its raw-string -> code
    table (the decision attribute included). As a table it keeps every row and
    is its own ``parent``; ``object_indices`` is no part of init, ``==`` or ``repr``.
    """

    cond_attrs: tuple[str, ...]
    decision_attr: str
    rows: tuple[tuple[int, ...], ...]
    decisions: tuple[int, ...]
    dictionaries: dict[str, dict[str, int]]

    def __post_init__(self) -> None:
        if not self.rows:
            raise DomainError("a decision system needs at least one object")
        if len(self.decisions) != len(self.rows):
            raise DomainError("rows and decisions differ in length")
        width = len(self.cond_attrs)
        if any(len(r) != width for r in self.rows):
            raise DomainError("every row needs one code per condition attribute")
        names = self.cond_attrs + (self.decision_attr,)
        if len(set(names)) != len(names):
            raise SchemaError("attribute names must be unique")
        object.__setattr__(self, "object_indices", tuple(range(len(self.rows))))

    @property
    def parent(self) -> DecisionSystem:
        return self

    @property
    def n_objects(self) -> int:
        return len(self.rows)

    @property
    def n_attrs(self) -> int:
        return len(self.cond_attrs)


class SubSystem(_Record):
    """A row-subset view of a parent system over the same attributes."""

    parent: DecisionSystem
    object_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        idx = self.object_indices
        if not idx:
            raise DomainError("a sub-system needs a non-empty object set")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise DomainError("object indices must be strictly increasing")
        if idx[0] < 0 or idx[-1] >= self.parent.n_objects:
            raise DomainError("object index out of range for the parent system")

    @property
    def n_objects(self) -> int:
        return len(self.object_indices)

    def covers_parent(self) -> bool:
        return len(self.object_indices) == self.parent.n_objects


Table = Union[DecisionSystem, SubSystem]


def checked_attrs(table: Table, attrs: Iterable[int]) -> tuple[int, ...]:
    """Distinct attribute indices in ascending order; DomainError if any is out of range."""
    out = tuple(sorted(set(attrs)))
    n = table.parent.n_attrs
    if out and (out[0] < 0 or out[-1] >= n):
        raise DomainError(f"attribute index out of range for |C| = {n}")
    return out


def parse_decision_table(text: str, decision_column: str) -> DecisionSystem:
    """Build a DecisionSystem, which keeps no name or path, from a CSV text with a header row.

    Condition attributes keep header order (decision column excluded); each
    column is coded once, its value dictionary in first-occurrence order;
    duplicate rows are kept. Blank lines are ignored, and so is one leading
    byte-order mark. Errors name the physical line a record ends on, blank
    lines and quoted line breaks counted. The earliest bad record is the one
    reported: a wrong cell count before its empty cells, and of those the
    one in the lowest header column. A document the csv module rejects,
    such as one with a field over its size limit, raises ParseError.
    """
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff")))
    try:
        records = [(reader.line_num, rec) for rec in reader if rec]
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}") from exc
    if not records:
        raise ParseError("empty document: header row missing")
    header = records[0][1]
    if len(set(header)) != len(header):
        raise SchemaError("duplicate attribute names in header")
    if decision_column not in header:
        raise SchemaError(f"decision column {decision_column!r} not found in header")
    data = records[1:]
    if not data:
        raise ParseError("no data rows")

    width = len(header)
    for lineno, rec in data:
        if len(rec) != width:
            raise ParseError(f"row at line {lineno} has {len(rec)} cells, expected {width}")
        if "" in rec:
            attr = header[rec.index("")]
            raise MissingValueError(f"empty cell in column {attr!r} at line {lineno}")

    dictionaries: dict[str, dict[str, int]] = {}
    codes = []
    for attr, column in zip(header, zip(*(rec for _, rec in data))):
        table = dictionaries[attr] = dict(zip(dict.fromkeys(column), count()))
        codes.append(map(table.__getitem__, column))
    decisions = tuple(codes.pop(header.index(decision_column)))
    return DecisionSystem(
        cond_attrs=tuple(h for h in header if h != decision_column),
        decision_attr=decision_column,
        # With no condition column, zip gives no rows; each row is then empty.
        rows=tuple(zip(*codes)) or ((),) * len(decisions),
        decisions=decisions,
        dictionaries=dictionaries,
    )


def render_csv(system: DecisionSystem) -> str:
    """Serialize back to CSV (conditions in order, decision last).

    Re-parsing the result with the same decision column reproduces the
    system exactly, codes and dictionaries included. A column whose
    dictionary lacks one of its codes raises ``DomainError`` naming it.
    """
    header = (*system.cond_attrs, system.decision_attr)
    columns = []
    for attr, codes in zip(header, (*zip(*system.rows), system.decisions)):
        raws = {code: raw for raw, code in system.dictionaries.get(attr, {}).items()}
        try:
            columns.append([raws[c] for c in codes])
        except KeyError as exc:
            raise DomainError(f"attribute {attr!r} has no raw value for code {exc.args[0]}") from None
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*columns))
    return buf.getvalue()


def make_subsystem(system: DecisionSystem, indices: Iterable[int]) -> SubSystem:
    """Sub-system over the given rows, deduplicated and sorted; ``SubSystem`` checks them."""
    return SubSystem(system, tuple(sorted(set(indices))))


class SplitMix64:
    """splitmix64 stream; all arithmetic modulo 2**64."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection, free of modulo bias."""
        if n <= 0:
            raise ParameterError("bounded draw needs n >= 1")
        threshold = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < threshold:
                return u % n


def _draw_indices(rng: SplitMix64, n: int, m: int) -> tuple[int, ...]:
    # Partial Fisher-Yates: permute the first m slots, then sort them.
    pool = list(range(n))
    for i in range(m):
        j = i + rng.below(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return tuple(sorted(pool[:m]))


# ``Fraction`` expands a decimal exponent into 10**exponent before any range
# check can run, so "1e-99999999" would take minutes. Nothing is lost by the
# cap: a fraction below 1/rows samples one row, as 1e-1000 already does,
# and a value with a larger positive exponent is out of range.
MAX_EXPONENT = 1000


def parse_rational(value: Fraction | int | float | str, what: str) -> Fraction:
    """Exact rational from decimal or ``p/q`` text, or from a number read as its text.

    ``what`` names the value in errors. A float's text is its ``repr``, so
    ``0.1`` is 1/10, not the binary value nearest to it. Raises
    ParameterError for text ``Fraction`` rejects, NaN and infinities
    included, and for a decimal exponent outside [-MAX_EXPONENT,
    MAX_EXPONENT], refused before it is expanded.
    """
    # Imported here, its only run-time use, so ``reducts`` and ``core`` never load it.
    from fractions import Fraction

    try:
        text = value if isinstance(value, str) else str(value)
        # Valid text has at most one "e", which starts an integer exponent.
        _, e, exponent = text.lower().rpartition("e")
        if e and abs(int(exponent)) > MAX_EXPONENT:
            raise ParameterError(
                f"{what} {text!r} has a decimal exponent outside "
                f"[-{MAX_EXPONENT}, {MAX_EXPONENT}]"
            )
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"cannot parse {what} {value!r}") from exc


class SamplingPlan(_Record):
    """Deterministic sampling plan: seed, sample-size fractions, repeat count."""

    seed: int
    fractions: tuple[Fraction, ...]
    samples_per_fraction: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "fractions", tuple(parse_rational(f, "fraction") for f in self.fractions)
        )
        for name in ("seed", "samples_per_fraction"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ParameterError(f"{name} must be an int")
        if not 0 <= self.seed <= MASK64:
            raise ParameterError("seed must fit in an unsigned 64-bit integer")
        if not self.fractions:
            raise ParameterError("at least one fraction is required")
        for f in self.fractions:
            if not 0 < f <= 1:
                raise ParameterError(f"fraction {f} outside (0, 1]")
        if self.samples_per_fraction < 1:
            raise ParameterError("samples_per_fraction must be >= 1")


class Family(_Record):
    """Ordered multiset of sub-systems of one parent; duplicates count."""

    members: tuple[SubSystem, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise DomainError("a family needs at least one member")
        parent = self.members[0].parent
        if any(m.parent != parent for m in self.members[1:]):
            raise DomainError("all family members must share one parent system")

    @property
    def parent(self) -> DecisionSystem:
        return self.members[0].parent

    def __len__(self) -> int:
        return len(self.members)


# The most rows, summed over its members, and the most members that
# ``sample_family`` draws. A ``dynred dynamic`` run on a constant-decision
# table (no clauses, so only the family and its report) peaked at 159-185
# bytes per member row under tracemalloc for members of 100 to 20,000 rows,
# and at 1,258 bytes per member for 1-row members, where each member's fixed
# cost dominates: a family refused by either limit would need more than
# 1 GiB.
MAX_FAMILY_ROWS = 7_000_000
MAX_FAMILY_MEMBERS = 860_000


def sample_family(system: DecisionSystem, plan: SamplingPlan) -> Family:
    """Draw the plan's sub-systems from ``system``.

    For each fraction f, ``samples_per_fraction`` sub-systems of size
    ceil(f * |U|) are drawn without replacement, all from one splitmix64
    stream seeded by the plan; members are ordered by (fraction, sample).
    Pure function: equal inputs give equal families. Raises CapacityError
    before the first draw when the members would hold more than
    ``MAX_FAMILY_ROWS`` rows in all, or be more than ``MAX_FAMILY_MEMBERS``.
    """
    n = system.n_objects
    sizes = [-((-f.numerator * n) // f.denominator) for f in plan.fractions]  # exact ceil(f*n)
    total = plan.samples_per_fraction * sum(sizes)
    if total > MAX_FAMILY_ROWS:
        raise CapacityError(
            f"the family would hold {total} member rows, more than "
            f"MAX_FAMILY_ROWS = {MAX_FAMILY_ROWS}; draw fewer or smaller samples"
        )
    members = plan.samples_per_fraction * len(sizes)
    if members > MAX_FAMILY_MEMBERS:
        raise CapacityError(
            f"the family would have {members} members, more than "
            f"MAX_FAMILY_MEMBERS = {MAX_FAMILY_MEMBERS}; draw fewer samples"
        )
    rng = SplitMix64(plan.seed)
    return Family(tuple(
        SubSystem(system, _draw_indices(rng, n, m))
        for m in sizes
        for _ in range(plan.samples_per_fraction)
    ))

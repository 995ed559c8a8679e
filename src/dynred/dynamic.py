"""Family-level stability constructs for reducts and cores.

Given a decision system S and a family F of sampled sub-systems, this module
computes the stable ("dynamic") reducts and cores in all four flavours:

* plain: membership required in S and in every member of F;
* precision-thresholded: membership required in at least a fraction
  lambda of F, lambda in (1/2, 1];
* generalized: the requirement relative to S itself is dropped;
* generalized + thresholded.

One support filter defines all eight sets: a candidate from a pool (the
system's reducts or core; every member reduct or every attribute for the
generalized flavours) belongs when its support, the number of members
having it, reaches lambda * |F|. Being in every member is support |F|, so
each plain set is its thresholded counterpart at lambda = 1; the literal
"in every member" definitions live in ``oracle.py`` as the independent
reference. Threshold comparisons are exact: lambda is a rational and
support/|F| >= lambda is decided by integer cross-multiplication, so
boundary ties are deterministic. ``stability_report`` alone counts support
and produces the eight sets from the searches ``analyze_family`` records:
its record holds them at one threshold with the support counts and the
facts the laws read. ``verify_theorems`` checks the eleven laws tying the
eight sets together on that record alone: it walks one law table, each row
naming two report fields, whether one lies inside or equals the other, and
the hypothesis under which the law applies, and one evaluator judges every
row. Every attribute set is a bitmask (bit ``a`` is condition attribute
``a``) and every reduct collection a tuple of masks in ascending order.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import CapacityError, DomainError, ParameterError
from .oracle import literal_dynamic_core
from .reducts import (
    DEFAULT_MAX_ATTRS,
    DEFAULT_MAX_REDUCTS,
    _reducts,
    attr_mask,
    intersect_all,
    mask_indices,
)
from .rough import family_classes
from .table import DecisionSystem, Family, _Record, parse_rational

ONE_HALF = Fraction(1, 2)

# Thresholds the verifier walks, with the requested one, for the monotonicity check (T2c).
LAMBDA_GRID = (Fraction(51, 100), Fraction(3, 5), Fraction(3, 4), Fraction(9, 10), Fraction(1))


def check_lambda(value: Fraction | int | float | str) -> Fraction:
    """Read and validate a precision coefficient; admissible range is (1/2, 1].

    A ``Fraction`` is range-checked as it is. Other values are read by
    ``parse_rational``, as the CLI flag is: a float by its ``repr``, so
    ``0.6`` is 3/5, and malformed text, NaN, infinities and a huge decimal
    exponent raise ParameterError.
    """
    lam = value if type(value) is Fraction else parse_rational(value, "precision coefficient")
    if not ONE_HALF < lam <= 1:
        raise ParameterError(f"precision coefficient {lam} outside (1/2, 1]")
    return lam


class MemberAnalysis(_Record):
    """One table's reduct masks in ascending order and its core mask."""

    reducts: tuple[int, ...]
    core: int


class FamilyAnalysis(_Record):
    """``family``, the reducts and core of its system (``family.parent``) and of each member."""

    family: Family
    red_s: tuple[int, ...]
    core_s: int
    per_member: tuple[MemberAnalysis, ...]


def analyze_family(
    system: DecisionSystem,
    family: Family,
    *,
    max_attrs: int = DEFAULT_MAX_ATTRS,
    max_reducts: int = DEFAULT_MAX_REDUCTS,
) -> FamilyAnalysis:
    """Enumerate reducts and cores for the system and each distinct member once.

    The system's rows are packed once (``rough.family_classes``); each
    table's class table, one pass over its object indices, is searched as
    by ``table_reducts``. A repeated member (by object indices) shares its
    first occurrence's analysis, and a member covering the universe the
    system's.
    """
    if family.parent != system:
        raise DomainError("family members do not belong to the analyzed system")
    classes = family_classes(system)
    seen: dict[tuple[int, ...], MemberAnalysis] = {}
    for i, table in enumerate((system, *family.members), -1):
        if table.object_indices in seen:
            continue
        try:
            seen[table.object_indices] = MemberAnalysis(
                *_reducts(classes(table), max_attrs, max_reducts)
            )
        except CapacityError as exc:
            where = f"family member {i}" if i >= 0 else "base system"
            raise CapacityError(f"{where}: {exc}") from exc
    base = seen[system.object_indices]
    per_member = tuple(seen[m.object_indices] for m in family.members)
    return FamilyAnalysis(family, base.reducts, base.core, per_member)


def _supported(pool: Iterable, support, size: int, lam: Fraction | int) -> list:
    """The candidates in ``pool`` whose ``support`` reaches a ``lam`` share of ``size`` members."""
    # support/size >= lam without leaving the integers
    need, den = lam.numerator * size, lam.denominator
    return [x for x in pool if support[x] * den >= need]


class StabilityReport(_Record):
    """A family's support counts, the facts its laws read, and its eight sets at ``lam``.

    ``covering`` counts the members covering the whole system, and
    ``literal_dcore`` is the plain stable core by its literal definition
    (``oracle.literal_dynamic_core``), the reference of law T2b.
    """

    family_size: int
    covering: int
    core_s: int
    literal_dcore: int
    attr_core_support: dict[int, int]
    reduct_support: tuple[tuple[int, int], ...]
    lam: Fraction
    dr: tuple[int, ...]
    dr_lambda: tuple[int, ...]
    gdr: tuple[int, ...]
    gdr_lambda: tuple[int, ...]
    dcore: int
    dcore_lambda: int
    gdcore: int
    gdcore_lambda: int


def stability_report(
    analysis: FamilyAnalysis, lam: Fraction | int | str = Fraction(1)
) -> StabilityReport:
    """Support counts for every attribute and reduct candidate, and the eight sets at ``lam``.

    Support is counted here and nowhere else, a repeated member each time.
    The plain four sets are the filters at 1. Generalized reducts are drawn
    from the union of the members' reduct sets; anything with non-zero
    support lies there, so the pool is lossless.
    """
    lam = check_lambda(lam)
    members, n, core_s = analysis.per_member, analysis.family.parent.n_attrs, analysis.core_s
    size = len(members)
    reducts = Counter(r for m in members for r in m.reducts)
    cores = Counter(a for m in members for a in mask_indices(m.core))
    (dr, gdr, gdcore), (dr_lambda, gdr_lambda, gdcore_lambda) = (
        (
            tuple(_supported(analysis.red_s, reducts, size, at)),
            tuple(sorted(_supported(reducts, reducts, size, at))),
            attr_mask(_supported(range(n), cores, size, at)),
        )
        for at in (1, lam)
    )
    return StabilityReport(
        family_size=size,
        covering=sum(m.covers_parent() for m in analysis.family.members),
        core_s=core_s,
        literal_dcore=literal_dynamic_core(analysis),
        attr_core_support={a: cores[a] for a in range(n)},
        reduct_support=tuple((r, reducts[r]) for r in sorted({*analysis.red_s, *reducts})),
        lam=lam,
        dr=dr,
        dr_lambda=dr_lambda,
        gdr=gdr,
        gdr_lambda=gdr_lambda,
        dcore=core_s & gdcore,
        dcore_lambda=core_s & gdcore_lambda,
        gdcore=gdcore,
        gdcore_lambda=gdcore_lambda,
    )


class TheoremCheck(_Record):
    """Outcome of one verified law: pass, fail, vacuous, or not-applicable."""

    check: str
    status: str
    detail: str
    witness: dict | None = None


class _Law(NamedTuple):
    """One law: report set ``small`` lies ``inside`` or ``equals`` set ``big``.

    A reduct tuple stands for its intersection. T2c names ``dcore_lambda``
    on both sides: it compares that core at each step of a threshold ladder
    with the core a step below.
    """

    name: str
    statement: str
    small: str
    relation: str
    big: str
    hypothesis: str = "always"


# When a law applies, keyed by the words the README's law table uses.
_HYPOTHESES = {
    "always": lambda report: True,
    "family_size == covering == 1": lambda report: report.family_size == report.covering == 1,
    "covering > 0": lambda report: report.covering > 0,
}

# The eleven laws in check order.
_LAWS = (
    _Law("T1", "stable core lies inside the intersection of stable reducts",
         "dcore", "inside", "dr"),
    _Law("T2a", "single-member family equal to the system: stable core is the static core",
         "dcore", "equals", "core_s", "family_size == covering == 1"),
    _Law("T2b", "threshold 1 collapses the thresholded core to the plain stable core",
         "dcore", "equals", "literal_dcore"),
    _Law("T2c", "thresholded cores shrink as the threshold grows",
         "dcore_lambda", "inside", "dcore_lambda"),
    _Law("T2d", "the plain stable core lies inside every thresholded core",
         "dcore", "inside", "dcore_lambda"),
    _Law("T3", "thresholded core lies inside the intersection of thresholded reducts",
         "dcore_lambda", "inside", "dr_lambda"),
    _Law("T4a", "stable core lies inside the generalized stable core",
         "dcore", "inside", "gdcore"),
    _Law("T4b", "thresholded core lies inside the generalized thresholded core",
         "dcore_lambda", "inside", "gdcore_lambda"),
    _Law("T4c", "family containing the full system: generalized and plain stable cores agree",
         "gdcore", "equals", "dcore", "covering > 0"),
    _Law("T5a", "generalized core lies inside the intersection of generalized reducts",
         "gdcore", "inside", "gdr"),
    _Law("T5b", "generalized thresholded core lies inside the intersection of "
         "generalized thresholded reducts", "gdcore_lambda", "inside", "gdr_lambda"),
)


def _evaluate(
    law: _Law, small: int, big: int | tuple[int, ...], n: int, **context: str
) -> TheoremCheck:
    """``law`` on two sets; an empty reduct tuple makes a holding law "vacuous".

    A failure's witness names the lowest attribute in ``small`` outside
    ``big`` (for "equals", in their difference), then ``context``, then both
    sets.
    """
    vacuous = big == ()
    if type(big) is tuple:
        big = intersect_all(big, n)
    if law.relation == "equals":
        odd, keys = small ^ big, ("left", "right")
    else:
        odd, keys = small & ~big, ("subset", "superset")
    if not odd:
        return TheoremCheck(law.name, "vacuous" if vacuous else "pass", law.statement)
    witness = {
        "attribute": mask_indices(odd)[0],
        **context,
        keys[0]: mask_indices(small),
        keys[1]: mask_indices(big),
    }
    return TheoremCheck(law.name, "fail", law.statement, witness)


def verify_theorems(report: StabilityReport) -> tuple[TheoremCheck, ...]:
    """Evaluate the eleven containment/identity laws of ``_LAWS`` on one ``report``.

    The laws read the report alone: its eight sets at ``report.lam``, the
    static core, the covering count and T2b's reference. A law whose
    hypothesis does not hold (T2a: a single member covering the system; T4c:
    some member covering it) reports "not-applicable". Containments over an
    empty reduct set hold through the full-set intersection convention and
    report "vacuous" instead of "pass". Failures carry the offending
    attribute and both sets; they are data, not errors. T2b compares the
    threshold-1 core with its literal intersection, since the engine's plain
    core is that same filter. T2c walks ``LAMBDA_GRID`` and ``report.lam`` in
    ascending order and reports its first failing step, with
    ``lambda_low`` and ``lambda_high`` in the witness.
    """
    n = len(report.attr_core_support)
    checks = []
    for law in _LAWS:
        if not _HYPOTHESES[law.hypothesis](report):
            checks.append(TheoremCheck(law.name, "not-applicable", law.statement))
        elif law.small != law.big:
            checks.append(_evaluate(law, getattr(report, law.small), getattr(report, law.big), n))
        else:
            support, size = report.attr_core_support, report.family_size
            ladder = sorted({*LAMBDA_GRID, report.lam})
            cores = [report.core_s & attr_mask(_supported(support, support, size, at))
                     for at in ladder]
            steps = [
                _evaluate(law, high_core, low_core, n, lambda_low=str(low), lambda_high=str(high))
                for low, high, low_core, high_core in zip(ladder, ladder[1:], cores, cores[1:])
            ]
            checks.append(next((c for c in steps if c.status == "fail"), steps[0]))
    return tuple(checks)

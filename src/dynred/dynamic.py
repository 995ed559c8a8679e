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
facts the laws read, and ``verify_theorems`` checks the containment laws
tying the eight sets together on that record alone. Every attribute set is
a bitmask (bit ``a`` is condition attribute ``a``) and every reduct
collection a tuple of masks in ascending order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

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
from .table import DecisionSystem, Family, parse_rational

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


@dataclass(frozen=True)
class MemberAnalysis:
    """One table's reduct masks in ascending order and its core mask."""

    reducts: tuple[int, ...]
    core: int


@dataclass(frozen=True)
class FamilyAnalysis:
    """The searches of a system and of every family member; ``stability_report`` counts support."""

    system: DecisionSystem
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
    return FamilyAnalysis(system, family, base.reducts, base.core, per_member)


def _supported(pool: Iterable, support, size: int, lam: Fraction | int) -> list:
    """The candidates in ``pool`` whose ``support`` reaches a ``lam`` share of ``size`` members."""
    # support/size >= lam without leaving the integers
    need, den = lam.numerator * size, lam.denominator
    return [x for x in pool if support[x] * den >= need]


@dataclass(frozen=True)
class StabilityReport:
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
    members, n, core_s = analysis.per_member, analysis.system.n_attrs, analysis.core_s
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


@dataclass(frozen=True)
class TheoremCheck:
    """Outcome of one verified law: pass, fail, vacuous, or not-applicable."""

    check: str
    status: str
    detail: str
    witness: dict | None = None


def _containment(
    check: str, small: int, big: int, detail: str, vacuous: bool = False, **context: str
) -> TheoremCheck:
    """``small`` lies inside ``big``; a failure names the lowest attribute outside it."""
    missing = small & ~big
    if missing:
        witness = {
            "attribute": mask_indices(missing)[0],
            **context,
            "subset": mask_indices(small),
            "superset": mask_indices(big),
        }
        return TheoremCheck(check, "fail", detail, witness)
    return TheoremCheck(check, "vacuous" if vacuous else "pass", detail)


def _inside_reducts(
    check: str, core: int, reducts: tuple[int, ...], n: int, detail: str
) -> TheoremCheck:
    """``core`` lies inside ``intersect_all(reducts, n)``; vacuous when there are no reducts."""
    return _containment(check, core, intersect_all(reducts, n), detail, vacuous=not reducts)


def _equality(check: str, left: int, right: int, detail: str) -> TheoremCheck:
    diff = left ^ right
    if diff:
        witness = {
            "attribute": mask_indices(diff)[0],
            "left": mask_indices(left),
            "right": mask_indices(right),
        }
        return TheoremCheck(check, "fail", detail, witness)
    return TheoremCheck(check, "pass", detail)


def verify_theorems(report: StabilityReport) -> tuple[TheoremCheck, ...]:
    """Evaluate the eleven containment/identity laws on one ``report``.

    The laws read the report alone: its eight sets at ``report.lam``, the
    static core, the covering count and T2b's reference. Checks whose
    hypothesis does not hold (single-member family equal to the system; some
    member covering the whole universe) report "not-applicable".
    Containments over an empty reduct set hold through the full-set
    intersection convention and report "vacuous" instead of "pass". Failures
    carry the offending attribute and both sets; they are data, not errors.
    T2b compares the threshold-1 core with its literal intersection, since
    the engine's plain core is that same filter.
    """
    n = len(report.attr_core_support)

    checks = [
        _inside_reducts(
            "T1", report.dcore, report.dr, n,
            "stable core lies inside the intersection of stable reducts",
        )
    ]

    t2a = "single-member family equal to the system: stable core is the static core"
    if report.family_size == report.covering == 1:
        checks.append(_equality("T2a", report.dcore, report.core_s, t2a))
    else:
        checks.append(TheoremCheck("T2a", "not-applicable", t2a))

    checks.append(
        _equality(
            "T2b",
            report.dcore,
            report.literal_dcore,
            "threshold 1 collapses the thresholded core to the plain stable core",
        )
    )

    # Each step of the ladder is one containment; the first failing step reports.
    support = report.attr_core_support
    ladder = sorted(set(LAMBDA_GRID) | {report.lam})
    cores = [report.core_s & attr_mask(_supported(support, support, report.family_size, at))
             for at in ladder]
    steps = [
        _containment(
            "T2c", high_core, low_core,
            "thresholded cores shrink as the threshold grows",
            lambda_low=str(low),
            lambda_high=str(high),
        )
        for low, high, low_core, high_core in zip(ladder, ladder[1:], cores, cores[1:])
    ]
    checks.append(next((c for c in steps if c.status == "fail"), steps[0]))

    checks.append(
        _containment(
            "T2d", report.dcore, report.dcore_lambda,
            "the plain stable core lies inside every thresholded core",
        )
    )
    checks.append(
        _inside_reducts(
            "T3", report.dcore_lambda, report.dr_lambda, n,
            "thresholded core lies inside the intersection of thresholded reducts",
        )
    )
    checks.append(
        _containment(
            "T4a", report.dcore, report.gdcore,
            "stable core lies inside the generalized stable core",
        )
    )
    checks.append(
        _containment(
            "T4b", report.dcore_lambda, report.gdcore_lambda,
            "thresholded core lies inside the generalized thresholded core",
        )
    )

    t4c = "family containing the full system: generalized and plain stable cores agree"
    if report.covering:
        checks.append(_equality("T4c", report.gdcore, report.dcore, t4c))
    else:
        checks.append(TheoremCheck("T4c", "not-applicable", t4c))

    checks.append(
        _inside_reducts(
            "T5a", report.gdcore, report.gdr, n,
            "generalized core lies inside the intersection of generalized reducts",
        )
    )
    checks.append(
        _inside_reducts(
            "T5b", report.gdcore_lambda, report.gdr_lambda, n,
            "generalized thresholded core lies inside the intersection of "
            "generalized thresholded reducts",
        )
    )
    return tuple(checks)

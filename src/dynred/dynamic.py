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
boundary ties are deterministic. The module also exposes the raw support
counts and a verifier for the containment laws tying the eight sets
together; it reads the eight sets at one threshold as one ``LambdaSlice``,
which a caller reporting that slice hands over (``verify_slice``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import CapacityError, DomainError, ParameterError
from .oracle import literal_dynamic_core
from .reducts import (
    DEFAULT_MAX_ATTRS,
    DEFAULT_MAX_REDUCTS,
    all_reducts,
    canonical_reducts,
    intersect_all,
)
from .table import DecisionSystem, Family, parse_rational

ONE_HALF = Fraction(1, 2)

# Thresholds the verifier walks, with the requested one, for the monotonicity check (T2c).
LAMBDA_GRID = (
    Fraction(51, 100),
    Fraction(3, 5),
    Fraction(3, 4),
    Fraction(9, 10),
    Fraction(1),
)


def check_lambda(value: Fraction | int | float | str) -> Fraction:
    """Read and validate a precision coefficient; admissible range is (1/2, 1].

    The value is read by ``parse_rational``, as the CLI flag is: a float by
    its ``repr``, so ``0.6`` is 3/5, and malformed text, NaN, infinities and
    a huge decimal exponent raise ParameterError.
    """
    lam = parse_rational(value, "precision coefficient")
    if not ONE_HALF < lam <= 1:
        raise ParameterError(f"precision coefficient {lam} outside (1/2, 1]")
    return lam


@dataclass(frozen=True)
class MemberAnalysis:
    reducts: tuple[frozenset[int], ...]
    core: frozenset[int]


@dataclass(frozen=True)
class FamilyAnalysis:
    """Cached reducts and cores of a system and of every family member.

    ``reduct_support`` counts, per attribute set, the members having it as
    a reduct; ``core_support`` counts, per attribute, the members having it
    in their core. Both respect multiplicity and are derived once from
    ``per_member``.
    """

    system: DecisionSystem
    family: Family
    red_s: tuple[frozenset[int], ...]
    core_s: frozenset[int]
    per_member: tuple[MemberAnalysis, ...]
    reduct_support: Counter = field(init=False, repr=False, compare=False)
    core_support: Counter = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        members = self.per_member
        object.__setattr__(self, "reduct_support", Counter(r for m in members for r in m.reducts))
        object.__setattr__(self, "core_support", Counter(a for m in members for a in m.core))

    @property
    def family_size(self) -> int:
        return len(self.per_member)

    @property
    def n_attrs(self) -> int:
        return self.system.n_attrs


def analyze_family(
    system: DecisionSystem,
    family: Family,
    *,
    max_attrs: int = DEFAULT_MAX_ATTRS,
    max_reducts: int = DEFAULT_MAX_REDUCTS,
) -> FamilyAnalysis:
    """Enumerate reducts and cores for the system and each distinct member once.

    Each core is the intersection of that table's reducts, so it costs no
    pass over the rows. Members are keyed by their object indices: a
    repeated member shares the analysis of its first occurrence, and a
    member covering the whole universe shares the system's.
    """
    if family.parent != system:
        raise DomainError("family members do not belong to the analyzed system")
    try:
        red_s = all_reducts(system, max_attrs=max_attrs, max_reducts=max_reducts)
    except CapacityError as exc:
        raise CapacityError(f"base system: {exc}") from exc
    core_s = intersect_all(red_s, system.n_attrs)
    seen = {tuple(range(system.n_objects)): MemberAnalysis(red_s, core_s)}
    for i, member in enumerate(family.members):
        if member.object_indices in seen:
            continue
        try:
            red_b = all_reducts(member, max_attrs=max_attrs, max_reducts=max_reducts)
        except CapacityError as exc:
            raise CapacityError(f"family member {i}: {exc}") from exc
        seen[member.object_indices] = MemberAnalysis(red_b, intersect_all(red_b, system.n_attrs))
    per_member = tuple(seen[m.object_indices] for m in family.members)
    return FamilyAnalysis(system, family, red_s, core_s, per_member)


def _supported(
    analysis: FamilyAnalysis, pool: Iterable, support: Counter, lam: Fraction | int | str
) -> list:
    """The candidates in ``pool`` whose ``support`` reaches a ``lam`` share of the family."""
    lam = check_lambda(lam)
    # support/|F| >= lam without leaving the integers
    need, den = lam.numerator * analysis.family_size, lam.denominator
    return [x for x in pool if support[x] * den >= need]


def dynamic_reduct_lambda(
    analysis: FamilyAnalysis, lam: Fraction | int | str
) -> tuple[frozenset[int], ...]:
    """Reducts of the system recurring in at least a ``lam`` share of members."""
    return tuple(_supported(analysis, analysis.red_s, analysis.reduct_support, lam))


def generalized_dynamic_reduct_lambda(
    analysis: FamilyAnalysis, lam: Fraction | int | str
) -> tuple[frozenset[int], ...]:
    """Member reducts recurring in at least a ``lam`` share of members.

    Candidates are the union of the members' reduct sets; anything with
    non-zero support lies there, so the pool is lossless.
    """
    support = analysis.reduct_support
    return canonical_reducts(_supported(analysis, support, support, lam))


def dynamic_core_lambda(
    analysis: FamilyAnalysis, lam: Fraction | int | str
) -> frozenset[int]:
    """Core attributes of the system recurring in at least a ``lam`` share of member cores."""
    return frozenset(_supported(analysis, analysis.core_s, analysis.core_support, lam))


def generalized_dynamic_core_lambda(
    analysis: FamilyAnalysis, lam: Fraction | int | str
) -> frozenset[int]:
    """Any condition attribute recurring in at least a ``lam`` share of member cores."""
    return frozenset(_supported(analysis, range(analysis.n_attrs), analysis.core_support, lam))


def dynamic_reduct(analysis: FamilyAnalysis) -> tuple[frozenset[int], ...]:
    """Reducts of the system that survive as reducts of every member."""
    return dynamic_reduct_lambda(analysis, 1)


def generalized_dynamic_reduct(analysis: FamilyAnalysis) -> tuple[frozenset[int], ...]:
    """Attribute sets that are reducts of every member; the system is not consulted."""
    return generalized_dynamic_reduct_lambda(analysis, 1)


def dynamic_core(analysis: FamilyAnalysis) -> frozenset[int]:
    """Core attributes of the system that stay core in every member."""
    return dynamic_core_lambda(analysis, 1)


def generalized_dynamic_core(analysis: FamilyAnalysis) -> frozenset[int]:
    """Attributes that are core in every member, regardless of the system."""
    return generalized_dynamic_core_lambda(analysis, 1)


@dataclass(frozen=True)
class LambdaSlice:
    """All eight family-level sets evaluated at one threshold."""

    lam: Fraction
    dr: tuple[frozenset[int], ...]
    dr_lambda: tuple[frozenset[int], ...]
    gdr: tuple[frozenset[int], ...]
    gdr_lambda: tuple[frozenset[int], ...]
    dcore: frozenset[int]
    dcore_lambda: frozenset[int]
    gdcore: frozenset[int]
    gdcore_lambda: frozenset[int]


@dataclass(frozen=True)
class StabilityReport:
    """Raw support counts behind the thresholded sets, plus per-threshold slices."""

    family_size: int
    attr_core_support: dict[int, int]
    reduct_support: tuple[tuple[frozenset[int], int], ...]
    per_lambda: tuple[LambdaSlice, ...]


def _slice(analysis: FamilyAnalysis, lam: Fraction | int | str) -> LambdaSlice:
    """The eight sets at one threshold; the plain four are the filters at 1."""
    lam = check_lambda(lam)
    return LambdaSlice(
        lam=lam,
        dr=dynamic_reduct(analysis),
        dr_lambda=dynamic_reduct_lambda(analysis, lam),
        gdr=generalized_dynamic_reduct(analysis),
        gdr_lambda=generalized_dynamic_reduct_lambda(analysis, lam),
        dcore=dynamic_core(analysis),
        dcore_lambda=dynamic_core_lambda(analysis, lam),
        gdcore=generalized_dynamic_core(analysis),
        gdcore_lambda=generalized_dynamic_core_lambda(analysis, lam),
    )


def stability_report(
    analysis: FamilyAnalysis, lambdas: Sequence[Fraction | int | str] = ()
) -> StabilityReport:
    """Support counts for every attribute and reduct candidate; counts respect multiplicity."""
    candidates = canonical_reducts([*analysis.red_s, *analysis.reduct_support])
    return StabilityReport(
        family_size=analysis.family_size,
        attr_core_support={a: analysis.core_support[a] for a in range(analysis.n_attrs)},
        reduct_support=tuple((r, analysis.reduct_support[r]) for r in candidates),
        per_lambda=tuple(_slice(analysis, lam) for lam in lambdas),
    )


@dataclass(frozen=True)
class TheoremCheck:
    """Outcome of one verified law: pass, fail, vacuous, or not-applicable."""

    check: str
    status: str
    detail: str
    witness: dict | None = None


def _containment(
    check: str,
    small: frozenset[int],
    big: frozenset[int],
    detail: str,
    vacuous: bool = False,
) -> TheoremCheck:
    missing = sorted(small - big)
    if missing:
        witness = {
            "attribute": missing[0],
            "subset": sorted(small),
            "superset": sorted(big),
        }
        return TheoremCheck(check, "fail", detail, witness)
    return TheoremCheck(check, "vacuous" if vacuous else "pass", detail)


def _equality(
    check: str, left: frozenset[int], right: frozenset[int], detail: str
) -> TheoremCheck:
    diff = sorted(left ^ right)
    if diff:
        witness = {"attribute": diff[0], "left": sorted(left), "right": sorted(right)}
        return TheoremCheck(check, "fail", detail, witness)
    return TheoremCheck(check, "pass", detail)


def verify_theorems(
    analysis: FamilyAnalysis, lam: Fraction | int | str
) -> tuple[TheoremCheck, ...]:
    """Evaluate the eleven containment/identity laws on this analysis.

    Checks whose hypothesis does not hold (single-member family equal to the
    system; some member covering the whole universe) report "not-applicable".
    Containments over an empty reduct set hold through the full-set
    intersection convention and report "vacuous" instead of "pass".
    Failures carry the offending attribute and both sets; they are data,
    not errors. T2b compares the threshold-1 core with the literal
    intersection in ``oracle.py``, since the engine's plain core is that
    same filter.
    """
    return verify_slice(analysis, _slice(analysis, lam))


def verify_slice(analysis: FamilyAnalysis, s: LambdaSlice) -> tuple[TheoremCheck, ...]:
    """``verify_theorems`` on the eight sets already evaluated at ``s.lam``."""
    n = analysis.n_attrs
    members = analysis.family.members

    checks = [
        _containment(
            "T1",
            s.dcore,
            intersect_all(s.dr, n),
            "stable core lies inside the intersection of stable reducts",
            vacuous=not s.dr,
        )
    ]

    t2a = "single-member family equal to the system: stable core is the static core"
    if len(members) == 1 and members[0].covers_parent():
        checks.append(_equality("T2a", s.dcore, analysis.core_s, t2a))
    else:
        checks.append(TheoremCheck("T2a", "not-applicable", t2a))

    checks.append(
        _equality(
            "T2b",
            s.dcore,
            literal_dynamic_core(analysis),
            "threshold 1 collapses the thresholded core to the plain stable core",
        )
    )

    ladder = sorted(set(LAMBDA_GRID) | {s.lam})
    t2c = TheoremCheck(
        "T2c", "pass", "thresholded cores shrink as the threshold grows"
    )
    for low, high in zip(ladder, ladder[1:]):
        core_low = dynamic_core_lambda(analysis, low)
        core_high = dynamic_core_lambda(analysis, high)
        extra = sorted(core_high - core_low)
        if extra:
            t2c = TheoremCheck(
                "T2c",
                "fail",
                t2c.detail,
                {
                    "attribute": extra[0],
                    "lambda_low": str(low),
                    "lambda_high": str(high),
                    "subset": sorted(core_high),
                    "superset": sorted(core_low),
                },
            )
            break
    checks.append(t2c)

    checks.append(
        _containment(
            "T2d",
            s.dcore,
            s.dcore_lambda,
            "the plain stable core lies inside every thresholded core",
        )
    )
    checks.append(
        _containment(
            "T3",
            s.dcore_lambda,
            intersect_all(s.dr_lambda, n),
            "thresholded core lies inside the intersection of thresholded reducts",
            vacuous=not s.dr_lambda,
        )
    )
    checks.append(
        _containment(
            "T4a",
            s.dcore,
            s.gdcore,
            "stable core lies inside the generalized stable core",
        )
    )
    checks.append(
        _containment(
            "T4b",
            s.dcore_lambda,
            s.gdcore_lambda,
            "thresholded core lies inside the generalized thresholded core",
        )
    )

    t4c = "family containing the full system: generalized and plain stable cores agree"
    if any(m.covers_parent() for m in members):
        checks.append(_equality("T4c", s.gdcore, s.dcore, t4c))
    else:
        checks.append(TheoremCheck("T4c", "not-applicable", t4c))

    checks.append(
        _containment(
            "T5a",
            s.gdcore,
            intersect_all(s.gdr, n),
            "generalized core lies inside the intersection of generalized reducts",
            vacuous=not s.gdr,
        )
    )
    checks.append(
        _containment(
            "T5b",
            s.gdcore_lambda,
            intersect_all(s.gdr_lambda, n),
            "generalized thresholded core lies inside the intersection of "
            "generalized thresholded reducts",
            vacuous=not s.gdr_lambda,
        )
    )
    return tuple(checks)

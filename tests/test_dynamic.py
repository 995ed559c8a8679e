import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from dynred import (
    LAMBDA_GRID,
    DomainError,
    Family,
    MemberAnalysis,
    ParameterError,
    SamplingPlan,
    StabilityReport,
    all_reducts,
    analyze_family,
    check_lambda,
    core_of,
    full_subsystem,
    intersect_all,
    is_antichain,
    literal_dynamic_core,
    literal_dynamic_reduct,
    literal_generalized_dynamic_core,
    literal_generalized_dynamic_reduct,
    make_subsystem,
    parse_decision_table,
    sample_family,
    stability_report,
    verify_theorems,
)

from dynred.reducts import mask_indices, table_reducts
from dynred.table import parse_rational

from conftest import as_mask, inside, mask, mask_names, matching_csv, random_family, random_system


@pytest.fixture
def fam(fix_a):
    """Sub-tables of FIX-A used throughout: row pairs 01, 02, 12."""
    b1 = make_subsystem(fix_a, {0, 1})
    b2 = make_subsystem(fix_a, {0, 2})
    b3 = make_subsystem(fix_a, {1, 2})
    return fix_a, b1, b2, b3


def analyze(system, *members):
    return analyze_family(system, Family(tuple(members)))


class TestLambdaParsing:
    @pytest.mark.parametrize("text", ["0.5", "0.49", "1.01", "0", "2"])
    def test_out_of_range_rejected(self, text):
        with pytest.raises(ParameterError):
            check_lambda(text)

    @pytest.mark.parametrize("text,value", [("0.51", Fraction(51, 100)),
                                            ("0.6", Fraction(3, 5)),
                                            ("1", Fraction(1)),
                                            ("75E-2", Fraction(3, 4))])
    def test_exact_rationals(self, text, value):
        assert check_lambda(text) == value

    def test_exponent_cap(self):
        # The cap is checked before Fraction expands 10**exponent.
        assert parse_rational("1e-1000", "fraction") == Fraction(1, 10 ** 1000)
        for text in ("1e-1001", "1E+1001", "1e-" + "9" * 4000, "1e" + "9" * 5000):
            with pytest.raises(ParameterError):
                parse_rational(text, "fraction")

    def test_garbage_rejected(self):
        with pytest.raises(ParameterError):
            check_lambda("half")

    def test_check_accepts_fraction(self):
        assert check_lambda(Fraction(3, 4)) == Fraction(3, 4)

    @pytest.mark.parametrize("value", [Fraction(51, 100), Fraction(3, 4), Fraction(1),
                                       Fraction(1, 2), Fraction(101, 100), Fraction(-3, 4)])
    def test_fraction_is_range_checked_without_the_text_reader(self, monkeypatch, value):
        import dynred.dynamic

        def verdict(v):
            try:
                return check_lambda(v)
            except ParameterError as exc:
                return str(exc)

        expected = verdict(str(value))
        monkeypatch.setattr(dynred.dynamic, "parse_rational", None)  # a call would fail
        got = verdict(value)
        assert got == expected and type(got) is type(expected)

    def test_bool_is_refused(self):
        with pytest.raises(ParameterError, match="cannot parse"):
            check_lambda(True)


class TestLibraryStringInput:
    """``check_lambda`` and ``SamplingPlan`` read strings as the CLI does."""

    @pytest.mark.parametrize("call", [
        'dynred.check_lambda("1e-99999999")',
        'dynred.SamplingPlan(seed=0, fractions=("1e-99999999",), samples_per_fraction=1)',
    ])
    def test_huge_exponent_refused_before_expansion(self, call):
        # Expanding 10**99999999 would hang; the subprocess timeout turns a
        # regression into a failure.
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src) + os.pathsep + os.environ.get("PYTHONPATH", ""))
        code = f"import dynred\ntry:\n    {call}\nexcept dynred.ParameterError as exc:\n    print(exc)\n"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert "exponent" in proc.stdout

    @pytest.mark.parametrize("text", ["abc", "1/0"])
    def test_malformed_text_is_a_parameter_error(self, text):
        with pytest.raises(ParameterError, match="cannot parse"):
            check_lambda(text)
        with pytest.raises(ParameterError, match="cannot parse"):
            SamplingPlan(seed=0, fractions=(text,), samples_per_fraction=1)


class TestLibraryNumberInput:
    """Numbers reach ``check_lambda`` and ``SamplingPlan`` through the same reader as text."""

    @pytest.mark.parametrize("value,exact", [(0.6, Fraction(3, 5)), (0.51, Fraction(51, 100)),
                                             (1.0, Fraction(1))])
    def test_float_read_as_its_decimal(self, value, exact):
        assert check_lambda(value) == exact
        assert check_lambda(value) == check_lambda(repr(value))

    def test_float_fraction_samples_like_its_text(self):
        # Fraction(0.1) lies just above 1/10, so its ceiling would draw 2 of 10 rows.
        s = parse_decision_table("a,d\n" + "".join(f"{i},{i % 2}\n" for i in range(10)), "d")
        plan = SamplingPlan(seed=0, fractions=(0.1,), samples_per_fraction=1)
        assert plan.fractions == (Fraction(1, 10),)
        assert sample_family(s, plan) == sample_family(
            s, SamplingPlan(seed=0, fractions=("0.1",), samples_per_fraction=1))
        assert sample_family(s, plan).members[0].n_objects == 1

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_nan_and_infinity_are_parameter_errors(self, value):
        with pytest.raises(ParameterError):
            check_lambda(value)
        with pytest.raises(ParameterError):
            SamplingPlan(seed=0, fractions=(value,), samples_per_fraction=1)

    @pytest.mark.parametrize("field,value", [("seed", 1.5), ("seed", "7"), ("seed", True),
                                             ("samples_per_fraction", 2.0),
                                             ("samples_per_fraction", True)])
    def test_non_int_counts_are_parameter_errors(self, field, value):
        kwargs = dict(seed=0, fractions=("0.5",), samples_per_fraction=1)
        kwargs[field] = value
        with pytest.raises(ParameterError, match=field):
            SamplingPlan(**kwargs)


class TestAnalyzeFamily:
    def test_single_member(self, fam):
        s, b1, _, _ = fam
        a = analyze(s, b1)
        assert mask_names(s, a.red_s) == [["a", "b"], ["a", "c"]]
        assert a.core_s == mask(s, "a")
        assert mask_names(s, a.per_member[0].reducts) == [["a"]]
        assert a.per_member[0].core == mask(s, "a")

    def test_full_member_mirrors_system(self, fam):
        s, *_ = fam
        a = analyze(s, full_subsystem(s))
        assert a.per_member[0].reducts == a.red_s
        assert a.per_member[0].core == a.core_s

    def test_constant_decision_member(self, fam):
        s, _, _, b3 = fam
        a = analyze(s, b3)
        assert a.per_member[0].reducts == (0,)
        assert a.per_member[0].core == 0

    def test_foreign_member_rejected(self, fix_a, fix_b):
        family = Family((make_subsystem(fix_b, {0, 1}),))
        with pytest.raises(DomainError):
            analyze_family(fix_a, family)

    def test_capacity_error_names_offending_member(self):
        from dynred import CapacityError, parse_decision_table

        # The base table has a single reduct, but the first two rows alone
        # need one of six singletons, overflowing a tiny reduct cap.
        text = "p,q,r,s,t,u,d\n0,0,0,0,0,0,0\n1,1,1,1,1,1,1\n1,0,0,0,0,0,1\n"
        s = parse_decision_table(text, "d")
        assert len(all_reducts(s)) == 1
        family = Family((make_subsystem(s, {0, 1}),))
        with pytest.raises(CapacityError, match="family member 0"):
            analyze_family(s, family, max_reducts=5)

    def test_repeated_and_full_members_match_separate_analysis(self):
        rng = random.Random(0xD0_0B1E)
        for _ in range(20):
            s = random_system(rng, max_objects=10, max_attrs=5)
            members = list(random_family(rng, s, max_members=4).members)
            members += [full_subsystem(s)] + rng.choices(members, k=3) + [full_subsystem(s)]
            rng.shuffle(members)
            a = analyze(s, *members)
            # The frozenset views, read back as masks in ascending order.
            assert a.per_member == tuple(
                MemberAnalysis(tuple(sorted(map(as_mask, all_reducts(m)))), as_mask(core_of(m)))
                for m in members
            )

    def test_capacity_error_names_first_of_repeated_members(self):
        from dynred import CapacityError, parse_decision_table

        # Rows {0, 1} need one of six singletons, overflowing the cap; the
        # full table and rows {0, 2} have a single reduct each.
        text = "p,q,r,s,t,u,d\n0,0,0,0,0,0,0\n1,1,1,1,1,1,1\n1,0,0,0,0,0,1\n"
        s = parse_decision_table(text, "d")
        bad = make_subsystem(s, {0, 1})
        family = Family((full_subsystem(s), make_subsystem(s, {0, 2}), bad, bad))
        with pytest.raises(CapacityError, match="family member 2:"):
            analyze_family(s, family, max_reducts=5)

    def test_capacity_error_names_the_base_system(self):
        from dynred import CapacityError

        # The table's two reducts overflow a cap of one before any member runs.
        s = parse_decision_table(matching_csv(1), "d")
        assert len(all_reducts(s)) == 2
        family = Family((make_subsystem(s, {0}),))
        with pytest.raises(CapacityError, match="^base system: "):
            analyze_family(s, family, max_reducts=1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_members_read_through_packed_rows_match_table_reducts(self, seed):
        # Random parents, inconsistent ones among them, and random members.
        rng = random.Random(seed)
        s = random_system(rng, max_objects=12, max_attrs=6)
        members = random_family(rng, s, max_members=6).members
        a = analyze_family(s, Family(members))
        assert (a.red_s, a.core_s) == table_reducts(s)
        assert a.per_member == tuple(MemberAnalysis(*table_reducts(m)) for m in members)

    def test_member_keeping_one_side_of_a_boundary_class(self, fix_b):
        # FIX-B's objects 0 and 1 share a condition row but not a decision,
        # so the parent must split that boundary class from row 2 on b. A
        # member keeping one side labels the row with that side's decision.
        members = tuple(make_subsystem(fix_b, rows) for rows in ({0, 2}, {1, 2}, {0, 1}))
        a = analyze(fix_b, *members)
        b = mask(fix_b, "b")
        assert (a.red_s, a.core_s) == table_reducts(fix_b) == ((b,), b)
        assert a.per_member == tuple(MemberAnalysis(*table_reducts(m)) for m in members)
        assert a.per_member == (MemberAnalysis((0,), 0), MemberAnalysis((b,), b),
                                MemberAnalysis((0,), 0))

    def test_one_search_per_distinct_row_set(self, monkeypatch):
        import dynred.dynamic
        from dynred.rough import class_table

        # The search reads class tables; the matching table's rows are
        # distinct, so a table's labels name its rows.
        searched = []
        search = dynred.dynamic._reducts

        def counted(classes, *caps):
            searched.append(classes.labels)
            return search(classes, *caps)

        monkeypatch.setattr(dynred.dynamic, "_reducts", counted)
        s = parse_decision_table(matching_csv(3), "d")
        b1, b2 = make_subsystem(s, {0, 1, 2}), make_subsystem(s, {1, 3})
        members = (b1, full_subsystem(s), b2, b1, full_subsystem(s), b2, b1)
        analyze(s, *members)
        assert searched == [class_table(t).labels for t in (s, b1, b2)]

    def test_sampled_identity_family(self, fix_a):
        from dynred import SamplingPlan, sample_family

        plan = SamplingPlan(seed=42, fractions=(Fraction(1),), samples_per_fraction=1)
        a = analyze_family(fix_a, sample_family(fix_a, plan))
        rep = stability_report(a)
        assert rep.dcore == a.core_s
        assert rep.gdr == a.red_s


class TestDynamicReduct:
    def test_family_of_system_is_static(self, fam):
        s, *_ = fam
        a = analyze(s, full_subsystem(s))
        assert stability_report(a).dr == a.red_s

    def test_disjoint_member_reducts_empty(self, fam):
        s, b1, b2, b3 = fam
        assert stability_report(analyze(s, b1, b2, b3)).dr == ()

    def test_constant_member_kills_everything(self, fam):
        s, _, _, b3 = fam
        assert stability_report(analyze(s, b3)).dr == ()


class TestDynamicReductLambda:
    def test_zero_support(self, fam):
        s, b1, b2, _ = fam
        a = analyze(s, b1, b1, b2)
        assert stability_report(a, Fraction(3, 5)).dr_lambda == ()

    def test_threshold_one_equals_plain(self, fam):
        s, b1, b2, b3 = fam
        for members in [(b1,), (b1, b2), (b1, b2, b3), (full_subsystem(s),)]:
            a = analyze(s, *members)
            assert stability_report(a, 1).dr_lambda == literal_dynamic_reduct(a)

    def test_partial_support(self, fam):
        s, _, b2, _ = fam
        full = full_subsystem(s)
        a = analyze(s, full, full, b2)
        assert mask_names(s, stability_report(a, Fraction(3, 5)).dr_lambda) == [
            ["a", "b"],
            ["a", "c"],
        ]


class TestGeneralizedDynamicReduct:
    def test_repeated_member(self, fam):
        s, b1, *_ = fam
        assert mask_names(s, stability_report(analyze(s, b1, b1)).gdr) == [["a"]]

    def test_disjoint_members(self, fam):
        s, b1, b2, _ = fam
        assert stability_report(analyze(s, b1, b2)).gdr == ()

    def test_single_full_member_is_static(self, fam):
        s, *_ = fam
        a = analyze(s, full_subsystem(s))
        assert stability_report(a).gdr == a.red_s


class TestGeneralizedDynamicReductLambda:
    def test_majority_support(self, fam):
        s, b1, _, b3 = fam
        a = analyze(s, b1, b1, b3)
        assert mask_names(s, stability_report(a, Fraction(3, 5)).gdr_lambda) == [["a"]]

    def test_all_below_threshold(self, fam):
        s, b1, b2, b3 = fam
        a = analyze(s, b1, b2, b3)
        assert stability_report(a, Fraction(3, 5)).gdr_lambda == ()

    def test_threshold_one_equals_plain(self, fam):
        s, b1, b2, b3 = fam
        for members in [(b1, b1), (b1, b2), (b1, b2, b3)]:
            a = analyze(s, *members)
            assert stability_report(a, 1).gdr_lambda == literal_generalized_dynamic_reduct(a)


class TestDynamicCore:
    def test_family_of_system_is_static_core(self, fam):
        s, *_ = fam
        a = analyze(s, full_subsystem(s))
        assert stability_report(a).dcore == a.core_s

    def test_shared_core(self, fam):
        s, b1, *_ = fam
        assert stability_report(analyze(s, b1)).dcore == mask(s, "a")

    def test_empty_member_core_empties_result(self, fam):
        s, b1, b2, _ = fam
        assert stability_report(analyze(s, b1, b2)).dcore == 0


class TestDynamicCoreLambda:
    def test_majority_support(self, fam):
        s, b1, b2, _ = fam
        a = analyze(s, b1, b1, b2)
        assert stability_report(a, Fraction(3, 5)).dcore_lambda == mask(s, "a")

    def test_minority_support(self, fam):
        s, b1, b2, b3 = fam
        a = analyze(s, b1, b2, b3)
        assert stability_report(a, Fraction(3, 5)).dcore_lambda == 0

    def test_threshold_one_equals_plain(self, fam):
        s, b1, b2, b3 = fam
        for members in [(b1,), (b1, b2), (b1, b2, b3)]:
            a = analyze(s, *members)
            assert stability_report(a, 1).dcore_lambda == literal_dynamic_core(a)

    def test_boundary_tie_uses_at_least(self, fam):
        # support 3 of 4 at threshold 3/4: 3*4 >= 3*4 holds, so kept
        s, b1, b2, _ = fam
        a = analyze(s, b1, b1, b1, b2)
        assert stability_report(a, Fraction(3, 4)).dcore_lambda == mask(s, "a")
        # support 1 of 2 at 51/100 fails: 1*100 < 51*2
        a2 = analyze(s, b1, b2)
        assert stability_report(a2, Fraction(51, 100)).dcore_lambda == 0


class TestGeneralizedDynamicCore:
    def test_repeated_member(self, fam):
        s, b1, *_ = fam
        assert stability_report(analyze(s, b1, b1)).gdcore == mask(s, "a")

    def test_empty_on_disjoint_cores(self, fam):
        s, b1, b2, _ = fam
        assert stability_report(analyze(s, b1, b2)).gdcore == 0

    def test_family_containing_system_matches_plain(self, fam):
        s, b1, *_ = fam
        a = analyze(s, full_subsystem(s), b1)
        rep = stability_report(a)
        assert rep.gdcore == rep.dcore


class TestGeneralizedDynamicCoreLambda:
    def test_majority_support(self, fam):
        s, b1, _, b3 = fam
        a = analyze(s, b1, b1, b3)
        assert stability_report(a, Fraction(3, 5)).gdcore_lambda == mask(s, "a")

    def test_all_supports_zero(self, fam):
        s, _, b2, _ = fam
        a = analyze(s, b2, b2)
        assert stability_report(a, Fraction(3, 4)).gdcore_lambda == 0

    def test_contains_plain_lambda_variant(self, fam):
        s, b1, b2, b3 = fam
        a = analyze(s, b1, b1, b3)
        for lam in (Fraction(51, 100), Fraction(3, 4), Fraction(1)):
            rep = stability_report(a, lam)
            assert inside(rep.dcore_lambda, rep.gdcore_lambda)


class TestStabilityReport:
    def test_core_support_counts(self, fam):
        s, b1, b2, _ = fam
        rep = stability_report(analyze(s, b1, b1, b2))
        assert rep.attr_core_support == {0: 2, 1: 0, 2: 0}
        assert rep.family_size == 3

    def test_single_full_member_counts_static_core(self, fam):
        s, *_ = fam
        a = analyze(s, full_subsystem(s))
        rep = stability_report(a)
        assert all(
            (count == 1) == bool(a.core_s >> attr & 1)
            for attr, count in rep.attr_core_support.items()
        )

    def test_reduct_support(self, fam):
        s, b1, b2, b3 = fam
        rep = stability_report(analyze(s, b1, b2, b3))
        support = dict(rep.reduct_support)
        assert support[mask(s, "a")] == 1
        assert support[0] == 1
        assert support[mask(s, "ab")] == 0

    def test_per_lambda_slices(self, fam):
        s, b1, _, b3 = fam
        a = analyze(s, b1, b1, b3)
        reps = [stability_report(a, Fraction(3, 5)), stability_report(a, Fraction(1))]
        assert [rep.lam for rep in reps] == [Fraction(3, 5), Fraction(1)]
        assert reps[0].gdr_lambda == _scanned_lambda_sets(a, Fraction(3, 5))[1]
        assert reps[1].dcore_lambda == literal_dynamic_core(a)

    def test_one_record_at_threshold_one_by_default(self, fam):
        s, b1, _, b3 = fam
        a = analyze(s, b1, b1, b3)
        rep = stability_report(a)
        assert rep == stability_report(a, 1)
        assert rep.lam == 1 and type(rep.lam) is Fraction
        plain = (rep.dr, rep.gdr, rep.dcore, rep.gdcore)
        assert plain == (rep.dr_lambda, rep.gdr_lambda, rep.dcore_lambda, rep.gdcore_lambda)
        assert plain == (literal_dynamic_reduct(a), literal_generalized_dynamic_reduct(a),
                         literal_dynamic_core(a), literal_generalized_dynamic_core(a))
        with pytest.raises(ParameterError):
            stability_report(a, "1/2")

    def test_fraction_thresholds_skip_the_text_reader(self, monkeypatch, fam):
        import dynred.dynamic

        def refuse(*args):
            raise AssertionError("a Fraction threshold was read as text")

        s, b1, _, b3 = fam
        a = analyze(s, b1, b1, b3)
        monkeypatch.setattr(dynred.dynamic, "parse_rational", refuse)
        assert stability_report(a).lam == 1
        assert stability_report(a, Fraction(3, 4)).lam == Fraction(3, 4)

    def test_facts_the_laws_read(self, fam):
        s, b1, b2, _ = fam
        full = full_subsystem(s)
        a = analyze(s, b1, full, b2, full)
        rep = stability_report(a)
        assert (rep.covering, rep.core_s, rep.literal_dcore) == (2, a.core_s, literal_dynamic_core(a))
        assert stability_report(analyze(s, b1, b2)).covering == 0


def _fix_a_report(s):
    """By hand: FIX-A over rows {0, 1} twice, {0, 2} and the full table, at 3/4."""
    a, b, c = (mask(s, n) for n in "abc")
    return StabilityReport(
        family_size=4, covering=1, core_s=a, literal_dcore=0,
        attr_core_support={0: 3, 1: 0, 2: 0},
        reduct_support=((a, 2), (b, 1), (a | b, 1), (c, 1), (a | c, 1)),
        lam=Fraction(3, 4),
        dr=(), dr_lambda=(), gdr=(), gdr_lambda=(),
        dcore=0, dcore_lambda=a, gdcore=0, gdcore_lambda=a,
    )


class TestVerifyTheorems:
    def test_laws_read_a_report_built_without_an_analysis(self, fam):
        s, b1, b2, _ = fam
        by_hand = _fix_a_report(s)
        assert verify_theorems(by_hand) == verify_theorems(
            stability_report(analyze(s, b1, b1, b2, full_subsystem(s)), Fraction(3, 4))
        )
        assert [c.status for c in verify_theorems(by_hand)] == [
            "vacuous", "not-applicable", "pass", "pass", "pass", "vacuous",
            "pass", "pass", "pass", "vacuous", "vacuous",
        ]

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10 ** 9), st.sampled_from(LAMBDA_GRID))
    def test_a_copied_report_gives_the_same_checks(self, seed, lam):
        rep = stability_report(_analyzed_family_with_repeats(random.Random(seed)), lam)
        copy = StabilityReport(**{f: getattr(rep, f) for f in rep._fields})
        assert len(verify_theorems(copy)) == 11
        assert verify_theorems(copy) == verify_theorems(rep)

    def test_t2b_compares_the_reported_reference(self, fam):
        # The reference {a, b, c} against the stable core {a}: b and c differ,
        # and b is the witness.
        s, *_ = fam
        rep = stability_report(analyze(s, full_subsystem(s)))
        assert rep.dcore == rep.literal_dcore == mask(s, "a")
        checks = {c.check: c for c in verify_theorems(
            rep._replace(literal_dcore=mask(s, "abc")))}
        assert checks["T2b"].status == "fail"
        assert checks["T2b"].witness == {
            "attribute": s.cond_attrs.index("b"),
            "left": [s.cond_attrs.index("a")],
            "right": [s.cond_attrs.index(n) for n in "abc"],
        }

    def test_no_covering_member_leaves_t2a_and_t4c_not_applicable(self, fam):
        s, *_ = fam
        rep = stability_report(analyze(s, full_subsystem(s)))
        before = {c.check: c.status for c in verify_theorems(rep)}
        after = {c.check: c.status for c in verify_theorems(rep._replace(covering=0))}
        assert (before["T2a"], before["T4c"]) == ("pass", "pass")
        assert (after["T2a"], after["T4c"]) == ("not-applicable", "not-applicable")
        assert {k: v for k, v in after.items() if k not in ("T2a", "T4c")} == {
            k: v for k, v in before.items() if k not in ("T2a", "T4c")}

    def test_fix_a_family_all_green(self, fam):
        s, b1, b2, b3 = fam
        a = analyze(s, b1, b2, b3)
        checks = verify_theorems(stability_report(a, Fraction(3, 5)))
        assert len(checks) == 11
        assert not [c for c in checks if c.status == "fail"]
        by_name = {c.check: c.status for c in checks}
        assert by_name["T1"] == "vacuous"  # dynamic reduct set is empty here
        assert by_name["T2a"] == "not-applicable"
        assert by_name["T4c"] == "not-applicable"

    def test_identity_family(self, fam):
        s, *_ = fam
        a = analyze(s, full_subsystem(s))
        checks = {c.check: c.status for c in verify_theorems(stability_report(a, 1))}
        assert checks["T2a"] == "pass"
        assert checks["T2b"] == "pass"
        assert checks["T4c"] == "pass"
        assert checks["T1"] == "pass"

    def test_witness_on_forced_failure(self, fam):
        # A tampered analysis exposes the witness payload of a failing check:
        # pretend 'a' is core of a member whose reducts never contain it.
        from dynred import MemberAnalysis

        s, _, b2, _ = fam
        a = analyze(s, b2, b2)
        fake = tuple(MemberAnalysis(m.reducts, mask(s, "a")) for m in a.per_member)
        bad = a._replace(per_member=fake)
        checks = {c.check: c for c in verify_theorems(stability_report(bad, 1))}
        assert checks["T5a"].status == "fail"
        witness = checks["T5a"].witness
        assert witness["attribute"] == s.cond_attrs.index("a")
        assert witness["subset"] == [s.cond_attrs.index("a")]

    def test_containment_witness_names_the_lowest_missing_attribute(self, fam):
        # Cores {a, b} in members whose reducts are {b} and {c}: both a and b
        # lie outside the empty reduct intersection, and a is the witness.
        from dynred import MemberAnalysis

        s, _, b2, _ = fam
        a = analyze(s, b2, b2)
        fake = tuple(MemberAnalysis(m.reducts, mask(s, "ab")) for m in a.per_member)
        bad = a._replace(per_member=fake)
        check = {c.check: c for c in verify_theorems(stability_report(bad, 1))}
        assert check["T5a"].status == "fail"
        assert check["T5a"].witness["attribute"] == s.cond_attrs.index("a")
        assert check["T5a"].witness["subset"] == [s.cond_attrs.index(n) for n in "ab"]

    def test_equality_witness_names_the_lowest_differing_attribute(self, fam):
        # A static core {a, b, c} against the member core {a}: b and c differ,
        # and b is the witness.
        s, *_ = fam
        a = analyze(s, full_subsystem(s))
        bad = a._replace(core_s=mask(s, "abc"))
        check = {c.check: c for c in verify_theorems(stability_report(bad, 1))}
        assert check["T2a"].status == "fail"
        assert check["T2a"].witness == {
            "attribute": s.cond_attrs.index("b"),
            "left": [s.cond_attrs.index("a")],
            "right": [s.cond_attrs.index(n) for n in "abc"],
        }


def _quiet_report(**planted):
    """A one-member report over three attributes that covers the system, every set empty."""
    quiet = StabilityReport(
        family_size=1, covering=1, core_s=0, literal_dcore=0,
        attr_core_support={0: 0, 1: 0, 2: 0}, reduct_support=(), lam=Fraction(3, 4),
        dr=(), dr_lambda=(), gdr=(), gdr_lambda=(),
        dcore=0, dcore_lambda=0, gdcore=0, gdcore_lambda=0,
    )
    return quiet._replace(**planted)


# Every law but T2c by the report sets it relates, the small (or left) side
# first, and the witness keys naming them. Written out here rather than read
# from the verifier's table, so that a law turned round fails.
INSIDE, EQUALS = ("subset", "superset"), ("left", "right")
LAW_SETS = [
    ("T1", "dcore", "dr", INSIDE),
    ("T2a", "dcore", "core_s", EQUALS),
    ("T2b", "dcore", "literal_dcore", EQUALS),
    ("T2d", "dcore", "dcore_lambda", INSIDE),
    ("T3", "dcore_lambda", "dr_lambda", INSIDE),
    ("T4a", "dcore", "gdcore", INSIDE),
    ("T4b", "dcore_lambda", "gdcore_lambda", INSIDE),
    ("T4c", "gdcore", "dcore", EQUALS),
    ("T5a", "gdcore", "gdr", INSIDE),
    ("T5b", "gdcore_lambda", "gdr_lambda", INSIDE),
]


class TestOneLawAtATime:
    @pytest.mark.parametrize("law, small, big, keys", LAW_SETS)
    def test_an_attribute_planted_outside_the_big_set_fails_the_law(self, law, small, big, keys):
        # Attribute 1 lies in the small set {0, 1} and outside the big set
        # {0, 2} (a reduct field holds that set as its one reduct).
        quiet = _quiet_report()
        assert [c.check for c in verify_theorems(quiet) if c.status == "fail"] == []
        big_set = (0b101,) if type(getattr(quiet, big)) is tuple else 0b101
        planted = _quiet_report(**{small: 0b011, big: big_set})
        checks = {c.check: c for c in verify_theorems(planted)}
        assert checks[law].status == "fail"
        assert checks[law].witness == {"attribute": 1, keys[0]: [0, 1], keys[1]: [0, 2]}

    def test_t2c_reports_its_first_failing_ladder_step(self, monkeypatch):
        # A filter that is not monotone in the threshold: the cores at 3/5 and
        # 3/4 are {0} and {0, 1}, so 1 leaves the core a step below. The later
        # failing step, 2 at 9/10 against 3/4, is not the one reported.
        import dynred.dynamic

        kept = {Fraction(51, 100): [0, 1, 2], Fraction(3, 5): [0], Fraction(3, 4): [0, 1],
                Fraction(9, 10): [0, 1, 2], Fraction(1): []}
        monkeypatch.setattr(dynred.dynamic, "_supported", lambda pool, support, size, at: kept[at])
        checks = {c.check: c for c in verify_theorems(_quiet_report(core_s=0b111))}
        assert checks["T2c"].status == "fail"
        assert checks["T2c"].witness == {
            "attribute": 1, "lambda_low": "3/5", "lambda_high": "3/4",
            "subset": [0, 1], "superset": [0],
        }

    def test_readme_law_table_matches_the_verifier(self):
        # The README lists each law as: name, statement, the two report sets
        # and their relation, and the hypothesis under which it applies.
        from dynred.dynamic import _LAWS

        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        row = r"^\| `(T\w+)` \| (.+?) \| `(\w+)` (inside|equals) `(\w+)` \| `?(.+?)`? \|$"
        rows = re.findall(row, readme, re.MULTILINE)
        assert len(rows) == 11
        assert rows == [tuple(law) for law in _LAWS]
        assert [c.check for c in verify_theorems(_quiet_report())] == [law.name for law in _LAWS]


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10 ** 9), st.sampled_from(
    [Fraction(51, 100), Fraction(3, 5), Fraction(3, 4), Fraction(9, 10), Fraction(1)]
))
def test_random_families_satisfy_all_laws(seed, lam):
    rng = random.Random(seed)
    s = random_system(rng, max_objects=8, max_attrs=5)
    a = analyze_family(s, random_family(rng, s))
    rep = stability_report(a, lam)
    checks = verify_theorems(rep)
    assert not [c for c in checks if c.status == "fail"], checks

    n = s.n_attrs
    dr = rep.dr
    red_sets = [set(m.reducts) for m in a.per_member]
    assert set(dr) <= set(a.red_s)
    assert all(all(r in member for member in red_sets) for r in dr)
    for collection in (dr, rep.dr_lambda, rep.gdr, rep.gdr_lambda):
        assert is_antichain(frozenset(mask_indices(r)) for r in collection)
    # threshold ladder shrinks both thresholded cores
    grid = [Fraction(51, 100), Fraction(3, 5), Fraction(3, 4), Fraction(9, 10), Fraction(1)]
    ladder = [stability_report(a, at) for at in grid]
    for low, high in zip(ladder, ladder[1:]):
        assert inside(high.dcore_lambda, low.dcore_lambda)
        assert inside(high.gdcore_lambda, low.gdcore_lambda)
    # majority thresholds force every kept attribute into every kept reduct
    assert all(inside(rep.gdcore_lambda, r) for r in rep.gdr_lambda)
    assert inside(rep.dcore, intersect_all(dr, n))


def _scanned_lambda_sets(a, lam):
    """The four thresholded sets, support counted by scanning every member."""

    def held(count):
        return Fraction(count, len(a.per_member)) >= lam

    def reduct_support(r):
        return sum(r in m.reducts for m in a.per_member)

    def core_support(attr):
        return sum(m.core >> attr & 1 for m in a.per_member)

    member_reducts = {r for m in a.per_member for r in m.reducts}
    attrs = range(a.family.parent.n_attrs)
    return (
        tuple(r for r in a.red_s if held(reduct_support(r))),
        tuple(sorted(r for r in member_reducts if held(reduct_support(r)))),
        as_mask(x for x in attrs if a.core_s >> x & 1 and held(core_support(x))),
        as_mask(x for x in attrs if held(core_support(x))),
    )


def _analyzed_family_with_repeats(rng):
    """A random table's analysis over a family with repeated and full-table members."""
    s = random_system(rng, max_objects=8, max_attrs=5)
    members = list(random_family(rng, s, max_members=4).members)
    members += rng.choices(members, k=rng.randint(0, 3))
    members += [full_subsystem(s)] * rng.randint(0, 2)
    rng.shuffle(members)
    return analyze(s, *members)


@settings(deadline=None, max_examples=80)
@given(
    st.integers(0, 10 ** 9),
    st.fractions(Fraction(1, 2), 1, max_denominator=12).filter(lambda f: f > Fraction(1, 2)),
)
def test_all_eight_sets_match_the_oracle(seed, lam):
    # Repeated and full-table members are the cases where the engine's
    # shared member analyses and support counts could drift from a scan.
    a = _analyzed_family_with_repeats(random.Random(seed))

    sl = stability_report(a, lam)
    assert (sl.dr, sl.gdr, sl.dcore, sl.gdcore) == (
        literal_dynamic_reduct(a), literal_generalized_dynamic_reduct(a),
        literal_dynamic_core(a), literal_generalized_dynamic_core(a))
    assert (sl.dr_lambda, sl.gdr_lambda, sl.dcore_lambda, sl.gdcore_lambda) == (
        _scanned_lambda_sets(a, lam))


# Thresholds just above 1/2, where gdr_lambda is closest to nesting, and others.
_LAMBDAS = (st.sampled_from([Fraction(1, 2) + Fraction(1, 10 ** 6), Fraction(501, 1000),
                             Fraction(51, 100)])
            | st.fractions(Fraction(1, 2), 1, max_denominator=12)
            .filter(lambda f: f > Fraction(1, 2)))


def _reported_reduct_lists(seed, lam):
    """Every reduct list the CLI reports but the support list, for a family with repeats."""
    a = _analyzed_family_with_repeats(random.Random(seed))
    sl = stability_report(a, lam)
    return (a.red_s, *(m.reducts for m in a.per_member),
            sl.dr, sl.dr_lambda, sl.gdr, sl.gdr_lambda)


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 10 ** 9), _LAMBDAS)
def test_every_reported_reduct_list_is_an_antichain(seed, lam):
    # The CLI lists these by descending mask over its name-ordered table,
    # which is their name order only on an antichain. gdr_lambda is one
    # because a threshold above 1/2 puts any two of its sets in some common
    # member.
    for collection in _reported_reduct_lists(seed, lam):
        assert is_antichain(frozenset(mask_indices(r)) for r in collection)


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 10 ** 9), _LAMBDAS)
@example(497, Fraction(51, 100))
def test_every_reported_reduct_list_arrives_ascending(seed, lam):
    # The CLI reads these lists reversed and sorts none of them. In the
    # example, gdr_lambda's sets pass the threshold out of mask order.
    for collection in _reported_reduct_lists(seed, lam):
        assert all(x < y for x, y in zip(collection, collection[1:]))

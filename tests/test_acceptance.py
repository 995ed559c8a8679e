"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria 3 and 4 share one deterministic batch of (system, family,
threshold) instances.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from dynred import (
    Family,
    SamplingPlan,
    SubSystem,
    all_reducts,
    analyze_family,
    brute_force_core,
    brute_force_reducts,
    core_of,
    literal_dynamic_core,
    literal_dynamic_reduct,
    literal_generalized_dynamic_core,
    literal_generalized_dynamic_reduct,
    parse_decision_table,
    sample_family,
    stability_report,
    verify_theorems,
)
from dynred.cli import run

from conftest import FIX_A_CSV, FIX_B_CSV, FIX_C_CSV, inside, random_system, reduct_names

LAMBDAS = (Fraction(51, 100), Fraction(3, 5), Fraction(3, 4), Fraction(9, 10), Fraction(1))
GRID = LAMBDAS
FRACTION_PALETTE = (
    Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
    Fraction(2, 3), Fraction(3, 4), Fraction(1),
)


def _passed(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number} ({label}): PASS")


def test_criterion_1_oracle_equivalence():
    rng = random.Random(0xACCE_0001)
    started = time.monotonic()
    for _ in range(200):
        s = random_system(rng, max_objects=10, max_attrs=6)
        assert all_reducts(s) == brute_force_reducts(s), s
        assert core_of(s) == brute_force_core(s), s
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"200-instance campaign took {elapsed:.1f}s"
    _passed(1, "oracle equivalence on 200 randomized systems")


def test_criterion_2_fixture_exactness():
    fix_a = parse_decision_table(FIX_A_CSV, "d")
    fix_b = parse_decision_table(FIX_B_CSV, "d")
    fix_c = parse_decision_table(FIX_C_CSV, "d")

    assert reduct_names(fix_a, all_reducts(fix_a)) == [["a", "b"], ["a", "c"]]
    assert sorted(fix_a.cond_attrs[i] for i in core_of(fix_a)) == ["a"]
    assert reduct_names(fix_b, all_reducts(fix_b)) == [["b"]]
    assert sorted(fix_b.cond_attrs[i] for i in core_of(fix_b)) == ["b"]
    assert all_reducts(fix_c) == (frozenset(),)
    assert core_of(fix_c) == frozenset()
    _passed(2, "fixture exactness")


@pytest.fixture(scope="module")
def sampled_instances():
    """100 deterministic (system, family, threshold) triples, 2..6 members each."""
    rng = random.Random(0xACCE_0003)
    out = []
    for _ in range(100):
        s = random_system(rng, max_objects=10, max_attrs=6)
        n_fractions = rng.choice((1, 2))
        samples = rng.randint(2, 6) if n_fractions == 1 else rng.randint(1, 3)
        plan = SamplingPlan(
            seed=rng.getrandbits(64),
            fractions=tuple(rng.choice(FRACTION_PALETTE) for _ in range(n_fractions)),
            samples_per_fraction=samples,
        )
        family = sample_family(s, plan)
        assert 2 <= len(family) <= 6
        out.append((s, family, rng.choice(LAMBDAS)))
    return out


def test_criterion_3_theorem_suite(sampled_instances):
    failures = []
    for i, (s, family, lam) in enumerate(sampled_instances):
        analysis = analyze_family(s, family)
        for check in verify_theorems(stability_report(analysis, lam)):
            if check.status == "fail":
                failures.append((i, lam, check))
    assert not failures, failures
    _passed(3, "zero non-vacuous failures across 100 sampled triples x 11 checks")


def test_criterion_4_definitional_identities(sampled_instances):
    for s, family, lam in sampled_instances:
        identity = analyze_family(s, Family((SubSystem(s, s.object_indices),)))
        plain = stability_report(identity)
        assert plain.dcore == identity.core_s
        assert plain.gdr == identity.red_s

        analysis = analyze_family(s, family)
        # threshold 1 against the literal "in every member" definitions
        at_one = stability_report(analysis, 1)
        assert at_one.dcore_lambda == literal_dynamic_core(analysis)
        assert at_one.gdr_lambda == literal_generalized_dynamic_reduct(analysis)
        assert at_one.dr_lambda == literal_dynamic_reduct(analysis)
        assert at_one.gdcore_lambda == literal_generalized_dynamic_core(analysis)

        ladder = [stability_report(analysis, lam) for lam in GRID]
        for low, high in zip(ladder, ladder[1:]):
            assert inside(high.dcore_lambda, low.dcore_lambda)
            assert inside(high.gdcore_lambda, low.gdcore_lambda)
    _passed(4, "identity-family, threshold-1, and threshold-chain identities")


def test_criterion_5_cli_determinism(tmp_path, capsys):
    rows = "\n".join(f"{i % 2},{i % 3},{(i * 7) % 2},{i % 2}" for i in range(8))
    path = tmp_path / "table.csv"
    path.write_text("a,b,c,d\n" + rows + "\n")
    base = ["dynamic", "--input", str(path), "--decision", "d",
            "--fractions", "0.5", "--samples", "2", "--lambda", "0.75"]

    assert run([*base, "--seed", "1"]) == 0
    first = capsys.readouterr().out
    assert run([*base, "--seed", "1"]) == 0
    second = capsys.readouterr().out
    assert first == second and first

    assert run([*base, "--seed", "2"]) == 0
    other_seed = capsys.readouterr().out
    r1, r2 = json.loads(first), json.loads(other_seed)
    assert [m["indices"] for m in r1["family"]] != [m["indices"] for m in r2["family"]]
    assert r1["static"] == r2["static"]
    _passed(5, "byte-identical reruns; seed changes family only")


def test_criterion_6_error_discipline(tmp_path, capsys):
    fixa = tmp_path / "fixa.csv"
    fixa.write_text(FIX_A_CSV)
    dyn = ["dynamic", "--input", str(fixa), "--decision", "d", "--fractions", "0.5"]
    for lam in ("0.5", "1.01"):
        assert run([*dyn, "--lambda", lam]) == 1
        assert capsys.readouterr().out == ""

    n = 25
    wide = tmp_path / "wide.csv"
    wide.write_text(
        ",".join([f"c{i}" for i in range(n)] + ["d"]) + "\n"
        + ",".join(["0"] * n + ["0"]) + "\n"
    )
    assert run(["reducts", "--input", str(wide), "--decision", "d"]) == 3
    capsys.readouterr()

    # ceil rounding keeps every sampled universe non-empty even at 1/|U|
    for n_obj in range(1, 6):
        csv_text = "a,d\n" + "".join(f"{i},{i % 2}\n" for i in range(n_obj))
        s = parse_decision_table(csv_text, "d")
        plan = SamplingPlan(seed=9, fractions=(Fraction(1, n_obj),), samples_per_fraction=4)
        family = sample_family(s, plan)
        assert all(m.n_objects >= 1 for m in family.members)
    _passed(6, "range rejections, capacity exit, never-empty samples")

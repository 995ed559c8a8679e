"""Every small table and every small family, checked against the oracle.

The random campaigns draw instances; these walk all of them up to a size
bound, since most faults of a rule show on some small instance (the
small-scope hypothesis; Jackson, *Software Abstractions*, 2006). Tables are
multisets of rows, so each appears once up to row order, and families are
multisets of non-empty row subsets, since a repeated member counts.

The references come from the oracle alone: ``brute_force_reducts`` and
``brute_force_core`` on every member, support counted here by hand. They
never read the engine's analysis, so they also check the oracle's
``literal_*`` sets, which do. The CLI campaign runs every subcommand on
every small table as a CSV file and checks the bytes it prints.
"""

import contextlib
import io
import json
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import ceil

import pytest

from dynred import (
    DecisionSystem,
    cli,
    Family,
    SubSystem,
    analyze_family,
    brute_force_core,
    brute_force_reducts,
    core_of,
    literal_dynamic_core,
    literal_dynamic_reduct,
    literal_generalized_dynamic_core,
    literal_generalized_dynamic_reduct,
    stability_report,
    verify_theorems,
)
from dynred.reducts import table_reducts

from conftest import as_mask

# The scope of the campaigns. Each walks tables of 1 to ``rows`` rows over
# 1 to ``attrs`` binary condition attributes with each count of decision
# values. Each family holds 1 to ``members`` row subsets of one such table
# and is checked at every threshold in ``lambdas``. The CLI campaign runs
# each of ``commands`` on the family campaign's tables, with and without
# --exact, the family commands drawing their family with ``sampling``.
SCOPE = {
    "tables": {"rows": 4, "attrs": 3, "decisions": (2, 3)},
    "families": {"rows": 3, "attrs": 2, "decisions": (2,), "members": 3,
                 "lambdas": (Fraction(3, 5), Fraction(1))},
    "cli": {"rows": 3, "attrs": 2, "decisions": (2,),
            "commands": ("reducts", "core", "dynamic", "verify"),
            "sampling": ("--fractions", "0.5,1", "--samples", "2", "--lambda", "0.75")},
}


def _tables(rows: int, attrs: int, decisions: int):
    """Every multiset of 1 to ``rows`` rows over the binary attributes and decision codes."""
    alphabet = list(product(product((0, 1), repeat=attrs), range(decisions)))
    cond_attrs = tuple(f"c{a}" for a in range(attrs))
    for size in range(1, rows + 1):
        for chosen in combinations_with_replacement(alphabet, size):
            codes, labels = zip(*chosen)
            yield DecisionSystem(cond_attrs, "d", codes, labels, {})


def _shapes(scope):
    """Each (attribute count, decision count) the scope walks, one test case each."""
    return [(attrs, decisions) for attrs in range(1, scope["attrs"] + 1)
            for decisions in scope["decisions"]]


def _oracle(table) -> tuple[tuple[int, ...], int]:
    """The table's reducts as ascending masks and its core mask, from the brute-force route."""
    reducts = tuple(sorted(map(as_mask, brute_force_reducts(table))))
    return reducts, as_mask(brute_force_core(table))


def _subsets(system) -> list[SubSystem]:
    """Every non-empty row subset of ``system``, as a sub-system."""
    n = system.n_objects
    return [SubSystem(system, idx) for k in range(1, n + 1) for idx in combinations(range(n), k)]


def _families(subsets, members: int):
    """Every multiset of 1 to ``members`` of the ``subsets``."""
    for size in range(1, members + 1):
        yield from combinations_with_replacement(subsets, size)


def _expected(system_ref, member_refs, n_attrs: int, at: Fraction) -> dict:
    """The four sets at threshold ``at``, from the members' oracle results alone."""
    red_s, core_s = system_ref
    size = len(member_refs)
    reducts = Counter(r for reds, _ in member_refs for r in reds)
    cores = Counter(a for _, core in member_refs for a in range(n_attrs) if core >> a & 1)
    need = ceil(at * size)  # the least support whose share of the family reaches ``at``
    gdcore = as_mask(a for a in range(n_attrs) if cores[a] >= need)
    return {
        "dr": tuple(r for r in red_s if reducts[r] >= need),
        "gdr": tuple(sorted(r for r in reducts if reducts[r] >= need)),
        "dcore": core_s & gdcore,
        "gdcore": gdcore,
    }


def test_scope_sizes():
    # The bound fixes the count of cases; a smaller walk would check less.
    tables = SCOPE["tables"]
    assert sum(sum(1 for _ in _tables(tables["rows"], *key))
               for key in _shapes(tables)) == 27_909
    families = SCOPE["families"]
    cases = sum(sum(1 for _ in _families(_subsets(s), families["members"]))
                for key in _shapes(families) for s in _tables(families["rows"], *key))
    assert cases * len(families["lambdas"]) == 35_140
    scope = SCOPE["cli"]
    tables = sum(sum(1 for _ in _tables(scope["rows"], *key)) for key in _shapes(scope))
    assert tables == 198
    assert tables * len(scope["commands"]) * 2 == 1_584  # with and without --exact


@pytest.mark.parametrize("attrs, decisions", _shapes(SCOPE["tables"]))
def test_every_small_table_matches_the_oracle(attrs, decisions):
    mismatches = []
    for table in _tables(SCOPE["tables"]["rows"], attrs, decisions):
        reducts, core = _oracle(table)
        engine = table_reducts(table)
        if engine != (reducts, core) or as_mask(core_of(table)) != core:
            mismatches.append((table.rows, table.decisions, engine, reducts, core))
    assert mismatches == [], mismatches[:3]


@pytest.mark.parametrize("attrs, decisions", _shapes(SCOPE["families"]))
def test_every_small_family_matches_the_oracle(attrs, decisions):
    scope = SCOPE["families"]
    mismatches, failures = [], []
    for system in _tables(scope["rows"], attrs, decisions):
        system_ref = _oracle(system)
        subsets = _subsets(system)
        refs = {m.object_indices: _oracle(m) for m in subsets}
        for members in _families(subsets, scope["members"]):
            where = (system.rows, system.decisions, [m.object_indices for m in members])
            member_refs = [refs[m.object_indices] for m in members]
            analysis = analyze_family(system, Family(members))
            plain = _expected(system_ref, member_refs, attrs, Fraction(1))
            literal = {
                "dr": literal_dynamic_reduct(analysis),
                "gdr": literal_generalized_dynamic_reduct(analysis),
                "dcore": literal_dynamic_core(analysis),
                "gdcore": literal_generalized_dynamic_core(analysis),
            }
            if literal != plain:
                mismatches.append(("literal", where, literal, plain))
            for lam in scope["lambdas"]:
                report = stability_report(analysis, lam)
                at_lam = _expected(system_ref, member_refs, attrs, lam)
                got = {name: getattr(report, name) for name in plain}
                got_lam = {name: getattr(report, f"{name}_lambda") for name in at_lam}
                if (got, got_lam) != (plain, at_lam):
                    mismatches.append((str(lam), where, got, got_lam, plain, at_lam))
                failures += [(str(lam), where, c.check, c.witness)
                             for c in verify_theorems(report) if c.status == "fail"]
    assert mismatches == [], mismatches[:3]
    assert failures == [], failures[:3]


def _csv(table: DecisionSystem) -> str:
    """``table`` as CSV text, its codes written as its values."""
    lines = [(*table.cond_attrs, table.decision_attr)]
    lines += [(*codes, label) for codes, label in zip(table.rows, table.decisions)]
    return "".join(",".join(map(str, line)) + "\n" for line in lines)


def _run(argv) -> tuple[int, str]:
    """``cli.run(argv)``'s exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.run(argv)
    return status, out.getvalue()


@pytest.mark.parametrize("command", SCOPE["cli"]["commands"])
def test_every_small_table_runs_the_cli(command, tmp_path):
    # Each run exits 0 and prints the same canonical JSON bytes twice, and
    # its static section names the oracle's sets.
    scope = SCOPE["cli"]
    path = tmp_path / "t.csv"
    flags = scope["sampling"] if command in ("dynamic", "verify") else ()
    failures = []
    for key in _shapes(scope):
        for table in _tables(scope["rows"], *key):
            path.write_text(_csv(table), encoding="utf-8")
            names = table.cond_attrs
            static = {"core": sorted(names[a] for a in brute_force_core(table))}
            if command != "core":
                static["reducts"] = sorted(sorted(names[a] for a in r)
                                           for r in brute_force_reducts(table))
            for exact in ((), ("--exact",)):
                argv = [command, "--input", str(path), "--decision", "d", *exact, *flags]
                status, out = _run(argv)
                report = json.loads(out) if status == 0 else {}
                if (status != 0 or _run(argv) != (status, out)
                        or out != json.dumps(report, sort_keys=True, indent=2) + "\n"
                        or report["static"] != static):
                    failures.append((table.rows, table.decisions, exact, status, out))
    assert failures == [], failures[:3]

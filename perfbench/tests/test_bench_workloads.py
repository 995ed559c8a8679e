"""Generators are deterministic, matching tables behave as designed, checks bite."""

import json

import pytest

import dynred
from dynred import cli
from workloads import (
    GENERATORS,
    WORKLOADS,
    check_output,
    cli_argv,
    relabelled_csv,
    table_csv,
)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes(name):
    assert table_csv(name, 5) == table_csv(name, 5)
    assert table_csv(name, 5) != table_csv(name, 6)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_seed_is_a_relabelled_copy(name):
    # Isomorphic copies: same shape, same multiset of row patterns up to labels.
    def shape(text):
        system = dynred.parse_decision_table(text, "d")
        classes = dynred.condition_classes(system, range(system.n_attrs))
        return system.n_objects, system.n_attrs, sorted(map(len, classes))

    assert shape(table_csv(name, 1)) == shape(table_csv(name, 2))


def test_family_rows_keep_their_order():
    # The CLI samples family members by row index, so rows must not move.
    # Codes are assigned in first-occurrence order, so relabelling keeps them.
    a = dynred.parse_decision_table(table_csv("family_verify", 1), "d")
    b = dynred.parse_decision_table(table_csv("family_verify", 2), "d")
    assert a.decisions == b.decisions


@pytest.mark.parametrize("k", range(1, 9))
def test_matching_tables_have_all_transversals(k):
    text = relabelled_csv(*GENERATORS["matching"]({"k": k}), seed=k, shuffle_rows=True)
    system = dynred.parse_decision_table(text, "d")
    reducts = dynred.all_reducts(system)
    assert reducts == dynred.brute_force_reducts(system)
    assert len(reducts) == 2 ** k
    assert dynred.core_of(system) == frozenset()


def _damage(name, report):
    if name == "family_verify":
        report["verification"][0]["status"] = "fail"
    else:
        report["static"]["reducts"][0] = report["static"]["reducts"][0][:-1]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_accept_the_engine_and_reject_a_damaged_report(name, tmp_path, capsys):
    text = table_csv(name, 3)
    csv_path = tmp_path / "t.csv"
    csv_path.write_text(text)
    assert cli.run(cli_argv(name, str(csv_path))) == 0
    out = capsys.readouterr().out
    assert check_output(name, text, out, dynred) is None

    report = json.loads(out)
    _damage(name, report)
    assert check_output(name, text, json.dumps(report), dynred) is not None

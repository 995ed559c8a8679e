"""Span recorder: self-time arithmetic, transparency, restoration, absent functions."""

import contextlib
import io
import sys

import pytest

import dynred
import dynred.cli
import spans
import worker
from workloads import GENERATORS, relabelled_csv


def test_self_time_subtracts_children_per_layer():
    tree = [
        ["cli.run", 0.0, 10.0, -1],
        ["table.parse_decision_table", 1.0, 2.0, 0],
        ["reducts.all_reducts", 2.0, 9.0, 0],
        ["rough.discernibility_matrix", 3.0, 6.0, 2],
        ["rough.positive_region", 3.5, 4.5, 3],
        ["reducts.absorb", 6.0, 7.0, 2],
    ]
    assert spans.self_times(tree) == {
        "table": 1.0,
        "rough": 3.0,  # 3 - 1 for the matrix, plus the nested positive region
        "reducts": 4.0,  # 7 - 3 - 1 for all_reducts, plus absorb
        "dynamic": 0.0,
        "cli": 2.0,
    }
    assert spans.call_counts(tree)["rough.discernibility_matrix"] == 1


def _namespaces():
    return {
        name: dict(vars(m)) for name, m in sys.modules.items()
        if name == "dynred" or name.startswith("dynred.")
    }


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = dynred.cli.run(argv)
    return rc, buf.getvalue()


@pytest.fixture
def family_csv(tmp_path):
    header = [f"a{j}" for j in range(5)] + ["d"]
    rows = [[f"v{(i * (j + 2)) % 3}" for j in range(5)] + [f"v{i % 2}"] for i in range(12)]
    path = tmp_path / "family.csv"
    path.write_text(relabelled_csv(header, rows, seed=4, shuffle_rows=False))
    return str(path)


def test_tracing_is_transparent_and_restores_originals(family_csv):
    argv = ["verify", "--input", family_csv, "--decision", "d",
            "--fractions", "0.5,1", "--samples", "3", "--seed", "9", "--lambda", "0.75"]
    before = _namespaces()
    plain = _run(argv)

    recorder = spans.Recorder()
    with spans.Tracing(recorder) as tracing:
        traced = _run(argv)
    assert traced == plain and plain[0] == 0
    assert tracing.absent == []
    assert _namespaces() == before

    recorded = recorder.take()
    assert {name for name, *_ in recorded} == {f"{m}.{f}" for m, f in spans.TRACED}
    assert [s for s in recorded if s[3] == -1] == recorded[:1]  # cli.run is the only root
    assert all(v > 0 for v in spans.self_times(recorded).values())


def test_absent_functions_are_reported_not_fatal(monkeypatch):
    monkeypatch.delattr(dynred.reducts, "absorb")
    with spans.Tracing(spans.Recorder()) as tracing:
        pass
    assert tracing.absent == ["reducts.absorb"]

    monkeypatch.undo()
    monkeypatch.delattr(dynred, "discernibility_matrix")
    text = relabelled_csv(*GENERATORS["matching"]({"k": 3}), seed=1, shuffle_rows=True)
    counts, absent = worker.work_counts(dynred, "matching", text, "{}")
    assert absent == ["discernibility_matrix"]
    assert counts["rough.cells"] == 0 and counts["reducts.clauses"] == 3

"""Workload specs, seeded table generators and the semantic output checks.

Each workload is a fixed base table plus the CLI argv that analyses it. The
benchmark seed draws a relabelled copy of the base table: condition columns
are renamed, every column's value labels are permuted and, where no family
is sampled, the rows are shuffled. The copy is isomorphic to the base, so
every seed asks for the same work while no two seeds hand the program the
same bytes. Drawing a fresh random table per seed instead would make the
work itself vary: on the 40-row family table the invocation time ranged
over x2.7 across seven seeds, far wider than any regression bound.

Only the standard library is used here; nothing imports ``dynred``.
"""

from __future__ import annotations

import json
import random

DEFAULT_SEED = 1

# Generator spec and argv per workload (BENCHMARK.json and README.md give the
# reason for each). ``digest`` is the SHA-256 of stdout for DEFAULT_SEED as run.py invokes the CLI (the
# report includes the input path): the output must stay byte-identical across
# versions, so a changed report fails the run.
WORKLOADS = {
    "static_rows": {
        "table": {"kind": "uniform", "rows": 400, "conditions": 12, "arity": 3,
                  "decision_arity": 2, "seed": 1},
        "argv": ["reducts"],
        "shuffle_rows": True,
        "digest": "e136b0d920e74c6f3353e10c1f7e7b72977de5045651acc004aa247393185eb0",
    },
    "matching": {
        "table": {"kind": "matching", "k": 12},
        "argv": ["reducts"],
        "shuffle_rows": True,
        "digest": "3f40c8d6f1c6ef9504fc543d346d71796b9e107ff0097c684247e909433f12f6",
    },
    "family_verify": {
        "table": {"kind": "uniform", "rows": 40, "conditions": 12, "arity": 3,
                  "decision_arity": 2, "seed": 7},
        "argv": ["verify", "--fractions", "0.5,0.75,1", "--samples", "10",
                 "--seed", "42", "--lambda", "0.75"],
        "shuffle_rows": False,  # the CLI samples members by row index
        "digest": "01e0d88778461b517204203b2e229abbf2226009c2d79435c8a0093af2b15615",
    },
}


def _uniform(spec: dict) -> tuple[list[str], list[list[str]]]:
    rng = random.Random(spec["seed"])
    m = spec["conditions"]
    header = [f"a{j}" for j in range(m)] + ["d"]
    rows = [
        [f"v{rng.randrange(spec['arity'])}" for _ in range(m)]
        + [f"v{rng.randrange(spec['decision_arity'])}"]
        for _ in range(spec["rows"])
    ]
    return header, rows


def _matching(spec: dict) -> tuple[list[str], list[list[str]]]:
    # One all-zero row with decision 0; row i sets x_i = y_i = 1, decision 1.
    # The only clauses are (x_i | y_i), so the reducts are the 2^k transversals.
    k = spec["k"]
    header = [f"x{i}" for i in range(k)] + [f"y{i}" for i in range(k)] + ["d"]
    rows = [["v0"] * (2 * k + 1)]
    for i in range(k):
        row = ["v0"] * (2 * k) + ["v1"]
        row[i] = row[k + i] = "v1"
        rows.append(row)
    return header, rows


GENERATORS = {"uniform": _uniform, "matching": _matching}


def relabelled_csv(header: list[str], rows: list[list[str]], seed: int,
                   shuffle_rows: bool) -> str:
    """A seeded relabelled copy of a generated table, as CSV text.

    Condition columns get the names c0..c{m-1} in a seeded order; the decision
    column is "d" and stays last. Columns keep their positions: the engine's
    attribute bit masks follow column order, and permuting the columns moved
    the absorption work, and the run time on static_rows, by up to about 10 %.
    """
    rng = random.Random(seed)
    m = len(header) - 1
    names = [f"c{j}" for j in range(m)]
    rng.shuffle(names)
    relabel = []
    for col in range(m + 1):
        labels = sorted({row[col] for row in rows})
        shuffled = labels[:]
        rng.shuffle(shuffled)
        relabel.append(dict(zip(labels, shuffled)))
    if shuffle_rows:
        rows = rows[:]
        rng.shuffle(rows)
    lines = [",".join(names + ["d"])]
    lines += [",".join(relabel[c][v] for c, v in enumerate(row)) for row in rows]
    return "\n".join(lines) + "\n"


def table_csv(name: str, seed: int) -> str:
    """The workload's input for ``seed``: a relabelled copy of its base table."""
    workload = WORKLOADS[name]
    spec = workload["table"]
    header, rows = GENERATORS[spec["kind"]](spec)
    return relabelled_csv(header, rows, seed, workload["shuffle_rows"])


def cli_argv(name: str, csv_path: str) -> list[str]:
    argv = WORKLOADS[name]["argv"]
    return [argv[0], "--input", csv_path, "--decision", "d", *argv[1:]]


def check_output(name: str, csv_text: str, stdout: str, dynred) -> str | None:
    """Semantic check of one CLI output; returns a failure reason or None.

    Runs outside the timed region. ``dynred`` is the imported package, passed
    in so this module stays importable without it.
    """
    report = json.loads(stdout)
    if name == "family_verify":
        statuses = [c["status"] for c in report["verification"]]
        if len(statuses) != 11:
            return f"expected 11 law checks, got {len(statuses)}"
        if "fail" in statuses:
            return "a law check reports fail"
        return None

    system = dynred.parse_decision_table(csv_text, "d")
    index = {a: i for i, a in enumerate(system.cond_attrs)}
    reducts = [frozenset(index[a] for a in r) for r in report["static"]["reducts"]]
    if not reducts:
        return "no reducts"
    if name == "static_rows":
        bad = [r for r in reducts if not dynred.is_reduct(system, r)]
        return f"{len(bad)} listed reducts fail is_reduct" if bad else None

    k = WORKLOADS[name]["table"]["k"]
    decisions = list(system.decisions)
    z = decisions.index(min(decisions, key=decisions.count))  # the all-zero row
    pairs = [
        frozenset(a for a in range(system.n_attrs) if row[a] != system.rows[z][a])
        for i, row in enumerate(system.rows)
        if i != z
    ]
    if len(set(reducts)) != 2 ** k:
        return f"expected {2 ** k} distinct reducts, got {len(set(reducts))}"
    if any(len(r) != k or any(len(r & p) != 1 for p in pairs) for r in reducts):
        return f"a reduct is not a size-{k} choice of one attribute per pair"
    if report["static"]["core"]:
        return "core is not empty"
    return None

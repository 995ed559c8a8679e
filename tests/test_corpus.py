"""One seeded corpus of CLI runs, pinned by a single SHA-256.

Every case runs ``cli.run`` in process on a generated table and hashes its
argv, exit code, stdout and stderr. The corpus spans the four subcommands,
tables of 0 to 20 columns and 1 to 64 rows plus a bounded share of 17 to
24 columns (the sweep and the MMCS search), arities 2 to 4 and 1 to 3
decisions, repeated rows, the cycle and matching tables,
``--max-reducts`` caps that exit 3 on both searches, ``--exact`` on small
tables, and families with full-table and repeated members. Column names
are prefixes of one another or hold characters that JSON escapes or that
sort before the quote sign, so the order of the quoted names differs from
the order of the names. Any change to a report's bytes, an exit code or a
diagnostic changes the digest.
"""

import contextlib
import csv
import hashlib
import io
import json
import random

from dynred.cli import run

from conftest import cycle_csv, matching_csv

NAMES = (
    "a", "a0", "a10", "ab", "a b", "a!", 'a"', "a\\", "!", " ", '"', "\\", "#", "b", "B",
    "b\t", "z", "~", "\x7f", "é", "éa", "café", "\u2028", "\U0001d538", "\U0001f600",
    "x0", "x1", "x10", "y", "y0", "d", "dd",
)
FRACTIONS = ("1", "0.5", "0.5,1", "0.34,0.67,1", "0.9", "0.25,1,1")
LAMBDAS = ("0.51", "0.6", "0.75", "0.8", "1")


def _write_table(rng, rows):
    """CSV text of ``rows`` under drawn names, columns shuffled, some rows repeated.

    The last column is the decision; its name is returned with the text.
    """
    width = len(rows[0])
    names = rng.sample(NAMES, width)
    order = rng.sample(range(width), width)
    if rng.random() < 0.3:
        rows = rows + [rng.choice(rows) for _ in range(rng.randint(1, 4))]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([names[j] for j in order])
    writer.writerows([row[j] for j in order] for row in rows)
    return out.getvalue(), names[-1]


def _uniform(rng, m, max_rows):
    """Rows of ``m`` conditions of arity 2-4 and a decision of arity 1-3."""
    arities = [rng.randint(2, 4) for _ in range(m)] + [rng.randint(1, 3)]
    n = rng.randint(1, max_rows)
    return [[str(rng.randrange(k)) for k in arities] for _ in range(n)]


def _rows(text):
    return list(csv.reader(io.StringIO(text)))[1:]


def _cases(rng):
    """(csv text, argv) pairs, drawn in a fixed order from ``rng``."""
    for _ in range(400):
        max_reducts = None
        kind = rng.choices(("uniform", "wide", "matching", "cycle"), (16, 2, 3, 3))[0]
        if kind == "uniform":
            m = rng.randint(0, 20)
            rows = _uniform(rng, m, 64)
            if m > 16:
                max_reducts = rng.choice((2, 300))
        elif kind == "wide":
            rows = _uniform(rng, rng.randint(17, 24), 24)
            max_reducts = rng.choice((1, 5, 200))
        elif kind == "matching":
            k = rng.randint(1, 10)
            rows = _rows(matching_csv(k))
            if rng.random() < 0.3:
                max_reducts = rng.randint(1, 2 ** k)
        else:
            k = rng.randint(3, 20)
            rows = _rows(cycle_csv(k))
            if rng.random() < 0.3:
                max_reducts = rng.randint(1, 40)
        text, decision = _write_table(rng, rows)
        m = len(rows[0]) - 1
        command = rng.choices(("reducts", "core", "dynamic", "verify"), (4, 1, 3, 2))[0]
        argv = [command, "--input", "t.csv", "--decision", decision]
        if m <= 8 and len(rows) <= 16 and rng.random() < 0.3:
            argv.append("--exact")
        if max_reducts is not None:
            argv += ["--max-reducts", str(max_reducts)]
        if command in ("dynamic", "verify"):
            argv += ["--fractions", rng.choice(FRACTIONS), "--samples", str(rng.randint(1, 4)),
                     "--seed", str(rng.randrange(1000)), "--lambda", rng.choice(LAMBDAS)]
        yield text, argv
    # Usage, schema and capacity errors.
    text = matching_csv(3)
    yield text, ["dynamic", "--input", "t.csv", "--decision", "d", "--fractions", "1",
                 "--lambda", "0.5"]
    yield text, ["reducts", "--input", "t.csv", "--decision", "nope"]
    yield text, ["reducts", "--input", "t.csv", "--decision", "d", "--max-attrs", "5"]
    yield "a,d\n0,0\n0,\n", ["core", "--input", "t.csv", "--decision", "d"]


def test_corpus_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    statuses = set()
    for text, argv in _cases(random.Random(2021)):
        (tmp_path / "t.csv").write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = run(argv)
        statuses.add(status)
        digest.update(json.dumps([argv, status, out.getvalue(), err.getvalue()]).encode() + b"\n")
    assert statuses == {0, 1, 2, 3}
    assert digest.hexdigest() == (
        "fc03409bd430fb3fcdfaf8866491957ef9f9c87bd68d3e508e95d86c88c131fe"
    )

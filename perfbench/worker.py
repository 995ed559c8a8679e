"""One benchmark process: either a timed set-up or a measured workload run.

    python3 perfbench/worker.py setup   --workload W --seed N --csv PATH
    python3 perfbench/worker.py measure --workload W --seed N --csv PATH \
        --seconds S --trace 0|1 --spans PATH

``run.py`` starts the measuring process from the repository root, so every
workload gets a fresh interpreter; an untraced measuring process starts
its set-ups in fresh interpreters too, one before it reads the CSV and the
rest between invocations. ``dynred`` is imported from ``src/`` of the
current directory and nowhere else. The last stdout line is one JSON
object for ``run.py``; the CLI's own stdout is captured in memory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from statistics import median
from time import perf_counter

import spans as spanlib
from workloads import DEFAULT_SEED, WORKLOADS, check_output, cli_argv, table_csv

SETUP_REPS = 10
REF_REPS = 3  # reference jobs run before each invocation
SETUP_TIMEOUT_S = 30
# Time of one reference job on an idle core of the 2-core x86-64 box the
# benchmark was defined on; setup_s is reported at this machine speed.
REF_NOMINAL_S = 0.020


def import_dynred():
    src = (Path.cwd() / "src").resolve()
    sys.path.insert(0, str(src))
    import dynred
    import dynred.cli

    if Path(dynred.__file__).resolve().parent.parent != src:
        raise SystemExit(f"dynred was imported from {dynred.__file__}, not from {src}")
    return dynred


class WorkerError(RuntimeError):
    pass


def spawn(mode: str, args: list[str], timeout: float) -> dict:
    """Run this script in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(Path(__file__).resolve()), mode, *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"worker {mode} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spawn_setup(args) -> dict:
    """Run one set-up in a fresh interpreter; it writes the workload CSV."""
    return spawn("setup", ["--workload", args.workload, "--seed", str(args.seed),
                           "--csv", args.csv], timeout=SETUP_TIMEOUT_S)


def write_csv(args) -> None:
    Path(args.csv).write_text(table_csv(args.workload, args.seed), encoding="utf-8")


def setup(args) -> dict:
    """Time ``import dynred`` plus generating and writing the CSV.

    A reference job runs just before and just after, so the set-up can be
    divided by the machine speed of that moment.
    """
    reference_job()  # warm-up: the first run in a fresh interpreter is slower
    before = reference_job()
    t0 = perf_counter()
    import_dynred()
    write_csv(args)
    elapsed = perf_counter() - t0
    after = reference_job()
    return {"setup_s": elapsed, "ref_s": (before + after) / 2}


# Fixed input of the reference job: 180 rows of 12 arity-3 values.
_REFERENCE_ROWS = tuple(
    tuple((i * 7 + j * 13 + i * j) % 3 for j in range(12)) for i in range(180)
)


def reference_job() -> float:
    """Time a fixed pure-Python job shaped like the program's own work.

    Pairwise attribute-set cells, a bitmask absorption loop and JSON
    rendering, about 20 ms. It never touches ``dynred``, so its time tracks
    only the speed of the machine at that moment.
    """
    t0 = perf_counter()
    rows = _REFERENCE_ROWS
    cells = {
        frozenset(j for j in range(12) if a[j] != b[j])
        for k, a in enumerate(rows) for b in rows[k + 1:]
    }
    kept: list[int] = []
    for mask in sorted((sum(1 << j for j in c) for c in cells), key=int.bit_count):
        if not any(k & mask == k for k in kept):
            kept.append(mask)
    json.dumps(sorted(sorted(c) for c in cells))
    return perf_counter() - t0


def reference_jobs() -> list[float]:
    return [reference_job() for _ in range(REF_REPS)]


def invoke(cli, argv) -> tuple[float, int | None, str]:
    """Time one in-process ``cli.run(argv)``; an escaping exception is a failed run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = perf_counter()
        try:
            rc = cli.run(argv)
        except Exception:
            rc = None
        elapsed = perf_counter() - t0
    if rc is None:
        traceback.print_exc()
    return elapsed, rc, buf.getvalue()


def timed_loop(cli, argv, seconds, expected, tracing, setup):
    """Invoke until ``seconds`` have passed, with ``REF_REPS`` reference jobs
    just before and just after each untraced invocation.

    With ``tracing``, every untraced invocation is followed by a traced one,
    so both see the same machine state. Unless ``setup`` is None, it is
    called ``SETUP_REPS - 1`` times, spread evenly over the run between
    invocations. Returns the untraced times, the reference-job times (one
    list more than invocations: list i runs before invocation i, list i+1
    after it), the traced times, the spans of each traced invocation, the
    set-up results and the number of invocations that failed or printed
    other than ``expected``.
    """
    plain, traced, per_run, setups, failed = [], [], [], [], 0
    n_setups = 0 if setup is None else SETUP_REPS - 1
    refs = [reference_jobs()]
    start = perf_counter()
    while True:
        elapsed, rc, out = invoke(cli, argv)
        plain.append(elapsed)
        refs.append(reference_jobs())
        failed += rc != 0 or out != expected
        if tracing is not None:
            with tracing:
                elapsed, rc, out = invoke(cli, argv)
            traced.append(elapsed)
            per_run.append(tracing.recorder.take())
            failed += rc != 0 or out != expected
        now = perf_counter() - start
        if len(setups) < n_setups and now >= seconds * (len(setups) + 1) / (n_setups + 1):
            setups.append(setup())
        if now >= seconds:
            while len(setups) < n_setups:
                setups.append(setup())
            return plain, refs, traced, per_run, setups, failed


def work_counts(dynred, name: str, csv_text: str, stdout: str) -> tuple[dict, list[str]]:
    """Exact per-invocation work counts, computed with the public API, untimed.

    A public function that is gone is listed as absent and its counts read 0.
    """
    absent = []

    def api(fn_name):
        fn = getattr(dynred, fn_name, None)
        if fn is None and fn_name not in absent:
            absent.append(fn_name)
        return fn

    system = dynred.parse_decision_table(csv_text, "d")
    tables, members, analysis = [system], [], None
    argv = WORKLOADS[name]["argv"]
    if argv[0] in ("dynamic", "verify"):
        opts = dict(zip(argv[1::2], argv[2::2]))  # every sampling flag takes a value
        plan = dynred.SamplingPlan(
            seed=int(opts["--seed"]),
            fractions=tuple(Fraction(f) for f in opts["--fractions"].split(",")),
            samples_per_fraction=int(opts["--samples"]),
        )
        family = dynred.sample_family(system, plan)
        members = list(family.members)
        tables += members
        if api("analyze_family"):
            analysis = dynred.analyze_family(system, family)

    all_attrs = range(system.n_attrs)
    counts = {
        "table.rows": sum(t.n_objects for t in tables),
        "rough.pairs": sum(t.n_objects * (t.n_objects - 1) // 2 for t in tables),
        "rough.classes": 0,
        "rough.cells": 0,
        "reducts.clauses": 0,
        "reducts.reducts": 0,
        "dynamic.candidates": 0,
        "cli.stdout_bytes": len(stdout.encode("utf-8")),
    }
    if api("condition_classes"):
        counts["rough.classes"] = sum(len(dynred.condition_classes(t, all_attrs)) for t in tables)
    if api("discernibility_matrix"):
        counts["rough.cells"] = sum(len(dynred.discernibility_matrix(t).cells) for t in tables)
    if api("discernibility_function"):
        counts["reducts.clauses"] = sum(len(dynred.discernibility_function(t)) for t in tables)
    if api("all_reducts"):
        counts["reducts.reducts"] = sum(len(dynred.all_reducts(t)) for t in tables)
    if analysis is not None and api("stability_report"):
        counts["dynamic.candidates"] = len(dynred.stability_report(analysis).reduct_support)
    counts["reducts.clause_yield"] = (
        counts["reducts.clauses"] / counts["rough.cells"] if counts["rough.cells"] else 0.0
    )

    seen, dupes = set(), 0
    for m in members:
        rows = m.object_indices
        dupes += rows in seen or m.covers_parent()
        seen.add(rows)
    counts["table.duplicate_member_share"] = dupes / len(members) if members else 0.0
    return counts, absent


def measure(args) -> dict:
    if args.trace:  # the traced run times no set-ups; it only needs the CSV
        setups, more_setups = [], None
        write_csv(args)
    else:
        setups, more_setups = [spawn_setup(args)], lambda: spawn_setup(args)
    dynred = import_dynred()
    cli = dynred.cli
    csv_text = Path(args.csv).read_text(encoding="utf-8")
    argv = cli_argv(args.workload, args.csv)

    # The first invocation warms up and gives the reference output.
    _, rc, reference = invoke(cli, argv)
    tracing = spanlib.Tracing(spanlib.Recorder()) if args.trace else None
    times, ref_times, traced_times, per_run, more, mismatched = timed_loop(
        cli, argv, args.seconds, reference, tracing, more_setups)
    setups += more
    # Child processes count in RUSAGE_CHILDREN, not here.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"times": times, "ref_times": ref_times, "peak_rss_mb": peak_rss_mb}
    if setups:
        result["setup_s"] = median(s["setup_s"] / s["ref_s"] for s in setups) * REF_NOMINAL_S
        result["setup_raw_s"] = median(s["setup_s"] for s in setups)
    attempted = 1 + len(times) + len(traced_times)

    if tracing is not None:
        self_s = [spanlib.self_times(s) for s in per_run]
        calls = [spanlib.call_counts(s) for s in per_run]
        layers = {f"{layer}.self_s": median(s[layer] for s in self_s) for layer in spanlib.LAYERS}
        for fn in ("rough.discernibility_matrix", "reducts.all_reducts"):
            layers[f"{fn}.calls"] = median(c[fn] for c in calls)
        counts, absent_api = work_counts(dynred, args.workload, csv_text, reference)
        layers.update(counts)
        result.update(traced_times=traced_times, layers=layers,
                      absent=tracing.absent + absent_api)
        with open(args.spans, "w", encoding="utf-8") as fh:
            for run, spans in enumerate(per_run):
                for name, start, end, parent in spans:
                    fh.write(json.dumps({"run": run, "name": name, "start": start,
                                         "end": end, "parent": parent}) + "\n")

    reasons = []
    if rc != 0:
        reasons.append(f"the first invocation exited {rc}")
    if mismatched:
        reasons.append(f"{mismatched} invocations failed or differ from the first")
    try:
        reason = check_output(args.workload, csv_text, reference, dynred)
    except (ValueError, KeyError, TypeError) as exc:
        reason = f"stdout is not the expected report: {exc!r}"
    digest = hashlib.sha256(reference.encode("utf-8")).hexdigest()
    recorded = WORKLOADS[args.workload]["digest"]
    if reason is None and recorded and args.seed == DEFAULT_SEED and digest != recorded:
        reason = "stdout digest differs from the recorded one"
    if reason is not None:
        reasons.append(reason)
    # A failed output check condemns every invocation: all printed the same bytes.
    failed = attempted if reason else int(rc != 0) + mismatched
    result.update(attempted=attempted, failed=failed, reasons=reasons, digest=digest)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "measure"))
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--csv", required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans")
    args = p.parse_args(argv)
    result = setup(args) if args.mode == "setup" else measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

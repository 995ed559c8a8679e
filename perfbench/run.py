"""dynred benchmark: end-to-end CLI timings and a traced per-layer breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload static_rows --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each workload run happens in a fresh interpreter started by this script,
and each set-up in a fresh interpreter started by that one (see worker.py).
Human-readable lines name every metric with its unit; the last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. Exit code 0 means the run completed,
even with failed invocations (``correct`` is then false); any other code
means no result was produced.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path
from statistics import median

from worker import REF_NOMINAL_S, SETUP_REPS, WorkerError, spawn
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".perfbench_out")

# Metric names and units come from the benchmark definition at the repo root.
_SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def tail(times: list[float], beyond: int = 10) -> tuple[int, float, int]:
    """The highest whole nearest-rank percentile with ``beyond`` samples above it.

    Returns the percentile, its value and the samples above it; with too few
    samples it falls back to the median.
    """
    ordered = sorted(times)
    for pct in range(99, 49, -1):
        rank = max(1, math.ceil(pct / 100 * len(ordered)))
        if len(ordered) - rank >= beyond:
            break
    return pct, ordered[rank - 1], len(ordered) - rank


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    csv_path = OUT_DIR / f"{name}-{seed}.csv"
    spans_path = OUT_DIR / f"spans-{name}-{seed}.jsonl"
    res = spawn("measure", [
        "--workload", name, "--seed", str(seed), "--csv", str(csv_path),
        "--seconds", str(seconds), "--trace", str(int(trace)), "--spans", str(spans_path),
    ], timeout=seconds + 120)

    times = res["times"]
    refs = res["ref_times"]  # refs[i] just before invocation i, refs[i + 1] just after
    p50 = median(times)
    pct, tail_s, beyond = tail(times)
    # Raw times are printed but not bounded: on a shared 2-core box their
    # run-to-run spread measures the neighbours more than the program.
    unbounded = [
        ("wall_s.min", min(times), "s", f"fastest of {len(times)} invocations"),
        ("wall_s.p50", p50, "s", f"median of {len(times)} invocations"),
        ("wall_s.tail", tail_s, "s", f"p{pct}, {beyond} samples beyond it"),
        ("ref_s.p50", median(r for group in refs for r in group), "s",
         f"median of {sum(map(len, refs))} reference jobs"),
    ]
    if trace:
        metrics = dict(res["layers"])
        metrics["trace.overhead_ratio"] = median(res["traced_times"]) / p50
        units = LAYER_UNITS
        notes = {"trace.overhead_ratio": f"traced p50 over untraced p50, "
                                         f"{len(res['traced_times'])} traced invocations"}
    else:
        # Each invocation over the reference jobs just before and after it.
        cost = median(t / median(refs[i] + refs[i + 1]) for i, t in enumerate(times))
        metrics = {"cost.p50": cost, "peak_rss_mb": res["peak_rss_mb"],
                   "setup_s": res["setup_s"]}
        units = E2E_UNITS
        notes = {
            "cost.p50": f"median over {len(times)} invocations of wall time over "
                        f"the median reference job around it",
            "peak_rss_mb": "ru_maxrss of the untraced workload process",
            "setup_s": f"median of {SETUP_REPS} fresh-interpreter set-ups, each over "
                       f"its reference jobs, times {REF_NOMINAL_S} s",
        }
        unbounded.append(("setup_raw_s", res["setup_raw_s"], "s",
                          f"median of {SETUP_REPS} set-ups, not normalised"))

    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {name}  seed {seed}  trace {int(trace)}  digest {res['digest'][:16]}")
    for key, unit in units.items():
        print(f"  {key:<36} {metrics[key]:>14.6g} {unit:<6} {notes.get(key, '')}")
    for key, value, unit, note in unbounded + [
        ("fail_ratio", failed / attempted, "ratio", f"{failed} of {attempted} invocations"),
    ]:
        print(f"  {key:<36} {value:>14.6g} {unit:<6} {note}")
    for reason in res["reasons"]:
        print(f"  FAILED: {reason}")
    if res.get("absent"):
        print(f"  absent public functions: {', '.join(res['absent'])}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not Path("src/dynred/cli.py").is_file():
        print("perfbench: src/dynred is missing; run from the repository root",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result), flush=True)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Time two source trees of dynred against each other in one process.

    python3 tools/side_by_side.py PARENT_TREE CHANGE_TREE [--workload W] [--seed S] [--runs N]

Each tree is a checkout holding ``src/dynred``; the two are imported side by
side as the packages ``parent_dynred`` and ``change_dynred``. For each
workload of ``perfbench/workloads.py`` (read from this script's own
checkout, never written), the seed's table is written to a temporary CSV
file, and both sides' ``cli._execute`` must return byte-identical stdout
and the same exit status on it. Then N rounds time one ``_execute`` call of
each side, alternating which side goes first, and one JSON line per
workload is printed: the median ms of each side, their ratio (change over
parent) and the number of rounds in which the change was faster. Exit
status 1 means the two sides' outputs differ.

In-process times exclude interpreter start-up and imports, and the parser
is built once per side, as in the benchmark's worker.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def load_package(tree: Path, name: str):
    """Import ``tree``/src/dynred as the package ``name``; its ``cli`` module."""
    src = tree.resolve() / "src" / "dynred"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def load_workloads():
    """``perfbench/workloads.py`` of this checkout, imported by path."""
    spec = importlib.util.spec_from_file_location(
        "side_by_side_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def compare(clis: dict, argv: list[str], runs: int) -> dict:
    """Check that both sides print the same report, then time ``runs`` alternating rounds."""
    calls = {side: (cli._execute, cli.build_parser().parse_args(argv)) for side, cli in clis.items()}
    outputs = {side: execute(args) for side, (execute, args) in calls.items()}
    if outputs["parent"] != outputs["change"]:
        raise SystemExit(f"outputs differ on {' '.join(argv)}")
    times: dict[str, list[float]] = {"parent": [], "change": []}
    order = ["parent", "change"]
    for _ in range(runs):
        gc.collect()
        for side in order:
            execute, args = calls[side]
            start = perf_counter()
            execute(args)
            times[side].append(perf_counter() - start)
        order.reverse()
    parent_ms, change_ms = median(times["parent"]) * 1e3, median(times["change"]) * 1e3
    return {
        "parent_ms": round(parent_ms, 4),
        "change_ms": round(change_ms, 4),
        "ratio": round(change_ms / parent_ms, 4),
        "change_faster": sum(map(float.__lt__, times["change"], times["parent"])),
        "runs": runs,
    }


def main(argv=None) -> None:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent checkout")
    parser.add_argument("change", type=Path, help="the changed checkout")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS),
                        help="a workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--runs", type=int, default=400, help="timed rounds per workload")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    clis = {side: load_package(getattr(args, side), f"{side}_dynred")
            for side in ("parent", "change")}
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.workload or sorted(workloads.WORKLOADS):
            csv_path = Path(tmp) / f"{name}-{args.seed}.csv"
            csv_path.write_text(workloads.table_csv(name, args.seed), encoding="utf-8")
            result = compare(clis, workloads.cli_argv(name, str(csv_path)), args.runs)
            print(json.dumps({"workload": name, "seed": args.seed, **result}), flush=True)


if __name__ == "__main__":
    main()

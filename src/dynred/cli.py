"""Command-line front end.

Subcommands: ``reducts`` and ``core`` for the static analysis, ``dynamic``
for the family-level sets, ``verify`` to run the containment-law checks.
Only ``dynamic`` and ``verify`` import the family layer; ``reducts`` and
``core`` import the oracle only under ``--exact``, which compares the
engine's results with the oracle's (``_cross_check``). One canonically
ordered JSON document goes to stdout (sorted keys and name arrays, reduct
lists ordered by their name arrays), diagnostics to stderr. The engine's
attribute sets are bitmasks over a copy of the table with columns in
descending name order (``output.name_ordered``); ``output.render``, given
the copy's names, writes each as its names in name order. This module
orders the lists: an ascending reduct list, reversed, is report order,
and the support list is sorted by ``name_ordered``'s key. A failing
law's witness ``attribute``, a mask's lowest bit, is the largest name
outside the superset (or in the difference). Exit codes: 0 success, 1
usage error (including a --fractions or --lambda decimal exponent above
1000 in magnitude, and a report or help text that cannot be written), 2
parse/schema error, 3 capacity limit or out of memory, 4 non-vacuous
verification failure, 70 self-check mismatch under --exact.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
from functools import cache
from typing import TYPE_CHECKING

from .errors import (
    CapacityError,
    DomainError,
    EngineError,
    MissingValueError,
    ParameterError,
    ParseError,
    SchemaError,
    SelfCheckError,
)
from .output import Mask, Masks, name_ordered, render
from .reducts import (
    DEFAULT_MAX_ATTRS,
    DEFAULT_MAX_REDUCTS,
    attr_mask,
    core_of,
    intersect_all,
    table_reducts,
)
from .table import DecisionSystem, SamplingPlan, parse_decision_table, sample_family

if TYPE_CHECKING:
    from .dynamic import FamilyAnalysis, StabilityReport

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_CAPACITY = 3
EXIT_VERIFY = 4
EXIT_SELFCHECK = 70

# The exit code of each error this package raises on purpose.
_EXIT_CODES = {
    ParameterError: EXIT_USAGE, DomainError: EXIT_USAGE,
    ParseError: EXIT_PARSE, SchemaError: EXIT_PARSE, MissingValueError: EXIT_PARSE,
    CapacityError: EXIT_CAPACITY, SelfCheckError: EXIT_SELFCHECK,
}


class _Parser(argparse.ArgumentParser):
    # argparse defaults to exit code 2 on bad flags; usage errors are 1 here.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {value}")
        return value

    parse.__name__ = "integer"  # argparse names the type in its error message
    return parse


@cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process, by the first ``run``; parsing leaves it as it was."""
    parser = _Parser(prog="dynred", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--input", required=True, help="CSV file with a header row")
        p.add_argument("--decision", required=True, help="name of the decision column")
        p.add_argument("--exact", action="store_true",
                       help="cross-check every enumeration against the brute-force oracle")
        p.add_argument("--max-attrs", type=_int_at_least(0), default=DEFAULT_MAX_ATTRS,
                       help="condition-attribute enumeration limit")
        p.add_argument("--max-reducts", type=_int_at_least(1), default=DEFAULT_MAX_REDUCTS,
                       help="cap on the reducts found per table (not intermediate implicants); "
                            "exceeding it exits 3")

    def add_sampling(p):
        p.add_argument("--fractions", required=True,
                       help="comma-separated sample-size fractions in (0,1]")
        p.add_argument("--samples", type=int, default=1,
                       help="sub-systems drawn per fraction")
        p.add_argument("--seed", type=int, default=0, help="64-bit sampling seed")
        p.add_argument("--lambda", dest="lam", required=True,
                       help="precision coefficient, a decimal in (0.5, 1]")

    add_common(sub.add_parser("reducts", help="enumerate all reducts and the core"))
    add_common(sub.add_parser("core", help="compute the core without enumeration"))
    p_dynamic = sub.add_parser("dynamic", help="sample a family and compute all stability sets")
    add_common(p_dynamic)
    add_sampling(p_dynamic)
    p_verify = sub.add_parser("verify", help="run the containment-law checks on a sampled family")
    add_common(p_verify)
    add_sampling(p_verify)
    return parser


def _witness_names(system: DecisionSystem, witness: dict | None) -> dict | None:
    """A law's witness with its attribute index and index lists named; other values as they are."""
    if witness is None:
        return None
    out = {}
    for key, value in witness.items():
        if isinstance(value, int):
            out[key] = system.cond_attrs[value]
        elif isinstance(value, list):
            out[key] = Mask(attr_mask(value))
        else:
            out[key] = value
    return out


def _cross_check(results) -> None:
    """Compare (label, table, reducts, core) mask results, in order, with the exhaustive oracle.

    The oracle runs once per distinct table (by row indices), and its
    reducts become sorted masks once; its core is their AND. The engine's
    masks come sorted and are not deduplicated, so a repeated one shows.
    Reducts given as None are not compared, so ``core`` checks its core alone.
    """
    from .oracle import brute_force_reducts

    oracle: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
    for what, table, reducts, core in results:
        rows = table.object_indices
        if rows not in oracle:
            masks = tuple(sorted(map(attr_mask, brute_force_reducts(table))))
            oracle[rows] = masks, intersect_all(masks, table.parent.n_attrs)
        if reducts is not None and reducts != oracle[rows][0]:
            raise SelfCheckError(f"{what}: engine reducts disagree with the exhaustive oracle")
        if core != oracle[rows][1]:
            raise SelfCheckError(f"{what}: engine core disagrees with the exhaustive oracle")


def _base_report(system: DecisionSystem, args) -> dict:
    return {
        "input": {
            "path": args.input,
            "rows": system.n_objects,
            "attributes": list(system.cond_attrs),
            "decision": system.decision_attr,
        },
        "params": {
            "command": args.command,
            "decision": args.decision,
            "exact": args.exact,
            "max_attrs": args.max_attrs,
            "max_reducts": args.max_reducts,
            "fractions": getattr(args, "fractions", None),
            "samples": getattr(args, "samples", None),
            "seed": getattr(args, "seed", None),
            "lambda": getattr(args, "lam", None),
        },
    }


def _family_sections(key, analysis: FamilyAnalysis, report: StabilityReport) -> dict:
    """The static, family, dynamic and stability sections, with each set as its mask.

    Every reduct list but the support list is an ascending antichain, read
    reversed (``output.name_ordered``).
    """

    def listed(masks):
        return Masks(masks[::-1])

    # Each distinct row set, the system's included, is named once.
    system, members = analysis.family.parent, analysis.family.members
    rows = {system.object_indices: {"reducts": listed(analysis.red_s),
                                    "core": Mask(analysis.core_s)}}
    for member, mem in zip(members, analysis.per_member):
        if member.object_indices not in rows:
            rows[member.object_indices] = {"reducts": listed(mem.reducts),
                                           "core": Mask(mem.core)}
    return {
        "static": rows[system.object_indices],
        "family": [{"indices": list(m.object_indices), **rows[m.object_indices]} for m in members],
        "dynamic": {
            "dr": listed(report.dr),
            "dr_lambda": listed(report.dr_lambda),
            "gdr": listed(report.gdr),
            "gdr_lambda": listed(report.gdr_lambda),
            "dcore": Mask(report.dcore),
            "dcore_lambda": Mask(report.dcore_lambda),
            "gdcore": Mask(report.gdcore),
            "gdcore_lambda": Mask(report.gdcore_lambda),
        },
        "stability": {
            "family_size": report.family_size,
            "attr_core_support": {
                system.cond_attrs[a]: count
                for a, count in report.attr_core_support.items()
            },
            "reduct_support": [
                {"reduct": Mask(r), "support": count}
                for r, count in sorted(report.reduct_support, key=lambda rc: key(rc[0]))
            ],
        },
    }


def _execute(args) -> tuple[str, int]:
    try:
        with open(args.input, encoding="utf-8-sig") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not valid UTF-8: {exc}") from exc
    system = parse_decision_table(text, args.decision)
    report = _base_report(system, args)
    # input.attributes keeps header order; the rest runs in name order.
    system, key = name_ordered(system)
    status = EXIT_OK

    if args.command == "reducts":
        masks, core = table_reducts(system, max_attrs=args.max_attrs, max_reducts=args.max_reducts)
        if args.exact:
            _cross_check([("base system", system, masks, core)])
        report["static"] = {"reducts": Masks(masks[::-1]), "core": Mask(core)}
    elif args.command == "core":
        core = attr_mask(core_of(system))
        if args.exact:
            _cross_check([("base system", system, None, core)])
        report["static"] = {"core": Mask(core)}
    else:
        from .dynamic import analyze_family, check_lambda, stability_report, verify_theorems

        lam = check_lambda(args.lam)
        fractions = tuple(piece.strip() for piece in args.fractions.split(","))
        plan = SamplingPlan(seed=args.seed, fractions=fractions, samples_per_fraction=args.samples)
        analysis = analyze_family(system, sample_family(system, plan),
                                  max_attrs=args.max_attrs, max_reducts=args.max_reducts)
        if args.exact:
            results = [("base system", system, analysis.red_s, analysis.core_s)]
            for i, (member, mem) in enumerate(zip(analysis.family.members, analysis.per_member)):
                results.append((f"family member {i}", member, mem.reducts, mem.core))
            _cross_check(results)
        # One record at the requested threshold feeds the report and the laws.
        stability = stability_report(analysis, lam)
        report.update(_family_sections(key, analysis, stability))
        if args.command == "verify":
            checks = verify_theorems(stability)
            report["verification"] = [
                {"check": c.check, "status": c.status, "detail": c.detail,
                 "witness": _witness_names(system, c.witness)}
                for c in checks
            ]
            if any(c.status == "fail" for c in checks):
                status = EXIT_VERIFY
    return render(report, system.cond_attrs), status


def run(argv=None) -> int:
    """Parse flags, run the selected pipeline, print one JSON document or the help text."""
    help_text = io.StringIO()
    try:
        # Help is written below like a report, so a failed write is handled the same way.
        with contextlib.redirect_stdout(help_text):
            args = build_parser().parse_args(argv)
        text, status = _execute(args)
    except SystemExit as exc:  # from argparse: help, or a usage error already on stderr
        text, status = help_text.getvalue(), int(exc.code or 0)
    except EngineError as exc:
        print(f"dynred: {exc}", file=sys.stderr)
        return _EXIT_CODES[type(exc)]
    except MemoryError:
        # The family's rows and members are bounded (table.MAX_FAMILY_ROWS,
        # table.MAX_FAMILY_MEMBERS), but not the table, the reducts under
        # --max-reducts or the report built from them, so running out of
        # memory is reported as a capacity limit.
        print("dynred: out of memory: the table or the family is too large", file=sys.stderr)
        return EXIT_CAPACITY
    except OSError as exc:
        print(f"dynred: cannot read input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        print(f"dynred: cannot write output: {exc}", file=sys.stderr)
        if sys.stdout is sys.__stdout__:
            # The text is still buffered: send it to the null device, or the
            # interpreter's exit flush fails on it again with a message of its own.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_USAGE
    return status


def main() -> None:
    sys.exit(run())

"""Command-line front end.

Subcommands: ``reducts`` and ``core`` for the static analysis, ``dynamic``
for the family-level sets, ``verify`` to run the containment-law checks.
One canonically ordered JSON document goes to stdout (sorted keys, sorted
attribute-name arrays, reduct lists ordered by their name arrays),
diagnostics to stderr. Its text is exactly
``json.dumps(report, sort_keys=True, indent=2)``, ASCII escapes included,
plus one trailing newline; a one-pass writer produces it, since ``indent``
forces the json module onto its pure-Python encoder. Every attribute set
of the engine is a bitmask (``reducts.table_reducts``, ``FamilyAnalysis``),
and every set in a report is named by one function (``_namer``), through
one 16-entry name table per 4 attributes. A family report names each
distinct reduct once and ranks the distinct name lists with one sort, so
every reduct list is ordered by integer rank and shares one name list per
reduct; the writer writes each such list once per indentation depth and
appends its text at every further mention. ``--exact`` turns the
oracle's reducts into sorted masks once per distinct table and compares
them with the engine's. Exit codes: 0 success, 1 usage error (including a
decimal exponent above 1000 in magnitude in --fractions or --lambda), 2
parse/schema error, 3 capacity limit or out of memory, 4 non-vacuous
verification failure, 70 self-check mismatch under --exact.
"""

from __future__ import annotations

import argparse
import sys
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .dynamic import (
    FamilyAnalysis,
    StabilityReport,
    analyze_family,
    check_lambda,
    stability_report,
    verify_slice,
)
from .errors import (
    CapacityError,
    DomainError,
    MissingValueError,
    ParameterError,
    ParseError,
    SchemaError,
    SelfCheckError,
)
from .oracle import brute_force_core, brute_force_reducts
from .reducts import (
    DEFAULT_MAX_ATTRS,
    DEFAULT_MAX_REDUCTS,
    attr_mask,
    core_of,
    intersect_all,
    table_reducts,
)
from .table import DecisionSystem, SamplingPlan, parse_decision_table, sample_family

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_CAPACITY = 3
EXIT_VERIFY = 4
EXIT_SELFCHECK = 70


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


def build_parser() -> argparse.ArgumentParser:
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


def _namer(names):
    """Map an attribute bitmask to the sorted names of its set bits.

    One 16-entry table of name lists per 4 attributes is built up front, so
    a mask costs one lookup per non-zero nibble and a sort of its few names.
    """
    tables = []
    for base in range(0, len(names), 4):
        chunk = names[base:base + 4]
        tables.append([[n for b, n in enumerate(chunk) if v >> b & 1] for v in range(16)])

    def name(mask: int) -> list[str]:
        out: list[str] = []
        for table in tables:
            if not mask:
                break
            out += table[mask & 15]
            mask >>= 4
        out.sort()
        return out

    return name


def _witness_names(system: DecisionSystem, name, witness: dict | None) -> dict | None:
    """A law's witness with its attribute index and index lists named; other values as they are."""
    if witness is None:
        return None
    out = {}
    for key, value in witness.items():
        if isinstance(value, int):
            out[key] = system.cond_attrs[value]
        elif isinstance(value, list):
            out[key] = name(attr_mask(value))
        else:
            out[key] = value
    return out


def _cross_check(results) -> None:
    """Compare (label, table, reducts, core) mask results, in order, with the exhaustive oracle.

    The oracle runs once per distinct table (by row indices), and its
    reducts become sorted masks once; its core is their AND. The engine's
    masks come sorted and are not deduplicated, so a repeated one shows.
    """
    oracle: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
    for what, table, reducts, core in results:
        rows = table.object_indices
        if rows not in oracle:
            masks = tuple(sorted(map(attr_mask, brute_force_reducts(table))))
            oracle[rows] = masks, intersect_all(masks, table.parent.n_attrs)
        if reducts != oracle[rows][0]:
            raise SelfCheckError(f"{what}: engine reducts disagree with the exhaustive oracle")
        if core != oracle[rows][1]:
            raise SelfCheckError(f"{what}: engine core disagrees with the exhaustive oracle")


def _analyze(system: DecisionSystem, args) -> FamilyAnalysis:
    fractions = tuple(piece.strip() for piece in args.fractions.split(","))
    plan = SamplingPlan(seed=args.seed, fractions=fractions, samples_per_fraction=args.samples)
    analysis = analyze_family(system, sample_family(system, plan),
                              max_attrs=args.max_attrs, max_reducts=args.max_reducts)
    if args.exact:
        results = [("base system", system, analysis.red_s, analysis.core_s)]
        for i, (member, mem) in enumerate(zip(analysis.family.members, analysis.per_member)):
            results.append((f"family member {i}", member, mem.reducts, mem.core))
        _cross_check(results)
    return analysis


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


def _family_sections(name, analysis: FamilyAnalysis, report: StabilityReport) -> dict:
    """The static, family, dynamic and stability sections, every set named by ``name``.

    ``report.reduct_support`` holds every reduct of the report once: the
    system's and every member's. Each is named once, and one sort of the
    distinct name lists ranks the masks, so every reduct list is ordered by
    integer rank and holds the one name list of each mask.
    """
    s = report.per_lambda[0]
    support = report.reduct_support
    names = [name(r) for r, _ in support]
    order = sorted(range(len(names)), key=names.__getitem__)
    ranked = [names[i] for i in order]
    rank = {support[i][0]: k for k, i in enumerate(order)}

    def listed(masks):
        return [ranked[k] for k in sorted(map(rank.__getitem__, masks))]

    # Each distinct row set, the system's included, is named once.
    system, members = analysis.system, analysis.family.members
    named = {system.object_indices: (listed(analysis.red_s), name(analysis.core_s))}
    for member, mem in zip(members, analysis.per_member):
        if member.object_indices not in named:
            named[member.object_indices] = (listed(mem.reducts), name(mem.core))
    static_reducts, static_core = named[system.object_indices]
    return {
        "static": {"reducts": static_reducts, "core": static_core},
        "family": [
            {
                "indices": list(member.object_indices),
                "reducts": named[member.object_indices][0],
                "core": named[member.object_indices][1],
            }
            for member in members
        ],
        "dynamic": {
            "dr": listed(s.dr),
            "dr_lambda": listed(s.dr_lambda),
            "gdr": listed(s.gdr),
            "gdr_lambda": listed(s.gdr_lambda),
            "dcore": name(s.dcore),
            "dcore_lambda": name(s.dcore_lambda),
            "gdcore": name(s.gdcore),
            "gdcore_lambda": name(s.gdcore_lambda),
        },
        "stability": {
            "family_size": report.family_size,
            "attr_core_support": {
                system.cond_attrs[a]: count
                for a, count in report.attr_core_support.items()
            },
            "reduct_support": [
                {"reduct": names[i], "support": support[i][1]} for i in order
            ],
        },
    }


def _execute(args) -> tuple[dict, int]:
    try:
        text = Path(args.input).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not valid UTF-8: {exc}") from exc
    system = parse_decision_table(text, args.decision, name=Path(args.input).stem)
    report = _base_report(system, args)
    name = _namer(system.cond_attrs)

    if args.command == "reducts":
        masks, core = table_reducts(system, max_attrs=args.max_attrs, max_reducts=args.max_reducts)
        if args.exact:
            _cross_check([("base system", system, masks, core)])
        report["static"] = {"reducts": sorted(map(name, masks)), "core": name(core)}
        return report, EXIT_OK

    if args.command == "core":
        core = core_of(system)
        if args.exact and core != brute_force_core(system):
            raise SelfCheckError("base system: engine core disagrees with the exhaustive oracle")
        report["static"] = {"core": name(attr_mask(core))}
        return report, EXIT_OK

    lam = check_lambda(args.lam)
    analysis = _analyze(system, args)
    # One slice at the requested threshold feeds the report and the laws.
    stability = stability_report(analysis, [lam])
    report.update(_family_sections(name, analysis, stability))

    if args.command == "dynamic":
        return report, EXIT_OK

    checks = verify_slice(analysis, stability.per_lambda[0])
    report["verification"] = [
        {
            "check": c.check,
            "status": c.status,
            "detail": c.detail,
            "witness": _witness_names(system, name, c.witness),
        }
        for c in checks
    ]
    failed = any(c.status == "fail" for c in checks)
    return report, EXIT_VERIFY if failed else EXIT_OK


def _render(report) -> str:
    """The text of ``json.dumps(report, sort_keys=True, indent=2)`` plus a newline.

    ``indent`` sends ``json.dumps`` down its pure-Python encoder, one
    generator frame per value; this writer walks the plain dict/list data
    once into a single chunk list instead, and quotes strings with the C
    function ``json.dumps`` itself uses, so the escaping is identical.

    A report names each distinct attribute set with one list object, which
    may appear many times. The writer keeps the text of every non-empty
    list of strings it writes, keyed by indentation and ``id``, for this
    call only, and appends that text again at each further mention. Ids are
    unique only among live objects, and the text is read back by id alone,
    so nothing may mutate or free any part of ``report`` while it is
    written: the CLI builds the report, renders it and only then drops it.
    """
    chunks: list[str] = []
    _write(report, "\n", chunks, {})
    chunks.append("\n")
    return "".join(chunks)


def _write(value, newline: str, chunks: list[str], memo: dict[str, dict[int, str]]) -> None:
    # ``newline`` is the line break plus the indentation of ``value`` itself;
    # ``memo[newline]`` maps the id of each string list written at that
    # indentation to its text.
    if isinstance(value, str):
        chunks.append(_quote(value))
    elif isinstance(value, list):
        if not value:
            chunks.append("[]")
            return
        inner = newline + "  "
        seen = memo.setdefault(newline, {})
        text = seen.get(id(value))
        if text is None:
            try:  # a list of strings, such as an attribute set, is one join
                text = seen[id(value)] = (
                    "[" + inner + ("," + inner).join(map(_quote, value)) + newline + "]"
                )
            except TypeError:  # some element is not a string
                pass
        if text is not None:
            chunks.append(text)
            return
        # The same join, inlined: a list of attribute sets is written in
        # this one loop, with no call per set.
        head, comma, tail = "[" + inner + "  ", "," + inner + "  ", inner + "]"
        seen = memo.setdefault(inner, {})
        sep = "[" + inner
        for item in value:
            chunks.append(sep)
            sep = "," + inner
            key = id(item)
            text = seen.get(key)
            if text is None:
                if type(item) is not list or not item:
                    _write(item, inner, chunks, memo)
                    continue
                try:
                    text = seen[key] = f"{head}{comma.join(map(_quote, item))}{tail}"
                except TypeError:  # some element is not a string
                    _write(item, inner, chunks, memo)
                    continue
            chunks.append(text)
        chunks.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            chunks.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            chunks.append(sep)
            chunks.append(_quote(key))
            chunks.append(": ")
            _write(item, inner, chunks, memo)
            sep = "," + inner
        chunks.append(newline + "}")
    elif value is None:
        chunks.append("null")
    elif value is True:
        chunks.append("true")
    elif value is False:
        chunks.append("false")
    elif isinstance(value, int):
        chunks.append(int.__repr__(value))
    else:
        raise TypeError(f"cannot render {type(value).__name__} in a report")


def run(argv=None) -> int:
    """Parse flags, run the selected pipeline, print one JSON document."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report, status = _execute(args)
        text = _render(report)
    except (ParameterError, DomainError) as exc:
        print(f"dynred: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, SchemaError, MissingValueError) as exc:
        print(f"dynred: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapacityError as exc:
        print(f"dynred: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except MemoryError:
        # The family's rows are bounded (table.MAX_FAMILY_ROWS), but not the
        # table, the reducts under --max-reducts or the report built from
        # them, so running out of memory is reported as a capacity limit.
        print("dynred: out of memory: the table or the family is too large", file=sys.stderr)
        return EXIT_CAPACITY
    except SelfCheckError as exc:
        print(f"dynred: {exc}", file=sys.stderr)
        return EXIT_SELFCHECK
    except OSError as exc:
        print(f"dynred: cannot read input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(text)
    return status


def main() -> None:
    sys.exit(run())

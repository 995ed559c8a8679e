import contextlib
import dataclasses
import errno
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dynred import (
    DecisionSystem,
    Family,
    SamplingPlan,
    analyze_family,
    brute_force_reducts,
    cli,
    discernibility_function,
    make_subsystem,
    parse_decision_table,
    sample_family,
    stability_report,
)
from dynred.cli import run
from dynred.errors import EngineError
from dynred.output import Mask, Masks, name_ordered, render as _render

from conftest import FIX_A_CSV, FIX_B_CSV, matching_csv, planted_core_csv

# Condition names with an accent, a CSV-escaped double quote, a backslash,
# and one holding a tab, an astral character and U+2028.
NON_ASCII_CSV = (
    'café,"q""uote",back\\slash,"t\tab \U0001d538\u2028",d\n'
    "0,0,0,0,0\n1,0,0,1,1\n0,1,1,0,1\n1,1,0,1,0\n0,0,1,1,1\n"
)


@pytest.fixture
def fixa_path(tmp_path):
    p = tmp_path / "fixa.csv"
    p.write_text(FIX_A_CSV)
    return str(p)


def run_json(capsys, argv):
    status = run(argv)
    out = capsys.readouterr().out
    return status, out


def run_module(argv, cwd=None, timeout=60, stdout=subprocess.PIPE, **env_vars):
    """``python -m dynred`` in a fresh interpreter, importing this checkout."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "dynred", *argv], cwd=cwd, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=timeout)


class TestReductsCommand:
    def test_fixture_values(self, capsys, fixa_path):
        status, out = run_json(capsys, ["reducts", "--input", fixa_path, "--decision", "d"])
        assert status == 0
        report = json.loads(out)
        assert report["static"]["reducts"] == [["a", "b"], ["a", "c"]]
        assert report["static"]["core"] == ["a"]
        assert report["input"]["rows"] == 3

    @pytest.mark.parametrize("body", ["0\n0\n", "0\n1\n"], ids=["consistent", "inconsistent"])
    def test_no_condition_attributes(self, capsys, tmp_path, body):
        p = tmp_path / "decision_only.csv"
        p.write_text("d\n" + body)
        status, out = run_json(capsys, ["reducts", "--input", str(p), "--decision", "d"])
        assert status == 0
        report = json.loads(out)
        assert report["input"]["attributes"] == []
        assert report["static"] == {"core": [], "reducts": [[]]}

    def test_deterministic_bytes(self, capsys, fixa_path):
        argv = ["reducts", "--input", fixa_path, "--decision", "d"]
        _, first = run_json(capsys, argv)
        _, second = run_json(capsys, argv)
        assert first == second

    def test_exact_flag(self, capsys, fixa_path):
        status, out = run_json(
            capsys, ["reducts", "--input", fixa_path, "--decision", "d", "--exact"]
        )
        assert status == 0
        assert json.loads(out)["static"]["core"] == ["a"]

    def test_sorted_keys(self, capsys, fixa_path):
        _, out = run_json(capsys, ["reducts", "--input", fixa_path, "--decision", "d"])
        report = json.loads(out)
        assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("wrong", ["dropped", "superset", "repeated"])
    def test_exact_catches_a_wrong_reduct_collection(self, capsys, monkeypatch, tmp_path, wrong):
        import dynred.reducts

        # The search call inside reducts.table_reducts, which the reducts command goes through.
        original = dynred.reducts._reducts

        def mutated(classes, *caps):
            masks, core = original(classes, *caps)
            if wrong == "dropped":
                return masks[1:], core
            if wrong == "repeated":
                return masks + masks[:1], core
            r = masks[0]
            return masks + (r | (~r & (r + 1)),), core  # r plus its lowest unset attribute

        p = tmp_path / "matching.csv"
        p.write_text(matching_csv(3))
        monkeypatch.setattr(dynred.reducts, "_reducts", mutated)
        status = run(["reducts", "--input", str(p), "--decision", "d", "--exact"])
        out, err = capsys.readouterr()
        assert status == 70
        assert out == ""
        assert err == "dynred: base system: engine reducts disagree with the exhaustive oracle\n"

    def test_exact_catches_a_wrong_core_beside_the_right_reducts(self, capsys, monkeypatch,
                                                                fixa_path):
        import dynred.cli

        # The engine's core comes from the clauses and the oracle's from its
        # reducts; patching the result the CLI reads changes the core alone.
        original = dynred.cli.table_reducts

        def wrong_core(table, **kwargs):
            masks, core = original(table, **kwargs)
            return masks, core ^ 1

        monkeypatch.setattr(dynred.cli, "table_reducts", wrong_core)
        status = run(["reducts", "--input", fixa_path, "--decision", "d", "--exact"])
        out, err = capsys.readouterr()
        assert status == 70
        assert out == ""
        assert err == "dynred: base system: engine core disagrees with the exhaustive oracle\n"


# The corpus's names: prefixes of one another, names holding characters
# that JSON escapes or that sort before the quote sign, DEL, and non-ASCII
# ones, so that the name order differs from the header order, from the
# code-point order of the first character and from the order of the quoted
# names.
_NAME = (st.sampled_from(("a", "a0", "a10", " ", "!", '"', "\\", "\x7f"))
         | st.text('a01 !"\\\x7fé\U0001d538', min_size=1, max_size=4))


def _two_rows(m):
    return (*range(m),), (*range(m, 2 * m),)


def _ordered_over(names):
    """``name_ordered`` on a two-row table whose condition columns are ``names``."""
    return name_ordered(DecisionSystem(names, "decision", _two_rows(len(names)), (0, 1), {}))


def _names_of(table, mask):
    return [table.cond_attrs[a] for a in range(table.n_attrs) if mask >> a & 1]


def _dumps(value):
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_name_ordered_names_every_mask_in_name_order(data):
    # m up to 40 covers a partial top byte and masks past bit 24, and the
    # empty and full masks are always drawn.
    m = data.draw(st.integers(0, 40), label="m")
    names = tuple(data.draw(st.lists(_NAME, min_size=m, max_size=m, unique=True), label="names"))
    table, key = _ordered_over(names)
    # The copy holds the same columns, codes and all, largest name first.
    assert table.cond_attrs == tuple(sorted(names, reverse=True))
    assert table.rows == tuple(tuple(row[names.index(c)] for c in table.cond_attrs)
                               for row in _two_rows(m))
    full = (1 << m) - 1
    masks = data.draw(st.lists(st.integers(0, full), max_size=12), label="masks") + [0, full]
    expected = [sorted(_names_of(table, mask)) for mask in masks]
    # Each set reads as its names in name order, in a list and alone.
    assert _render(Masks(masks), table.cond_attrs) == _dumps(expected)
    assert [_render(Mask(b), table.cond_attrs) for b in masks] == [*map(_dumps, expected)]
    # Ordering by the key orders the raw name lists, and distinct sets have distinct keys.
    assert _render(Masks(sorted(masks, key=key)), table.cond_attrs) == _dumps(sorted(expected))
    assert len(set(map(key, masks))) == len(set(masks))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_descending_masks_order_an_antichain_by_name(data):
    # The minimal sets among random masks form an antichain, as every
    # reduct list does; m up to 40 covers a partial top byte.
    m = data.draw(st.integers(0, 40), label="m")
    names = tuple(data.draw(st.lists(_NAME, min_size=m, max_size=m, unique=True), label="names"))
    table, _ = _ordered_over(names)
    drawn = set(data.draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=16),
                          label="masks"))
    antichain = [x for x in drawn if not any(y != x and y & x == y for y in drawn)]
    expected = sorted(sorted(_names_of(table, x)) for x in antichain)
    assert _render(Masks(sorted(antichain, reverse=True)), table.cond_attrs) == _dumps(expected)


def test_descending_masks_misorder_a_set_and_its_extension():
    # {a} lists before {a, b}, but is the smaller mask: a list whose sets
    # may nest, such as the support list, needs the key.
    table, key = _ordered_over(("a", "b"))
    sets = [1 << table.cond_attrs.index("a"), 0b11]
    names = table.cond_attrs
    assert _render(Masks(sorted(sets, reverse=True)), names) == _dumps([["a", "b"], ["a"]])
    assert _render(Masks(sorted(sets, key=key)), names) == _dumps([["a"], ["a", "b"]])


def _literal_sections(system, members, lam):
    """The sections ``dynamic`` reports, from the brute-force oracle and the frozenset definitions.

    Every member's reducts come from ``brute_force_reducts`` and every core
    is their intersection; support is counted member by member, so repeats
    count separately.
    """
    everything = frozenset(range(system.n_attrs))

    def named(attrs):
        return sorted(system.cond_attrs[a] for a in attrs)

    def named_all(sets):
        return sorted(named(s) for s in sets)

    red_s = brute_force_reducts(system)
    core_s = everything.intersection(*red_s)
    reds = [brute_force_reducts(m) for m in members]
    cores = [everything.intersection(*r) for r in reds]

    def held(count):
        return Fraction(count, len(members)) >= lam

    def support(r):
        return sum(r in member for member in reds)

    def core_support(a):
        return sum(a in core for core in cores)

    candidates = set(red_s).union(*reds)
    return {
        "static": {"reducts": named_all(red_s), "core": named(core_s)},
        "family": [
            {"indices": list(m.object_indices), "reducts": named_all(r), "core": named(c)}
            for m, r, c in zip(members, reds, cores)
        ],
        "dynamic": {
            "dr": named_all(r for r in red_s if all(r in member for member in reds)),
            "dr_lambda": named_all(r for r in red_s if held(support(r))),
            "gdr": named_all(set(reds[0]).intersection(*reds)),
            "gdr_lambda": named_all(r for r in candidates if held(support(r))),
            "dcore": named(core_s.intersection(*cores)),
            "dcore_lambda": named(a for a in core_s if held(core_support(a))),
            "gdcore": named(cores[0].intersection(*cores)),
            "gdcore_lambda": named(a for a in everything if held(core_support(a))),
        },
        "reduct_support": [{"reduct": named(r), "support": support(r)}
                           for r in sorted(candidates, key=named)],
        "attr_core_support": {system.cond_attrs[a]: core_support(a) for a in everything},
    }


# Names whose order differs from their column order.
_COLUMNS = ("b", "a10", "a", "z", "a0", "caf\u00e9", "B", "m")


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_dynamic_report_names_the_literal_sets(data):
    m = data.draw(st.integers(0, 8), label="attributes")
    n = data.draw(st.integers(1, 24), label="row count")
    arities = data.draw(st.lists(st.integers(1, 3), min_size=m + 1, max_size=m + 1))
    rows = data.draw(st.lists(st.tuples(*(st.integers(0, k - 1) for k in arities)),
                              min_size=n, max_size=n), label="rows")
    names = data.draw(st.permutations(_COLUMNS), label="names")[:m]
    text = "\n".join([",".join([*names, "d"])] + [",".join(map(str, r)) for r in rows]) + "\n"
    system = parse_decision_table(text, "d")

    # A family with repeated and full-table members, handed to the CLI in place of a sample.
    drawn = data.draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=4))
    drawn += data.draw(st.lists(st.sampled_from(drawn), max_size=3), label="repeats")
    drawn += [range(n)] * data.draw(st.integers(0, 2), label="full members")
    drawn = data.draw(st.permutations(drawn), label="family")
    lam = data.draw(st.sampled_from(["0.51", "0.6", "0.67", "0.75", "0.8", "1"]), label="lambda")

    def family(parsed, plan):
        return Family(tuple(make_subsystem(parsed, rows) for rows in drawn))

    members = family(system, None).members
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "sample_family", family):
        path = Path(tmp) / "t.csv"
        path.write_text(text, encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = run(["dynamic", "--input", str(path), "--decision", "d",
                          "--fractions", "1", "--lambda", lam])
    assert status == 0
    report = json.loads(out.getvalue())
    expected = _literal_sections(system, members, Fraction(lam))
    assert report["static"] == expected["static"]
    assert report["family"] == expected["family"]
    assert report["dynamic"] == expected["dynamic"]
    assert report["stability"]["reduct_support"] == expected["reduct_support"]
    assert report["stability"]["attr_core_support"] == expected["attr_core_support"]
    assert report["stability"]["family_size"] == len(members)


# Strings mixing arbitrary characters with the ones JSON escapes specially:
# quotes, backslashes, control characters, U+2028/9, a lone surrogate.
_TEXT = st.text(
    st.characters() | st.sampled_from('"\\\x00\x1f\x7f\u2028\u2029é\U0001f600\ud800'), max_size=6
)
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | _TEXT,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(_TEXT, max_size=4)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_render_matches_json_dumps(value):
    assert _render(value, ()) == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_render_writes_aliased_lists_as_json_dumps():
    # One set recurs here, alone and in lists, at several depths and under
    # several parents, and beside the empty set; it renders as the list of
    # its names each time.
    def values(one, pair, gaps):
        empty = []
        mixed = [1, None, {"k": one, "e": empty}, -2 ** 70, pair]
        value = {
            "names": one,
            "empty": empty,
            "pair": pair,
            "gaps": gaps,
            "mixed": mixed,
            "again": [mixed, pair, gaps, one, empty],
            # ``one`` sits at depth 2 as a dict value here and as a list
            # element under "support", and at depth 3 as a list element here
            # and as a dict value under "support".
            "nested": {"reduct": one, "rows": [one, empty, one]},
            "support": [{"reduct": one, "support": 3}, one, {"reduct": one}],
        }
        return value, [one, [one], [[one]], one, pair, [gaps]]

    table, _ = _ordered_over(("b", "a\u00e9", '"q"', "z"))
    mask = sum(1 << table.cond_attrs.index(name) for name in ("b", "a\u00e9", '"q"'))
    names = ["\"q\"", "a\u00e9", "b"]
    got = values(Mask(mask), Masks([mask, mask]), Masks([0, mask, 0]))
    for value, expected in zip(got, values(names, [names, names], [[], names, []])):
        assert _render(value, table.cond_attrs) == _dumps(expected)


@dataclasses.dataclass(frozen=True)
class _One:
    index: int


@dataclasses.dataclass(frozen=True)
class _Many:
    indices: tuple[int, ...]


def _filled(template, one, many):
    """``template`` with each ``_One`` leaf made ``one(index)`` and ``_Many`` ``many(indices)``."""
    if isinstance(template, _One):
        return one(template.index)
    if isinstance(template, _Many):
        return many(template.indices)
    if isinstance(template, list):
        return [_filled(item, one, many) for item in template]
    if isinstance(template, dict):
        return {key: _filled(item, one, many) for key, item in template.items()}
    return template


def _drawn_sets(data, count, first=()):
    """``table, masks``: up to 40 names, and ``first`` plus ``count`` masks over them."""
    m = data.draw(st.integers(0, 40), label="m")
    names = tuple(data.draw(st.lists(_NAME, min_size=m, max_size=m, unique=True), label="names"))
    table, _ = _ordered_over(names)
    masks = [*first, *data.draw(st.lists(st.integers(min(1, m), (1 << m) - 1), **count),
                               label="masks")]
    return table, masks


def _rendered_sets(template, table, masks):
    """``render`` of ``template`` filled with ``table``'s sets, and ``json.dumps`` of the names."""
    names = [sorted(_names_of(table, mask)) for mask in masks]
    value = _filled(template, lambda i: Mask(masks[i]),
                    lambda indices: Masks([masks[i] for i in indices]))
    expected = _filled(template, names.__getitem__, lambda indices: [names[i] for i in indices])
    return _render(value, table.cond_attrs), _dumps(expected)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_render_writes_sets_as_their_names(data):
    # Sets alone and in lists, so a set drawn twice, or mentioned twice,
    # recurs at any depth.
    table, masks = _drawn_sets(data, dict(min_size=1, max_size=4))
    one = st.builds(_One, st.integers(0, len(masks) - 1))
    many = st.builds(_Many, st.lists(st.integers(0, len(masks) - 1), max_size=4).map(tuple))
    leaf = one | many | st.none() | st.integers() | _TEXT
    template = data.draw(st.recursive(
        leaf, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
        max_leaves=25,
    ), label="value")
    got, expected = _rendered_sets(template, table, masks)
    assert got == expected


_KEYS = _TEXT | st.sampled_from(("%", "%s", "%%"))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_render_writes_same_kind_lists_as_json_dumps(data):
    # Lists whose items share one kind, above all records (dicts with one key
    # set) whose columns often do too, and lists of dicts whose key sets may
    # differ, nested in one another; set 0 is empty.
    table, masks = _drawn_sets(data, dict(max_size=3), first=[0])
    one = st.builds(_One, st.integers(0, len(masks) - 1))
    many = st.builds(_Many, st.lists(st.integers(0, len(masks) - 1), max_size=3).map(tuple))
    ints = st.integers(-2 ** 70, 2 ** 70)
    scalars = (st.lists(ints, min_size=1, max_size=5) | st.lists(_TEXT, min_size=1, max_size=5)
               | st.lists(one, min_size=1, max_size=5) | st.lists(many, min_size=1, max_size=5)
               | st.lists(st.booleans() | st.integers(0, 1), min_size=1, max_size=5))

    def records(inner):
        cells = st.sampled_from([ints, st.booleans(), st.none(), _TEXT, one, many, inner])
        columns = st.dictionaries(_KEYS, cells, min_size=1, max_size=4)
        return columns.flatmap(
            lambda c: st.lists(st.fixed_dictionaries(c), min_size=1, max_size=4))

    template = data.draw(st.recursive(
        scalars,
        lambda inner: (records(inner) | st.lists(inner, max_size=3)
                       | st.lists(st.dictionaries(_KEYS, inner, min_size=1, max_size=2),
                                  min_size=2, max_size=3)),
        max_leaves=20,
    ), label="value")
    got, expected = _rendered_sets(template, table, masks)
    assert got == expected


def _copied_analysis(*args, **kwargs):
    """``analyze_family`` with an equal but distinct object in every ``per_member`` slot."""
    analysis = analyze_family(*args, **kwargs)
    copies = tuple(mem._replace() for mem in analysis.per_member)
    return analysis._replace(per_member=copies)


def test_dynamic_builds_each_set_text_once_per_depth(capsys, monkeypatch, tmp_path):
    import dynred.dynamic
    from dynred import output

    # Members of this family share reducts with one another and with the
    # table, so a report that built a set's text at each mention would
    # build one again. The second input gives every member its own equal
    # MemberAnalysis, so the report may not rely on equal row sets sharing
    # one object.
    rng = random.Random(5)
    text = "a,b,c,e,f,d\n" + "".join(
        ",".join(str(rng.randrange(2)) for _ in range(6)) + "\n" for _ in range(12)
    )
    (tmp_path / "t.csv").write_text(text)
    system = parse_decision_table(text, "d")
    table = name_ordered(system)[0]
    built = Counter()
    original = output._built

    def counting(tables, masks, cut):
        # Counted in header bits, as the analysis below lists them; ``cut``,
        # the length of a set's first separator, names the depth.
        built.update((cut, sum(1 << system.cond_attrs.index(c) for c in _names_of(table, b)))
                     for b in masks)
        return original(tables, masks, cut)

    monkeypatch.setattr(output, "_built", counting)
    plan = SamplingPlan(seed=3, fractions=("0.5", "0.75", "1"), samples_per_fraction=4)
    analysis = analyze_family(system, sample_family(system, plan))
    stability = stability_report(analysis, Fraction(3, 4))
    # Sets written in lists, by depth: at 8 spaces (cut 10) the static and
    # dynamic reduct lists and the family's core column; at 10 (cut 12)
    # each member's reducts and the support list, which holds every reduct.
    mentioned = Counter()
    for masks in (analysis.red_s, stability.dr, stability.dr_lambda, stability.gdr,
                  stability.gdr_lambda, [mem.core for mem in analysis.per_member]):
        mentioned.update((10, r) for r in masks)
    for masks in (*(mem.reducts for mem in analysis.per_member), dict(stability.reduct_support)):
        mentioned.update((12, r) for r in masks)
    assert sum(mentioned.values()) > 3 * len(mentioned)  # the family does share sets
    for analyze in (analyze_family, _copied_analysis):
        monkeypatch.setattr(dynred.dynamic, "analyze_family", analyze)
        built.clear()
        status, out = run_json(capsys, ["dynamic", "--input", str(tmp_path / "t.csv"),
                                        "--decision", "d", "--fractions", "0.5,0.75,1",
                                        "--samples", "4", "--seed", "3", "--lambda", "0.75"])
        assert status == 0
        assert len(json.loads(out)["stability"]["reduct_support"]) == len(stability.reduct_support)
        # Each set's text is built once for each depth it is written at, not per mention.
        assert built == Counter(mentioned.keys())


def test_render_refuses_values_json_would_reshape():
    # The report holds no tuples or floats, so the writer refuses them.
    for value in ({"a": (1, 2)}, [0.5], [(1,), (2,)], [{"a": 0.5}, {"a": 1.5}], [{1, 2}, {3}]):
        with pytest.raises(TypeError):
            _render(value, ())


class TestSetTextEdges:
    """The set writer's edge cases, each against ``json.dumps`` of names the oracle gives."""

    SAMPLING = ["--fractions", "0.5,1", "--samples", "3", "--seed", "4", "--lambda", "0.6"]

    @staticmethod
    def _report(capsys, tmp_path, text, command, *flags):
        path = tmp_path / "t.csv"
        path.write_text(text)
        status, out = run_json(capsys, [command, "--input", str(path), "--decision", "d", *flags])
        assert status == 0
        report = json.loads(out)
        assert out == _dumps(report)  # every byte is json.dumps's
        return report

    def _check_literal(self, capsys, tmp_path, text, *flags):
        """``reducts`` and ``dynamic`` on ``text`` name the oracle's sets."""
        system = parse_decision_table(text, "d")
        plan = SamplingPlan(seed=4, fractions=("0.5", "1"), samples_per_fraction=3)
        expected = _literal_sections(system, sample_family(system, plan).members, Fraction(3, 5))
        report = self._report(capsys, tmp_path, text, "reducts", *flags)
        assert report["static"] == expected["static"]
        report = self._report(capsys, tmp_path, text, "dynamic", *flags, *self.SAMPLING)
        for section in ("static", "family", "dynamic"):
            assert report[section] == expected[section]
        assert report["stability"]["reduct_support"] == expected["reduct_support"]
        return report

    def test_constant_decision_lists_the_empty_set(self, capsys, tmp_path):
        # Nothing needs discerning, so the empty set is the one reduct of
        # every table, written "[]" inside each reduct list.
        text = "b,a,c,d\n0,1,0,0\n1,1,0,0\n0,0,1,0\n1,0,1,0\n"
        report = self._check_literal(capsys, tmp_path, text)
        assert report["static"] == {"core": [], "reducts": [[]]}
        assert report["dynamic"]["dr"] == report["dynamic"]["gdr_lambda"] == [[]]

    def test_no_condition_attributes(self, capsys, tmp_path):
        report = self._check_literal(capsys, tmp_path, "d\n0\n1\n0\n")
        assert report["static"] == {"core": [], "reducts": [[]]}

    def test_thirty_attributes_pass_bit_24(self, capsys, tmp_path):
        # Header order is not name order. Row i sets one attribute alone, so
        # each of the first 28 is a clause of its own; the last row sets the
        # last two, one clause of two. The reducts are the core with either.
        names = [f"c{i:02}" for i in random.Random(6).sample(range(30), 30)]
        rows = [["0"] * 30 + ["0"]]
        for i in range(28):
            rows.append(["1" if j == i else "0" for j in range(30)] + ["1"])
        rows.append(["1" if j >= 28 else "0" for j in range(30)] + ["1"])
        text = ",".join([*names, "d"]) + "\n" + "".join(",".join(r) + "\n" for r in rows)
        system = parse_decision_table(text, "d")
        clauses = discernibility_function(system)
        assert sum(map(len, clauses)) == len(set().union(*clauses)) == 30  # pairwise disjoint
        core = sorted(names[a] for c in clauses if len(c) == 1 for a in c)
        pair = sorted(names[a] for c in clauses if len(c) == 2 for a in c)
        reducts = sorted(sorted([*core, choice]) for choice in pair)
        report = self._report(capsys, tmp_path, text, "reducts", "--max-attrs", "30")
        assert report["static"] == {"core": core, "reducts": reducts}
        report = self._report(capsys, tmp_path, text, "dynamic", "--max-attrs", "30",
                              "--fractions", "1", "--samples", "2", "--lambda", "1")
        assert report["static"] == {"core": core, "reducts": reducts}
        assert [m["reducts"] for m in report["family"]] == [reducts, reducts]
        assert report["dynamic"]["dr"] == report["dynamic"]["gdr"] == reducts
        assert [r["reduct"] for r in report["stability"]["reduct_support"]] == reducts

    def test_one_set_at_two_depths(self, capsys, tmp_path):
        # FIX-A's reducts are written in the static list and again in each
        # full-table member's list, one level deeper.
        report = self._check_literal(capsys, tmp_path, FIX_A_CSV)
        full = [m for m in report["family"] if len(m["indices"]) == report["input"]["rows"]]
        assert full and all(m["reducts"] == report["static"]["reducts"] != [] for m in full)


class TestCoreCommand:
    def test_core_only(self, capsys, fixa_path):
        status, out = run_json(capsys, ["core", "--input", fixa_path, "--decision", "d"])
        assert status == 0
        report = json.loads(out)
        assert report["static"] == {"core": ["a"]}

    def test_core_needs_no_enumeration(self, capsys, tmp_path):
        # 30 attributes exceed the reduct limit, but the core path has none.
        n = 30
        header = ",".join([f"c{i}" for i in range(n)] + ["d"])
        rows = [",".join(["0"] * n + ["0"]), ",".join(["1"] * n + ["1"])]
        p = tmp_path / "wide.csv"
        p.write_text(header + "\n" + "\n".join(rows) + "\n")
        status, out = run_json(capsys, ["core", "--input", str(p), "--decision", "d"])
        assert status == 0
        assert json.loads(out)["static"]["core"] == []


class TestDynamicCommand:
    ARGS = ["--fractions", "0.67", "--samples", "3", "--seed", "42", "--lambda", "0.6"]

    def test_deterministic_bytes(self, capsys, fixa_path):
        argv = ["dynamic", "--input", fixa_path, "--decision", "d", *self.ARGS]
        _, first = run_json(capsys, argv)
        _, second = run_json(capsys, argv)
        assert first == second

    def test_sections_present(self, capsys, fixa_path):
        argv = ["dynamic", "--input", fixa_path, "--decision", "d", *self.ARGS]
        _, out = run_json(capsys, argv)
        report = json.loads(out)
        assert set(report) == {"input", "params", "static", "family", "dynamic", "stability"}
        assert len(report["family"]) == 3
        assert set(report["dynamic"]) == {
            "dr", "dr_lambda", "gdr", "gdr_lambda",
            "dcore", "dcore_lambda", "gdcore", "gdcore_lambda",
        }
        assert report["stability"]["family_size"] == 3

    def test_seed_changes_family_not_static(self, capsys, tmp_path):
        rows = "\n".join(f"{i % 2},{i % 3},{(i * 7) % 2},{i % 2}" for i in range(8))
        p = tmp_path / "t.csv"
        p.write_text("a,b,c,d\n" + rows + "\n")
        base = ["dynamic", "--input", str(p), "--decision", "d",
                "--fractions", "0.5", "--samples", "2", "--lambda", "0.75"]
        _, out1 = run_json(capsys, [*base, "--seed", "1"])
        _, out2 = run_json(capsys, [*base, "--seed", "2"])
        r1, r2 = json.loads(out1), json.loads(out2)
        assert r1["static"] == r2["static"]
        assert [m["indices"] for m in r1["family"]] != [m["indices"] for m in r2["family"]]

    def test_exact_cross_checks_members(self, capsys, fixa_path):
        argv = ["dynamic", "--input", fixa_path, "--decision", "d", "--exact", *self.ARGS]
        status, _ = run_json(capsys, argv)
        assert status == 0

    def test_non_ascii_names_render_as_json_dumps(self, capsys, tmp_path):
        p = tmp_path / "names.csv"
        p.write_text(NON_ASCII_CSV, encoding="utf-8")
        argv = ["dynamic", "--input", str(p), "--decision", "d", "--fractions", "0.5,1",
                "--samples", "2", "--seed", "3", "--lambda", "0.6"]
        status, out = run_json(capsys, argv)
        assert status == 0
        report = json.loads(out)
        assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"
        assert report["input"]["attributes"] == [
            "café", 'q"uote', "back\\slash", "t\tab \U0001d538\u2028"
        ]
        assert set(report["stability"]["attr_core_support"]) == set(report["input"]["attributes"])


class TestVerifyCommand:
    def test_fixture_all_green(self, capsys, fixa_path):
        argv = ["verify", "--input", fixa_path, "--decision", "d",
                "--fractions", "0.5,0.67", "--samples", "5", "--seed", "7",
                "--lambda", "0.75"]
        status, out = run_json(capsys, argv)
        assert status == 0
        checks = json.loads(out)["verification"]
        assert len(checks) == 11
        assert all(c["status"] in {"pass", "vacuous", "not-applicable"} for c in checks)

    def test_a_search_listing_a_non_reduct_fails_the_reduct_laws(self, capsys, monkeypatch,
                                                                tmp_path):
        # The cores come from the clauses, not the search. A search that also
        # lists the empty set puts it in every reduct set, while the planted
        # core {c0, c1} stays; the four laws comparing the two then fail.
        import dynred.reducts

        p = tmp_path / "planted.csv"
        p.write_text(planted_core_csv(4))
        argv = ["verify", "--input", str(p), "--decision", "d", "--fractions", "0.5,0.75,1",
                "--samples", "10", "--seed", "42", "--lambda", "0.75"]
        statuses = []
        for mutated in (False, True):
            if mutated:
                sweep = dynred.reducts._sweep
                monkeypatch.setattr(dynred.reducts, "_sweep", lambda *a: [0, *sweep(*a)])
            status, out = run_json(capsys, argv)
            report = json.loads(out)
            assert report["dynamic"]["dcore"] == ["c0", "c1"]
            failed = [c["check"] for c in report["verification"] if c["status"] == "fail"]
            statuses.append((status, failed))
        assert statuses == [(0, []), (4, ["T1", "T3", "T5a", "T5b"])]


class TestGoldenBytes:
    """Report bytes pinned by SHA-256; rerun comparisons alone cannot see a drift.

    The relative ``--input`` keeps ``input.path`` stable, and the family
    (two full-table members and one half) makes every plain set differ
    from its thresholded counterpart.
    """

    ARGS = ["--input", "fixa.csv", "--decision", "d", "--fractions", "0.5,1,1",
            "--samples", "1", "--seed", "1", "--lambda", "0.6"]

    @pytest.mark.parametrize("command,digest", [
        ("dynamic", "e97de1fb02a5c24640c820d4a3cff3c9f08f9776d9999c09c857a77b4679eeb2"),
        ("verify", "e1e167e71eba99fe9ce1509381ecf25c44bb57cf2bbb3368549b2665f14b6087"),
    ])
    def test_report_digest(self, capsys, tmp_path, monkeypatch, command, digest):
        (tmp_path / "fixa.csv").write_text(FIX_A_CSV)
        monkeypatch.chdir(tmp_path)
        status, out = run_json(capsys, [command, *self.ARGS])
        assert status == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("command,table,digest", [
        ("reducts", "fixa.csv", "d9be0f5fa0d860cc6fd65c41d5280547874c16b53ad09b108125352d7416638e"),
        ("core", "fixa.csv", "fe3091a048bd4b2eae4f84257b4bae1ef05eecb9773a8f135e884b1625b1851c"),
        ("reducts", "matching.csv",
         "a730950bc4d12a3c113e389b48e7d63341a669f13f38519df8066cafb4255eb6"),
        ("reducts", "twins.csv",
         "edbd1aee404f87142f0e2798bcfcadad5e3a4249310ea4ba39302f52c9984be3"),
    ], ids=["reducts-fixa", "core-fixa", "reducts-matching8", "reducts-twin-triple"])
    def test_static_digest(self, capsys, tmp_path, monkeypatch, command, table, digest):
        (tmp_path / "fixa.csv").write_text(FIX_A_CSV)
        (tmp_path / "matching.csv").write_text(matching_csv(8))  # 256 reducts
        # Matching k = 6 plus z, a copy of x0: the twin group {x0, y0, z}
        # gives 3 * 2**5 = 96 reducts.
        lines = [line.split(",") for line in matching_csv(6).splitlines()]
        for i, cells in enumerate(lines):
            cells.insert(-1, cells[0] if i else "z")
        (tmp_path / "twins.csv").write_text("".join(",".join(c) + "\n" for c in lines))
        monkeypatch.chdir(tmp_path)
        status, out = run_json(capsys, [command, "--input", table, "--decision", "d"])
        assert status == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_shared_reduct_family_digest(self, capsys, tmp_path, monkeypatch):
        # 40 uniform rows of 10 arity-3 conditions and a binary decision:
        # the 15 members list 843 reducts, 285 of them distinct, and five
        # members are the full table.
        rng = random.Random(11)
        lines = [",".join([*(f"a{j}" for j in range(10)), "d"])]
        lines += [",".join(str(rng.randrange(3 if j < 10 else 2)) for j in range(11))
                  for _ in range(40)]
        (tmp_path / "shared.csv").write_text("\n".join(lines) + "\n")
        monkeypatch.chdir(tmp_path)
        status, out = run_json(capsys, [
            "verify", "--input", "shared.csv", "--decision", "d", "--fractions", "0.5,0.75,1",
            "--samples", "5", "--seed", "42", "--lambda", "0.75"])
        assert status == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "ce2c32b671c8e973cf624e6a5d40aeb319c386f6bdf8c56860278c4cc076dfd6"
        )

    @pytest.mark.parametrize("csv_text", [FIX_A_CSV, NON_ASCII_CSV], ids=["fixa", "non_ascii"])
    def test_bytes_identical_across_hash_seeds(self, tmp_path, csv_text):
        # String hashing, and so set and dict iteration order, varies by seed.
        (tmp_path / "t.csv").write_text(csv_text, encoding="utf-8")
        argv = ["dynamic", "--input", "t.csv", "--decision", "d", "--fractions", "0.5,1",
                "--samples", "2", "--seed", "3", "--lambda", "0.6"]
        runs = [run_module(argv, cwd=tmp_path, PYTHONHASHSEED=seed) for seed in ("0", "1")]
        assert [r.returncode for r in runs] == [0, 0]
        assert runs[0].stdout == runs[1].stdout


class TestExitCodes:
    @pytest.mark.parametrize("lam", ["0.5", "1.01"])
    def test_lambda_rejected_usage_error(self, capsys, fixa_path, lam):
        argv = ["dynamic", "--input", fixa_path, "--decision", "d",
                "--fractions", "0.5", "--lambda", lam]
        status, out = run_json(capsys, argv)
        assert status == 1
        assert out == ""  # no partial JSON

    @pytest.mark.parametrize("fractions", ["0", "1.5", "0.5,nope"])
    def test_bad_fraction_usage_error(self, capsys, fixa_path, fractions):
        argv = ["dynamic", "--input", fixa_path, "--decision", "d",
                "--fractions", fractions, "--lambda", "0.75"]
        status, out = run_json(capsys, argv)
        assert status == 1
        assert out == ""

    def test_missing_required_flag(self, capsys, fixa_path):
        status, _ = run_json(capsys, ["reducts", "--input", fixa_path])
        assert status == 1

    def test_unknown_subcommand(self, capsys):
        status, _ = run_json(capsys, ["explode"])
        assert status == 1

    def test_missing_file(self, capsys):
        status, _ = run_json(capsys, ["reducts", "--input", "/no/such/file.csv",
                                      "--decision", "d"])
        assert status == 1

    @pytest.mark.parametrize("path, code", [
        ("missing.csv", errno.ENOENT),
        ("missing/", errno.ENOENT),
        ("directory", errno.EISDIR),
        ("", errno.ENOENT),
        ("t.csv/", errno.ENOTDIR),
    ], ids=["missing", "missing-slash", "directory", "empty", "file-slash"])
    def test_unreadable_input_is_echoed_as_typed(self, capsys, monkeypatch, tmp_path, path,
                                                 code):
        # The path is opened as typed, as cat opens it: a trailing slash
        # stays, so a file named with one is not a directory.
        (tmp_path / "directory").mkdir()
        (tmp_path / "t.csv").write_text(FIX_A_CSV)
        monkeypatch.chdir(tmp_path)
        status = run(["reducts", "--input", path, "--decision", "d"])
        out, err = capsys.readouterr()
        assert (status, out) == (1, "")
        assert err == f"dynred: cannot read input: {OSError(code, os.strerror(code), path)}\n"

    def test_a_leading_byte_order_mark_changes_no_report_byte(self, capsys, tmp_path):
        reports = []
        for name, prefix in (("plain.csv", ""), ("bom.csv", "\ufeff")):
            p = tmp_path / name
            p.write_text(prefix + FIX_A_CSV, encoding="utf-8")
            argv = ["verify", "--input", str(p), "--decision", "d",
                    "--fractions", "0.5,1", "--lambda", "0.75"]
            status, out = run_json(capsys, argv)
            reports.append((status, out.replace(json.dumps(str(p)), '"<input>"')))
        assert reports[0] == reports[1]
        assert reports[0][0] == 0

    @staticmethod
    def _write_error(code):
        """The one stderr line of a report that could not be written, for errno ``code``."""
        return f"dynred: cannot write output: {OSError(code, os.strerror(code))}\n"

    def test_unwritable_output_exits_1(self, capsys, monkeypatch, fixa_path):
        class FullStream(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(sys, "stdout", FullStream())
        status = run(["core", "--input", fixa_path, "--decision", "d"])
        assert status == 1
        assert capsys.readouterr().err == self._write_error(errno.ENOSPC)

    # With buffered stdout (PYTHONUNBUFFERED empty, the interpreter's default)
    # the unwritten report stays in the buffer until the exit flush.
    UNBUFFERED = pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])

    @UNBUFFERED
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    def test_full_device_exits_1_without_a_traceback(self, fixa_path, unbuffered):
        with open("/dev/full", "w") as device:
            proc = run_module(["core", "--input", fixa_path, "--decision", "d"], stdout=device,
                              PYTHONUNBUFFERED=unbuffered)
        assert proc.returncode == 1
        assert proc.stderr == self._write_error(errno.ENOSPC)

    @UNBUFFERED
    def test_closed_pipe_exits_1_without_a_traceback(self, fixa_path, unbuffered):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = run_module(["core", "--input", fixa_path, "--decision", "d"], stdout=write,
                              PYTHONUNBUFFERED=unbuffered)
        finally:
            os.close(write)
        assert proc.returncode == 1
        assert proc.stderr == self._write_error(errno.EPIPE)

    @UNBUFFERED
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    def test_help_to_a_full_device_exits_1_without_a_traceback(self, unbuffered):
        with open("/dev/full", "w") as device:
            proc = run_module(["--help"], stdout=device, PYTHONUNBUFFERED=unbuffered)
        assert proc.returncode == 1
        assert proc.stderr == self._write_error(errno.ENOSPC)

    @UNBUFFERED
    def test_help_to_a_closed_pipe_exits_1_without_a_traceback(self, unbuffered):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = run_module(["reducts", "--help"], stdout=write, PYTHONUNBUFFERED=unbuffered)
        finally:
            os.close(write)
        assert proc.returncode == 1
        assert proc.stderr == self._write_error(errno.EPIPE)

    # The exit codes the CLI documents for each error the package raises.
    DOCUMENTED = {"ParameterError": 1, "DomainError": 1, "ParseError": 2, "SchemaError": 2,
                  "MissingValueError": 2, "CapacityError": 3, "SelfCheckError": 70}

    def test_every_package_error_exits_with_its_documented_code(self, capsys, monkeypatch,
                                                                 fixa_path):
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        errors = list(subclasses(EngineError))
        assert sorted(e.__name__ for e in errors) == sorted(self.DOCUMENTED)
        for error in errors:
            assert error in cli._EXIT_CODES

            def failing(args, error=error):
                raise error(f"{error.__name__} raised")

            monkeypatch.setattr(cli, "_execute", failing)
            status = run(["core", "--input", fixa_path, "--decision", "d"])
            captured = capsys.readouterr()
            assert status == self.DOCUMENTED[error.__name__], error
            assert captured.out == ""
            assert captured.err == f"dynred: {error.__name__} raised\n"

    def test_help_exits_0(self, capsys):
        assert run(["--help"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: dynred ")
        assert captured.err == ""

    def test_ragged_rows_parse_error(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,d\n0,1\n")
        status, out = run_json(capsys, ["reducts", "--input", str(p), "--decision", "d"])
        assert status == 2
        assert out == ""

    def test_missing_decision_schema_error(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(FIX_B_CSV)
        status, _ = run_json(capsys, ["reducts", "--input", str(p), "--decision", "zz"])
        assert status == 2

    def test_empty_cell_error(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,d\n0,,1\n")
        status, _ = run_json(capsys, ["reducts", "--input", str(p), "--decision", "d"])
        assert status == 2

    def test_capacity_exit(self, capsys, tmp_path):
        n = 25
        header = ",".join([f"c{i}" for i in range(n)] + ["d"])
        row = ",".join(["0"] * n + ["0"])
        p = tmp_path / "wide.csv"
        p.write_text(header + "\n" + row + "\n")
        status, out = run_json(capsys, ["reducts", "--input", str(p), "--decision", "d"])
        assert status == 3
        assert out == ""

    def test_reduct_cap_exit(self, capsys, tmp_path):
        # 2**20 reducts under the default cap of 100000.
        p = tmp_path / "matching.csv"
        p.write_text(matching_csv(20))
        status = run(["reducts", "--input", str(p), "--decision", "d", "--max-attrs", "40"])
        captured = capsys.readouterr()
        assert status == 3
        assert captured.out == ""
        assert captured.err.startswith("dynred: ")
        assert "max_reducts = 100000" in captured.err

    @pytest.mark.parametrize("command", ["dynamic", "verify"])
    def test_oversized_family_exits_3_before_drawing(self, capsys, monkeypatch, fixa_path,
                                                    command):
        import dynred.table

        def draw(*args):
            raise AssertionError("a refused family must not be drawn")

        monkeypatch.setattr(dynred.table, "_draw_indices", draw)
        status = run([command, "--input", fixa_path, "--decision", "d", "--fractions", "1,0.5",
                      "--samples", "100000000000000000000", "--lambda", "1"])
        captured = capsys.readouterr()
        assert status == 3
        assert captured.out == ""
        assert captured.err == (
            "dynred: the family would hold 500000000000000000000 member rows, more than "
            "MAX_FAMILY_ROWS = 7000000; draw fewer or smaller samples\n"
        )

    @pytest.mark.parametrize("command", ["dynamic", "verify"])
    def test_too_many_members_exits_3_before_drawing(self, capsys, monkeypatch, fixa_path,
                                                     command):
        import dynred.table

        def draw(*args):
            raise AssertionError("a refused family must not be drawn")

        # 1-row members: within the row limit, past the member limit.
        monkeypatch.setattr(dynred.table, "_draw_indices", draw)
        status = run([command, "--input", fixa_path, "--decision", "d", "--fractions", "0.01",
                      "--samples", "860001", "--lambda", "1"])
        captured = capsys.readouterr()
        assert status == 3
        assert captured.out == ""
        assert captured.err == (
            "dynred: the family would have 860001 members, more than "
            "MAX_FAMILY_MEMBERS = 860000; draw fewer samples\n"
        )

    def test_out_of_memory_exits_3(self, capsys, monkeypatch, fixa_path):
        # A family within the row limit, or the table itself, can still run
        # out of memory; that is a capacity exit too.
        def exhausted(system, plan):
            raise MemoryError

        monkeypatch.setattr(cli, "sample_family", exhausted)
        status = run(["dynamic", "--input", fixa_path, "--decision", "d",
                      "--fractions", "1", "--samples", "100000000", "--lambda", "1"])
        captured = capsys.readouterr()
        assert status == 3
        assert captured.out == ""
        assert captured.err == "dynred: out of memory: the table or the family is too large\n"

    def test_max_attrs_override_admits_wide_table(self, capsys, tmp_path):
        n = 25
        header = ",".join([f"c{i}" for i in range(n)] + ["d"])
        row = ",".join(["0"] * n + ["0"])
        p = tmp_path / "wide.csv"
        p.write_text(header + "\n" + row + "\n")
        status, out = run_json(
            capsys,
            ["reducts", "--input", str(p), "--decision", "d", "--max-attrs", "26"],
        )
        assert status == 0
        assert json.loads(out)["static"]["reducts"] == [[]]

    def test_byte_order_mark_is_not_part_of_the_header(self, capsys, tmp_path):
        p = tmp_path / "bom.csv"
        # FIX-A with the decision moved to the first column, behind the mark.
        p.write_bytes(b"\xef\xbb\xbfd,a,b,c\n0,0,0,0\n1,1,0,0\n1,0,1,1\n")
        status, out = run_json(capsys, ["reducts", "--input", str(p), "--decision", "d"])
        assert status == 0
        report = json.loads(out)
        assert report["input"]["attributes"] == ["a", "b", "c"]
        assert report["static"]["reducts"] == [["a", "b"], ["a", "c"]]

    def test_invalid_utf8_parse_error(self, capsys, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"a,d\n\xff,0\n")
        status = run(["reducts", "--input", str(p), "--decision", "d"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.startswith("dynred: ")

    def test_oversized_field_parse_error(self, capsys, tmp_path):
        p = tmp_path / "huge.csv"
        p.write_text("a,d\n" + "x" * 140_000 + ",0\n")
        status = run(["reducts", "--input", str(p), "--decision", "d"])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.out == ""
        assert captured.err.startswith("dynred: ")

    @pytest.mark.parametrize("flag,value", [("--max-attrs", "-1"), ("--max-reducts", "0")])
    def test_cap_below_minimum_usage_error(self, capsys, fixa_path, flag, value):
        status, out = run_json(
            capsys, ["reducts", "--input", fixa_path, "--decision", "d", flag, value]
        )
        assert status == 1
        assert out == ""

    @pytest.mark.parametrize("flag,value,expected", [("--max-attrs", "0", 3),
                                                     ("--max-reducts", "1", 3)])
    def test_cap_minimum_accepted(self, capsys, fixa_path, flag, value, expected):
        status, _ = run_json(
            capsys, ["reducts", "--input", fixa_path, "--decision", "d", flag, value]
        )
        assert status == expected

    def test_verify_failure_exits_4(self, capsys, tmp_path, monkeypatch):
        # The laws hold on real data, so force a failing check to cover the
        # path, with a witness shaped like the verifier's own. The report
        # bytes are pinned; the relative --input keeps input.path stable.
        import dynred.dynamic
        from dynred import TheoremCheck

        # The engine reads FIX-A in name order, so its indices are those of that copy.
        attrs = name_ordered(parse_decision_table(FIX_A_CSV, "d"))[0].cond_attrs

        def failing(report):
            a, c = map(attrs.index, "ac")
            witness = {"attribute": a, "subset": sorted([a, c]), "superset": [c],
                       "lambda_low": "3/4"}
            return (TheoremCheck("T1", "fail", "forced", witness),)

        monkeypatch.setattr(dynred.dynamic, "verify_theorems", failing)
        (tmp_path / "fixa.csv").write_text(FIX_A_CSV)
        monkeypatch.chdir(tmp_path)
        argv = ["verify", "--input", "fixa.csv", "--decision", "d",
                "--fractions", "0.5", "--lambda", "0.75"]
        status, out = run_json(capsys, argv)
        assert status == 4
        check = json.loads(out)["verification"][0]
        assert check["status"] == "fail"
        assert check["witness"] == {"attribute": "a", "subset": ["a", "c"],
                                    "superset": ["c"], "lambda_low": "3/4"}
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "6c6e60000839d24f4dae04c3e5807c8acc61ade016e8e107e8cff8c2013321eb"
        )

    @pytest.mark.parametrize("flag", ["--lambda", "--fractions"])
    def test_huge_exponent_usage_error(self, fixa_path, flag):
        # Expanding 10**99999999 would hang, so the exponent is refused first;
        # the subprocess timeout turns a regression into a failure.
        values = {"--lambda": "0.75", "--fractions": "0.5", flag: "1e-99999999"}
        argv = ["dynamic", "--input", fixa_path, "--decision", "d"]
        for name, value in values.items():
            argv += [name, value]
        proc = run_module(argv, timeout=10)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("dynred: ")
        assert "exponent" in proc.stderr


class TestEachIntermediateOnce:
    """``--exact`` runs the oracle once per distinct table and ``verify`` builds one report.

    Seed 5 draws the FIX-A rows (1, 2), (0, 2), (0, 1), (0, 2) and four
    full-table members: eight members, four distinct tables, and member 1
    repeated at 3.
    """

    ARGS = ["--decision", "d", "--fractions", "0.6,1", "--samples", "4", "--seed", "5",
            "--lambda", "0.75"]

    @pytest.fixture
    def family(self):
        import dynred

        system = dynred.parse_decision_table(FIX_A_CSV, "d")
        plan = dynred.SamplingPlan(seed=5, fractions=("0.6", "1"), samples_per_fraction=4)
        return dynred.sample_family(system, plan).members

    @staticmethod
    def _counting(monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("command", ["dynamic", "verify"])
    def test_oracle_runs_once_per_distinct_table(self, capsys, monkeypatch, fixa_path,
                                                 family, command):
        import dynred.oracle

        calls = self._counting(monkeypatch, dynred.oracle, "brute_force_reducts")
        status, _ = run_json(capsys, [command, "--input", fixa_path, "--exact", *self.ARGS])
        assert status == 0
        distinct = {m.object_indices for m in family} | {(0, 1, 2)}
        assert len(family) == 8 and len(distinct) == 4
        assert len(calls) == len(distinct)

    @pytest.mark.parametrize("command", ["dynamic", "verify"])
    def test_one_slice_per_run(self, capsys, monkeypatch, fixa_path, command):
        import dynred.dynamic

        calls = self._counting(monkeypatch, dynred.dynamic, "stability_report")
        status, out = run_json(capsys, [command, "--input", fixa_path, *self.ARGS])
        assert status == 0 and out
        assert len(calls) == 1

    def test_dropped_reduct_of_a_repeated_member_exits_70(self, capsys, monkeypatch,
                                                          fixa_path, family):
        import dynred.dynamic
        from dynred.rough import class_table

        rows = [m.object_indices for m in family]
        first = next(i for i, r in enumerate(rows) if r in rows[i + 1:] and len(r) < 3)
        assert first == 1
        # The search call inside analyze_family sees a class table; FIX-A's
        # rows are distinct, so the member's labels name its rows.
        system, _ = name_ordered(parse_decision_table(FIX_A_CSV, "d"))
        target = class_table(make_subsystem(system, rows[first])).labels
        original = dynred.dynamic._reducts

        def dropping(classes, *caps):
            masks, core = original(classes, *caps)
            return (masks[1:] if classes.labels == target else masks), core

        monkeypatch.setattr(dynred.dynamic, "_reducts", dropping)
        status = run(["dynamic", "--input", fixa_path, "--exact", *self.ARGS])
        out, err = capsys.readouterr()
        assert status == 70
        assert out == ""
        assert err == (
            f"dynred: family member {first}: engine reducts disagree with the exhaustive oracle\n"
        )

    def test_wrong_core_exits_70(self, capsys, monkeypatch, fixa_path):
        import dynred.cli

        monkeypatch.setattr(dynred.cli, "core_of", lambda table: frozenset())
        status = run(["core", "--input", fixa_path, "--decision", "d", "--exact"])
        out, err = capsys.readouterr()
        assert status == 70
        assert out == ""
        assert err == (
            "dynred: base system: engine core disagrees with the exhaustive oracle\n"
        )


def test_module_entry_point(fixa_path):
    proc = run_module(["reducts", "--input", fixa_path, "--decision", "d"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["static"]["core"] == ["a"]


class TestParserReuse:
    """``run`` builds its parser once per process, and reusing it changes no result.

    Each sequence runs once on the cached parser and once with a fresh
    parser per call (``build_parser.__wrapped__``); every exit code,
    stdout and stderr must agree.
    """

    class ClosedStream(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    @classmethod
    def _run(cls, argv, closed=False):
        out = cls.ClosedStream() if closed else io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = run(argv)
        return status, None if closed else out.getvalue(), err.getvalue()

    def _both(self, monkeypatch, calls):
        cached = [self._run(*call) for call in calls]
        with monkeypatch.context() as mp:
            mp.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
            fresh = [self._run(*call) for call in calls]
        return cached, fresh

    def test_a_sequence_matches_fresh_parsers(self, monkeypatch, fixa_path):
        common = ["--input", fixa_path, "--decision", "d"]
        family = ["--fractions", "0.6,1", "--samples", "4", "--seed", "5", "--lambda", "0.75"]
        calls = [
            (["--help"],),
            (["reducts", "--input", fixa_path],),  # a usage error: --decision is missing
            (["reducts", *common, "--exact"],),
            (["verify", *common, *family],),
            (["reducts", *common],),
            (["core", *common],),
            (["--help"], True),
        ]
        cli.build_parser.cache_clear()
        cached, fresh = self._both(monkeypatch, calls)
        assert cached == fresh
        assert [status for status, _, _ in cached] == [0, 1, 0, 0, 0, 0, 1]
        reducts, plain = json.loads(cached[2][1]), json.loads(cached[4][1])
        assert reducts["params"]["exact"] and not plain["params"]["exact"]
        assert plain["params"]["lambda"] is None

    def test_help_follows_columns_on_each_call(self, monkeypatch):
        calls = [(["--help"],), (["verify", "--help"],)]
        widths = {}
        cli.build_parser.cache_clear()
        for columns in ("40", "200"):  # one cached parser for both widths
            monkeypatch.setenv("COLUMNS", columns)
            cached, fresh = self._both(monkeypatch, calls)
            assert cached == fresh
            widths[columns] = cached
        assert widths["40"] != widths["200"]

    def test_no_parser_is_built_after_the_first_run(self, monkeypatch):
        import argparse

        self._run(["--help"])
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert self._run(["--help"])[0] == 0
        assert self._run(["core", "--help"])[0] == 0
        assert built == []

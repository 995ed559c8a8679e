import csv
import io
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dynred import (
    CapacityError,
    DecisionSystem,
    DiscernibilityMatrix,
    DomainError,
    EngineError,
    MissingValueError,
    ParameterError,
    ParseError,
    Family,
    FamilyAnalysis,
    MemberAnalysis,
    SamplingPlan,
    SchemaError,
    SplitMix64,
    StabilityReport,
    SubSystem,
    TheoremCheck,
    make_subsystem,
    parse_decision_table,
    render_csv,
    sample_family,
)
from dynred.rough import ClassTable
from dynred.table import _draw_indices

from conftest import FIX_A_CSV, random_table_csv


class TestParsing:
    def test_header_order_and_sizes(self):
        s = parse_decision_table("a,b,c,d\n0,0,0,0\n1,0,0,1\n0,1,1,1\n", "d")
        assert s.cond_attrs == ("a", "b", "c")
        assert s.decision_attr == "d"
        assert s.n_objects == 3

    def test_decision_column_anywhere(self):
        s = parse_decision_table("a,d,b\nx,yes,q\nz,no,q\n", "d")
        assert s.cond_attrs == ("a", "b")
        assert s.rows == ((0, 0), (1, 0))
        assert s.decisions == (0, 1)

    def test_single_row(self):
        s = parse_decision_table("a,d\n1,0\n", "d")
        assert s.n_objects == 1

    def test_ragged_row(self):
        with pytest.raises(ParseError):
            parse_decision_table("a,b,c,d\n0,0\n", "d")

    def test_missing_decision_column(self):
        with pytest.raises(SchemaError):
            parse_decision_table("a,b\n0,1\n", "z")

    def test_empty_cell(self):
        with pytest.raises(MissingValueError):
            parse_decision_table("a,b,d\n0,,1\n", "d")

    def test_short_row_names_its_physical_line(self):
        # Blank lines still count as lines of the file.
        with pytest.raises(ParseError, match="row at line 5 has 2 cells"):
            parse_decision_table("a,b,d\n\n0,1,0\n\n0,1\n", "d")

    def test_empty_cell_names_its_physical_line(self):
        # The quoted line break in the first record moves the second to line 4.
        with pytest.raises(MissingValueError, match="column 'b' at line 4$"):
            parse_decision_table('a,b,d\n"x\ny",1,0\n0,,1\n', "d")

    def test_empty_cell_before_a_later_short_row(self):
        with pytest.raises(MissingValueError, match="column 'a' at line 3$"):
            parse_decision_table("a,b,d\n0,1,0\n,1,0\n0,1\n", "d")

    def test_short_row_before_a_later_empty_cell(self):
        with pytest.raises(ParseError, match="row at line 2 has 2 cells, expected 3$"):
            parse_decision_table("a,b,d\n0,1\n,1,0\n", "d")

    def test_wrong_cell_count_before_empty_cells_of_one_row(self):
        with pytest.raises(ParseError, match="row at line 2 has 4 cells, expected 3$"):
            parse_decision_table("a,b,d\n0,,1,\n", "d")

    def test_lowest_of_two_empty_cells_is_named(self):
        with pytest.raises(MissingValueError, match="column 'b' at line 3$"):
            parse_decision_table("a,b,c,d\n0,1,2,0\n0,,,0\n", "d")

    def test_empty_decision_cell(self):
        with pytest.raises(MissingValueError, match="column 'd' at line 2$"):
            parse_decision_table("a,d,b\n0,,1\n", "d")

    def test_duplicate_header_names(self):
        with pytest.raises(SchemaError):
            parse_decision_table("a,a,d\n0,1,0\n", "d")

    def test_no_data_rows(self):
        with pytest.raises(ParseError):
            parse_decision_table("a,b,d\n", "d")

    def test_empty_document(self):
        with pytest.raises(ParseError):
            parse_decision_table("", "d")

    def test_leading_byte_order_mark_dropped(self):
        s = parse_decision_table("\ufeffa,d\n0,1\n", "d")
        assert s.cond_attrs == ("a",)
        assert parse_decision_table("\ufeffd,a\n0,1\n", "d").decision_attr == "d"

    def test_codes_dense_first_occurrence(self):
        s = parse_decision_table("a,d\nx,p\ny,q\nx,p\n", "d")
        assert s.rows == ((0,), (1,), (0,))
        assert s.decisions == (0, 1, 0)
        assert s.dictionaries["a"] == {"x": 0, "y": 1}

    def test_duplicate_rows_retained(self):
        s = parse_decision_table("a,d\n1,1\n1,1\n", "d")
        assert s.n_objects == 2
        assert s.rows[0] == s.rows[1]

    def test_round_trip_fixture(self):
        s = parse_decision_table(FIX_A_CSV, "d")
        assert parse_decision_table(render_csv(s), "d") == s

    @given(st.integers(0, 2 ** 31))
    def test_round_trip_random(self, seed):
        import random

        s = parse_decision_table(random_table_csv(random.Random(seed)), "d")
        assert parse_decision_table(render_csv(s), "d") == s

    @pytest.mark.parametrize("dictionaries, text", [
        ({}, "attribute 'a' has no raw value for code 0"),
        ({"a": {"x": 0}, "d": {"y": 1}}, "attribute 'd' has no raw value for code 0"),
        ({"a": {"x": 1}, "d": {"y": 0}}, "attribute 'a' has no raw value for code 0"),
    ])
    def test_render_names_a_column_its_dictionary_cannot_write(self, dictionaries, text):
        # A directly built system need not carry a dictionary for every code.
        s = DecisionSystem(("a",), "d", ((0,),), (0,), dictionaries)
        with pytest.raises(DomainError) as info:
            render_csv(s)
        assert str(info.value) == text


def _row_wise_parse(text, decision_column):
    """Reference parser: codes the table cell by cell, record by record."""
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff")))
    try:
        records = [(reader.line_num, rec) for rec in reader if rec]
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}") from exc
    if not records:
        raise ParseError("empty document: header row missing")
    header = records[0][1]
    if len(set(header)) != len(header):
        raise SchemaError("duplicate attribute names in header")
    if decision_column not in header:
        raise SchemaError(f"decision column {decision_column!r} not found in header")
    if len(records) == 1:
        raise ParseError("no data rows")
    d_pos = header.index(decision_column)
    dictionaries = {h: {} for h in header}
    rows, decisions = [], []
    for lineno, rec in records[1:]:
        if len(rec) != len(header):
            raise ParseError(f"row at line {lineno} has {len(rec)} cells, expected {len(header)}")
        codes = []
        for attr, raw in zip(header, rec):
            if raw == "":
                raise MissingValueError(f"empty cell in column {attr!r} at line {lineno}")
            table = dictionaries[attr]
            codes.append(table.setdefault(raw, len(table)))
        decisions.append(codes[d_pos])
        rows.append(tuple(c for i, c in enumerate(codes) if i != d_pos))
    cond_attrs = tuple(h for i, h in enumerate(header) if i != d_pos)
    return DecisionSystem(cond_attrs, decision_column, tuple(rows),
                          tuple(decisions), dictionaries)


def _outcome(parse, text, decision_column):
    try:
        s = parse(text, decision_column)
    except EngineError as exc:
        return type(exc), str(exc)
    # Dictionary order is part of the result: codes follow first occurrence.
    return s, [(attr, list(table.items())) for attr, table in s.dictionaries.items()]


_CELLS = st.sampled_from(["x", "y", "0", "1", "a,b", "p\nq", " ", '"', ""])


@st.composite
def _documents(draw):
    """CSV text with ragged rows, empty cells, blank lines, quoted line breaks
    and maybe a byte-order mark, and the decision column to parse it with.
    """
    header = draw(st.lists(st.sampled_from(["a", "b", "d", "p\nq", ""]),
                           min_size=1, max_size=4, unique=True))
    full_rows = st.lists(_CELLS.filter(bool), min_size=len(header), max_size=len(header))
    records = draw(st.lists(st.one_of(
        full_rows,
        full_rows,
        st.lists(st.sampled_from(["", "x", "p\nq"]), min_size=len(header), max_size=len(header)),
        st.lists(_CELLS, max_size=5),
        st.none(),  # a blank line
    ), max_size=8))
    decision_column = draw(st.sampled_from(header + header + ["z"]))
    if draw(st.sampled_from([False] * 9 + [True])):
        header.append(header[0])
    terminator = draw(st.sampled_from(["\n", "\r\n"]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=terminator)
    for rec in [header, *records]:
        if rec is None:
            buf.write(terminator)
        else:
            writer.writerow(rec)
    text = "\ufeff" * draw(st.booleans()) + buf.getvalue()
    return text, decision_column


@given(_documents())
def test_column_coding_matches_the_row_wise_reference(document):
    # The same error type and message, or an equal system with equal,
    # equally ordered dictionaries.
    text, decision_column = document
    expected = _outcome(_row_wise_parse, text, decision_column)
    assert _outcome(parse_decision_table, text, decision_column) == expected


class TestSubsystems:
    def test_basic_construction(self, fix_a):
        b = make_subsystem(fix_a, {1, 0})
        assert b.object_indices == (0, 1)

    def test_deduplicates(self, fix_a):
        assert make_subsystem(fix_a, [2, 2, 0]).object_indices == (0, 2)

    def test_full_cover_is_parent_like(self, fix_a):
        b = make_subsystem(fix_a, {0, 1, 2})
        assert b.covers_parent()

    def test_empty_indices_rejected(self, fix_a):
        # SubSystem makes the one empty-set check, with its own text.
        with pytest.raises(DomainError, match="^a sub-system needs a non-empty object set$"):
            make_subsystem(fix_a, set())

    def test_out_of_range_rejected(self, fix_a):
        with pytest.raises(DomainError):
            make_subsystem(fix_a, {0, 7})


class TestTableInterface:
    # A system is the table of all its rows and its own parent.
    def test_system_keeps_every_row(self, fix_a):
        assert fix_a.object_indices == tuple(range(fix_a.n_objects))
        assert fix_a.parent is fix_a

    def test_row_set_is_no_part_of_equality_or_repr(self):
        text = "a,b,d\n0,1,0\n1,1,1\n"
        s = parse_decision_table(text, "d")
        assert s == parse_decision_table(text, "d")
        assert s == DecisionSystem(cond_attrs=s.cond_attrs, decision_attr="d",
                                   rows=s.rows, decisions=s.decisions,
                                   dictionaries=s.dictionaries)
        assert repr(s) == (
            "DecisionSystem(cond_attrs=('a', 'b'), decision_attr='d', "
            "rows=((0, 0), (1, 0)), decisions=(0, 1), "
            "dictionaries={'a': {'0': 0, '1': 1}, 'b': {'1': 0}, 'd': {'0': 0, '1': 1}})"
        )

    def test_full_subsystem_keeps_the_systems_rows(self, fix_a):
        full = SubSystem(fix_a, fix_a.object_indices)
        assert full.object_indices == fix_a.object_indices
        assert full.parent is fix_a


class TestConstructorChecks:
    # Library callers build systems, sub-systems and families directly, past
    # the parser's checks; each malformed one is refused with its own message.
    SYSTEM = dict(cond_attrs=("a", "b"), decision_attr="d",
                  rows=((0, 0), (1, 1)), decisions=(0, 1), dictionaries={})

    @pytest.mark.parametrize("fields, error, text", [
        (dict(rows=(), decisions=()), DomainError, "a decision system needs at least one object"),
        (dict(decisions=(0,)), DomainError, "rows and decisions differ in length"),
        (dict(rows=((0, 0), (1,))), DomainError,
         "every row needs one code per condition attribute"),
        (dict(cond_attrs=("a", "d")), SchemaError, "attribute names must be unique"),
    ], ids=["no-rows", "short-decisions", "short-row", "duplicate-name"])
    def test_malformed_system(self, fields, error, text):
        with pytest.raises(error) as exc:
            DecisionSystem(**{**self.SYSTEM, **fields})
        assert str(exc.value) == text

    @pytest.mark.parametrize("indices, text", [
        ((), "a sub-system needs a non-empty object set"),
        ((1, 0), "object indices must be strictly increasing"),
        ((1, 1), "object indices must be strictly increasing"),
    ], ids=["empty", "decreasing", "repeated"])
    def test_malformed_subsystem(self, fix_a, indices, text):
        with pytest.raises(DomainError) as exc:
            SubSystem(fix_a, indices)
        assert str(exc.value) == text

    def test_empty_family(self):
        with pytest.raises(DomainError) as exc:
            Family(())
        assert str(exc.value) == "a family needs at least one member"

    @pytest.mark.parametrize("n", [0, -1])
    def test_bounded_draw_needs_a_positive_bound(self, n):
        with pytest.raises(ParameterError) as exc:
            SplitMix64(5).below(n)
        assert str(exc.value) == "bounded draw needs n >= 1"


_SYSTEM = parse_decision_table("a,b,d\n0,1,0\n1,1,1\n", "d")
_SUB = SubSystem(_SYSTEM, (0,))

# Valid fields of each of the package's ten records, in declaration order.
RECORD_FIELDS = [
    (DecisionSystem, dict(cond_attrs=("a", "b"), decision_attr="d",
                          rows=((0, 0), (1, 0)), decisions=(0, 1), dictionaries={})),
    (SubSystem, dict(parent=_SYSTEM, object_indices=(0, 1))),
    (SamplingPlan, dict(seed=7, fractions=(Fraction(1, 2), Fraction(1)), samples_per_fraction=2)),
    (Family, dict(members=(_SUB, _SUB))),
    (ClassTable, dict(labels={0: 0, 1: 1}, n_attrs=2, planes=1)),
    (MemberAnalysis, dict(reducts=(1,), core=1)),
    (FamilyAnalysis, dict(family=Family((_SUB,)), red_s=(1,), core_s=1,
                          per_member=(MemberAnalysis((1,), 1),))),
    (StabilityReport, dict(family_size=1, covering=0, core_s=1, literal_dcore=1,
                           attr_core_support={0: 1, 1: 0}, reduct_support=((1, 1),),
                           lam=Fraction(3, 4), dr=(1,), dr_lambda=(1,), gdr=(1,),
                           gdr_lambda=(1,), dcore=1, dcore_lambda=1, gdcore=1,
                           gdcore_lambda=1)),
    (TheoremCheck, dict(check="T1", status="pass", detail="x", witness={"attribute": 0})),
    (DiscernibilityMatrix, dict(cells=(((0, 1), frozenset({0})),))),
]
_RECORD_IDS = [cls.__name__ for cls, _ in RECORD_FIELDS]


@pytest.mark.parametrize("cls, fields", RECORD_FIELDS, ids=_RECORD_IDS)
class TestRecordContract:
    # Every record is frozen, built by position or by name, and compared,
    # hashed and printed by its fields in declaration order.
    def test_position_and_name_build_equal_records(self, cls, fields):
        by_name = cls(**fields)
        assert cls._fields == tuple(fields)
        assert cls(*fields.values()) == by_name
        assert by_name._replace() == by_name and by_name._replace() is not by_name
        assert repr(by_name) == (
            f"{cls.__name__}(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")"
        )

    def test_assignment_and_deletion_raise(self, cls, fields):
        record = cls(**fields)
        name, value = next(iter(fields.items()))
        for attr in (name, "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(record, attr, value)
            with pytest.raises(AttributeError):
                delattr(record, attr)
        assert getattr(record, name) is value
        assert not hasattr(record, "not_a_field")

    def test_missing_unknown_or_duplicated_field_raises(self, cls, fields):
        first, *rest = fields
        values = list(fields.values())
        for args, kwargs in [
            ((), {k: fields[k] for k in rest}),
            ((), {**fields, "not_a_field": 1}),
            ((values[0],), fields),
            ((*values, None), {}),
        ]:
            with pytest.raises(TypeError):
                cls(*args, **kwargs)
        with pytest.raises(TypeError):
            cls(**fields)._replace(not_a_field=1)

    def test_records_of_different_types_never_compare_equal(self, cls, fields):
        record = cls(**fields)
        assert record != tuple(fields.values())
        for other, other_fields in RECORD_FIELDS:
            if other is not cls:
                assert record != other(**other_fields)
                assert not record == other(**other_fields)


class TestRecordChecks:
    def test_equal_plans_hash_equal(self):
        plan = SamplingPlan(7, ("1/2", 1), 2)
        same = SamplingPlan(seed=7, fractions=(Fraction(1, 2), Fraction(1)), samples_per_fraction=2)
        assert plan == same and hash(plan) == hash(same)
        assert len({plan, same, plan._replace(seed=8)}) == 2

    def test_witness_defaults_to_none(self):
        assert TheoremCheck("T1", "pass", "x").witness is None
        assert TheoremCheck("T1", "pass", "x") == TheoremCheck("T1", "pass", "x", None)

    def test_replace_runs_the_checks_again(self):
        with pytest.raises(DomainError):
            _SYSTEM._replace(rows=())
        with pytest.raises(ParameterError):
            SamplingPlan(7, (1,), 2)._replace(samples_per_fraction=0)
        assert _SYSTEM._replace(decision_attr="u").object_indices == (0, 1)


class TestSplitMix64:
    # Reference outputs of the splitmix64 mixer for seeds 0 and 1234567.
    def test_reference_vectors_seed0(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_reference_vectors_seed1234567(self):
        rng = SplitMix64(1234567)
        assert [rng.next_u64() for _ in range(3)] == [
            0x599ED017FB08FC85,
            0x2C73F08458540FA5,
            0x883EBCE5A3F27C77,
        ]

    def test_below_one_is_zero(self):
        assert SplitMix64(5).below(1) == 0

    @given(st.integers(0, 2 ** 64 - 1), st.integers(1, 1000))
    def test_below_in_range(self, seed, n):
        assert 0 <= SplitMix64(seed).below(n) < n

    def test_draw_indices_sorted_unique(self):
        rng = SplitMix64(42)
        for _ in range(50):
            out = _draw_indices(rng, 10, 4)
            assert list(out) == sorted(set(out))
            assert len(out) == 4


class TestSampling:
    def test_member_sizes(self):
        s = parse_decision_table(
            "a,d\n" + "".join(f"{i},{i % 2}\n" for i in range(10)), "d"
        )
        fam = sample_family(s, SamplingPlan(seed=42, fractions=(Fraction(1, 2),),
                                            samples_per_fraction=3))
        assert len(fam) == 3
        assert all(m.n_objects == 5 for m in fam.members)

    def test_full_fraction_covers(self):
        s = parse_decision_table(
            "a,d\n" + "".join(f"{i},{i % 2}\n" for i in range(10)), "d"
        )
        fam = sample_family(s, SamplingPlan(seed=0, fractions=(Fraction(1),),
                                            samples_per_fraction=1))
        assert fam.members[0].covers_parent()

    def test_deterministic(self, fix_a):
        plan = SamplingPlan(seed=7, fractions=(Fraction(1, 2),), samples_per_fraction=2)
        assert sample_family(fix_a, plan) == sample_family(fix_a, plan)

    def test_ceil_is_exact(self):
        s = parse_decision_table(
            "a,d\n" + "".join(f"{i},{i % 2}\n" for i in range(10)), "d"
        )
        plan = SamplingPlan(seed=1, fractions=(Fraction(1, 3),), samples_per_fraction=1)
        assert sample_family(s, plan).members[0].n_objects == 4  # ceil(10/3)

    def test_member_order_by_fraction_then_sample(self):
        s = parse_decision_table(
            "a,d\n" + "".join(f"{i},{i % 2}\n" for i in range(10)), "d"
        )
        plan = SamplingPlan(seed=3, fractions=(Fraction(1, 5), Fraction(1)),
                            samples_per_fraction=2)
        sizes = [m.n_objects for m in sample_family(s, plan).members]
        assert sizes == [2, 2, 10, 10]

    @pytest.mark.parametrize("bad", [Fraction(0), Fraction(-1, 2), Fraction(6, 5)])
    def test_fraction_out_of_range(self, bad):
        with pytest.raises(ParameterError):
            SamplingPlan(seed=0, fractions=(bad,), samples_per_fraction=1)

    def test_zero_samples_rejected(self):
        with pytest.raises(ParameterError):
            SamplingPlan(seed=0, fractions=(Fraction(1, 2),), samples_per_fraction=0)

    def test_no_fractions_rejected(self):
        with pytest.raises(ParameterError):
            SamplingPlan(seed=0, fractions=(), samples_per_fraction=1)

    def test_seed_must_fit_64_bits(self):
        with pytest.raises(ParameterError):
            SamplingPlan(seed=-1, fractions=(Fraction(1, 2),), samples_per_fraction=1)
        with pytest.raises(ParameterError):
            SamplingPlan(seed=1 << 64, fractions=(Fraction(1, 2),), samples_per_fraction=1)

    def test_plan_normalizes_fraction_strings(self):
        plan = SamplingPlan(seed=0, fractions=("0.5", "0.67"), samples_per_fraction=1)
        assert plan.fractions == (Fraction(1, 2), Fraction(67, 100))

    @given(st.integers(0, 2 ** 32), st.integers(1, 12), st.fractions(min_value="1/100", max_value=1))
    def test_sampled_size_matches_ceiling(self, seed, n, f):
        s = parse_decision_table(
            "a,d\n" + "".join(f"{i},{i % 2}\n" for i in range(n)), "d"
        )
        plan = SamplingPlan(seed=seed, fractions=(f,), samples_per_fraction=1)
        member = sample_family(s, plan).members[0]
        expected = -((-f.numerator * n) // f.denominator)
        assert member.n_objects == expected >= 1

    def test_family_past_the_row_limit_is_refused_before_drawing(self, fix_a, monkeypatch):
        import dynred.table

        def draw(*args):
            raise AssertionError("a refused family must not be drawn")

        monkeypatch.setattr(dynred.table, "_draw_indices", draw)
        plan = SamplingPlan(seed=0, fractions=(Fraction(1),), samples_per_fraction=10 ** 20)
        with pytest.raises(CapacityError, match="MAX_FAMILY_ROWS = 7000000;"):
            sample_family(fix_a, plan)

    def test_row_limit_counts_every_member_row(self, monkeypatch):
        import dynred.table

        # 10 rows at fractions 1/3 and 1: members of 4 and 10 rows.
        s = parse_decision_table("a,d\n" + "".join(f"{i},{i % 2}\n" for i in range(10)), "d")
        plan = SamplingPlan(seed=0, fractions=(Fraction(1, 3), Fraction(1)),
                            samples_per_fraction=3)
        monkeypatch.setattr(dynred.table, "MAX_FAMILY_ROWS", 42)
        assert [m.n_objects for m in sample_family(s, plan).members] == [4] * 3 + [10] * 3
        monkeypatch.setattr(dynred.table, "MAX_FAMILY_ROWS", 41)
        with pytest.raises(CapacityError) as exc:
            sample_family(s, plan)
        assert str(exc.value) == (
            "the family would hold 42 member rows, more than MAX_FAMILY_ROWS = 41; "
            "draw fewer or smaller samples"
        )

    def test_family_past_the_member_limit_is_refused_before_drawing(self, fix_a, monkeypatch):
        import dynred.table

        def draw(*args):
            raise AssertionError("a refused family must not be drawn")

        # 1-row members: 860,001 rows pass the row limit, the members do not.
        monkeypatch.setattr(dynred.table, "_draw_indices", draw)
        plan = SamplingPlan(seed=0, fractions=(Fraction(1, 100),), samples_per_fraction=860_001)
        with pytest.raises(CapacityError) as exc:
            sample_family(fix_a, plan)
        assert str(exc.value) == (
            "the family would have 860001 members, more than "
            "MAX_FAMILY_MEMBERS = 860000; draw fewer samples"
        )

    def test_member_limit_counts_every_member(self, monkeypatch):
        import dynred.table

        # Two fractions with 3 samples each: 6 members.
        s = parse_decision_table("a,d\n" + "".join(f"{i},{i % 2}\n" for i in range(10)), "d")
        plan = SamplingPlan(seed=0, fractions=(Fraction(1, 3), Fraction(1)),
                            samples_per_fraction=3)
        monkeypatch.setattr(dynred.table, "MAX_FAMILY_MEMBERS", 6)
        assert len(sample_family(s, plan)) == 6
        monkeypatch.setattr(dynred.table, "MAX_FAMILY_MEMBERS", 5)
        with pytest.raises(CapacityError) as exc:
            sample_family(s, plan)
        assert str(exc.value) == (
            "the family would have 6 members, more than MAX_FAMILY_MEMBERS = 5; "
            "draw fewer samples"
        )

    def test_mixed_parent_family_rejected(self, fix_a, fix_b):
        with pytest.raises(DomainError):
            Family((make_subsystem(fix_a, {0}), make_subsystem(fix_b, {0})))

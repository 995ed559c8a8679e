import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from dynred import (
    CapacityError,
    DecisionSystem,
    absorb,
    all_reducts,
    brute_force_core,
    brute_force_reducts,
    core_of,
    discernibility_function,
    discernibility_matrix,
    generalized_decision,
    intersect_all,
    is_antichain,
    is_reduct,
    make_subsystem,
    parse_decision_table,
    positive_region,
)
from dynred import reducts as reducts_module
from dynred.reducts import attr_mask, mask_indices, table_reducts
from dynred.rough import ClassTable, class_table, family_classes, pair_masks, preserves

from conftest import cycle_csv, idx, matching_csv, random_system, reduct_names


def _reduct_masks(table, **caps):
    """The table's reducts as a list of masks in ascending order (``table_reducts``)."""
    return list(table_reducts(table, **caps)[0])


class TestFixtureValues:
    def test_fix_a(self, fix_a):
        assert reduct_names(fix_a, all_reducts(fix_a)) == [["a", "b"], ["a", "c"]]
        assert core_of(fix_a) == idx(fix_a, "a")

    def test_fix_b(self, fix_b):
        assert reduct_names(fix_b, all_reducts(fix_b)) == [["b"]]
        assert core_of(fix_b) == idx(fix_b, "b")

    def test_fix_c_empty_reduct(self, fix_c):
        assert all_reducts(fix_c) == (frozenset(),)
        assert core_of(fix_c) == frozenset()

    def test_fix_a_function_clauses(self, fix_a):
        # (a) and (b or c); the three-attribute cell is absorbed away.
        assert reducts_module._minimal_masks(pair_masks(class_table(fix_a))) == [0b001, 0b110]
        assert discernibility_function(fix_a) == (idx(fix_a, "a"), idx(fix_a, "bc"))


class TestAbsorption:
    def test_drops_supersets(self):
        clauses = [frozenset({0}), frozenset({0, 1}), frozenset({1, 2})]
        assert absorb(clauses) == (frozenset({0}), frozenset({1, 2}))

    def test_deduplicates(self):
        assert absorb([frozenset({1}), frozenset({1})]) == (frozenset({1}),)

    @given(st.lists(st.frozensets(st.integers(0, 7), min_size=1), max_size=12))
    def test_idempotent_and_antichain(self, clauses):
        once = absorb(clauses)
        assert absorb(once) == once
        assert is_antichain(once)


class TestCanonicalOrder:
    def test_lexicographic_by_index_sequence(self):
        # Clauses (a|b) and (b|c): reducts {b} = 0b010 and {a, c} = 0b101. The
        # frozenset view orders them by index list, not by mask.
        s = parse_decision_table("a,b,c,d\n0,0,0,0\n1,1,0,1\n0,1,1,1\n", "d")
        assert _reduct_masks(s) == [0b010, 0b101]
        assert all_reducts(s) == (frozenset({0, 2}), frozenset({1}))

    def test_mask_indices_lists_set_bits_in_ascending_order(self):
        assert mask_indices(0) == []
        assert mask_indices(1) == [0]
        assert mask_indices(1 << 70_000) == [70_000]
        rng = random.Random(16)
        for _ in range(4):
            # Dense, then sparser: each AND roughly halves the set bits.
            mask = rng.getrandbits(1 << 16)
            for _ in range(rng.randint(0, 6)):
                mask &= rng.getrandbits(1 << 16)
            bits = mask_indices(mask)
            assert bits == [i for i in range(1 << 16) if mask >> i & 1]
            assert attr_mask(bits) == mask

    def test_intersect_all_empty_collection_is_full_set(self):
        assert intersect_all([], 3) == 0b111

    def test_intersect_all_over_empty_reduct(self):
        assert intersect_all([0], 3) == 0


class TestCapacityLimits:
    def test_attr_limit_names_the_limit(self):
        n = 25
        header = ",".join([f"c{i}" for i in range(n)] + ["d"])
        row = ",".join(["0"] * n + ["0"])
        s = parse_decision_table(f"{header}\n{row}\n", "d")
        with pytest.raises(CapacityError, match="24"):
            all_reducts(s)
        all_reducts(s, max_attrs=30)  # raised limit admits the same table

    def test_reduct_count_cap(self):
        # Three disjoint two-attribute cells: 2**3 = 8 reducts.
        text = (
            "p,q,r,s,t,u,d\n"
            "0,0,0,0,0,0,0\n"
            "1,1,0,0,0,0,1\n"
            "0,0,1,1,0,0,2\n"
            "0,0,0,0,1,1,3\n"
        )
        s = parse_decision_table(text, "d")
        assert len(all_reducts(s)) == 8
        with pytest.raises(CapacityError, match="5"):
            all_reducts(s, max_reducts=5)

    def test_cap_counts_reducts_not_implicants(self):
        # Clauses (p|s), (q|r), (r|s), sorted in that order: the first two
        # alone have four minimal hitting sets, all three only three.
        s = parse_decision_table("p,q,r,s,d\n0,0,0,0,0\n1,0,0,1,1\n0,1,1,0,1\n0,0,1,1,1\n", "d")
        reducts = all_reducts(s, max_reducts=3)
        assert reduct_names(s, reducts) == [["p", "r"], ["q", "s"], ["r", "s"]]
        with pytest.raises(CapacityError, match="max_reducts = 2"):
            all_reducts(s, max_reducts=2)


    def test_cap_is_exact_with_twins(self):
        # Clauses (p|s), (q|r), (r|s) with P a copy of p and R a copy of r:
        # quotient reducts {p, r}, {q, s}, {r, s} expand to 4 + 1 + 2.
        s = parse_decision_table(
            "p,q,r,s,P,R,d\n0,0,0,0,0,0,0\n1,0,0,1,1,0,1\n0,1,1,0,0,1,1\n0,0,1,1,0,1,1\n", "d"
        )
        assert reduct_names(s, all_reducts(s, max_reducts=7)) == [
            ["P", "R"], ["P", "r"], ["R", "p"], ["R", "s"], ["p", "r"], ["q", "s"], ["r", "s"]
        ]
        for cap in range(1, 7):
            with pytest.raises(CapacityError, match=f"max_reducts = {cap} reducts"):
                _reduct_masks(s, max_reducts=cap)

    def test_product_of_twins_stops_at_the_cap(self):
        # 20 triples of identical columns: 3**20 reducts from one quotient
        # reduct. The cap is checked before each expansion step, so the child
        # stops in under 1 GiB of address space; the timeout catches a hang.
        k = 20
        rows = ["0" * (3 * k) + "0"]
        rows += ["000" * i + "111" + "000" * (k - 1 - i) + "1" for i in range(k)]
        header = ",".join([f"c{a}" for a in range(3 * k)] + ["d"])
        text = "".join(line + "\n" for line in [header] + [",".join(r) for r in rows])
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "import dynred\n"
            "s = dynred.parse_decision_table(sys.stdin.read(), 'd')\n"
            "try:\n"
            "    dynred.all_reducts(s, max_attrs=60)\n"
            "except dynred.CapacityError as exc:\n"
            "    print(exc)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src) + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", code], input=text, capture_output=True,
                              text=True, env=env, timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "more than max_reducts = 100000 reducts "
            "(20 absorbed clauses, |C| = 60); raise the cap\n"
        )


class TestOracleEquivalence:
    def test_random_instances_match_oracle(self):
        rng = random.Random(0xD15C)
        for _ in range(80):
            s = random_system(rng)
            assert all_reducts(s) == brute_force_reducts(s)
            assert core_of(s) == brute_force_core(s)

    def test_core_equals_reduct_intersection(self):
        rng = random.Random(0xC0DE)
        for _ in range(40):
            s = random_system(rng)
            reducts = all_reducts(s)
            assert core_of(s) == frozenset.intersection(*reducts)

    @given(st.integers(0, 10 ** 6))
    def test_every_reduct_satisfies_the_predicate(self, seed):
        s = random_system(random.Random(seed), max_objects=8, max_attrs=5)
        reducts = all_reducts(s)
        assert is_antichain(reducts)
        assert all(is_reduct(s, r) for r in reducts)


def _coded_table(rng, n_rows, n_attrs, *, d_arity=2, conflicts=0, wide_rows=0, arities=None):
    """Random table with arity 1..3 conditions, or the given ``arities``.

    ``conflicts`` extra rows copy an earlier row's conditions with a fresh
    decision, which makes boundary (inconsistent) classes likely. With
    ``wide_rows`` the first column takes that many distinct values.
    """
    if arities is None:
        arities = [rng.randint(1, 3) for _ in range(n_attrs)]
    rows = [
        [rng.randrange(a) for a in arities] + [rng.randrange(d_arity)]
        for _ in range(max(n_rows, wide_rows))
    ]
    if wide_rows:
        for code, row in zip(rng.sample(range(wide_rows), wide_rows), rows):
            row[0] = code
    for _ in range(conflicts):
        rows.append(rng.choice(rows)[:-1] + [rng.randrange(d_arity)])
    header = ",".join([f"c{i}" for i in range(n_attrs)] + ["d"])
    body = "".join(",".join(map(str, row)) + "\n" for row in rows)
    return parse_decision_table(header + "\n" + body, "d")


def _with_twins(rng, system):
    """The table with some columns copied and every column's codes relabelled.

    A copy lies in exactly the clauses of its source, so it is the source's
    twin; relabelling keeps the partitions and changes every code string.
    """
    cols = list(range(system.n_attrs))
    cols += [rng.randrange(system.n_attrs) for _ in range(rng.randint(1, 3))]
    rng.shuffle(cols)
    labels = [rng.sample("abcdefgh", 8) for _ in cols]
    header = ",".join([f"k{j}" for j in range(len(cols))] + ["d"])
    body = "".join(
        ",".join([labels[j][row[c]] for j, c in enumerate(cols)] + [str(d)]) + "\n"
        for row, d in zip(system.rows, system.decisions)
    )
    return parse_decision_table(header + "\n" + body, "d")


def _attrs(mask):
    return [a for a in range(mask.bit_length()) if mask >> a & 1]


def _oracle_masks(table):
    """The subset oracle's reducts as masks in ascending order, as ``_reduct_masks`` lists them."""
    return sorted(map(attr_mask, brute_force_reducts(table)))


def _assert_engine_matches_oracle(system, table):
    """Class-level clauses, the class-table probe, the core and the reduct
    predicate against the pairwise cells, the positive region and the subset
    oracle. Every attribute mask is probed up to 8 attributes, a fixed sample
    of 64 above that.
    """
    # The engine's clauses in its own order: by size, then by mask value.
    oracle_clauses = map(attr_mask, discernibility_function(table))
    clauses = reducts_module._minimal_masks(pair_masks(class_table(table)))
    assert clauses == sorted(oracle_clauses, key=lambda m: (m.bit_count(), m))
    cells = [cell for _, cell in discernibility_matrix(table).cells]
    core = core_of(table)
    assert core == frozenset(next(iter(c)) for c in cells if len(c) == 1)
    m = system.n_attrs
    masks = range(1 << m) if m <= 8 else random.Random(0).sample(range(1 << m), 64)
    classes = class_table(table)
    full = positive_region(table, range(m))
    for mask in masks:
        assert preserves(classes, mask) == (positive_region(table, _attrs(mask)) == full)
    # The subset oracle is exponential in |C|; keep it to small tables.
    if m <= 8 and table.n_objects <= 64:
        assert core == brute_force_core(table)
        reducts = set(brute_force_reducts(table))
        for mask in masks:
            assert is_reduct(table, _attrs(mask)) == (frozenset(_attrs(mask)) in reducts)


class TestClauseOracleAgreement:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_random_tables_and_subtables(self, seed):
        rng = random.Random(seed)
        s = _coded_table(
            rng,
            rng.randint(1, 30),
            rng.choice((1, 2, 3, 5, 8, 12, 24)),
            d_arity=rng.randint(1, 3),
            conflicts=rng.randint(0, 4),
        )
        member = make_subsystem(s, rng.sample(range(s.n_objects), rng.randint(1, s.n_objects)))
        for table in (s, member):
            _assert_engine_matches_oracle(s, table)

    def test_boundary_classes(self):
        rng = random.Random(11)
        s = _coded_table(rng, 20, 4, d_arity=3, conflicts=6)
        assert any(len(v) > 1 for v in generalized_decision(s).values())
        _assert_engine_matches_oracle(s, s)

    def test_constant_decision(self):
        s = _coded_table(random.Random(12), 15, 5, d_arity=1)
        assert reducts_module._minimal_masks(pair_masks(class_table(s))) == []
        _assert_engine_matches_oracle(s, s)

    def test_one_row(self):
        s = _coded_table(random.Random(13), 1, 6)
        _assert_engine_matches_oracle(s, s)
        _assert_engine_matches_oracle(s, make_subsystem(s, {0}))

    def test_codes_needing_nine_bit_fields(self):
        rng = random.Random(14)
        s = _coded_table(rng, 0, 4, d_arity=3, wide_rows=300)
        assert max(row[0] for row in s.rows) == 299
        _assert_engine_matches_oracle(s, s)
        high = [i for i, row in enumerate(s.rows) if row[0] >= 256]
        member = make_subsystem(s, high[:20] + rng.sample(range(s.n_objects), 20))
        _assert_engine_matches_oracle(s, member)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6), st.lists(st.sampled_from((4, 5, 8, 9, 17, 40)),
                                             min_size=1, max_size=8))
    def test_codes_in_up_to_six_planes(self, seed, arities):
        # Codes of up to 6 bits: the clause build ORs the XOR of every
        # plane, up to six of them, into each pair's slot. Half the
        # tables give the first column every code of the largest arity.
        rng = random.Random(seed)
        s = _coded_table(rng, rng.randint(1, 40), len(arities), arities=arities,
                         d_arity=rng.randint(1, 3), conflicts=rng.randint(0, 4),
                         wide_rows=rng.choice((0, max(arities))))
        member = make_subsystem(s, rng.sample(range(s.n_objects), rng.randint(1, s.n_objects)))
        for table in (s, member):
            codes = [s.rows[i] for i in table.object_indices]
            assert class_table(table).planes == max(map(max, codes)).bit_length()
            _assert_engine_matches_oracle(s, table)

    @pytest.mark.parametrize("decisions", ["0,0,0", "0,1,0"], ids=["consistent", "inconsistent"])
    def test_no_condition_attributes(self, decisions):
        # Every row packs to the empty class; the sole reduct is the empty set.
        s = parse_decision_table("d\n" + decisions.replace(",", "\n") + "\n", "d")
        assert s.n_attrs == 0
        assert reducts_module._minimal_masks(pair_masks(class_table(s))) == []
        assert all_reducts(s) == (frozenset(),)
        assert is_reduct(s, ())
        _assert_engine_matches_oracle(s, s)
        _assert_engine_matches_oracle(s, make_subsystem(s, {1, 2}))

    def test_twenty_four_attributes(self):
        rng = random.Random(15)
        s = _coded_table(rng, 30, 24, conflicts=3)
        _assert_engine_matches_oracle(s, s)
        _assert_engine_matches_oracle(s, make_subsystem(s, rng.sample(range(s.n_objects), 12)))


def test_class_table_memory_follows_the_member_not_the_code_range():
    # A 20-row member of a parent whose first column is an id with 200,000
    # codes: packing it needs memory for its own rows, not for every code.
    rng = random.Random(16)
    n = 200_000
    rows = tuple((i, i % 3, i % 2) for i in range(n))
    decisions = tuple(rng.randrange(2) for _ in rows)
    s = DecisionSystem("ids", ("id", "a", "b"), "d", rows, decisions, {})
    member = make_subsystem(s, rng.sample(range(n - 1), 19) + [n - 1])
    tracemalloc.start()
    try:
        classes = class_table(member)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert classes.planes == (n - 1).bit_length()
    _assert_engine_matches_oracle(s, member)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_family_classes_label_members_as_class_table_does(seed):
    # Parents with boundary classes, repeated rows (few short columns), no
    # condition column, or an id-like first column of 5 to 40 codes (at
    # least three planes); every table of the parent reads its labels off
    # the parent's packed rows and keeps the parent's plane count.
    rng = random.Random(seed)
    m = rng.choice((0, 1, 2, 5, 12))
    s = _coded_table(rng, rng.randint(1, 40), m, d_arity=rng.randint(1, 3),
                     conflicts=rng.randint(0, 6),
                     wide_rows=rng.choice((0, rng.randint(5, 40))) if m else 0)
    classes = family_classes(s)
    parent = class_table(s)
    assert classes(s) == parent
    for _ in range(5):
        member = make_subsystem(s, rng.sample(range(s.n_objects), rng.randint(1, s.n_objects)))
        own = class_table(member)
        assert own.planes <= parent.planes
        assert classes(member) == ClassTable(own.labels, m, parent.planes)


def test_clause_build_memory_follows_the_masks_not_the_pairs():
    # 600 rows with 10-bit id codes. Even rows take codes 0 or 3 and odd
    # rows 1 or 2, so each of the 90,000 pairs of differently labelled rows
    # differs on every column, with a random XOR of 1 or 2 in each. Every
    # pair gives the one all-column clause, so the clause build keeps
    # one mask, not a value per pair.
    rng = random.Random(17)
    n, m = 600, 16
    rows = tuple((i,) + tuple(rng.choice(((0, 3), (1, 2))[i % 2]) for _ in range(m)) for i in range(n))
    decisions = tuple(i % 2 for i in range(n))
    s = DecisionSystem("pairs", ("id",) + tuple(f"c{a}" for a in range(m)), "d", rows, decisions, {})
    assert class_table(s).planes == 10
    tracemalloc.start()
    try:
        masks = reducts_module._minimal_masks(pair_masks(class_table(s)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert masks == [(1 << m + 1) - 1]
    assert peak < 1 << 20


class TestBitSlicedPairLoop:
    """The pair loop at its slot widths, and the lattice on its unabsorbed masks.

    A slot is 8, 16, 32 or 64 bits, the smallest that holds m, and 64 * k
    bits past 64, so m just below, at and just above each width puts an
    attribute in a slot's highest bit, or alone in its last word.
    """

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10 ** 6),
           st.sampled_from((7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 128, 129)))
    def test_slot_boundaries_match_the_oracle(self, seed, m):
        # A planted pair differs only on the top attribute, by its largest
        # code against 0, so its clause is the slot's highest bit in every
        # plane that code sets; arity 300 gives 9 planes.
        rng = random.Random(seed)
        arities = [rng.choice((2, 3, 5, 40, 300)) for _ in range(m)]
        rows = [[rng.randrange(a) for a in arities] for _ in range(rng.randint(1, 12))]
        low, high = rows[0][:], rows[0][:]
        low[-1], high[-1] = 0, arities[-1] - 1
        rows += [low, high]
        decisions = [rng.randrange(3) for _ in rows[:-2]] + [0, 1]
        s = DecisionSystem("slots", tuple(f"c{a}" for a in range(m)), "d",
                           tuple(map(tuple, rows)), tuple(decisions), {})
        oracle_clauses = map(attr_mask, discernibility_function(s))
        clauses = reducts_module._minimal_masks(pair_masks(class_table(s)))
        assert clauses == sorted(oracle_clauses, key=lambda c: (c.bit_count(), c))
        assert set(clauses) <= pair_masks(class_table(s))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_lattice_reads_the_unabsorbed_masks(self, seed):
        # The sweep's reducts and its cap text, which counts the absorbed
        # clauses, agree on the masks as the pairs make them and on the
        # absorbed clauses.
        rng = random.Random(seed)
        s = _coded_table(rng, rng.randint(1, 60), rng.randint(1, 16),
                         d_arity=rng.randint(1, 3), conflicts=rng.randint(0, 4))
        member = make_subsystem(s, rng.sample(range(s.n_objects), rng.randint(1, s.n_objects)))
        q = s.n_attrs
        for table in (s, member):
            masks = pair_masks(class_table(table))
            clauses = reducts_module._minimal_masks(masks)
            assert set(clauses) <= masks
            found = reducts_module._sweep(masks, q, 1 << q)
            assert reducts_module._sweep(clauses, q, 1 << q) == found
            for form in (masks, clauses):
                with pytest.raises(CapacityError) as exc:
                    reducts_module._sweep(form, q, len(found) - 1)
                assert f"({len(clauses)} absorbed clauses, |C| = {q})" in str(exc.value)

    def test_lattice_path_never_absorbs(self, monkeypatch):
        # 300 x 12 arity-3 rows: far more distinct pair masks than minimal
        # clauses. With absorption made to fail, the lattice path still
        # returns the same reducts and raises the same cap text.
        s = _coded_table(random.Random(43), 300, 12, arities=[3] * 12)
        clauses = reducts_module._minimal_masks(pair_masks(class_table(s)))
        assert len(pair_masks(class_table(s))) > 2 * len(clauses)
        expected = _reduct_masks(s)
        cap = len(expected) - 1
        with pytest.raises(CapacityError) as exc:
            _reduct_masks(s, max_reducts=cap)
        text = str(exc.value)
        assert text == (f"more than max_reducts = {cap} reducts "
                        f"({len(clauses)} absorbed clauses, |C| = 12); raise the cap")

        def absorb(masks):
            raise AssertionError("the lattice path must not absorb")

        monkeypatch.setattr(reducts_module, "_minimal_masks", absorb)
        with pytest.raises(AssertionError):
            reducts_module._mmcs(pair_masks(class_table(s)), 12, cap)
        assert _reduct_masks(s) == expected
        with pytest.raises(CapacityError) as exc:
            _reduct_masks(s, max_reducts=cap)
        assert str(exc.value) == text


@pytest.mark.parametrize("arities", [(3,) * 16, (2,) * 4 + (3,) * 12], ids=["arity3", "mixed"])
def test_core_past_the_oracle_limit(arities):
    # 2,000 rows is past the subset oracle's 64; the core is checked against
    # the reduct intersection and against the positive-region formula itself.
    # The uniform arity-3 table has an empty core; the mixed one has a proper
    # non-empty core and two boundary objects.
    rng = random.Random(1)
    n, m = 2000, len(arities)
    rows = tuple(tuple(rng.randrange(k) for k in arities) for _ in range(n))
    decisions = tuple(rng.randrange(2) for _ in range(n))
    s = DecisionSystem("uniform", tuple(f"c{a}" for a in range(m)), "d", rows, decisions, {})
    core = core_of(s)
    assert core == frozenset(mask_indices(intersect_all(_reduct_masks(s), m)))
    full = positive_region(s, range(m))
    assert core == {a for a in range(m) if positive_region(s, set(range(m)) - {a}) != full}


class TestEnumeratorOracleAgreement:
    """The hitting-set search against the subset oracle, within its limits."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_random_tables_and_subtables(self, seed):
        rng = random.Random(seed)
        s = _coded_table(
            rng,
            rng.randint(1, 30),
            rng.randint(1, 8),
            d_arity=rng.randint(1, 3),
            conflicts=rng.randint(0, 4),
        )
        member = make_subsystem(s, rng.sample(range(s.n_objects), rng.randint(1, s.n_objects)))
        for table in (s, member):
            assert _reduct_masks(table) == _oracle_masks(table)
            assert all_reducts(table) == brute_force_reducts(table)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_twin_columns(self, seed):
        # The search runs over one attribute per twin group and expands at
        # the leaves; every expanded mask must be a distinct reduct.
        rng = random.Random(seed)
        s = _with_twins(rng, _coded_table(
            rng,
            rng.randint(1, 30),
            rng.randint(1, 5),
            d_arity=rng.randint(1, 3),
            conflicts=rng.randint(0, 4),
        ))
        member = make_subsystem(s, rng.sample(range(s.n_objects), rng.randint(1, s.n_objects)))
        for table in (s, member):
            assert _reduct_masks(table) == _oracle_masks(table)

    def test_inconsistent_table(self):
        rng = random.Random(21)
        s = _coded_table(rng, 20, 6, d_arity=3, conflicts=8)
        assert any(len(v) > 1 for v in generalized_decision(s).values())
        assert all_reducts(s) == brute_force_reducts(s)
        member = make_subsystem(s, rng.sample(range(s.n_objects), 14))
        assert all_reducts(member) == brute_force_reducts(member)

    def test_constant_decision(self):
        s = _coded_table(random.Random(22), 15, 6, d_arity=1)
        assert all_reducts(s) == brute_force_reducts(s) == (frozenset(),)

    def test_one_row(self):
        s = _coded_table(random.Random(23), 1, 6)
        assert all_reducts(s) == brute_force_reducts(s) == (frozenset(),)
        t = _coded_table(random.Random(24), 12, 6, d_arity=3)
        for i in (0, 11):
            member = make_subsystem(t, {i})
            assert all_reducts(member) == brute_force_reducts(member) == (frozenset(),)


class TestMatchingTables:
    # x_i and y_i lie in exactly the same clause, so they are twins: the
    # search finds the one reduct of the quotient, {x_0, ..., x_{k-1}}, and
    # the other 2**k - 1 come from swapping twins at that leaf.
    @pytest.mark.parametrize("k", [1, 8, 14])
    def test_every_transversal_of_the_pairs(self, k):
        s = parse_decision_table(matching_csv(k), "d")
        reducts = all_reducts(s, max_attrs=2 * k)
        assert len(reducts) == 2 ** k
        pairs = [frozenset({i, k + i}) for i in range(k)]  # (x_i, y_i) in header order
        assert all(len(r) == k and all(len(r & p) == 1 for p in pairs) for r in reducts)
        assert core_of(s) == frozenset()

    def test_default_cap_stops_a_million_reducts(self):
        # 2**20 reducts; the search stops at the first one past the cap.
        s = parse_decision_table(matching_csv(20), "d")
        with pytest.raises(CapacityError, match="100000"):
            all_reducts(s, max_attrs=40)

    def test_cap_equal_to_the_count_succeeds(self):
        s = parse_decision_table(matching_csv(8), "d")
        assert len(all_reducts(s, max_attrs=16, max_reducts=256)) == 256
        with pytest.raises(CapacityError) as exc:
            all_reducts(s, max_attrs=16, max_reducts=255)
        message = str(exc.value)
        assert "max_reducts = 255" in message
        assert "8 absorbed clauses" in message
        assert "|C| = 16" in message


def test_deep_search_needs_no_recursion():
    # 1,200 singleton clauses: the one reduct is all of C, found 1,200 levels deep.
    n = 1200
    lines = [",".join([f"c{i}" for i in range(n)] + ["d"]), ",".join(["0"] * (n + 1))]
    for i in range(n):
        cells = ["0"] * n + ["1"]
        cells[i] = "1"
        lines.append(",".join(cells))
    s = parse_decision_table("\n".join(lines) + "\n", "d")
    assert all_reducts(s, max_attrs=n) == (frozenset(range(n)),)


def _search(table, width=None, **caps):
    """``_reduct_masks`` with ``LATTICE_MAX_ATTRS`` set to ``width`` (kept
    when None), and whether the lattice sweep ran."""
    calls = []
    sweep = reducts_module._sweep
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reducts_module, "_sweep", lambda *args: calls.append(args) or sweep(*args))
        if width is not None:
            mp.setattr(reducts_module, "LATTICE_MAX_ATTRS", width)
        masks = _reduct_masks(table, **caps)
    return masks, bool(calls)


@st.composite
def _clause_families(draw):
    """n <= 12 attributes and a list of non-zero clause masks over them.

    Some clauses are unions of others, so the family is rarely an
    antichain, and some attributes copy another's membership in every
    clause, so they are twins; a list may repeat a mask or be empty.
    """
    n = draw(st.integers(0, 12))
    if n == 0:
        return 0, []
    masks = draw(st.lists(st.integers(1, (1 << n) - 1), max_size=10))
    if masks:
        pick = st.sampled_from(masks)
        masks += [a | b for a, b in draw(st.lists(st.tuples(pick, pick), max_size=4))]
    attr = st.integers(0, n - 1)
    for a, b in draw(st.lists(st.tuples(attr, attr), max_size=3)):
        masks = [c & ~(1 << b) | (c >> a & 1) << b for c in masks]
    return n, [c for c in masks if c]


class TestLatticeAndMMCS:
    """Both search paths on the same tables, against each other and the oracle.

    The path follows |C| alone: a table of at most ``LATTICE_MAX_ATTRS``
    (16) attributes takes the lattice sweep by default, even one without
    clauses, and a wider one MMCS; setting ``LATTICE_MAX_ATTRS`` to 0
    sends any table through MMCS, and raising it forces the lattice.
    """

    @staticmethod
    def _assert_paths_agree(table):
        lattice, swept = _search(table)
        assert swept == (table.parent.n_attrs <= reducts_module.LATTICE_MAX_ATTRS)
        mmcs, swept = _search(table, 0)
        assert not swept
        assert lattice == mmcs == _oracle_masks(table)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10 ** 6), st.booleans())
    def test_random_tables_subtables_and_twins(self, seed, twins):
        rng = random.Random(seed)
        s = _coded_table(
            rng,
            rng.randint(1, 30),
            rng.randint(1, 5 if twins else 8),
            d_arity=rng.randint(1, 3),
            conflicts=rng.randint(0, 4),
        )
        if twins:
            s = _with_twins(rng, s)
        member = make_subsystem(s, rng.sample(range(s.n_objects), rng.randint(1, s.n_objects)))
        for table in (s, member):
            self._assert_paths_agree(table)

    @settings(max_examples=200, deadline=None)
    @given(_clause_families())
    @example((0, []))
    @example((12, []))
    def test_both_searches_read_any_clause_family(self, family):
        # The two searches are functions of the clause set alone: the same
        # masks, unabsorbed, give the same ascending transversals, and one
        # reduct fewer than they find gives the same cap text.
        n, clauses = family
        lattice = reducts_module._sweep(clauses, n, 1 << n)
        assert lattice == sorted(lattice)
        assert reducts_module._mmcs(clauses, n, len(lattice)) == lattice
        assert reducts_module._sweep(clauses, n, len(lattice)) == lattice
        texts = []
        for search in (reducts_module._sweep, reducts_module._mmcs):
            with pytest.raises(CapacityError) as exc:
                search(clauses, n, len(lattice) - 1)
            texts.append(str(exc.value))
        assert texts[0] == texts[1]

    def test_inconsistent_tables(self):
        rng = random.Random(31)
        for _ in range(5):
            s = _coded_table(rng, 20, 6, d_arity=3, conflicts=8)
            assert any(len(v) > 1 for v in generalized_decision(s).values())
            self._assert_paths_agree(s)
            self._assert_paths_agree(make_subsystem(s, rng.sample(range(s.n_objects), 14)))

    def test_width_boundary(self):
        # 16 attributes are the widest table the lattice takes; at 17 the
        # default path is MMCS. The k = 16 table is inside the oracle's limits.
        assert reducts_module.LATTICE_MAX_ATTRS == 16
        s = parse_decision_table(cycle_csv(16), "d")
        lattice, swept = _search(s)
        assert swept and len(lattice) == 222
        mmcs, swept = _search(s, 0)
        assert not swept
        assert lattice == mmcs == _oracle_masks(s)

        wide = parse_decision_table(cycle_csv(17), "d")
        mmcs, swept = _search(wide)
        assert not swept and len(mmcs) == 306
        lattice, swept = _search(wide, 17)
        assert swept
        assert lattice == mmcs

    def test_cap_is_exact_without_twins(self):
        s = parse_decision_table(cycle_csv(12), "d")
        masks, swept = _search(s, max_reducts=57)
        assert swept and len(masks) == 57
        with pytest.raises(CapacityError) as exc:
            _reduct_masks(s, max_reducts=56)
        assert str(exc.value) == (
            "more than max_reducts = 56 reducts (12 absorbed clauses, |C| = 12); raise the cap"
        )

    def test_cap_is_exact_with_twins_on_both_paths(self):
        # The table of TestCapacityLimits.test_cap_is_exact_with_twins: three
        # quotient reducts expand to 4 + 1 + 2, so MMCS must count the
        # reducts already found with each expansion.
        s = parse_decision_table(
            "p,q,r,s,P,R,d\n0,0,0,0,0,0,0\n1,0,0,1,1,0,1\n0,1,1,0,0,1,1\n0,0,1,1,0,1,1\n", "d"
        )
        for width in (None, 0):
            masks, _ = _search(s, width, max_reducts=7)
            assert masks == _oracle_masks(s) and len(masks) == 7
            for cap in range(1, 7):
                with pytest.raises(CapacityError) as exc:
                    _search(s, width, max_reducts=cap)
                assert str(exc.value) == (
                    f"more than max_reducts = {cap} reducts (3 absorbed clauses, |C| = 6); "
                    "raise the cap"
                )

    def test_sixteen_twin_columns_take_the_lattice(self):
        # Matching k = 8: |C| = 16 in 8 twin pairs, swept without the quotient.
        s = parse_decision_table(matching_csv(8), "d")
        masks, swept = _search(s, max_reducts=256)
        assert swept and len(masks) == 256
        assert masks == sorted(masks)
        with pytest.raises(CapacityError) as exc:
            _reduct_masks(s, max_reducts=255)
        assert str(exc.value) == (
            "more than max_reducts = 255 reducts (8 absorbed clauses, |C| = 16); raise the cap"
        )

    def test_eighteen_twin_columns_take_mmcs(self):
        # Matching k = 9: |C| = 18, a 9-group quotient that MMCS expands.
        s = parse_decision_table(matching_csv(9), "d")
        mmcs, swept = _search(s)
        assert not swept and len(mmcs) == 512
        lattice, swept = _search(s, 18)
        assert swept
        assert mmcs == lattice

    def test_no_clauses_past_the_lattice(self):
        # 17 columns and a constant decision: MMCS emits its clause-less root.
        s = _coded_table(random.Random(41), 30, 17, d_arity=1)
        masks, swept = _search(s)
        assert not swept and masks == [0]
        with pytest.raises(CapacityError, match="max_reducts = 0 reducts"):
            _reduct_masks(s, max_reducts=0)

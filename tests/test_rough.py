import random

import pytest
from hypothesis import given, strategies as st

from dynred import (
    DomainError,
    condition_classes,
    discernibility_matrix,
    generalized_decision,
    is_reduct,
    make_subsystem,
    parse_decision_table,
    positive_region,
)

from conftest import idx, random_system


class TestConditionClasses:
    def test_fix_a_single_attr(self, fix_a):
        assert condition_classes(fix_a, idx(fix_a, "a")) == ((0, 2), (1,))

    def test_empty_attrs_single_block(self, fix_a):
        assert condition_classes(fix_a, frozenset()) == ((0, 1, 2),)

    def test_all_attrs_distinct_rows(self, fix_a):
        assert condition_classes(fix_a, idx(fix_a, "abc")) == ((0,), (1,), (2,))

    def test_subsystem_blocks_use_parent_indices(self, fix_a):
        b = make_subsystem(fix_a, {1, 2})
        assert condition_classes(b, frozenset()) == ((1, 2),)

    def test_index_out_of_range(self, fix_a):
        with pytest.raises(DomainError):
            condition_classes(fix_a, {5})


class TestGeneralizedDecision:
    def test_inconsistent_pair(self, fix_b):
        assert generalized_decision(fix_b) == {
            (0, 1): frozenset({0, 1}),
            (2,): frozenset({0}),
        }

    def test_consistent_table_all_singletons(self, fix_a):
        assert all(len(v) == 1 for v in generalized_decision(fix_a).values())

    def test_single_row(self):
        s = parse_decision_table("a,d\n0,1\n", "d")
        assert generalized_decision(s) == {(0,): frozenset({0})}


class TestPositiveRegion:
    def test_fix_b_single_attr(self, fix_b):
        assert positive_region(fix_b, idx(fix_b, "b")) == {2}

    def test_fix_b_empty_attrs(self, fix_b):
        assert positive_region(fix_b, frozenset()) == frozenset()

    def test_consistent_full_attrs_is_universe(self, fix_a):
        assert positive_region(fix_a, idx(fix_a, "abc")) == {0, 1, 2}


class TestDiscernibilityMatrix:
    def test_fix_a_cells(self, fix_a):
        cells = discernibility_matrix(fix_a).cells
        assert cells == (
            ((0, 1), idx(fix_a, "a")),
            ((0, 2), idx(fix_a, "bc")),
        )

    def test_fix_b_cells(self, fix_b):
        cells = discernibility_matrix(fix_b).cells
        assert cells == (
            ((0, 2), idx(fix_b, "b")),
            ((1, 2), idx(fix_b, "b")),
        )

    def test_constant_decision_no_cells(self, fix_c):
        assert discernibility_matrix(fix_c).cells == ()


class TestIsReduct:
    def test_fix_a_reduct(self, fix_a):
        assert is_reduct(fix_a, idx(fix_a, "ab"))

    def test_fix_a_superset_not_minimal(self, fix_a):
        assert not is_reduct(fix_a, idx(fix_a, "abc"))

    def test_fix_a_too_small(self, fix_a):
        assert not is_reduct(fix_a, idx(fix_a, "a"))

    def test_empty_set_on_constant_decision(self, fix_c):
        assert is_reduct(fix_c, frozenset())

    @pytest.mark.parametrize("attrs", [{5}, {-1}], ids=["past_the_end", "negative"])
    def test_index_out_of_range(self, attrs):
        s = parse_decision_table("a,b,d\n0,0,0\n1,0,1\n", "d")
        with pytest.raises(DomainError, match=r"\|C\| = 2"):
            is_reduct(s, attrs)


def _refines(fine, coarse):
    lookup = {}
    for bi, block in enumerate(coarse):
        for obj in block:
            lookup[obj] = bi
    return all(len({lookup[o] for o in block}) == 1 for block in fine)


@given(st.integers(0, 10 ** 6), st.data())
def test_monotonicity_properties(seed, data):
    rng = random.Random(seed)
    s = random_system(rng, max_objects=8, max_attrs=5)
    n = s.n_attrs
    small = data.draw(st.sets(st.integers(0, n - 1)))
    extra = data.draw(st.sets(st.integers(0, n - 1)))
    big = small | extra
    assert _refines(condition_classes(s, big), condition_classes(s, small))
    assert positive_region(s, small) <= positive_region(s, big)


@given(st.integers(0, 10 ** 6))
def test_matrix_cells_nonempty_and_respect_generalized_decision(seed):
    rng = random.Random(seed)
    s = random_system(rng, max_objects=8, max_attrs=5)
    gen = generalized_decision(s)
    labels = {o: v for block, v in gen.items() for o in block}
    for (x, y), cell in discernibility_matrix(s).cells:
        assert cell
        assert labels[x] != labels[y]

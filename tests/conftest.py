"""Shared fixtures: the three hand-checked tables and random-instance helpers.

FIX-A is consistent with three pairwise-distinct condition rows, FIX-B is
inconsistent (two objects share all condition values but not the decision),
FIX-C has a constant decision. Expected reducts/cores for all three were
computed with the brute-force oracle before the engine existed and are
frozen in the tests.
"""

from __future__ import annotations

import random

import pytest

from dynred import DecisionSystem, Family, make_subsystem, parse_decision_table

FIX_A_CSV = "a,b,c,d\n0,0,0,0\n1,0,0,1\n0,1,1,1\n"
FIX_B_CSV = "a,b,d\n0,0,0\n0,0,1\n0,1,0\n"
FIX_C_CSV = "a,b,d\n0,0,0\n1,0,0\n0,1,0\n"


@pytest.fixture
def fix_a() -> DecisionSystem:
    return parse_decision_table(FIX_A_CSV, "d")


@pytest.fixture
def fix_b() -> DecisionSystem:
    return parse_decision_table(FIX_B_CSV, "d")


@pytest.fixture
def fix_c() -> DecisionSystem:
    return parse_decision_table(FIX_C_CSV, "d")


def idx(system: DecisionSystem, names: str) -> frozenset[int]:
    """Attribute-index set from a compact name string like 'ab'."""
    return frozenset(system.cond_attrs.index(n) for n in names)


def reduct_names(system: DecisionSystem, sets) -> list[list[str]]:
    return sorted(sorted(system.cond_attrs[a] for a in s) for s in sets)


# The family layer speaks attribute bitmasks: bit a is condition attribute a.
def as_mask(attrs) -> int:
    """Bitmask of an iterable of attribute indices."""
    return sum(1 << a for a in attrs)


def mask(system: DecisionSystem, names: str) -> int:
    """Attribute bitmask from a compact name string like 'ab'."""
    return as_mask(idx(system, names))


def mask_names(system: DecisionSystem, masks) -> list[list[str]]:
    """Sorted name arrays of a mask collection, as ``reduct_names`` gives for sets."""
    n = system.n_attrs
    return reduct_names(system, ([a for a in range(n) if m >> a & 1] for m in masks))


def inside(small: int, big: int) -> bool:
    """Mask containment: every attribute of ``small`` is in ``big``."""
    return small & ~big == 0


def random_table_csv(rng: random.Random, max_objects: int = 10, max_attrs: int = 6) -> str:
    """Random decision table: arity 2..3 per attribute, decision arity 2..3."""
    n_u = rng.randint(1, max_objects)
    n_c = rng.randint(1, max_attrs)
    arities = [rng.randint(2, 3) for _ in range(n_c)]
    d_arity = rng.randint(2, 3)
    lines = [",".join([f"c{i}" for i in range(n_c)] + ["d"])]
    for _ in range(n_u):
        cells = [str(rng.randrange(a)) for a in arities] + [str(rng.randrange(d_arity))]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def matching_csv(k: int) -> str:
    """Matching table: the only clauses are (x_i or y_i), so 2**k reducts.

    Row 0 is all zeros with decision 0; row i + 1 sets x_i = y_i = 1 with
    decision 1.
    """
    lines = [",".join([f"x{i}" for i in range(k)] + [f"y{i}" for i in range(k)] + ["d"])]
    lines.append(",".join(["0"] * (2 * k + 1)))
    for i in range(k):
        cells = ["0"] * (2 * k) + ["1"]
        cells[i] = cells[k + i] = "1"
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cycle_csv(k: int) -> str:
    """3-uniform cycle table: one all-zero row with decision 0, and row i
    with a_i = a_{i+1} = a_{i+2} = 1 (indices mod k) and decision 1.

    Its clauses are the k windows of three consecutive attributes; no two
    attributes lie in the same clauses, so there are no twins.
    """
    lines = [",".join([f"a{i}" for i in range(k)] + ["d"]), ",".join(["0"] * (k + 1))]
    for i in range(k):
        cells = ["0"] * k + ["1"]
        for j in range(3):
            cells[(i + j) % k] = "1"
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def planted_core_csv(width: int) -> str:
    """40 rows over binary c0..c{width-1} and d = c0 XOR c1, so the core is {c0, c1}.

    c0..c3 are drawn by ``random.Random(3)`` and every column past c3
    repeats c2 or c3, so its rows take at most 16 distinct condition
    values, and deleting c0 or c1 merges two of them with different
    decisions. Columns c2 and up lie in no reduct.
    """
    rng = random.Random(3)
    lines = [",".join([f"c{a}" for a in range(width)] + ["d"])]
    for _ in range(40):
        bits = [rng.randrange(2) for _ in range(4)]
        cells = bits[:2] + [bits[2 + a % 2] for a in range(width - 2)] + [bits[0] ^ bits[1]]
        lines.append(",".join(map(str, cells)))
    return "\n".join(lines) + "\n"


def random_system(rng: random.Random, **kwargs) -> DecisionSystem:
    return parse_decision_table(random_table_csv(rng, **kwargs), "d")


def random_family(rng: random.Random, system: DecisionSystem, max_members: int = 6) -> Family:
    members = []
    for _ in range(rng.randint(1, max_members)):
        size = rng.randint(1, system.n_objects)
        members.append(make_subsystem(system, rng.sample(range(system.n_objects), size)))
    return Family(tuple(members))

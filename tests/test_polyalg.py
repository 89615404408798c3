from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cochainlab.polyalg import (
    DEGREE_CAP,
    DegreeOverflowError,
    MultiPoly,
    canonical_vars,
    format_rat,
    sort_sign,
    to_string,
    var_key,
)

VARS = ("t1", "t2", "g1_1", "g1_2", "g2_1", "y_1", "y_2")

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def polys(draw, max_terms=4, max_deg=3):
    acc = MultiPoly.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        term = MultiPoly.const(draw(rationals))
        for _ in range(draw(st.integers(0, max_deg))):
            term = term * MultiPoly.var(draw(st.sampled_from(VARS)))
        acc = acc + term
    return acc


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b) - b == a
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * MultiPoly.const(1) == a
    assert (a * MultiPoly.zero()).is_zero()


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_diff_is_derivation(a, b):
    for v in ("t1", "y_1"):
        lhs = (a * b).diff(v)
        rhs = a.diff(v) * b + a * b.diff(v)
        assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(polys())
def test_diff_commutes(a):
    assert a.diff("t1").diff("y_1") == a.diff("y_1").diff("t1")


@settings(max_examples=40, deadline=None)
@given(polys(), st.sampled_from(VARS))
def test_defint01_of_derivative(a, v):
    # fundamental theorem: int_0^1 da/dv dv = a|_{v=1} - a|_{v=0}
    assert a.diff(v).defint01(v) == a.subst({v: 1}) - a.subst({v: 0})


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_subst_is_homomorphism(a, b):
    sub = {"t1": MultiPoly.var("y_2") * 2 + 1, "g1_1": MultiPoly.var("t2")}
    assert (a + b).subst(sub) == a.subst(sub) + b.subst(sub)
    assert (a * b).subst(sub) == a.subst(sub) * b.subst(sub)


def test_subst_is_simultaneous():
    x, y = MultiPoly.var("y_1"), MultiPoly.var("y_2")
    p = x * y
    swapped = p.subst({"y_1": y, "y_2": x})
    assert swapped == p
    shifted = (x + y).subst({"y_1": y, "y_2": x + y})
    assert shifted == x + y * 2


def test_eval_at():
    p = MultiPoly.var("t1") * MultiPoly.var("t1") + 1
    assert p.eval_at({"t1": Fraction(1, 2)}) == Fraction(5, 4)


def test_canonical_variable_order():
    names = ["y_1", "g2_1", "g1_2", "t2", "t1", "g1_1", "zeta"]
    assert canonical_vars(names) == (
        "t1", "t2", "g1_1", "g1_2", "g2_1", "y_1", "zeta",
    )
    assert var_key("t1") < var_key("g1_1") < var_key("m0_1") < var_key("y_1")


def test_degree_cap_enforced():
    x = MultiPoly.var("t1")
    with pytest.raises(DegreeOverflowError):
        x ** (DEGREE_CAP + 1)


def test_format_rat():
    assert format_rat(Fraction(3)) == "3"
    assert format_rat(Fraction(-1, 2)) == "-1/2"


@settings(max_examples=40, deadline=None)
@given(polys())
def test_to_string_roundtrip(a):
    from cochainlab.cli import parse_expr

    assert parse_expr(to_string(a)) == a


def _cycle_parity(items, key):
    """Reference sign: sort positions by key, then count the transpositions
    that undo the sorting permutation cycle by cycle."""
    ranked = sorted(range(len(items)), key=lambda i: key(items[i]))
    sign = 1
    perm = list(ranked)
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return tuple(items[i] for i in ranked), sign


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3, 6), max_size=7), st.sampled_from([None, lambda i: -i]))
def test_sort_sign_matches_cycle_parity(items, key):
    ref_key = key or (lambda i: i)
    result, sign = sort_sign(items, key=key)
    if len({ref_key(i) for i in items}) < len(items):
        assert (result, sign) == (None, 0)
    else:
        assert (result, sign) == _cycle_parity(items, ref_key)

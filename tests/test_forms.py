import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cochainlab.forms import (
    Chart,
    PolyForm,
    PolyVF,
    contract,
    cube_integrate,
    exterior_d,
    homotopy_T,
    pullback,
    wedge,
)
from cochainlab.polyalg import MultiPoly, add_into, sort_sign

from conftest import random_poly

CHART = Chart(("y_1", "y_2", "y_3"))


def _random_form(rng, degree, chart=CHART):
    from itertools import combinations

    comps = {}
    for idx in combinations(range(len(chart.coords)), degree):
        comps[idx] = random_poly(rng, chart.coords)
    return PolyForm(chart, degree, comps)


def test_wedge_graded_commutative():
    rng = random.Random(0)
    for pa in range(3):
        for pb in range(3):
            a, b = _random_form(rng, pa), _random_form(rng, pb)
            sign = (-1) ** (pa * pb)
            assert wedge(a, b) == wedge(b, a) * sign


def test_wedge_associative():
    rng = random.Random(1)
    a, b, c = (_random_form(rng, d) for d in (1, 1, 1))
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_d_squared_zero():
    rng = random.Random(2)
    for degree in range(3):
        a = _random_form(rng, degree)
        assert exterior_d(exterior_d(a)).is_zero()


def test_d_leibniz():
    rng = random.Random(3)
    for pa in range(2):
        for pb in range(2):
            a, b = _random_form(rng, pa), _random_form(rng, pb)
            lhs = exterior_d(wedge(a, b))
            rhs = wedge(exterior_d(a), b) + wedge(a, exterior_d(b)) * ((-1) ** pa)
            assert lhs == rhs


def test_contract_is_an_antiderivation():
    # i_X (a ^ b) = i_X a ^ b + (-1)^deg(a) a ^ i_X b
    rng = random.Random(4)
    x = PolyVF(CHART, tuple(random_poly(rng, CHART.coords) for _ in CHART.coords))
    for pa, pb in ((1, 1), (1, 2), (2, 1)):
        a, b = _random_form(rng, pa), _random_form(rng, pb)
        lhs = contract(wedge(a, b), x)
        rhs = wedge(contract(a, x), b) + wedge(a, contract(b, x)) * ((-1) ** pa)
        assert lhs == rhs
    # contracting a function gives the zero function, not a form of degree -1
    assert contract(_random_form(rng, 0), x) == PolyForm.zero(CHART, 0)


def _folded(chart, degree, products):
    """The coefficients the binary folds built: each index's products
    ``(sign, a, b)`` summed by ``+`` from the first, zero sums dropped, as
    variables and terms."""
    out = {}
    for idx, sign, a, b in products:
        add_into(out, idx, a * b * sign)
    return {idx: (c.vars, c.terms) for idx, c in PolyForm(chart, degree, out).terms.items()}


def test_fused_sums_match_the_folds_they_replace():
    # coefficients over some of the chart and other variables, so the
    # products of one index meet different variable tuples
    rng = random.Random(8)
    names = CHART.coords + ("t1", "g1_1")

    def form(degree):
        return _random_form(rng, degree, CHART) * random_poly(rng, rng.sample(names, 2))

    x = PolyVF(CHART, (random_poly(rng, names), MultiPoly.zero(), random_poly(rng, ("t1",))))
    for pa, pb in ((0, 1), (1, 1), (1, 2), (2, 1)):
        a, b = form(pa), form(pb)
        wedged = [(sort_sign(ia + ib)[0], sort_sign(ia + ib)[1], ca, cb)
                  for ia, ca in a.terms.items() for ib, cb in b.terms.items()
                  if sort_sign(ia + ib)[1]]
        contracted = [(idx[:pos] + idx[pos + 1:], (-1) ** pos, coef, x.components[j])
                      for idx, coef in a.terms.items() for pos, j in enumerate(idx)
                      if not x.components[j].is_zero()]
        for got, products, degree in ((wedge(a, b), wedged, pa + pb),
                                      (contract(a, x), contracted, pa - 1)):
            assert {idx: (c.vars, c.terms) for idx, c in got.terms.items()} == _folded(
                CHART, degree, products)


def test_pullback_functorial_and_commutes_with_d():
    rng = random.Random(5)
    target = Chart(("t1", "t2"))
    phi = {
        "y_1": MultiPoly.var("t1") * MultiPoly.var("t2"),
        "y_2": MultiPoly.var("t1") + 1,
        "y_3": MultiPoly.var("t2") ** 2,
    }
    for degree in range(2):
        a = _random_form(rng, degree)
        assert pullback(exterior_d(a), phi, target) == exterior_d(
            pullback(a, phi, target)
        )
    a, b = _random_form(rng, 1), _random_form(rng, 1)
    assert pullback(wedge(a, b), phi, target) == wedge(
        pullback(a, phi, target), pullback(b, phi, target)
    )


def eval_at_zero(a: PolyForm) -> PolyForm:
    """Pull back under the constant map to the chart origin (degree 0 part
    survives as a constant-in-coords function)."""
    if a.degree != 0:
        return PolyForm.zero(a.chart, a.degree)
    zeros = {name: Fraction(0) for name in a.chart.coords}
    return PolyForm(
        a.chart, 0, {(): a.terms.get((), MultiPoly.zero()).subst(zeros)}
    )


def test_homotopy_identity():
    # d T + T d = 1 - (evaluation at the origin) on forms
    rng = random.Random(6)
    a0 = _random_form(rng, 0)
    assert homotopy_T(exterior_d(a0)) == a0 - eval_at_zero(a0)
    assert homotopy_T(a0) == PolyForm.zero(CHART, 0)
    for degree in range(1, 3):
        a = _random_form(rng, degree)
        lhs = exterior_d(homotopy_T(a)) + homotopy_T(exterior_d(a))
        assert lhs == a - eval_at_zero(a)


def test_homotopy_vanishes_at_origin():
    rng = random.Random(7)
    for degree in range(1, 4):
        t = homotopy_T(_random_form(rng, degree))
        for idx, coef in t.terms.items():
            at0 = coef.subst({v: 0 for v in CHART.coords})
            assert at0.is_zero()


def test_cube_integrate_plain_orientation():
    chart = Chart(("t1", "t2"))
    top = PolyForm(chart, 2, {(0, 1): MultiPoly.const(1)})
    assert cube_integrate(top) == MultiPoly.const(1)
    poly = MultiPoly.var("t1") * MultiPoly.var("t2")
    assert cube_integrate(PolyForm(chart, 2, {(0, 1): poly})) == MultiPoly.const(
        Fraction(1, 4)
    )


def test_antisymmetric_storage():
    chart = Chart(("y_1", "y_2"))
    one = MultiPoly.const(1)
    a = PolyForm(chart, 2, {(1, 0): one})
    b = PolyForm(chart, 2, {(0, 1): -one})
    assert a == b
    assert PolyForm(chart, 2, {(0, 0): one}).is_zero()
    # both orders of one index merge, and a sum that cancels is dropped
    y = MultiPoly.var("y_1")
    assert PolyForm(chart, 2, {(0, 1): y, (1, 0): one}) == PolyForm(chart, 2, {(0, 1): y - one})
    assert PolyForm(chart, 2, {(0, 1): y, (1, 0): y}).terms == {}


@pytest.mark.parametrize("build, message", [
    (lambda: PolyForm(CHART, 2, {(0,): MultiPoly.const(1)}), r"index \(0,\) does not have degree 2"),
    (lambda: PolyVF(CHART, (MultiPoly.const(1),)), "component count must match chart dimension"),
    (lambda: wedge(PolyForm.zero(CHART), PolyForm.zero(Chart(("y_1",)))), "wedge requires a common chart"),
    (lambda: contract(PolyForm.zero(Chart(("y_1",)), 1), PolyVF(CHART, (MultiPoly.zero(),) * 3)),
     "contraction requires a common chart"),
    (lambda: cube_integrate(PolyForm.zero(Chart(("t1", "t2")), 1)), "expected pure top degree 2, got 1"),
])
def test_form_inputs_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()

import random
from fractions import Fraction
from itertools import combinations

import pytest

from cochainlab.forms import Chart, PolyForm, exterior_d, wedge
from cochainlab.pairgpd import (
    ASCochain,
    as_delta,
    base_chart,
    geodesic_map,
    pair_r,
    pair_ve,
    verify_pair,
)
from cochainlab.polyalg import MultiPoly

from conftest import random_poly


def _base_vars(n):
    return [f"x_{j}" for j in range(1, n + 1)]


def test_delta_squared_zero():
    rng = random.Random(41)
    for n in (1, 2, 3):
        for p in range(3):
            factors = [random_poly(rng, _base_vars(n)) for _ in range(p + 1)]
            c = ASCochain.decomposable(n, factors)
            assert as_delta(as_delta(c)).is_zero()


def test_ve_on_decomposables():
    # differentiation of f0 (x) f1 (x) ... (x) fp is f0 df1 ^ ... ^ dfp
    rng = random.Random(42)
    for n in (2, 3):
        chart = base_chart(n)
        for p in range(3):
            factors = [random_poly(rng, _base_vars(n)) for _ in range(p + 1)]
            c = ASCochain.decomposable(n, factors)
            expected = PolyForm(chart, 0, {(): factors[0]})
            for f in factors[1:]:
                expected = wedge(expected, exterior_d(PolyForm(chart, 0, {(): f})))
            assert pair_ve(c) == expected


def test_ve_is_cochain_map():
    # VE(delta c) = d VE(c)
    rng = random.Random(43)
    for n in (2, 3):
        for p in range(2):
            factors = [random_poly(rng, _base_vars(n)) for _ in range(p + 1)]
            c = ASCochain.decomposable(n, factors)
            assert pair_ve(as_delta(c)) == exterior_d(pair_ve(c))


def test_geodesic_map_endpoints():
    geo = geodesic_map(2, 2)
    at_zero = [c.subst({"t1": 0, "t2": 0}) for c in geo]
    assert at_zero == [MultiPoly.var("m0_1"), MultiPoly.var("m0_2")]
    at_one = [c.subst({"t1": 1, "t2": 1}) for c in geo]
    assert at_one == [MultiPoly.var("m2_1"), MultiPoly.var("m2_2")]


def test_r_is_cochain_map():
    # R(d alpha) = delta R(alpha)
    rng = random.Random(44)
    for n in (2, 3):
        chart = base_chart(n)
        for p in range(2):
            comps = {
                idx: random_poly(rng, _base_vars(n))
                for idx in combinations(range(n), p)
            }
            alpha = PolyForm(chart, p, comps)
            assert pair_r(n, exterior_d(alpha)) == as_delta(pair_r(n, alpha))


def test_ve_r_identity_monomials():
    for n in (1, 2, 3):
        chart = base_chart(n)
        for p in range(min(3, n) + 1):
            for idx in combinations(range(n), p):
                for mono in (
                    MultiPoly.const(1),
                    MultiPoly.var("x_1"),
                    MultiPoly.var("x_1") * MultiPoly.var(f"x_{n}"),
                ):
                    alpha = PolyForm(chart, p, {idx: mono})
                    assert pair_ve(pair_r(n, alpha)) == alpha


def test_r_normalized():
    # R alpha vanishes when two consecutive points coincide (unit arrows)
    rng = random.Random(45)
    n = 2
    chart = base_chart(n)
    alpha = PolyForm(chart, 2, {(0, 1): random_poly(rng, _base_vars(n))})
    c = pair_r(n, alpha)
    for s in (0, 1):
        sub = {f"m{s}_{j}": MultiPoly.var(f"m{s + 1}_{j}") for j in (1, 2)}
        assert c.value.subst(sub).is_zero()


def test_r_degree_zero_is_diagonal():
    n = 2
    chart = base_chart(n)
    f = MultiPoly.var("x_1") * MultiPoly.var("x_2")
    c = pair_r(n, PolyForm(chart, 0, {(): f}))
    assert c.value == MultiPoly.var("m0_1") * MultiPoly.var("m0_2")


def test_cochain_variable_validation():
    with pytest.raises(ValueError):
        ASCochain(2, 0, MultiPoly.var("m1_1"))
    with pytest.raises(ValueError, match="form chart dimension mismatch"):
        pair_r(2, PolyForm(Chart(("x_1",)), 0, {(): MultiPoly.var("x_1")}))


def test_each_pair_record_sits_where_its_witness_does():
    # the identity's witness is a p-form, on the X side; the cochain checks'
    # witnesses are Alexander-Spanier p-cochains, on the Y side
    records = verify_pair(2, 0, 1, 2, 2)
    where = {}
    for r in records:
        where.setdefault(r["check"], []).append(r["bidegree"])
    assert where["pair_ve_pair_r_identity"] == [[0, 0], [0, 1], [0, 2]]
    assert where["delta_squared"] == where["ve_decomposable"] == [[0, 0], [1, 0], [2, 0]]
    assert all(r["status"] == "pass" for r in records)

"""End-to-end acceptance checks: every identity holds with exact rational
equality, within the stated time budgets."""

import random
import time
from fractions import Fraction
from itertools import combinations, product

import pytest

from cochainlab.forms import PolyForm, exterior_d, wedge
from cochainlab.liealg import CEElement, ce_diff
from cochainlab.nilgroup import (
    GroupCochain,
    build_group,
    group_delta,
    slot_vars,
)
from cochainlab.pairgpd import ASCochain, as_delta, base_chart, pair_r, pair_ve
from cochainlab.perturb import (
    Graded,
    graded_perturbed_h,
    matrix_instance,
    perturbed_p,
    verify_instance,
    zigzag_xy,
    zigzag_yx,
)
from cochainlab.polyalg import MultiPoly
from cochainlab.vanest import (
    BigradedElement,
    bg_h,
    bg_p_proj,
    build_double_complex,
    r_closed,
    r_zigzag,
    standard_poly_rep,
    ve_closed,
    ve_zigzag,
)

from conftest import (
    COEFFS,
    lie_bigraded,
    map_comps,
    nabla_bigraded,
    random_group_cochain,
    random_poly,
    total_diff,
)

GROUPS = ("abelian-2", "abelian-3", "heisenberg3", "filiform4")

_groups = {}


def get_group(name):
    if name not in _groups:
        _groups[name] = build_group(name)
    return _groups[name]


def _check_perturbed_identity(inst, rng, pmax, qmax, trials):
    for p in range(pmax + 1):
        for q in range(qmax + 1):
            for _ in range(trials):
                x = inst.sample(rng, p, q)
                g = Graded.of(x)
                lhs = graded_perturbed_h(inst, total_diff(inst, g)) + total_diff(
                    inst, graded_perturbed_h(inst, g)
                )
                rhs = Graded.of(x)
                px = perturbed_p(inst, x)
                if px is not None:
                    rhs = rhs - Graded.of(inst.i_inc(px))
                assert (lhs - rhs).is_zero()


def test_criterion_1_perturbation_lemma():
    start = time.monotonic()
    rng = random.Random(101)
    _check_perturbed_identity(matrix_instance(seed=101), rng, 3, 3, 25)
    group_inst = build_double_complex(get_group("heisenberg3"), max_p=2, max_q=2)
    _check_perturbed_identity(group_inst, rng, 2, 2, 25)
    assert time.monotonic() - start < 10


def test_criterion_2_right_inverse_on_basis():
    start = time.monotonic()
    for name in GROUPS:
        group = get_group(name)
        for p in range(4):
            for idx in combinations(range(group.dim), p):
                alpha = CEElement.basis(group.algebra, idx)
                assert ve_closed(r_closed(group, alpha)) == alpha
    assert time.monotonic() - start < 60


def test_criterion_3_differentiation_formulas_agree():
    start = time.monotonic()
    for name in GROUPS:
        group = get_group(name)
        inst = build_double_complex(group, max_p=3)
        rng = random.Random(103)
        for _ in range(50):
            p = rng.randrange(4)
            f = random_group_cochain(rng, group, p, max_deg=2)
            assert ve_closed(f) == ve_zigzag(f, inst)
    assert time.monotonic() - start < 120


def test_criterion_4_integration_formulas_agree():
    start = time.monotonic()
    for name in GROUPS:
        group = get_group(name)
        inst = build_double_complex(group, max_p=3)
        for p in range(4):
            for idx in combinations(range(group.dim), p):
                alpha = CEElement.basis(group.algebra, idx)
                assert r_closed(group, alpha) == r_zigzag(group, alpha, inst=inst)
    assert time.monotonic() - start < 60


def test_criterion_5_cochain_maps_and_structure():
    for name in GROUPS:
        group = get_group(name)
        rng = random.Random(105)
        for _ in range(25):
            p = rng.randrange(3)
            f = random_group_cochain(rng, group, p, max_deg=2)
            assert ve_closed(group_delta(f)) == ce_diff(ve_closed(f))
            assert group_delta(group_delta(f)).is_zero()
            q = rng.randrange(min(3, group.dim))
            comps = {
                idx: [rng.choice(COEFFS)]
                for idx in combinations(range(group.dim), q)
            }
            alpha = CEElement(group.algebra, None, q, comps)
            assert r_closed(group, ce_diff(alpha)) == group_delta(r_closed(group, alpha))
            assert ce_diff(ce_diff(alpha)).is_zero()
        # homotopy and side-condition identities via the instance suite
        inst = build_double_complex(group, max_p=2, max_q=2)
        reports = verify_instance(inst, seed=105, trials=2)
        assert [r for r in reports if r["status"] == "fail"] == []


def test_criterion_6_pair_groupoid_identity():
    start = time.monotonic()
    for n in (1, 2, 3):
        chart = base_chart(n)
        names = [f"x_{j}" for j in range(1, n + 1)]
        monomials = [MultiPoly.const(1)]
        monomials += [MultiPoly.var(v) for v in names]
        monomials += [
            MultiPoly.var(a) * MultiPoly.var(b)
            for a, b in product(names, repeat=2)
        ]
        for p in range(min(3, n) + 1):
            for idx in combinations(range(n), p):
                for mono in monomials:
                    alpha = PolyForm(chart, p, {idx: mono})
                    assert pair_ve(pair_r(n, alpha)) == alpha
        # differentiation reproduces f0 df1 ^ ... ^ dfp on decomposables
        rng = random.Random(106)
        for p in range(min(3, n) + 1):
            factors = [random_poly(rng, names, 2) for _ in range(p + 1)]
            c = ASCochain.decomposable(n, factors)
            expected = PolyForm(chart, 0, {(): factors[0]})
            for f in factors[1:]:
                expected = wedge(expected, exterior_d(PolyForm(chart, 0, {(): f})))
            assert pair_ve(c) == expected
    assert time.monotonic() - start < 60


def test_criterion_7_circle_winding_and_side_condition_failure():
    from cochainlab.cech_derham import (
        GlobalForm,
        PwPoly,
        cech_instance,
        circle_integrate,
        collate,
        default_cover,
        winding_cocycle,
    )

    # collating the winding cocycle gives a global 1-form of integral one
    c = winding_cocycle()
    g = collate(c)
    assert circle_integrate(g) == Fraction(1)

    # side conditions fail with stored witnesses ...
    inst = cech_instance()
    reports = verify_instance(inst, seed=107, trials=4)
    side_fails = [r for r in reports if r["status"] == "fail"]
    assert {r["check"] for r in side_fails} == {"side_hk", "side_pk"}
    assert all("counterexample" in r for r in side_fails)
    others = [
        r for r in reports
        if r["check"] not in ("side_hk", "side_pk") and r["status"] != "pass"
    ]
    assert others == []

    # ... so the back-and-forth composite is NOT the identity: witness dx
    grid = default_cover().grid
    witness = GlobalForm(1, PwPoly.on(grid, range(len(grid) - 1), MultiPoly.const(1)))
    back = zigzag_xy(inst, zigzag_yx(inst, witness))
    difference = back - witness
    assert not difference.fn.is_zero()
    # while the discrepancy is exact: zero circle integral
    assert circle_integrate(GlobalForm(1, difference.fn)) == Fraction(0)


def test_criterion_8_normalized_subcomplex():
    # integration outputs vanish whenever an argument is the unit
    for name in ("abelian-2", "heisenberg3"):
        group = get_group(name)
        n = group.dim
        for p in range(1, 4):
            for idx in combinations(range(n), p):
                f = r_closed(group, CEElement.basis(group.algebra, idx))
                for s in range(1, p + 1):
                    sub = {v: 0 for v in slot_vars(s, n)}
                    assert all(v.subst(sub).is_zero() for v in f.values)

    # h h = 0 and p-hat h = 0 on normalized samples
    group = get_group("heisenberg3")
    rep = standard_poly_rep(group)
    rng = random.Random(108)
    n = group.dim
    for _ in range(10):
        q = rng.randrange(3)
        fibers = [f"y_{j}" for j in range(1, n + 1)]
        vars2 = fibers + [v for s in (1, 2) for v in slot_vars(s, n)]
        comps = {
            idx: tuple(random_poly(rng, vars2, 2) for _ in range(rep.dim))
            for idx in combinations(range(n), q)
        }
        norm2 = MultiPoly.var(f"g1_{1 + rng.randrange(n)}") * MultiPoly.var(
            f"g2_{1 + rng.randrange(n)}"
        )
        psi2 = map_comps(
            BigradedElement(group, rep, 2, q, comps), lambda c: c * norm2
        )
        assert bg_h(bg_h(psi2)).is_zero()

        vars1 = fibers + list(slot_vars(1, n))
        comps1 = {
            idx: tuple(random_poly(rng, vars1, 2) for _ in range(rep.dim))
            for idx in combinations(range(n), q)
        }
        psi1 = map_comps(
            BigradedElement(group, rep, 1, q, comps1),
            lambda c: c * MultiPoly.var(f"g1_{1 + rng.randrange(n)}"),
        )
        assert bg_p_proj(bg_h(psi1)).is_zero()


def test_criterion_9_intertwining_invariants():
    group = get_group("heisenberg3")
    rep = standard_poly_rep(group)
    rng = random.Random(109)
    n = group.dim
    fibers = [f"y_{j}" for j in range(1, n + 1)]
    for _ in range(10):
        p = 2
        q = rng.randrange(3)
        variables = fibers + [v for s in range(1, p + 1) for v in slot_vars(s, n)]
        comps = {
            idx: tuple(random_poly(rng, variables, 2) for _ in range(rep.dim))
            for idx in combinations(range(n), q)
        }
        psi = BigradedElement(group, rep, p, q, comps)
        xi = [rng.choice(COEFFS) for _ in range(n)]
        # interior covariant derivatives commute with the contraction
        assert bg_h(nabla_bigraded(1, xi, psi)) == nabla_bigraded(1, xi, bg_h(psi))
        # the outer derivative exchanges with the module Lie derivative
        lhs = lie_bigraded(xi, bg_h(psi))
        rhs = bg_h(nabla_bigraded(p, xi, psi) + lie_bigraded(xi, psi))
        assert lhs == rhs

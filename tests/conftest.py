import dataclasses
import random
import typing
from fractions import Fraction
from itertools import combinations

import pytest

from cochainlab.cech_derham import CoverSpec, _pl
from cochainlab.forms import Chart, PolyForm, PolyVF, contract, homotopy_T, wedge
from cochainlab.nilgroup import (
    GroupCochain, build_group, left_invariant_vf, maurer_cartan_coframe, slot_vars, velocity,
)
from cochainlab.perturb import DoubleComplexInstance, Graded
from cochainlab.polyalg import MultiPoly, fiber_vars, mat_vec
from cochainlab.vanest import BigradedElement, _act, _twist

COEFFS = tuple(
    Fraction(c) for c in (-2, -1, Fraction(-1, 2), 0, Fraction(1, 2), 1, 2)
)


def instance_operator_fields():
    """The operator fields of ``DoubleComplexInstance``: its callable fields
    except the samplers."""
    hints = typing.get_type_hints(DoubleComplexInstance)
    return [
        f.name for f in dataclasses.fields(DoubleComplexInstance)
        if hints[f.name] is typing.Callable and not f.name.startswith("sample")
    ]


def random_poly(rng: random.Random, variables, max_deg=2, terms=3) -> MultiPoly:
    """Small random polynomial with coefficients from a fixed rational pool."""
    acc = MultiPoly.zero()
    for _ in range(terms):
        term = MultiPoly.const(rng.choice(COEFFS))
        for _ in range(rng.randrange(max_deg + 1)):
            term = term * MultiPoly.var(rng.choice(list(variables)))
        acc = acc + term
    return acc


def eval_at(poly: MultiPoly, point):
    """Partial evaluation; a full point yields a Fraction."""
    result = poly.subst({v: Fraction(c) for v, c in point.items()})
    if result.is_constant():
        return result.constant_value()
    return result


def total_diff(inst: DoubleComplexInstance, g: Graded) -> Graded:
    return g.map(inst.d) + g.map(inst.delta)


def map_comps(psi: BigradedElement, fn) -> BigradedElement:
    return BigradedElement(
        psi.group, psi.rep, psi.p, psi.q,
        {i: tuple(fn(c) for c in v) for i, v in psi.comps.items()},
    )


def nabla_bigraded(i, xi, psi: BigradedElement) -> BigradedElement:
    """``vanest.nabla``'s covariant derivatives on D^{p,q}; the p-th action
    moves the base point, (g_p a; a^{-1} y), instead of twisting by the
    representation."""
    group = psi.group
    vel = dict(group.slot_velocity(i, psi.p, xi))
    if i == psi.p:
        field = left_invariant_vf(group, xi).components
        vel.update(velocity(group, field, fiber_vars(group.dim), left=True))
    comps = {idx: _act(vec, vel) for idx, vec in psi.comps.items()}
    return BigradedElement(psi.group, psi.rep, psi.p, psi.q, comps)


def lie_bigraded(xi, psi: BigradedElement) -> BigradedElement:
    """Module Lie derivative: left-invariant derivative on the base point
    plus the infinitesimal V-representation."""
    # the invariant field is the velocity of the fiber point itself
    field = left_invariant_vf(psi.group, xi).components
    vel = dict(zip(fiber_vars(psi.group.dim), field))
    twist = _twist(psi.rep.infinitesimal(), xi)
    comps = {idx: _act(vec, vel, twist) for idx, vec in psi.comps.items()}
    return BigradedElement(psi.group, psi.rep, psi.p, psi.q, comps)


def form_picture(psi: BigradedElement) -> typing.Tuple[PolyForm, ...]:
    """The form picture beta = rho(y) sum_I psi_I theta^I of a bigraded
    element, one fiberwise q-form per row of V, by wedges with the
    coframe: the reference for ``vanest.frame_convert``."""
    group, rep = psi.group, psi.rep
    theta = maurer_cartan_coframe(group)
    chart = Chart(fiber_vars(group.dim))
    forms = [PolyForm.zero(chart, psi.q)] * rep.dim
    for idx, vec in psi.comps.items():
        for r, coef in enumerate(mat_vec(rep.rho, vec)):
            if coef.is_zero():
                continue
            term = PolyForm.function(chart, coef)
            for i in idx:
                term = wedge(term, theta[i])
            forms[r] = forms[r] + term
    return tuple(forms)


def components(group, rep, p, q, forms) -> BigradedElement:
    """The component picture of a form picture ``forms`` (one q-form per
    row of V), the way back from ``form_picture``:
    psi_I = rho(y)^{-1} beta(e_{i_1}^L, ..., e_{i_q}^L)."""
    chart = Chart(fiber_vars(group.dim))
    frames = [PolyVF(chart, field) for field in group.frame]
    rho_inv = rep.inverse_matrix
    comps = {}
    for idx in combinations(range(group.dim), q):
        paired = []
        for r in range(rep.dim):
            form = forms[r]
            for i in idx:
                form = contract(form, frames[i])
            paired.append(form.coefficient(()))
        comps[idx] = mat_vec(rho_inv, paired)
    return BigradedElement(group, rep, p, q, comps)


def form_path_bg_k(psi: BigradedElement) -> BigradedElement:
    """The vertical homotopy through the form picture, the reference for
    ``vanest.bg_k``: (-1)^p times ``homotopy_T`` of each form of
    ``form_picture``, read back by ``components``."""
    if psi.q == 0:
        return BigradedElement.zero(psi.group, psi.rep, psi.p, -1)
    tforms = tuple(-homotopy_T(f) if psi.p % 2 else homotopy_T(f) for f in form_picture(psi))
    return components(psi.group, psi.rep, psi.p, psi.q - 1, tforms)


def random_group_cochain(rng, group, p, max_deg=2, rep=None) -> GroupCochain:
    variables = [v for s in range(1, p + 1) for v in slot_vars(s, group.dim)]
    if rep is None:
        if not variables:
            return GroupCochain.scalar(group, 0, MultiPoly.const(rng.choice(COEFFS)))
        return GroupCochain.scalar(group, p, random_poly(rng, variables, max_deg))
    values = tuple(
        random_poly(rng, variables, max_deg)
        if variables
        else MultiPoly.const(rng.choice(COEFFS))
        for _ in range(rep.dim)
    )
    return GroupCochain(group, rep, p, values)


@pytest.fixture(scope="session")
def heisenberg_group():
    return build_group("heisenberg3")


@pytest.fixture(scope="session")
def abelian2_group():
    return build_group("abelian-2")


@pytest.fixture(scope="session")
def filiform_group():
    return build_group("filiform4")


def rotated_cover():
    """The default cover turned by 1/6: arc 0 and the intersection of arcs
    0 and 2 wrap through 0."""
    F = Fraction
    one, zero, half = F(1), F(0), F(1, 2)
    arcs = ((F(11, 12), F(17, 12)), (F(1, 4), F(3, 4)), (F(7, 12), F(13, 12)))
    pou = (
        _pl([(F(0), half), (F(1, 24), one), (F(7, 24), one),
             (F(9, 24), zero), (F(23, 24), zero), (F(1), half)]),
        _pl([(F(0), zero), (F(7, 24), zero), (F(9, 24), one),
             (F(15, 24), one), (F(17, 24), zero), (F(1), zero)]),
        _pl([(F(0), half), (F(1, 24), zero), (F(15, 24), zero),
             (F(17, 24), one), (F(23, 24), one), (F(1), half)]),
    )
    return CoverSpec(arcs, pou, (F(1, 6), F(1, 2), F(5, 6)))

"""The bigraded complex D^{p,q}(G, V) of a polynomial nilpotent group and
its structural operators.

An element of bidegree (p, q) is a V-valued function of p group slots
(variables g1_*..gp_*) and one base point (variables y_*), expanded over
the dual basis of Lambda^q g* (the "component picture").  The equivalent
"form picture" regards it as a V-valued fiberwise differential form
beta = rho(y) * sum_I psi_I theta^I built from the left-invariant coframe.
``frame_convert`` computes its dy_J coefficients from the group's coframe
table, for both of its readers: k and the integration map.

Operators:
  delta  horizontal simplicial differential (pure substitution; the
         representation twist lives in the augmentation j-hat)
  d      (-1)^p times the Chevalley-Eilenberg differential for the action
         (left-invariant derivative on the base point) + (infinitesimal
         V-representation)
  h      horizontal homotopy: (h psi)(g_1..g_{p-1}; y) =
         (-1)^p psi(g_1..g_{p-1}, y; 0)
  p-hat  evaluation at the unit: D^{0,q} -> Lambda^q g* (x) V
  i-hat  inclusion of constants
  k      (-1)^p times the linear-scaling homotopy T of the form picture,
         compiled: T is linear over functions of the slot variables, and
         T(f dy_J) = S_q(f) T(q dy_J) with S_q dividing each term of f by
         its degree in y plus q; so k scales the dy_J coefficients of the
         form picture, multiplies them by one matrix built once per group
         and q from T and the frame, and applies rho^{-1}
  q-hat  restriction to the unit base point: D^{p,0} -> group p-cochains
  j-hat  (j f)(g_1..g_p; y) = rho(y)^{-1} f(g_1..g_p)

The differentiation map is available both as a zig-zag through the
complex and as the closed permutation formula over iterated covariant
derivatives; the integration map both as a zig-zag and as the exact cube
integral of the pulled-back left-invariant form.  Their agreement is a
theorem, tested rather than assumed.

The closed differentiation formula carries only the part of a cochain that
can reach the units.  A covariant derivative is a first-order operator with
polynomial coefficients (plus a constant twist at the last slot), so it
lowers the total degree of a term by at most one; with s derivatives still
to apply, a term of total degree > s cannot reach the constant term read at
the end, and ``ve_closed`` drops it.

Every infinitesimal action (the covariant derivatives, the Lie derivative
and d) is a chain-rule derivative along invariant vector fields: a point
moved to x exp(t xi) has the left-invariant field of xi at x as velocity.
Each value's derivative is one fused ``MultiPoly.derivation``; each entry
of delta is one accumulation of its signed faces (``MultiPoly.subst_sum``),
and each entry of d one of its Chevalley-Eilenberg terms
(``liealg.ce_diff_comps``).

The coefficients V are one ``PolyRep``: its rho = exp(rho_*) twists the
group side (j-hat, the form picture, the integration map) and its rho_*
the algebra side (d, the covariant derivatives and the cochains VE returns).
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from itertools import combinations
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .forms import Chart, PolyForm, cube_integrate, pullback
from .liealg import CEElement, Representation, ce_diff, ce_diff_comps, standard_rep
from .nilgroup import (
    GroupCochain,
    PolyGroup,
    PolyRep,
    as_coeffs,
    group_delta,
    trivial_poly_rep,
)
from .perturb import SAMPLE_COEFFS, DoubleComplexInstance, zigzag_xy, zigzag_yx
from .polyalg import (
    VECTORS,
    Linear,
    MultiPoly,
    Rat,
    cube_vars,
    fiber_vars,
    format_rat,
    mat_add,
    mat_scale,
    mat_vec,
    outside_vars,
    slot_vars,
    sort_sign,
    sparse,
    to_string,
)

Index = Tuple[int, ...]


class VanEstError(ValueError):
    pass


def _zero_vec(dim: int) -> Tuple[MultiPoly, ...]:
    return tuple(MultiPoly.zero() for _ in range(dim))


class BigradedElement(Linear):
    """Element of D^{p,q}(G, V) in the component picture."""

    __slots__ = ("group", "rep", "p", "q", "comps")
    _kind = sparse(VECTORS)

    def __init__(
        self,
        group: PolyGroup,
        rep: Optional[PolyRep],
        p: int,
        q: int,
        comps: Mapping[Index, Sequence[MultiPoly]],
    ):
        rep = rep if rep is not None else trivial_poly_rep(group)
        if rep.group is not group and rep.group != group:
            raise ValueError("the representation is not one of the cochain's group")
        n = group.dim
        allowed = {*fiber_vars(n), *(v for s in range(1, p + 1) for v in slot_vars(s, n))}
        clean: Dict[Index, Tuple[MultiPoly, ...]] = {}
        for idx, vec in comps.items():
            idx = tuple(idx)
            if len(idx) != q or list(idx) != sorted(set(idx)):
                raise ValueError(f"index {idx} is not an increasing {q}-subset")
            v = tuple(vec)
            if len(v) != rep.dim:
                raise ValueError("component vector length must match rep dim")
            for c in v:
                extra = outside_vars(c, allowed)
                if extra:
                    raise ValueError(f"component uses variables outside slots: {extra}")
            if any(not c.is_zero() for c in v):
                clean[idx] = v
        super().__init__(group, rep, p, q, clean)

    @staticmethod
    def zero(group, rep, p, q) -> "BigradedElement":
        return BigradedElement(group, rep, p, q, {})

    def component(self, idx: Index) -> Tuple[MultiPoly, ...]:
        return self.comps.get(tuple(idx), _zero_vec(self.rep.dim))

    def __repr__(self):
        body = {i: tuple(to_string(c) for c in v) for i, v in self.comps.items()}
        return f"BigradedElement(p={self.p}, q={self.q}, comps={body})"


# ---------------------------------------------------------------------------
# Structural operators, component picture


def bg_delta(psi: BigradedElement) -> BigradedElement:
    """Horizontal differential: alternating sum of face substitutions; the
    last face merges g_{p+1} into the base point.  Each entry is one face
    sum, ``MultiPoly.subst_sum``: the faces are substituted straight into
    the union of their variables and summed in one accumulation, with one
    normalisation."""
    faces = psi.group.faces(psi.p)
    out = {idx: [c.subst_sum(faces) for c in vec] for idx, vec in psi.comps.items()}
    return BigradedElement(psi.group, psi.rep, psi.p + 1, psi.q, out)


def bg_h(psi: BigradedElement) -> BigradedElement:
    """(h psi)(g_1..g_{p-1}; y) = (-1)^p psi(g_1..g_{p-1}, y; 0)."""
    group, p, n = psi.group, psi.p, psi.group.dim
    if p == 0:
        return BigradedElement.zero(group, psi.rep, -1, psi.q)
    ys = fiber_vars(n)
    sub: Dict[str, object] = dict(zip(slot_vars(p, n), map(MultiPoly.var, ys)))
    sub.update(dict.fromkeys(ys, Fraction(0)))
    out = {idx: tuple(c.subst(sub) for c in vec) for idx, vec in psi.comps.items()}
    h = BigradedElement(group, psi.rep, p - 1, psi.q, out)
    return -h if p % 2 else h


def bg_d(psi: BigradedElement) -> BigradedElement:
    """Vertical differential: (-1)^p times the Chevalley-Eilenberg
    differential for the combined action (left-invariant derivative on the
    base point plus the infinitesimal V-representation), the frame fields
    and rho_* handed to ``ce_diff_comps``, which sums each entry in one
    accumulation."""
    group = psi.group
    ys = fiber_vars(group.dim)
    fields = [dict(zip(ys, field)) for field in group.frame]
    raw = ce_diff_comps(group.algebra, psi.q, psi.comps, psi.rep.infinitesimal(), fields)
    d = BigradedElement(group, psi.rep, psi.p, psi.q + 1, raw)
    return -d if psi.p % 2 else d


# ---------------------------------------------------------------------------
# Form picture and the vertical homotopy


def frame_convert(psi: BigradedElement) -> List[List[MultiPoly]]:
    """The form picture beta = rho(y) sum_I psi_I theta^I of a bigraded
    element: for each row of V, the dy_J coefficients
    f_J = sum_I coframe[J][I] (rho psi_I) over the q-subsets J in
    ``combinations`` order (``PolyGroup.coframe_table``)."""
    group, rep, q = psi.group, psi.rep, psi.q
    zero = _zero_vec(rep.dim)
    twisted = {idx: mat_vec(rep.rho, vec) for idx, vec in psi.comps.items()}
    columns = [twisted.get(idx, zero) for idx in combinations(range(group.dim), q)]
    return [mat_vec(group.coframe_table(q), row) for row in zip(*columns)]


def bg_k(psi: BigradedElement) -> BigradedElement:
    """Vertical homotopy: (-1)^p times the linear-scaling homotopy T
    applied in the form picture, compiled.  Vanishes on q = 0.

    T is linear over functions of the slot variables, and on a q-form
    T(f dy_J) = S_q(f) T(q dy_J), S_q dividing each term of f by its degree
    in y plus q (``MultiPoly.degree_scaled``).  So with the dy_J
    coefficients f_J of the form picture (``frame_convert``) and the
    group's contracted table (``PolyGroup.contracted_table``),
    k(psi)_K = (-1)^p rho^{-1} sum_J contracted[K][J] S_q(f_J): per row of
    V, one scaling and one matrix product."""
    group, rep, p, q = psi.group, psi.rep, psi.p, psi.q
    if q == 0 or not psi.comps:
        return BigradedElement.zero(group, rep, p, q - 1)
    contracted = group.contracted_table(q)
    ys = fiber_vars(group.dim)
    images = [mat_vec(contracted, [f.degree_scaled(ys, q) for f in row])
              for row in frame_convert(psi)]
    comps = {
        idx: mat_vec(rep.inverse_matrix, vec)
        for idx, vec in zip(combinations(range(group.dim), q - 1), zip(*images))
    }
    k = BigradedElement(group, rep, p, q - 1, comps)
    return -k if p % 2 else k


# ---------------------------------------------------------------------------
# Augmentations


def bg_p_proj(psi: BigradedElement) -> CEElement:
    """Evaluation at the unit: D^{0,q} -> Lambda^q g* (x) V."""
    if psi.p != 0:
        raise VanEstError("p-hat is defined on the first column only")
    zero = {v: Fraction(0) for v in fiber_vars(psi.group.dim)}
    comps = {
        idx: tuple(Fraction(c.subst(zero).constant_value()) for c in vec)
        for idx, vec in psi.comps.items()
    }
    return CEElement(psi.group.algebra, psi.rep.infinitesimal(), psi.q, comps)


def _rep_text(rep: Representation) -> str:
    """A representation of the algebra, by the matrix of each generator."""
    mats = (
        "[" + "; ".join(" ".join(map(format_rat, row)) for row in m) + "]"
        for m in rep.matrices
    )
    return f"the {rep.dim}-dimensional one with " + ", ".join(
        f"rho_*(e{i}) = {m}" for i, m in enumerate(mats, 1)
    )


def bg_i_inc(group: PolyGroup, rep: PolyRep, alpha: CEElement) -> BigradedElement:
    """Inclusion of constants: Lambda^q g* (x) V -> D^{0,q}, for alpha in
    the tangent representation of ``rep``."""
    if alpha.rep != rep.tangent:
        raise VanEstError(
            f"cochain in {_rep_text(alpha.rep)}, but the double complex is over "
            f"{_rep_text(rep.tangent)}"
        )
    comps = {
        idx: tuple(MultiPoly.const(x) for x in vec)
        for idx, vec in alpha.comps.items()
    }
    return BigradedElement(group, rep, 0, alpha.q, comps)


def bg_j_inc(f: GroupCochain) -> BigradedElement:
    """(j f)(g_1..g_p; y) = rho(y)^{-1} f(g_1..g_p)."""
    vec = mat_vec(f.rep.inverse_matrix, f.values)
    return BigradedElement(f.group, f.rep, f.p, 0, {(): vec})


def bg_q_proj(psi: BigradedElement) -> GroupCochain:
    """Restriction to the unit base point: D^{p,0} -> group p-cochains."""
    if psi.q != 0:
        raise VanEstError("q-hat is defined on the bottom row only")
    zero = {v: Fraction(0) for v in fiber_vars(psi.group.dim)}
    vec = tuple(c.subst(zero) for c in psi.component(()))
    return GroupCochain(psi.group, psi.rep, psi.p, vec)


# ---------------------------------------------------------------------------
# Covariant derivatives and Lie derivative


def _twist(inf, xi: Union[int, Sequence[Rat]]) -> List[List[Fraction]]:
    """rho_*(xi) = sum_j xi_j rho_*(e_j) as a rational matrix."""
    return mat_add(*map(mat_scale, inf.matrices, as_coeffs(len(inf.matrices), xi)))


def _act(vec, vel: Mapping[str, MultiPoly], twist=None) -> Tuple[MultiPoly, ...]:
    """Infinitesimal action on a vector of values by the chain rule:
    sum_v d(value)/dv * vel_v, plus twist . vec."""
    out = [c.derivation(vel) for c in vec]
    if twist is not None:
        return VECTORS.add(out, mat_vec(twist, vec))
    return tuple(out)


def nabla(i: int, xi: Union[int, Sequence[Rat]], f: GroupCochain) -> GroupCochain:
    """Covariant derivative along the i-th slot action, at the unit of the
    acting copy: for i < p the action is (g_i a, a^{-1} g_{i+1}); for i = p
    it is g_p a combined with the V-representation of a."""
    vel = f.group.slot_velocity(i, f.p, xi)
    twist = _twist(f.rep.infinitesimal(), xi) if i == f.p else None
    return GroupCochain(f.group, f.rep, f.p, _act(f.values, vel, twist))


# ---------------------------------------------------------------------------
# Closed-form differentiation (permutation formula)


def ve_closed(f: GroupCochain) -> CEElement:
    """Differentiation map by the closed permutation formula:
    (VE f)(xi_1..xi_p) = sum_s sign(s) nabla^{(1)}_{xi_s(1)} ...
    nabla^{(p)}_{xi_s(p)} f, evaluated at the units.

    Only the part of f that can reach the value at the units is carried.
    Each nabla is a first-order operator with polynomial coefficients (plus,
    at slot p, a constant twist), so it lowers the total degree of a term by
    at most one.  Before the step at slot s, s steps remain, so a term of
    total degree > s cannot reach the constant term read at the end, and
    it is dropped.  The steps run depth first over the ordered choices of
    basis indices, slot p first, so choices that begin alike share those
    nablas, and each slot velocity comes from the group's cache."""
    group, p = f.group, f.p
    comps = {idx: [Fraction(0)] * f.rep.dim for idx in combinations(range(group.dim), p)}

    def walk(cur: GroupCochain, slot: int, chosen: Tuple[int, ...]) -> None:
        # ``chosen`` holds the basis indices of slots slot + 1..p, in order.
        if slot == 0:
            idx, sign = sort_sign(chosen)
            comps[idx] = [
                t + sign * v.truncated(0).constant_value() for t, v in zip(comps[idx], cur.values)
            ]
            return
        jet = GroupCochain(group, f.rep, p, [v.truncated(slot) for v in cur.values])
        if jet.is_zero():
            return
        for j in range(group.dim):
            if j not in chosen:
                walk(nabla(slot, j, jet), slot - 1, (j,) + chosen)

    walk(f, p, ())
    return CEElement(group.algebra, f.rep.infinitesimal(), p, comps)


# ---------------------------------------------------------------------------
# Closed-form integration (cube integral of the pulled-back invariant form)


def gamma_map(group: PolyGroup, p: int) -> Tuple[MultiPoly, ...]:
    """The components of the scaled iterated-product map
    gamma_{t_1..t_p}(g_1..g_p) = t_1 (g_1 * (t_2 (g_2 * ... (t_p g_p))))
    with * the group law and scalars acting by coordinate scaling:
    polynomials in t1..tp, g1_*..gp_* whose value at t = (1..1) is the
    product g_1...g_p and which collapse to the unit at t1 = 0.  At p = 0
    it is the unit itself."""
    n = group.dim
    ts = [MultiPoly.var(t) for t in cube_vars(p)]
    cur = [MultiPoly.zero()] * n
    for s in range(p, 0, -1):
        prod = group.multiply([MultiPoly.var(g) for g in slot_vars(s, n)], cur)
        cur = [ts[s - 1] * c for c in prod]
    return tuple(cur)


def r_closed(group: PolyGroup, alpha: CEElement) -> GroupCochain:
    """Integration map, in alpha's representation: pull the
    (representation-twisted) left-invariant form of alpha back along
    gamma^{(p)}, integrate exactly over the unit cube, and translate the
    value back to the unit by rho(g_1...g_p)^{-1}.
    """
    rep = PolyRep(group, alpha.rep)
    p = alpha.q
    chart, cube = Chart(fiber_vars(group.dim)), Chart(cube_vars(p))
    gamma = gamma_map(group, p)
    phi = dict(zip(chart.coords, gamma))
    subsets = list(combinations(range(group.dim), p))
    vals = [cube_integrate(pullback(PolyForm(chart, p, dict(zip(subsets, row))), phi, cube))
            for row in frame_convert(bg_i_inc(group, rep, alpha))]
    # translate the V-value back to the unit, from gamma at t = (1..1)
    ones = dict.fromkeys(cube.coords, MultiPoly.const(1))
    prod = [c.subst(ones) for c in gamma]
    rho_back = rep.matrix_at(group.invert(prod))
    return GroupCochain(group, rep, p, mat_vec(rho_back, vals))


# ---------------------------------------------------------------------------
# Instance assembly and the zig-zag versions


def _random_poly(rng: random.Random, vars_: Sequence[str], max_deg: int) -> MultiPoly:
    acc = MultiPoly.zero()
    for _ in range(rng.randint(1, 4)):
        coef = rng.choice(SAMPLE_COEFFS)
        term = MultiPoly.const(coef)
        for _ in range(rng.randint(0, max_deg)):
            term = term * MultiPoly.var(rng.choice(vars_))
        acc = acc + term
    return acc


def build_double_complex(
    group: PolyGroup,
    rep: Optional[PolyRep] = None,
    max_p: int = 3,
    max_q: Optional[int] = None,
    sample_deg: int = 2,
) -> DoubleComplexInstance:
    """Assemble the van Est double complex of a polynomial group as a
    DoubleComplexInstance for the generic perturbation engine."""
    rep = rep if rep is not None else trivial_poly_rep(group)
    n = group.dim
    if max_q is None:
        max_q = n
    rep_inf = rep.infinitesimal()
    alg = group.algebra

    def sample(rng, p, q):
        vars_ = [*fiber_vars(n), *(v for s in range(1, p + 1) for v in slot_vars(s, n))]
        comps = {}
        for idx in combinations(range(n), q):
            if rng.random() < 0.4 and q > 0:
                continue
            comps[idx] = tuple(
                _random_poly(rng, vars_, sample_deg) for _ in range(rep.dim)
            )
        return BigradedElement(group, rep, p, q, comps)

    def sample_x(rng, q):
        comps = {}
        for idx in combinations(range(n), q):
            comps[idx] = tuple(rng.choice(SAMPLE_COEFFS) for _ in range(rep.dim))
        return CEElement(alg, rep_inf, q, comps)

    def sample_y(rng, p):
        vars_ = [v for s in range(1, p + 1) for v in slot_vars(s, n)]
        if not vars_:
            return GroupCochain(
                group, rep, 0,
                tuple(MultiPoly.const(rng.choice(SAMPLE_COEFFS)) for _ in range(rep.dim)),
            )
        return GroupCochain(
            group, rep, p,
            tuple(_random_poly(rng, vars_, sample_deg) for _ in range(rep.dim)),
        )

    # a one-dimensional unipotent representation is trivial
    rep_tag = "trivial" if rep.dim == 1 else f"rep{rep.dim}"
    return DoubleComplexInstance(
        name=f"group:{group.name}:{rep_tag}",
        d=bg_d, delta=bg_delta, h=bg_h,
        p_proj=bg_p_proj, i_inc=partial(bg_i_inc, group, rep), d_x=ce_diff,
        k=bg_k, q_proj=bg_q_proj, j_inc=bg_j_inc, delta_y=group_delta,
        sample=sample, sample_x=sample_x, sample_y=sample_y,
        max_p=max_p, max_q=max_q,
        side_conditions="holds",
    )


def ve_zigzag(
    f: GroupCochain, inst: Optional[DoubleComplexInstance] = None
) -> CEElement:
    """Differentiation as the explicit zig-zag through the double complex."""
    if inst is None:
        inst = build_double_complex(f.group, f.rep)
    return zigzag_xy(inst, f)


def r_zigzag(
    group: PolyGroup, alpha: CEElement, inst: Optional[DoubleComplexInstance] = None
) -> GroupCochain:
    """Integration as the explicit zig-zag through the double complex, by
    default the one of alpha's representation."""
    if inst is None:
        inst = build_double_complex(group, PolyRep(group, alpha.rep))
    return zigzag_yx(inst, alpha)


# ---------------------------------------------------------------------------
# Standard unipotent representations for the registry


def standard_poly_rep(group: PolyGroup) -> PolyRep:
    """The exponential of the algebra's standard representation
    (``liealg.standard_rep``): faithful and unipotent."""
    return PolyRep(group, standard_rep(group.algebra))

"""Differential forms with polynomial coefficients on a coordinate chart.

A ``Chart`` names the coordinates, which carry differentials; any other
variable of a coefficient is a constant, with no differential under
pullback.  Forms are stored antisymmetrically: each term is keyed by a
strictly increasing tuple of coordinate indices.

Includes the de Rham differential, wedge, pullback, contraction with
polynomial vector fields, the linear-scaling homotopy operator, and exact
integration of top-degree forms over the unit cube.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

from .polyalg import SCALARS, Linear, MultiPoly, add_into, sort_sign, sparse, sum_of_products

Index = Tuple[int, ...]


@dataclass(frozen=True)
class Chart:
    coords: Tuple[str, ...]


class PolyForm(Linear):
    """Differential form with MultiPoly coefficients on a Chart."""

    __slots__ = ("chart", "degree", "terms")
    _kind = sparse(SCALARS)

    def __init__(self, chart: Chart, degree: int, terms: Mapping[Index, MultiPoly]):
        clean: Dict[Index, MultiPoly] = {}
        for idx, coef in terms.items():
            if len(idx) != degree:
                raise ValueError(f"index {idx} does not have degree {degree}")
            sidx, sign = sort_sign(idx)
            if sign == 0 or coef.is_zero():
                continue
            c = coef if sign == 1 else -coef
            if sidx in clean:
                c = clean[sidx] + c
            if c.is_zero():
                clean.pop(sidx, None)
            else:
                clean[sidx] = c
        super().__init__(chart, degree, clean)

    @staticmethod
    def zero(chart: Chart, degree: int = 0) -> "PolyForm":
        return PolyForm(chart, degree, {})

    @staticmethod
    def function(chart: Chart, f: MultiPoly) -> "PolyForm":
        return PolyForm(chart, 0, {(): f})

    def coefficient(self, idx: Sequence[int]) -> MultiPoly:
        sidx, sign = sort_sign(idx)
        coef = self.terms.get(sidx)
        if coef is None or sign == 0:
            return MultiPoly.zero()
        return coef if sign == 1 else -coef

    def __repr__(self):
        return f"PolyForm(deg={self.degree}, terms={self.terms})"


@dataclass(frozen=True)
class PolyVF:
    """Polynomial vector field: one MultiPoly component per chart coordinate."""

    chart: Chart
    components: Tuple[MultiPoly, ...]

    def __post_init__(self):
        if len(self.components) != len(self.chart.coords):
            raise ValueError("component count must match chart dimension")


def wedge(a: PolyForm, b: PolyForm) -> PolyForm:
    if a.chart != b.chart:
        raise ValueError("wedge requires a common chart")
    products: Dict[Index, list] = {}
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            idx, sign = sort_sign(ia + ib)
            if sign == 0:
                continue
            products.setdefault(idx, []).append((sign, ca, cb))
    return _summed(a.chart, a.degree + b.degree, products)


def exterior_d(a: PolyForm) -> PolyForm:
    out: Dict[Index, MultiPoly] = {}
    for idx, coef in a.terms.items():
        for j, name in enumerate(a.chart.coords):
            dc = coef.diff(name)
            if dc.is_zero():
                continue
            sidx, sign = sort_sign((j,) + idx)
            if sign == 0:
                continue
            add_into(out, sidx, dc * sign)
    return PolyForm(a.chart, a.degree + 1, out)


def contract(a: PolyForm, x: PolyVF) -> PolyForm:
    if a.chart != x.chart:
        raise ValueError("contraction requires a common chart")
    if a.degree == 0:
        return PolyForm.zero(a.chart, 0)
    products: Dict[Index, list] = {}
    for idx, coef in a.terms.items():
        for pos, j in enumerate(idx):
            comp = x.components[j]
            if comp.is_zero():
                continue
            rest = idx[:pos] + idx[pos + 1 :]
            products.setdefault(rest, []).append(((-1) ** pos, coef, comp))
    return _summed(a.chart, a.degree - 1, products)


def _summed(chart: Chart, degree: int, products: Mapping[Index, list]) -> PolyForm:
    """The form whose coefficient at each index is the sum of that index's
    products ``(sign, a, b)``, one fused sum per index."""
    return PolyForm(chart, degree, {idx: sum_of_products(t) for idx, t in products.items()})


def pullback(a: PolyForm, phi: Mapping[str, MultiPoly], target: Chart) -> PolyForm:
    """Pull back ``a`` under the map sending each coordinate of a's chart to
    the given polynomial on ``target``.  Other variables of a's coefficients
    pass through unchanged."""
    subst = {name: phi[name] for name in a.chart.coords}
    # differential of each coordinate image, expanded in the target chart
    dphi: Dict[int, PolyForm] = {}
    for j, name in enumerate(a.chart.coords):
        img = phi[name]
        comp: Dict[Index, MultiPoly] = {}
        for tj, tname in enumerate(target.coords):
            dc = img.diff(tname)
            if not dc.is_zero():
                comp[(tj,)] = dc
        dphi[j] = PolyForm(target, 1, comp)
    out = PolyForm.zero(target, a.degree)
    for idx, coef in a.terms.items():
        term = PolyForm.function(target, coef.subst(subst))
        for j in idx:
            term = wedge(term, dphi[j])
        out = out + term
    return out


def homotopy_T(a: PolyForm) -> PolyForm:
    """Homotopy operator of the linear scaling retraction y -> t*y.

    Pulls back under the scaling, keeps the dt-component, and integrates t
    over [0, 1].  Degree drops by one; satisfies d(Ta) + T(da) = a - a(0),
    T(Ta) = 0, and (Ta)|_0 = 0.
    """
    if a.degree == 0:
        return PolyForm.zero(a.chart, 0)
    q = a.degree
    products: Dict[Index, list] = {}
    for idx, coef in a.terms.items():
        # The dt-component of the pullback of coef dy_I is a sum of
        # coef(t y) y_{i_pos} t^(q-1) dt, one per position, and a term of
        # degree e in the chart coordinates integrates to 1/(e + q) times it.
        scaled = coef.degree_scaled(a.chart.coords, q)
        for pos, j in enumerate(idx):
            rest = idx[:pos] + idx[pos + 1 :]
            products.setdefault(rest, []).append(
                ((-1) ** pos, scaled, MultiPoly.var(a.chart.coords[j])))
    return _summed(a.chart, q - 1, products)


def cube_integrate(a: PolyForm) -> MultiPoly:
    """Integrate a top-degree form over the unit cube in its coordinates.

    The coefficient of dt_1 ^ ... ^ dt_p (indices in increasing order) is
    integrated iteratively over [0, 1] in each coordinate.
    """
    p = len(a.chart.coords)
    if a.degree != p:
        raise ValueError(f"expected pure top degree {p}, got {a.degree}")
    coef = a.terms.get(tuple(range(p)), MultiPoly.zero())
    for name in a.chart.coords:
        coef = coef.defint01(name)
    return coef

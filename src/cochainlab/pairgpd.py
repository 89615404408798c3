"""The pair groupoid of coordinate space with the flat connection.

Cochains of the Alexander-Spanier complex are polynomials in p + 1 points
m0, ..., mp of R^n (variables m<i>_<j>).  Differentiation lands in
polynomial-coefficient forms on R^n (variables x_<j>): on decomposables
f_0 (x) ... (x) f_p it is f_0 df_1 ^ ... ^ df_p; in general it is the
antisymmetrized mixed-derivative formula at the diagonal, which extends it
linearly.  Integration pulls a p-form back along the iterated straight-line
geodesic map and integrates exactly over the unit cube.

``verify_pair`` is the model's verification suite (the ``pair-r<n>``
instances of the command line): sampled checks that differentiation undoes
integration, that delta^2 = 0, and the decomposable formula above, each
written as a ``perturb.check_record``.  The model has no contraction data,
so it is not a ``DoubleComplexInstance`` and expects no failures.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations
from typing import List, Sequence, Tuple

from .forms import Chart, PolyForm, cube_integrate, exterior_d, pullback, wedge
from .perturb import check_record
from .polyalg import (
    Linear, MultiPoly, base_vars, cube_vars, point_vars, slot_shift, sum_of_products, to_string,
)

Index = Tuple[int, ...]


def base_chart(n: int) -> Chart:
    return Chart(base_vars(n))


class ASCochain(Linear):
    """Alexander-Spanier p-cochain: a polynomial in the p + 1 points
    m0, ..., mp of R^n."""

    __slots__ = ("n", "degree", "value")

    def __init__(self, n: int, degree: int, value: MultiPoly):
        allowed = {v for s in range(degree + 1) for v in point_vars(s, n)}
        extra = set(value.support()) - allowed
        if extra:
            raise ValueError(f"cochain uses variables outside its points: {extra}")
        super().__init__(n, degree, value)

    @staticmethod
    def decomposable(n: int, factors: Sequence[MultiPoly]) -> "ASCochain":
        """f_0 (x) ... (x) f_p from polynomials in x_1..x_n: factor s is
        re-read at the point m_s."""
        acc = MultiPoly.const(1)
        for s, f in enumerate(factors):
            acc = acc * f.subst(dict(zip(base_vars(n), map(MultiPoly.var, point_vars(s, n)))))
        return ASCochain(n, len(factors) - 1, acc)

    def __repr__(self):
        return f"ASCochain(n={self.n}, p={self.degree}, {to_string(self.value)})"


def as_delta(f: ASCochain) -> ASCochain:
    """Alexander-Spanier differential: alternating sum of point omissions,
    (delta f)(m_0..m_{p+1}) = sum_i (-1)^i f(.., m_i omitted, ..)."""
    n, p = f.n, f.degree
    # omit point i: old point s >= i reads the new point s + 1
    faces = (((-1) ** i, f.value.subst(slot_shift("m", i, p, n)), 1) for i in range(p + 2))
    return ASCochain(n, p + 1, sum_of_products(faces))


def pair_ve(f: ASCochain) -> PolyForm:
    """Differentiation: sum over coordinate tuples (j_1..j_p) of
    (d/dm1_{j_1}) ... (d/dmp_{j_p}) f at the diagonal, wedged into
    dx_{j_1} ^ ... ^ dx_{j_p}.  On decomposables this is
    f_0 df_1 ^ ... ^ df_p."""
    n, p = f.n, f.degree
    chart = base_chart(n)
    points = [point_vars(s, n) for s in range(p + 1)]
    xs = [MultiPoly.var(x) for x in chart.coords]
    diag = {m: x for ms in points for m, x in zip(ms, xs)}
    terms = {}
    for idx in permutations(range(n), p):
        g = f.value
        for s, j in enumerate(idx, start=1):
            g = g.diff(points[s][j])
            if g.is_zero():
                break
        else:
            terms[idx] = g.subst(diag)
    return PolyForm(chart, p, terms)


def geodesic_map(n: int, p: int) -> Tuple[MultiPoly, ...]:
    """Iterated straight-line geodesic rho^{(p)}_{t_1..t_p}(m_0..m_p),
    defined by rho_t(a, b) = (1-t) a + t b and the recursion
    rho^{(p)} = rho_{t_1}(m_0, rho^{(p-1)}(m_1..m_p))."""
    ts = [MultiPoly.var(t) for t in cube_vars(p)]
    cur = [MultiPoly.var(m) for m in point_vars(p, n)]
    for s in range(p - 1, -1, -1):
        t = ts[s]
        one_minus = MultiPoly.const(1) - t
        ms = [MultiPoly.var(m) for m in point_vars(s, n)]
        cur = [one_minus * a + t * b for a, b in zip(ms, cur)]
    return tuple(cur)


def pair_r(n: int, alpha: PolyForm) -> ASCochain:
    """Integration: R(alpha)(m_0..m_p) = integral over the unit cube of the
    pullback of alpha along the iterated geodesic map."""
    p = alpha.degree
    if len(alpha.chart.coords) != n:
        raise ValueError("form chart dimension mismatch")
    geo = geodesic_map(n, p)
    cube = Chart(cube_vars(p))
    phi = dict(zip(base_vars(n), geo))
    return ASCochain(n, p, cube_integrate(pullback(alpha, phi, cube)))


# ---------------------------------------------------------------------------
# Verification


def form_to_string(form: PolyForm) -> str:
    """Serialize a form as a sum of ``(coefficient)*dx_i/\\dx_j`` terms."""
    if form.degree == 0:
        return to_string(form.coefficient(()))
    chunks = []
    for idx in combinations(range(len(form.chart.coords)), form.degree):
        coef = form.coefficient(idx)
        if coef.is_zero():
            continue
        body = "/\\".join(f"d{form.chart.coords[i]}" for i in idx)
        chunks.append(f"({to_string(coef)})*{body}")
    return " + ".join(chunks) if chunks else "0"


def verify_pair(n: int, seed: int, trials: int, max_p: int, max_deg: int) -> List[dict]:
    """Verification suite for the pair-groupoid maps on coordinate n-space:
    per degree p <= max_p and trial, pair_ve(pair_r(alpha)) = alpha on a
    random monomial p-form, delta^2 = 0 and pair_ve(f_0 (x) ... (x) f_p) =
    f_0 df_1 ^ ... ^ df_p on a random decomposable cochain, with factors of
    degree at most max_deg.  Each record sits where its witness does: the
    form's check at bidegree [0, p], the cochains' checks at [p, 0]."""
    rng = random.Random(seed)
    name = f"pair:r{n}"
    reports: List[dict] = []

    def run(check, bidegree, ok, witness):
        reports.append(check_record(name, check, *bidegree, ok, seed, counterexample=witness))

    chart = base_chart(n)
    base = chart.coords
    for p in range(max_p + 1):
        for _ in range(trials):
            # random monomial p-form
            idx = tuple(sorted(rng.sample(range(n), p)))
            poly = MultiPoly.const(rng.choice((-2, -1, 1, 2)))
            for _e in range(rng.randrange(max_deg + 1)):
                poly = poly * MultiPoly.var(rng.choice(base))
            alpha = PolyForm(chart, p, {idx: poly})
            back = pair_ve(pair_r(n, alpha))
            run("pair_ve_pair_r_identity", (0, p), (back - alpha).is_zero(),
                form_to_string(alpha))

            # delta^2 = 0 on random decomposable cochains
            factors = []
            for _s in range(p + 1):
                f = MultiPoly.const(rng.choice((-1, 1, 2)))
                for _e in range(rng.randrange(max_deg + 1)):
                    f = f * MultiPoly.var(rng.choice(base))
                factors.append(f)
            c = ASCochain.decomposable(n, factors)
            run("delta_squared", (p, 0), as_delta(as_delta(c)).is_zero(), repr(c))

            # differentiation of a decomposable is f0 df1 ^ ... ^ dfp
            expected = PolyForm(chart, 0, {(): factors[0]})
            for f in factors[1:]:
                expected = wedge(expected, exterior_d(PolyForm(chart, 0, {(): f})))
            run("ve_decomposable", (p, 0), (pair_ve(c) - expected).is_zero(), repr(c))
    return reports

"""Exact Cech-de Rham double complex of an arc cover of the circle R/Z.

Each cover has one grid of rational cuts: its arc endpoints and the
breakpoints of its partition of unity.  A function is one polynomial per
grid cell of its domain, and a domain (an arc or an intersection of arcs)
is a set of cells, so sums, products and restrictions go cell by cell.
Forms in degree one are f dx.  The rows of forms and of constants share one
Cech coboundary, and it and the partition-of-unity sums add up only the
components a cochain has.  The horizontal contraction comes from a
piecewise linear partition of unity (the collating zig-zag of a cocycle
produces a global form); the vertical contraction integrates
per-intersection primitives based at arc midpoints.  All double complex
identities hold exactly; the side conditions h k = 0 and p-hat k = 0
genuinely FAIL here, which is the documented counterexample to the zig-zag
back-and-forth.

Default cover: three arcs of length 1/2 centered at 0, 1/3, 2/3, with hat
functions crossfading on the middle half of each overlap (so supports are
strictly inside the arcs and extension by zero is exact).
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import combinations
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Sequence, Tuple

from .perturb import SAMPLE_COEFFS, DoubleComplexInstance, zigzag_xy
from .polyalg import SCALARS, Linear, MultiPoly, sort_sign, sparse, to_string, var_name

Interval = Tuple[Fraction, Fraction]
Index = Tuple[int, ...]

X = var_name("x")


class CechError(ValueError):
    pass


class NotCocycle(CechError):
    pass


class NonContractibleIntersection(CechError):
    pass


# ---------------------------------------------------------------------------
# Arcs and grid cells


def arc_intervals(a: Fraction, b: Fraction) -> Tuple[Interval, ...]:
    """Fundamental-domain intervals of the arc (a, b), b possibly > 1."""
    a, b = Fraction(a), Fraction(b)
    if not 0 <= a < 1 or not a < b <= a + 1:
        raise CechError(f"bad arc ({a}, {b})")
    if b <= 1:
        return ((a, b),)
    return ((a, Fraction(1)), (Fraction(0), b - 1))


def arc_cells(domain: AbstractSet[int], n: int) -> List[int]:
    """The cells of a single arc of an n-cell grid in circular order: from
    the cell after the arc's one gap (cell 0 when it has none), wrapping
    through 0 when the arc does."""
    starts = [k for k in domain if (k - 1) % n not in domain]
    if len(starts) > 1:
        raise NonContractibleIntersection("domain is not a single arc")
    start = starts[0] if starts else 0
    return [(start + i) % n for i in range(len(domain))]


# ---------------------------------------------------------------------------
# Piecewise polynomials


def _powers(p: MultiPoly) -> List[Tuple[int, Fraction]]:
    """(exponent of x, coefficient) per term of a polynomial in x."""
    if p.vars not in ((), (X,)):
        raise CechError("piecewise polynomials are univariate in x")
    return [(exp[0] if exp else 0, coef) for exp, coef in p.terms.items()]


#: The constant 1 as a polynomial in x, whose multiples are the constants,
#: and x itself.
_ONE, _X = MultiPoly((X,), {(0,): 1}), MultiPoly.var(X)


def _const(c) -> MultiPoly:
    """The constant c as a polynomial in x: every cell of a cover is a
    polynomial in x, so cellwise sums and products need no alignment."""
    return _ONE * c


def _eval(p: MultiPoly, v: Fraction) -> Fraction:
    return sum((coef * v**e for e, coef in _powers(p)), Fraction(0))


def _primitive(p: MultiPoly) -> MultiPoly:
    """The primitive of p in x that vanishes at x = 0: x times each term
    over its degree plus one."""
    return _X * p.degree_scaled((X,), 1)


class PwPoly(Linear):
    """Piecewise polynomial on a fixed grid of the fundamental domain.

    grid: the cuts 0 = c_0 < c_1 < ... < c_n = 1.  cells: one entry per
    cell [c_k, c_{k+1}), a MultiPoly in x, or None outside the domain.
    Values outside the domain are undefined, not zero.  The functions of a
    cover all live on its one grid, so sums and products go cell by cell.
    """

    __slots__ = ("grid", "cells")

    def __init__(self, grid: Sequence[Fraction], cells: Sequence[Optional[MultiPoly]]):
        grid = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in grid)
        steps = zip(grid, grid[1:])
        if len(grid) < 2 or grid[0] != 0 or grid[-1] != 1 or any(a >= b for a, b in steps):
            raise CechError(f"bad grid {grid}")
        if len(cells) != len(grid) - 1:
            raise CechError("a PwPoly has one entry per grid cell")
        super().__init__(grid, tuple(cells))

    def _shape(self):
        return self.grid, self.domain()

    @staticmethod
    def on(grid: Sequence[Fraction], domain: AbstractSet[int], poly: MultiPoly) -> "PwPoly":
        """``poly`` on the cells of ``domain``.  ``grid`` is an already
        checked grid, a cover's or a PwPoly's, so it is not checked again."""
        new = object.__new__(PwPoly)
        cells = tuple(poly if k in domain else None for k in range(len(grid) - 1))
        Linear.__init__(new, grid, cells)
        return new

    @staticmethod
    def zero(grid: Sequence[Fraction], domain: AbstractSet[int]) -> "PwPoly":
        return PwPoly.on(grid, domain, _const(0))

    def domain(self) -> FrozenSet[int]:
        return frozenset(k for k, p in enumerate(self.cells) if p is not None)

    def _zip(self, other: "PwPoly", op) -> "PwPoly":
        if type(other) is not PwPoly or other.grid != self.grid:
            raise CechError("PwPoly grid mismatch")
        cells = []
        for p, q in zip(self.cells, other.cells):
            if (p is None) != (q is None):
                raise CechError("PwPoly domain mismatch")
            cells.append(None if p is None else op(p, q))
        return self._like(tuple(cells))

    def _map(self, op) -> "PwPoly":
        return self._like(tuple(None if p is None else op(p) for p in self.cells))

    def __add__(self, other: "PwPoly") -> "PwPoly":
        return self._zip(other, operator.add)

    def __mul__(self, other):
        if isinstance(other, PwPoly):
            return self._zip(other, operator.mul)
        return self._map(lambda p: p * other)

    def __neg__(self) -> "PwPoly":
        return self._map(operator.neg)

    def is_zero(self) -> bool:
        return all(p is None or p.is_zero() for p in self.cells)

    @property
    def segments(self) -> Tuple[Tuple[Fraction, Fraction, MultiPoly], ...]:
        """(lo, hi, poly) per maximal run of adjacent cells carrying one
        polynomial: a read-out that does not depend on how the function
        was computed."""
        runs: List[list] = []
        for k, p in enumerate(self.cells):
            if p is None:
                continue
            if runs and runs[-1][1] == k and runs[-1][2] == p:
                runs[-1][1] = k + 1
            else:
                runs.append([k, k + 1, p])
        return tuple((self.grid[a], self.grid[b], p) for a, b, p in runs)

    def __repr__(self):
        body = ", ".join(
            f"[{lo},{hi}): {to_string(p)}" for lo, hi, p in self.segments
        )
        return f"PwPoly({body})"

    def diff(self) -> "PwPoly":
        return self._map(lambda p: p.diff(X))

    def refine(self, grid: Sequence[Fraction]) -> "PwPoly":
        """The same function on a grid that holds every cut of this one."""
        if not set(self.grid) <= set(grid):
            raise CechError("a refinement keeps every cut")
        return PwPoly(grid, [self.cells[bisect_right(self.grid, lo) - 1] for lo in grid[:-1]])

    def restrict(self, domain: AbstractSet[int]) -> "PwPoly":
        if any(self.cells[k] is None for k in domain):
            raise CechError("restriction target not contained in domain")
        return self._like(tuple(p if k in domain else None for k, p in enumerate(self.cells)))

    def extend_zero(self, domain: AbstractSet[int]) -> "PwPoly":
        """Extend by zero to a larger domain; the function must already be
        (piecewise) zero near its boundary for this to be exact, which
        holds for partition-of-unity products."""
        zero = _const(0)
        cells = (zero if p is None and k in domain else p for k, p in enumerate(self.cells))
        return self._like(tuple(cells))

    def eval(self, point: Fraction) -> Fraction:
        point = Fraction(point) % 1
        k = bisect_right(self.grid, point) - 1
        if self.cells[k] is None and k > 0 and self.grid[k] == point:
            # a right endpoint, by continuity of the piece left of it
            k -= 1
        if self.cells[k] is None:
            raise CechError(f"point {point} outside domain")
        return _eval(self.cells[k], point)

    def integrate(self) -> Fraction:
        total = Fraction(0)
        for lo, hi, poly in self.segments:
            prim = _primitive(poly)
            total += _eval(prim, hi) - _eval(prim, lo)
        return total

    def primitive(self, basepoint: Fraction) -> "PwPoly":
        """Continuous primitive on a single-arc domain, vanishing at the
        basepoint.  Walks the arc in circular order (continuity across the
        wrap 1 = 0 when the arc straddles it)."""
        cells = list(self.cells)
        const = Fraction(0)
        for k in arc_cells(self.domain(), len(cells)):
            prim = _primitive(cells[k])
            # continuity at the junction (possibly across the wrap): const
            # currently holds the running value at the start of this cell
            const = const - _eval(prim, self.grid[k])
            cells[k] = prim + const
            const = const + _eval(prim, self.grid[k + 1])
        res = self._like(tuple(cells))
        return res - PwPoly.on(self.grid, self.domain(), _const(res.eval(basepoint)))


# ---------------------------------------------------------------------------
# Cover and partition of unity


@dataclass(frozen=True)
class CoverSpec:
    """An arc cover of the circle with a partition of unity and basepoints.

    The cover's one grid comes from its own data: the arc endpoints (mod 1)
    and the partition functions' cuts.  The partition functions are re-read
    on it, every function of the cover lives on it, and an intersection of
    arcs is a set of its cells.
    """

    arcs: Tuple[Tuple[Fraction, Fraction], ...]
    pou: Tuple[PwPoly, ...]  # full-circle functions, supp strictly in arcs
    basepoints: Tuple[Fraction, ...]  # one per arc (for the vertical homotopy)
    grid: Tuple[Fraction, ...] = field(init=False, repr=False, compare=False)
    _arc_cells: Tuple[FrozenSet[int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not len(self.arcs) == len(self.pou) == len(self.basepoints):
            raise CechError("a cover takes one partition function and one basepoint per arc")
        if not self.arcs:
            raise CechError("an empty cover has no arcs to cover the circle")
        cuts = set()  # every partition function's grid holds 0 and 1
        for i in range(len(self.arcs)):
            cuts.update(c for iv in self.intervals(i) for c in iv)
        for (a, b), x in zip(self.arcs, self.basepoints):
            if not 0 < (x - a) % 1 < b - a:
                raise CechError(f"basepoint {x} is not strictly inside the arc ({a}, {b})")
        for chi in self.pou:
            cuts.update(chi.grid)
        grid = tuple(sorted(cuts))
        # a cell lies in an arc when its left end does, read mod 1
        arcs = tuple(
            frozenset(k for k, lo in enumerate(grid[:-1]) if (lo - a) % 1 < b - a)
            for a, b in self.arcs
        )
        pou = tuple(chi.refine(grid) for chi in self.pou)
        for name, value in (("grid", grid), ("_arc_cells", arcs), ("pou", pou)):
            object.__setattr__(self, name, value)
        circle = self.intersection(())
        if not sum(pou[1:], pou[0]) == PwPoly.on(grid, circle, _const(1)):
            raise CechError("partition of unity does not sum to 1")
        for cells, chi in zip(arcs, pou):
            if not chi.restrict(circle - cells).is_zero():
                raise CechError("partition function not supported in its arc")

    def intervals(self, i: int) -> Tuple[Interval, ...]:
        return arc_intervals(*self.arcs[i])

    def intersection(self, idx: Sequence[int]) -> FrozenSet[int]:
        """The grid cells of the intersection of the arcs ``idx``; the empty
        index gives the whole circle."""
        cells = frozenset(range(len(self.grid) - 1))
        return cells.intersection(*(self._arc_cells[i] for i in idx))

    def intersection_basepoint(self, idx: Sequence[int]) -> Fraction:
        order = arc_cells(self.intersection(idx), len(self.grid) - 1)
        if not order:
            raise CechError("empty intersection has no basepoint")
        if len(idx) == 1:
            return self.basepoints[idx[0]]
        # midpoint of the overlap arc, which may wrap through 0
        lo, hi = self.grid[order[0]], self.grid[order[-1] + 1]
        if order[-1] < order[0]:
            hi += 1
        return (lo + hi) / 2 % 1


def _pl(points: Sequence[Tuple[Fraction, Fraction]]) -> PwPoly:
    """The piecewise linear function through consecutive (x, value) points
    from x = 0 to x = 1."""
    x = MultiPoly.var(X)
    cells = [
        (x - x0) * ((v1 - v0) / (x1 - x0)) + v0
        for (x0, v0), (x1, v1) in zip(points, points[1:])
    ]
    return PwPoly([x0 for x0, _ in points], cells)


def default_cover() -> CoverSpec:
    """Three arcs of length 1/2 centered at 0, 1/3, 2/3 with piecewise
    linear hats crossfading on the middle half of each overlap."""
    F = Fraction
    arcs = ((F(3, 4), F(5, 4)), (F(1, 12), F(7, 12)), (F(5, 12), F(11, 12)))
    one, zero = F(1), F(0)
    chi0 = _pl([(F(0), one), (F(1, 8), one), (F(5, 24), zero),
                (F(19, 24), zero), (F(21, 24), one), (F(1), one)])
    chi1 = _pl([(F(0), zero), (F(1, 8), zero), (F(5, 24), one),
                (F(11, 24), one), (F(13, 24), zero), (F(1), zero)])
    chi2 = _pl([(F(0), zero), (F(11, 24), zero), (F(13, 24), one),
                (F(19, 24), one), (F(21, 24), zero), (F(1), zero)])
    basepoints = (F(0), F(1, 3), F(2, 3))
    return CoverSpec(arcs, (chi0, chi1, chi2), basepoints)


# ---------------------------------------------------------------------------
# Cochains and operators


def _simplex(cover: CoverSpec, p: int, idx: Sequence[int]) -> Tuple[Index, FrozenSet[int]]:
    """``idx`` as a key of a Cech p-cochain, with its intersection: p + 1
    strictly increasing indices of arcs that meet."""
    idx = tuple(idx)
    if len(idx) != p + 1 or list(idx) != sorted(set(idx)):
        raise CechError(f"bad index {idx}")
    dom = cover.intersection(idx)
    if not dom:
        raise CechError(f"empty intersection {idx}")
    return idx, dom


class CechForm(Linear):
    """Cech p-cochain of q-forms: map from increasing (p+1)-tuples of arc
    indices (nonempty intersections only) to PwPoly coefficients (the
    coefficient of dx when q = 1)."""

    __slots__ = ("cover", "p", "q", "comps")
    _kind = sparse(SCALARS)

    def __init__(self, cover: CoverSpec, p: int, q: int, comps: Dict[Index, PwPoly]):
        clean = {}
        for idx, fn in comps.items():
            idx, dom = _simplex(cover, p, idx)
            if fn.grid != cover.grid:
                raise CechError(f"component {idx} is not on the cover's grid")
            if fn.domain() != dom:
                fn = fn.restrict(dom)
            if not fn.is_zero():
                clean[idx] = fn
        super().__init__(cover, p, q, clean)

    @staticmethod
    def zero(cover, p, q) -> "CechForm":
        return CechForm(cover, p, q, {})

    def __repr__(self):
        return f"CechForm(p={self.p}, q={self.q}, comps={self.comps})"


class GlobalForm(Linear):
    """A global q-form on the circle, at (0, q) with q in {0, 1}; fn is the
    coefficient, defined on the full fundamental domain."""

    __slots__ = ("q", "fn")
    p = 0

    def _shape(self):
        return self.q, self.fn._shape()

    def __repr__(self):
        return f"GlobalForm(q={self.q!r}, fn={self.fn!r})"


class ConstCochain(Linear):
    """Cech p-cochain at (p, 0) with constant (rational) coefficients."""

    __slots__ = ("cover", "p", "comps")
    _kind = sparse(SCALARS)
    q = 0

    def __init__(self, cover: CoverSpec, p: int, comps: Dict[Index, Fraction]):
        clean = {}
        for idx, c in comps.items():
            idx, _ = _simplex(cover, p, idx)
            c = Fraction(c)
            if c != 0:
                clean[idx] = c
        super().__init__(cover, p, clean)

    def component(self, idx) -> Fraction:
        sidx, sign = sort_sign(idx)
        if sidx is None:
            return Fraction(0)
        return self.comps.get(sidx, Fraction(0)) * sign

    def __repr__(self):
        return f"ConstCochain(p={self.p}, comps={dict(self.comps)})"


def _nonempty_tuples(cover: CoverSpec, r: int) -> List[Index]:
    return [idx for idx in combinations(range(len(cover.arcs)), r) if cover.intersection(idx)]


def _coboundary(cover: CoverSpec, p: int, comps: dict, restrict=None) -> dict:
    """The Cech coboundary of the p-cochain ``comps``: on each nonempty
    (p + 2)-tuple, sum_k (-1)^k times the component of the face without i_k,
    read through ``restrict(component, intersection)`` when given.  Faces of
    an increasing tuple are increasing, so each is a key as it stands; faces
    without a component add nothing."""
    out = {}
    for idx in _nonempty_tuples(cover, p + 2):
        dom, total = cover.intersection(idx), None
        for k in range(p + 2):
            term = comps.get(idx[:k] + idx[k + 1 :])
            if term is not None:
                term = term if restrict is None else restrict(term, dom)
                term = -term if k % 2 else term
                total = term if total is None else total + term
        if total is not None:
            out[idx] = total
    return out


def cech_delta(w: CechForm) -> CechForm:
    """(delta w)_{i_0..i_{p+1}} = sum_k (-1)^k w_{.. i_k omitted ..},
    restricted to the smaller intersection."""
    return CechForm(w.cover, w.p + 1, w.q, _coboundary(w.cover, w.p, w.comps, PwPoly.restrict))


def cech_d(w: CechForm) -> CechForm:
    """De Rham differential per intersection; zero above top degree."""
    if w.q >= 1:
        return CechForm.zero(w.cover, w.p, w.q + 1)
    return CechForm(w.cover, w.p, w.q + 1, {i: f.diff() for i, f in w.comps.items()})


def _pou_sum(w: CechForm, idx: Index) -> PwPoly:
    """sum_j chi_j w_{j idx} on the intersection of ``idx`` (the circle when
    ``idx`` is empty), each term extended by zero from its support."""
    cover = w.cover
    dom = cover.intersection(idx)
    total = None
    for j, chi in enumerate(cover.pou):
        key, sign = sort_sign((j,) + idx)
        fn = w.comps.get(key)  # key is None when j is in idx
        if fn is None:
            continue
        term = (chi.restrict(fn.domain()) * (fn if sign == 1 else -fn)).extend_zero(dom)
        total = term if total is None else total + term
    return PwPoly.zero(cover.grid, dom) if total is None else total


def pou_h(w: CechForm) -> CechForm:
    """Partition-of-unity contraction:
    (h w)_{i_0..i_{p-1}} = sum_j chi_j w_{j i_0..i_{p-1}}."""
    if w.p == 0:
        return CechForm.zero(w.cover, -1, w.q)
    out = {idx: _pou_sum(w, idx) for idx in _nonempty_tuples(w.cover, w.p)}
    return CechForm(w.cover, w.p - 1, w.q, out)


def cech_p_proj(w: CechForm) -> GlobalForm:
    """p-hat: glue a 0-cochain to the global form sum_i chi_i w_i."""
    return GlobalForm(w.q, _pou_sum(w, ()))


def cech_i_inc(cover: CoverSpec, g: GlobalForm) -> CechForm:
    """i-hat: restrict a global form to each arc."""
    comps = {
        (i,): g.fn.restrict(cover.intersection((i,))) for i in range(len(cover.arcs))
    }
    return CechForm(cover, 0, g.q, comps)


def good_cover_k(w: CechForm) -> CechForm:
    """Per-intersection Poincare homotopy: primitives of the dx-coefficient
    based at the intersection basepoints.  Zero on q = 0."""
    cover = w.cover
    if w.q != 1:
        return CechForm.zero(cover, w.p, w.q - 1)
    out = {}
    for idx, fn in w.comps.items():
        out[idx] = fn.primitive(cover.intersection_basepoint(idx))
    return CechForm(cover, w.p, 0, out)


def cech_q_proj(w: CechForm) -> ConstCochain:
    """q-hat: evaluate a cochain of functions at the intersection
    basepoints."""
    cover = w.cover
    comps = {
        idx: fn.eval(cover.intersection_basepoint(idx))
        for idx, fn in w.comps.items()
    }
    return ConstCochain(cover, w.p, comps)


def cech_j_inc(c: ConstCochain) -> CechForm:
    """j-hat: constants as locally constant functions."""
    comps = {
        idx: PwPoly.on(c.cover.grid, c.cover.intersection(idx), _const(v))
        for idx, v in c.comps.items()
    }
    return CechForm(c.cover, c.p, 0, comps)


def global_d(g: GlobalForm) -> GlobalForm:
    if g.q >= 1:
        return GlobalForm(g.q + 1, PwPoly.zero(g.fn.grid, g.fn.domain()))
    return GlobalForm(1, g.fn.diff())


def const_delta(c: ConstCochain) -> ConstCochain:
    return ConstCochain(c.cover, c.p + 1, _coboundary(c.cover, c.p, c.comps))


def circle_integrate(g: GlobalForm) -> Fraction:
    if g.q != 1:
        raise CechError("only 1-forms integrate over the circle")
    return g.fn.integrate()


# ---------------------------------------------------------------------------
# Instance and collation


def _signed(w: CechForm) -> CechForm:
    """Sign (-1)^p making the vertical operators anticommute with delta in
    the total complex."""
    return -w if w.p % 2 else w


def cech_instance(cover: Optional[CoverSpec] = None) -> DoubleComplexInstance:
    cover = cover if cover is not None else default_cover()
    n = len(cover.grid) - 1
    circle = cover.intersection(())

    def sample(rng, p, q):
        comps = {}
        for idx in _nonempty_tuples(cover, p + 1):
            poly = MultiPoly((X,), {(e,): rng.choice(SAMPLE_COEFFS) for e in range(3)})
            order = arc_cells(cover.intersection(idx), n)
            # an intersection wrapping through 0 continues past x = 1: its
            # cells after the wrap read the same polynomial at x + 1 to stay
            # smooth on the arc
            shifted = poly.subst({X: MultiPoly.var(X) + 1}) if order[-1] < order[0] else poly
            cells = [None] * n
            for k in order:
                cells[k] = poly if k >= order[0] else shifted
            comps[idx] = PwPoly(cover.grid, cells)
        return CechForm(cover, p, q, comps)

    def sample_x(rng, q):
        x = MultiPoly.var(X)
        # continuous on the circle: a * x (1 - x) + b keeps period-1 continuity
        a, b = rng.choice(SAMPLE_COEFFS), rng.choice(SAMPLE_COEFFS)
        poly = x * (1 - x) * a + b
        return GlobalForm(q, PwPoly.on(cover.grid, circle, poly))

    def sample_y(rng, p):
        comps = {
            idx: rng.choice(SAMPLE_COEFFS) for idx in _nonempty_tuples(cover, p + 1)
        }
        return ConstCochain(cover, p, comps)

    return DoubleComplexInstance(
        name="cech:circle3",
        d=lambda w: _signed(cech_d(w)),
        delta=cech_delta,
        h=pou_h,
        p_proj=cech_p_proj,
        i_inc=partial(cech_i_inc, cover),
        d_x=global_d,
        k=lambda w: _signed(good_cover_k(w)),
        q_proj=cech_q_proj,
        j_inc=cech_j_inc,
        delta_y=const_delta,
        sample=sample, sample_x=sample_x, sample_y=sample_y,
        max_p=1, max_q=1,
        side_conditions="fails",
    )


def collate(
    c: ConstCochain, inst: Optional[DoubleComplexInstance] = None
) -> GlobalForm:
    """Collating zig-zag: a constant Cech p-cocycle becomes a global closed
    p-form whose Cech class matches."""
    if not const_delta(c).is_zero():
        raise NotCocycle("input is not a Cech cocycle")
    if inst is None:
        inst = cech_instance(c.cover)
    return zigzag_xy(inst, c)


def winding_cocycle(cover: Optional[CoverSpec] = None) -> ConstCochain:
    """The degree-1 generator: c_01 = c_12 = 0, c_20 = 1 (stored as
    c_02 = -1)."""
    cover = cover if cover is not None else default_cover()
    return ConstCochain(cover, 1, {(0, 2): Fraction(-1)})

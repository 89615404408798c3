"""Exact Cech-de Rham double complex of an arc cover of the circle R/Z.

Functions are piecewise polynomials with rational breakpoints; forms in
degree one are f dx.  The horizontal contraction comes from a piecewise
linear partition of unity (the collating zig-zag of a cocycle produces a
global form); the vertical contraction integrates per-intersection
primitives based at arc midpoints.  All double complex identities hold
exactly; the side conditions h k = 0 and p-hat k = 0 genuinely FAIL here,
which is the documented counterexample to the zig-zag back-and-forth.

Default cover: three arcs of length 1/2 centered at 0, 1/3, 2/3, with hat
functions crossfading on the middle half of each overlap (so supports are
strictly inside the arcs and extension by zero is exact).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .perturb import SAMPLE_COEFFS, DoubleComplexInstance, zigzag_xy
from .polyalg import SCALARS, Linear, MultiPoly, sort_sign, sparse, to_string

Interval = Tuple[Fraction, Fraction]
Index = Tuple[int, ...]

X = "x"


class CechError(ValueError):
    pass


class NotCocycle(CechError):
    pass


class NonContractibleIntersection(CechError):
    pass


# ---------------------------------------------------------------------------
# Circle interval arithmetic (fundamental domain [0, 1))


def arc_intervals(a: Fraction, b: Fraction) -> Tuple[Interval, ...]:
    """Fundamental-domain intervals of the arc (a, b), b possibly > 1."""
    a, b = Fraction(a), Fraction(b)
    if not 0 <= a < 1 or not a < b <= a + 1:
        raise CechError(f"bad arc ({a}, {b})")
    if b <= 1:
        return ((a, b),)
    return ((a, Fraction(1)), (Fraction(0), b - 1))


def intersect_intervals(
    xs: Sequence[Interval], ys: Sequence[Interval]
) -> Tuple[Interval, ...]:
    out = []
    for lo1, hi1 in xs:
        for lo2, hi2 in ys:
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if lo < hi:
                out.append((lo, hi))
    return tuple(sorted(out))


def _length(ivs: Sequence[Interval]) -> Fraction:
    return sum((hi - lo for lo, hi in ivs), Fraction(0))


# ---------------------------------------------------------------------------
# Piecewise polynomials


def _antideriv(p: MultiPoly) -> MultiPoly:
    out = MultiPoly.zero()
    if p.is_zero():
        return out
    if p.vars not in ((), (X,)):
        raise CechError("piecewise polynomials are univariate in x")
    x = MultiPoly.var(X)
    for exp, coef in p.terms.items():
        e = exp[0] if exp else 0
        out = out + x ** (e + 1) * Fraction(coef, e + 1)
    return out


def _eval(p: MultiPoly, v: Fraction) -> Fraction:
    r = p.subst({X: Fraction(v)})
    return Fraction(r.constant_value())


class PwPoly(Linear):
    """Piecewise polynomial on a union of fundamental-domain intervals.

    segments: sorted disjoint (lo, hi, MultiPoly-in-x) triples; the union
    of the intervals is the (fixed) domain.  Values outside the domain are
    undefined, not zero.
    """

    __slots__ = ("segments",)

    def __init__(self, segments: Sequence[Tuple[Fraction, Fraction, MultiPoly]]):
        segs = sorted(
            (Fraction(lo), Fraction(hi), poly) for lo, hi, poly in segments if lo < hi
        )
        for (lo1, hi1, _), (lo2, _h, _p) in zip(segs, segs[1:]):
            if hi1 > lo2:
                raise CechError("overlapping segments")
        super().__init__(tuple(segs))

    def _shape(self):
        """The domain as maximal intervals: what ``_aligned`` requires two
        summands to share."""
        out: List[Interval] = []
        for lo, hi, _ in self.segments:
            if out and out[-1][1] == lo:
                lo = out.pop()[0]
            out.append((lo, hi))
        return tuple(out)

    @staticmethod
    def on(domain: Sequence[Interval], poly: MultiPoly) -> "PwPoly":
        return PwPoly([(lo, hi, poly) for lo, hi in domain])

    @staticmethod
    def zero(domain: Sequence[Interval]) -> "PwPoly":
        return PwPoly.on(domain, MultiPoly.zero())

    def domain(self) -> Tuple[Interval, ...]:
        return tuple((lo, hi) for lo, hi, _ in self.segments)

    def _aligned(self, other: "PwPoly"):
        cuts = sorted(
            {c for lo, hi, _ in self.segments for c in (lo, hi)}
            | {c for lo, hi, _ in other.segments for c in (lo, hi)}
        )

        def resplit(f: "PwPoly"):
            segs = []
            for lo, hi, poly in f.segments:
                pts = [lo] + [c for c in cuts if lo < c < hi] + [hi]
                for a_, b_ in zip(pts, pts[1:]):
                    segs.append((a_, b_, poly))
            return segs

        a, b = resplit(self), resplit(other)
        if [s[:2] for s in a] != [s[:2] for s in b]:
            raise CechError("PwPoly domain mismatch")
        return a, b

    def __add__(self, other: "PwPoly") -> "PwPoly":
        # The alignment is the shape check: it raises on a domain mismatch.
        a, b = self._aligned(other)
        return PwPoly([(lo, hi, p + q) for (lo, hi, p), (_, _, q) in zip(a, b)])

    def __mul__(self, other):
        if isinstance(other, PwPoly):
            a, b = self._aligned(other)
            return PwPoly([(lo, hi, p * q) for (lo, hi, p), (_, _, q) in zip(a, b)])
        return self._like(tuple((lo, hi, p * other) for lo, hi, p in self.segments))

    def __neg__(self) -> "PwPoly":
        return self._like(tuple((lo, hi, -p) for lo, hi, p in self.segments))

    def is_zero(self) -> bool:
        return all(p.is_zero() for _, _, p in self.segments)

    def __repr__(self):
        body = ", ".join(
            f"[{lo},{hi}): {to_string(p)}" for lo, hi, p in self.segments
        )
        return f"PwPoly({body})"

    def diff(self) -> "PwPoly":
        return PwPoly([(lo, hi, p.diff(X)) for lo, hi, p in self.segments])

    def restrict(self, domain: Sequence[Interval]) -> "PwPoly":
        out = []
        for lo, hi, poly in self.segments:
            for a, b in domain:
                l, h = max(lo, a), min(hi, b)
                if l < h:
                    out.append((l, h, poly))
        res = PwPoly(out)
        if _length(res.domain()) != _length(domain):
            raise CechError("restriction target not contained in domain")
        return res

    def extend_zero(self, domain: Sequence[Interval]) -> "PwPoly":
        """Extend by zero to a larger domain; the function must already be
        (piecewise) zero near its boundary for this to be exact, which
        holds for partition-of-unity products."""
        out = list(self.segments)
        own = self.domain()
        for a, b in domain:
            cuts = [a] + sorted(
                {c for lo, hi in own for c in (lo, hi) if a < c < b}
            ) + [b]
            for l, h in zip(cuts, cuts[1:]):
                covered = any(lo <= l and h <= hi for lo, hi in own)
                if not covered:
                    out.append((l, h, MultiPoly.zero()))
        return PwPoly(out)

    def eval(self, point: Fraction) -> Fraction:
        point = Fraction(point) % 1
        for lo, hi, poly in self.segments:
            if lo <= point < hi:
                return _eval(poly, point)
        # allow evaluation at a right endpoint by continuity of the piece
        for lo, hi, poly in self.segments:
            if point == hi:
                return _eval(poly, point)
        raise CechError(f"point {point} outside domain")

    def integrate(self) -> Fraction:
        total = Fraction(0)
        for lo, hi, poly in self.segments:
            prim = _antideriv(poly)
            total += _eval(prim, hi) - _eval(prim, lo)
        return total

    def is_continuous(self) -> bool:
        """Continuity at interior junctions (shared endpoints, including
        the wrap 1 = 0 when both sides are present)."""
        segs = self.segments
        for (lo1, hi1, p1), (lo2, hi2, p2) in zip(segs, segs[1:]):
            if hi1 == lo2 and _eval(p1, hi1) != _eval(p2, lo2):
                return False
        if segs and segs[0][0] == 0 and segs[-1][1] == 1:
            if _eval(segs[-1][2], Fraction(1)) != _eval(segs[0][2], Fraction(0)):
                return False
        return True

    def primitive(self, basepoint: Fraction) -> "PwPoly":
        """Continuous primitive on a single-arc domain, vanishing at the
        basepoint.  Walks the arc in circular order (continuity across the
        wrap 1 = 0 when the arc straddles it)."""
        segs = list(self.segments)
        if not segs:
            return self
        wraps = segs[0][0] == 0 and segs[-1][1] == 1 and _length(self.domain()) < 1
        if wraps:
            # start at the end of the complement gap
            gap_end = None
            for (l1, h1), (l2, h2) in zip(self.domain(), self.domain()[1:]):
                if h1 < l2:
                    if gap_end is not None:
                        raise NonContractibleIntersection(
                            "domain is not a single arc"
                        )
                    gap_end = l2
            if gap_end is None:
                raise NonContractibleIntersection("domain is not a single arc")
            order = [s for s in segs if s[0] >= gap_end] + [
                s for s in segs if s[0] < gap_end
            ]
        else:
            for (l1, h1), (l2, h2) in zip(self.domain(), self.domain()[1:]):
                if h1 < l2:
                    raise NonContractibleIntersection("domain is not a single arc")
            order = segs
        out = []
        const = Fraction(0)
        for lo, hi, poly in order:
            prim = _antideriv(poly)
            # continuity at the junction (possibly across the wrap): const
            # currently holds the running value at the start of this piece
            const = const - _eval(prim, Fraction(lo))
            out.append((lo, hi, prim + MultiPoly.const(const)))
            const = const + _eval(prim, Fraction(hi))
        res = PwPoly(out)
        return res - PwPoly.on(res.domain(), MultiPoly.const(res.eval(basepoint)))


# ---------------------------------------------------------------------------
# Cover and partition of unity


@dataclass(frozen=True)
class CoverSpec:
    arcs: Tuple[Tuple[Fraction, Fraction], ...]
    pou: Tuple[PwPoly, ...]  # full-circle functions, supp strictly in arcs
    basepoints: Tuple[Fraction, ...]  # one per arc (for the vertical homotopy)

    def __post_init__(self):
        total = self.pou[0]
        for chi in self.pou[1:]:
            total = total + chi
        if not total == PwPoly.on(total.domain(), MultiPoly.const(1)):
            raise CechError("partition of unity does not sum to 1")
        for (a, b), chi in zip(self.arcs, self.pou):
            outside = _complement(arc_intervals(a, b))
            if not chi.restrict(outside).is_zero():
                raise CechError("partition function not supported in its arc")

    def intervals(self, i: int) -> Tuple[Interval, ...]:
        return arc_intervals(*self.arcs[i])

    def intersection(self, idx: Sequence[int]) -> Tuple[Interval, ...]:
        ivs = self.intervals(idx[0])
        for i in idx[1:]:
            ivs = intersect_intervals(ivs, self.intervals(i))
        return ivs

    def intersection_basepoint(self, idx: Sequence[int]) -> Fraction:
        ivs = self.intersection(idx)
        if not ivs:
            raise CechError("empty intersection has no basepoint")
        if len(idx) == 1:
            return self.basepoints[idx[0]]
        # midpoint of the (assumed single) overlap arc
        if len(ivs) != 1:
            raise NonContractibleIntersection("intersection is not a single arc")
        lo, hi = ivs[0]
        return (lo + hi) / 2


def _complement(ivs: Sequence[Interval]) -> Tuple[Interval, ...]:
    cuts = sorted(ivs)
    out = []
    prev = Fraction(0)
    for lo, hi in cuts:
        if prev < lo:
            out.append((prev, lo))
        prev = hi
    if prev < 1:
        out.append((prev, Fraction(1)))
    return tuple(out)


def _pl(points: Sequence[Tuple[Fraction, Fraction]]) -> List[Tuple[Fraction, Fraction, MultiPoly]]:
    """Linear segments through consecutive (x, value) points."""
    segs = []
    x = MultiPoly.var(X)
    for (x0, v0), (x1, v1) in zip(points, points[1:]):
        slope = (v1 - v0) / (x1 - x0)
        poly = MultiPoly.const(v0) + (x - MultiPoly.const(x0)) * slope
        segs.append((x0, x1, poly))
    return segs


def default_cover() -> CoverSpec:
    """Three arcs of length 1/2 centered at 0, 1/3, 2/3 with piecewise
    linear hats crossfading on the middle half of each overlap."""
    F = Fraction
    arcs = ((F(3, 4), F(5, 4)), (F(1, 12), F(7, 12)), (F(5, 12), F(11, 12)))
    one, zero = F(1), F(0)

    def hat(pts):
        return PwPoly(_pl(pts))

    chi0 = hat(
        [
            (F(0), one), (F(1, 8), one), (F(5, 24), zero),
            (F(19, 24), zero), (F(21, 24), one), (F(1), one),
        ]
    )
    chi1 = hat(
        [
            (F(0), zero), (F(1, 8), zero), (F(5, 24), one),
            (F(11, 24), one), (F(13, 24), zero), (F(1), zero),
        ]
    )
    chi2 = hat(
        [
            (F(0), zero), (F(11, 24), zero), (F(13, 24), one),
            (F(19, 24), one), (F(21, 24), zero), (F(1), zero),
        ]
    )
    basepoints = (F(0), F(1, 3), F(2, 3))
    return CoverSpec(arcs, (chi0, chi1, chi2), basepoints)


# ---------------------------------------------------------------------------
# Cochains and operators


class CechForm(Linear):
    """Cech p-cochain of q-forms: map from increasing (p+1)-tuples of arc
    indices (nonempty intersections only) to PwPoly coefficients (the
    coefficient of dx when q = 1)."""

    __slots__ = ("cover", "p", "q", "comps")
    _kind = sparse(SCALARS)

    def __init__(self, cover: CoverSpec, p: int, q: int, comps: Dict[Index, PwPoly]):
        clean = {}
        for idx, fn in comps.items():
            idx = tuple(idx)
            if len(idx) != p + 1 or list(idx) != sorted(set(idx)):
                raise CechError(f"bad index {idx}")
            dom = cover.intersection(idx)
            if not dom:
                raise CechError(f"empty intersection {idx}")
            if fn.domain() != PwPoly.zero(dom).domain():
                fn = fn.restrict(dom)
            if not fn.is_zero():
                clean[idx] = fn
        super().__init__(cover, p, q, clean)

    def _shape(self):
        return self.p, self.q

    @staticmethod
    def zero(cover, p, q) -> "CechForm":
        return CechForm(cover, p, q, {})

    def component(self, idx: Sequence[int]) -> Optional[PwPoly]:
        sidx, sign = sort_sign(idx)
        if sidx is None:
            dom = self.cover.intersection(tuple(sorted(set(idx))))
            return PwPoly.zero(dom) if dom else None
        fn = self.comps.get(sidx)
        if fn is None:
            dom = self.cover.intersection(sidx)
            return PwPoly.zero(dom) if dom else None
        return fn if sign == 1 else -fn

    def __repr__(self):
        return f"CechForm(p={self.p}, q={self.q}, comps={self.comps})"


class GlobalForm(Linear):
    """A global q-form on the circle (q in {0, 1}); fn is the coefficient,
    defined on the full fundamental domain."""

    __slots__ = ("q", "fn")

    def _shape(self):
        return self.q, self.fn._shape()

    def __repr__(self):
        return f"GlobalForm(q={self.q!r}, fn={self.fn!r})"


class ConstCochain(Linear):
    """Cech p-cochain with constant (rational) coefficients."""

    __slots__ = ("cover", "p", "comps")
    _kind = sparse(SCALARS)

    def __init__(self, cover: CoverSpec, p: int, comps: Dict[Index, Fraction]):
        clean = {}
        for idx, c in comps.items():
            idx = tuple(idx)
            c = Fraction(c)
            if not cover.intersection(idx):
                raise CechError(f"empty intersection {idx}")
            if c != 0:
                clean[idx] = c
        super().__init__(cover, p, clean)

    def _shape(self):
        return self.p

    def component(self, idx) -> Fraction:
        sidx, sign = sort_sign(idx)
        if sidx is None:
            return Fraction(0)
        return self.comps.get(sidx, Fraction(0)) * sign

    def __repr__(self):
        return f"ConstCochain(p={self.p}, comps={dict(self.comps)})"


def _nonempty_tuples(cover: CoverSpec, r: int) -> List[Index]:
    out = []
    for idx in combinations(range(len(cover.arcs)), r):
        if cover.intersection(idx):
            out.append(idx)
    return out


def cech_delta(w: CechForm) -> CechForm:
    """(delta w)_{i_0..i_{p+1}} = sum_k (-1)^k w_{.. i_k omitted ..},
    restricted to the smaller intersection."""
    cover = w.cover
    if w.p < 0:
        return CechForm.zero(cover, w.p + 1, w.q)
    out: Dict[Index, PwPoly] = {}
    for idx in _nonempty_tuples(cover, w.p + 2):
        dom = cover.intersection(idx)
        acc = PwPoly.zero(dom)
        for k in range(len(idx)):
            sub = idx[:k] + idx[k + 1 :]
            fn = w.component(sub)
            if fn is None or fn.is_zero():
                continue
            term = fn.restrict(dom)
            acc = acc + (term if k % 2 == 0 else -term)
        out[idx] = acc
    return CechForm(cover, w.p + 1, w.q, out)


def cech_d(w: CechForm) -> CechForm:
    """De Rham differential per intersection; zero above top degree."""
    if w.q >= 1:
        return CechForm.zero(w.cover, w.p, w.q + 1)
    return CechForm(w.cover, w.p, w.q + 1, {i: f.diff() for i, f in w.comps.items()})


def pou_h(w: CechForm) -> CechForm:
    """Partition-of-unity contraction:
    (h w)_{i_0..i_{p-1}} = sum_j chi_j w_{j i_0..i_{p-1}} (each term
    extended by zero from its support)."""
    cover = w.cover
    if w.p == 0:
        return CechForm.zero(cover, -1, w.q)
    out: Dict[Index, PwPoly] = {}
    for idx in _nonempty_tuples(cover, w.p):
        dom = cover.intersection(idx)
        acc = PwPoly.zero(dom)
        for j in range(len(cover.arcs)):
            fn = w.component((j,) + idx)
            if fn is None or fn.is_zero():
                continue
            sup = fn.domain()
            chi = cover.pou[j].restrict(sup)
            acc = acc + (chi * fn).extend_zero(dom)
        out[idx] = acc
    return CechForm(cover, w.p - 1, w.q, out)


def cech_p_proj(w: CechForm) -> GlobalForm:
    """p-hat: glue a 0-cochain to the global form sum_i chi_i w_i."""
    cover = w.cover
    full = ((Fraction(0), Fraction(1)),)
    acc = PwPoly.zero(full)
    for (i,), fn in w.comps.items():
        chi = cover.pou[i].restrict(fn.domain())
        acc = acc + (chi * fn).extend_zero(full)
    return GlobalForm(w.q, acc)


def cech_i_inc(cover: CoverSpec, g: GlobalForm) -> CechForm:
    """i-hat: restrict a global form to each arc."""
    comps = {
        (i,): g.fn.restrict(cover.intervals(i)) for i in range(len(cover.arcs))
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


def cech_j_inc(cover: CoverSpec, c: ConstCochain) -> CechForm:
    """j-hat: constants as locally constant functions."""
    comps = {
        idx: PwPoly.on(cover.intersection(idx), MultiPoly.const(v))
        for idx, v in c.comps.items()
    }
    return CechForm(cover, c.p, 0, comps)


def global_d(g: GlobalForm) -> GlobalForm:
    if g.q >= 1:
        return GlobalForm(g.q + 1, PwPoly.zero(g.fn.domain()))
    return GlobalForm(1, g.fn.diff())


def const_delta(c: ConstCochain) -> ConstCochain:
    cover = c.cover
    out = {}
    for idx in _nonempty_tuples(cover, c.p + 2):
        acc = Fraction(0)
        for k in range(len(idx)):
            acc += c.component(idx[:k] + idx[k + 1 :]) * ((-1) ** k)
        out[idx] = acc
    return ConstCochain(cover, c.p + 1, out)


def circle_integrate(g: GlobalForm) -> Fraction:
    if g.q != 1:
        raise CechError("only 1-forms integrate over the circle")
    return g.fn.integrate()


# ---------------------------------------------------------------------------
# Instance and collation


def _signed(w: CechForm, p: int) -> CechForm:
    """Sign (-1)^p making the vertical operators anticommute with delta in
    the total complex."""
    return -w if p % 2 else w


def cech_instance(cover: Optional[CoverSpec] = None) -> DoubleComplexInstance:
    cover = cover if cover is not None else default_cover()

    def sample(rng, p, q):
        if q > 1:
            return CechForm.zero(cover, p, q)
        comps = {}
        for idx in _nonempty_tuples(cover, p + 1):
            x = MultiPoly.var(X)
            poly = MultiPoly.zero()
            for e in range(3):
                poly = poly + x ** e * rng.choice(SAMPLE_COEFFS)
            dom = cover.intersection(idx)
            segs = []
            for lo, hi in dom:
                # an intersection wrapping through 0 continues past x = 1:
                # read the same polynomial at x + 1 to stay smooth on the arc
                wrapped = len(dom) > 1 and lo == 0
                segs.append(
                    (lo, hi, poly.subst({X: x + MultiPoly.const(1)}) if wrapped else poly)
                )
            comps[idx] = PwPoly(segs)
        return CechForm(cover, p, q, comps)

    def sample_x(rng, q):
        if q > 1:
            return GlobalForm(q, PwPoly.zero(((Fraction(0), Fraction(1)),)))
        x = MultiPoly.var(X)
        # continuous on the circle: a * x (1 - x) + b keeps period-1 continuity
        a, b = rng.choice(SAMPLE_COEFFS), rng.choice(SAMPLE_COEFFS)
        poly = x * (MultiPoly.const(1) - x) * a + MultiPoly.const(b)
        return GlobalForm(q, PwPoly.on(((Fraction(0), Fraction(1)),), poly))

    def sample_y(rng, p):
        comps = {
            idx: rng.choice(SAMPLE_COEFFS) for idx in _nonempty_tuples(cover, p + 1)
        }
        return ConstCochain(cover, p, comps)

    return DoubleComplexInstance(
        name="cech:circle3",
        d=lambda p, q, w: _signed(cech_d(w), p),
        delta=lambda p, q, w: cech_delta(w),
        h=lambda p, q, w: pou_h(w),
        p_proj=lambda q, w: cech_p_proj(w),
        i_inc=lambda q, g: cech_i_inc(cover, g),
        d_x=lambda q, g: global_d(g),
        k=lambda p, q, w: _signed(good_cover_k(w), p),
        q_proj=lambda p, w: cech_q_proj(w),
        j_inc=lambda p, c: cech_j_inc(cover, c),
        delta_y=lambda p, c: const_delta(c),
        sample=sample, sample_x=sample_x, sample_y=sample_y,
        max_p=1, max_q=1,
        side_conditions="fails",
        serialize=lambda p, q, w: repr(w),
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
    return zigzag_xy(inst, c.p, c)


def winding_cocycle(cover: Optional[CoverSpec] = None) -> ConstCochain:
    """The degree-1 generator: c_01 = c_12 = 0, c_20 = 1 (stored as
    c_02 = -1)."""
    cover = cover if cover is not None else default_cover()
    return ConstCochain(cover, 1, {(0, 2): Fraction(-1)})

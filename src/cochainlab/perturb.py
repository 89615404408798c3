"""Generic homological perturbation engine over double complex instances.

A ``DoubleComplexInstance`` bundles the operators of a first-quadrant double
complex (d vertical, delta horizontal) together with a horizontal
contraction (i-hat, p-hat, h) onto the column X at p = 0, a vertical
contraction (j-hat, q-hat, k) onto the row Y at q = 0, and samplers of the
double complex, X and Y.  Elements are payloads of the vector-space
protocol that ``polyalg.Linear`` implements (+ of equal shapes, unary -,
.is_zero()).  Every element exposes its bidegree as ``p`` and ``q`` (an X
element at (0, q), a Y element at (p, 0)), and its ``str`` is its report
text.  Every operator takes the element alone, and so does every engine
function: the Neumann sums read their bound, the zig-zags their length and
the traces their bidegrees off the elements themselves.  Everything is
exact: equality means the difference is identically zero.

The engine provides the finite Neumann inversion (1 + dh)^{-1}, the
perturbed homotopy/projection h' = h(1+dh)^{-1}, p-hat' = p-hat(1+dh)^{-1},
the two zig-zag maps between X and Y, which are the perturbed projections
p-hat' j-hat and q-hat' i-hat, all read off one lazy walk of the Neumann
steps (``_steps``), and a sampling verifier for the full list of homotopy
identities, which computes each operator image of a sample once and reads
h' and p-hat' off one Neumann sum.  It owns the report format: every check
record is a ``check_record``, and the only failures an instance may expect
are the ``SIDE_CHECKS`` of one whose side conditions fail
(``expected_failures``).  A failing zig-zag back-and-forth carries the
``ZigzagTrace`` of both zig-zags: the walk's steps, whose terms carry
their Neumann signs.

Graded commutators of odd operators are used throughout:
[a, b] = a b + b a.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .polyalg import (
    SCALARS, Linear, ValueKind, add_into, clear_denominators, identity, integer_rref, mat_mul,
    sparse,
)

Bidegree = Tuple[int, int]


class PerturbError(Exception):
    pass


class NonTermination(PerturbError):
    """Neumann series produced more nonzero terms than the bidegree allows:
    some operator violates its signature."""


# ---------------------------------------------------------------------------
# Elements


def _scaled(rows, den: int):
    """Integer ``rows`` over ``den`` in lowest terms: the rows as tuples over
    a positive denominator that shares no factor with all of them; zero is
    over 1.  A factor matrix and a payload's numerators are kept so."""
    g = math.gcd(den, *(x for row in rows for x in row))
    g = -g if den < 0 else g
    return tuple(tuple(x // g for x in row) for row in rows), den // g


def _lowest(nums: Sequence[int], den: int):
    """``_scaled`` for one row of numerators."""
    (nums,), den = _scaled((nums,), den)
    return nums, den


def _add(a, b):
    """The sum of two numerator tuples over their denominators, over the
    lcm of the two."""
    (x, dx), (y, dy) = a, b
    den = math.lcm(dx, dy)
    fx, fy = den // dx, den // dy
    return _lowest([u * fx + v * fy for u, v in zip(x, y)], den)


def _scale(a, c):
    """Numerators over a denominator times the rational c."""
    c = Fraction(c)
    return _lowest([x * c.numerator for x in a[0]], a[1] * c.denominator)


class Vec(Linear):
    """Exact rational coordinate vector at bidegree (p, q); the payload
    type of matrix-model instances.

    Stored like ``MultiPoly``: ``_ints`` is a tuple of integer numerators
    over one positive denominator, in lowest terms, and zero is over 1.  So
    sums, negations, scalings and zero tests make no ``Fraction``, and
    ``entries`` is the read-only tuple of the ``Fraction``s they stand for.
    ``Vec(p, q, entries)`` takes rationals, and copies and pickles rerun it.
    """

    __slots__ = ("p", "q", "_ints")
    _kind = ValueKind(_add, lambda a: (tuple(-x for x in a[0]), a[1]), _scale,
                      lambda a: not any(a[0]))

    def __init__(self, p: int, q: int, entries: Sequence[Fraction]):
        super().__init__(p, q, _lowest(*clear_denominators(entries)))

    @staticmethod
    def over(p: int, q: int, nums: Sequence[int], den: int) -> "Vec":
        """The Vec ``nums / den`` at (p, q), for a nonzero ``den``."""
        out = object.__new__(Vec)
        Linear.__init__(out, p, q, _lowest(nums, den))
        return out

    @property
    def entries(self) -> Tuple[Fraction, ...]:
        nums, den = self._ints
        return tuple(Fraction(x, den) for x in nums)

    def _shape(self):
        return self.p, self.q, len(self._ints[0])

    def __reduce__(self):
        return Vec, (self.p, self.q, self.entries)

    def __repr__(self):
        return f"Vec(p={self.p!r}, q={self.q!r}, entries={self.entries!r})"

    def __str__(self):
        return "[" + ", ".join(str(a) for a in self.entries) + "]"


class Graded(Linear):
    """Finite formal sum of payloads, each filed under its own bidegree."""

    __slots__ = ("parts",)
    _kind = sparse(SCALARS)

    def __init__(self, parts: Dict[Bidegree, object]):
        super().__init__({bd: x for bd, x in parts.items() if not x.is_zero()})

    @staticmethod
    def of(*payloads) -> "Graded":
        """The sum of ``payloads``, each filed under its own (x.p, x.q)."""
        out: Dict[Bidegree, object] = {}
        for x in payloads:
            add_into(out, (x.p, x.q), x)
        return Graded(out)

    def component(self, p: int, q: int):
        return self.parts.get((p, q))

    def map(self, op: Callable[[object], object]) -> "Graded":
        """The images of the parts under ``op``, filed by their bidegrees."""
        return Graded.of(*map(op, self.parts.values()))


# ---------------------------------------------------------------------------
# Instances


@dataclass(frozen=True)
class DoubleComplexInstance:
    """Operator bundle consumed by the engine.

    Every operator takes an element alone and returns the element at the
    shifted bidegree, which the element exposes as ``p`` and ``q``; it must
    return a zero (or raise) outside its domain rather than silently truncating.
    ``h`` must vanish on p = 0 and ``k`` on q = 0.  The engine files every
    image under the bidegree the image itself exposes, never one it predicts.
    """

    name: str
    d: Callable  # payload at (p, q) -> payload at (p, q+1)
    delta: Callable  # payload at (p, q) -> payload at (p+1, q)
    h: Callable  # payload at (p, q) -> payload at (p-1, q); zero on p = 0
    p_proj: Callable  # payload at (0, q) -> X element of degree q
    i_inc: Callable  # X element of degree q -> payload at (0, q)
    d_x: Callable  # X element of degree q -> X element of degree q+1
    k: Callable  # payload at (p, q) -> payload at (p, q-1); zero on q = 0
    q_proj: Callable  # payload at (p, 0) -> Y element of degree p
    j_inc: Callable  # Y element of degree p -> payload at (p, 0)
    delta_y: Callable  # Y element of degree p -> Y element of degree p+1
    sample: Callable  # (rng, p, q) -> payload at (p, q)
    sample_x: Callable  # (rng, q) -> X element of degree q
    sample_y: Callable  # (rng, p) -> Y element of degree p
    max_p: int = 3
    max_q: int = 3
    #: "holds": side conditions h k = 0, p-hat k = 0 are claimed (checked,
    #: and the zig-zag back-and-forth is then also checked); "fails": they
    #: are checked and their SIDE_CHECKS expected to fail (reports carry the
    #: witness); "skip": not checked.
    side_conditions: str = "holds"


#: Coefficient pool for seeded random sampling.
SAMPLE_COEFFS = (
    Fraction(-2),
    Fraction(-1),
    Fraction(-1, 2),
    Fraction(0),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
)


# ---------------------------------------------------------------------------
# Neumann inversion and perturbed operators


def _steps(inst: DoubleComplexInstance, which: str, x, trace=None):
    """The Neumann walk from x, zeros included: x, its h image, the next
    term -d h x, its h image, and so on (which='horizontal'), or the same
    with k and delta (which='vertical').  It is lazy, so an operator runs
    only when the next step is asked for.  ``trace`` records every step,
    x under the name of the inclusion (j, respectively i) of a zig-zag."""
    if which == "horizontal":
        names, first, second = ("j", "h", "d"), inst.h, inst.d
    elif which == "vertical":
        names, first, second = ("i", "k", "delta"), inst.k, inst.delta
    else:
        raise ValueError(f"unknown direction {which!r}")
    record = (lambda name, elt: elt) if trace is None else trace.record
    yield record(names[0], x)
    while True:
        image = record(names[1], first(x))
        yield image
        x = record(names[2], -second(image))
        yield x


def _neumann_series(inst: DoubleComplexInstance, which: str, x):
    """The finite alternating sum (1 + dh)^{-1} x of the terms (-dh)^m x
    (which='horizontal'), or (1 + delta k)^{-1} x of the terms
    (-delta k)^m x (which='vertical'), together with the sum of the h
    (respectively k) images of its terms, which the walk computes: that is
    h (1 + dh)^{-1} x, respectively k (1 + delta k)^{-1} x.  At x's
    bidegree (p, q) the sum has at most p + 1 (respectively q + 1) terms;
    a zero term or image ends it, so neither operator meets a zero."""
    bound = (x.p if which == "horizontal" else x.q) + 1
    terms, images = [], []
    walk = _steps(inst, which, x)
    for term in walk:
        if term.is_zero():
            break
        if len(terms) == bound:
            raise NonTermination(
                f"Neumann series in {inst.name} exceeded {bound} terms at {(x.p, x.q)}"
            )
        terms.append(term)
        image = next(walk)
        if image.is_zero():
            break
        images.append(image)
    return Graded.of(*terms), Graded.of(*images)


def neumann_apply(
    inst: DoubleComplexInstance, which: str, p: int, q: int, x
) -> Graded:
    """(1 + dh)^{-1} x (which='horizontal') or (1 + delta k)^{-1} x
    (which='vertical'), as the finite alternating sum of (-dh)^m x or of
    (-delta k)^m x respectively.  (p, q) must be x's own bidegree."""
    if (p, q) != (x.p, x.q):
        raise ValueError(f"bidegree {(p, q)} given for an element at {(x.p, x.q)}")
    return _neumann_series(inst, which, x)[0]


def perturbed_h(inst: DoubleComplexInstance, x) -> Graded:
    """h' = h (1 + dh)^{-1}: the sum of the h images that the Neumann sum's
    steps compute."""
    return _neumann_series(inst, "horizontal", x)[1]


def perturbed_p(inst: DoubleComplexInstance, x):
    """p-hat' = p-hat (1 + dh)^{-1}; X element of degree p + q, or None if
    the Neumann sum has no component in the first column."""
    comp = neumann_apply(inst, "horizontal", x.p, x.q, x).component(0, x.p + x.q)
    return None if comp is None else inst.p_proj(comp)


def graded_perturbed_h(inst: DoubleComplexInstance, g: Graded) -> Graded:
    out = Graded({})
    for x in g.parts.values():
        out = out + perturbed_h(inst, x)
    return out


# ---------------------------------------------------------------------------
# Zig-zags


@dataclass
class ZigzagTrace:
    """The steps of a zig-zag's Neumann walk as report-ready entries: the
    operator's name, the bidegree of the element it reached and that
    element's text.  ``record`` passes the element on."""

    steps: List[dict] = field(default_factory=list)

    def record(self, opname: str, elt):
        self.steps.append({"op": opname, "bidegree": [elt.p, elt.q], "value": str(elt)})
        return elt


def zigzag_xy(inst: DoubleComplexInstance, y, trace: Optional[ZigzagTrace] = None):
    """VE = p-hat' j-hat: Y^p -> X^p (the differentiation direction).  The
    only term of (1 + dh)^{-1} j-hat y in the column p = 0 is the walk's
    (-dh)^p j-hat y, so this is (-1)^p p-hat (dh)^p j-hat y, zero or not."""
    walk = _steps(inst, "horizontal", inst.j_inc(y), trace)
    return inst.p_proj(next(itertools.islice(walk, 2 * y.p, None)))


def zigzag_yx(inst: DoubleComplexInstance, x, trace: Optional[ZigzagTrace] = None):
    """R = q-hat' i-hat: X^q -> Y^q (the integration direction), the
    vertical twin of ``zigzag_xy``: (-1)^q q-hat (delta k)^q i-hat x."""
    walk = _steps(inst, "vertical", inst.i_inc(x), trace)
    return inst.q_proj(next(itertools.islice(walk, 2 * x.q, None)))


# ---------------------------------------------------------------------------
# Verification


#: The side-condition checks h k = 0 and p-hat k = 0.  An instance whose
#: ``side_conditions`` is "fails" expects these to fail, each with a stored
#: counterexample, wherever its bidegrees let them (``expected_failures``).
SIDE_CHECKS = ("side_hk", "side_pk")


def expected_failures(inst: DoubleComplexInstance) -> Tuple[str, ...]:
    """The checks that a verification of ``inst`` must see fail, each with
    a witness: the SIDE_CHECKS of an instance whose side conditions fail,
    without h k = 0 when only p = 0 is checked, where h vanishes."""
    if inst.side_conditions != "fails":
        return ()
    return SIDE_CHECKS if inst.max_p > 0 else SIDE_CHECKS[1:]


def check_record(name, check, p, q, ok, seed, counterexample=None, trace=None) -> dict:
    """One report entry: the result of ``check`` on instance ``name`` at
    bidegree (p, q), with the counterexample of a failure and an optional
    step-by-step trace."""
    entry = {
        "instance": name,
        "check": check,
        "bidegree": [p, q],
        "status": "pass" if ok else "fail",
        "seed": seed,
    }
    if not ok and counterexample is not None:
        entry["counterexample"] = counterexample
    if trace is not None:
        entry["trace"] = trace
    return entry


def verify_instance(inst: DoubleComplexInstance, seed: int = 0, trials: int = 25) -> List[dict]:
    """Sampled verification of every homotopy identity the instance claims,
    in every bidegree up to (inst.max_p, inst.max_q).

    Per bidegree and trial: d^2 = 0, delta^2 = 0, d delta + delta d = 0,
    [h, delta] = 1 - i p-hat, the perturbed identity
    [h', d + delta] = 1 - i p-hat', [k, d] = 1 - j q-hat, p-hat i = id,
    p-hat' i = id, and (unless skipped) the side conditions h k = 0,
    p-hat k = 0; when the side conditions hold, the zig-zag back-and-forth
    zigzag_xy(zigzag_yx(x)) = x on X.  A record sits at the bidegree of its
    sample x, the counterexample of a failure; a failing back-and-forth also
    carries the steps of both zig-zags.

    Each sample x meets d, delta, k and h once: every identity reads the
    same images dx, delta x and k x, and h x, h' x, d h' x and p-hat' x are
    read off one Neumann sum (1 + dh)^{-1} x, whose steps compute them.
    [h, delta] x is the (p, q) part of [h', d + delta] x.
    """
    hk_check, pk_check = SIDE_CHECKS
    reports: List[dict] = []

    def run(check, x, diff, extra_trace=None):
        ok = diff.is_zero()
        reports.append(
            check_record(
                inst.name, check, x.p, x.q, ok, seed,
                counterexample=None if ok else str(x),
                trace=extra_trace if not ok else None,
            )
        )

    rng = random.Random(seed)
    for p in range(inst.max_p + 1):
        for q in range(inst.max_q + 1):
            for _ in range(trials):
                x = inst.sample(rng, p, q)
                dx, dlx, kx = inst.d(x), inst.delta(x), inst.k(x)
                # (1 + dh)^{-1} x and h' x, whose (p-1, q) part is h x
                inv, hpx = _neumann_series(inst, "horizontal", x)
                # i p-hat' x; the Neumann sum is x itself at p = 0
                col = x if p == 0 else inv.component(0, p + q)
                ipx = None if col is None else inst.i_inc(inst.p_proj(col))
                run("d_squared", x, inst.d(dx))
                run("delta_squared", x, inst.delta(dlx))
                run("anticommute", x, inst.d(dlx) + inst.delta(dx))
                # [h', d + delta] x = h' (d + delta) x + (d + delta) h' x, where
                # the d images of h' x are the Neumann terms after x, negated
                dgx = Graded.of(dx, dlx)  # (d + delta) x
                lhs = graded_perturbed_h(inst, dgx) + (Graded.of(x) - inv)
                lhs = lhs + hpx.map(inst.delta)
                # [h, delta] = 1 - i p-hat, read off the (p, q) part of lhs:
                # the first steps h delta x of h' delta x and delta h x
                hd = lhs.component(p, q)
                rhs = x - ipx if p == 0 else x
                run("h_delta_contraction", x, -rhs if hd is None else hd - rhs)
                # [h', d + delta] = 1 - i p-hat'
                rhs = Graded.of(x) if ipx is None else Graded.of(x, -ipx)
                run("perturbed_contraction", x, lhs - rhs)
                rhs = x - inst.j_inc(inst.q_proj(x)) if q == 0 else x
                run("k_d_contraction", x, inst.k(dx) + inst.d(kx) - rhs)
                if inst.side_conditions != "skip":
                    run(hk_check, x, inst.h(kx))
                    if p == 0 and q > 0:
                        run(pk_check, x, inst.p_proj(kx))

            # p-hat i = id and p-hat' i = id on X
            if p == 0:
                for _ in range(trials):
                    xe = inst.sample_x(rng, q)
                    ixe = inst.i_inc(xe)
                    run("p_i_identity", xe, inst.p_proj(ixe) - xe)
                    pback = perturbed_p(inst, ixe)
                    run("perturbed_p_i_identity", xe, xe if pback is None else pback - xe)

    # zig-zag back-and-forth on X, valid when the side conditions hold
    if inst.side_conditions == "holds":
        for p in range(inst.max_p + 1):
            for _ in range(trials):
                xe = inst.sample_x(rng, p)
                diff = zigzag_xy(inst, zigzag_yx(inst, xe)) - xe
                steps = None
                if not diff.is_zero():
                    trace = ZigzagTrace()
                    zigzag_xy(inst, zigzag_yx(inst, xe, trace), trace)
                    steps = trace.steps
                run("zigzag_back_and_forth", xe, diff, extra_trace=steps)

    return reports


# ---------------------------------------------------------------------------
# Matrix-model instance: an exact finite-dimensional oracle


# A factor matrix of the model is ``(rows, den)``: integer rows and one
# positive denominator, standing for rows / den, in lowest terms, like a
# ``Vec``'s numerators.  Products of factor matrices, and their images of
# payloads (``_image``), go through the matrix kernel over ``int`` and
# normalise once per result; no step makes a ``Fraction``.


def _product(*mats):
    """The product of factor matrices, from the left."""
    rows, den = mats[0]
    for other, other_den in mats[1:]:
        rows, den = mat_mul(rows, other, 0), den * other_den
    return _scaled(rows, den)


def _image(x: Vec, na: int, nb: int, p: int, q: int, a=None, b=None, sign: int = 1) -> Vec:
    """``sign`` times the image at (p, q) of the payload x under a factor
    map: x is the integer matrix V of size na x nb over its denominator,
    stored row-major (entry i * nb + j in row i, column j); a factor
    matrix ``a`` acting on the rows' side takes it to a V, and one ``b``
    on the columns' side to V b^T.  One integer product through the matrix
    kernel, normalised once."""
    nums, den = x._ints
    if len(nums) != na * nb:
        raise ValueError(f"a payload at {(x.p, x.q)} must have {na * nb} entries, not {len(nums)}")
    rows, mat_den = a or b
    if not nums:  # nothing to multiply over: the image is zero
        return Vec.over(p, q, [0] * (len(rows) * (nb if a else na)), 1)
    v = [nums[i * nb : (i + 1) * nb] for i in range(na)]
    out = mat_mul(rows, v, 0) if a else mat_mul(v, list(zip(*rows)), 0)
    return Vec.over(p, q, [c for row in out for c in row], sign * den * mat_den)


def _rand_invertible(rng: random.Random, n: int):
    """Random invertible factor matrix: unit triangular L, U with small
    entries, times a permutation.  L and U have half-integer entries, so
    they are kept as 2L and 2U over the denominator 2."""
    def unit_triangular(lower):
        rows = [
            [
                2 if i == j
                else int(2 * rng.choice(SAMPLE_COEFFS)) if (i > j) == lower else 0
                for j in range(n)
            ]
            for i in range(n)
        ]
        return rows, 2

    lower, upper = unit_triangular(True), unit_triangular(False)
    perm = list(range(n))
    rng.shuffle(perm)
    ident = identity(n, 0)
    return _product(lower, upper, ([ident[k] for k in perm], 1))


#: Dimension of the homology summand X of a random based complex, and of
#: each of its cones.
_X_DIM = 1
_CONE_DIM = 2


@dataclass(frozen=True)
class _BasedComplex:
    """Cochain complex of rational vector spaces with an exact contraction
    onto its degree-0 homology summand X of dimension _X_DIM: [h, d] = 1 - i p,
    p i = 1, and (by construction) h i = 0, h h = 0, p h = 0.  Each map is
    a factor matrix, integer rows over one positive denominator."""

    dims: Tuple[int, ...]
    d_mats: Tuple  # d_mats[p]: dims[p] -> dims[p+1]
    h_mats: Tuple  # h_mats[p]: dims[p] -> dims[p-1]
    p_mat: Tuple  # dims[0] -> _X_DIM
    i_mat: Tuple  # _X_DIM -> dims[0]

    def dim(self, p: int) -> int:
        return self.dims[p] if 0 <= p < len(self.dims) else 0

    def at(self, mats: Tuple, p: int, shift: int):
        """``mats[p]`` of ``d_mats`` (shift 1) or ``h_mats`` (shift -1), or
        outside the complex the zero map to degree p + shift."""
        if 0 <= p < len(mats) and mats[p] is not None:
            return mats[p]
        return [[0] * self.dim(p)] * self.dim(p + shift), 1


def _inverse(a):
    """Inverse of an invertible factor matrix rows / den: the fraction-free
    Gauss-Jordan elimination of [rows | 1] ends in [m 1 | m rows^{-1}], all
    integers, so the inverse is den times the right half over m."""
    rows, den = a
    n = len(rows)
    reduced, pivot = integer_rref([list(r) + e for r, e in zip(rows, identity(n, 0))])
    return _scaled([[den * x for x in row[n:]] for row in reduced], pivot)


def random_based_complex(rng: random.Random, length: int) -> _BasedComplex:
    """Random based complex of the given length (top degree), built by
    conjugating the standard model X_(0) + cones(p -> p+1) with random
    invertible changes of basis.  All contraction identities hold exactly.
    Every matrix is a factor matrix: the bases, their fraction-free
    inverses and the conjugated maps are integer matrices over one
    denominator each."""
    # standard-model coordinates of degree p: X (at p = 0 only), then the
    # cone arriving from p-1 (p >= 1), then the cone leaving to p+1 (p < length)
    def arr_off(p):
        return _X_DIM if p == 0 else 0

    def leave_off(p):
        return arr_off(p) + (_CONE_DIM if p >= 1 else 0)

    dims = [leave_off(p) + (_CONE_DIM if p < length else 0) for p in range(length + 1)]

    d_std = []
    for p in range(length):
        mat = [[0] * dims[p] for _ in range(dims[p + 1])]
        for t in range(_CONE_DIM):
            mat[arr_off(p + 1) + t][leave_off(p) + t] = 1
        d_std.append((mat, 1))
    h_std = [None]
    for p in range(1, length + 1):
        mat = [[0] * dims[p] for _ in range(dims[p - 1])]
        for t in range(_CONE_DIM):
            mat[leave_off(p - 1) + t][arr_off(p) + t] = 1
        h_std.append((mat, 1))
    p_std = (identity(dims[0], 0)[:_X_DIM], 1)
    i_std = ([row[:_X_DIM] for row in identity(dims[0], 0)], 1)
    bases = [_rand_invertible(rng, dims[p]) for p in range(length + 1)]
    inverses = [_inverse(b) for b in bases]
    d_mats = tuple(
        _product(bases[p + 1], d_std[p], inverses[p]) for p in range(length)
    )
    h_mats = (None,) + tuple(
        _product(bases[p - 1], h_std[p], inverses[p]) for p in range(1, length + 1)
    )
    p_mat = _product(p_std, inverses[0])
    i_mat = _product(bases[0], i_std)
    return _BasedComplex(tuple(dims), d_mats, h_mats, p_mat, i_mat)


def matrix_instance(seed: int = 0, max_p: int = 3) -> DoubleComplexInstance:
    """Tensor-product double complex of two random based complexes:
    delta = d_A (x) 1, d = (-1)^p 1 (x) d_B, h = h_A (x) 1,
    k = (-1)^p 1 (x) k_B, checked up to bidegree (max_p, 3).  All
    contraction hypotheses hold exactly; the side conditions h k = 0 and
    p-hat k = 0 are NOT claimed (they fail for generic bases, just like
    generic good-cover homotopies)."""
    max_q = 3
    rng = random.Random(seed)
    A = random_based_complex(rng, max_p + 2)
    B = random_based_complex(rng, max_q + 2)

    # A payload of A^p (x) B^q is the A.dim(p) x B.dim(q) matrix that
    # ``_image`` reads; X elements sit at (0, q) and Y elements at (p, 0),
    # with the _X_DIM-dimensional X in place of A^0, respectively of B^0.
    def delta(x):
        return _image(x, A.dim(x.p), B.dim(x.q), x.p + 1, x.q, a=A.at(A.d_mats, x.p, 1))

    def d(x):
        b = B.at(B.d_mats, x.q, 1)
        return _image(x, A.dim(x.p), B.dim(x.q), x.p, x.q + 1, b=b, sign=(-1) ** (x.p % 2))

    def h(x):
        return _image(x, A.dim(x.p), B.dim(x.q), x.p - 1, x.q, a=A.at(A.h_mats, x.p, -1))

    def k(x):
        b = B.at(B.h_mats, x.q, -1)
        return _image(x, A.dim(x.p), B.dim(x.q), x.p, x.q - 1, b=b, sign=(-1) ** (x.p % 2))

    def p_proj(x):
        return _image(x, A.dim(0), B.dim(x.q), 0, x.q, a=A.p_mat)

    def i_inc(xe):
        return _image(xe, _X_DIM, B.dim(xe.q), 0, xe.q, a=A.i_mat)

    def q_proj(x):
        return _image(x, A.dim(x.p), B.dim(0), x.p, 0, b=B.p_mat)

    def j_inc(ye):
        return _image(ye, A.dim(ye.p), _X_DIM, ye.p, 0, b=B.i_mat)

    def d_x(xe):
        return _image(xe, _X_DIM, B.dim(xe.q), 0, xe.q + 1, b=B.at(B.d_mats, xe.q, 1))

    def delta_y(ye):
        return _image(ye, A.dim(ye.p), _X_DIM, ye.p + 1, 0, a=A.at(A.d_mats, ye.p, 1))

    def draw(rng2, p, q, n):
        return Vec(p, q, tuple(rng2.choice(SAMPLE_COEFFS) for _ in range(n)))

    return DoubleComplexInstance(
        name=f"matrix-seed{seed}",
        d=d, delta=delta, h=h,
        p_proj=p_proj, i_inc=i_inc, d_x=d_x,
        k=k, q_proj=q_proj, j_inc=j_inc, delta_y=delta_y,
        sample=lambda rng2, p, q: draw(rng2, p, q, A.dim(p) * B.dim(q)),
        sample_x=lambda rng2, q: draw(rng2, 0, q, _X_DIM * B.dim(q)),
        sample_y=lambda rng2, p: draw(rng2, p, 0, A.dim(p) * _X_DIM),
        max_p=max_p, max_q=max_q,
        side_conditions="skip",
    )

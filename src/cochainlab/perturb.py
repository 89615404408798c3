"""Generic homological perturbation engine over double complex instances.

A ``DoubleComplexInstance`` bundles the operators of a first-quadrant double
complex (d vertical, delta horizontal) together with a horizontal
contraction (i-hat, p-hat, h) onto the column X at p = 0 and, optionally, a
vertical contraction (j-hat, q-hat, k) onto the row Y at q = 0.  Elements
are opaque payloads supporting +, unary -, and .is_zero(); operators are
closures.  Everything is exact: equality means the difference is
identically zero.

The engine provides the finite Neumann inversion (1 + dh)^{-1}, the two
zig-zag maps between X and Y, the perturbed homotopy/projection
h' = h(1+dh)^{-1}, p-hat' = p-hat(1+dh)^{-1}, and a sampling verifier for
the full list of homotopy identities.

Graded commutators of odd operators are used throughout:
[a, b] = a b + b a.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

Bidegree = Tuple[int, int]


class PerturbError(Exception):
    pass


class NonTermination(PerturbError):
    """Neumann series produced more nonzero terms than the bidegree allows:
    some operator violates its signature."""


# ---------------------------------------------------------------------------
# Elements


@dataclass(frozen=True)
class Vec:
    """Exact rational coordinate vector; the payload type of matrix-model
    instances."""

    entries: Tuple[Fraction, ...]

    def __add__(self, other: "Vec") -> "Vec":
        return Vec(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Vec":
        return Vec(tuple(-a for a in self.entries))

    def __sub__(self, other: "Vec") -> "Vec":
        return self + (-other)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def __str__(self):
        return "[" + ", ".join(str(a) for a in self.entries) + "]"


class Graded:
    """Finite formal sum of payloads indexed by bidegree."""

    __slots__ = ("parts",)

    def __init__(self, parts: Dict[Bidegree, object]):
        self.parts = {bd: x for bd, x in parts.items() if not x.is_zero()}

    @staticmethod
    def single(p: int, q: int, x) -> "Graded":
        return Graded({(p, q): x})

    def component(self, p: int, q: int, zero=None):
        return self.parts.get((p, q), zero)

    def is_zero(self) -> bool:
        return not self.parts

    def __add__(self, other: "Graded") -> "Graded":
        out = dict(self.parts)
        for bd, x in other.parts.items():
            out[bd] = out[bd] + x if bd in out else x
        return Graded(out)

    def __neg__(self) -> "Graded":
        return Graded({bd: -x for bd, x in self.parts.items()})

    def __sub__(self, other: "Graded") -> "Graded":
        return self + (-other)

    def map(self, op: Callable[[int, int, object], object], dp: int, dq: int) -> "Graded":
        out: Dict[Bidegree, object] = {}
        for (p, q), x in self.parts.items():
            y = op(p, q, x)
            if y is not None and not y.is_zero():
                bd = (p + dp, q + dq)
                out[bd] = out[bd] + y if bd in out else y
        return Graded(out)


# ---------------------------------------------------------------------------
# Instances


@dataclass(frozen=True)
class DoubleComplexInstance:
    """Operator bundle consumed by the engine.

    Operator closures take (p, q, payload) and return the payload at the
    shifted bidegree; they must return a zero payload (or raise) outside
    their domain rather than silently truncating.  ``h`` must vanish on
    p = 0 and ``k`` on q = 0.
    """

    name: str
    d: Callable  # (p, q, x) -> payload at (p, q+1)
    delta: Callable  # (p, q, x) -> payload at (p+1, q)
    h: Callable  # (p, q, x) -> payload at (p-1, q); zero on p = 0
    p_proj: Callable  # (q, payload at (0, q)) -> X element of degree q
    i_inc: Callable  # (q, X element) -> payload at (0, q)
    d_x: Callable  # (q, X element) -> X element of degree q+1
    k: Optional[Callable] = None  # (p, q, x) -> payload at (p, q-1); zero on q = 0
    q_proj: Optional[Callable] = None  # (p, payload at (p, 0)) -> Y element
    j_inc: Optional[Callable] = None  # (p, Y element) -> payload at (p, 0)
    delta_y: Optional[Callable] = None  # (p, Y element) -> Y element of degree p+1
    sample: Optional[Callable] = None  # (rng, p, q) -> payload
    sample_x: Optional[Callable] = None  # (rng, q) -> X element
    sample_y: Optional[Callable] = None  # (rng, p) -> Y element
    max_p: int = 3
    max_q: int = 3
    #: "holds": side conditions h k = 0, p-hat k = 0 are claimed (checked,
    #: and the zig-zag back-and-forth is then also checked); "fails": they
    #: are checked and expected to fail (reports carry the witness);
    #: "skip": not checked.
    side_conditions: str = "holds"
    serialize: Callable = staticmethod(lambda p, q, x: str(x))

    def has_vertical(self) -> bool:
        return self.k is not None and self.q_proj is not None and self.j_inc is not None


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


def neumann_apply(
    inst: DoubleComplexInstance, which: str, p: int, q: int, x
) -> Graded:
    """(1 + dh)^{-1} x (which='horizontal') or (1 + delta k)^{-1} x
    (which='vertical'), as the finite alternating sum of (-dh)^m x."""
    if which == "horizontal":
        def step(pp, qq, y):
            return inst.d(pp - 1, qq, inst.h(pp, qq, y))
        shift = (-1, 1)
        bound = p + 1
    elif which == "vertical":
        if inst.k is None:
            raise PerturbError("instance has no vertical homotopy")
        def step(pp, qq, y):
            return inst.delta(pp, qq - 1, inst.k(pp, qq, y))
        shift = (1, -1)
        bound = q + 1
    else:
        raise ValueError(f"unknown direction {which!r}")

    total = Graded.single(p, q, x)
    term = total
    count = 1
    while not term.is_zero():
        term = -term.map(step, *shift)
        if term.is_zero():
            break
        count += 1
        if count > bound:
            raise NonTermination(
                f"Neumann series in {inst.name} exceeded {bound} terms at {(p, q)}"
            )
        total = total + term
    return total


def perturbed_h(inst: DoubleComplexInstance, p: int, q: int, x) -> Graded:
    """h' = h (1 + dh)^{-1}."""
    return neumann_apply(inst, "horizontal", p, q, x).map(inst.h, -1, 0)


def perturbed_p(inst: DoubleComplexInstance, p: int, q: int, x):
    """p-hat' = p-hat (1 + dh)^{-1}; X element of degree p + q, or None if
    the Neumann sum has no component in the first column."""
    inv = neumann_apply(inst, "horizontal", p, q, x)
    comp = inv.component(0, p + q)
    if comp is None:
        return None
    return inst.p_proj(p + q, comp)


def total_diff(inst: DoubleComplexInstance, g: Graded) -> Graded:
    return g.map(inst.d, 0, 1) + g.map(inst.delta, 1, 0)


def graded_perturbed_h(inst: DoubleComplexInstance, g: Graded) -> Graded:
    out = Graded({})
    for (p, q), x in g.parts.items():
        out = out + perturbed_h(inst, p, q, x)
    return out


# ---------------------------------------------------------------------------
# Zig-zags


@dataclass
class ZigzagTrace:
    steps: List[Tuple[str, Bidegree, str]] = field(default_factory=list)

    def record(self, opname: str, p: int, q: int, snapshot: str):
        self.steps.append((opname, (p, q), snapshot))


def zigzag_xy(inst: DoubleComplexInstance, p: int, y, trace: Optional[ZigzagTrace] = None):
    """(-1)^p p-hat (dh)^p j-hat: Y^p -> X^p (the differentiation direction)."""
    if inst.j_inc is None:
        raise PerturbError("instance has no vertical augmentation j-hat")
    elt = inst.j_inc(p, y)
    if trace is not None:
        trace.record("j", p, 0, inst.serialize(p, 0, elt))
    for m in range(p):
        pp, qq = p - m, m
        elt = inst.h(pp, qq, elt)
        if trace is not None:
            trace.record("h", pp - 1, qq, inst.serialize(pp - 1, qq, elt))
        elt = inst.d(pp - 1, qq, elt)
        if trace is not None:
            trace.record("d", pp - 1, qq + 1, inst.serialize(pp - 1, qq + 1, elt))
    out = inst.p_proj(p, elt)
    if p % 2:
        out = -out
    return out


def zigzag_yx(inst: DoubleComplexInstance, p: int, x, trace: Optional[ZigzagTrace] = None):
    """(-1)^p q-hat (delta k)^p i-hat: X^p -> Y^p (the integration direction)."""
    if inst.k is None or inst.q_proj is None:
        raise PerturbError("instance has no vertical contraction")
    elt = inst.i_inc(p, x)
    if trace is not None:
        trace.record("i", 0, p, inst.serialize(0, p, elt))
    for m in range(p):
        pp, qq = m, p - m
        elt = inst.k(pp, qq, elt)
        if trace is not None:
            trace.record("k", pp, qq - 1, inst.serialize(pp, qq - 1, elt))
        elt = inst.delta(pp, qq - 1, elt)
        if trace is not None:
            trace.record("delta", pp + 1, qq - 1, inst.serialize(pp + 1, qq - 1, elt))
    out = inst.q_proj(p, elt)
    if p % 2:
        out = -out
    return out


# ---------------------------------------------------------------------------
# Verification


def _report(inst, check, p, q, ok, seed, counterexample=None, trace=None):
    entry = {
        "instance": inst.name,
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


def verify_instance(
    inst: DoubleComplexInstance,
    seed: int = 0,
    trials: int = 25,
    max_p: Optional[int] = None,
    max_q: Optional[int] = None,
) -> List[dict]:
    """Sampled verification of every homotopy identity the instance claims.

    Per bidegree and trial: d^2 = 0, delta^2 = 0, d delta + delta d = 0,
    [h, delta] = 1 - i p-hat, the perturbed identity
    [h', d + delta] = 1 - i p-hat', p-hat' i = id; with vertical data also
    [k, d] = 1 - j q-hat and the side conditions h k = 0, p-hat k = 0; when
    the side conditions hold, the zig-zag back-and-forth
    zigzag_xy(zigzag_yx(x)) = x on X.  Failures become report entries with
    a serialized counterexample.
    """
    if inst.sample is None:
        raise PerturbError("instance has no sampler")
    pmax = inst.max_p if max_p is None else max_p
    qmax = inst.max_q if max_q is None else max_q
    reports: List[dict] = []

    def run(check, p, q, x, diff, extra_trace=None):
        ok = diff.is_zero() if hasattr(diff, "is_zero") else not diff
        reports.append(
            _report(
                inst, check, p, q, ok, seed,
                counterexample=None if ok else inst.serialize(p, q, x),
                trace=extra_trace if not ok else None,
            )
        )

    rng = random.Random(seed)
    for p in range(pmax + 1):
        for q in range(qmax + 1):
            for _ in range(trials):
                x = inst.sample(rng, p, q)
                run("d_squared", p, q, x, inst.d(p, q + 1, inst.d(p, q, x)))
                run("delta_squared", p, q, x, inst.delta(p + 1, q, inst.delta(p, q, x)))
                anti = inst.d(p + 1, q, inst.delta(p, q, x)) + inst.delta(
                    p, q + 1, inst.d(p, q, x)
                )
                run("anticommute", p, q, x, anti)

                # [h, delta] = 1 - i p-hat
                hd = inst.h(p + 1, q, inst.delta(p, q, x)) + inst.delta(
                    p - 1, q, inst.h(p, q, x)
                )
                rhs = x
                if p == 0:
                    rhs = rhs - inst.i_inc(q, inst.p_proj(q, x))
                run("h_delta_contraction", p, q, x, hd - rhs)

                # perturbed identity [h', d + delta] = 1 - i p-hat'
                g = Graded.single(p, q, x)
                lhs = graded_perturbed_h(inst, total_diff(inst, g)) + total_diff(
                    inst, graded_perturbed_h(inst, g)
                )
                rhs_g = Graded.single(p, q, x)
                px = perturbed_p(inst, p, q, x)
                if px is not None:
                    rhs_g = rhs_g - Graded.single(0, p + q, inst.i_inc(p + q, px))
                run("perturbed_contraction", p, q, x, lhs - rhs_g)

                if inst.has_vertical():
                    kd = inst.k(p, q + 1, inst.d(p, q, x)) + inst.d(
                        p, q - 1, inst.k(p, q, x)
                    )
                    rhs = x
                    if q == 0:
                        rhs = rhs - inst.j_inc(p, inst.q_proj(p, x))
                    run("k_d_contraction", p, q, x, kd - rhs)

                    if inst.side_conditions != "skip":
                        hk = inst.h(p, q - 1, inst.k(p, q, x))
                        run("side_hk", p, q, x, hk)
                        if p == 0 and q > 0:
                            pk = inst.p_proj(q - 1, inst.k(0, q, x))
                            run("side_pk", p, q, x, pk)

            # p-hat i = id and p-hat' i = id on X
            if p == 0 and inst.sample_x is not None:
                for _ in range(trials):
                    xe = inst.sample_x(rng, q)
                    back = inst.p_proj(q, inst.i_inc(q, xe))
                    run("p_i_identity", 0, q, xe, back - xe)
                    pback = perturbed_p(inst, 0, q, inst.i_inc(q, xe))
                    run(
                        "perturbed_p_i_identity", 0, q, xe,
                        xe if pback is None else pback - xe,
                    )

    # zig-zag back-and-forth on X, valid when the side conditions hold
    if inst.has_vertical() and inst.side_conditions == "holds" and inst.sample_x is not None:
        for p in range(pmax + 1):
            for _ in range(trials):
                xe = inst.sample_x(rng, p)
                round_trip = zigzag_xy(inst, p, zigzag_yx(inst, p, xe))
                run("zigzag_back_and_forth", p, 0, xe, round_trip - xe)

    return reports


# ---------------------------------------------------------------------------
# Matrix-model instance: an exact finite-dimensional oracle


def _rand_fraction(rng: random.Random) -> Fraction:
    return rng.choice(SAMPLE_COEFFS)


def _rand_invertible(rng: random.Random, n: int) -> List[List[Fraction]]:
    """Random invertible rational matrix: unit triangular L, U with small
    entries, times a permutation."""
    lower = [
        [
            Fraction(1) if i == j else (_rand_fraction(rng) if i > j else Fraction(0))
            for j in range(n)
        ]
        for i in range(n)
    ]
    upper = [
        [
            Fraction(1) if i == j else (_rand_fraction(rng) if i < j else Fraction(0))
            for j in range(n)
        ]
        for i in range(n)
    ]
    perm = list(range(n))
    rng.shuffle(perm)
    pmat = [
        [Fraction(1) if j == perm[i] else Fraction(0) for j in range(n)]
        for i in range(n)
    ]
    return _mm(_mm(lower, upper), pmat)


def _mm(a, b):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    return [
        [sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(m)]
        for i in range(n)
    ]


def _mat_inv(a):
    n = len(a)
    aug = [row[:] + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [e * inv for e in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [e - f * p for e, p in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _mat_vec(a, v: Vec) -> Vec:
    return Vec(
        tuple(
            sum((row[j] * v.entries[j] for j in range(len(v.entries))), Fraction(0))
            for row in a
        )
    )


@dataclass(frozen=True)
class _BasedComplex:
    """Cochain complex of rational vector spaces with an exact contraction
    onto its degree-0 homology summand X: [h, d] = 1 - i p, p i = 1, and
    (by construction) h i = 0, h h = 0, p h = 0."""

    dims: Tuple[int, ...]
    x_dim: int
    d_mats: Tuple  # d_mats[p]: dims[p] -> dims[p+1]
    h_mats: Tuple  # h_mats[p]: dims[p] -> dims[p-1]
    p_mat: Tuple  # dims[0] -> x_dim
    i_mat: Tuple  # x_dim -> dims[0]

    def dim(self, p: int) -> int:
        return self.dims[p] if 0 <= p < len(self.dims) else 0

    def zero(self, p: int) -> Vec:
        return Vec((Fraction(0),) * self.dim(p))

    def d(self, p: int, v: Vec) -> Vec:
        if 0 <= p < len(self.dims) - 1:
            return _mat_vec(self.d_mats[p], v)
        return self.zero(p + 1)

    def h(self, p: int, v: Vec) -> Vec:
        if 1 <= p < len(self.dims):
            return _mat_vec(self.h_mats[p], v)
        return self.zero(p - 1)

    def proj(self, v: Vec) -> Vec:
        return _mat_vec(self.p_mat, v)

    def inc(self, v: Vec) -> Vec:
        return _mat_vec(self.i_mat, v)


def random_based_complex(rng: random.Random, length: int, x_dim: int = 1,
                         cone_dim: int = 2) -> _BasedComplex:
    """Random based complex of the given length (top degree), built by
    conjugating the standard model X_(0) + cones(p -> p+1) with random
    invertible changes of basis.  All contraction identities hold exactly."""
    # standard-model dimensions: degree p holds cones arriving from p-1 and
    # cones leaving to p+1 (plus X at p = 0)
    cones = [cone_dim for _ in range(length)]  # cone p -> p+1 for p < length
    dims = []
    for p in range(length + 1):
        n = (x_dim if p == 0 else 0)
        n += cones[p - 1] if p >= 1 else 0  # arriving
        n += cones[p] if p < length else 0  # leaving
        dims.append(n)

    def offsets(p):
        x_off = 0
        arr_off = (x_dim if p == 0 else 0)
        leave_off = arr_off + (cones[p - 1] if p >= 1 else 0)
        return x_off, arr_off, leave_off

    d_std = []
    for p in range(length):
        mat = [[Fraction(0)] * dims[p] for _ in range(dims[p + 1])]
        _, _, leave = offsets(p)
        _, arr_next, _ = offsets(p + 1)
        for t in range(cones[p]):
            mat[arr_next + t][leave + t] = Fraction(1)
        d_std.append(mat)
    h_std = [None]
    for p in range(1, length + 1):
        mat = [[Fraction(0)] * dims[p] for _ in range(dims[p - 1])]
        _, arr, _ = offsets(p)
        _, _, leave_prev = offsets(p - 1)
        for t in range(cones[p - 1]):
            mat[leave_prev + t][arr + t] = Fraction(1)
        h_std.append(mat)
    p_std = [[Fraction(1) if i == j else Fraction(0) for j in range(dims[0])]
             for i in range(x_dim)]
    i_std = [[Fraction(1) if i == j else Fraction(0) for j in range(x_dim)]
             for i in range(dims[0])]

    bases = [_rand_invertible(rng, dims[p]) for p in range(length + 1)]
    inverses = [_mat_inv(b) for b in bases]
    d_mats = tuple(
        _mm(_mm(bases[p + 1], d_std[p]), inverses[p]) for p in range(length)
    )
    h_mats = (None,) + tuple(
        _mm(_mm(bases[p - 1], h_std[p]), inverses[p]) for p in range(1, length + 1)
    )
    p_mat = _mm(p_std, inverses[0])
    i_mat = _mm(bases[0], i_std)
    return _BasedComplex(tuple(dims), x_dim, d_mats, h_mats, p_mat, i_mat)


def matrix_instance(seed: int = 0, max_p: int = 3, max_q: int = 3) -> DoubleComplexInstance:
    """Tensor-product double complex of two random based complexes:
    delta = d_A (x) 1, d = (-1)^p 1 (x) d_B, h = h_A (x) 1,
    k = (-1)^p 1 (x) k_B.  All contraction hypotheses hold exactly; the side
    conditions h k = 0 and p-hat k = 0 are NOT claimed (they fail for
    generic bases, just like generic good-cover homotopies)."""
    rng = random.Random(seed)
    A = random_based_complex(rng, max_p + 2)
    B = random_based_complex(rng, max_q + 2)

    def dim(p, q):
        return A.dim(p) * B.dim(q)

    # A payload of A^p (x) B^q is stored row-major: entry i * nb + j holds
    # the A-coordinate i and the B-coordinate j.  Each applier takes the
    # dimension of the factor it leaves alone.
    def on_a(op, v: Vec, nb: int) -> Vec:
        cols = [op(Vec(v.entries[j::nb])).entries for j in range(nb)]
        return Vec(tuple(x for row in zip(*cols) for x in row))

    def on_b(op, v: Vec, na: int) -> Vec:
        nb = len(v.entries) // na if na else 0
        return Vec(tuple(
            x for i in range(na) for x in op(Vec(v.entries[i * nb : (i + 1) * nb])).entries
        ))

    def delta(p, q, x):
        return on_a(lambda c: A.d(p, c), x, B.dim(q))

    def d(p, q, x):
        out = on_b(lambda r: B.d(q, r), x, A.dim(p))
        return -out if p % 2 else out

    def h(p, q, x):
        return on_a(lambda c: A.h(p, c), x, B.dim(q))

    def k(p, q, x):
        out = on_b(lambda r: B.h(q, r), x, A.dim(p))
        return -out if p % 2 else out

    def p_proj(q, x):
        return on_a(A.proj, x, B.dim(q))

    def i_inc(q, xe):
        return on_a(A.inc, xe, B.dim(q))

    def q_proj(p, x):
        return on_b(B.proj, x, A.dim(p))

    def j_inc(p, ye):
        return on_b(B.inc, ye, A.dim(p))

    def d_x(q, xe):
        return on_b(lambda r: B.d(q, r), xe, A.x_dim)

    def delta_y(p, ye):
        return on_a(lambda c: A.d(p, c), ye, B.x_dim)

    def sample(rng2, p, q):
        return Vec(tuple(rng2.choice(SAMPLE_COEFFS) for _ in range(dim(p, q))))

    def sample_x(rng2, q):
        return Vec(
            tuple(rng2.choice(SAMPLE_COEFFS) for _ in range(A.x_dim * B.dim(q)))
        )

    def sample_y(rng2, p):
        return Vec(
            tuple(rng2.choice(SAMPLE_COEFFS) for _ in range(A.dim(p) * B.x_dim))
        )

    return DoubleComplexInstance(
        name=f"matrix-seed{seed}",
        d=d, delta=delta, h=h,
        p_proj=p_proj, i_inc=i_inc, d_x=d_x,
        k=k, q_proj=q_proj, j_inc=j_inc, delta_y=delta_y,
        sample=sample, sample_x=sample_x, sample_y=sample_y,
        max_p=max_p, max_q=max_q,
        side_conditions="skip",
    )

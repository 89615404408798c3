"""Polynomial models of simply connected nilpotent Lie groups.

The group law in exponential coordinates comes from the Baker-Campbell-
Hausdorff series, truncated at the nilpotency class (exact for class <= 4,
the supported range).  Everything downstream is a polynomial identity and
is verified as such at construction time: unit laws, associativity,
inverses.  ``GROUPS`` registers each group by the constructor of its algebra.

Also provides the left-invariant frame, the dual coframe (with polynomial
entries, by unipotence of the Jacobian), polynomial group cochains with
the simplicial differential, and unipotent polynomial representations.  A
representation is built from its derivative: rho = exp(rho_*) for a
nilpotent representation rho_* of the algebra, exact in exponential
coordinates, so the group side and the algebra side of van Est read one
rho_*.

A group stores only its law: in exponential coordinates the inverse of a
point is its negation.  The structure every operator reads -- a group's
right Jacobian, frame and coframe matrix; its face substitutions, slot
velocities, and the coframe and contracted tables of each form degree,
kept per key in one store (``PolyGroup._once``); a representation's rho
and rho^{-1} -- is computed once per object, on first use, and kept on
that object as tuples and read-only mappings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import combinations
from math import factorial
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .forms import Chart, PolyForm, PolyVF, contract, homotopy_T, wedge
from .liealg import LieAlgebra, Representation, abelian, filiform4, heisenberg3, trivial_rep
from .polyalg import (
    VECTORS, Linear, MultiPoly, Rat, fiber_vars, identity, is_zero, mat_add, mat_mul, mat_scale,
    mat_vec, slot_shift, slot_vars, sum_of_products,
)

MAX_BCH_CLASS = 4

# Type aliases name package classes as strings: a class subscripted at
# import time stays in ``typing``'s caches, and with it every copy of the
# package that was ever imported.
Matrix = Tuple[Tuple["MultiPoly", ...], ...]


class GroupError(ValueError):
    pass


class NotNilpotent(GroupError):
    pass


class ClassTooHigh(GroupError):
    pass


class AssociativityFailure(GroupError):
    pass


class NonUnipotentJacobian(GroupError):
    pass


def _vec(names: Sequence[str]) -> List[MultiPoly]:
    return [MultiPoly.var(v) for v in names]


def _bch(alg: LieAlgebra, x: List[MultiPoly], y: List[MultiPoly]) -> Tuple[MultiPoly, ...]:
    """BCH(x, y) through bracket degree 4; exact when the class is <= 4."""
    br, add, scale = alg.bracket, VECTORS.add, VECTORS.scale
    z = add(x, y)
    if alg.nilpotency_class >= 2:
        xy = br(x, y)
        z = add(z, scale(xy, Fraction(1, 2)))
        if alg.nilpotency_class >= 3:
            xxy = br(x, xy)
            yyx = br(y, br(y, x))
            z = add(z, scale(xxy, Fraction(1, 12)))
            z = add(z, scale(yyx, Fraction(1, 12)))
            if alg.nilpotency_class >= 4:
                yxxy = br(y, xxy)
                z = add(z, scale(yxxy, Fraction(-1, 24)))
    return z


@dataclass(frozen=True)
class PolyGroup:
    """Nilpotent group law on coordinate space, in exponential coordinates:
    ``mult`` lives in the slot variables g1_*, g2_*.  The unit is the
    origin and the inverse of a point is its negation, so the law is all a
    group stores."""

    algebra: LieAlgebra
    mult: Tuple[MultiPoly, ...]

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def name(self) -> str:
        return self.algebra.name

    def multiply(self, a: Sequence[MultiPoly], b: Sequence[MultiPoly]) -> List[MultiPoly]:
        """Group product of two coordinate vectors of polynomials."""
        sub = dict(zip(slot_vars(1, self.dim), a))
        sub.update(zip(slot_vars(2, self.dim), b))
        return [m.subst(sub) for m in self.mult]

    def invert(self, a: Sequence[MultiPoly]) -> List[MultiPoly]:
        """Group inverse: the negation, in exponential coordinates."""
        return [-c for c in a]

    def __reduce__(self):
        # The structure cached on first use stays behind (its read-only
        # mappings do not pickle) and is rebuilt on demand.
        return PolyGroup, (self.algebra, self.mult)

    @cached_property
    def right_jacobian(self) -> Matrix:
        """B(y)[j][i] = d m_j / d (second argument)_i at (y, 0): the matrix of
        the left-invariant frame in exponential coordinates, g2_* read as 0
        and g1_* as y_*."""
        n, second = self.dim, slot_vars(2, self.dim)
        at = dict.fromkeys(second, MultiPoly.zero())
        at.update(zip(slot_vars(1, n), _vec(fiber_vars(n))))
        return tuple(tuple(m.diff(g).subst(at) for g in second) for m in self.mult)

    @cached_property
    def frame(self) -> Matrix:
        """frame[i]: the y_* components of the left-invariant field of the
        basis element e_i, column i of the right Jacobian."""
        return tuple(zip(*self.right_jacobian))

    @cached_property
    def coframe_matrix(self) -> Matrix:
        """B(y)^{-1}: row i holds the dy_* coefficients of theta^i."""
        return tuple(map(tuple, _poly_mat_inverse(self.right_jacobian)))

    @cached_property
    def _built(self) -> Dict[tuple, object]:
        return {}

    def _once(self, build: Callable, *key):
        """``build(self, *key)``, built on the first call with ``key`` and
        kept in the group's one store of keyed structure."""
        stored = (build, *key)
        if stored not in self._built:
            self._built[stored] = build(self, *key)
        return self._built[stored]

    def faces(self, p: int) -> Tuple[Tuple[Mapping[str, MultiPoly], int], ...]:
        """(substitution, sign) of the simplicial faces 0..p + 1 taking a
        function of p group slots and a base point y to one of p + 1 slots:
        face 0 drops g1, face i merges slots i and i + 1, and face p + 1
        merges g_{p+1} into y.  A group cochain has no base point; its last
        face twists by the representation instead (``group_delta``)."""
        return self._once(_faces, p)

    def coframe_table(self, q: int) -> Matrix:
        """``table[J][I]``, the dy_J coefficient of theta^I, for q-subsets I
        and J in ``combinations`` order; ``((1,),)`` at q = 0."""
        return self._once(_coframe_table, q)

    def contracted_table(self, q: int) -> Matrix:
        """``contracted[K][J]``, the contraction of ``homotopy_T(q dy_J)``
        with the frame fields e_k of K in turn, for q-subsets J and
        (q - 1)-subsets K in ``combinations`` order, q >= 1: the matrix
        that compiles the vertical homotopy on fiberwise q-forms."""
        return self._once(_contracted_table, q)

    def slot_velocity(
        self, i: int, p: int, xi: Union[int, Sequence[Rat]]
    ) -> Mapping[str, MultiPoly]:
        """Velocity at t = 0 of the i-th slot action of a = exp(t xi) on p
        slots: (g_i a, a^{-1} g_{i+1}) for i < p, g_p a for i = p."""
        if not 1 <= i <= p:
            raise GroupError(f"slot {i} out of range 1..{p}")
        return self._once(_slot_velocity, i, p, tuple(as_coeffs(self.dim, xi)))


def _faces(group: PolyGroup, p: int) -> Tuple[Tuple[Mapping[str, MultiPoly], int], ...]:
    n = group.dim
    faces = [(slot_shift("g", 1, p, n), 1)]
    for i in range(1, p + 1):
        prod = group.multiply(_vec(slot_vars(i, n)), _vec(slot_vars(i + 1, n)))
        sub = slot_shift("g", i + 1, p, n)
        sub.update(zip(slot_vars(i, n), prod))
        faces.append((sub, (-1) ** i))
    merged = group.multiply(_vec(slot_vars(p + 1, n)), _vec(fiber_vars(n)))
    faces.append((dict(zip(fiber_vars(n), merged)), (-1) ** (p + 1)))
    return tuple((MappingProxyType(sub), sgn) for sub, sgn in faces)


def _coframe_table(group: PolyGroup, q: int) -> Matrix:
    """Wedges of the Maurer-Cartan coframe from the unit 0-form."""
    chart = Chart(fiber_vars(group.dim))
    theta = maurer_cartan_coframe(group)
    unit = PolyForm.function(chart, MultiPoly.const(1))
    subsets = list(combinations(range(group.dim), q))
    wedges = [reduce(wedge, [theta[i] for i in idx], unit) for idx in subsets]
    return tuple(tuple(form.coefficient(idx) for form in wedges) for idx in subsets)


def _contracted_table(group: PolyGroup, q: int) -> Matrix:
    n = group.dim
    chart = Chart(fiber_vars(n))
    frames = [PolyVF(chart, field) for field in group.frame]
    images = [homotopy_T(PolyForm(chart, q, {idx: MultiPoly.const(q)}))
              for idx in combinations(range(n), q)]
    return tuple(
        tuple(reduce(contract, [frames[k] for k in idx], form).coefficient(())
              for form in images)
        for idx in combinations(range(n), q - 1)
    )


def bch_multiplication(alg: LieAlgebra) -> PolyGroup:
    """Build the PolyGroup of a nilpotent algebra via truncated BCH and
    verify the group axioms as polynomial identities."""
    if alg.nilpotency_class == 0:
        raise NotNilpotent(f"{alg.name} is not nilpotent")
    if alg.nilpotency_class > MAX_BCH_CLASS:
        raise ClassTooHigh(
            f"nilpotency class {alg.nilpotency_class} exceeds supported {MAX_BCH_CLASS}"
        )
    n = alg.dim
    x = _vec(slot_vars(1, n))
    y = _vec(slot_vars(2, n))
    mult = tuple(_bch(alg, x, y))
    group = PolyGroup(alg, mult)

    zero = [MultiPoly.zero() for _ in range(n)]
    if group.multiply(x, zero) != list(x) or group.multiply(zero, x) != list(x):
        raise AssociativityFailure("unit laws fail for BCH multiplication")
    if any(not c.is_zero() for c in group.multiply(x, group.invert(x))):
        raise AssociativityFailure("m(x, inv(x)) != 0")
    z = _vec(slot_vars(3, n))
    left = group.multiply(group.multiply(x, y), z)
    right = group.multiply(x, group.multiply(y, z))
    if left != right:
        raise AssociativityFailure(
            "BCH multiplication is not associative (bad structure constants?)"
        )
    return group


# ---------------------------------------------------------------------------
# Left-invariant frame and coframe


def as_coeffs(n: int, xi: Union[int, Sequence[Rat]]) -> List[Fraction]:
    """Coefficient vector of an algebra element given as a basis index or
    as coefficients."""
    if isinstance(xi, int):
        return identity(n, Fraction(0))[xi]
    return [Fraction(c) for c in xi]


def left_invariant_vf(group: PolyGroup, xi: Union[int, Sequence[Rat]]) -> PolyVF:
    """Left-invariant vector field of xi (basis index or coefficient
    vector), in the fiber coordinates: the right Jacobian times xi, whose
    columns are the frame."""
    comps = mat_vec(group.right_jacobian, as_coeffs(group.dim, xi))
    return PolyVF(Chart(fiber_vars(group.dim)), tuple(comps))


def velocity(
    group: PolyGroup, field: Sequence[MultiPoly], names: Sequence[str], left: bool = False
) -> Dict[str, MultiPoly]:
    """Velocity at t = 0 of the point x with coordinates ``names`` moved by
    a = exp(t xi), given the left-invariant field of xi in the y_*: for x a
    it is that field at x; for a^{-1} x (``left``) it is minus the field at
    x^{-1} = -x, because a^{-1} x = (x^{-1} a)^{-1} and inversion is
    negation (``PolyGroup.invert``)."""
    if left:
        inverse = group.invert(_vec(names))
        sub = dict(zip(fiber_vars(group.dim), inverse))
        return {v: -c.subst(sub) for v, c in zip(names, field)}
    sub = dict(zip(fiber_vars(group.dim), map(MultiPoly.var, names)))
    return {v: c.subst(sub) for v, c in zip(names, field)}


def _slot_velocity(group: PolyGroup, i: int, p: int, xi) -> Mapping[str, MultiPoly]:
    field = left_invariant_vf(group, xi).components
    vel = velocity(group, field, slot_vars(i, group.dim))
    if i < p:
        vel.update(velocity(group, field, slot_vars(i + 1, group.dim), left=True))
    return MappingProxyType(vel)


def nilpotent_series(
    nil: Sequence[Sequence[MultiPoly]], coef: Callable[[int], Rat]
) -> List[List[MultiPoly]]:
    """I + sum_{k >= 1} coef(k) N^k for a nilpotent polynomial matrix N,
    summed until N^k = 0.  Raises NotNilpotent if N^n != 0 (n x n)."""
    result = power = identity(len(nil))
    for k in range(1, len(nil) + 1):
        power = mat_mul(power, nil)
        if all(is_zero(e) for row in power for e in row):
            return result
        result = mat_add(result, mat_scale(power, coef(k)))
    raise NotNilpotent("matrix power series does not terminate")


def _poly_mat_inverse(mat: Matrix) -> List[List[MultiPoly]]:
    """Inverse of I + N with N nilpotent (entries vanishing at 0): Neumann
    series.  Raises NonUnipotentJacobian if an entry of N does not vanish
    at 0."""
    nil = mat_add(mat, mat_scale(identity(len(mat)), -1))
    for row in nil:
        for entry in row:
            if not entry.truncated(0).is_zero():
                raise NonUnipotentJacobian("frame Jacobian is not unipotent")
    return nilpotent_series(nil, lambda k: (-1) ** k)


def maurer_cartan_coframe(group: PolyGroup) -> List[PolyForm]:
    """Left-invariant coframe theta^1..theta^n dual to the frame:
    theta^i = sum_j (B^{-1})_{ij} dy_j."""
    chart = Chart(fiber_vars(group.dim))
    return [
        PolyForm(chart, 1, {(j,): c for j, c in enumerate(row) if not c.is_zero()})
        for row in group.coframe_matrix
    ]


# ---------------------------------------------------------------------------
# Polynomial representations


@dataclass(frozen=True)
class PolyRep:
    """Unipotent polynomial representation rho(y) = exp(sum_i y_i
    rho_*(e_i)) of the group, a d x d matrix in the fiber variables y_*,
    from a representation ``tangent`` = rho_* of its algebra.  Validated:
    rho_* of the group's algebra, nilpotent generators (NotNilpotent),
    rho(0) = I and rho a homomorphism for the group law."""

    group: PolyGroup
    tangent: Representation

    def __post_init__(self):
        if self.tangent.algebra != self.group.algebra:
            raise GroupError("not a representation of the group's algebra")
        n = self.group.dim
        if self.matrix_at([Fraction(0)] * n) != identity(self.dim):
            raise GroupError("rho(0) is not the identity")
        # homomorphism: rho(m(a, b)) = rho(a) rho(b)
        rho_a = self.matrix_at(_vec(slot_vars(1, n)))
        rho_b = self.matrix_at(_vec(slot_vars(2, n)))
        if self.matrix_at(self.group.mult) != mat_mul(rho_a, rho_b):
            raise GroupError("rho is not a homomorphism for the group law")

    @property
    def dim(self) -> int:
        return self.tangent.dim

    @cached_property
    def rho(self) -> Matrix:
        ys = _vec(fiber_vars(self.group.dim))
        nil = mat_add(*map(mat_scale, self.tangent.matrices, ys))
        return tuple(map(tuple, nilpotent_series(nil, lambda k: Fraction(1, factorial(k)))))

    def matrix_at(self, point: Sequence[Union[MultiPoly, Rat]]) -> List[List[MultiPoly]]:
        sub = dict(zip(fiber_vars(self.group.dim), point))
        return [[e.subst(sub) for e in row] for row in self.rho]

    @cached_property
    def inverse_matrix(self) -> Matrix:
        """rho(y)^{-1} = rho(-y), polynomial by unipotence."""
        inverse = self.group.invert(_vec(fiber_vars(self.group.dim)))
        return tuple(map(tuple, self.matrix_at(inverse)))

    def infinitesimal(self) -> Representation:
        """rho_*, the representation rho was built from."""
        return self.tangent


def trivial_poly_rep(group: PolyGroup) -> PolyRep:
    return PolyRep(group, trivial_rep(group.algebra))


# ---------------------------------------------------------------------------
# Group cochains


class GroupCochain(Linear):
    """Polynomial p-cochain at (p, 0): a vector of MultiPolys in the slot
    variables g1_*, ..., gp_* (vector length = coefficient dimension)."""

    __slots__ = ("group", "rep", "p", "values")
    _kind = VECTORS
    q = 0

    def __init__(
        self,
        group: PolyGroup,
        rep: Optional[PolyRep],
        p: int,
        values: Sequence[MultiPoly],
    ):
        rep = rep if rep is not None else trivial_poly_rep(group)
        if rep.group is not group and rep.group != group:
            raise ValueError("the representation is not one of the cochain's group")
        vals = tuple(values)
        if len(vals) != rep.dim:
            raise ValueError("value vector length must equal rep dimension")
        allowed = {v for s in range(1, p + 1) for v in slot_vars(s, group.dim)}
        for v in vals:
            extra = set(v.support()) - allowed
            if extra:
                raise ValueError(f"cochain uses variables outside its slots: {extra}")
        super().__init__(group, rep, p, vals)

    @staticmethod
    def scalar(group, degree, poly: MultiPoly, rep=None) -> "GroupCochain":
        rep = rep if rep is not None else trivial_poly_rep(group)
        if rep.dim != 1:
            raise ValueError("scalar constructor requires a 1-dim coefficient space")
        return GroupCochain(group, rep, degree, (poly,))

    def __repr__(self):
        return f"GroupCochain(p={self.p}, values={self.values})"


def group_delta(f: GroupCochain) -> GroupCochain:
    """Simplicial differential on polynomial group cochains; the last face
    twists by the inverse representation matrix."""
    group, rep, p = f.group, f.rep, f.p
    faces = group.faces(p)[:-1]
    # face p+1: drop g_{p+1}, acting by rho(g_{p+1})^{-1} on the value
    rho_inv = rep.matrix_at(group.invert(_vec(slot_vars(p + 1, group.dim))))
    last = (-1) ** (p + 1)
    out = [sum_of_products([(sgn, v.subst(sub), 1) for sub, sgn in faces] + [(last, t, 1)])
           for v, t in zip(f.values, mat_vec(rho_inv, f.values))]
    return GroupCochain(group, rep, p + 1, out)


# ---------------------------------------------------------------------------
# Registry


#: Each registered group's name and the constructor of its Lie algebra.
GROUPS: Dict[str, Callable[[], LieAlgebra]] = {
    **{f"abelian-{n}": partial(abelian, n) for n in (1, 2, 3)},
    "heisenberg3": heisenberg3,
    "filiform4": filiform4,
}


def registered_groups() -> List[str]:
    return list(GROUPS)


def build_group(name: str) -> PolyGroup:
    if name not in GROUPS:
        raise GroupError(f"unknown group {name!r}")
    return bch_multiplication(GROUPS[name]())

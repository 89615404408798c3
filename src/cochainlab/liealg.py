"""Lie algebras from structure constants and the Chevalley-Eilenberg complex.

Structure constants are validated exactly (antisymmetry, Jacobi, declared
nilpotency class via the lower central series).  Cochain groups C^q(g, V)
are stored antisymmetrically as maps from increasing q-subsets of basis
indices to length-d rational vectors.

The differential follows the standard convention making
d theta^k = -1/2 c^k_ij theta^i ^ theta^j; the Maurer-Cartan consistency
test in the group module pins this against the group data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from .polyalg import (
    POLY_ZERO, VECTORS, Linear, MultiPoly, clear_denominators, identity, integer_rref, is_zero,
    mat_add, mat_mul, mat_scale, mat_vec, sort_sign, sparse,
)

Rat = Fraction
Vec = Tuple[Rat, ...]
Index = Tuple[int, ...]


class LieAlgebraError(ValueError):
    pass


class AntisymmetryViolation(LieAlgebraError):
    pass


class JacobiViolation(LieAlgebraError):
    pass


class NilpotencyClassWrong(LieAlgebraError):
    pass


@dataclass(frozen=True)
class LieAlgebra:
    """Lie algebra given by structure constants [e_i, e_j] = sum_k c[i][j][k] e_k.

    Indices are 0-based internally.  ``name`` is a registry label.
    Construct through :func:`validate_lie_algebra`.
    """

    name: str
    dim: int
    constants: Tuple[Tuple[Vec, ...], ...]
    nilpotency_class: int

    def bracket_basis(self, i: int, j: int) -> Vec:
        return self.constants[i][j]

    @cached_property
    def _nonzero_constants(self) -> Tuple[Tuple[int, int, Tuple[Tuple[int, Rat], ...]], ...]:
        """(i, j, ((k, c), ...)) for each pair with [e_i, e_j] != 0, in the
        order of i, then j, then k."""
        return tuple(
            (i, j, tuple((k, c) for k, c in enumerate(vec) if c != 0))
            for i, row in enumerate(self.constants)
            for j, vec in enumerate(row)
            if any(c != 0 for c in vec)
        )

    @cached_property
    def trivial_rep(self) -> "Representation":
        """The trivial one-dimensional representation, checked once per
        algebra."""
        zero = ((Fraction(0),),)
        return Representation(self, 1, tuple(zero for _ in range(self.dim)))

    def bracket(self, u: Sequence, v: Sequence):
        """Bracket of coefficient vectors; works for Fractions and for any
        ring elements supporting + and * with Fractions (e.g. MultiPoly).
        Only the nonzero structure constants are visited."""
        out = [u[0] * 0] * self.dim
        for i, j, entries in self._nonzero_constants:
            if is_zero(u[i]) or is_zero(v[j]):
                continue
            uv = u[i] * v[j]
            for k, c in entries:
                out[k] = out[k] + uv * c
        return out


def validate_lie_algebra(
    name: str,
    dim: int,
    brackets: Mapping[Tuple[int, int], Mapping[int, Union[int, Rat]]],
    nilpotency_class: Optional[int] = None,
) -> LieAlgebra:
    """Build and validate a LieAlgebra from sparse bracket data.

    ``brackets[(i, j)] = {k: c}`` declares [e_i, e_j] = sum c e_k (0-based).
    Antisymmetric completion is applied; conflicting declarations for (i, j)
    and (j, i), a nonzero [e_i, e_i] among them, raise
    AntisymmetryViolation.  The Jacobi identity is checked exhaustively, and
    the declared nilpotency class (computed if omitted) is verified against
    the lower central series.
    """
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    seen = set()
    for (i, j), entry in brackets.items():
        for k, val in entry.items():
            c[i][j][k] = Fraction(val)
        seen.add((i, j))
    for (i, j) in list(seen):
        if (j, i) in seen:
            for k in range(dim):
                if c[i][j][k] != -c[j][i][k]:
                    raise AntisymmetryViolation(
                        f"c[{i}][{j}][{k}]={c[i][j][k]} but c[{j}][{i}][{k}]={c[j][i][k]}"
                    )
        else:
            for k in range(dim):
                c[j][i][k] = -c[i][j][k]

    constants = tuple(tuple(tuple(c[i][j]) for j in range(dim)) for i in range(dim))
    alg = object.__new__(LieAlgebra)
    object.__setattr__(alg, "name", name)
    object.__setattr__(alg, "dim", dim)
    object.__setattr__(alg, "constants", constants)

    # Jacobi: [e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]] = 0
    basis = identity(dim, Fraction(0))
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                total = [Fraction(0)] * dim
                for (a, b, cc) in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = alg.bracket(basis[b], basis[cc])
                    outer = alg.bracket(basis[a], inner)
                    total = [x + y for x, y in zip(total, outer)]
                if any(x != 0 for x in total):
                    raise JacobiViolation(f"Jacobi fails on ({i}, {j}, {k})")

    computed = _nilpotency_class(alg)
    if nilpotency_class is not None and computed != nilpotency_class:
        raise NilpotencyClassWrong(
            f"declared class {nilpotency_class}, lower central series gives {computed}"
        )
    object.__setattr__(alg, "nilpotency_class", computed)
    return alg


def _nilpotency_class(alg: LieAlgebra) -> int:
    """Length of the lower central series; 0 means not nilpotent (series
    stabilizes without reaching zero)."""
    basis = identity(alg.dim, Fraction(0))
    current = basis
    step = 1
    while True:
        nxt = []
        for e in basis:
            for v in current:
                w = alg.bracket(e, v)
                if any(x != 0 for x in w):
                    nxt.append(w)
        nxt = integer_rref([clear_denominators(w)[0] for w in nxt])[0]
        if len(nxt) >= len(current) and nxt:
            return 0  # series stabilized at nonzero: not nilpotent
        current = nxt
        if not current:
            return step
        step += 1


# ---------------------------------------------------------------------------
# Representations


@dataclass(frozen=True)
class Representation:
    """Finite-dimensional representation by rational matrices rho(e_i)."""

    algebra: LieAlgebra
    dim: int
    matrices: Tuple[Tuple[Vec, ...], ...]  # matrices[i][row][col]

    def __post_init__(self):
        n, zero = self.algebra.dim, Fraction(0)
        if len(self.matrices) != n or any(
            len(m) != self.dim or any(len(row) != self.dim for row in m) for m in self.matrices
        ):
            raise LieAlgebraError(f"expected {n} matrices of size {self.dim} x {self.dim}")
        for i in range(n):
            for j in range(n):
                a, b = self.matrices[i], self.matrices[j]
                comm = mat_add(mat_mul(a, b, zero), mat_scale(mat_mul(b, a, zero), -1))
                bracket = self.algebra.bracket_basis(i, j)
                if comm != mat_add(*map(mat_scale, self.matrices, bracket)):
                    raise LieAlgebraError(
                        f"rho([e_{i}, e_{j}]) != [rho(e_{i}), rho(e_{j})]"
                    )


def trivial_rep(alg: LieAlgebra) -> Representation:
    return alg.trivial_rep


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg cochains


class CEElement(Linear):
    """Element of C^q(g, V), at (0, q): map from increasing q-subsets to V-vectors."""

    __slots__ = ("algebra", "rep", "q", "comps")
    _kind = sparse(VECTORS)
    p = 0

    def __init__(
        self,
        algebra: LieAlgebra,
        rep: Optional[Representation],
        q: int,
        comps: Mapping[Index, Sequence[Rat]],
    ):
        rep = rep if rep is not None else trivial_rep(algebra)
        if rep.algebra is not algebra and rep.algebra != algebra:
            raise ValueError("the representation is not one of the cochain's algebra")
        clean: Dict[Index, Vec] = {}
        for idx, vec in comps.items():
            idx = tuple(idx)
            if len(idx) != q or list(idx) != sorted(set(idx)):
                raise ValueError(f"index {idx} is not an increasing {q}-subset")
            v = tuple(Fraction(x) for x in vec)
            if len(v) != rep.dim:
                raise ValueError("vector length must match representation dim")
            if any(x != 0 for x in v):
                clean[idx] = v
        super().__init__(algebra, rep, q, clean)

    @staticmethod
    def zero(algebra, rep, degree) -> "CEElement":
        return CEElement(algebra, rep, degree, {})

    @staticmethod
    def basis(algebra, idx: Sequence[int], rep=None, slot: int = 0) -> "CEElement":
        """Dual-basis element e^{i1} ^ ... ^ e^{iq} (times the slot-th
        V-basis vector)."""
        rep = rep if rep is not None else trivial_rep(algebra)
        vec = identity(rep.dim, Fraction(0))[slot]
        return CEElement(algebra, rep, len(idx), {tuple(idx): vec})

    def component(self, idx: Index) -> Vec:
        return self.comps.get(tuple(idx), tuple(Fraction(0) for _ in range(self.rep.dim)))

    def __repr__(self):
        return f"CEElement(deg={self.q}, comps={self.comps})"


def ce_diff_comps(alg: LieAlgebra, degree: int, comps: Mapping, rep: Representation,
                  fields: Optional[Sequence[Mapping]] = None) -> Dict[Index, list]:
    """Chevalley-Eilenberg differential on raw component maps, for e_i
    acting on a coefficient vector by rho_*(e_i) (``rep``) plus, when
    ``fields`` are given, the chain-rule derivative of each polynomial entry
    along ``fields[i]`` (``MultiPoly.derivation``).

    Coefficient-agnostic: the entries are rationals or MultiPolys.  Each
    (degree + 1)-subset J gathers its signed contributions, each a vector
    with a rational matrix: the derivatives and the vector itself under
    rho_*(e_{j_a}) for the action terms, and the vector for the bracket
    inserts.  One ``mat_vec`` of those matrices, side by side, against the
    entries of the vectors sums them: over polynomials, one fused sum per
    entry of the result.
    """
    def diag(c) -> list:
        """c times the identity of V."""
        return [[c if r == s else 0 for s in range(rep.dim)] for r in range(rep.dim)]

    # the matrix of an action term's derivatives, by the parity of a
    units = (diag(1), diag(-1))
    out: Dict[Index, list] = {}
    for J in combinations(range(alg.dim), degree + 1):
        entries, blocks = [], []
        # sum_a (-1)^a e_{j_a} . alpha(J \ j_a)
        for a, ja in enumerate(J):
            rest = J[:a] + J[a + 1 :]
            vec = comps.get(rest)
            if vec is None:
                continue
            odd = a % 2
            if fields is not None:
                entries += [c.derivation(fields[ja]) for c in vec]
                blocks.append(units[odd])
            entries += vec
            blocks.append(mat_scale(rep.matrices[ja], -1) if odd else rep.matrices[ja])
        # sum_{a<b} (-1)^{a+b} alpha([e_{j_a}, e_{j_b}] ^ rest)
        for a in range(len(J)):
            for b in range(a + 1, len(J)):
                rest = tuple(J[x] for x in range(len(J)) if x not in (a, b))
                for k, c in enumerate(alg.bracket_basis(J[a], J[b])):
                    if c == 0:
                        continue
                    ins, sgn_ins = sort_sign((k,) + rest)
                    if ins is None:
                        continue
                    vec = comps.get(ins)
                    if vec is not None:
                        entries += vec
                        blocks.append(diag(c * ((-1) ** (a + b)) * sgn_ins))
        if entries:
            rows = [[x for block in blocks for x in block[r]] for r in range(rep.dim)]
            # the zero of the entries' ring picks the kernel's path
            zero = POLY_ZERO if isinstance(entries[0], MultiPoly) else Fraction(0)
            out[J] = mat_vec(rows, entries, zero)
    return out


def ce_diff(alpha: CEElement) -> CEElement:
    """Chevalley-Eilenberg differential, acting on coefficients through the
    matrices of alpha's representation."""
    out = ce_diff_comps(alpha.algebra, alpha.q, alpha.comps, alpha.rep)
    return CEElement(alpha.algebra, alpha.rep, alpha.q + 1, out)


# ---------------------------------------------------------------------------
# Registry of standard algebras


def abelian(n: int) -> LieAlgebra:
    return validate_lie_algebra(f"abelian-{n}", n, {}, nilpotency_class=1)


def heisenberg3() -> LieAlgebra:
    # [e1, e2] = e3
    return validate_lie_algebra(
        "heisenberg3", 3, {(0, 1): {2: 1}}, nilpotency_class=2
    )


def filiform4() -> LieAlgebra:
    # [e1, e2] = e3, [e1, e3] = e4
    return validate_lie_algebra(
        "filiform4", 4, {(0, 1): {2: 1}, (0, 2): {3: 1}}, nilpotency_class=3
    )


#: The (row, column) unit entries of rho_*(e_1), ..., rho_*(e_n) in a
#: faithful nilpotent representation of each registered algebra.
STANDARD_GENERATORS = {
    # an abelian algebra acts by translations: rho_*(e_i) = E_{1, i+1}
    **{f"abelian-{n}": tuple(((0, i),) for i in range(1, n + 1)) for n in (1, 2, 3)},
    "heisenberg3": (((0, 1),), ((1, 2),), ((0, 2),)),  # [E12, E23] = E13
    # X1 = E12 + E23, X2 = E35, X3 = [X1, X2] = E25, X4 = [X1, X3] = E15
    "filiform4": (((0, 1), (1, 2)), ((2, 4),), ((1, 4),), ((0, 4),)),
}


def standard_rep(alg: LieAlgebra) -> Representation:
    """A faithful nilpotent representation: rho_*(e_i) is the sum of the
    unit matrices at the table's entries for e_i, of size one more than the
    largest index.  Representation checks the bracket relations."""
    if alg.name not in STANDARD_GENERATORS:
        raise LieAlgebraError(f"no standard representation for {alg.name}")
    generators = STANDARD_GENERATORS[alg.name]
    size = 1 + max(max(entry) for entries in generators for entry in entries)
    matrices = tuple(
        tuple(tuple(Fraction(int((r, c) in entries)) for c in range(size)) for r in range(size))
        for entries in generators
    )
    return Representation(alg, size, matrices)

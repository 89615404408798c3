"""Exact sparse multivariate polynomial algebra over the rationals.

A polynomial is a dict mapping exponent tuples to ``Fraction`` coefficients,
wrapped together with its ordered variable tuple.  All arithmetic is exact;
there is no floating point anywhere in this package.

Variable names follow a fixed convention so that substitution maps for
simplicial face operators stay mechanical:

  t<i>       homotopy / cube parameters
  g<i>_<j>   group slot i, coordinate j
  m<i>_<j>   point slot i, coordinate j (pair groupoid)
  y_<j>      fiber coordinates

The canonical ordering is t-block, then g-block (slot-major), then m-block,
then y-block; anything else sorts last, lexicographically.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

Rat = Fraction
Exponent = Tuple[int, ...]

#: Hard cap on the total degree of any stored term.  Exceeding it raises
#: DegreeOverflowError instead of silently thrashing.
DEGREE_CAP = 24


class DegreeOverflowError(ArithmeticError):
    """Raised when a polynomial operation exceeds the configured degree cap."""


_VAR_RE = re.compile(r"^([a-z])(\d*)(?:_(\d+))?$")


def var_key(name: str) -> tuple:
    """Canonical sort key for a variable name (t-block, g, m, y, rest)."""
    m = _VAR_RE.match(name)
    if m:
        head, slot, coord = m.group(1), m.group(2), m.group(3)
        slot_n = int(slot) if slot else -1
        coord_n = int(coord) if coord is not None else -1
        block = {"t": 0, "g": 1, "m": 2, "y": 3}.get(head)
        if block is not None:
            return (block, slot_n, coord_n, name)
    return (9, 0, 0, name)


def canonical_vars(names: Iterable[str]) -> Tuple[str, ...]:
    return tuple(sorted(set(names), key=var_key))


def rat(value: Union[int, str, Rat]) -> Rat:
    return Fraction(value)


def format_rat(r: Rat) -> str:
    """Serialize as ``num/den``, omitting the denominator when it is 1."""
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


class MultiPoly:
    """Sparse multivariate polynomial with Fraction coefficients.

    Immutable; ``terms`` maps exponent tuples (one entry per variable in
    ``vars``) to nonzero coefficients.  Two polynomials over the same
    variable tuple are equal iff their term dicts are identical.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exponent, Rat]):
        vs = tuple(variables)
        clean: Dict[Exponent, Rat] = {}
        for exp, coef in terms.items():
            c = Fraction(coef)
            if c == 0:
                continue
            if len(exp) != len(vs):
                raise ValueError(f"exponent {exp} does not match vars {vs}")
            if sum(exp) > DEGREE_CAP:
                raise DegreeOverflowError(
                    f"term of total degree {sum(exp)} exceeds cap {DEGREE_CAP}"
                )
            clean[tuple(exp)] = c
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(variables: Iterable[str] = ()) -> "MultiPoly":
        return MultiPoly(variables, {})

    @staticmethod
    def const(value: Union[int, Rat], variables: Iterable[str] = ()) -> "MultiPoly":
        vs = tuple(variables)
        return MultiPoly(vs, {(0,) * len(vs): Fraction(value)})

    @staticmethod
    def var(name: str) -> "MultiPoly":
        return MultiPoly((name,), {(1,): Fraction(1)})

    # -- structural helpers ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Rat:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def support(self) -> Tuple[str, ...]:
        """Variables that actually occur with positive exponent."""
        used = [False] * len(self.vars)
        for exp in self.terms:
            for i, e in enumerate(exp):
                if e:
                    used[i] = True
        return tuple(v for v, u in zip(self.vars, used) if u)

    def extend(self, variables: Iterable[str]) -> "MultiPoly":
        """Reindex over the canonical union of self.vars and ``variables``."""
        target = canonical_vars(tuple(self.vars) + tuple(variables))
        if target == self.vars:
            return self
        pos = {v: i for i, v in enumerate(target)}
        out: Dict[Exponent, Rat] = {}
        for exp, coef in self.terms.items():
            new = [0] * len(target)
            for v, e in zip(self.vars, exp):
                new[pos[v]] = e
            out[tuple(new)] = coef
        return MultiPoly(target, out)

    def _aligned(self, other: "MultiPoly"):
        if self.vars == other.vars:
            return self, other
        a = self.extend(other.vars)
        b = other.extend(self.vars)
        return a, b

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: Union["MultiPoly", int, Rat]) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(Fraction(other), self.vars)
        a, b = self._aligned(other)
        out = dict(a.terms)
        for exp, coef in b.terms.items():
            out[exp] = out.get(exp, Fraction(0)) + coef
        return MultiPoly(a.vars, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(Fraction(other), self.vars)
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other: Union["MultiPoly", int, Rat]) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            c = Fraction(other)
            return MultiPoly(self.vars, {e: k * c for e, k in self.terms.items()})
        a, b = self._aligned(other)
        out: Dict[Exponent, Rat] = {}
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, Fraction(0)) + ca * cb
        return MultiPoly(a.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power")
        result = MultiPoly.const(1, self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = self._aligned(other)
        return a.terms == b.terms

    def __hash__(self):
        a = self.extend(())
        return hash((a.vars, frozenset(a.terms.items())))

    def __repr__(self):
        return f"MultiPoly({to_string(self)!r})"

    # -- calculus ---------------------------------------------------------

    def diff(self, v: str) -> "MultiPoly":
        """Exact partial derivative; differentiating by an absent variable
        gives zero."""
        if v not in self.vars:
            return MultiPoly.zero(self.vars)
        i = self.vars.index(v)
        out: Dict[Exponent, Rat] = {}
        for exp, coef in self.terms.items():
            if exp[i] == 0:
                continue
            new = list(exp)
            new[i] -= 1
            key = tuple(new)
            out[key] = out.get(key, Fraction(0)) + coef * exp[i]
        return MultiPoly(self.vars, out)

    def subst(self, assignment: Mapping[str, Union["MultiPoly", int, Rat]]) -> "MultiPoly":
        """Simultaneous substitution; unassigned variables pass through."""
        relevant = {v: p for v, p in assignment.items() if v in self.vars}
        if not relevant:
            return self
        passthrough = [v for v in self.vars if v not in relevant]
        values: Dict[str, MultiPoly] = {}
        for v, p in relevant.items():
            values[v] = p if isinstance(p, MultiPoly) else MultiPoly.const(Fraction(p))
        acc = MultiPoly.zero(passthrough)
        for exp, coef in self.terms.items():
            term = MultiPoly.const(coef, passthrough)
            for v, e in zip(self.vars, exp):
                if e == 0:
                    continue
                factor = values.get(v)
                if factor is None:
                    factor = MultiPoly.var(v)
                term = term * factor ** e
            acc = acc + term
        return acc

    def defint01(self, v: str) -> "MultiPoly":
        """Definite integral over [0, 1] in ``v``; v is eliminated from the
        result's support."""
        if v not in self.vars:
            return self
        i = self.vars.index(v)
        out: Dict[Exponent, Rat] = {}
        for exp, coef in self.terms.items():
            new = list(exp)
            new[i] = 0
            key = tuple(new)
            out[key] = out.get(key, Fraction(0)) + coef / (exp[i] + 1)
        return MultiPoly(self.vars, out)

    def eval_at(self, point: Mapping[str, Union[int, Rat]]) -> Union[Rat, "MultiPoly"]:
        """Partial evaluation; a full point yields a Fraction."""
        result = self.subst({v: Fraction(c) for v, c in point.items()})
        if result.is_constant():
            return result.constant_value()
        return result


# ---------------------------------------------------------------------------
# Serialization


def to_string(p: MultiPoly) -> str:
    """Canonical textual form: terms sorted by (total degree, exponents)
    descending, rationals as ``num/den``.  Round-trips bit-exactly through
    the expression parser."""
    if not p.terms:
        return "0"
    items = sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
    chunks = []
    for exp, coef in items:
        factors = []
        for v, e in zip(p.vars, exp):
            if e == 1:
                factors.append(v)
            elif e > 1:
                factors.append(f"{v}^{e}")
        mag = abs(coef)
        if not factors or mag != 1:
            factors.insert(0, format_rat(mag))
        body = "*".join(factors)
        if not chunks:
            chunks.append(body if coef > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if coef > 0 else f"- {body}")
    return " ".join(chunks)


# ---------------------------------------------------------------------------
# Shared sign, face-map and matrix conventions


def sort_sign(items: Sequence, key=None) -> Tuple[Optional[tuple], int]:
    """Sort ``items`` (by ``key``), returning (sorted tuple, sign of the
    sorting permutation), or (None, 0) when two keys are equal: the one
    sign convention for wedge monomials and simplices."""
    items = tuple(items)
    keys = items if key is None else tuple(map(key, items))
    sign = 1
    for a in range(len(keys)):
        for b in range(a + 1, len(keys)):
            if keys[a] == keys[b]:
                return None, 0
            if keys[a] > keys[b]:
                sign = -sign
    return tuple(sorted(items, key=key)), sign


def slot_shift(prefix: str, first: int, last: int, n: int) -> Dict[str, MultiPoly]:
    """Face-map substitution in which slot s reads slot s + 1, for
    first <= s <= last, on the variables <prefix><s>_1..<prefix><s>_n."""
    return {
        f"{prefix}{s}_{j}": MultiPoly.var(f"{prefix}{s + 1}_{j}")
        for s in range(first, last + 1)
        for j in range(1, n + 1)
    }


def mat_vec(mat: Sequence[Sequence[MultiPoly]], vec: Sequence[MultiPoly]) -> List[MultiPoly]:
    """Matrix times vector over polynomials; zero entries of vec are skipped."""
    out = []
    for row in mat:
        acc = MultiPoly.zero()
        for m, v in zip(row, vec):
            if not v.is_zero():
                acc = acc + m * v
        out.append(acc)
    return out


def rref(rows: Sequence[Sequence[Rat]]) -> List[List[Rat]]:
    """Reduced row echelon form over the rationals; drops zero rows."""
    rows = [list(r) for r in rows]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return [row for row in rows[:r] if any(x != 0 for x in row)]


def mat_mul(a, b):
    """Product of two rational matrices, as a tuple of row tuples."""
    n, m, l = len(a), len(b[0]), len(b)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(l)), Fraction(0)) for j in range(m))
        for i in range(n)
    )

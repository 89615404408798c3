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

The variable order lives on the polynomials: each one carries the
``var_key`` of its variables in a tuple that every result over the same
variables shares.  Aligning two polynomials merges those keys, so ``var_key``
parses a name only when a public constructor or ``extend`` first meets it.
Ring operations build their results through a trusted constructor that
skips re-coercing coefficients.  The degree cap is checked wherever a term
can pass it: by the public constructor, and by products, powers and
substitutions; sums, negation, scaling, ``extend``, ``diff``,
``truncated`` and ``defint01`` cannot raise the degree and skip the check.
"""

from __future__ import annotations

import functools
import operator
import re
from fractions import Fraction
from typing import (
    Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union,
)

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


def format_rat(r: Rat) -> str:
    """Serialize as ``num/den``, omitting the denominator when it is 1."""
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


def _max_degree(terms) -> int:
    return max(map(sum, terms), default=-1)


def _check_degree(degree: int) -> None:
    if degree > DEGREE_CAP:
        raise DegreeOverflowError(f"term of total degree {degree} exceeds cap {DEGREE_CAP}")


def _product(ta: Mapping[Exponent, Rat], tb: Mapping[Exponent, Rat]) -> Dict[Exponent, Rat]:
    """Product of two term dicts over one variable order; cancelled
    coefficients stay in as zeros for the caller to drop."""
    out: Dict[Exponent, Rat] = {}
    get = out.get
    add = int.__add__
    for ea, ca in ta.items():
        for eb, cb in tb.items():
            e = tuple(map(add, ea, eb))
            c = get(e)
            out[e] = ca * cb if c is None else c + ca * cb
    return out


def _accumulate(out: Dict[Exponent, Rat], terms: Mapping[Exponent, Rat]) -> None:
    """Add ``terms`` into ``out`` in place; cancelled coefficients stay in
    as zeros."""
    get = out.get
    for e, c in terms.items():
        prev = get(e)
        out[e] = c if prev is None else prev + c


def _nonzero(terms: Mapping[Exponent, Rat]) -> Dict[Exponent, Rat]:
    return {e: c for e, c in terms.items() if c}


_set = object.__setattr__


def _make(vs: Tuple[str, ...], keys: tuple, terms: Dict[Exponent, Rat]) -> "MultiPoly":
    """Trusted constructor for the results of ring operations: ``terms``
    already has exponent tuples of length len(vs), nonzero ``Fraction``
    coefficients and degrees within the cap, and ``keys`` are the
    ``var_key`` values of ``vs``, shared with the operands."""
    p = object.__new__(MultiPoly)
    _set(p, "vars", vs)
    _set(p, "terms", terms)
    _set(p, "_keys", keys)
    return p


class MultiPoly:
    """Sparse multivariate polynomial with Fraction coefficients.

    Immutable; ``terms`` maps exponent tuples (one entry per variable in
    ``vars``) to nonzero coefficients.  Two polynomials over the same
    variable tuple are equal iff their term dicts are identical.  ``_keys``
    holds the ``var_key`` of each variable (see the module docstring).
    """

    __slots__ = ("vars", "terms", "_keys")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exponent, Rat]):
        vs = tuple(variables)
        clean: Dict[Exponent, Rat] = {}
        for exp, coef in terms.items():
            c = Fraction(coef)
            if c == 0:
                continue
            if len(exp) != len(vs):
                raise ValueError(f"exponent {exp} does not match vars {vs}")
            _check_degree(sum(exp))
            clean[tuple(exp)] = c
        _set(self, "vars", vs)
        _set(self, "terms", clean)
        _set(self, "_keys", tuple(map(var_key, vs)))

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    def __reduce__(self):
        return MultiPoly, (self.vars, self.terms)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero() -> "MultiPoly":
        return MultiPoly((), {})

    @staticmethod
    def const(value: Union[int, Rat]) -> "MultiPoly":
        return MultiPoly((), {(): Fraction(value)})

    @staticmethod
    def var(name: str) -> "MultiPoly":
        return MultiPoly((name,), {(1,): Fraction(1)})

    def _like(self, terms: Dict[Exponent, Rat]) -> "MultiPoly":
        """A trusted result over self's variables."""
        return _make(self.vars, self._keys, terms)

    def _constant(self, c: Rat) -> "MultiPoly":
        return self._like({(0,) * len(self.vars): c} if c else {})

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

    def extend(self, variables: Union[Iterable[str], "MultiPoly"]) -> "MultiPoly":
        """Reindex over the canonical union of self.vars and ``variables``,
        names or a polynomial; a polynomial's carried keys are reused."""
        if isinstance(variables, MultiPoly):
            extra = variables._keys
        else:
            extra = tuple(var_key(v) for v in variables if v not in self.vars)
        keys = tuple(sorted(set(self._keys).union(extra)))
        if keys == self._keys:
            return self
        return self._reindexed(tuple(k[-1] for k in keys), keys)

    def _reindexed(self, vs: Tuple[str, ...], keys: tuple) -> "MultiPoly":
        """Self over ``vs``, which holds every variable of self."""
        if vs == self.vars:
            return self
        pos = {v: i for i, v in enumerate(vs)}
        index = [pos[v] for v in self.vars]
        n = len(vs)
        out: Dict[Exponent, Rat] = {}
        for exp, coef in self.terms.items():
            new = [0] * n
            for i, e in zip(index, exp):
                new[i] = e
            out[tuple(new)] = coef
        return _make(vs, keys, out)

    def _aligned(self, other: "MultiPoly"):
        if self.vars == other.vars:
            return self, other
        a = self.extend(other)
        # a.vars is canonical and holds other's variables
        return a, other._reindexed(a.vars, a._keys)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: Union["MultiPoly", int, Rat]) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = self._constant(Fraction(other))
        a, b = self._aligned(other)
        out = dict(a.terms)
        _accumulate(out, b.terms)
        return a._like(_nonzero(out))

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return self._like({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = self._constant(Fraction(other))
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other: Union["MultiPoly", int, Rat]) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            c = Fraction(other)
            return self._like({e: k * c for e, k in self.terms.items()} if c else {})
        a, b = self._aligned(other)
        # Over the rationals the top-degree parts of two nonzero factors
        # never cancel, so the product's degree is the sum of theirs (and
        # a zero factor, of degree -1, keeps the sum under the cap).
        _check_degree(_max_degree(a.terms) + _max_degree(b.terms))
        return a._like(_nonzero(_product(a.terms, b.terms)))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return self._constant(Fraction(1)) if result is None else result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = self._aligned(other)
        return a.terms == b.terms

    def __hash__(self):
        # As __eq__ goes: a constant hashes like the number it equals, and
        # variables with exponent zero are left out.
        if self.is_constant():
            return hash(self.constant_value())
        return hash(frozenset(
            (tuple((v, e) for v, e in zip(self.vars, exp) if e), coef)
            for exp, coef in self.terms.items()
        ))

    def __repr__(self):
        return f"MultiPoly({to_string(self)!r})"

    # -- calculus ---------------------------------------------------------

    def diff(self, v: str) -> "MultiPoly":
        """Exact partial derivative; differentiating by an absent variable
        gives zero."""
        if v not in self.vars:
            return self._like({})
        i = self.vars.index(v)
        out: Dict[Exponent, Rat] = {}
        for exp, coef in self.terms.items():
            e = exp[i]
            if e:
                out[exp[:i] + (e - 1,) + exp[i + 1:]] = coef * e
        return self._like(out)

    def truncated(self, degree: int) -> "MultiPoly":
        """The terms of total degree at most ``degree``."""
        return self._like({e: c for e, c in self.terms.items() if sum(e) <= degree})

    def subst(self, assignment: Mapping[str, Union["MultiPoly", int, Rat]]) -> "MultiPoly":
        """Simultaneous substitution; unassigned variables pass through.

        Terms are grouped by their exponents in the substituted variables,
        and each power of a substituted value is computed once per call."""
        vs = self.vars
        values = {
            v: p if isinstance(p, MultiPoly) else MultiPoly.const(p)
            for v, p in assignment.items() if v in vs
        }
        if not values:
            return self
        keep = [i for i, v in enumerate(vs) if v not in values]
        subbed = [i for i, v in enumerate(vs) if v in values]
        groups: Dict[Exponent, Dict[Exponent, Rat]] = {}
        for exp, coef in self.terms.items():
            sig = tuple(exp[i] for i in subbed)
            groups.setdefault(sig, {})[tuple(exp[i] for i in keep)] = coef
        # The result lives over the canonical union of the passthrough
        # variables and those of every factor some term raises to a positive
        # power, a passthrough variable x being the factor x; it keeps the
        # passthrough order only when every such factor is over exactly it.
        pass_vars = tuple(vs[i] for i in keep)
        pass_keys = tuple(self._keys[i] for i in keep)
        used = [values[vs[i]] for j, i in enumerate(subbed) if any(sig[j] for sig in groups)]
        if all(f.vars == pass_vars for f in used) and (
            len(pass_vars) == 1 or not any(any(pe) for part in groups.values() for pe in part)
        ):
            out_vars, out_keys = pass_vars, pass_keys
        else:
            out_keys = tuple(sorted(set(pass_keys).union(*(f._keys for f in used))))
            out_vars = tuple(k[-1] for k in out_keys)
        pos = {v: i for i, v in enumerate(out_vars)}
        keep_pos = [pos[v] for v in pass_vars]
        n = len(out_vars)
        powers: Dict[Tuple[int, int], MultiPoly] = {}

        def power(j: int, e: int) -> "MultiPoly":
            p = powers.get((j, e))
            if p is None:
                p = powers[j, e] = (values[vs[subbed[j]]] ** e)._reindexed(out_vars, out_keys)
            return p

        out: Dict[Exponent, Rat] = {}
        for sig, part in groups.items():
            terms: Dict[Exponent, Rat] = {}
            for pe, coef in part.items():
                new = [0] * n
                for i, e in zip(keep_pos, pe):
                    new[i] = e
                terms[tuple(new)] = coef
            factors = [power(j, e) for j, e in enumerate(sig) if e]
            if factors:
                if not all(f.terms for f in factors):
                    continue  # a zero factor: these terms vanish
                _check_degree(_max_degree(terms) + sum(_max_degree(f.terms) for f in factors))
                for f in factors:
                    terms = _product(terms, f.terms)
            _accumulate(out, terms)
        return _make(out_vars, out_keys, _nonzero(out))

    def defint01(self, v: str) -> "MultiPoly":
        """Definite integral over [0, 1] in ``v``; v is eliminated from the
        result's support."""
        if v not in self.vars:
            return self
        i = self.vars.index(v)
        out: Dict[Exponent, Rat] = {}
        for exp, coef in self.terms.items():
            key = exp[:i] + (0,) + exp[i + 1:]
            out[key] = out.get(key, 0) + coef / (exp[i] + 1)
        return self._like(_nonzero(out))

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
# Shared conventions: vector spaces (``Linear``), signs, face maps, and the
# matrix kernel (``mat_vec``, ``mat_mul``, ``identity``, ``mat_add``,
# ``mat_scale`` and the rational ``rref``)


def is_zero(x) -> bool:
    """Zero test for a rational or for anything with ``is_zero``."""
    return x == 0 if isinstance(x, (int, Fraction)) else x.is_zero()


def add_into(out: dict, key, value, add: Callable = operator.add) -> None:
    """``out[key] += value``, inserting ``value`` itself at a new key so that
    keys keep their first-seen order; zero sums stay in for the caller to
    drop."""
    cur = out.get(key)
    out[key] = value if cur is None else add(cur, value)


class ValueKind(NamedTuple):
    """How the data of a ``Linear`` class adds, negates, scales and tests
    for zero."""

    add: Callable
    neg: Callable
    scale: Callable
    is_zero: Callable


#: A single value: a rational, polynomial, piecewise polynomial or payload.
SCALARS = ValueKind(operator.add, operator.neg, operator.mul, is_zero)
#: A V-vector: a tuple of single values, entrywise.
VECTORS = ValueKind(
    lambda a, b: tuple(map(operator.add, a, b)),
    lambda a: tuple(map(operator.neg, a)),
    lambda a, c: tuple(x * c for x in a),
    lambda a: all(map(is_zero, a)),
)


def sparse(kind: ValueKind) -> ValueKind:
    """A map from indices to nonzero values of ``kind``; a sum keeps the
    first-seen order of its indices."""

    def nonzero(data: dict) -> dict:
        return {k: v for k, v in data.items() if not kind.is_zero(v)}

    def add(a: dict, b: dict) -> dict:
        out = dict(a)
        for k, v in b.items():
            add_into(out, k, v, kind.add)
        return nonzero(out)

    return ValueKind(
        add,
        lambda a: {k: kind.neg(v) for k, v in a.items()},
        lambda a, c: nonzero({k: kind.scale(v, c) for k, v in a.items()}),
        operator.not_,
    )


class ShapeError(ValueError):
    """Raised by ``+`` on two ``Linear`` elements of different shapes."""


class Linear:
    """An element of a vector space over the rationals: the one
    implementation of the protocol that every cochain and every payload of
    the perturbation engine follows.

    A subclass lists its constructor's arguments, in order, as its
    ``__slots__``, the last one holding its data; names the ``ValueKind`` of
    that data as ``_kind``; and names in ``_shape`` what two summands must
    share (the degree or bidegree, and more where it matters).  It keeps
    only its validating ``__init__`` (which stores the fields through the
    base's), its ``repr`` and its domain operators.  The base makes the
    element immutable and unhashable; adds (raising ``ShapeError`` unless
    the shapes are equal), negates, scales (``x * c`` and ``c * x``) and
    subtracts through the kind; compares by type, shape and a zero
    difference (``False`` across types and shapes, and for sums whose parts
    at one index differ in shape, without raising);
    builds arithmetic results through the trusted ``_like``; and copies and
    pickles by rerunning the constructor.
    """

    __slots__ = ()
    _kind = SCALARS

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields, strict=True):
            _set(self, name, value)

    def _like(self, data):
        """Self with new data: an arithmetic result, whose other fields the
        operands already validated and whose data the kind keeps clean."""
        new = object.__new__(type(self))
        for name in self.__slots__[:-1]:
            _set(new, name, getattr(self, name))
        _set(new, self.__slots__[-1], data)
        return new

    def _data(self):
        return getattr(self, self.__slots__[-1])

    def _shape(self):
        return ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self):
        raise TypeError(f"{type(self).__name__} is unhashable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def is_zero(self) -> bool:
        return self._kind.is_zero(self._data())

    def __add__(self, other):
        if type(other) is not type(self) or other._shape() != self._shape():
            raise ShapeError(
                f"cannot add {type(other).__name__} to a {type(self).__name__} "
                f"of shape {self._shape()}"
            )
        return self._like(self._kind.add(self._data(), other._data()))

    def __neg__(self):
        return self._like(self._kind.neg(self._data()))

    def __mul__(self, c):
        return self._like(self._kind.scale(self._data(), c))

    def __rmul__(self, c):
        return self * c

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self) or other._shape() != self._shape():
            return False
        try:
            return (self - other).is_zero()
        except ShapeError:  # parts of a sum at one index differ in shape
            return False


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


# The matrix kernel, one for both coefficient rings.  A matrix is a sequence
# of rows, and every result is a new list (of row lists).  Entries are
# ``Fraction``s or ``MultiPoly``s, and one product may mix them.  A function
# that can form an empty sum takes the zero of its result's ring as ``zero``:
# the polynomial zero by default, ``Fraction(0)`` for a rational result.
# Products skip zero entries, which changes no result.

#: The zero of the polynomial ring, the default ``zero`` of the kernel.
POLY_ZERO = MultiPoly.zero()


def mat_vec(mat: Sequence[Sequence], vec: Sequence, zero=POLY_ZERO) -> list:
    """Matrix times vector."""
    nonzero = [(j, v) for j, v in enumerate(vec) if not is_zero(v)]
    out = []
    for row in mat:
        acc = zero
        for j, v in nonzero:
            m = row[j]
            if not is_zero(m):
                acc = acc + m * v
        out.append(acc)
    return out


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence], zero=POLY_ZERO) -> List[list]:
    """Matrix times matrix: row i of ``a b`` is the transpose of ``b`` times
    row i of ``a``."""
    columns = list(zip(*b))
    return [mat_vec(columns, row, zero) for row in a]


def identity(n: int, zero=POLY_ZERO) -> List[list]:
    """The n x n identity matrix over the ring of ``zero``."""
    one = zero + 1
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_add(*mats: Sequence[Sequence]) -> List[list]:
    """Entrywise sum of one or more matrices of one shape."""
    return [
        [functools.reduce(operator.add, entries) for entries in zip(*rows)]
        for rows in zip(*mats)
    ]


def mat_scale(a: Sequence[Sequence], c) -> List[list]:
    """Every entry of ``a`` times ``c``."""
    return [[x * c for x in row] for row in a]

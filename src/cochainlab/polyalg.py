"""Exact sparse multivariate polynomial algebra over the rationals.

A polynomial is a dict mapping packed monomials, one ``int`` key per
monomial with a bit field per variable and one for the total degree, to
``int`` numerators over one positive denominator, in lowest terms, wrapped
together with its ordered variable tuple; every ring operation runs in
``int`` arithmetic, and readers outside the kernel see exponent tuples and
``Fraction`` coefficients (``terms``).  All arithmetic is exact; there is
no floating point anywhere in this package.

Every variable belongs to one family, so that each map of the package is
a mechanical substitution between named coordinates.  The families, in
canonical order (``FAMILIES``):

  t<i>       homotopy and cube parameters
  g<i>_<j>   group slot i, coordinate j
  m<i>_<j>   point slot i, coordinate j (pair groupoid)
  y_<j>      fiber coordinates
  x, x_<j>   base coordinates (the circle; the pair groupoid's R^n)

The canonical ordering is t-block, then g-block (slot-major), then m-block,
then y-block; the base coordinates, and any name outside the scheme, sort
last, lexicographically.  This module alone names variables (``var_name``
and its tuples) and parses them (``parse_var``, ``var_key``).

The variable order lives on the polynomials: each one holds its variables
in canonical order and carries their ``var_key`` in a tuple that every
result over the same variables shares.  Aligning two polynomials merges
those keys, so ``var_key`` parses a name only when a public constructor or
``extend`` first meets it; an operand over no variables is a constant,
whose key is the same over any variables, and is never realigned.
Sums of products are fused: ``MultiPoly.derivation`` (the chain rule,
sum_v field[v] * d/dv) and ``sum_of_products`` (sum c * a * b) pick one
union layout, realign each operand at most once and accumulate into one
numerator dict over one denominator, with one normalisation, and each
equals the fold of ``+`` and ``*`` from ``MultiPoly.zero()`` that it
replaces, variables included.
Ring operations build their results through a trusted constructor that
skips re-coercing coefficients.  The degree cap is checked wherever a term
can pass it: by the public constructor; by products, powers and
substitutions; and by the fused sums, for every product before any is
accumulated.  Sums, negation, scaling, ``extend``, ``diff``,
``truncated``, ``defint01`` and ``degree_scaled`` cannot raise the degree
and skip the check.
The cap keeps every field of a packed monomial from carrying into the
next, so the public constructor also rejects repeated variables and any
exponent that is not a non-negative ``int`` before packing.
"""

from __future__ import annotations

import collections.abc
import functools
import math
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


# ---------------------------------------------------------------------------
# Variable names

#: Every variable family in canonical order, with the shapes of its names:
#: ``<i>`` is a slot and ``_<j>`` a coordinate.
FAMILIES = {"t": ("t<i>",), "g": ("g<i>_<j>",), "m": ("m<i>_<j>",), "y": ("y_<j>",),
            "x": ("x", "x_<j>")}
#: The sort block of each family but the base one, which sorts by name with
#: the names outside the scheme.
_BLOCK = {family: block for block, family in enumerate(tuple(FAMILIES)[:-1])}
_VAR_RE = re.compile(r"([a-z])(\d*)(?:_(\d+))?\Z")


def _parts(name: str) -> Optional[Tuple[str, int, int]]:
    """Prefix, slot and coordinate of ``name``, -1 for a missing part, in
    one match; None if the name has no such parts."""
    m = _VAR_RE.match(name)
    if m is None:
        return None
    head, slot, coord = m.groups()
    return head, int(slot) if slot else -1, -1 if coord is None else int(coord)


def parse_var(name: str) -> Optional[Tuple[str, int, int]]:
    """``(family, slot, coordinate)`` of a name in the scheme, -1 for a part
    its family lacks; None for any other name."""
    parts = _parts(name)
    if parts is None:
        return None
    family, slot, coord = parts
    shape = family + "<i>" * (slot >= 0) + "_<j>" * (coord >= 0)
    return parts if shape in FAMILIES.get(family, ()) else None


def var_key(name: str) -> tuple:
    """Canonical sort key for a variable name (t-block, g, m, y, rest)."""
    parts = _parts(name)
    block = None if parts is None else _BLOCK.get(parts[0])
    return (9, 0, 0, name) if block is None else (block, parts[1], parts[2], name)


def var_name(family: str, slot: int = -1, coord: int = -1) -> str:
    """The variable of ``family`` at ``slot`` and coordinate ``coord``, -1
    for a part its family lacks: the inverse of ``parse_var``."""
    name = family if slot < 0 else f"{family}{slot}"
    return name if coord < 0 else f"{name}_{coord}"


def _coords(family: str, slot: int, n: int) -> Tuple[str, ...]:
    head = var_name(family, slot)
    return tuple(f"{head}_{j}" for j in range(1, n + 1))


def slot_vars(slot: int, n: int) -> Tuple[str, ...]:
    """g<slot>_1..g<slot>_n: group slot ``slot``."""
    return _coords("g", slot, n)


def point_vars(slot: int, n: int) -> Tuple[str, ...]:
    """m<slot>_1..m<slot>_n: point ``slot`` of the pair groupoid."""
    return _coords("m", slot, n)


def fiber_vars(n: int) -> Tuple[str, ...]:
    """y_1..y_n: the fiber."""
    return _coords("y", -1, n)


def base_vars(n: int) -> Tuple[str, ...]:
    """x_1..x_n: the base R^n of the pair groupoid."""
    return _coords("x", -1, n)


def cube_vars(p: int) -> Tuple[str, ...]:
    """t1..tp: the unit p-cube."""
    return tuple(var_name("t", s) for s in range(1, p + 1))


def canonical_vars(names: Iterable[str]) -> Tuple[str, ...]:
    return tuple(sorted(set(names), key=var_key))


def format_rat(r: Rat) -> str:
    """Serialize as ``num/den``, omitting the denominator when it is 1."""
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


# A monomial is stored as one ``int`` key: one ``_FIELD``-bit field per
# variable of its polynomial, the first variable in the most significant
# field, and the total degree in a field above them all.  No exponent nor
# degree passes ``DEGREE_CAP`` < 2**_FIELD, and the cap is checked before
# every product, power and substitution, so keys add as exponents do (a
# product's key is the sum of its factors'), no field carries into the
# next, and keys order as (total degree, exponents) do.  The constant
# monomial is key 0 over any variables.  Realigning a key, and renaming its
# variables in a substitution, move each field to the field of its new
# variable (``_field_moves``); fields that land on one field add, and their
# sum is at most the term's degree, so it cannot carry either.

#: Bits of one field of a packed monomial.
_FIELD = 5
_FIELD_MASK = (1 << _FIELD) - 1


def _naturals(exp: Sequence) -> bool:
    """Whether every entry of ``exp`` is a non-negative ``int``: anything
    else would spill into a neighbouring field when packed."""
    return all(type(e) is int and e >= 0 for e in exp)


def _pack(exp: Sequence[int]) -> int:
    """The key of the monomial with exponents ``exp``, each a non-negative
    ``int``, of total degree within the cap."""
    key = sum(exp)
    for e in exp:
        key = key << _FIELD | e
    return key


def _unpack(key: int, n: int) -> Exponent:
    """The exponents of ``key`` over n variables."""
    return tuple([key >> at & _FIELD_MASK for at in range(_FIELD * (n - 1), -1, -_FIELD)])


def _field_moves(src: Tuple[str, ...], dst: Tuple[str, ...],
                 rename: Mapping[str, str] = {}) -> Tuple[List[Tuple[int, int]], int]:
    """How a key over the variables ``src`` becomes one over ``dst``, both in
    canonical order: each variable v of src moves to the field of
    ``rename.get(v, v)`` if dst holds it, the others are dropped (their
    fields must be zero), and the degree field goes along.  Returns
    ``(moves, lift)``: the key k becomes the sum of ``(k & mask) << left``
    over the moves ``(mask, left)``, shifted right by ``lift``.  One move
    carries each run of fields, one after another in src, that move by the
    same amount, so a realignment costs a few operations per term.  Fields
    renamed onto one field add their exponents."""
    n, m = len(src), len(dst)
    at = _FIELD * n
    # the run of the degree field
    mask, shift = _FIELD_MASK << at, _FIELD * (m - n)
    moves = []
    # a field that moves right makes every move lift by that much
    lift = max(0, -shift)
    for v in src:
        at -= _FIELD
        v = rename.get(v, v)
        if v in dst:
            s = _FIELD * (m - 1 - dst.index(v)) - at
            if s != shift:
                moves.append((mask, shift))
                mask, shift = 0, s
                if s < -lift:
                    lift = -s
            mask |= _FIELD_MASK << at
    moves.append((mask, shift))
    if lift:
        moves = [(mask, s + lift) for mask, s in moves]
    return moves, lift


def _moved(num: Dict[int, int], moves: Sequence[Tuple[int, int]], lift: int,
           base: int = 0) -> Dict[int, int]:
    """``num`` with every key carried by ``_field_moves``' ``moves`` and
    ``lift``, plus ``base``; keys that land on one key add their
    numerators, and cancelled ones stay in as zeros."""
    out: Dict[int, int] = {}
    get = out.get
    for key, coef in num.items():
        new = 0
        for mask, left in moves:
            new += (key & mask) << left
        new = (new >> lift) + base
        prev = get(new)
        out[new] = coef if prev is None else prev + coef
    return out


def _max_degree(num: Mapping[int, int], n: int) -> int:
    """The top total degree of keys over n variables, -1 if there are none."""
    return max(num, default=-1) >> _FIELD * n


def _check_degree(degree: int) -> None:
    if degree > DEGREE_CAP:
        raise DegreeOverflowError(f"term of total degree {degree} exceeds cap {DEGREE_CAP}")


# Coefficients are integer numerators over one denominator per polynomial.
# ``_normal`` alone reduces them.  Sums over different denominators put
# them over the lcm, whose exact cofactors (``_over``, ``defint01``,
# ``clear_denominators``) are the only other quotients.  No step uses ``/``,
# which would make a float of two ints.


def _normal(num: Dict[int, int], den: int) -> Tuple[Dict[int, int], int]:
    """``num / den`` in lowest terms: zero numerators dropped, and the
    numerators and the positive ``den`` divided by their gcd; zero is
    ``{}`` over 1."""
    num = {e: c for e, c in num.items() if c}
    if not num:
        return num, 1
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            return {e: c // g for e, c in num.items()}, den // g
    return num, den


def _over(num: Dict[int, int], den: int, common: int) -> Dict[int, int]:
    """The numerators of ``num / den`` over ``common``, a multiple of den."""
    if common == den:
        return num
    k = common // den
    return {e: c * k for e, c in num.items()}


def _product(ta: Mapping[int, int], tb: Mapping[int, int]) -> Dict[int, int]:
    """Product of two numerator dicts over one variable order; cancelled
    numerators stay in as zeros for the caller to drop."""
    out: Dict[int, int] = {}
    get = out.get
    for ea, ca in ta.items():
        for eb, cb in tb.items():
            e = ea + eb
            c = get(e)
            out[e] = ca * cb if c is None else c + ca * cb
    return out


def _accumulate(out: Dict[int, int], terms: Mapping[int, int]) -> None:
    """Add ``terms`` into ``out`` in place; cancelled numerators stay in as
    zeros."""
    get = out.get
    for e, c in terms.items():
        prev = get(e)
        out[e] = c if prev is None else prev + c


def _layout(polys: Iterable["MultiPoly"]) -> Tuple[Tuple[str, ...], tuple, dict]:
    """One layout for a fused sum of ``polys``: the canonical union of their
    variables, its ``var_key`` values, and the field moves of each variable
    tuple that must move, so each operand is realigned at most once.  A
    tuple equal to the union stays, and so does the empty one: its only key
    is the constant monomial's 0."""
    layouts = {p.vars: p._keys for p in polys}
    if len(layouts) < 2:
        vs, keys = next(iter(layouts.items()), ((), ()))
        return vs, keys, {}
    keys = tuple(sorted(set().union(*layouts.values())))
    vs = tuple(k[-1] for k in keys)
    return vs, keys, {src: _field_moves(src, vs) for src in layouts if src and src != vs}


def _sum_products(parts: Sequence[Tuple[Dict[int, int], Dict[int, int], int]], n: int,
                  common: int) -> Tuple[Dict[int, int], int]:
    """The sum over ``parts`` ``(na, nb, c)`` of ``na * nb * c / common``, na
    and nb numerator dicts over one layout of n variables, in lowest terms:
    every product's degree is checked before any is accumulated, and the
    whole sum takes one dict and one ``_normal``."""
    for na, nb, _ in parts:
        _check_degree(_max_degree(na, n) + _max_degree(nb, n))
    out: Dict[int, int] = {}
    get = out.get
    for na, nb, c in parts:
        if len(na) > len(nb):
            na, nb = nb, na
        for ka, ca in na.items():
            ca *= c
            for kb, cb in nb.items():
                k = ka + kb
                prev = get(k)
                out[k] = ca * cb if prev is None else prev + ca * cb
    return _normal(out, common)


_set = object.__setattr__


def _make(vs: Tuple[str, ...], keys: tuple, num: Dict[int, int], den: int) -> "MultiPoly":
    """Trusted constructor for the results of ring operations: ``num`` has
    keys over len(vs) variables, nonzero ``int`` numerators and degrees
    within the cap, ``num / den`` is in lowest terms (``_normal``), and
    ``keys`` are the ``var_key`` values of ``vs``, shared with the
    operands."""
    p = object.__new__(MultiPoly)
    _set(p, "vars", vs)
    _set(p, "_num", num)
    _set(p, "_den", den)
    _set(p, "_keys", keys)
    return p


class _Terms(collections.abc.Mapping):
    """A polynomial's terms as ``{exponent tuple: Fraction}``: its size and
    exponents come from the stored numerators, and each exponent tuple and
    ``Fraction`` is made when it is read."""

    __slots__ = ("_poly",)

    def __init__(self, poly: "MultiPoly"):
        self._poly = poly

    def __len__(self) -> int:
        return len(self._poly._num)

    def __iter__(self):
        n = len(self._poly.vars)
        return (_unpack(key, n) for key in self._poly._num)

    def __getitem__(self, exp: Exponent) -> Rat:
        p = self._poly
        # an exponent of another length could pack to a stored key (the
        # constant's 0, say), and any other entries could not be packed
        if isinstance(exp, tuple) and len(exp) == len(p.vars) and _naturals(exp):
            num = p._num.get(_pack(exp))
            if num is not None:
                return Fraction(num, p._den)
        raise KeyError(exp)


class MultiPoly:
    """Sparse multivariate polynomial with rational coefficients, stored as
    integer numerators over one denominator.

    Immutable.  ``_num`` maps packed monomial keys (``_pack``: one field per
    variable in ``vars``, see above) to nonzero ``int`` numerators, and
    ``_den`` is their positive common denominator, in lowest terms:
    gcd(_den, every numerator) is 1, and zero is ``{}`` over 1.  So two
    polynomials over the same variable tuple are equal iff their numerator
    dicts and denominators are.  ``terms`` is the read-only view
    ``{exponent tuple: Fraction}`` for readers outside the kernel.
    ``_keys`` holds the ``var_key`` of each variable (see the module
    docstring).
    """

    __slots__ = ("vars", "_num", "_den", "_keys")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exponent, Union[int, Rat]]):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise ValueError(f"repeated variable in {vs}")
        keys = tuple(map(var_key, vs))
        # the variables are stored in canonical order, whatever order they come in
        order = sorted(range(len(vs)), key=keys.__getitem__) if len(vs) > 1 else None
        clean: Dict[int, Rat] = {}
        for exp, coef in terms.items():
            c = Fraction(coef)
            if c == 0:
                continue
            if len(exp) != len(vs):
                raise ValueError(f"exponent {exp} does not match vars {vs}")
            if not _naturals(exp):
                raise ValueError(f"exponent {exp} must hold non-negative ints")
            _check_degree(sum(exp))
            clean[_pack(exp if order is None else [exp[i] for i in order])] = c
        if order is not None:
            vs, keys = tuple(vs[i] for i in order), tuple(keys[i] for i in order)
        # over the lcm of reduced denominators the numerators share no
        # factor with it, so the result is in lowest terms
        nums, den = clear_denominators(list(clean.values()))
        _set(self, "vars", vs)
        _set(self, "_num", dict(zip(clean, nums)))
        _set(self, "_den", den)
        _set(self, "_keys", keys)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    def __reduce__(self):
        return MultiPoly, (self.vars, dict(self.terms))

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero() -> "MultiPoly":
        return _make((), (), {}, 1)

    @staticmethod
    def const(value: Union[int, Rat]) -> "MultiPoly":
        return MultiPoly.zero()._constant(Fraction(value))

    @staticmethod
    def var(name: str) -> "MultiPoly":
        return _make((name,), (var_key(name),), {_pack((1,)): 1}, 1)

    def _like(self, num: Dict[int, int], den: int) -> "MultiPoly":
        """A trusted result over self's variables."""
        return _make(self.vars, self._keys, num, den)

    def _constant(self, c: Union[int, Rat]) -> "MultiPoly":
        if not c:
            return self._like({}, 1)
        return self._like({0: c.numerator}, c.denominator)

    @property
    def terms(self) -> Mapping[Exponent, Rat]:
        """Read-only view ``{exponent tuple: Fraction}``, one entry per
        nonzero term."""
        return _Terms(self)

    # -- structural helpers ----------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def is_constant(self) -> bool:
        return not any(self._num)

    def constant_value(self) -> Rat:
        if not self._num:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(self._num[0], self._den)

    def support(self) -> Tuple[str, ...]:
        """Variables that actually occur with positive exponent."""
        used = _unpack(functools.reduce(operator.or_, self._num, 0), len(self.vars))
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
        if not any(self._num):  # a constant's key is 0 over any variables
            return _make(vs, keys, self._num, self._den)
        return _make(vs, keys, _moved(self._num, *_field_moves(self.vars, vs)), self._den)

    def _aligned(self, other: "MultiPoly"):
        if self.vars == other.vars:
            return self, other
        # an operand over no variables is a constant, whose key 0 is the
        # constant monomial over any variables, so it takes the other's as is
        if not other.vars:
            return self, other._reindexed(self.vars, self._keys)
        if not self.vars:
            return self._reindexed(other.vars, other._keys), other
        a = self.extend(other)
        # a.vars is canonical and holds other's variables
        return a, other._reindexed(a.vars, a._keys)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: Union["MultiPoly", int, Rat]) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = self._constant(Fraction(other))
        a, b = self._aligned(other)
        den = math.lcm(a._den, b._den)
        out = dict(_over(a._num, a._den, den))
        _accumulate(out, _over(b._num, b._den, den))
        return a._like(*_normal(out, den))

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return self._like({e: -c for e, c in self._num.items()}, self._den)

    def __sub__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = self._constant(Fraction(other))
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other: Union["MultiPoly", int, Rat]) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            c = other if isinstance(other, (int, Fraction)) else Fraction(other)
            k = c.numerator
            return self._like(*_normal({e: n * k for e, n in self._num.items()},
                                       self._den * c.denominator))
        a, b = self._aligned(other)
        # Over the rationals the top-degree parts of two nonzero factors
        # never cancel, so the product's degree is the sum of theirs (and
        # a zero factor, of degree -1, keeps the sum under the cap).
        n = len(a.vars)
        _check_degree(_max_degree(a._num, n) + _max_degree(b._num, n))
        return a._like(*_normal(_product(a._num, b._num), a._den * b._den))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power")
        # the power's degree is n times self's, as for products; checked
        # before any multiplication, so the message names that degree
        _check_degree(n * _max_degree(self._num, len(self.vars)))
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return self._constant(1) if result is None else result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = self._aligned(other)
        return a._den == b._den and a._num == b._num

    def __hash__(self):
        # As __eq__ goes: a constant hashes like the number it equals, and
        # variables with exponent zero are left out.
        if self.is_constant():
            return hash(self.constant_value())
        n = len(self.vars)
        return hash((self._den, frozenset(
            (tuple((v, e) for v, e in zip(self.vars, _unpack(key, n)) if e), coef)
            for key, coef in self._num.items()
        )))

    def __repr__(self):
        return f"MultiPoly({to_string(self)!r})"

    # -- calculus ---------------------------------------------------------

    def _field(self, v: str) -> int:
        """The bit offset of v's field."""
        return _FIELD * (len(self.vars) - 1 - self.vars.index(v))

    def diff(self, v: str) -> "MultiPoly":
        """Exact partial derivative; differentiating by an absent variable
        gives zero."""
        if v not in self.vars:
            return self._like({}, 1)
        at = self._field(v)
        # one less in v's field and in the degree field
        step = (1 << at) + (1 << _FIELD * len(self.vars))
        out: Dict[int, int] = {}
        for key, coef in self._num.items():
            e = key >> at & _FIELD_MASK
            if e:
                out[key - step] = coef * e
        return self._like(*_normal(out, self._den))

    def derivation(self, field: Mapping[str, Union["MultiPoly", int, Rat]]) -> "MultiPoly":
        """The chain-rule derivative sum_v field[v] * d(self)/dv in one
        pass.  It equals the sum, from ``MultiPoly.zero()``, of the products
        ``field[v] * self.diff(v)`` over the variables v that self raises to
        a positive power, with the same variables and the same degree
        checks, made in field order before any product is accumulated."""
        vs = self.vars
        raised = functools.reduce(operator.or_, self._num, 0)
        moved = [(v, f if isinstance(f, MultiPoly) else MultiPoly.const(f))
                 for v, f in field.items() if v in vs and raised >> self._field(v) & _FIELD_MASK]
        if not moved:
            return MultiPoly.zero()
        out_vars, keys, moves = _layout([self] + [f for _, f in moved])
        m = len(out_vars)
        num = self._num if vs not in moves else _moved(self._num, *moves[vs])
        # one less in v's field and in the degree field
        top = 1 << _FIELD * m
        derivs = []
        for v, f in moved:
            at = _FIELD * (m - 1 - out_vars.index(v))
            step = (1 << at) + top
            dc = {key - step: c * e for key, c in num.items() if (e := key >> at & _FIELD_MASK)}
            derivs.append((dc, f._num if f.vars not in moves else _moved(f._num, *moves[f.vars]),
                           f._den))
        common = math.lcm(*(den for _, _, den in derivs))
        parts = [(dc, fnum, common // den) for dc, fnum, den in derivs]
        return _make(out_vars, keys, *_sum_products(parts, m, common * self._den))

    def truncated(self, degree: int) -> "MultiPoly":
        """The terms of total degree at most ``degree``."""
        top = _FIELD * len(self.vars)
        return self._like(*_normal(
            {key: c for key, c in self._num.items() if key >> top <= degree}, self._den))

    def subst(self, assignment: Mapping[str, Union["MultiPoly", int, Rat]]) -> "MultiPoly":
        """Simultaneous substitution; unassigned variables pass through.

        A value that is one variable times a nonzero rational c renames:
        each term gains c^e, e its exponent of the variable replaced, and
        the exponents it replaces move to that variable's field along with
        the passthrough ones, with no power or product; terms that land on
        one term add.  Terms are grouped by their exponents in the other
        substituted variables, and each power of such a value is computed
        once per call.  A group's numerators times its factors' lie over the
        product of the factors' denominators; the groups are summed over the
        lcm of those."""
        vs = self.vars
        n = len(vs)
        kept = {k for k, v in zip(self._keys, vs) if v not in assignment}
        if len(kept) == n:
            return self
        raised = functools.reduce(operator.or_, self._num, 0)
        # The result lives over the canonical union of the passthrough
        # variables and those of every value some term raises to a positive
        # power.  A raised value that renames is one term of degree 1, the
        # lowest set bit of whose key lies in its variable's field; the
        # others are factors.
        value_keys, rename, scales, factors = [], {}, [], []
        for v, f in assignment.items():
            if v not in vs:
                continue
            at = _FIELD * (n - 1 - vs.index(v))
            if not raised >> at & _FIELD_MASK:
                continue
            f = f if isinstance(f, MultiPoly) else MultiPoly.const(f)
            value_keys.append(f._keys)
            key, c = next(iter(f._num.items())) if len(f._num) == 1 else (0, 0)
            if key >> _FIELD * len(f.vars) == 1:
                rename[v] = f.vars[-1 - ((key & -key).bit_length() - 1) // _FIELD]
                if c != 1 or f._den != 1:
                    scales.append((at, c, f._den))
            else:
                factors.append((at, f))
        out_keys = tuple(sorted(kept.union(*value_keys)))
        out_vars = tuple(k[-1] for k in out_keys)
        m = len(out_vars)
        factors = [(at, f._reindexed(out_vars, out_keys)) for at, f in factors]
        # a renaming value c w / d scales a term of exponent e by c^e d^(top - e)
        # over d^top, top the largest such e
        num, num_den = self._num, self._den
        for at, c, d in scales:
            exps = {key: key >> at & _FIELD_MASK for key in num}
            top = max(exps.values())
            factor = [c ** e * d ** (top - e) for e in range(top + 1)]
            num = {key: coef * factor[exps[key]] for key, coef in num.items()}
            num_den *= d ** top
        # Terms are grouped by the fields of their factors; the rest keeps
        # its degree field.  A term that raises a zero value vanishes.
        sig_mask = sum(_FIELD_MASK << a for a, _ in factors)
        zero_mask = sum(_FIELD_MASK << a for a, f in factors if not f._num)
        groups: Dict[int, Dict[int, int]] = {}
        for key, coef in num.items():
            if not key & zero_mask:
                sig = key & sig_mask
                groups.setdefault(sig, {})[key - sig] = coef
        # the passthrough and renamed part of a term is over self's
        # variables, with its factors' fields zero, and moves to the
        # result's
        moves, lift = _field_moves(vs, out_vars, rename)
        # each factor's degree over the result's variables less 1
        excess = [_max_degree(f._num, m) - 1 for _, f in factors]
        powers: Dict[Tuple[int, int], MultiPoly] = {}
        out: Dict[int, int] = {}
        out_den = 1
        for sig, part in groups.items():
            exps = [(j, e) for j, (a, _) in enumerate(factors) if (e := sig >> a & _FIELD_MASK)]
            # each exponent e of a value of degree k adds e (k - 1) to the
            # degree of the group's top term
            _check_degree((max(part) >> _FIELD * n) + sum([e * excess[j] for j, e in exps]))
            # the degree field still counts the factors' exponents
            terms = _moved(part, moves, lift, -sum([e for _, e in exps]) << _FIELD * m)
            den = 1
            for j, e in exps:
                f = powers.get((j, e))
                if f is None:
                    f = powers[j, e] = factors[j][1] ** e
                terms = _product(terms, f._num)
                den *= f._den
            if den != out_den:
                common = math.lcm(out_den, den)
                out = _over(out, out_den, common)
                terms, out_den = _over(terms, den, common), common
            _accumulate(out, terms)
        return _make(out_vars, out_keys, *_normal(out, out_den * num_den))

    def defint01(self, v: str) -> "MultiPoly":
        """Definite integral over [0, 1] in ``v``; v is eliminated from the
        result's support.  The term of exponent e gains the factor
        1/(e + 1), put over the lcm of those denominators."""
        if v not in self.vars:
            return self
        at = self._field(v)
        # e less in v's field and in the degree field
        step = (1 << at) + (1 << _FIELD * len(self.vars))
        common = math.lcm(*{(key >> at & _FIELD_MASK) + 1 for key in self._num})
        out: Dict[int, int] = {}
        for key, coef in self._num.items():
            e = key >> at & _FIELD_MASK
            new = key - e * step
            out[new] = out.get(new, 0) + coef * (common // (e + 1))
        return self._like(*_normal(out, self._den * common))

    def degree_scaled(self, variables: Iterable[str], shift: int) -> "MultiPoly":
        """Each term divided by its total degree in ``variables`` plus
        ``shift``, a positive int, put over the lcm of those divisors: the
        t-integral of the homotopy of y -> t y on a form of degree
        ``shift``, the y being ``variables``."""
        fields = {self._field(v) for v in variables if v in self.vars}
        divisor = {key: sum([key >> at & _FIELD_MASK for at in fields]) + shift
                   for key in self._num}
        common = math.lcm(*divisor.values())
        return self._like(*_normal(
            {key: coef * (common // divisor[key]) for key, coef in self._num.items()},
            self._den * common))


def sum_of_products(terms: Iterable[Tuple[Union[int, Rat], Union[MultiPoly, int, Rat],
                                          Union[MultiPoly, int, Rat]]]) -> MultiPoly:
    """The sum of ``c * a * b`` over ``terms`` ``(c, a, b)`` in one pass: c
    is a rational (a sign, say), and a or b may be one.  It equals the sum
    of the products from ``MultiPoly.zero()``, with the same variables (the
    canonical union of every polynomial operand's) and the same degree
    checks, made before any product is accumulated; a caller that skips
    zero terms skips them before calling."""
    terms = list(terms)
    vs, keys, moves = _layout(x for _, a, b in terms for x in (a, b) if isinstance(x, MultiPoly))
    # each product as the numerators of its factors over the layout, a
    # rational factor being the constant 1 (key 0) with its value moved
    # into the product's numerator and denominator
    products = []
    for c, a, b in terms:
        num, den = c.numerator, c.denominator
        factors = []
        for x in (a, b):
            if isinstance(x, MultiPoly):
                factors.append(x._num if x.vars not in moves else _moved(x._num, *moves[x.vars]))
                den *= x._den
            else:
                factors.append({0: 1})
                num *= x.numerator
                den *= x.denominator
        products.append((*factors, num, den))
    common = math.lcm(*(den for *_, den in products))
    parts = [(na, nb, num * (common // den)) for na, nb, num, den in products]
    return _make(vs, keys, *_sum_products(parts, len(vs), common))


# ---------------------------------------------------------------------------
# Serialization


def to_string(p: MultiPoly) -> str:
    """Canonical textual form: terms sorted by (total degree, exponents)
    descending, which is the order of their keys, rationals as
    ``num/den``.  Round-trips bit-exactly through the expression parser."""
    if not p._num:
        return "0"
    den = p._den
    fields = tuple(zip(p.vars, range(_FIELD * (len(p.vars) - 1), -1, -_FIELD)))
    chunks = []
    for key, num in sorted(p._num.items(), reverse=True):
        factors = []
        for v, at in fields:
            e = key >> at & _FIELD_MASK
            if e == 1:
                factors.append(v)
            elif e > 1:
                factors.append(f"{v}^{e}")
        mag = abs(num)
        if not factors or mag != den:
            factors.insert(0, format_rat(Fraction(mag, den)))
        body = "*".join(factors)
        if not chunks:
            chunks.append(body if num > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if num > 0 else f"- {body}")
    return " ".join(chunks)


# ---------------------------------------------------------------------------
# Shared conventions: vector spaces (``Linear``), signs, face maps, and the
# matrix kernel (``mat_vec``, ``mat_mul``, ``identity``, ``mat_add``,
# ``mat_scale``, ``clear_denominators`` and the fraction-free
# ``integer_rref``)


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


def _mismatch(a: "Linear", b: "Linear") -> str:
    """Why ``b`` does not add to ``a``, in a line: a shape may hold a group,
    whose repr runs to thousands of characters."""
    head = f"cannot add a {type(b).__name__} to a {type(a).__name__}"
    if type(a) is type(b):
        i, x, y = next((i, x, y) for i, (x, y) in enumerate(zip(a._shape(), b._shape()))
                       if x != y)
        head += f": shape entry {i} is {repr(y)[:60]}, not {repr(x)[:60]}"
    return head


class Linear:
    """An element of a vector space over the rationals: the one
    implementation of the protocol that every cochain and every payload of
    the perturbation engine follows.

    A subclass lists its constructor's arguments, in order, as its
    ``__slots__``, the last one holding its data, and names the ``ValueKind``
    of that data as ``_kind``.  The other fields are the shape, which two
    summands share: the space (group, algebra, rep, chart, cover) and the
    degree.  Only data with a shape of its own extends ``_shape``.  It keeps
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
        return tuple(getattr(self, name) for name in self.__slots__[:-1])

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
            raise ShapeError(_mismatch(self, other))
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


def slot_shift(family: str, first: int, last: int, n: int) -> Dict[str, MultiPoly]:
    """Face-map substitution in which slot s reads slot s + 1, for
    first <= s <= last, on the n coordinates of each slot of ``family``."""
    return {
        v: MultiPoly.var(w)
        for s in range(first, last + 1)
        for v, w in zip(_coords(family, s, n), _coords(family, s + 1, n))
    }


def integer_rref(rows: Sequence[Sequence[int]]) -> Tuple[List[List[int]], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of an integer
    matrix: ``(rows, d)`` with the reduced row echelon form equal to
    ``rows / d``, zero rows dropped.  Every pivot of ``rows`` equals ``d``,
    the last pivot minor, and every division is exact (Sylvester's
    identity), so the entries stay integers and no step normalises."""
    rows = [list(r) for r in rows]
    prev = 1
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        piv = top[c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                rows[i] = [(piv * a - f * b) // prev for a, b in zip(row, top)]
        prev = piv
        r += 1
        if r == len(rows):
            break
    return rows[:r], prev


def clear_denominators(v: Sequence[Rat]) -> Tuple[List[int], int]:
    """``(ints, d)`` with ``v == ints / d``, d the lcm of the denominators
    of the rationals (or ints) ``v``."""
    den = math.lcm(*(x.denominator for x in v))
    return [x.numerator * (den // x.denominator) for x in v], den


# The matrix kernel, one for both coefficient rings.  A matrix is a sequence
# of rows, and every result is a new list (of row lists).  Entries are
# ``Fraction``s or ``MultiPoly``s, and one product may mix them; the same
# functions run over ``int``, for integer matrices over one denominator.  A
# function that can form an empty sum takes the zero of its result's ring
# as ``zero``: the polynomial zero by default, ``Fraction(0)`` for a
# rational result, ``0`` for an integer one.  Products skip zero entries,
# which changes no result.

#: The zero of the polynomial ring, the default ``zero`` of the kernel.
POLY_ZERO = MultiPoly.zero()


def mat_vec(mat: Sequence[Sequence], vec: Sequence, zero=POLY_ZERO) -> list:
    """Matrix times vector.  Over ``MultiPoly`` zero operands are left out
    by ``is_zero``, so they do not widen the fused sum; over numbers, by
    their truth value."""
    if isinstance(zero, MultiPoly):
        nonzero = [(j, v) for j, v in enumerate(vec) if not is_zero(v)]
        return [sum_of_products((1, m, v) for j, v in nonzero if not is_zero(m := row[j]))
                for row in mat]
    nonzero = [(j, v) for j, v in enumerate(vec) if v]
    out = []
    for row in mat:
        acc = zero
        for j, v in nonzero:
            m = row[j]
            if m:
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

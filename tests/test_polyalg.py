import functools
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cochainlab.polyalg import (
    DEGREE_CAP,
    DegreeOverflowError,
    MultiPoly,
    canonical_vars,
    clear_denominators,
    fiber_vars,
    format_rat,
    identity,
    integer_rref,
    mat_add,
    mat_mul,
    mat_scale,
    mat_vec,
    slot_shift,
    slot_vars,
    sort_sign,
    sum_of_products,
    to_string,
    var_key,
)

from conftest import eval_at

VARS = ("t1", "t2", "g1_1", "g1_2", "g2_1", "y_1", "y_2")

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def polys(draw, max_terms=4, max_deg=3):
    acc = MultiPoly.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        term = MultiPoly.const(draw(rationals))
        for _ in range(draw(st.integers(0, max_deg))):
            term = term * MultiPoly.var(draw(st.sampled_from(VARS)))
        acc = acc + term
    return acc


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b) - b == a
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * MultiPoly.const(1) == a
    assert (a * MultiPoly.zero()).is_zero()


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_diff_is_derivation(a, b):
    for v in ("t1", "y_1"):
        lhs = (a * b).diff(v)
        rhs = a.diff(v) * b + a * b.diff(v)
        assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(polys())
def test_diff_commutes(a):
    assert a.diff("t1").diff("y_1") == a.diff("y_1").diff("t1")


@settings(max_examples=40, deadline=None)
@given(polys(), st.sampled_from(VARS))
def test_defint01_of_derivative(a, v):
    # fundamental theorem: int_0^1 da/dv dv = a|_{v=1} - a|_{v=0}
    assert a.diff(v).defint01(v) == a.subst({v: 1}) - a.subst({v: 0})


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_subst_is_homomorphism(a, b):
    sub = {"t1": MultiPoly.var("y_2") * 2 + 1, "g1_1": MultiPoly.var("t2")}
    assert (a + b).subst(sub) == a.subst(sub) + b.subst(sub)
    assert (a * b).subst(sub) == a.subst(sub) * b.subst(sub)


def test_subst_is_simultaneous():
    x, y = MultiPoly.var("y_1"), MultiPoly.var("y_2")
    p = x * y
    swapped = p.subst({"y_1": y, "y_2": x})
    assert swapped == p
    shifted = (x + y).subst({"y_1": y, "y_2": x + y})
    assert shifted == x + y * 2


def test_renamings_match_the_reference_substitution():
    x, y, t = MultiPoly.var("y_1"), MultiPoly.var("y_2"), MultiPoly.var("t1")
    cases = [
        # onto a passthrough variable: y_1 y_2 -> y_2^2
        (x * y, {"y_1": y}),
        # two renames onto one target, whose exponents add
        (x * t ** 2 + t * x * Fraction(1, 3) - 3, {"y_1": y, "t1": y}),
        # a swap
        (x ** 2 * y + 2 * y, {"y_1": y, "y_2": x}),
        # a rename beside a polynomial value of the renamed target
        (x * y ** 2 + x + y, {"y_1": y, "y_2": x * x}),
        # renames beside a real substitution, landing on one term
        (x * t + y * t ** 2 * Fraction(1, 2), {"y_1": t, "y_2": y, "t1": t * Fraction(1, 2) + 1}),
        # a collision that cancels: zero over the passthrough variable
        (x - y, {"y_1": y}),
        # scaled renamings c w: the negation of an inverse, and c = 2, 1/2
        (x ** 2 * y - x * t + 3, {"y_1": -x, "t1": -t}),
        (x ** 3 * y + x * t * Fraction(2, 3) + y, {"y_1": 2 * t, "y_2": y * Fraction(1, 2)}),
        # a scaled renaming onto a passthrough variable, beside a factor
        (x * y ** 2 + x ** 2 - t * x, {"y_1": y * Fraction(-1, 2), "t1": x * x + 1}),
        # two scaled renamings onto one target, landing on one term
        (x * t - t * x * 2 + x ** 2, {"y_1": y * 2, "t1": y * Fraction(1, 2)}),
    ]
    for p, assignment in cases:
        got = p.subst(assignment)
        vs, terms = _ref_subst(_pair(p), {v: _pair(f) for v, f in assignment.items()})
        assert got.vars == vs and got.terms == terms
    assert (x * y).subst({"y_1": y}) == y ** 2
    cancelled = (x - y).subst({"y_1": y})
    assert cancelled.is_zero() and cancelled.vars == ("y_2",)


def test_renamings_form_no_products_or_powers(monkeypatch):
    import cochainlab.polyalg as polyalg

    n = 2
    names = slot_vars(1, n) + slot_vars(2, n) + fiber_vars(n)
    p = MultiPoly(names, {(1, 0, 2, 0, 0, 1): Fraction(3, 2), (0, 1, 0, 1, 2, 0): -1,
                          (0, 0, 1, 0, 0, 0): 4, (0, 0, 0, 0, 0, 0): 5, (2, 0, 0, 1, 0, 0): 7})
    # face 0 of the group coboundary, and bg_h at p = 2: slot 2 reads the
    # fiber point, which reads 0
    face = slot_shift("g", 1, 2, n)
    to_fiber = dict(zip(slot_vars(2, n), map(MultiPoly.var, fiber_vars(n))))
    to_fiber.update(dict.fromkeys(fiber_vars(n), Fraction(0)))

    def forbidden(*args):
        raise AssertionError("a renaming went through a product or a power")

    monkeypatch.setattr(polyalg, "_product", forbidden)
    monkeypatch.setattr(MultiPoly, "__pow__", forbidden)
    # PolyGroup.invert's negation, and scalings by 2 and 1/2
    negated = {v: -MultiPoly.var(v) for v in slot_vars(1, n)}
    scaled = {"y_1": MultiPoly.var("g1_2") * 2, "g2_1": MultiPoly.var("y_2") * Fraction(1, 2)}
    for assignment in (face, to_fiber, negated, scaled):
        got = p.subst(assignment)
        vs, terms = _ref_subst(_pair(p), {v: _operand(f) for v, f in assignment.items()})
        assert got.vars == vs and got.terms == terms


def test_eval_at():
    p = MultiPoly.var("t1") * MultiPoly.var("t1") + 1
    assert eval_at(p, {"t1": Fraction(1, 2)}) == Fraction(5, 4)


def test_canonical_variable_order():
    names = ["y_1", "g2_1", "g1_2", "t2", "t1", "g1_1", "zeta"]
    assert canonical_vars(names) == (
        "t1", "t2", "g1_1", "g1_2", "g2_1", "y_1", "zeta",
    )
    assert var_key("t1") < var_key("g1_1") < var_key("m0_1") < var_key("y_1")


def test_variables_are_stored_in_canonical_order():
    # equal polynomials print alike, whatever order their variables came in
    a = MultiPoly(("y_1", "g1_1", "t2"), {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 2): 3})
    b = MultiPoly(("t2", "g1_1", "y_1"), {(0, 0, 1): 1, (0, 1, 0): 1, (2, 0, 0): 3})
    assert a.vars == b.vars == ("t2", "g1_1", "y_1")
    assert a.terms == b.terms
    assert to_string(a) == to_string(b) == "3*t2^2 + g1_1 + y_1"
    assert to_string(MultiPoly(("y_1", "g1_1"), {(1, 0): 1, (0, 1): 1})) == "g1_1 + y_1"


def test_degree_cap_enforced():
    x = MultiPoly.var("t1")
    with pytest.raises(DegreeOverflowError):
        x ** (DEGREE_CAP + 1)


def test_an_overflowing_power_names_its_degree():
    # the power's own degree, checked before any squaring step
    x = MultiPoly.var("g1_1")
    for n in (DEGREE_CAP + 1, 10**11):
        with pytest.raises(DegreeOverflowError, match=f"total degree {n} exceeds cap {DEGREE_CAP}"):
            x ** n
    with pytest.raises(DegreeOverflowError, match=f"total degree 26 exceeds cap {DEGREE_CAP}"):
        (x * x + 1) ** 13


def test_format_rat():
    assert format_rat(Fraction(3)) == "3"
    assert format_rat(Fraction(-1, 2)) == "-1/2"


@settings(max_examples=40, deadline=None)
@given(polys())
def test_to_string_roundtrip(a):
    from cochainlab.cli import parse_expr

    assert parse_expr(to_string(a)) == a


def _cycle_parity(items, key):
    """Reference sign: sort positions by key, then count the transpositions
    that undo the sorting permutation cycle by cycle."""
    ranked = sorted(range(len(items)), key=lambda i: key(items[i]))
    sign = 1
    perm = list(ranked)
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return tuple(items[i] for i in ranked), sign


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3, 6), max_size=7), st.sampled_from([None, lambda i: -i]))
def test_sort_sign_matches_cycle_parity(items, key):
    ref_key = key or (lambda i: i)
    result, sign = sort_sign(items, key=key)
    if len({ref_key(i) for i in items}) < len(items):
        assert (result, sign) == (None, 0)
    else:
        assert (result, sign) == _cycle_parity(items, ref_key)


def test_hash_agrees_with_eq():
    x, y = MultiPoly.var("t1"), MultiPoly.var("y_1")
    padded = x + y - y
    assert padded == x and padded.vars != x.vars
    assert hash(padded) == hash(x)
    assert len({x, padded}) == 1
    three = MultiPoly.const(3) + y - y
    assert three == 3 and hash(three) == hash(3) and len({three, 3, Fraction(3)}) == 1
    # a polynomial equals no string, not even its variable's name
    assert x.__eq__("t1") is NotImplemented and x != "t1"


def test_a_polynomial_is_immutable_and_counts_its_terms():
    p = MultiPoly.var("t1") * Fraction(1, 3) - 2
    with pytest.raises(AttributeError, match="MultiPoly is immutable"):
        p.vars = ()
    with pytest.raises(AttributeError, match="MultiPoly is immutable"):
        p.extra = 1
    assert len(p.terms) == 2 and len(MultiPoly.zero().terms) == 0


@pytest.mark.parametrize("build, message", [
    (lambda: MultiPoly(("t1",), {(1, 2): 1}), r"exponent \(1, 2\) does not match vars \('t1',\)"),
    # each of these would spill into a neighbouring field of a packed key
    (lambda: MultiPoly(("t1", "t1"), {(1, 1): 1, (2, 0): 1}), r"repeated variable in \('t1', 't1'\)"),
    (lambda: MultiPoly(("t1",), {(-1,): 1}), r"exponent \(-1,\) must hold non-negative ints"),
    (lambda: MultiPoly(("t1",), {(1.5,): 1}), r"exponent \(1.5,\) must hold non-negative ints"),
    (lambda: MultiPoly.var("t1").constant_value(), "polynomial is not constant"),
    (lambda: MultiPoly.var("t1") ** -1, "negative power"),
])
def test_polynomial_inputs_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def _stored(p):
    """p's stored numerators, keyed by their nonzero (variable, exponent)
    pairs, and its denominator."""
    return {tuple((v, e) for v, e in zip(p.vars, exp) if e): c * p._den
            for exp, c in p.terms.items()}, p._den


def test_equal_polynomials_store_equal_numerators_and_denominators():
    # (t1 + y_1)/2, built by routes that pass through other denominators
    x, y, t = MultiPoly.var("t1"), MultiPoly.var("y_1"), MultiPoly.var("t2")
    half = Fraction(1, 2)
    routes = [
        (x + y) * half,
        half * x + y * Fraction(2, 4),
        MultiPoly(("y_1", "t1"), {(1, 0): Fraction(3, 6), (0, 1): half}),
        (x * 3 + 3 * y) * Fraction(1, 6),
        ((x + y) ** 2 * Fraction(1, 4)).diff("t1"),
        (t * (x + y)).defint01("t2"),
        (x * Fraction(1, 3) + y * Fraction(1, 6)) + (x * Fraction(1, 6) + y * Fraction(1, 3)),
        ((t + y) * half).subst({"t2": x}),
        (x * half + y * half + x * x * y).truncated(1),
    ]
    for p in routes:
        assert p == routes[0] and hash(p) == hash(routes[0])
        assert _stored(p) == ({(("t1", 1),): 1, (("y_1", 1),): 1}, 2)
    # a sum that cancels to a constant, or to zero, is stored in lowest terms too
    assert _stored(x * half + Fraction(3, 4) - x * half) == ({(): 3}, 4)
    assert _stored((x + y) * half - y * half - x * half) == ({}, 1)


# Reference kernel: polynomials as (vars, terms) pairs, every operation
# aligned by a full re-sort and rebuilt through the checking constructor,
# as the kernel did before it carried its variable order.


def _ref_make(vs, terms):
    p = MultiPoly(vs, terms)
    return p.vars, p.terms


def _ref_extend(a, names):
    vs, terms = a
    target = canonical_vars(vs + tuple(names))
    if target == vs:
        return a
    pos = {v: i for i, v in enumerate(target)}
    out = {}
    for exp, coef in terms.items():
        new = [0] * len(target)
        for v, e in zip(vs, exp):
            new[pos[v]] = e
        out[tuple(new)] = coef
    return _ref_make(target, out)


def _ref_aligned(a, b):
    if a[0] == b[0]:
        return a, b
    return _ref_extend(a, b[0]), _ref_extend(b, a[0])


def _ref_add(a, b):
    a, b = _ref_aligned(a, b)
    out = dict(a[1])
    for exp, coef in b[1].items():
        out[exp] = out.get(exp, Fraction(0)) + coef
    return _ref_make(a[0], out)


def _ref_mul(a, b):
    a, b = _ref_aligned(a, b)
    out = {}
    for ea, ca in a[1].items():
        for eb, cb in b[1].items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return _ref_make(a[0], out)


def _ref_pow(a, n):
    result = _ref_make(a[0], {(0,) * len(a[0]): Fraction(1)})
    for _ in range(n):
        result = _ref_mul(result, a)
    return result


def _ref_subst(a, assignment):
    vs, terms = a
    values = {v: p for v, p in assignment.items() if v in vs}
    if not values:
        return a
    passthrough = tuple(v for v in vs if v not in values)
    acc = _ref_make(passthrough, {})
    for exp, coef in terms.items():
        term = _ref_make(passthrough, {(0,) * len(passthrough): coef})
        for v, e in zip(vs, exp):
            if e:
                factor = values.get(v, ((v,), {(1,): Fraction(1)}))
                term = _ref_mul(term, _ref_pow(factor, e))
        acc = _ref_add(acc, term)
    return acc


def _ref_diff(a, v):
    vs, terms = a
    if v not in vs:
        return _ref_make(vs, {})
    i = vs.index(v)
    return _ref_make(vs, {exp[:i] + (exp[i] - 1,) + exp[i + 1:]: coef * exp[i]
                          for exp, coef in terms.items() if exp[i]})


def _ref_defint01(a, v):
    vs, terms = a
    if v not in vs:
        return a
    i = vs.index(v)
    out = {}
    for exp, coef in terms.items():
        key = exp[:i] + (0,) + exp[i + 1:]
        out[key] = out.get(key, Fraction(0)) + coef / (exp[i] + 1)
    return _ref_make(vs, out)


def _ref_truncated(a, degree):
    vs, terms = a
    return _ref_make(vs, {exp: coef for exp, coef in terms.items() if sum(exp) <= degree})


def _ref_scaled(a, c):
    vs, terms = a
    return _ref_make(vs, {exp: coef * c for exp, coef in terms.items()})


def _ref_eval(a, point):
    """A Fraction at a point that leaves no variable of positive degree,
    else a polynomial, as ``eval_at`` returns."""
    vs, terms = _ref_subst(a, {v: _ref_make((), {(): c}) for v, c in point.items()})
    if any(map(any, terms)):
        return vs, terms
    return sum(terms.values(), Fraction(0))


def _ref_antiderivative(a, v):
    vs, terms = _ref_extend(a, (v,))
    i = vs.index(v)
    return _ref_make(vs, {exp[:i] + (exp[i] + 1,) + exp[i + 1:]: coef / (exp[i] + 1)
                          for exp, coef in terms.items()})


def _pair(p):
    return p.vars, p.terms


def _operand(x):
    """A polynomial or a rational as a reference pair, the rational over no
    variables."""
    return _pair(x) if isinstance(x, MultiPoly) else _ref_make((), {(): x})


# The binary folds the fused kernels replace: from the zero over no
# variables, skipping what the callers skipped.


def _ref_derivation(a, field):
    acc = _ref_make((), {})
    for v, f in field.items():
        d = _ref_diff(a, v)
        if d[1]:
            acc = _ref_add(acc, _ref_mul(_operand(f), d))
    return acc


def _ref_sum_of_products(terms):
    acc = _ref_make((), {})
    for c, a, b in terms:
        acc = _ref_add(acc, _ref_scaled(_ref_mul(_operand(a), _operand(b)), c))
    return acc


@st.composite
def raw_polys(draw):
    """A polynomial built directly, over any order of some of VARS."""
    vs = tuple(draw(st.permutations(VARS))[: draw(st.integers(0, 4))])
    exps = st.tuples(*[st.integers(0, 2)] * len(vs))
    return MultiPoly(vs, draw(st.dictionaries(exps, rationals, max_size=4)))


@st.composite
def bare_vars(draw):
    """A variable of VARS with coefficient 1: a renaming when substituted,
    over that variable alone or over more of VARS at exponent zero."""
    w = draw(st.sampled_from(VARS))
    if draw(st.booleans()):
        return MultiPoly.var(w)
    vs = draw(st.permutations(VARS))[: draw(st.integers(1, 4))]
    vs = vs if w in vs else vs + [w]
    return MultiPoly(vs, {tuple(int(v == w) for v in vs): 1})


any_polys = st.one_of(polys(), raw_polys())
#: Values of a substitution or a vector field: polynomials, renamings and
#: small ints.
values = st.dictionaries(st.sampled_from(VARS),
                         st.one_of(any_polys, bare_vars(), st.integers(-2, 2)), max_size=3)
#: Terms ``(c, a, b)`` of a sum of products, scalars and polynomials mixed.
products = st.lists(st.tuples(st.one_of(st.integers(-2, 2), rationals),
                              st.one_of(any_polys, rationals), st.one_of(any_polys, rationals)),
                    max_size=3)


@settings(max_examples=150, deadline=None)
@given(any_polys, any_polys, st.integers(0, 3), values, products,
       st.sampled_from(VARS), st.integers(-2, 3), rationals,
       st.dictionaries(st.sampled_from(VARS), rationals, max_size=len(VARS)))
def test_kernel_matches_reference(a, b, n, assignment, terms, v, k, c, point):
    ra, rb = _pair(a), _pair(b)
    ref_values = {v: _pair(p) if isinstance(p, MultiPoly) else _ref_make((), {(): p})
                  for v, p in assignment.items()}
    names = tuple(b.vars)
    cases = [
        (a + b, _ref_add(ra, rb)),
        (a * b, _ref_mul(ra, rb)),
        (a ** n, _ref_pow(ra, n)),
        (a.extend(names), _ref_extend(ra, names)),
        (a.extend(b), _ref_extend(ra, names)),
        (a.subst(assignment), _ref_subst(ra, ref_values)),
        (a.diff(v), _ref_diff(ra, v)),
        (a.defint01(v), _ref_defint01(ra, v)),
        (a.truncated(n), _ref_truncated(ra, n)),
        (a * k, _ref_scaled(ra, k)),
        (c * a, _ref_scaled(ra, c)),
        (MultiPoly.var(v) * a.degree_scaled((v,), 1), _ref_antiderivative(ra, v)),
    ]
    # the fused kernels against their folds: the assignment as a field, an
    # empty one, one over variables a lacks, and zero values; a drawn sum of
    # products, single terms and none
    absent = {w: b for w in VARS if w not in a.vars}
    zeros = {w: z for w, z in zip(VARS, (0, MultiPoly.zero(), b * 0) * 3)}
    for f in (assignment, {}, absent, zeros):
        cases.append((a.derivation(f), _ref_derivation(ra, f)))
    for t in (terms, [(k, a, b)], [(c, a, 3)], [(1, c, b)], []):
        cases.append((sum_of_products(t), _ref_sum_of_products(t)))
    value, expected = eval_at(a, point), _ref_eval(ra, point)
    if isinstance(expected, Fraction):
        assert type(value) is Fraction and value == expected
    else:
        cases.append((value, expected))
    for got, (vs, terms) in cases:
        assert got.vars == vs
        assert got.terms == terms
        assert all(type(c) is Fraction for c in got.terms.values())


def _ref_degree_scaled(a, names, shift):
    vs, terms = a
    return _ref_make(vs, {exp: coef / (sum(e for v, e in zip(vs, exp) if v in names) + shift)
                          for exp, coef in terms.items()})


@settings(max_examples=100, deadline=None)
@given(any_polys, st.lists(st.sampled_from(VARS + ("x",)), max_size=4), st.integers(1, 4))
def test_degree_scaling_matches_reference(a, names, shift):
    # each term divided by its degree in ``names`` plus the shift, over a's
    # own variables; names a lacks count for nothing
    got = a.degree_scaled(names, shift)
    vs, terms = _ref_degree_scaled(_pair(a), names, shift)
    assert got.vars == vs
    assert got.terms == terms
    assert all(type(c) is Fraction for c in got.terms.values())


def test_no_float_reaches_a_result():
    # integrals of odd exponents and scalings by 1/2 make denominators that
    # the kernel must carry as ints, never as a float quotient
    x, y = MultiPoly.var("t1"), MultiPoly.var("y_1")
    half = Fraction(1, 2)
    p = 3 * x**3 * y + x * y**2 + x**5 + 7
    results = [
        p.defint01("t1"), p.defint01("y_1"), p * half, half * p, p * 2 * half,
        (p * half).defint01("t1") * half, (p * half).diff("t1"), (p * half).truncated(4),
        (x * half) ** 3, (p * half).subst({"y_1": x * half}), eval_at(p, {"y_1": half}),
    ]
    for r in results:
        assert type(r._den) is int and all(type(c) is int for c in r._num.values())
        assert all(type(c) is Fraction for c in r.terms.values())
    # 3/8 + 1/6 + 1/6 + 7, exactly
    area = p.defint01("t1").defint01("y_1")
    assert type(area.constant_value()) is Fraction and area.constant_value() == Fraction(185, 24)
    assert area == Fraction(185, 24)
    value = eval_at(p * half, {"t1": half, "y_1": 3})
    assert type(value) is Fraction and value == Fraction(1, 2) * (
        Fraction(9, 8) + Fraction(9, 2) + Fraction(1, 32) + 7
    )
    assert type(MultiPoly.zero().constant_value()) is Fraction


def test_products_powers_and_substitutions_keep_the_degree_cap():
    x, y = MultiPoly.var("t1"), MultiPoly.var("y_1")
    half = DEGREE_CAP // 2 + 1
    with pytest.raises(DegreeOverflowError):
        (x ** half) * (y ** half)
    with pytest.raises(DegreeOverflowError):
        (x * y + 1) ** half
    with pytest.raises(DegreeOverflowError):
        (x ** half).subst({"t1": y * y + x})
    # a product of nonzero polynomials keeps its top degree; zero has none
    assert ((x ** DEGREE_CAP) * MultiPoly.zero()).is_zero()
    assert (x ** half).subst({"t1": 0}).is_zero()


def test_packed_fields_hold_the_degree_cap(monkeypatch):
    import cochainlab.polyalg as polyalg

    # no exponent nor total degree within the cap fills a field
    assert DEGREE_CAP < 1 << polyalg._FIELD
    x, y, g = MultiPoly.var("t1"), MultiPoly.var("y_1"), MultiPoly.var("g1_1")
    # terms of degree exactly the cap, by product, power and substitution
    at_cap = [
        (x ** DEGREE_CAP, _ref_pow(_pair(x), DEGREE_CAP)),
        ((x * y) ** 12, _ref_pow(_pair(x * y), 12)),
        (x ** 12 * y ** 11 * (g + 1), _ref_mul(_pair(x ** 12 * y ** 11), _pair(g + 1))),
        ((x ** 12 + y).subst({"t1": g * y + x}),
         _ref_subst(_pair(x ** 12 + y), {"t1": _pair(g * y + x)})),
    ]
    for got, (vs, terms) in at_cap:
        assert max(map(sum, got.terms)) == DEGREE_CAP
        cases = [(got, (vs, terms))]
        for v in ("t1", "g1_1", "y_1"):
            cases += [(got.diff(v), _ref_diff((vs, terms), v)),
                      (got.defint01(v), _ref_defint01((vs, terms), v))]
        for p, (ref_vs, ref_terms) in cases:
            assert p.vars == ref_vs and p.terms == ref_terms
    # the fused kernels and the antiderivative (x times the degree scaling)
    # land on the cap too
    p = x ** 13 * y ** 6 + g
    field = {"y_1": 2, "t1": g ** 5 * y + 1}
    terms = [(1, x ** 12, y ** 12), (-2, g ** 24, 1), (Fraction(1, 2), x, g)]
    fused = [
        (p.derivation(field), _ref_derivation(_pair(p), field)),
        (sum_of_products(terms), _ref_sum_of_products(terms)),
        (g * (x ** 12 * y ** 11).degree_scaled(("g1_1",), 1),
         _ref_antiderivative(_pair(x ** 12 * y ** 11), "g1_1")),
    ]
    for got, (vs, ref_terms) in fused:
        assert max(map(sum, got.terms)) == DEGREE_CAP
        assert got.vars == vs and got.terms == ref_terms
    # one past the cap raises, naming the degree it would reach
    past = f"total degree {DEGREE_CAP + 1} exceeds cap {DEGREE_CAP}"
    for build in (lambda: x ** DEGREE_CAP * y, lambda: (x * y) ** 12 * (g + 1),
                  lambda: (x ** 5) ** 5, lambda: (x ** 23 * y).subst({"y_1": y * g}),
                  lambda: g * (x ** 23 * y).degree_scaled(("g1_1",), 1)):
        with pytest.raises(DegreeOverflowError, match=past):
            build()
    # the fused kernels check every product before they form any: unlike
    # the folds, which normalise each product as they go, they raise
    # without normalising one
    field, terms = {"y_1": 1, "t1": g ** 6 * y}, [(1, x, y), (2, x ** 12 * g, y ** 12)]
    normalised = []
    original = polyalg._normal
    monkeypatch.setattr(polyalg, "_normal", lambda *args: normalised.append(args) or original(*args))
    for build in (lambda: p.derivation(field), lambda: sum_of_products(terms)):
        with pytest.raises(DegreeOverflowError, match=past):
            build()
    assert normalised == []
    # an operand over no variables takes the other's layout as it is
    wide = functools.reduce(operator.mul, map(MultiPoly.var, VARS)) + g - 1
    for const in (MultiPoly.const(Fraction(-3, 2)), MultiPoly.zero()):
        for got, ref in ((const + wide, _ref_add), (wide + const, _ref_add),
                         (const * wide, _ref_mul), (wide * const, _ref_mul)):
            vs, terms = ref(_pair(const), _pair(wide))
            assert got.vars == vs == wide.vars and got.terms == terms
    # an exponent no stored term can have is absent, not packed into a
    # neighbouring field
    p = x * y ** 2 + 3
    assert p.terms.get((1, 2)) == 1 and p.terms.get((0, 0)) == 3
    for exp in ((1,), (1, 2, 0), (-1, 3), (2, -1), (0, DEGREE_CAP + 1), (1.0, 2), 5):
        assert p.terms.get(exp) is None and exp not in p.terms


def test_arithmetic_over_known_variables_parses_no_names(monkeypatch):
    import cochainlab.polyalg as polyalg

    g, t, y = MultiPoly.var("g1_2"), MultiPoly.var("t1"), MultiPoly.var("y_1")
    a, b = g * t + 1, y * y - t
    calls = []
    original = polyalg.var_key
    monkeypatch.setattr(polyalg, "var_key", lambda name: calls.append(name) or original(name))
    c = (a + b) * (a - b) + a ** 3 - 2 * b
    c = c.subst({"t1": a, "y_1": 3}) + c.diff("g1_2") + c.defint01("t1")
    assert c.extend(b) + a == a + c and -c != c
    assert calls == []


# The matrix kernel: one implementation over both coefficient rings.


def poly_matrices(rows, cols):
    """Small polynomial matrices; about a third of the entries are zero."""
    entry = polys(max_terms=2, max_deg=2)
    return st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


points = st.fixed_dictionaries({v: rationals for v in VARS})


def _at(mat, point):
    return [[eval_at(e, point) for e in row] for row in mat]


def _dense_mat_mul(a, b, zero):
    """Reference product that sums every term, zero entries included."""
    return [
        [functools.reduce(operator.add, (row[k] * b[k][j] for k in range(len(b))), zero)
         for j in range(len(b[0]))]
        for row in a
    ]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.data())
def test_matrix_kernel_commutes_with_evaluation(n, m, l, data):
    a, a2 = data.draw(poly_matrices(n, m)), data.draw(poly_matrices(n, m))
    b = data.draw(poly_matrices(m, l))
    v = data.draw(st.lists(polys(max_terms=2, max_deg=2), min_size=m, max_size=m))
    r = data.draw(st.lists(st.lists(rationals, min_size=m, max_size=m), min_size=n, max_size=n))
    c, point = data.draw(rationals), data.draw(points)
    zero = Fraction(0)
    a_at, v_at = _at(a, point), [eval_at(x, point) for x in v]
    # the polynomial kernel, then evaluation; and evaluation, then the
    # rational kernel (a rational matrix times a polynomial vector included)
    # or, entrywise, plain rational arithmetic
    cases = [
        (mat_mul(a, b), mat_mul(a_at, _at(b, point), zero)),
        ([mat_vec(a, v)], [mat_vec(a_at, v_at, zero)]),
        ([mat_vec(r, v)], [mat_vec(r, v_at, zero)]),
        (mat_add(a, a2), [[x + y for x, y in zip(*rows)] for rows in zip(a_at, _at(a2, point))]),
        (mat_scale(a, c), [[x * c for x in row] for row in a_at]),
    ]
    for poly_result, rational_result in cases:
        assert all(isinstance(x, MultiPoly) for row in poly_result for x in row)
        assert all(type(x) is Fraction for row in rational_result for x in row)
        assert _at(poly_result, point) == rational_result


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.data())
def test_matrix_product_identity_and_associativity(n, m, l, k, data):
    a, b = data.draw(poly_matrices(n, m)), data.draw(poly_matrices(m, l))
    c = data.draw(poly_matrices(l, k))
    assert mat_mul(identity(n), a) == a == mat_mul(a, identity(m))
    assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.data())
def test_matrix_kernel_skips_zero_entries_without_changing_results(n, m, l, data):
    a, b = data.draw(poly_matrices(n, m)), data.draw(poly_matrices(m, l))
    r = data.draw(st.lists(st.lists(rationals, min_size=m, max_size=m), min_size=n, max_size=n))
    column = [[x] for x in data.draw(st.lists(rationals, min_size=m, max_size=m))]
    assert mat_mul(a, b) == _dense_mat_mul(a, b, MultiPoly.zero())
    assert [[x] for x in mat_vec(a, [row[0] for row in b])] == _dense_mat_mul(
        a, [row[:1] for row in b], MultiPoly.zero()
    )
    assert mat_mul(r, column, Fraction(0)) == _dense_mat_mul(r, column, Fraction(0))
    # each polynomial row is the fold it replaced, variables included
    vec = [row[0] for row in b]
    fold = [functools.reduce(operator.add, (x * y for x, y in zip(row, vec)
                                            if not (x.is_zero() or y.is_zero())), MultiPoly.zero())
            for row in a]
    assert [_pair(x) for x in mat_vec(a, vec)] == [_pair(x) for x in fold]
    # an empty sum is the zero that was passed, in its ring
    zeros = [[Fraction(0)] * m for _ in range(n)]
    assert all(type(x) is Fraction for x in mat_vec(zeros, [Fraction(1)] * m, Fraction(0)))
    assert all(x.is_zero() for x in mat_vec(zeros, [MultiPoly.var("t1")] * m))


def _rational_rref(rows):
    """Reference: Gauss-Jordan elimination in ``Fraction`` arithmetic, with
    each pivot row normalised as it is chosen."""
    rows = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return rows[:r]


def rational_matrices(rows, cols):
    return st.lists(st.lists(rationals, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5), st.integers(1, 5), st.integers(1, 3), st.data())
def test_fraction_free_rref_matches_rational_elimination(n, m, rank, data):
    full = data.draw(rational_matrices(n, m))
    # a product through a rank-dimensional space: rank deficient when n or
    # m is larger
    low = mat_mul(data.draw(rational_matrices(n, rank)), data.draw(rational_matrices(rank, m)),
                  Fraction(0))
    integral = [[x.numerator for x in row] for row in full]
    zero_rows = full[:1] + [[Fraction(0)] * m] + low[:1]
    for rows in (full, low, full + low, integral, zero_rows):
        ints, pivot = integer_rref([clear_denominators(row)[0] for row in rows])
        reduced = [[Fraction(x, pivot) for x in row] for row in ints]
        assert reduced == _rational_rref(rows)
        # an int / int division would leave a float here
        assert all(type(x) is Fraction for row in reduced for x in row)

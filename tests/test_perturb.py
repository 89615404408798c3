import dataclasses
import math
import random
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest

from cochainlab.cech_derham import CechForm, cech_instance
from cochainlab.liealg import CEElement
from cochainlab.nilgroup import GroupCochain, build_group
from cochainlab import perturb
from cochainlab.perturb import (
    Graded,
    NonTermination,
    Vec,
    ZigzagTrace,
    _image,
    _inverse,
    _rand_invertible,
    graded_perturbed_h,
    matrix_instance,
    neumann_apply,
    perturbed_h,
    perturbed_p,
    random_based_complex,
    verify_instance,
    zigzag_xy,
    zigzag_yx,
)
from cochainlab.polyalg import MultiPoly, identity, integer_rref, mat_mul, mat_vec
from cochainlab.vanest import build_double_complex, standard_poly_rep
from conftest import instance_operator_fields, total_diff


def test_matrix_instance_all_checks_pass():
    inst = matrix_instance(seed=0)
    reports = verify_instance(inst, seed=0, trials=5)
    fails = [r for r in reports if r["status"] == "fail"]
    assert fails == []


def test_matrix_instance_deterministic():
    a = verify_instance(matrix_instance(seed=3), seed=1, trials=3)
    b = verify_instance(matrix_instance(seed=3), seed=1, trials=3)
    assert a == b


def test_different_seeds_give_different_complexes():
    a, b = matrix_instance(seed=1), matrix_instance(seed=2)
    rng1, rng2 = random.Random(0), random.Random(0)
    x1, x2 = a.sample(rng1, 1, 1), b.sample(rng2, 1, 1)
    da, db = a.d(x1), b.d(x2)
    assert da.entries != db.entries


def test_neumann_terminates_within_p_plus_one():
    inst = matrix_instance(seed=4)
    rng = random.Random(0)
    for p in range(3):
        x = inst.sample(rng, p, 1)
        # (1 + dh)^{-1} = sum_{m<=p+1} (-dh)^m must terminate
        neumann_apply(inst, "horizontal", p, 1, x)


def test_neumann_apply_rejects_a_bidegree_that_is_not_its_elements():
    inst = matrix_instance(seed=4)
    x = inst.sample(random.Random(0), 1, 1)
    for which in ("horizontal", "vertical"):
        for p, q in ((0, 0), (2, 1), (1, 2)):
            with pytest.raises(ValueError, match=r"element at \(1, 1\)"):
                neumann_apply(inst, which, p, q, x)
        assert not neumann_apply(inst, which, 1, 1, x).is_zero()
    with pytest.raises(ValueError, match="unknown direction 'diagonal'"):
        neumann_apply(inst, "diagonal", 1, 1, x)


def test_the_neumann_bound_is_read_off_the_element():
    # With k in place of h, every term (-dk)^m x = (-1)^m dk x sits at x's
    # bidegree and is nonzero, so the sum stops at the p + 1 = 2 terms that
    # x's own bidegree allows.
    inst = matrix_instance(seed=4)
    broken = dataclasses.replace(inst, h=inst.k)
    x = inst.sample(random.Random(0), 1, 1)
    with pytest.raises(NonTermination, match=r"exceeded 2 terms at \(1, 1\)"):
        perturbed_h(broken, x)


# The matrix oracle's factor matrices: integer rows over one denominator.


def _fractions(mat):
    rows, den = mat
    return [[Fraction(x, den) for x in row] for row in rows]


def _factor_maps(cx):
    """Every factor matrix of a based complex."""
    top = len(cx.dims) - 1
    return [*cx.d_mats[:top], *cx.h_mats[1 : top + 1], cx.p_mat, cx.i_mat]


@pytest.mark.parametrize("seed", range(4))
def test_factor_maps_match_the_rational_kernel(seed):
    rng = random.Random(seed)
    for mat in _factor_maps(random_based_complex(rng, 4)):
        rows, den = mat
        n = len(rows[0])
        # lowest terms over a positive denominator
        assert den > 0 and math.gcd(den, *(x for row in rows for x in row)) == 1
        for _ in range(5):
            v = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in rows[0]]
            expected = mat_vec(_fractions(mat), v, Fraction(0))
            # v as one column, mapped from the left, and as one row, from the right
            for out in (_image(Vec(0, 0, v), n, 1, 0, 0, a=mat).entries,
                        _image(Vec(0, 0, v), 1, n, 0, 0, b=mat).entries):
                assert list(out) == expected
                assert all(type(x) is Fraction for x in out)


# The matrix oracle's operators as they were when a Vec held Fractions: each
# factor map applied to the rational coordinates of one column (A's maps) or
# one row (B's) at a time, zero outside its complex.  The reference that the
# integer products must match exactly.


def _ref_d(cx, p):
    if 0 <= p < len(cx.dims) - 1:
        return partial(mat_vec, _fractions(cx.d_mats[p]), zero=Fraction(0))
    return lambda v: [Fraction(0)] * cx.dim(p + 1)


def _ref_h(cx, p):
    if 1 <= p < len(cx.dims):
        return partial(mat_vec, _fractions(cx.h_mats[p]), zero=Fraction(0))
    return lambda v: [Fraction(0)] * cx.dim(p - 1)


def _ref_on_a(op, v, nb):
    cols = [op(v[j::nb]) for j in range(nb)]
    return tuple(c for row in zip(*cols) for c in row)


def _ref_on_b(op, v, na):
    nb = len(v) // na if na else 0
    return tuple(c for i in range(na) for c in op(v[i * nb : (i + 1) * nb]))


def _ref_operators(seed, max_p=3):
    """Per operator field, (input bidegrees, payload dims, reference map)
    for the matrix oracle of ``seed``: the reference takes rational
    entries at (p, q) and returns (p', q', entries)."""
    rng = random.Random(seed)
    A, B = random_based_complex(rng, max_p + 2), random_based_complex(rng, 5)
    proj = {cx: partial(mat_vec, _fractions(cx.p_mat), zero=Fraction(0)) for cx in (A, B)}
    inc = {cx: partial(mat_vec, _fractions(cx.i_mat), zero=Fraction(0)) for cx in (A, B)}

    def sign(p, v):
        return tuple(-c for c in v) if p % 2 else v

    # every bidegree from one below each complex to one above its top
    ps, qs = range(-1, len(A.dims) + 1), range(-1, len(B.dims) + 1)
    grid = [(p, q) for p in ps for q in qs]

    def payload(p, q):
        return A.dim(p), B.dim(q)

    def x_dims(p, q):
        return perturb._X_DIM, B.dim(q)

    def y_dims(p, q):
        return A.dim(p), perturb._X_DIM

    return A, B, {
        "delta": (grid, payload, lambda p, q, v: (
            p + 1, q, _ref_on_a(_ref_d(A, p), v, B.dim(q)))),
        "d": (grid, payload, lambda p, q, v: (
            p, q + 1, sign(p, _ref_on_b(_ref_d(B, q), v, A.dim(p))))),
        "h": (grid, payload, lambda p, q, v: (
            p - 1, q, _ref_on_a(_ref_h(A, p), v, B.dim(q)))),
        "k": (grid, payload, lambda p, q, v: (
            p, q - 1, sign(p, _ref_on_b(_ref_h(B, q), v, A.dim(p))))),
        "p_proj": ([(0, q) for q in qs], payload, lambda p, q, v: (
            0, q, _ref_on_a(proj[A], v, B.dim(q)))),
        "i_inc": ([(0, q) for q in qs], x_dims, lambda p, q, v: (
            0, q, _ref_on_a(inc[A], v, B.dim(q)))),
        "q_proj": ([(p, 0) for p in ps], payload, lambda p, q, v: (
            p, 0, _ref_on_b(proj[B], v, A.dim(p)))),
        "j_inc": ([(p, 0) for p in ps], y_dims, lambda p, q, v: (
            p, 0, _ref_on_b(inc[B], v, A.dim(p)))),
        "d_x": ([(0, q) for q in qs], x_dims, lambda p, q, v: (
            0, q + 1, _ref_on_b(_ref_d(B, q), v, perturb._X_DIM))),
        "delta_y": ([(p, 0) for p in ps], y_dims, lambda p, q, v: (
            p + 1, 0, _ref_on_a(_ref_d(A, p), v, perturb._X_DIM))),
    }


@pytest.mark.parametrize("seed", range(4))
def test_operators_match_the_fraction_reference(seed):
    inst = matrix_instance(seed)
    A, B, ref = _ref_operators(seed)
    assert sorted(ref) == sorted(instance_operator_fields())
    rng = random.Random(seed)
    seen = Counter()
    for name, (bidegrees, dims, reference) in ref.items():
        for p, q in bidegrees:
            na, nb = dims(p, q)
            for trial in range(3):
                v = [Fraction(0)] * (na * nb) if trial == 0 else [
                    rng.choice(perturb.SAMPLE_COEFFS) if trial == 1
                    else Fraction(rng.randint(-30, 30), rng.randint(1, 40))
                    for _ in range(na * nb)
                ]
                out = getattr(inst, name)(Vec(p, q, v))
                rp, rq, entries = reference(p, q, v)
                assert (out.p, out.q, out.entries) == (rp, rq, entries), (name, p, q)
                assert str(out) == "[" + ", ".join(map(str, entries)) + "]"
                seen[name, len(v) > 0, len(entries) > 0] += 1
    # the edges the engine reaches, each with a payload of the right length:
    # k at q = 0, h at p = 0, d of a payload at q = -1 (the d k x of
    # k_d_contraction), whose image at q = 0 is a full-length zero (Python's
    # d_mats[-1] is d at the top degree, which must not be used there), and
    # the top degrees, where d and delta leave the complex
    assert len(inst.k(inst.sample(rng, 1, 0)).entries) == 0
    assert len(inst.h(inst.sample(rng, 0, 2)).entries) == 0
    for p in range(3):
        image = inst.d(Vec(p, -1, ()))
        assert (image.p, image.q, image.is_zero()) == (p, 0, True)
        assert len(image.entries) == A.dim(p) * B.dim(0)
    assert len(inst.d(inst.sample(rng, 1, len(B.dims) - 1)).entries) == 0
    assert len(inst.delta(inst.sample(rng, len(A.dims) - 1, 1)).entries) == 0
    # every operator met empty and nonempty inputs and images
    assert all(seen[name, False, True] and seen[name, True, True] for name in ref
               if name not in ("p_proj", "i_inc", "q_proj", "j_inc")), seen


def test_a_payload_of_the_wrong_length_is_rejected():
    inst = matrix_instance(0)
    full = inst.sample(random.Random(1), 1, 1).entries
    assert len(full) == 16
    for entries in (full[:-1], full + (Fraction(1),)):
        for name in instance_operator_fields():
            x = Vec(1, 1, entries)
            if name in ("p_proj", "i_inc", "d_x"):
                x = Vec(0, 1, entries)
            elif name in ("q_proj", "j_inc", "delta_y"):
                x = Vec(1, 0, entries)
            with pytest.raises(ValueError, match=r"at \(\d, \d\) must have \d+ entries"):
                getattr(inst, name)(x)
    # the projections read their input at p = 0, respectively q = 0
    for proj in (inst.p_proj, inst.q_proj):
        with pytest.raises(ValueError, match=r"at \(1, 1\) must have \d+ entries, not 16"):
            proj(Vec(1, 1, full))
    with pytest.raises(ValueError, match=r"at \(1, 1\) must have 16 entries, not 15"):
        inst.d(Vec(1, 1, full[:-1]))
    with pytest.raises(ValueError, match=r"at \(1, 1\) must have 16 entries, not 17"):
        inst.h(Vec(1, 1, full + (Fraction(1),)))


# The Vec payload: integer numerators over one denominator.


def test_vec_keeps_its_numerators_in_lowest_terms():
    inst = matrix_instance(3)
    images = []
    rng = random.Random(0)
    for p in range(4):
        for q in range(4):
            x = inst.sample(rng, p, q)
            y = inst.sample(rng, p, q)
            images += [x, inst.d(x), inst.delta(x), inst.h(x), inst.k(x), -x, x + x,
                       x * Fraction(-3, 4), 0 * x, x - x, inst.d(x) + inst.d(y)]
    assert any(not x.is_zero() for x in images) and any(x.is_zero() for x in images)
    for x in images:
        nums, den = x._ints
        assert type(nums) is tuple and all(type(n) is int for n in nums)
        assert den > 0 and math.gcd(den, *nums) == 1
        assert den == 1 or not x.is_zero()
        assert all(type(e) is Fraction for e in x.entries)
        assert x.entries == tuple(Fraction(n, den) for n in nums)
    assert Vec(0, 0, (Fraction(2, 4),)) == Vec(0, 0, (Fraction(1, 2),))
    assert Vec(0, 0, (Fraction(2, 4),))._ints == ((1,), 2)
    assert Vec(0, 0, (Fraction(0), Fraction(0)))._ints == ((0, 0), 1)
    assert (Vec(0, 0, (Fraction(1, 2),)) - Vec(0, 0, (Fraction(1, 2),)))._ints == ((0,), 1)
    assert Vec(0, 0, ())._ints == ((), 1)


def test_vec_prints_and_reads_like_its_fractions():
    x = Vec(2, 1, (0, Fraction(-3, 2), 5))
    assert str(x) == "[0, -3/2, 5]"
    assert repr(x) == "Vec(p=2, q=1, entries=(Fraction(0, 1), Fraction(-3, 2), Fraction(5, 1)))"
    assert x.entries == (Fraction(0), Fraction(-3, 2), Fraction(5))
    assert all(type(e) is Fraction for e in x.entries)
    assert str(Vec(0, 0, ())) == "[]"
    with pytest.raises(AttributeError):
        x.entries = ()


@pytest.mark.parametrize("seed", range(4))
def test_fraction_free_inverse(seed):
    rng = random.Random(seed)
    inverted = 0
    for n in range(1, 6):
        generic = ([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)], rng.randint(1, 6))
        for mat in (_rand_invertible(rng, n), generic):
            if len(integer_rref(mat[0])[0]) < n:  # singular
                continue
            inv, one = _fractions(_inverse(mat)), identity(n, Fraction(0))
            assert mat_mul(inv, _fractions(mat), Fraction(0)) == one
            assert mat_mul(_fractions(mat), inv, Fraction(0)) == one
            inverted += 1
    assert inverted >= 5


def test_a_seed_draws_a_pinned_change_of_basis():
    # L below the diagonal, U above it, then a permutation: swapping the
    # two triangles draws another model that passes every check too, so
    # only a pinned draw notices.
    assert _rand_invertible(random.Random(0), 3) == (
        ((2, 0, -4), (4, 2, -9), (0, 4, 0)), 2,
    )


def test_no_float_reaches_a_vec_entry():
    # an int / int division in the integer arithmetic would leave a float
    inst = matrix_instance(seed=2)
    images = []

    def recorded(op):
        def wrapper(x):
            images.append(op(x))
            return images[-1]

        return wrapper

    wrapped = dataclasses.replace(
        inst, **{name: recorded(getattr(inst, name)) for name in instance_operator_fields()}
    )
    verify_instance(wrapped, seed=0, trials=2)
    assert len(images) > 100
    assert all(type(e) is Fraction for v in images for e in v.entries)


def test_perturbed_identity_all_bidegrees():
    inst = matrix_instance(seed=5)
    rng = random.Random(0)
    for p in range(4):
        for q in range(4):
            for _ in range(3):
                x = inst.sample(rng, p, q)
                g = Graded.of(x)
                lhs = graded_perturbed_h(inst, total_diff(inst, g)) + total_diff(
                    inst, graded_perturbed_h(inst, g)
                )
                rhs = Graded.of(x)
                px = perturbed_p(inst, x)
                if px is not None:
                    rhs = rhs - Graded.of(inst.i_inc(px))
                assert (lhs - rhs).is_zero()


def test_zigzag_degree_bookkeeping():
    inst = matrix_instance(seed=6)
    rng = random.Random(0)
    y = inst.sample_y(rng, 2)
    x = zigzag_xy(inst, y)
    assert len(x.entries) == len(inst.sample_x(rng, 2).entries)


def test_zigzags_are_chain_maps():
    # On random (non-cocycle) inputs of the van Est double complex both
    # zig-zags commute with the row and column differentials, with sign +.
    group = build_group("heisenberg3")
    inst = build_double_complex(group, standard_poly_rep(group), max_p=2)
    rng = random.Random(0)
    nonzero = Counter()
    for p in (0, 1):
        for _ in range(3):
            y = inst.sample_y(rng, p)
            lhs = inst.d_x(zigzag_xy(inst, y))
            assert lhs == zigzag_xy(inst, inst.delta_y(y))
            nonzero["xy", p] += not lhs.is_zero()
            x = inst.sample_x(rng, p)
            lhs = inst.delta_y(zigzag_yx(inst, x))
            assert lhs == zigzag_yx(inst, inst.d_x(x))
            nonzero["yx", p] += not lhs.is_zero()
    # every case was checked on nonzero values at least once
    assert len(nonzero) == 4 and all(nonzero.values())


def test_the_zigzags_are_the_perturbed_projections():
    # VE = p-hat' j-hat and R = q-hat' i-hat: the only term of
    # (1 + dh)^{-1} j-hat y in the column p = 0 is (-dh)^p j-hat y, and
    # likewise with delta k for i-hat x.  Where the Neumann sum stops at a
    # zero before that column, the zig-zag is zero.
    heis, fil = build_group("heisenberg3"), build_group("filiform4")
    instances = (
        matrix_instance(0),
        build_double_complex(heis, standard_poly_rep(heis), max_p=2),
        build_double_complex(fil, max_p=1),
        cech_instance(),
    )
    nonzero = Counter()
    for inst in instances:
        rng = random.Random(0)
        for p in range(inst.max_p + 1):
            for _ in range(3):
                y, x = inst.sample_y(rng, p), inst.sample_x(rng, p)
                ve, pj = zigzag_xy(inst, y), perturbed_p(inst, inst.j_inc(y))
                assert ve.is_zero() if pj is None else ve == pj, (inst.name, p)
                r = zigzag_yx(inst, x)
                col = neumann_apply(inst, "vertical", 0, p, inst.i_inc(x)).component(p, 0)
                assert r.is_zero() if col is None else r == inst.q_proj(col), (inst.name, p)
                nonzero[inst.name, "xy"] += not ve.is_zero()
                nonzero[inst.name, "yx"] += not r.is_zero()
    assert len(nonzero) == 8 and all(nonzero.values())


def test_the_inclusions_are_chain_maps_and_q_hat_j_hat_is_one():
    # verify_instance checks p-hat i-hat = 1 on X; the Y side and the chain
    # map property of both inclusions are checked here.
    heis, fil = build_group("heisenberg3"), build_group("filiform4")
    instances = (
        matrix_instance(0),
        build_double_complex(heis, standard_poly_rep(heis), max_p=2),
        build_double_complex(fil, max_p=1),
        cech_instance(),
    )
    for inst in instances:
        rng = random.Random(0)
        nonzero = 0
        for p in range(inst.max_p + 1):
            for _ in range(3):
                y, x = inst.sample_y(rng, p), inst.sample_x(rng, p)
                assert inst.q_proj(inst.j_inc(y)) == y, (inst.name, p)
                dy = inst.delta_y(y)
                assert inst.delta(inst.j_inc(y)) == inst.j_inc(dy), (inst.name, p)
                assert inst.d(inst.i_inc(x)) == inst.i_inc(inst.d_x(x)), (inst.name, p)
                nonzero += not dy.is_zero()
        assert nonzero, inst.name


def test_a_zigzag_past_the_end_of_its_neumann_sum_is_a_zero_of_x():
    # On abelian-2 the Neumann sum of j-hat y, for the constant 2-cochain
    # y = 2, stops before the column p = 0, so p-hat' j-hat y is None.  The
    # zig-zag walks on through the zeros, with h and d p times each and no
    # h on its last term, and returns the zero of X^2.
    inst = build_double_complex(build_group("abelian-2"), max_p=2)
    rng = random.Random(0)
    drawn, x = inst.sample_y(rng, 2), inst.sample_x(rng, 2)
    y = GroupCochain(drawn.group, drawn.rep, 2, (MultiPoly.const(2),))
    calls = []

    def counted(name, op):
        def wrapper(elt):
            calls.append((name, (elt.p, elt.q)))
            return op(elt)

        return wrapper

    counting = dataclasses.replace(inst, h=counted("h", inst.h), d=counted("d", inst.d))
    assert not y.is_zero() and perturbed_p(inst, inst.j_inc(y)) is None
    out, zero = zigzag_xy(counting, y), CEElement.zero(x.algebra, x.rep, 2)
    assert calls == [("h", (2, 0)), ("d", (1, 0)), ("h", (1, 1)), ("d", (0, 1))]
    assert out == zero and out._shape() == zero._shape()


def test_a_trace_records_where_each_element_sits():
    # A k that returns a zero at its input's bidegree, not one step down:
    # the trace shows where each element is, not where k should have put it.
    inst = cech_instance()
    landed = []

    def recorded(op):
        def wrapper(x):
            out = op(x)
            landed.append((out.p, out.q))
            return out

        return wrapper

    broken = dataclasses.replace(
        inst,
        i_inc=recorded(inst.i_inc),
        k=recorded(lambda w: CechForm.zero(w.cover, w.p, w.q)),
        delta=recorded(inst.delta),
    )
    trace = ZigzagTrace()
    zigzag_yx(broken, broken.sample_x(random.Random(0), 1), trace)
    assert [(step["op"], tuple(step["bidegree"])) for step in trace.steps] == [
        ("i", (0, 1)), ("k", (0, 1)), ("delta", (1, 1)),
    ]
    assert [tuple(step["bidegree"]) for step in trace.steps] == landed


def test_verify_report_schema():
    inst = matrix_instance(seed=8)
    reports = verify_instance(inst, seed=8, trials=2)
    assert reports
    for rec in reports:
        assert set(rec) >= {"instance", "check", "bidegree", "status", "seed"}
        assert rec["status"] in ("pass", "fail")
    checks = Counter(r["check"] for r in reports)
    for required in (
        "d_squared", "delta_squared", "anticommute", "h_delta_contraction",
        "perturbed_contraction", "k_d_contraction", "p_i_identity",
        "perturbed_p_i_identity",
    ):
        assert checks[required] > 0


def test_failing_zigzag_carries_its_trace():
    # Doubling k scales the degree-p back-and-forth by 2^p, so it fails.
    inst = build_double_complex(build_group("abelian-2"), max_p=2)
    broken = dataclasses.replace(inst, k=lambda x: inst.k(x) + inst.k(x))
    reports = verify_instance(broken, seed=0, trials=1)
    [failed] = [
        r for r in reports
        if r["check"] == "zigzag_back_and_forth" and r["bidegree"] == [0, 2]
    ]
    assert failed["status"] == "fail"
    steps = [(step["op"], tuple(step["bidegree"])) for step in failed["trace"]]
    assert steps == [
        ("i", (0, 2)), ("k", (0, 1)), ("delta", (1, 1)), ("k", (1, 0)), ("delta", (2, 0)),
        ("j", (2, 0)), ("h", (1, 0)), ("d", (1, 1)), ("h", (0, 1)), ("d", (0, 2)),
    ]
    assert all(isinstance(step["value"], str) for step in failed["trace"])
    # only a failing back-and-forth is traced
    traced = [r for r in reports if "trace" in r]
    assert traced and all(
        r["check"] == "zigzag_back_and_forth" and r["status"] == "fail" for r in traced
    )
    assert not any("trace" in r for r in verify_instance(inst, seed=0, trials=1))


def test_a_failing_back_and_forth_sits_where_its_witness_does():
    # The witness of the degree-p back-and-forth is an X element, at (0, p);
    # doubling k breaks the one at p = 2.
    inst = build_double_complex(build_group("abelian-2"), max_p=2)
    broken = dataclasses.replace(inst, k=lambda x: inst.k(x) + inst.k(x))
    [failed] = [r for r in verify_instance(broken, seed=0, trials=1)
                if r["check"] == "zigzag_back_and_forth" and r["status"] == "fail"]
    assert failed["bidegree"] == [0, 2]
    assert failed["counterexample"].startswith("CEElement(deg=2,")


#: Per operator field, the shift of (p, q) that its comment names.
SHIFTS = {
    "d": (0, 1), "delta": (1, 0), "h": (-1, 0), "k": (0, -1),
    "p_proj": (0, 0), "i_inc": (0, 0), "q_proj": (0, 0), "j_inc": (0, 0),
    "d_x": (0, 1), "delta_y": (1, 0),
}


def test_operators_take_the_element_alone_and_shift_its_bidegree():
    assert sorted(SHIFTS) == sorted(instance_operator_fields())
    group = build_group("heisenberg3")
    instances = (
        matrix_instance(0),
        build_double_complex(group, standard_poly_rep(group), max_p=1),
        cech_instance(),
    )
    for inst in instances:
        calls = Counter()

        def checked(name, op):
            dp, dq = SHIFTS[name]

            def wrapper(x):
                out = op(x)
                assert (out.p, out.q) == (x.p + dp, x.q + dq), (inst.name, name, (x.p, x.q))
                calls[name] += 1
                return out

            return wrapper

        wrapped = dataclasses.replace(
            inst, **{name: checked(name, getattr(inst, name)) for name in SHIFTS}
        )
        assert verify_instance(wrapped, seed=0, trials=1) == verify_instance(
            inst, seed=0, trials=1
        )
        rng = random.Random(0)
        for p in range(inst.max_p + 1):
            x, y = wrapped.sample_x(rng, p), wrapped.sample_y(rng, p)
            assert zigzag_yx(wrapped, x) == zigzag_yx(inst, x)
            assert zigzag_xy(wrapped, y) == zigzag_xy(inst, y)
            wrapped.d_x(x)
            wrapped.delta_y(y)
        assert set(calls) == set(SHIFTS), inst.name
        # each sampler draws an element where the engine will look for it
        for p in range(inst.max_p + 1):
            for q in range(inst.max_q + 1):
                drawn = inst.sample(rng, p, q), inst.sample_x(rng, q), inst.sample_y(rng, p)
                assert [(x.p, x.q) for x in drawn] == [(p, q), (0, q), (p, 0)], inst.name


def test_verify_instance_pushes_each_sample_through_each_operator_once():
    group = build_group("heisenberg3")
    instances = (
        matrix_instance(0),
        build_double_complex(group, standard_poly_rep(group), max_p=1),
    )
    for inst in instances:
        # the sampled elements by id, kept alive so that no id is reused
        drawn = {"sample": {}, "sample_x": {}}
        calls = Counter()

        def recorded(name, sampler):
            def wrapper(*args):
                elt = sampler(*args)
                drawn[name][id(elt)] = elt
                return elt

            return wrapper

        # every element passed to d, delta, h or k, by id and kept alive, and
        # the ones passed to the same operator again (p-hat meets i x twice,
        # in p-hat i and in p-hat' i, whose Neumann sum is i x itself)
        passed = {name: {} for name in ("d", "delta", "h", "k")}
        again = Counter()

        def counted(name, op):
            def wrapper(x):
                for kind, elts in drawn.items():
                    if elts.get(id(x)) is x:
                        calls[kind, name, id(x)] += 1
                if name in passed:
                    if passed[name].get(id(x)) is x:
                        again[name] += 1
                    passed[name][id(x)] = x
                return op(x)

            return wrapper

        wrapped = dataclasses.replace(
            inst,
            **{name: recorded(name, getattr(inst, name)) for name in drawn},
            **{name: counted(name, getattr(inst, name)) for name in instance_operator_fields()},
        )
        assert verify_instance(wrapped, seed=0, trials=2) == verify_instance(
            inst, seed=0, trials=2
        )
        assert drawn["sample"] and drawn["sample_x"]
        for key in drawn["sample"]:
            for name in ("d", "delta", "k"):
                assert calls["sample", name, key] == 1, (inst.name, name)
            # the first step of the Neumann sum (1 + dh)^{-1} x, which is h x;
            # the sum of a zero sample has no terms
            expected = 0 if drawn["sample"][key].is_zero() else 1
            assert calls["sample", "h", key] == expected, inst.name
        for key in drawn["sample_x"]:
            assert calls["sample_x", "i_inc", key] == 1, inst.name
        # no image is computed twice either: h' x, d h' x and h delta x are
        # read off the Neumann sums
        assert again == Counter(), inst.name


#: Per instance, operator -> (calls, zero inputs) of verify_instance(seed=3,
#: trials=2).  The engine's traffic is part of its contract: a rewrite of
#: the Neumann sums or the checks must make the same calls, and none on a
#: zero term or a zero image that the sums leave out.
TRAFFIC = {
    "matrix": {
        "d": (208, 8), "delta": (120, 0), "h": (160, 0), "p_proj": (32, 0),
        "i_inc": (24, 8), "d_x": (0, 0), "k": (64, 0), "q_proj": (8, 0),
        "j_inc": (8, 0), "delta_y": (0, 0),
    },
    "cech-circle3": {
        "d": (42, 12), "delta": (28, 8), "h": (32, 4), "p_proj": (16, 0),
        "i_inc": (10, 0), "d_x": (0, 0), "k": (16, 4), "q_proj": (4, 0),
        "j_inc": (4, 0), "delta_y": (0, 0),
    },
    "heisenberg3": {
        "d": (79, 8), "delta": (44, 3), "h": (78, 5), "p_proj": (32, 2),
        "i_inc": (22, 2), "d_x": (0, 0), "k": (26, 2), "q_proj": (8, 0),
        "j_inc": (8, 1), "delta_y": (0, 0),
    },
}


def test_the_engine_s_operator_traffic_is_pinned():
    group = build_group("heisenberg3")
    instances = {
        "matrix": matrix_instance(0, max_p=3),
        "cech-circle3": cech_instance(),
        "heisenberg3": build_double_complex(group, standard_poly_rep(group), max_p=1, max_q=2),
    }
    for name, inst in instances.items():
        traffic = dict.fromkeys(instance_operator_fields(), (0, 0))

        def counted(field, op):
            def wrapper(x):
                calls, zeros = traffic[field]
                traffic[field] = calls + 1, zeros + x.is_zero()
                return op(x)

            return wrapper

        wrapped = dataclasses.replace(
            inst, **{field: counted(field, getattr(inst, field)) for field in traffic}
        )
        verify_instance(wrapped, seed=3, trials=2)
        assert traffic == TRAFFIC[name], name

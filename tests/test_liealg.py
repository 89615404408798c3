import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cochainlab.liealg import (
    AntisymmetryViolation,
    CEElement,
    JacobiViolation,
    LieAlgebra,
    LieAlgebraError,
    NilpotencyClassWrong,
    Representation,
    abelian,
    ce_diff,
    filiform4,
    heisenberg3,
    standard_rep,
    trivial_rep,
    validate_lie_algebra,
)
from cochainlab.nilgroup import build_group, registered_groups
from cochainlab.polyalg import MultiPoly

from conftest import COEFFS

ALGEBRAS = [abelian(2), abelian(3), heisenberg3(), filiform4()]


def _random_ce(rng, alg, degree, rep=None):
    from itertools import combinations

    rep = rep if rep is not None else trivial_rep(alg)
    comps = {
        idx: [rng.choice(COEFFS) for _ in range(rep.dim)]
        for idx in combinations(range(alg.dim), degree)
    }
    return CEElement(alg, rep, degree, comps)


def test_registry_structure_constants():
    h = heisenberg3()
    assert h.bracket_basis(0, 1)[2] == Fraction(1)
    assert h.bracket_basis(1, 0)[2] == Fraction(-1)
    f = filiform4()
    assert f.bracket_basis(0, 1)[2] == Fraction(1)
    assert f.bracket_basis(0, 2)[3] == Fraction(1)
    assert all(c == 0 for c in abelian(3).bracket_basis(0, 1))


def test_jacobi_violation_rejected():
    # [e1,e2]=e3, [e1,e3]=e1 fails the Jacobi identity
    bad = {(0, 1): {2: Fraction(1)}, (0, 2): {0: Fraction(1)}}
    with pytest.raises(JacobiViolation):
        validate_lie_algebra("bad", 3, bad)


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.name)
def test_ce_diff_squares_to_zero(alg):
    rng = random.Random(11)
    for degree in range(alg.dim):
        a = _random_ce(rng, alg, degree)
        assert ce_diff(ce_diff(a)).is_zero()


def test_ce_diff_dual_to_bracket():
    # d e^k (e_i, e_j) = -c^k_{ij}
    alg = heisenberg3()
    d3 = ce_diff(CEElement.basis(alg, (2,)))
    assert d3.component((0, 1)) == (Fraction(-1),)
    assert ce_diff(CEElement.basis(alg, (0,))).is_zero()


def test_nontrivial_rep_ce_diff_squares():
    alg = abelian(1)
    # 2-dim rep of the abelian line: x acts by [[0, x], [0, 0]]
    mats = ((( Fraction(0), Fraction(1)), (Fraction(0), Fraction(0))),)
    rep = Representation(alg, 2, mats)
    rng = random.Random(13)
    for degree in range(2):
        a = _random_ce(rng, alg, degree, rep)
        assert ce_diff(ce_diff(a)).is_zero()


# The sparse bracket against the dense n^3 loop over every structure
# constant, on the registered algebras and on raw antisymmetric constants
# (no Jacobi check), for rational and polynomial coefficient vectors.

REGISTERED = [build_group(name).algebra for name in registered_groups()]

rationals = st.sampled_from([Fraction(0)] * 3 + [c for c in COEFFS if c])


@st.composite
def polys(draw):
    acc = MultiPoly.zero()
    for _ in range(draw(st.integers(0, 2))):
        term = MultiPoly.const(draw(rationals))
        for _ in range(draw(st.integers(0, 2))):
            term = term * MultiPoly.var(draw(st.sampled_from(("g1_1", "g2_1", "y_2"))))
        acc = acc + term
    return acc


@st.composite
def raw_algebras(draw):
    n = draw(st.integers(1, 4))
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                c[i][j][k] = draw(rationals)
                c[j][i][k] = -c[i][j][k]
    constants = tuple(tuple(tuple(vec) for vec in row) for row in c)
    return LieAlgebra("raw", n, constants, 0)


def _dense_bracket(alg, u, v):
    out = [u[0] * 0 for _ in range(alg.dim)]
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k in range(alg.dim):
                c = alg.constants[i][j][k]
                if c != 0:
                    out[k] = out[k] + u[i] * v[j] * c
    return out


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_sparse_bracket_matches_dense_reference(data):
    alg = data.draw(st.one_of(st.sampled_from(REGISTERED), raw_algebras()))
    entries = data.draw(st.sampled_from([rationals, polys()]))
    u = data.draw(st.lists(entries, min_size=alg.dim, max_size=alg.dim))
    v = data.draw(st.lists(entries, min_size=alg.dim, max_size=alg.dim))
    assert alg.bracket(u, v) == _dense_bracket(alg, u, v)


@pytest.mark.parametrize("dim, brackets, declared, error", [
    (4, {(0, 1): {2: 1}, (0, 2): {3: 1}, (1, 3): {1: 1}}, None, JacobiViolation),
    (3, {(0, 1): {2: 1}, (1, 0): {2: 1}}, None, AntisymmetryViolation),
    (3, {(1, 1): {0: 1}}, None, AntisymmetryViolation),
    (3, {(0, 1): {2: 1}}, 3, NilpotencyClassWrong),
    (4, {(0, 1): {2: 1}, (0, 2): {3: 1}}, 2, NilpotencyClassWrong),
])
def test_bad_structure_constants_rejected(dim, brackets, declared, error):
    with pytest.raises(error):
        validate_lie_algebra("bad", dim, brackets, declared)


def test_non_nilpotent_algebra_gets_class_zero():
    # [e1, e2] = e2: the lower central series stops at span(e2)
    assert validate_lie_algebra("affine", 2, {(0, 1): {1: 1}}).nilpotency_class == 0


def test_representation_shape_checked():
    alg = heisenberg3()
    zero = ((Fraction(0),),)
    with pytest.raises(LieAlgebraError, match="expected 3 matrices of size 1 x 1"):
        Representation(alg, 1, (zero, zero))
    with pytest.raises(LieAlgebraError, match="expected 3 matrices of size 2 x 2"):
        Representation(alg, 2, (zero, zero, zero))


@pytest.mark.parametrize("build, message", [
    (lambda alg: CEElement(alg, None, 2, {(1, 0): [1]}), r"index \(1, 0\) is not an increasing 2-subset"),
    (lambda alg: CEElement(alg, None, 1, {(0,): [1, 2]}), "vector length must match representation dim"),
    (lambda alg: standard_rep(validate_lie_algebra("plane", 2, {})), "no standard representation for plane"),
])
def test_algebra_inputs_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build(heisenberg3())

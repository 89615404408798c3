import copy
import pickle
import random
from fractions import Fraction

import pytest

from cochainlab import liealg, nilgroup
from cochainlab.cli import RunConfig, run_verify
from cochainlab.forms import PolyVF, contract, exterior_d, wedge
from cochainlab.liealg import validate_lie_algebra
from cochainlab.nilgroup import (
    AssociativityFailure,
    ClassTooHigh,
    GroupCochain,
    GroupError,
    NonUnipotentJacobian,
    NotNilpotent,
    PolyGroup,
    PolyRep,
    as_coeffs,
    bch_multiplication,
    build_group,
    fiber_vars,
    group_delta,
    left_invariant_vf,
    maurer_cartan_coframe,
    registered_groups,
    slot_vars,
    trivial_poly_rep,
)
from cochainlab.polyalg import VECTORS, MultiPoly, mat_scale
from cochainlab.vanest import standard_poly_rep, ve_closed

from conftest import COEFFS, eval_at, random_group_cochain


@pytest.mark.parametrize("name", registered_groups())
def test_group_axioms_as_polynomial_identities(name):
    group = build_group(name)
    n = group.dim
    x = [MultiPoly.var(f"g1_{j}") for j in range(1, n + 1)]
    zero = [MultiPoly.zero()] * n
    assert group.multiply(x, zero) == x
    assert group.multiply(zero, x) == x
    assert all(c.is_zero() for c in group.multiply(x, group.invert(x)))
    y = [MultiPoly.var(f"g2_{j}") for j in range(1, n + 1)]
    z = [MultiPoly.var(f"g3_{j}") for j in range(1, n + 1)]
    assert group.multiply(group.multiply(x, y), z) == group.multiply(
        x, group.multiply(y, z)
    )


def test_heisenberg_closed_form(heisenberg_group):
    # (x1,x2,x3)(y1,y2,y3) = (x1+y1, x2+y2, x3+y3+ (x1 y2 - x2 y1)/2)
    g = heisenberg_group
    x = [MultiPoly.var(f"g1_{j}") for j in (1, 2, 3)]
    y = [MultiPoly.var(f"g2_{j}") for j in (1, 2, 3)]
    prod = g.multiply(x, y)
    assert prod[0] == x[0] + y[0]
    assert prod[1] == x[1] + y[1]
    assert prod[2] == x[2] + y[2] + (x[0] * y[1] - x[1] * y[0]) * Fraction(1, 2)


def test_class_four_bch_is_a_group_law():
    # the only class that reaches BCH's bracket-degree-4 term; the build
    # checks the unit, inverse and associativity laws itself
    brackets = {(0, 1): {2: 1}, (0, 2): {3: 1}, (0, 3): {4: 1}}
    alg = validate_lie_algebra("filiform5", 5, brackets)
    assert alg.nilpotency_class == 4
    assert bch_multiplication(alg).algebra is alg


def test_class_five_rejected():
    brackets = {(0, 1): {2: 1}, (0, 2): {3: 1}, (0, 3): {4: 1}, (0, 4): {5: 1}}
    alg = validate_lie_algebra("filiform6", 6, brackets)
    assert alg.nilpotency_class == 5
    with pytest.raises(ClassTooHigh):
        bch_multiplication(alg)


@pytest.mark.parametrize("name", ["abelian-2", "heisenberg3", "filiform4"])
def test_representation_is_homomorphism_at_points(name):
    group = build_group(name)
    rep = standard_poly_rep(group)
    rng = random.Random(21)
    n = group.dim
    for _ in range(10):
        a = [rng.choice(COEFFS) for _ in range(n)]
        b = [rng.choice(COEFFS) for _ in range(n)]
        ab = [eval_at(c, dict(zip(fiber_vars(n), a))) for c in group.multiply(
            [MultiPoly.const(c) for c in a], [MultiPoly.const(c) for c in b]
        )]
        left = rep.matrix_at(ab)
        ra, rb = rep.matrix_at(a), rep.matrix_at(b)
        prod = [
            [sum(ra[i][k] * rb[k][j] for k in range(rep.dim)) for j in range(rep.dim)]
            for i in range(rep.dim)
        ]
        assert left == prod


@pytest.mark.parametrize("name", registered_groups())
def test_group_delta_squares_to_zero(name):
    group = build_group(name)
    rng = random.Random(22)
    for p in range(3):
        f = random_group_cochain(rng, group, p)
        assert group_delta(group_delta(f)).is_zero()


def test_group_delta_squares_to_zero_nontrivial_rep(heisenberg_group):
    rep = standard_poly_rep(heisenberg_group)
    rng = random.Random(23)
    for p in range(3):
        f = random_group_cochain(rng, heisenberg_group, p, rep=rep)
        assert group_delta(group_delta(f)).is_zero()


def test_delta_on_functions():
    # (delta f)(g1, g2) = f(g2) - f(g1 g2) + f(g1)
    group = build_group("heisenberg3")
    poly = MultiPoly.var("g1_3")
    f = GroupCochain.scalar(group, 1, poly)
    df = group_delta(f)
    g1 = [MultiPoly.var(f"g1_{j}") for j in (1, 2, 3)]
    g2 = [MultiPoly.var(f"g2_{j}") for j in (1, 2, 3)]
    prod = group.multiply(g1, g2)
    expected = MultiPoly.var("g2_3") - prod[2] + MultiPoly.var("g1_3")
    assert df.values[0] == expected


@pytest.mark.parametrize("name", ["heisenberg3", "filiform4"])
def test_coframe_dual_to_frame(name):
    group = build_group(name)
    thetas = maurer_cartan_coframe(group)
    for i in range(group.dim):
        xi = left_invariant_vf(group, i)
        for k, theta in enumerate(thetas):
            pairing = contract(theta, xi).coefficient(())
            assert pairing == MultiPoly.const(1 if i == k else 0)


@pytest.mark.parametrize("name", ["abelian-3", "heisenberg3", "filiform4"])
def test_maurer_cartan_equation(name):
    # d theta^k = -1/2 c^k_{ij} theta^i ^ theta^j
    group = build_group(name)
    alg = group.algebra
    thetas = maurer_cartan_coframe(group)
    for k in range(group.dim):
        rhs = exterior_d(thetas[k])
        acc = rhs - rhs  # zero of matching degree
        for i in range(group.dim):
            for j in range(group.dim):
                c = alg.bracket_basis(i, j)[k]
                if c != 0:
                    acc = acc + wedge(thetas[i], thetas[j]) * (Fraction(-1, 2) * c)
        assert rhs == acc


@pytest.mark.parametrize("name", ["heisenberg3", "filiform4"])
def test_frame_bracket_matches_structure_constants(name):
    # [X_i, X_j] = c_{ij}^k X_k as vector fields
    group = build_group(name)
    alg = group.algebra
    n = group.dim
    fields = [left_invariant_vf(group, i) for i in range(n)]

    def vf_bracket(x, y):
        comps = []
        for m in range(n):
            acc = MultiPoly.zero()
            for l, v in enumerate(fiber_vars(n)):
                acc = acc + x.components[l] * y.components[m].diff(v)
                acc = acc - y.components[l] * x.components[m].diff(v)
            comps.append(acc)
        return comps

    for i in range(n):
        for j in range(n):
            lie = vf_bracket(fields[i], fields[j])
            expected = [MultiPoly.zero()] * n
            for k, c in enumerate(alg.bracket_basis(i, j)):
                if c != 0:
                    expected = [
                        e + comp * c
                        for e, comp in zip(expected, fields[k].components)
                    ]
            assert lie == expected


def test_rep_inverse_is_negation(heisenberg_group):
    rep = standard_poly_rep(heisenberg_group)
    n = heisenberg_group.dim
    y = [MultiPoly.var(v) for v in fiber_vars(n)]
    inv = heisenberg_group.invert(y)
    assert inv == [-v for v in y]
    assert heisenberg_group.invert([y[0] * y[1] - 2, MultiPoly.zero(), Fraction(1, 2)]) == [
        2 - y[0] * y[1], MultiPoly.zero(), Fraction(-1, 2)]
    assert heisenberg_group.invert([Fraction(3, 4), 0, -5]) == [Fraction(-3, 4), 0, 5]
    sub = {v: inv[j] for j, v in enumerate(fiber_vars(n))}
    rho_inv = [[e.subst(sub) for e in row] for row in rep.rho]
    prod = [
        [
            sum((rep.rho[i][k] * rho_inv[k][j] for k in range(rep.dim)), MultiPoly.zero())
            for j in range(rep.dim)
        ]
        for i in range(rep.dim)
    ]
    for i in range(rep.dim):
        for j in range(rep.dim):
            assert prod[i][j] == MultiPoly.const(1 if i == j else 0)


def test_structure_is_built_once_per_object(monkeypatch):
    # The objects are kept, so no id is reused by a later object.
    jacobians, reps, validations = [], [], []
    prop = PolyGroup.__dict__["right_jacobian"]
    build = prop.func
    monkeypatch.setattr(prop, "func", lambda group: jacobians.append(group) or build(group))
    rep_check = PolyRep.__post_init__
    monkeypatch.setattr(PolyRep, "__post_init__", lambda rep: reps.append(rep) or rep_check(rep))
    inf_check = liealg.Representation.__post_init__
    monkeypatch.setattr(
        liealg.Representation, "__post_init__",
        lambda inf: validations.append(inf) or inf_check(inf),
    )
    code, _ = run_verify(RunConfig("heisenberg3", coeff_rep="standard", max_p=2, trials=1))
    assert code == 0
    assert jacobians and len({id(g) for g in jacobians}) == len(jacobians)
    assert reps and len(validations) <= len(reps)


@pytest.mark.parametrize("name", registered_groups())
def test_right_jacobian_matches_derivative_formula(name):
    # B(y)[j][i] = d m_j / d g2_i at (g1, g2) = (y, 0)
    group = build_group(name)
    n = group.dim
    at = {f"g1_{k}": MultiPoly.var(f"y_{k}") for k in range(1, n + 1)}
    at.update({f"g2_{k}": 0 for k in range(1, n + 1)})
    expected = tuple(
        tuple(m_j.diff(f"g2_{i}").subst(at) for i in range(1, n + 1)) for m_j in group.mult
    )
    assert group.right_jacobian == expected


def test_slot_velocities_built_once_per_slot_and_index(monkeypatch):
    # VE of a 3-cochain on filiform4 sums 4 choose 3 times 3! orderings of
    # three nablas; it needs one velocity per slot and basis index.
    built = []
    build = nilgroup._slot_velocity
    monkeypatch.setattr(
        nilgroup, "_slot_velocity", lambda *args: built.append(args[1:]) or build(*args)
    )
    group = build_group("filiform4")
    f = MultiPoly.const(1)
    for s in (1, 2, 3):
        f = f * sum((MultiPoly.var(v) for v in slot_vars(s, 4)), MultiPoly.zero())
    ve_closed(GroupCochain.scalar(group, 3, f))
    assert sorted(built) == sorted(
        (i, 3, tuple(as_coeffs(4, j))) for i in (1, 2, 3) for j in range(4))
    ve_closed(GroupCochain.scalar(group, 3, f * 2))  # the same object builds none
    assert len(built) == 12


def test_cached_structure_is_read_only(monkeypatch):
    built = []
    build = nilgroup._faces
    monkeypatch.setattr(nilgroup, "_faces", lambda g, p: built.append(p) or build(g, p))
    group = build_group("heisenberg3")
    rep = standard_poly_rep(group)
    jac = group.right_jacobian
    field = left_invariant_vf(group, 2).components
    faces = group.faces(2)
    vel = group.slot_velocity(1, 2, 0)
    coframe, contracted = group.coframe_table(2), group.contracted_table(2)
    inverse = rep.inverse_matrix
    matrices = rep.infinitesimal().matrices
    zero = MultiPoly.zero()
    for container, key in (
        (jac, 0), (jac[0], 0), (field, 0), (group.frame[2], 0), (faces, 0),
        (faces[1][0], "g1_1"), (vel, "g1_1"), (inverse[0], 0), (matrices[0][0], 0),
        (coframe, 0), (coframe[0], 0), (contracted[1], 0),
    ):
        with pytest.raises(TypeError):
            container[key] = zero
    with pytest.raises(AttributeError):
        group.frame = ()
    # A second call on this object gives the same objects, built once per key.
    assert group.faces(2) is faces and group.slot_velocity(1, 2, [1, 0, 0]) is vel
    assert group.coframe_table(2) is coframe and group.contracted_table(2) is contracted
    assert rep.inverse_matrix is inverse
    group.faces(1)
    assert built == [2, 1]
    # A copy or a pickle is an equal group that keeps none of the structure.
    for copied in (copy.deepcopy(group), pickle.loads(pickle.dumps(group))):
        assert copied == group and copied._built == {}
        assert copied.faces(2) == faces and copied.faces(2) is not faces
    # A second call, on this object and on a fresh one, gives equal values.
    fresh = build_group("heisenberg3")
    for g in (group, fresh):
        assert g.right_jacobian == jac
        assert left_invariant_vf(g, 2).components == field
        assert [(dict(sub), sgn) for sub, sgn in g.faces(2)] == [
            (dict(sub), sgn) for sub, sgn in faces
        ]
        assert dict(g.slot_velocity(1, 2, 0)) == dict(vel)
    assert standard_poly_rep(fresh).inverse_matrix == inverse
    assert rep.infinitesimal().matrices == matrices


# References for the representations built as exp(rho_*): the hand-written
# abelian-1 and Heisenberg matrices they replace, and rho_* read off rho as
# its derivative at the unit.
def hand_written_rho(name):
    y1, y2, y3 = (MultiPoly.var(f"y_{i}") for i in (1, 2, 3))
    one, zero = MultiPoly.const(1), MultiPoly.zero()
    return {
        "abelian-1": ((one, y1), (zero, one)),
        "heisenberg3": (
            (one, y1, y3 + y1 * y2 * Fraction(1, 2)), (zero, one, y2), (zero, zero, one)
        ),
    }[name]


def derivative_at_unit(rep):
    n = rep.group.dim
    zero = {f"y_{j}": Fraction(0) for j in range(1, n + 1)}
    return tuple(
        tuple(tuple(e.diff(f"y_{i}").subst(zero).constant_value() for e in row) for row in rep.rho)
        for i in range(1, n + 1)
    )


@pytest.mark.parametrize("name", ["abelian-1", "heisenberg3"])
def test_standard_rep_matches_hand_written_matrices(name):
    assert standard_poly_rep(build_group(name)).rho == hand_written_rho(name)


@pytest.mark.parametrize("make_rep", [standard_poly_rep, trivial_poly_rep])
@pytest.mark.parametrize("name", registered_groups())
def test_infinitesimal_is_derivative_at_unit(name, make_rep):
    rep = make_rep(build_group(name))
    assert rep.infinitesimal().matrices == derivative_at_unit(rep)


def test_rep_of_another_algebra_rejected(heisenberg_group):
    for tangent in (liealg.standard_rep(liealg.filiform4()), liealg.trivial_rep(liealg.abelian(3))):
        with pytest.raises(GroupError, match="not a representation of the group's algebra"):
            PolyRep(heisenberg_group, tangent)


def test_non_nilpotent_rep_rejected():
    tangent = liealg.Representation(liealg.abelian(1), 1, (((Fraction(1),),),))
    with pytest.raises(NotNilpotent):
        PolyRep(build_group("abelian-1"), tangent)


@pytest.mark.parametrize("name", ["heisenberg3", "filiform4"])
def test_swapped_generators_rejected(monkeypatch, name):
    first, second, *rest = liealg.STANDARD_GENERATORS[name]
    monkeypatch.setitem(liealg.STANDARD_GENERATORS, name, (second, first, *rest))
    with pytest.raises(liealg.LieAlgebraError):
        standard_poly_rep(build_group(name))


@pytest.mark.parametrize("name", ["abelian-7", "abelian-x", "matrix"])
def test_unregistered_name_is_an_unknown_group(name):
    with pytest.raises(GroupError, match=f"unknown group '{name}'"):
        build_group(name)


def _class_four_plus_one_24th(bch):
    """BCH with +1/24 in place of -1/24 on [y, [x, [x, y]]]: the unit and
    inverse laws still hold, associativity does not."""
    def patched(alg, x, y):
        br = alg.bracket
        return VECTORS.add(bch(alg, x, y), VECTORS.scale(br(y, br(x, br(x, y))), Fraction(1, 12)))
    return patched


def _plus_constant(bch):
    return lambda alg, x, y: (bch(alg, x, y)[0] + 1, *bch(alg, x, y)[1:])


def _plus_x1_y1(bch):
    """A term that vanishes when either factor is the unit, but not on
    (x, x^{-1})."""
    return lambda alg, x, y: (bch(alg, x, y)[0] + x[0] * y[0], *bch(alg, x, y)[1:])


FILIFORM5 = {(0, 1): {2: 1}, (0, 2): {3: 1}, (0, 3): {4: 1}}


@pytest.mark.parametrize("mutate, dim, brackets, message", [
    (_plus_constant, 3, {(0, 1): {2: 1}}, "unit laws fail"),
    (_plus_x1_y1, 3, {(0, 1): {2: 1}}, r"m\(x, inv\(x\)\) != 0"),
    (_class_four_plus_one_24th, 5, FILIFORM5, "not associative"),
], ids=["unit", "inverse", "associativity"])
def test_bch_group_axiom_guards_fire(monkeypatch, mutate, dim, brackets, message):
    alg = validate_lie_algebra("mutant", dim, brackets)
    monkeypatch.setattr(nilgroup, "_bch", mutate(nilgroup._bch))
    with pytest.raises(AssociativityFailure, match=message):
        bch_multiplication(alg)


def test_a_non_unipotent_jacobian_is_rejected():
    # g1 + 2 g2 has the right Jacobian 2, whose nilpotent part 1 does not
    # vanish at the unit
    g1, g2 = MultiPoly.var("g1_1"), MultiPoly.var("g2_1")
    group = PolyGroup(liealg.abelian(1), (g1 + 2 * g2,))
    with pytest.raises(NonUnipotentJacobian):
        maurer_cartan_coframe(group)


@pytest.mark.parametrize("name, mutate, message", [
    # rho = 2 exp(rho_*): rho(0) = 2 I
    ("nilpotent_series", lambda series: lambda nil, coef: mat_scale(series(nil, coef), 2),
     r"rho\(0\) is not the identity"),
    # rho = I + N + N^2 in place of exp(N): rho(0) = I, but N^2 needs 1/2
    ("factorial", lambda _: lambda k: 1, "not a homomorphism"),
], ids=["rho-at-unit", "homomorphism"])
def test_rep_guards_fire(monkeypatch, heisenberg_group, name, mutate, message):
    tangent = liealg.standard_rep(heisenberg_group.algebra)
    monkeypatch.setattr(nilgroup, name, mutate(getattr(nilgroup, name)))
    with pytest.raises(GroupError, match=message):
        PolyRep(heisenberg_group, tangent)


@pytest.mark.parametrize("call, error, message", [
    (lambda g: g.slot_velocity(0, 1, 0), GroupError, r"slot 0 out of range 1\.\.1"),
    (lambda g: g.slot_velocity(3, 2, 0), GroupError, r"slot 3 out of range 1\.\.2"),
    (lambda g: bch_multiplication(validate_lie_algebra("affine", 2, {(0, 1): {1: 1}})),
     NotNilpotent, "affine is not nilpotent"),
    (lambda g: GroupCochain(g, None, 1, [MultiPoly.var("g1_1")] * 2),
     ValueError, "value vector length must equal rep dimension"),
    (lambda g: GroupCochain(g, None, 1, [MultiPoly.var("g2_1")]),
     ValueError, "outside its slots: {'g2_1'}"),
    (lambda g: GroupCochain.scalar(g, 0, MultiPoly.const(1), standard_poly_rep(g)),
     ValueError, "requires a 1-dim coefficient space"),
])
def test_group_inputs_rejected(heisenberg_group, call, error, message):
    with pytest.raises(error, match=message):
        call(heisenberg_group)

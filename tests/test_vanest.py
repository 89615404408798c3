import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

import cochainlab.forms as forms
import cochainlab.nilgroup as nilgroup
from cochainlab.liealg import CEElement, Representation, ce_diff
from cochainlab.nilgroup import (
    GroupCochain,
    PolyRep,
    build_group,
    fiber_vars,
    group_delta,
    left_invariant_vf,
    registered_groups,
    slot_vars,
    trivial_poly_rep,
    velocity,
)
from cochainlab.forms import Chart, PolyForm, homotopy_T
from cochainlab.polyalg import MultiPoly, mat_vec, sort_sign
from cochainlab.vanest import (
    BigradedElement,
    VanEstError,
    bg_d,
    bg_delta,
    bg_h,
    bg_k,
    bg_p_proj,
    bg_q_proj,
    build_double_complex,
    frame_convert,
    gamma_map,
    nabla,
    r_closed,
    r_zigzag,
    standard_poly_rep,
    ve_closed,
    ve_zigzag,
)
from cochainlab.perturb import verify_instance

from conftest import (
    COEFFS,
    components,
    form_path_bg_k,
    form_picture,
    lie_bigraded,
    map_comps,
    nabla_bigraded,
    random_group_cochain,
    random_poly,
)


def test_nabla_interior_slot():
    # abelian line, f(g1, g2) = g1 g2:
    # nabla^{(1)} moves (g1, g2) to (g1 + t, g2 - t), derivative g2 - g1
    group = build_group("abelian-1")
    f = GroupCochain.scalar(group, 2, MultiPoly.var("g1_1") * MultiPoly.var("g2_1"))
    d1 = nabla(1, 0, f)
    assert d1.values[0] == MultiPoly.var("g2_1") - MultiPoly.var("g1_1")
    # nabla^{(2)} moves g2 to g2 + t, derivative g1
    d2 = nabla(2, 0, f)
    assert d2.values[0] == MultiPoly.var("g1_1")


def test_ve_identity_cochain():
    # VE(g -> g) is the dual basis covector
    group = build_group("abelian-1")
    f = GroupCochain.scalar(group, 1, MultiPoly.var("g1_1"))
    alpha = ve_closed(f)
    assert alpha.component((0,)) == (Fraction(1),)


def test_ve_determinant_cochain():
    group = build_group("abelian-2")
    poly = (
        MultiPoly.var("g1_1") * MultiPoly.var("g2_2")
        - MultiPoly.var("g1_2") * MultiPoly.var("g2_1")
    ) * Fraction(1, 2)
    alpha = ve_closed(GroupCochain.scalar(group, 2, poly))
    assert alpha.component((0, 1)) == (Fraction(1),)
    assert len(alpha.comps) == 1


def test_gamma_map_endpoints():
    group = build_group("heisenberg3")
    gamma = gamma_map(group, 2)
    ones = {f"t{i}": 1 for i in (1, 2)}
    at_one = [c.subst(ones) for c in gamma]
    g1 = [MultiPoly.var(f"g1_{j}") for j in (1, 2, 3)]
    g2 = [MultiPoly.var(f"g2_{j}") for j in (1, 2, 3)]
    assert at_one == group.multiply(g1, g2)
    at_zero = [c.subst({"t1": 0}) for c in gamma]
    assert all(c.is_zero() for c in at_zero)
    # the product of no elements is the unit
    assert gamma_map(group, 0) == (MultiPoly.zero(),) * 3


def test_r_of_dual_basis():
    # R(e^1 ^ e^2) on the abelian plane is half the determinant
    group = build_group("abelian-2")
    alpha = CEElement.basis(group.algebra, (0, 1))
    f = r_closed(group, alpha)
    expected = (
        MultiPoly.var("g1_1") * MultiPoly.var("g2_2")
        - MultiPoly.var("g1_2") * MultiPoly.var("g2_1")
    ) * Fraction(1, 2)
    assert f.values[0] == expected


@pytest.mark.parametrize("name", ["abelian-2", "heisenberg3"])
def test_ve_r_identity_small(name):
    group = build_group(name)
    from itertools import combinations

    for p in range(3):
        for idx in combinations(range(group.dim), p):
            alpha = CEElement.basis(group.algebra, idx)
            assert ve_closed(r_closed(group, alpha)) == alpha


def test_closed_equals_zigzag_small(heisenberg_group):
    rng = random.Random(31)
    inst = build_double_complex(heisenberg_group, max_p=2)
    for _ in range(6):
        p = 1 + rng.randrange(2)
        f = random_group_cochain(rng, heisenberg_group, p)
        assert ve_closed(f) == ve_zigzag(f, inst)
    # without an instance, the zig-zag builds the cochain's own
    assert ve_zigzag(f) == ve_closed(f)


def test_r_closed_equals_zigzag_nontrivial_rep():
    group = build_group("abelian-1")
    rep = standard_poly_rep(group)
    inst = build_double_complex(group, rep, max_p=2)
    for p in range(3):
        from itertools import combinations

        for idx in combinations(range(group.dim), p):
            for slot in range(rep.dim):
                alpha = CEElement.basis(
                    group.algebra, idx, rep=rep.infinitesimal(), slot=slot
                )
                assert r_closed(group, alpha) == r_zigzag(group, alpha, inst)


def test_integration_defaults_to_the_cochain_representation(heisenberg_group):
    rep = standard_poly_rep(heisenberg_group)
    inst = build_double_complex(heisenberg_group, rep, max_p=2)
    for idx in ((0,), (0, 1), (1, 2)):
        alpha = CEElement.basis(heisenberg_group.algebra, idx, rep=rep.infinitesimal(), slot=2)
        results = [r_closed(heisenberg_group, alpha), r_zigzag(heisenberg_group, alpha),
                   r_zigzag(heisenberg_group, alpha, inst)]
        assert all(f.rep.tangent == alpha.rep for f in results)
        assert results[0] == results[1] == results[2]


def test_integration_refuses_an_instance_of_another_representation(heisenberg_group):
    # alpha lives in the standard representation; an instance over another
    # representation, of the same dimension or not, must not integrate it
    group, alg = heisenberg_group, heisenberg_group.algebra
    alpha = CEElement.basis(alg, (0,), rep=standard_poly_rep(group).infinitesimal(), slot=2)
    e12 = tuple(tuple(Fraction(int((r, c) == (0, 1))) for c in range(3)) for r in range(3))
    zero = ((Fraction(0),) * 3,) * 3
    same_dim = PolyRep(group, Representation(alg, 3, (e12, zero, zero)))
    z3 = "[0 0 0; 0 0 0; 0 0 0]"
    cases = (
        (same_dim, f"3-dimensional one with rho_*(e1) = [0 1 0; 0 0 0; 0 0 0], "
                   f"rho_*(e2) = {z3}, rho_*(e3) = {z3}"),
        (trivial_poly_rep(group), "1-dimensional one with rho_*(e1) = [0], "
                                  "rho_*(e2) = [0], rho_*(e3) = [0]"),
    )
    for rep, text in cases:
        inst = build_double_complex(group, rep, max_p=2)
        with pytest.raises(VanEstError) as err:
            r_zigzag(group, alpha, inst)
        message = str(err.value)
        assert message.startswith("cochain in the 3-dimensional one with rho_*(e1) = [0 1 0;")
        assert message.endswith(f"but the double complex is over the {text}")


def test_cochain_map_properties(heisenberg_group):
    rng = random.Random(32)
    group = heisenberg_group
    for _ in range(5):
        p = 1 + rng.randrange(2)
        f = random_group_cochain(rng, group, p)
        assert ve_closed(group_delta(f)) == ce_diff(ve_closed(f))
    from itertools import combinations

    for q in range(1, 3):
        for idx in combinations(range(group.dim), q):
            alpha = CEElement.basis(group.algebra, idx)
            assert r_closed(group, ce_diff(alpha)) == group_delta(r_closed(group, alpha))


def test_frame_convert_roundtrip(heisenberg_group):
    rng = random.Random(33)
    group = heisenberg_group
    rep = standard_poly_rep(group)
    inst = build_double_complex(group, rep, max_p=2)
    chart = Chart(fiber_vars(group.dim))
    for p in range(3):
        for q in range(3):
            psi = inst.sample(rng, p, q)
            subsets = list(combinations(range(group.dim), q))
            picture = [PolyForm(chart, q, dict(zip(subsets, row))) for row in frame_convert(psi)]
            back = components(group, rep, p, q, picture)
            assert (back - psi).is_zero()


@pytest.mark.parametrize("name", registered_groups())
def test_frame_convert_matches_the_form_picture(name):
    # The form picture read off the coframe table against the wedges of
    # the coframe that the table holds, exactly: equal coefficients that
    # print alike, for every q-subset in order.
    group = build_group(name)
    rng = random.Random(28)
    for rep in (trivial_poly_rep(group), standard_poly_rep(group)):
        inst = build_double_complex(group, rep, max_p=2)
        for p in range(3):
            for q in range(group.dim + 1):
                subsets = list(combinations(range(group.dim), q))
                for psi in (inst.sample(rng, p, q), _random_bigraded(rng, group, rep, p, q)):
                    got = frame_convert(psi)
                    expected = [[form.coefficient(idx) for idx in subsets]
                                for form in form_picture(psi)]
                    assert got == expected and repr(got) == repr(expected)


def test_r_closed_reads_coframe_tables_built_once_per_degree(monkeypatch):
    # The integration map calls no homotopy_T, and builds the coframe table
    # of each degree once, on first use, whatever the representation.
    calls, built = [], []
    for module in (forms, nilgroup):
        monkeypatch.setattr(module, "homotopy_T", lambda a: calls.append(a) or homotopy_T(a))
    coframe = nilgroup.maurer_cartan_coframe
    monkeypatch.setattr(nilgroup, "maurer_cartan_coframe",
                        lambda g: built.append(g.dim) or coframe(g))
    group = build_group("heisenberg3")
    reps = (trivial_poly_rep(group).infinitesimal(), standard_poly_rep(group).infinitesimal())
    tables = {}
    for q in range(group.dim + 1):
        for rep in reps:
            for idx in combinations(range(group.dim), q):
                r_closed(group, CEElement.basis(group.algebra, idx, rep=rep, slot=rep.dim - 1))
        tables[q] = group.coframe_table(q)
    assert calls == []
    assert built == [3] * (group.dim + 1)
    assert tables[0] == ((MultiPoly.const(1),),)
    assert all(group.coframe_table(q) is table for q, table in tables.items())
    assert len(built) == group.dim + 1


@pytest.mark.parametrize("name", registered_groups())
def test_bg_k_matches_the_form_path(name):
    # The compiled homotopy against the form picture it compiles, exactly:
    # equal elements whose components print alike, in the same order.
    group = build_group(name)
    rng = random.Random(27)
    for rep in (trivial_poly_rep(group), standard_poly_rep(group)):
        inst = build_double_complex(group, rep, max_p=2)
        for p in range(3):
            for q in range(group.dim + 1):
                for psi in (inst.sample(rng, p, q), _random_bigraded(rng, group, rep, p, q)):
                    got, expected = bg_k(psi), form_path_bg_k(psi)
                    assert got == expected and repr(got) == repr(expected)


def test_contracted_tables_are_built_on_first_use_once_per_degree(monkeypatch):
    # Building a double complex builds no table; the first bg_k at each q
    # builds that q's, one homotopy_T per q-subset, for every representation.
    built = []
    build = nilgroup.homotopy_T
    monkeypatch.setattr(nilgroup, "homotopy_T", lambda a: built.append(a.degree) or build(a))
    group = build_group("heisenberg3")
    reps = (standard_poly_rep(group), trivial_poly_rep(group))
    for rep in reps:
        build_double_complex(group, rep, max_p=2)
    assert built == []
    rng = random.Random(5)
    for rep in reps:
        for _ in range(2):
            bg_k(_random_bigraded(rng, group, rep, 1, 2))
    assert built == [2, 2, 2]
    table = group.contracted_table(2)
    bg_k(_random_bigraded(rng, group, reps[0], 0, 1))
    assert built == [2, 2, 2, 1, 1, 1]
    assert group.contracted_table(2) is table


def test_double_complex_identities_trivial_rep(heisenberg_group):
    inst = build_double_complex(heisenberg_group, max_p=2, max_q=2)
    reports = verify_instance(inst, seed=2, trials=2)
    assert [r for r in reports if r["status"] == "fail"] == []


def test_double_complex_identities_nontrivial_rep(heisenberg_group):
    rep = standard_poly_rep(heisenberg_group)
    inst = build_double_complex(heisenberg_group, rep, max_p=2, max_q=2)
    reports = verify_instance(inst, seed=2, trials=1)
    assert [r for r in reports if r["status"] == "fail"] == []


def _random_bigraded(rng, group, rep, p, q, max_deg=2):
    from itertools import combinations

    from cochainlab.nilgroup import fiber_vars

    variables = list(fiber_vars(group.dim))
    for s in range(1, p + 1):
        variables.extend(slot_vars(s, group.dim))
    comps = {
        idx: tuple(random_poly(rng, variables, max_deg) for _ in range(rep.dim))
        for idx in combinations(range(group.dim), q)
    }
    return BigradedElement(group, rep, p, q, comps)


def test_h_intertwines_interior_nabla(heisenberg_group):
    rng = random.Random(34)
    group = heisenberg_group
    rep = standard_poly_rep(group)
    for _ in range(4):
        p, q = 2, rng.randrange(3)
        psi = _random_bigraded(rng, group, rep, p, q)
        xi = [rng.choice(COEFFS) for _ in range(group.dim)]
        assert bg_h(nabla_bigraded(1, xi, psi)) == nabla_bigraded(1, xi, bg_h(psi))


def test_lie_derivative_exchange(heisenberg_group):
    # L_xi h = h (nabla^{(p)} + L_xi)
    rng = random.Random(35)
    group = heisenberg_group
    rep = standard_poly_rep(group)
    for _ in range(4):
        p, q = 1 + rng.randrange(2), rng.randrange(3)
        psi = _random_bigraded(rng, group, rep, p, q)
        xi = [rng.choice(COEFFS) for _ in range(group.dim)]
        lhs = lie_bigraded(xi, bg_h(psi))
        rhs = bg_h(nabla_bigraded(p, xi, psi) + lie_bigraded(xi, psi))
        assert lhs == rhs


# Reference definition of the infinitesimal actions, independent of the
# chain rule in vanest: move the points along a = exp(t xi) through the
# group law, then differentiate in t at t = 0.


def _curve_derivative(group, xi, vec, moves, rep=None):
    """d/dt at t = 0 of rho(a) vec(moved points), rho left out when rep is
    None; ``moves`` pairs slot variables with "right" (x -> x a) or "left"
    (x -> a^{-1} x)."""
    t = MultiPoly.var("t")
    a = [t * c for c in xi]
    sub = {}
    for names, side in moves:
        x = [MultiPoly.var(v) for v in names]
        moved = group.multiply(x, a) if side == "right" else group.multiply(group.invert(a), x)
        sub.update(zip(names, moved))
    vals = [c.subst(sub) for c in vec]
    if rep is not None:
        vals = mat_vec(rep.matrix_at(a), vals)
    return tuple(v.diff("t").subst({"t": 0}) for v in vals)


XI_REF = (1, Fraction(-1, 2), 2, -1)
REF_CASES = [("heisenberg3", standard_poly_rep), ("filiform4", trivial_poly_rep)]


@pytest.mark.parametrize("name, make_rep", REF_CASES)
def test_nabla_matches_curve_reference(name, make_rep):
    group = build_group(name)
    rep, n = make_rep(group), group.dim
    xi = XI_REF[:n]
    rng = random.Random(41)
    for p in (1, 2, 3):
        variables = [v for s in range(1, p + 1) for v in slot_vars(s, n)]
        values = tuple(random_poly(rng, variables, 3, 6) for _ in range(rep.dim))
        f = GroupCochain(group, rep, p, values)
        for i in range(1, p + 1):
            if i < p:
                moves = [(slot_vars(i, n), "right"), (slot_vars(i + 1, n), "left")]
                expected = _curve_derivative(group, xi, values, moves)
            else:
                expected = _curve_derivative(group, xi, values, [(slot_vars(p, n), "right")], rep)
            assert nabla(i, xi, f).values == expected


# Reference for ve_closed: the plain permutation formula, one nabla per
# permutation and slot on the whole cochain, each slot velocity built afresh
# and the result evaluated at the units by substitution.


def _plain_nabla(i, j, f):
    group, p, n = f.group, f.p, f.group.dim
    field = left_invariant_vf(group, j).components
    vel = velocity(group, field, slot_vars(i, n))
    if i < p:
        vel.update(velocity(group, field, slot_vars(i + 1, n), left=True))
    values = [
        sum((w * c.diff(v) for v, w in vel.items()), MultiPoly.zero()) for c in f.values
    ]
    if i == p:
        twisted = mat_vec(f.rep.infinitesimal().matrices[j], f.values)
        values = [a + b for a, b in zip(values, twisted)]
    return GroupCochain(group, f.rep, p, values)


def _plain_ve(f):
    group, p = f.group, f.p
    units = {v: 0 for s in range(1, p + 1) for v in slot_vars(s, group.dim)}
    comps = {}
    for idx in combinations(range(group.dim), p):
        total = [Fraction(0)] * f.rep.dim
        for perm in permutations(range(p)):
            cur = f
            for slot in range(p, 0, -1):
                cur = _plain_nabla(slot, idx[perm[slot - 1]], cur)
            sign = sort_sign(perm)[1]
            total = [t + sign * v.subst(units).constant_value() for t, v in zip(total, cur.values)]
        comps[idx] = total
    return CEElement(group.algebra, f.rep.infinitesimal(), p, comps)


def _cochain_up_to(rng, group, rep, p):
    """Random values with terms of degree up to p + 2: products of one
    coordinate of every slot, which VE sees, times up to two more, plus
    random terms of any slots."""
    variables = [v for s in range(1, p + 1) for v in slot_vars(s, group.dim)]
    values = []
    for _ in range(rep.dim):
        value = random_poly(rng, variables, p + 2, 4)
        for _ in range(6):
            term = MultiPoly.const(rng.choice([c for c in COEFFS if c]))
            for s in range(1, p + 1):
                term = term * MultiPoly.var(rng.choice(slot_vars(s, group.dim)))
            for _ in range(rng.randrange(3)):
                term = term * MultiPoly.var(rng.choice(variables))
            value = value + term
        values.append(value)
    return GroupCochain(group, rep, p, values)


@pytest.mark.parametrize("name, make_rep", REF_CASES)
def test_ve_closed_matches_untruncated_reference(name, make_rep):
    group = build_group(name)
    rep = make_rep(group)
    rng = random.Random(43)
    for p in (1, 2, 3):
        for _ in range(3):
            f = _cochain_up_to(rng, group, rep, p)
            assert ve_closed(f) == _plain_ve(f)


@pytest.mark.parametrize("name, make_rep", REF_CASES)
def test_bigraded_actions_match_curve_reference(name, make_rep):
    group = build_group(name)
    rep, n = make_rep(group), group.dim
    xi = XI_REF[:n]
    rng = random.Random(42)
    g1, g2, y = slot_vars(1, n), slot_vars(2, n), fiber_vars(n)
    for q in (0, 1):
        psi = _random_bigraded(rng, group, rep, 2, q)
        cases = [
            (nabla_bigraded(1, xi, psi), [(g1, "right"), (g2, "left")], None),
            (nabla_bigraded(2, xi, psi), [(g2, "right"), (y, "left")], None),
            (lie_bigraded(xi, psi), [(y, "right")], rep),
        ]
        for got, moves, twist in cases:
            expected = {
                idx: _curve_derivative(group, xi, vec, moves, twist)
                for idx, vec in psi.comps.items()
            }
            assert got == BigradedElement(group, rep, 2, q, expected)


def test_normalized_h_side_conditions(heisenberg_group):
    # on cochains vanishing at unit insertions: h h = 0 and p-hat h = 0
    rng = random.Random(36)
    group = heisenberg_group
    rep = standard_poly_rep(group)
    n = group.dim
    for _ in range(4):
        q = rng.randrange(2)
        psi2 = _random_bigraded(rng, group, rep, 2, q)
        norm = MultiPoly.var(f"g1_{1 + rng.randrange(n)}") * MultiPoly.var(
            f"g2_{1 + rng.randrange(n)}"
        )
        psi2 = map_comps(psi2, lambda c: c * norm)
        assert bg_h(bg_h(psi2)).is_zero()

        psi1 = _random_bigraded(rng, group, rep, 1, q)
        psi1 = map_comps(
            psi1, lambda c: c * MultiPoly.var(f"g1_{1 + rng.randrange(n)}")
        )
        assert bg_p_proj(bg_h(psi1)).is_zero()


@pytest.mark.parametrize("build, message", [
    (lambda g: BigradedElement(g, None, 0, 2, {(1, 0): [MultiPoly.const(1)]}),
     r"index \(1, 0\) is not an increasing 2-subset"),
    (lambda g: BigradedElement(g, None, 0, 1, {(0,): [MultiPoly.const(1)] * 2}),
     "component vector length must match rep dim"),
    (lambda g: BigradedElement(g, None, 0, 1, {(0,): [MultiPoly.var("g1_1")]}),
     "component uses variables outside slots: {'g1_1'}"),
    (lambda g: bg_p_proj(BigradedElement.zero(g, None, 1, 0)), "p-hat is defined on the first column only"),
    (lambda g: bg_q_proj(BigradedElement.zero(g, None, 0, 1)), "q-hat is defined on the bottom row only"),
])
def test_bigraded_inputs_rejected(heisenberg_group, build, message):
    with pytest.raises(ValueError, match=message):
        build(heisenberg_group)

import random
from collections import Counter
from fractions import Fraction

import pytest

from cochainlab.cech_derham import (
    CechError,
    CechForm,
    ConstCochain,
    CoverSpec,
    GlobalForm,
    NotCocycle,
    PwPoly,
    _eval,
    arc_cells,
    cech_d,
    cech_delta,
    cech_i_inc,
    cech_instance,
    cech_p_proj,
    circle_integrate,
    collate,
    const_delta,
    default_cover,
    global_d,
    good_cover_k,
    pou_h,
    winding_cocycle,
)
from cochainlab.cli import RunConfig, run_verify
from cochainlab.perturb import verify_instance, zigzag_xy, zigzag_yx
from cochainlab.polyalg import MultiPoly
from conftest import rotated_cover

GRID = default_cover().grid
FULL = frozenset(range(len(GRID) - 1))


def test_partition_of_unity_sums_to_one():
    cover = default_cover()
    total = PwPoly.zero(GRID, FULL)
    for chi in cover.pou:
        total = total + chi
    assert total == PwPoly.on(GRID, FULL, MultiPoly.const(1))


def test_pou_supported_in_arcs():
    cover = default_cover()
    for i, chi in enumerate(cover.pou):
        arcs = cover.intervals(i)
        for lo, hi, poly in chi.segments:
            if poly.is_zero():
                continue
            assert any(a <= lo and hi <= b for a, b in arcs)


def is_continuous(f: PwPoly) -> bool:
    """Continuity at every junction of two domain cells, including the
    wrap 1 = 0."""
    n = len(f.cells)
    for k, p in enumerate(f.cells):
        q, cut = f.cells[(k + 1) % n], f.grid[k + 1]
        if p is not None and q is not None and _eval(p, cut) != _eval(q, cut % 1):
            return False
    return True


def test_pou_continuous():
    cover = default_cover()
    for chi in cover.pou:
        assert is_continuous(chi)


def test_winding_collates_to_integral_one():
    c = winding_cocycle()
    g = collate(c)
    assert g.q == 1
    assert circle_integrate(g) == Fraction(1)


def test_collate_rejects_non_cocycles():
    cover = default_cover()
    # a 0-cochain with mismatched constants has nonzero delta
    c = ConstCochain(cover, 0, {(0,): Fraction(1), (1,): Fraction(0), (2,): Fraction(0)})
    assert not const_delta(c).is_zero()
    with pytest.raises(NotCocycle):
        collate(c)


def test_collated_coboundary_integrates_to_zero():
    cover = default_cover()
    c0 = ConstCochain(cover, 0, {(0,): Fraction(2), (1,): Fraction(-1), (2,): Fraction(3)})
    c = const_delta(c0)
    g = collate(c)
    assert circle_integrate(g) == Fraction(0)


def test_instance_identities_and_expected_side_failures():
    inst = cech_instance()
    reports = verify_instance(inst, seed=3, trials=4)
    by_check = Counter((r["check"], r["status"]) for r in reports)
    fails = [r for r in reports if r["status"] == "fail"]
    assert {r["check"] for r in fails} <= {"side_hk", "side_pk"}
    # the side conditions must genuinely fail, each with a stored witness
    assert any(r["check"] == "side_hk" for r in fails)
    assert any(r["check"] == "side_pk" for r in fails)
    assert all("counterexample" in r for r in fails)
    # and every structural identity must pass everywhere
    for check in ("d_squared", "delta_squared", "anticommute",
                  "h_delta_contraction", "perturbed_contraction",
                  "k_d_contraction", "p_i_identity"):
        assert by_check[(check, "pass")] > 0
        assert by_check[(check, "fail")] == 0


def test_back_and_forth_not_identity():
    # without the side conditions the X -> Y -> X composite differs from the
    # identity; the difference is exact (zero circle integral)
    inst = cech_instance()
    g = GlobalForm(1, PwPoly.on(GRID, FULL, MultiPoly.const(1)))
    c = zigzag_yx(inst, g)
    back = zigzag_xy(inst, c)
    diff = back - g
    assert not diff.fn.is_zero()
    assert circle_integrate(GlobalForm(1, diff.fn)) == Fraction(0)


def test_primitive_in_homotopy():
    # k d f = f - f(basepoint) for a smooth function on one arc
    cover = default_cover()
    x = MultiPoly.var("x")
    f = CechForm(cover, 0, 0, {(1,): PwPoly.on(cover.grid, cover.intersection((1,)), x * x)})
    kd = good_cover_k(cech_d(f))
    base = cover.intersection_basepoint((1,))
    expected_poly = x * x - MultiPoly.const(base * base)
    assert kd.comps[(1,)] == PwPoly.on(cover.grid, cover.intersection((1,)), expected_poly)


def test_restriction_glue_roundtrip():
    cover = default_cover()
    poly = MultiPoly.var("x") * 2 + 1
    g = GlobalForm(0, PwPoly.on(GRID, FULL, poly))
    back = cech_p_proj(cech_i_inc(cover, g))
    assert back.fn == g.fn


def test_delta_squared_on_random():
    inst = cech_instance()
    rng = random.Random(9)
    for p in range(2):
        w = inst.sample(rng, p, 0)
        assert cech_delta(cech_delta(w)).is_zero()


def test_pwpoly_arithmetic():
    grid, dom = (Fraction(0), Fraction(1, 2), Fraction(1)), {0}
    x = MultiPoly.var("x")
    a = PwPoly.on(grid, dom, x)
    b = PwPoly.on(grid, dom, x * x)
    assert (a + b) - b == a
    assert a.diff() == PwPoly.on(grid, dom, MultiPoly.const(1))
    assert a.eval(Fraction(1, 4)) == Fraction(1, 4)
    # the right end of the domain is read off the cell to its left
    assert a.eval(Fraction(1, 2)) == Fraction(1, 2)
    assert not is_continuous(a.extend_zero({0, 1}))  # a jump at 1/2


def test_pwpoly_reads_polynomials_in_x_only():
    # values, integrals and primitives agree with substitution, the
    # polynomial integral and the derivative; another variable is refused
    x, half = MultiPoly.var("x"), Fraction(1, 2)
    rng = random.Random(5)
    for _ in range(10):
        poly = MultiPoly.const(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        for e in range(1, 4):
            poly = poly + x**e * Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        f = PwPoly.on(GRID, FULL, poly)
        point = Fraction(rng.randint(0, 23), 24)
        assert f.eval(point) == poly.subst({"x": point}).constant_value()
        assert f.integrate() == poly.defint01("x").constant_value()
        prim = f.primitive(half)
        assert prim.diff() == f and prim.eval(half) == 0
    g = PwPoly.on(GRID, FULL, MultiPoly.var("y"))
    for read in (lambda: g.eval(half), g.integrate, lambda: g.primitive(half)):
        with pytest.raises(CechError, match="univariate in x"):
            read()


def test_bad_arc_rejected():
    from cochainlab.cech_derham import arc_intervals

    with pytest.raises(CechError):
        arc_intervals(Fraction(1, 2), Fraction(1, 4))


def test_a_cover_takes_one_partition_function_and_one_basepoint_per_arc():
    cover = default_cover()
    with pytest.raises(CechError, match="one basepoint per arc"):
        CoverSpec(cover.arcs, cover.pou, cover.basepoints[:2])
    with pytest.raises(CechError, match="one basepoint per arc"):
        CoverSpec(cover.arcs, cover.pou[:2], cover.basepoints)


def test_an_empty_cover_is_named_as_such():
    with pytest.raises(CechError, match="empty cover"):
        CoverSpec((), (), ())


def test_a_basepoint_lies_strictly_inside_its_arc():
    cover = default_cover()
    # arc 0 is (3/4, 5/4): 1/2 lies outside it and 3/4 is its end
    for bad in (Fraction(1, 2), Fraction(3, 4)):
        with pytest.raises(CechError, match="not strictly inside"):
            CoverSpec(cover.arcs, cover.pou, (bad,) + cover.basepoints[1:])


def test_intersection_wrapping_through_zero_has_a_basepoint():
    cover = rotated_cover()
    # the midpoint of the overlap (11/12, 13/12), read mod 1
    assert cover.intersection_basepoint((0, 2)) == 0
    reports = verify_instance(cech_instance(cover), seed=3, trials=4)
    side = ("side_hk", "side_pk")
    assert {r["check"] for r in reports if r["status"] == "fail"} == set(side)
    assert [r for r in reports if r["check"] not in side and r["status"] != "pass"] == []


def test_sum_of_the_partition_prints_as_one_polynomial():
    # the printed form does not depend on how a function was computed
    pou = default_cover().pou
    assert repr(pou[0] + pou[1] + pou[2]) == "PwPoly([0,1): 1)"


def test_pwpolys_on_different_grids_or_domains_do_not_mix():
    x = MultiPoly.var("x")
    halves = PwPoly.on((0, Fraction(1, 2), 1), {0, 1}, x)
    thirds = PwPoly.on((0, Fraction(1, 3), 1), {0, 1}, x)
    with pytest.raises(CechError):
        halves + thirds
    assert halves != thirds and (halves == thirds) is False
    left = PwPoly.on(halves.grid, {0}, x)
    with pytest.raises(CechError):
        halves + left
    with pytest.raises(CechError):
        left.restrict({0, 1})
    assert halves.restrict({0}) == left


def test_every_cell_is_a_polynomial_in_x(monkeypatch):
    # zero cells and constants live over (x,) too, so no cellwise sum or
    # product of a verification has to align two variable tuples
    calls = []
    extend = MultiPoly.extend

    def counted(self, variables):
        calls.append((self.vars, variables))
        return extend(self, variables)

    monkeypatch.setattr(MultiPoly, "extend", counted)
    code, _ = run_verify(RunConfig("cech-circle3", trials=1, seed=0))
    assert code == 0
    assert calls == []


def _cover_with_pou(order):
    cover = default_cover()
    return CoverSpec(cover.arcs, tuple(cover.pou[i] for i in order), cover.basepoints)


X = MultiPoly.var("x")
HALVES = (Fraction(0), Fraction(1, 2), Fraction(1))


@pytest.mark.parametrize("build, message", [
    (lambda: arc_cells({0, 2}, 4), "domain is not a single arc"),
    (lambda: PwPoly((0, 2), [X]), "bad grid"),
    (lambda: PwPoly((0, 1), [X, X]), "one entry per grid cell"),
    (lambda: PwPoly.on(HALVES, {0, 1}, X).refine((0, 1)), "a refinement keeps every cut"),
    (lambda: PwPoly.on(HALVES, {0}, X).eval(Fraction(3, 4)), "point 3/4 outside domain"),
    (lambda: _cover_with_pou((0, 1, 1)), "partition of unity does not sum to 1"),
    (lambda: _cover_with_pou((0, 2, 1)), "partition function not supported in its arc"),
    (lambda: default_cover().intersection_basepoint((0, 1, 2)), "empty intersection has no basepoint"),
    (lambda: CechForm(default_cover(), 1, 0, {(1, 0): PwPoly.on(GRID, FULL, X)}), r"bad index \(1, 0\)"),
    (lambda: CechForm(default_cover(), 2, 0, {(0, 1, 2): PwPoly.on(GRID, FULL, X)}),
     r"empty intersection \(0, 1, 2\)"),
    (lambda: CechForm(default_cover(), 0, 0, {(0,): PwPoly.on(HALVES, {0, 1}, X)}),
     r"component \(0,\) is not on the cover's grid"),
    (lambda: ConstCochain(default_cover(), 2, {(0, 1, 2): 1}), r"empty intersection \(0, 1, 2\)"),
    (lambda: ConstCochain(default_cover(), 1, {(2, 0): 1}), r"bad index \(2, 0\)"),
    (lambda: ConstCochain(default_cover(), 1, {(0,): 5}), r"bad index \(0,\)"),
    (lambda: circle_integrate(GlobalForm(0, PwPoly.on(GRID, FULL, X))), "only 1-forms integrate"),
])
def test_cech_inputs_rejected(build, message):
    with pytest.raises(CechError, match=message):
        build()


def test_a_component_is_read_on_its_intersection():
    cover = default_cover()
    dom = cover.intersection((0, 1))
    whole = CechForm(cover, 1, 0, {(0, 1): PwPoly.on(GRID, FULL, X)})
    assert whole.comps[(0, 1)] == PwPoly.on(GRID, dom, X)

"""The one vector-space protocol of every cochain and payload class
(``polyalg.Linear``): the vector-space laws, the shape check on ``+``,
immutability, unhashability, and copies and pickles that round-trip."""

import copy
import dataclasses
import pickle
import random
from fractions import Fraction
from itertools import combinations

import pytest

from cochainlab.cech_derham import CechForm, ConstCochain, PwPoly, cech_instance, default_cover
from cochainlab.forms import Chart, PolyForm
from cochainlab.liealg import CEElement, heisenberg3, trivial_rep
from cochainlab.nilgroup import GroupCochain, build_group, trivial_poly_rep
from cochainlab.pairgpd import ASCochain
from cochainlab.perturb import Graded, Vec, matrix_instance
from cochainlab.polyalg import MultiPoly, ShapeError
from cochainlab.vanest import BigradedElement, build_double_complex, standard_poly_rep
from conftest import random_poly, rotated_cover

#: The eleven element classes.
NAMES = (
    "CEElement", "BigradedElement", "GroupCochain", "PolyForm", "ASCochain",
    "PwPoly", "CechForm", "ConstCochain", "GlobalForm", "Vec", "Graded",
)


@pytest.fixture(scope="module")
def samplers(heisenberg_group):
    """Per class, a sampler (rng, k) -> element whose shape depends on k in
    {0, 1}, drawn from the instances' own samplers where they exist."""
    group = heisenberg_group
    group.faces(1)  # structure cached on the group must not stop a copy
    van_est = build_double_complex(group, standard_poly_rep(group), max_p=2)
    cech = cech_instance()
    matrix = matrix_instance(seed=0)
    chart = Chart(("x_1", "x_2", "x_3"))

    def poly_form(rng, k):
        comps = {idx: random_poly(rng, chart.coords) for idx in combinations(range(3), k + 1)}
        return PolyForm(chart, k + 1, comps)

    quarters = tuple(Fraction(i, 4) for i in range(5))

    def pw_poly(rng, k):
        # two cells of one grid, so that sums zip the cells of one domain
        cells = [random_poly(rng, ["x"]) if k <= i < k + 2 else None for i in range(4)]
        return PwPoly(quarters, cells)

    return {
        "CEElement": lambda rng, k: van_est.sample_x(rng, k + 1),
        "BigradedElement": lambda rng, k: van_est.sample(rng, k + 1, 1),
        "GroupCochain": lambda rng, k: van_est.sample_y(rng, k + 1),
        "PolyForm": poly_form,
        "ASCochain": lambda rng, k: ASCochain.decomposable(
            2, [random_poly(rng, ["x_1", "x_2"]) for _ in range(k + 2)]
        ),
        "PwPoly": pw_poly,
        "CechForm": lambda rng, k: cech.sample(rng, k, 0),
        "ConstCochain": lambda rng, k: cech.sample_y(rng, k),
        "GlobalForm": lambda rng, k: cech.sample_x(rng, k),
        "Vec": lambda rng, k: matrix.sample(rng, k, 0),
        "Graded": lambda rng, k: Graded.of(matrix.sample(rng, k, 0)),
    }


def test_the_samplers_cover_every_class(samplers):
    rng = random.Random(0)
    assert [type(samplers[name](rng, 0)).__name__ for name in NAMES] == list(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_vector_space_laws(samplers, name):
    rng = random.Random(7)
    for _ in range(3):
        a, b, other = (samplers[name](rng, k) for k in (0, 0, 1))
        assert a + b == b + a
        assert (a + b) - b == a
        assert (a - a).is_zero()
        assert -(-a) == a
        for c in (2, Fraction(-3, 2)):
            assert c * a == a * c
            assert (c * (a + b) - c * a - c * b).is_zero()
        assert (a == other) is False and a != other
        assert (a == 0) is False


@pytest.mark.parametrize("name", NAMES)
def test_adding_different_shapes_raises(samplers, name):
    rng = random.Random(11)
    a, b = samplers[name](rng, 0), samplers[name](rng, 1)
    if name == "Graded":
        # A formal sum over bidegrees has no shape of its own: its parts at
        # one bidegree must share theirs.
        b = Graded({(0, 0): b.component(1, 0)})
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ValueError):
            x + y
        with pytest.raises(ValueError):
            x - y


def test_cochains_of_different_degrees_or_coefficients_do_not_add(heisenberg_group):
    g = MultiPoly.var("g1_1")
    with pytest.raises(ValueError):
        GroupCochain.scalar(heisenberg_group, 2, g) + GroupCochain.scalar(heisenberg_group, 1, g)
    # a 3-dimensional and a 1-dimensional coefficient space
    rep = standard_poly_rep(heisenberg_group)
    wide = GroupCochain(heisenberg_group, rep, 1, (g, g, g))
    narrow = GroupCochain.scalar(heisenberg_group, 1, g)
    assert (wide == narrow) is False
    with pytest.raises(ValueError):
        wide + narrow


def test_elements_over_two_spaces_neither_add_nor_compare_equal(heisenberg_group):
    # A shape names the space beside the degree: the group (and its rep),
    # the algebra, the n of R^n, the cover.
    heis, flat = heisenberg_group, build_group("abelian-3")
    g, m = MultiPoly.var("g1_1"), MultiPoly.var("m0_1")
    cover = default_cover()
    # the same arcs and partition, so the same grid, at other basepoints
    moved = dataclasses.replace(
        cover, basepoints=tuple(b + Fraction(1, 24) for b in cover.basepoints))
    form = cech_instance(cover).sample(random.Random(0), 1, 0)
    pairs = [
        (GroupCochain.scalar(heis, 1, g), GroupCochain.scalar(flat, 1, g)),
        (BigradedElement(heis, None, 1, 1, {(0,): (g,)}),
         BigradedElement(flat, None, 1, 1, {(0,): (g,)})),
        (CEElement.basis(heis.algebra, (0,)), CEElement.basis(flat.algebra, (0,))),
        (ASCochain(2, 0, m), ASCochain(3, 0, m)),
        (form, CechForm(moved, 1, 0, form.comps)),
        (CechForm.zero(cover, 0, 0), CechForm.zero(rotated_cover(), 0, 0)),
        (ConstCochain(cover, 1, {(0, 1): 3}), ConstCochain(rotated_cover(), 1, {(0, 1): 3})),
    ]
    for a, b in pairs:
        assert type(a) is type(b) and a._data() == b._data()
        name = type(a).__name__
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ShapeError, match=f"cannot add a {name} to a {name}") as err:
                x + y
            assert len(str(err.value)) <= 200
            assert (x == y) is False and x != y
    # a group rebuilt from its name is the same space
    again = build_group("heisenberg3")
    assert again is not heis and again == heis
    for cochain in (GroupCochain.scalar, lambda group, p, c: BigradedElement(
            group, standard_poly_rep(group), p, 0, {(): (c, c, c)})):
        a, b = cochain(heis, 1, g), cochain(again, 1, g)
        assert a == b and b == a and a + b == 2 * a


def test_a_cochain_takes_a_representation_of_its_own_space(heisenberg_group):
    flat = build_group("abelian-3")
    g = MultiPoly.var("g1_1")
    with pytest.raises(ValueError, match="not one of the cochain's group"):
        GroupCochain(heisenberg_group, trivial_poly_rep(flat), 1, (g,))
    with pytest.raises(ValueError, match="not one of the cochain's group"):
        BigradedElement(heisenberg_group, standard_poly_rep(flat), 1, 0, {})
    with pytest.raises(ValueError, match="not one of the cochain's algebra"):
        CEElement(heisenberg_group.algebra, trivial_rep(flat.algebra), 1, {})
    # a representation of an equal, rebuilt group is one of its own
    again = build_group("heisenberg3")
    assert GroupCochain(heisenberg_group, trivial_poly_rep(again), 1, (g,)).rep.group == again


@pytest.mark.parametrize("name", NAMES)
def test_elements_are_immutable_and_unhashable(samplers, name):
    x = samplers[name](random.Random(5), 0)
    with pytest.raises(AttributeError, match=f"{name} is immutable"):
        setattr(x, type(x).__slots__[0], None)
    with pytest.raises(AttributeError, match=f"{name} is immutable"):
        x.extra = 1
    with pytest.raises(TypeError, match=f"{name} is unhashable"):
        hash(x)


def _round_trips(x):
    return [copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))]


@pytest.mark.parametrize("name", NAMES)
def test_copy_and_pickle_round_trip(samplers, name):
    x = samplers[name](random.Random(3), 0)
    for y in _round_trips(x):
        assert type(y) is type(x) and y == x
        if type(x).__repr__ is not object.__repr__:
            assert repr(y) == repr(x)


def test_copy_and_pickle_round_trip_of_polynomials_and_basic_values():
    t1 = MultiPoly.var("t1")
    chart = Chart(("y_1",))
    for x in (t1, t1 * t1 * Fraction(1, 3) - 2, CEElement.basis(heisenberg3(), (0, 2)),
              PolyForm.function(chart, t1)):
        for y in _round_trips(x):
            assert type(y) is type(x) and y == x and repr(y) == repr(x)
            if isinstance(x, MultiPoly):
                assert (y.vars, y.terms) == (x.vars, x.terms)


def test_sums_whose_parts_differ_in_shape_are_unequal():
    # A formal sum has no shape of its own, so only its parts can tell.
    short, long = (Graded.of(Vec(0, 0, (Fraction(1),) * n)) for n in (9, 12))
    assert (short == long) is False and short != long
    assert (long == short) is False
    assert Graded.of(Vec(0, 0, (Fraction(1),) * 9)) == short


def test_vecs_at_different_bidegrees_are_different_shapes():
    entries = (Fraction(1), Fraction(2))
    a, b = Vec(0, 1, entries), Vec(1, 0, entries)
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ShapeError):
            x + y
    assert (a == b) is False and a != b
    assert a == Vec(0, 1, entries)

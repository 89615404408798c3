"""A mutation gate for the verifier: a wrong operator must not pass.

Every operator field of an instance is wrapped in each of four mutants.
Each mutant must make ``verify_instance(seed=0, trials=1)`` report a
failure beyond ``expected_failures(inst)``, or raise.  The mutants that
survive are named below: the equivalent ones, which cannot change any
result, and the ones of ``d_x`` and ``delta_y``, which ``verify_instance``
never calls.  Every mutant reads the input's p off the input itself.  The
group instances are the Heisenberg group at ``max_p=1``, with the trivial
and with the standard representation.
"""

import dataclasses

import pytest

from cochainlab.cech_derham import cech_instance
from cochainlab.nilgroup import build_group
from cochainlab.perturb import PerturbError, expected_failures, matrix_instance, verify_instance
from cochainlab.vanest import build_double_complex, standard_poly_rep
from conftest import instance_operator_fields

#: Mutant name -> the mutated image, from the true image and the input's p.
MUTANTS = {
    "negate": lambda out, p: -out,
    "double": lambda out, p: out + out,
    "zero": lambda out, p: 0 * out,
    "odd_sign": lambda out, p: -out if p % 2 else out,
}

#: Mutants that equal the operator on every input it can meet.
EQUIVALENT = {
    ("p_proj", "odd_sign"): "p-hat takes the first column, where p = 0",
    ("i_inc", "odd_sign"): "an X element sits in the first column, where p = 0",
    ("d_x", "odd_sign"): "an X element sits in the first column, where p = 0",
}
#: The same for the three-arc cover of the circle, whose top Cech degree is 1.
CECH_EQUIVALENT = {
    ("delta", "odd_sign"): "delta is zero at p = 1, the only odd p",
    ("delta_y", "odd_sign"): "delta_y is zero at p = 1, the only odd p",
}

#: The check gap: no identity that verify_instance checks calls d_x or
#: delta_y, so every mutant of theirs that is not equivalent survives.
GAP = {(field, mutant) for field in ("d_x", "delta_y") for mutant in MUTANTS}


def _standard(name):
    """The double complex of a group with its standard representation."""
    group = build_group(name)
    return build_double_complex(group, standard_poly_rep(group), max_p=1)


INSTANCES = {
    "matrix": (lambda: matrix_instance(0), EQUIVALENT),
    "cech-circle3": (cech_instance, {**EQUIVALENT, **CECH_EQUIVALENT}),
    "heisenberg3": (
        lambda: build_double_complex(build_group("heisenberg3"), max_p=1), EQUIVALENT
    ),
    "heisenberg3-standard": (lambda: _standard("heisenberg3"), EQUIVALENT),
}


def _mutated(op, mutant):
    return lambda x: MUTANTS[mutant](op(x), x.p)


def _caught(inst, field, mutant) -> bool:
    broken = dataclasses.replace(inst, **{field: _mutated(getattr(inst, field), mutant)})
    try:
        reports = verify_instance(broken, seed=0, trials=1)
    except (PerturbError, ValueError):
        return True
    expected = expected_failures(inst)
    return any(r["status"] == "fail" and r["check"] not in expected for r in reports)


@pytest.mark.parametrize("name", INSTANCES)
def test_every_mutant_is_caught_but_the_named_ones(name):
    make, equivalent = INSTANCES[name]
    inst = make()
    survivors = {
        (field, mutant)
        for field in instance_operator_fields()
        for mutant in MUTANTS
        if not _caught(inst, field, mutant)
    }
    assert survivors == GAP | set(equivalent)

"""cochainlab: exact symbolic homotopy algebra for double complexes.

Everything is computed over the rationals with zero tolerance: the
homological perturbation lemma on bicomplexes, differentiation and
integration maps between group and Lie-algebra cochains on polynomial
models of nilpotent Lie groups, the pair groupoid of coordinate space,
and the Cech-de Rham complex of an arc cover of the circle.
"""

from .polyalg import MultiPoly, Rat, canonical_vars, to_string
from .forms import (
    Chart,
    PolyForm,
    PolyVF,
    contract,
    cube_integrate,
    exterior_d,
    homotopy_T,
    pullback,
    wedge,
)
from .liealg import (
    CEElement,
    LieAlgebra,
    Representation,
    abelian,
    ce_diff,
    filiform4,
    heisenberg3,
    trivial_rep,
)
from .nilgroup import (
    GroupCochain,
    PolyGroup,
    PolyRep,
    bch_multiplication,
    build_group,
    group_delta,
    left_invariant_vf,
    maurer_cartan_coframe,
    registered_groups,
    trivial_poly_rep,
)
from .perturb import (
    DoubleComplexInstance,
    Graded,
    matrix_instance,
    perturbed_h,
    perturbed_p,
    verify_instance,
    zigzag_xy,
    zigzag_yx,
)
from .vanest import (
    BigradedElement,
    build_double_complex,
    gamma_map,
    nabla,
    r_closed,
    r_zigzag,
    standard_poly_rep,
    ve_closed,
    ve_zigzag,
)
from .pairgpd import ASCochain, as_delta, geodesic_map, pair_r, pair_ve
from .cech_derham import (
    CechForm,
    ConstCochain,
    CoverSpec,
    GlobalForm,
    PwPoly,
    cech_instance,
    circle_integrate,
    collate,
    default_cover,
    winding_cocycle,
)
from .cli import apply_map, ce_to_string, parse_expr, run_verify

__version__ = "0.1.0"

__all__ = [
    "ASCochain", "BigradedElement", "CEElement", "CechForm", "Chart",
    "ConstCochain", "CoverSpec", "DoubleComplexInstance", "GlobalForm",
    "Graded", "GroupCochain", "LieAlgebra", "MultiPoly", "PolyForm",
    "PolyGroup", "PolyRep", "PolyVF", "PwPoly", "Rat", "Representation",
    "abelian", "apply_map", "as_delta", "bch_multiplication", "build_group",
    "build_double_complex", "canonical_vars", "ce_diff",
    "ce_to_string", "cech_instance", "circle_integrate",
    "collate", "contract", "cube_integrate", "default_cover", "exterior_d",
    "filiform4", "gamma_map", "geodesic_map", "group_delta", "heisenberg3",
    "homotopy_T", "left_invariant_vf", "matrix_instance",
    "maurer_cartan_coframe", "nabla", "pair_r", "pair_ve", "parse_expr",
    "perturbed_h", "perturbed_p", "pullback", "r_closed", "r_zigzag",
    "registered_groups", "run_verify", "standard_poly_rep", "to_string",
    "trivial_poly_rep", "trivial_rep", "ve_closed", "ve_zigzag",
    "verify_instance", "wedge", "winding_cocycle", "zigzag_xy", "zigzag_yx",
]

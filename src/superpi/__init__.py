"""Exact symbolic engine for Pi-projective supergeometry.

Builds projective superspaces, Pi-projective spaces and Pi-Grassmannian
cells over exact rationals, and mechanically verifies their gluing
cocycles, Berezinian triviality and obstruction classes.
"""

from .rational import Poly, RatFun
from .superalgebra import Chart, Pullback, SuperFunction, parse_superfunction, substitute
from .supermatrix import SuperMatrix, berezinian, even_det, smat_inverse
from .atlas import (
    Atlas,
    TransitionMap,
    check_berezinian_trivial,
    check_cocycle,
    compose,
    super_jacobian,
)
from .builders import (
    BigCell,
    build_pi_grassmannian,
    build_pi_projective_closed,
    build_projective_superspace,
    build_super_grassmannian,
    check_pi_symmetric,
    derive_transition_from_cells,
)
from .cohomology import (
    CechCochain1,
    TensorSection,
    check_cech_cocycle,
    coboundary_refute,
    extract_obstruction,
    lifting_verify,
    omega_representative,
    pullback_tensor,
)
from .report import VerificationReport

__all__ = [
    "Atlas",
    "BigCell",
    "CechCochain1",
    "Chart",
    "Poly",
    "Pullback",
    "RatFun",
    "SuperFunction",
    "SuperMatrix",
    "TensorSection",
    "TransitionMap",
    "VerificationReport",
    "berezinian",
    "build_pi_grassmannian",
    "build_pi_projective_closed",
    "build_projective_superspace",
    "build_super_grassmannian",
    "check_berezinian_trivial",
    "check_cech_cocycle",
    "check_cocycle",
    "check_pi_symmetric",
    "coboundary_refute",
    "compose",
    "derive_transition_from_cells",
    "even_det",
    "extract_obstruction",
    "lifting_verify",
    "omega_representative",
    "parse_superfunction",
    "pullback_tensor",
    "smat_inverse",
    "substitute",
    "super_jacobian",
]

"""Exact verification and numerical rediscovery of the classification of
PostLie algebra structures on sl(2,C), through the 3x3 matrix equation
A'((tr A + 1) I - A) = A* and SO(3,C) congruence."""

from .linalg import (
    GaussianRational,
    IM,
    JordanSignature,
    Mat2,
    Mat3,
    Vec3,
    jordan_signature,
)
from .mateq import (
    ClassificationReport,
    CongruenceVerdict,
    FamilyKind,
    FamilyTag,
    classify,
    congruate,
    congruence_test,
    is_solution,
    representative,
    residual,
)
from .sl2 import (
    LIE_BRACKET,
    StructureConstants,
    bracket,
    check_jacobi,
    check_postlie,
    check_rota_baxter,
    circ_from_matrix,
    derived_bracket,
    matrix_from_circ,
)
from .so3c import adjoint_rep, automorphism_check, is_special_orthogonal, random_so3
from .solver import multistart, newton_solve, residual_jacobian
from .symcanon import (
    FormKind,
    SymCanonicalForm,
    canonical_matrix,
    classify_symmetric,
    d_k_block,
    find_orthogonal_similarity,
)

__version__ = "0.1.0"

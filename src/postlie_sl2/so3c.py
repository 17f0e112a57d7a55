"""The complex special orthogonal group SO(3,C).

Membership testing, seeded random sampling through the Cayley transform of
antisymmetric matrices (with an exact Gaussian-rational variant), the
adjoint representation of invertible 2x2 matrices, and the test for a 3x3
matrix to induce a Lie algebra automorphism in the fixed basis.  The
samplers return plain ``Mat3`` values; a floating draw passes membership at
``MEMBERSHIP_TOL``.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ._numpy import np
from .linalg import EXACT, GaussianRational, Mat2, Mat3
from .sl2 import basis_2x2, coords_from_2x2

__all__ = [
    "NotOrthogonal",
    "Singular",
    "is_special_orthogonal",
    "membership_defects",
    "cayley",
    "random_so3",
    "random_so3_exact",
    "adjoint_rep",
    "automorphism_check",
    "Mat2",
]

_MAX_RESAMPLE = 100
_DET_GUARD = 1e-6
#: the tolerance every ``random_so3`` draw passes membership at
MEMBERSHIP_TOL = 1e-10
#: complex orthogonal matrices have unbounded norm; draws above this spectral
#: norm are rejected so that downstream float error stays ~1e-13 (about 6% of
#: raw Cayley draws)
_NORM_GUARD = 10.0


class NotOrthogonal(ValueError):
    """The matrix is not in SO(3,C) at the required tolerance."""


class Singular(ZeroDivisionError):
    """A 2x2 matrix expected to be invertible has determinant zero."""


def membership_defects(T: Mat3) -> tuple[float, float]:
    """``(||T' T - I||_F, |det T - 1|)``, computed in T's own arithmetic, so
    both read 0.0 for an exact T in SO(3,C)."""
    I = Mat3.identity(exact=T.kind == EXACT)
    return (T.transpose() @ T - I).frobenius_norm(), abs(complex(T.det() - 1))


def is_special_orthogonal(T: Mat3, tol: float = 1e-8) -> bool:
    """True when T' T = I and det T = 1, exactly or to ``tol``."""
    if T.kind == EXACT:
        return T.transpose() @ T == Mat3.identity() and T.det() == GaussianRational(1)
    gram_defect, det_defect = membership_defects(T)
    return gram_defect <= tol and det_defect <= tol


def cayley(K: Mat3) -> Mat3:
    """Cayley transform (I - K)^-1 (I + K); lands in SO(3,C) for antisymmetric K."""
    I = Mat3.identity(exact=K.kind == EXACT)
    return (I - K).inverse() @ (I + K)


def _antisymmetric(a, b, c, exact: bool) -> Mat3:
    z = 0 if exact else 0j
    return Mat3([[z, a, b], [-a, z, c], [-b, -c, z]])


def random_so3(seed: int) -> Mat3:
    """Seeded random SO(3,C) element via the Cayley transform.

    The three independent entries of the antisymmetric matrix are drawn as
    standard complex normals; draws with |det(I - K)| below 1e-6 or with
    spectral norm above 10 are rejected to keep the transform well
    conditioned.  The result is verified to pass membership at
    ``MEMBERSHIP_TOL``.
    """
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_RESAMPLE):
        a, b, c = (complex(x, y) for x, y in rng.normal(size=(3, 2)))
        K = _antisymmetric(a, b, c, exact=False)
        I = Mat3.identity(exact=False)
        if abs(complex((I - K).det())) < _DET_GUARD:
            continue
        T = cayley(K)
        if float(np.linalg.norm(T.to_numpy(), 2)) > _NORM_GUARD:
            continue
        if is_special_orthogonal(T, MEMBERSHIP_TOL):
            return T
    raise RuntimeError("random_so3 failed to draw a usable antisymmetric matrix")


def _random_gaussian_rational(rng: random.Random) -> GaussianRational:
    def q():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))

    return GaussianRational(q(), q())


def random_so3_exact(seed: int) -> Mat3:
    """Exact SO(3,C) element: Cayley transform of a Gaussian-rational
    antisymmetric matrix, so that T' T = I holds with exact arithmetic."""
    rng = random.Random(seed)
    for _ in range(_MAX_RESAMPLE):
        a, b, c = (_random_gaussian_rational(rng) for _ in range(3))
        K = _antisymmetric(a, b, c, exact=True)
        if not (Mat3.identity() - K).det():
            continue
        return cayley(K)
    raise RuntimeError("random_so3_exact failed to draw a usable matrix")


def adjoint_rep(P: Mat2) -> Mat3:
    """Matrix of X -> P X P^-1 on the fixed basis (rows are basis images).

    Coordinates are read off with the trace pairing <X, Y> = -2 tr(XY),
    under which the basis is orthonormal.  Raises :class:`Singular` when
    det(P) = 0.  The result lies in SO(3,C).
    """
    d = P.det()
    if not d:
        raise Singular("adjoint_rep needs an invertible 2x2 matrix")
    Pinv = P.inverse()
    return Mat3(
        [coords_from_2x2((P @ e) @ Pinv).coords for e in basis_2x2(P.kind == EXACT)]
    )


def automorphism_check(T: Mat3, tol: float = 1e-10) -> bool:
    """True iff T induces a Lie algebra automorphism in the fixed basis.

    Bracket preservation on all basis pairs is equivalent to the adjugate
    identity (T*)' = T, which is what gets evaluated here.
    """
    lhs = T.adjugate().transpose()
    if T.kind == EXACT:
        return lhs == T
    return (lhs - T).frobenius_norm() <= tol

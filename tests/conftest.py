from fractions import Fraction

import numpy as np
import pytest

from postlie_sl2 import mateq, so3c
from postlie_sl2.cli import VERIFY_K_SAMPLES as K_SAMPLES
from postlie_sl2.linalg import EXACT, GaussianRational, IM, Mat3, Vec3
from postlie_sl2.sl2 import LIE_BRACKET, IdentityViolation, bracket


def gr(re, im=0):
    """Shorthand for exact scalars from ints/Fractions."""
    return GaussianRational(re, im)


def half(sign=1):
    return GaussianRational(Fraction(sign, 2))


def ihalf(sign=1):
    return GaussianRational(0, Fraction(sign, 2))


FIVE_TAGS = (
    mateq.FamilyTag.zero(),
    mateq.FamilyTag.minus_identity(),
    mateq.FamilyTag.trace_minus_2(),
    mateq.FamilyTag.k_family(IM),
    mateq.FamilyTag.non_sym_rank1(),
)

def sampled_tags():
    """The five families with the KFamily parameter swept over K_SAMPLES."""
    tags = [
        mateq.FamilyTag.zero(),
        mateq.FamilyTag.minus_identity(),
        mateq.FamilyTag.trace_minus_2(),
        mateq.FamilyTag.non_sym_rank1(),
    ]
    tags.extend(mateq.FamilyTag.k_family(k) for k in K_SAMPLES)
    return tags


def finite_difference_jacobian(A: Mat3, h: float = 1e-6) -> np.ndarray:
    """Central differences of ``mateq.residual`` over the 18 real
    coordinates: real parts of the row-major entries, then imaginary parts."""
    a = A.to_numpy().ravel()

    def f(z):
        r = mateq.residual(Mat3.from_numpy(z.reshape(3, 3))).to_numpy().ravel()
        return np.concatenate([r.real, r.imag])

    fd = np.zeros((18, 18))
    for i in range(18):
        e = np.zeros(9, dtype=complex)
        e[i % 9] = h if i < 9 else 1j * h
        fd[:, i] = (f(a + e) - f(a - e)) / (2 * h)
    return fd


# Reference identity checkers: the identities evaluated term by term with
# Vec3 arithmetic through the bilinear extension of each product.  The
# package's checkers contract integer pairs instead and must return equal
# violation lists.


def _reference_apply(c, x: Vec3, y: Vec3) -> Vec3:
    """The bilinear extension x o y of the structure constants ``c``."""
    out = Vec3.zero(exact=c.kind == EXACT)
    for i in range(3):
        for j in range(3):
            if x[i] and y[j]:
                out = out + c.product(i, j).scale(x[i] * y[j])
    return out


def _reference_record(violations, identity, indices, residual: Vec3, tol):
    if residual.kind == EXACT:
        failed = not residual.is_zero()
    else:
        failed = residual.max_abs() > tol
    if failed:
        violations.append(IdentityViolation(identity, indices, residual))


def _reference_basis(kind):
    return [Vec3.basis(i, exact=kind == EXACT) for i in range(3)]


def reference_check_postlie(c, tol=1e-9):
    es = _reference_basis(c.kind)
    br = LIE_BRACKET if c.kind == EXACT else LIE_BRACKET.to_floating()
    violations = []
    for a in range(3):
        x = es[a]
        for b in range(3):
            y = es[b]
            for d in range(3):
                z = es[d]
                r = (
                    _reference_apply(c, z, c.product(b, a))
                    - _reference_apply(c, y, c.product(d, a))
                    + _reference_apply(c, c.product(b, d), x)
                    - _reference_apply(c, c.product(d, b), x)
                    + _reference_apply(c, br.product(b, d), x)
                )
                _reference_record(violations, "postlie-3", (a + 1, b + 1, d + 1), r, tol)
                r = (
                    _reference_apply(c, z, br.product(a, b))
                    - bracket(c.product(d, a), y)
                    - bracket(x, c.product(d, b))
                )
                _reference_record(violations, "postlie-4", (a + 1, b + 1, d + 1), r, tol)
    return violations


def reference_check_jacobi(b, tol=1e-9):
    es = _reference_basis(b.kind)
    violations = []
    for i in range(3):
        for j in range(3):
            r = b.product(i, j) + b.product(j, i)
            _reference_record(violations, "antisymmetry", (i + 1, j + 1), r, tol)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                r = (
                    _reference_apply(b, b.product(i, j), es[k])
                    + _reference_apply(b, b.product(k, i), es[j])
                    + _reference_apply(b, b.product(j, k), es[i])
                )
                _reference_record(violations, "jacobi", (i + 1, j + 1, k + 1), r, tol)
    return violations


def reference_check_rota_baxter(A, tol=1e-9):
    es = _reference_basis(A.kind)
    f = [A.row(i) for i in range(3)]
    violations = []
    for i in range(3):
        for j in range(3):
            lhs = bracket(f[i], f[j])
            inner = bracket(f[i], es[j]) + bracket(es[i], f[j]) + bracket(es[i], es[j])
            _reference_record(violations, "rota-baxter", (i + 1, j + 1), lhs - inner @ A, tol)
    return violations


def exact_congruate(tag_or_matrix, seed):
    """An exact SO(3,C)-congruate; stays inside the Gaussian-rational field."""
    A = (
        mateq.representative(tag_or_matrix)
        if isinstance(tag_or_matrix, mateq.FamilyTag)
        else tag_or_matrix
    )
    T = so3c.random_so3_exact(seed)
    return mateq.congruate(A, T)


@pytest.fixture(scope="session")
def survey_500():
    """The multistart survey shared by the rediscovery-related criteria."""
    from postlie_sl2 import solver

    return solver.multistart(500, seed=20260810, radius=2.0)


@pytest.fixture(scope="session")
def converged_points():
    """Converged runs on the starts of ``survey_500``, from one batched
    Newton call."""
    from postlie_sl2 import solver

    starts = solver._seeded_starts(20260810, range(500), 2.0)
    return [result for result in solver._solve_rows(starts) if result.converged]

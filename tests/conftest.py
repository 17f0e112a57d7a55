from fractions import Fraction

import numpy as np
import pytest

from postlie_sl2 import mateq, so3c
from postlie_sl2.cli import VERIFY_K_SAMPLES as K_SAMPLES
from postlie_sl2.linalg import GaussianRational, IM, Mat3


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

"""Multistart damped Newton root-finding for the matrix equation.

Newton runs on the 9 complex entries of one (3,3) array.  The residual
map is polynomial, hence holomorphic, so each step solves a 9x9 complex
system with the analytic Jacobian; the 18x18 real Jacobian over (real
parts, imaginary parts) is a derived view of it.  Starts are independent
and seeded individually from (master seed, start index); results do not
depend on evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mateq
from .linalg import Mat3

__all__ = [
    "SolveResult",
    "SurveyReport",
    "residual_jacobian",
    "newton_solve",
    "multistart",
]

DEFAULT_NEWTON_TOL = 1e-12
DEFAULT_MAX_ITER = 50
DEFAULT_RADIUS = 2.0
#: Tikhonov shift for least-squares steps at singular Jacobians
TIKHONOV_SHIFT = 1e-10
MIN_DAMPING = 2.0**-20
#: extra Newton steps taken after the tolerance is reached, pushing roots to
#: the attainable floor so downstream structural identities hold tightly
POLISH_STEPS = 4


@dataclass(frozen=True)
class SolveResult:
    A_final: Mat3
    residual_norm: float
    iterations: int
    converged: bool
    classification: mateq.ClassificationReport | None = None


@dataclass(frozen=True)
class SurveyReport:
    starts: int
    converged_count: int
    family_histogram: dict
    k_values: list
    failures: int


_I3 = np.eye(3)
#: column order that turns a row-major vec(E) into vec(E')
_TRANSPOSED = np.arange(9).reshape(3, 3).T.ravel()


def _residual(A: np.ndarray) -> np.ndarray:
    """A'((tr A + 1) I - A) - A* on a complex (3,3) array, with the
    Cayley-Hamilton adjugate A* = A^2 - tr(A) A + ((tr A)^2 - tr(A^2))/2 I."""
    t = np.trace(A)
    A2 = A @ A
    c1 = (t * t - np.trace(A2)) / 2
    return A.T @ ((t + 1) * _I3 - A) - (A2 - t * A + c1 * _I3)


def _jacobian(A: np.ndarray) -> np.ndarray:
    """9x9 complex Jacobian of :func:`_residual` in row-major entry order.

    The derivative in direction E is
    E'M + tr(E)(A' + A - tI) - A'E - EA - AE + tE + tr(AE) I
    with t = tr A and M = (t + 1) I - A; row-major vec(XEY) = (X kron Y') vec(E).
    """
    t = np.trace(A)
    At = A.T
    M = (t + 1) * _I3 - A
    i, a, at = _I3.ravel(), A.ravel(), At.ravel()
    return (
        np.kron(_I3, M.T)[:, _TRANSPOSED]
        - np.kron(At, _I3)
        - np.kron(_I3, At)
        - np.kron(A, _I3)
        + t * np.eye(9)
        + np.outer(at + a - t * i, i)
        + np.outer(i, at)
    )


def residual_jacobian(A: Mat3) -> np.ndarray:
    """18x18 real Jacobian of the residual in (real parts, imaginary parts)
    coordinates: the realification of the holomorphic 9x9 Jacobian."""
    J = _jacobian(A.to_numpy())
    return np.block([[J.real, -J.imag], [J.imag, J.real]])


def newton_solve(
    A0: Mat3,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_NEWTON_TOL,
    classify_tol: float = mateq.DEFAULT_CLASSIFY_TOL,
) -> SolveResult:
    """Damped Newton iteration on the 9 complex entries.

    Steps fall back to Tikhonov-regularized normal equations when the
    Jacobian is singular (the solution variety is positive-dimensional
    along the parametrized family, so this happens at legitimate roots).
    Non-convergence is reported in the result, never raised.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    A = A0.to_numpy()
    iterations = 0
    F = _residual(A)
    norm = float(np.linalg.norm(F))
    for _ in range(max_iter):
        if norm < tol:
            break
        A, F, norm, accepted = _damped_step(A, F, norm)
        iterations += 1
        if not accepted:
            break

    converged = norm < tol
    if converged:
        # polish: the structural identities of a root are only as tight as
        # the final residual, so drive it to the floor while steps keep paying
        for _ in range(POLISH_STEPS):
            if norm == 0.0:
                break
            A_new, F_new, n_new, accepted = _damped_step(A, F, norm)
            if not accepted:
                break
            A, F, norm = A_new, F_new, n_new
            iterations += 1
    A_final = Mat3.from_numpy(A)
    classification = None
    if converged:
        try:
            classification = mateq.classify(A_final, tol=classify_tol)
        except (mateq.NotASolution, mateq.Inconclusive):
            classification = None
    return SolveResult(
        A_final=A_final,
        residual_norm=norm,
        iterations=iterations,
        converged=converged,
        classification=classification,
    )


def _damped_step(A: np.ndarray, F: np.ndarray, norm: float):
    """One damped Newton step; returns (A, F, norm, accepted)."""
    J = _jacobian(A)
    f = F.ravel()
    sv = np.linalg.svd(J, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= 1e-12 * sv[0]:
        JH = J.conj().T
        step = np.linalg.solve(JH @ J + TIKHONOV_SHIFT * np.eye(9), -JH @ f)
    else:
        step = np.linalg.solve(J, -f)
    step = step.reshape(3, 3)
    lam = 1.0
    while lam >= MIN_DAMPING:
        A_new = A + lam * step
        F_new = _residual(A_new)
        n_new = float(np.linalg.norm(F_new))
        if n_new < norm:
            return A_new, F_new, n_new, True
        lam *= 0.5
    return A, F, norm, False


def _random_start(rng: np.random.Generator, radius: float) -> np.ndarray:
    # uniform over the complex disk of the given radius, per entry
    u = rng.random(size=(3, 3))
    theta = rng.random(size=(3, 3)) * 2 * np.pi
    r = radius * np.sqrt(u)
    return r * np.exp(1j * theta)


def multistart(
    n_starts: int,
    seed: int,
    radius: float = DEFAULT_RADIUS,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_NEWTON_TOL,
    classify_tol: float = mateq.DEFAULT_CLASSIFY_TOL,
) -> SurveyReport:
    """Run Newton from seeded random starts and tally the families found.

    Every converged point must classify into one of the five families;
    a converged point without a classification raises
    :class:`mateq.Inconclusive`, signalling a tolerance failure.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    histogram: dict[str, int] = {}
    k_values: list[complex] = []
    converged_count = 0
    failures = 0
    for index in range(n_starts):
        rng = np.random.default_rng([seed, index])
        A0 = Mat3.from_numpy(_random_start(rng, radius))
        result = newton_solve(A0, max_iter=max_iter, tol=tol, classify_tol=classify_tol)
        if not result.converged:
            failures += 1
            continue
        if result.classification is None:
            raise mateq.Inconclusive(
                f"converged point at start {index} failed to classify"
            )
        converged_count += 1
        tag = result.classification.tag
        name = tag.kind.value
        histogram[name] = histogram.get(name, 0) + 1
        if tag.kind == mateq.FamilyKind.K_FAMILY:
            k_values.append(complex(tag.k))
    return SurveyReport(
        starts=n_starts,
        converged_count=converged_count,
        family_histogram=histogram,
        k_values=k_values,
        failures=failures,
    )

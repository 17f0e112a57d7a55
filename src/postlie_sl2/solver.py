"""Multistart damped Newton root-finding for the matrix equation.

Newton runs on a stack of complex (3,3) arrays, one row per start, with
``mateq.residual_array``, the cofactor residual that floating
classification and ``is_solution`` also read.  The residual map is
polynomial, hence holomorphic, so each step solves one 9x9 complex
system per row with the analytic Jacobian; the 18x18 real Jacobian
over (real parts, imaginary parts) is a derived view of it.  Every
operation of the kernel acts on each row alone, so a row's result does not
depend on the other rows of its batch.  Starts are seeded individually from
(master seed, start index); results do not depend on evaluation order or
on how the starts are split into blocks.  The converged rows of a block
are classified together by ``mateq.classify_stack``, the same floating
classifier as ``mateq.classify``; a ``Mat3`` is built only for each
row's final point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import mateq
from ._numpy import np
from .linalg import Mat3
from .mateq import residual_array

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
#: starts per kernel call in a survey; keeps the survey's working memory
#: independent of its number of starts
BLOCK_ROWS = 64


@dataclass(frozen=True)
class SolveResult:
    A_final: Mat3
    residual_norm: float
    iterations: int
    converged: bool
    #: steps solved through the Tikhonov normal equations, polish included
    regularised_steps: int
    #: the line search ran out of damping before the tolerance was reached
    stalled: bool
    classification: mateq.ClassificationReport | None = None


@dataclass(frozen=True)
class SurveyReport:
    starts: int
    converged_count: int
    family_histogram: dict
    k_values: list
    failures: int
    #: Newton iterations summed over all starts
    iterations: int
    #: Tikhonov steps summed over all starts
    regularised_steps: int
    #: starts whose line search ran out of damping before the tolerance
    stalls: int


def _jacobian(A: np.ndarray) -> np.ndarray:
    """9x9 complex Jacobians of :func:`mateq.residual_array` at the rows of
    a complex (N,3,3) array, in row-major entry order: shape (N,9,9).

    The derivative in direction E is
    E'M + tr(E)(A' + A - tI) - A'E - EA - AE + tE + tr(AE) I
    with t = tr A and M = (t + 1) I - A.  With S = A' + A - tI, the entry
    ((i,j), (p,q)) is d_iq M_pj + d_pq S_ij - d_jq S_ip - d_ip A_qj + d_ij A_qp,
    each term one broadcast over the axes (row, i, j, p, q).
    """
    d = np.eye(3)
    t = np.trace(A, axis1=-2, axis2=-1)[:, None, None]
    At = np.swapaxes(A, -1, -2)
    M = (t + 1) * d - A
    S = At + A - t * d
    J = (
        np.swapaxes(M, -1, -2)[:, None, :, :, None] * d[:, None, None, :]
        + S[:, :, :, None, None] * d
        - S[:, :, None, :, None] * d[:, None, :]
        - At[:, None, :, None, :] * d[:, None, :, None]
        + At[:, None, None, :, :] * d[:, :, None, None]
    )
    return J.reshape(-1, 9, 9)


def residual_jacobian(A: Mat3) -> np.ndarray:
    """18x18 real Jacobian of the residual in (real parts, imaginary parts)
    coordinates: the realification of the holomorphic 9x9 Jacobian."""
    J = _jacobian(A.to_numpy()[None])[0]
    return np.block([[J.real, -J.imag], [J.imag, J.real]])


def _newton_step(A: np.ndarray, F: np.ndarray, norm: np.ndarray):
    """One damped Newton step on every row of a (N,3,3) stack.

    Returns (A, F, norm, accepted, regularised); a row whose line search
    runs out of damping comes back unchanged with accepted False.
    """
    n = len(A)
    J = _jacobian(A)
    f = F.reshape(n, 9, 1)
    sv = np.linalg.svd(J, compute_uv=False)
    regularised = (sv[:, 0] == 0.0) | (sv[:, -1] <= 1e-12 * sv[:, 0])
    step = np.empty((n, 9, 1), dtype=complex)
    plain = ~regularised
    step[plain] = np.linalg.solve(J[plain], -f[plain])
    Js = J[regularised]
    JH = np.swapaxes(Js.conj(), -1, -2)
    step[regularised] = np.linalg.solve(JH @ Js + TIKHONOV_SHIFT * np.eye(9), -JH @ f[regularised])
    step = step.reshape(n, 3, 3)

    # halving line search per row: each row takes the first damping that
    # lowers its own residual norm
    A, F, norm = A.copy(), F.copy(), norm.copy()
    pending = np.arange(n)
    lam = 1.0
    while lam >= MIN_DAMPING and pending.size:
        A_try = A[pending] + lam * step[pending]
        F_try = residual_array(A_try)
        n_try = np.linalg.norm(F_try, axis=(-2, -1))
        better = n_try < norm[pending]
        rows = pending[better]
        A[rows], F[rows], norm[rows] = A_try[better], F_try[better], n_try[better]
        pending = pending[~better]
        lam *= 0.5
    accepted = np.ones(n, dtype=bool)
    accepted[pending] = False
    return A, F, norm, accepted, regularised


def _newton(A0: np.ndarray, max_iter: int, tol: float):
    """Damped Newton from every row of a complex (N,3,3) array.

    A row steps until its residual norm is below ``tol``, its line search
    stalls or it has taken ``max_iter`` steps; a converged row then takes
    up to POLISH_STEPS further steps while they lower its norm.  Returns
    the arrays (A, norm, iterations, regularised steps, stalled).
    """
    # a start far out overflows its residual norm to inf; the row then
    # fails to converge and is counted, so the overflow is no error
    with np.errstate(over="ignore", invalid="ignore"):
        A = np.array(A0, dtype=complex)
        F = residual_array(A)
        norm = np.linalg.norm(F, axis=(-2, -1))
        iterations = np.zeros(len(A), dtype=int)
        regularised = np.zeros(len(A), dtype=int)
        stalled = np.zeros(len(A), dtype=bool)
        for _ in range(max_iter):
            rows = np.flatnonzero(~(norm < tol) & ~stalled)
            if rows.size == 0:
                break
            A[rows], F[rows], norm[rows], accepted, reg = _newton_step(
                A[rows], F[rows], norm[rows]
            )
            iterations[rows] += 1
            regularised[rows] += reg
            stalled[rows[~accepted]] = True

        # polish: the structural identities of a root are only as tight as
        # the final residual, so drive it to the floor while steps keep paying
        polishing = norm < tol
        for _ in range(POLISH_STEPS):
            rows = np.flatnonzero(polishing & (norm != 0.0))
            if rows.size == 0:
                break
            A[rows], F[rows], norm[rows], accepted, reg = _newton_step(
                A[rows], F[rows], norm[rows]
            )
            iterations[rows[accepted]] += 1
            regularised[rows] += reg
            polishing[rows[~accepted]] = False
        return A, norm, iterations, regularised, stalled


def _solve_rows(
    A0: np.ndarray,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_NEWTON_TOL,
    classify_tol: float = mateq.DEFAULT_CLASSIFY_TOL,
) -> list[SolveResult]:
    """One :class:`SolveResult` per row of a complex (N,3,3) array of starts;
    the converged rows are classified together by :func:`mateq.classify_stack`,
    and a row that fails to classify gets no classification."""
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    A, norm, iterations, regularised, stalled = _newton(A0, max_iter, tol)
    converged = norm < tol
    classifications = [None] * len(A)
    rows = np.flatnonzero(converged)
    for row, report in zip(rows.tolist(), mateq.classify_stack(A[rows], classify_tol)):
        if isinstance(report, mateq.ClassificationReport):
            classifications[row] = report
    return [
        SolveResult(
            A_final=Mat3.from_numpy(A[row]),
            residual_norm=float(norm[row]),
            iterations=int(iterations[row]),
            converged=bool(converged[row]),
            regularised_steps=int(regularised[row]),
            stalled=bool(stalled[row]),
            classification=classifications[row],
        )
        for row in range(len(A))
    ]


def newton_solve(
    A0: Mat3,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_NEWTON_TOL,
    classify_tol: float = mateq.DEFAULT_CLASSIFY_TOL,
) -> SolveResult:
    """Damped Newton iteration on the 9 complex entries: the one-row call
    of the batched kernel.

    Steps fall back to Tikhonov-regularized normal equations when the
    Jacobian is singular (the solution variety is positive-dimensional
    along the parametrized family, so this happens at legitimate roots).
    Non-convergence is reported in the result, never raised.
    """
    return _solve_rows(A0.to_numpy()[None], max_iter, tol, classify_tol)[0]


def _seeded_starts(seed: int, indices, radius: float) -> np.ndarray:
    """Starts for the given indices, stacked; start ``index`` draws its
    entries uniformly over the complex disk of the given radius from
    ``default_rng([seed, index])``."""
    starts = np.empty((len(indices), 3, 3), dtype=complex)
    for row, index in enumerate(indices):
        rng = np.random.default_rng([seed, index])
        u = rng.random(size=(3, 3))
        theta = rng.random(size=(3, 3)) * 2 * np.pi
        starts[row] = radius * np.sqrt(u) * np.exp(1j * theta)
    return starts


def multistart(
    n_starts: int,
    seed: int,
    radius: float = DEFAULT_RADIUS,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_NEWTON_TOL,
    classify_tol: float = mateq.DEFAULT_CLASSIFY_TOL,
) -> SurveyReport:
    """Run Newton from seeded random starts and tally the families found.

    The starts are solved BLOCK_ROWS at a time by the batched kernel.
    Every converged point must classify into one of the five families;
    a converged point without a classification raises
    :class:`mateq.Inconclusive`, signalling a tolerance failure.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    if not (math.isfinite(radius) and radius >= 0):
        raise ValueError("radius must be finite and non-negative")
    histogram: dict[str, int] = {}
    k_values: list[complex] = []
    converged_count = failures = iterations = regularised = stalls = 0
    for lo in range(0, n_starts, BLOCK_ROWS):
        indices = range(lo, min(lo + BLOCK_ROWS, n_starts))
        starts = _seeded_starts(seed, indices, radius)
        for index, result in zip(
            indices, _solve_rows(starts, max_iter, tol, classify_tol)
        ):
            iterations += result.iterations
            regularised += result.regularised_steps
            stalls += result.stalled
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
        iterations=iterations,
        regularised_steps=regularised,
        stalls=stalls,
    )

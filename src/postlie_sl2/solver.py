"""Multistart damped Newton root-finding for the matrix equation.

Newton runs on a stack of complex (3,3) arrays, one row per start, with
``mateq.residual_array``, the cofactor residual that floating
classification and ``is_solution`` also read.  The residual map is
polynomial, hence holomorphic, so each step solves one shifted 9x9
complex normal-equations system per row with the analytic Jacobian; the
18x18 real Jacobian over (real parts, imaginary parts) is a derived view
of it.  The Jacobians of a stack are gathered from one (N,28) array of
M, S, A' and a zero column by five index tables, one per term of the
derivative, and the line search tries all 21 dampings of a step in at
most three residual calls.  Every operation of the kernel acts on each
row alone, so a row's result does not depend on the other rows of its
batch.  Starts are seeded individually from (master seed, start index);
results do not depend on evaluation order or on how the starts are split
into blocks.  The converged rows of a block are classified together by
``mateq.classify_stack``, the same floating classifier as
``mateq.classify``; ``multistart`` tallies the kernel's arrays and the
classifier's reports directly, and builds no ``Mat3``.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
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
#: shift relative to tr(J^H J); of 1e-14 ... 1e-10 it took the fewest
#: iterations and family changes over multistart(500) seeds 1-10
LM_SHIFT = 1e-14
#: absolute floor of the shift, which keeps a zero Gram matrix solvable
TIKHONOV_SHIFT = 1e-10
MIN_DAMPING = 2.0**-20
#: the line search's dampings 1, 1/2, ..., MIN_DAMPING, in batches of one
#: residual call each: most rows that refuse the full step take 1/2 or 1/4,
#: so a batch of four comes before the sixteen smallest
_DAMPING_BATCHES = tuple(
    tuple(2.0**-e for e in exponents) for exponents in (range(1), range(1, 5), range(5, 21))
)
#: extra Newton steps taken after the tolerance is reached, pushing roots to
#: the attainable floor so downstream structural identities hold tightly
POLISH_STEPS = 4
#: starts per kernel call in a survey; keeps the survey's working memory
#: independent of its number of starts
BLOCK_ROWS = 128


@dataclass(frozen=True)
class SolveResult:
    A_final: Mat3
    residual_norm: float
    iterations: int
    converged: bool
    #: least-squares steps (||J step + f|| > 1e-3 ||f||), polish included
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
    #: least-squares steps summed over all starts
    regularised_steps: int
    #: starts whose line search ran out of damping before the tolerance
    stalls: int
    #: {Newton iterations: starts that took that many}, in iteration order
    iteration_histogram: dict


def _gather_columns(i: int, j: int, p: int, q: int) -> tuple:
    """Columns of the gathered stack (M, S, A' row-major, then a zero) that
    the five terms of Jacobian entry ((i,j), (p,q)) read."""
    return (
        3 * p + j if i == q else 27,  # + d_iq M_pj
        9 + 3 * i + j if p == q else 27,  # + d_pq S_ij
        9 + 3 * i + p if j == q else 27,  # - d_jq S_ip
        18 + 3 * j + q if i == p else 27,  # - d_ip A_qj
        18 + 3 * p + q if i == j else 27,  # + d_ij A_qp
    )


@functools.cache
def _jacobian_tables() -> np.ndarray:
    """One gather table of 81 columns per term of the Jacobian, in term
    order: a (5,81) index array, made on first use so that importing the
    module does not load numpy."""
    columns = [_gather_columns(*entry) for entry in itertools.product(range(3), repeat=4)]
    return np.array(columns, dtype=np.intp).T.copy()


def _jacobian(A: np.ndarray) -> np.ndarray:
    """9x9 complex Jacobians of :func:`mateq.residual_array` at the rows of
    a complex (N,3,3) array, in row-major entry order: shape (N,9,9).

    The derivative in direction E is
    E'M + tr(E)(A' + A - tI) - A'E - EA - AE + tE + tr(AE) I
    with t = tr A and M = (t + 1) I - A.  With S = A' + A - tI, the entry
    ((i,j), (p,q)) is d_iq M_pj + d_pq S_ij - d_jq S_ip - d_ip A_qj + d_ij A_qp.
    Each term is one gather from the rows of M, S and A' beside a zero
    column, added in that order; ``take`` keeps the result C-contiguous,
    the layout the Gram product and the solve expect.
    """
    n = len(A)
    d = np.eye(3)
    t = np.trace(A, axis1=-2, axis2=-1)[:, None, None]
    At = np.swapaxes(A, -1, -2)
    V = np.concatenate(
        [
            ((t + 1) * d - A).reshape(n, 9),
            (At + A - t * d).reshape(n, 9),
            At.reshape(n, 9),
            np.zeros((n, 1)),
        ],
        axis=1,
    )
    tables = _jacobian_tables()
    J = V.take(tables[0], axis=1)
    term = np.empty_like(J)
    J += V.take(tables[1], axis=1, out=term, mode="clip")
    J -= V.take(tables[2], axis=1, out=term, mode="clip")
    J -= V.take(tables[3], axis=1, out=term, mode="clip")
    J += V.take(tables[4], axis=1, out=term, mode="clip")
    return J.reshape(n, 9, 9)


def residual_jacobian(A: Mat3) -> np.ndarray:
    """18x18 real Jacobian of the residual in (real parts, imaginary parts)
    coordinates: the realification of the holomorphic 9x9 Jacobian."""
    J = _jacobian(A.to_numpy()[None])[0]
    return np.block([[J.real, -J.imag], [J.imag, J.real]])


def _newton_step(A: np.ndarray, F: np.ndarray, norm: np.ndarray):
    """One damped Levenberg-Marquardt step on every row of a (N,3,3) stack,
    (J^H J + (LM_SHIFT tr(J^H J) + TIKHONOV_SHIFT) I) step = -J^H f.

    Returns (A, F, norm, accepted, regularised); a row whose line search
    runs out of damping comes back unchanged with accepted False.
    """
    n = len(A)
    J = _jacobian(A)
    f = F.reshape(n, 9, 1)
    JH = np.swapaxes(J.conj(), -1, -2)
    G = JH @ J
    shift = LM_SHIFT * np.trace(G, axis1=-2, axis2=-1).real + TIKHONOV_SHIFT
    step = np.linalg.solve(G + shift[:, None, None] * np.eye(9), -JH @ f)
    regularised = np.linalg.norm(J @ step + f, axis=(-2, -1)) > 1e-3 * norm
    step = step.reshape(n, 3, 3)

    # line search per row: each row takes the first damping of 1, 1/2, ...,
    # MIN_DAMPING that lowers its own residual norm; the rows still pending
    # try a whole batch of dampings in one residual call
    A, F, norm = A.copy(), F.copy(), norm.copy()
    pending = np.arange(n)
    for dampings in _DAMPING_BATCHES:
        if not pending.size:
            break
        lam = np.array(dampings)[:, None, None]
        A_try = (A[pending, None] + lam * step[pending, None]).reshape(-1, 3, 3)
        F_try = residual_array(A_try)
        n_try = np.linalg.norm(F_try, axis=(-2, -1))
        better = n_try.reshape(pending.size, -1) < norm[pending, None]
        took = better.any(axis=1)
        trials = np.flatnonzero(took) * len(dampings) + better[took].argmax(axis=1)
        rows = pending[took]
        A[rows], F[rows], norm[rows] = A_try[trials], F_try[trials], n_try[trials]
        pending = pending[~took]
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
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
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


def newton_solve(
    A0: Mat3,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_NEWTON_TOL,
) -> SolveResult:
    """Damped Newton iteration on the 9 complex entries: the one-row call
    of the batched kernel.

    One shifted normal-equations step serves every Jacobian, singular ones
    included (they occur at legitimate roots, since the solution variety
    is positive-dimensional).  Non-convergence is reported, never raised.
    A converged row is classified by :func:`mateq.classify_stack`, as
    :func:`multistart` classifies a block; a row that fails to classify
    gets no classification.
    """
    A, norm, iterations, regularised, stalled = _newton(A0.to_numpy()[None], max_iter, tol)
    converged = bool(norm[0] < tol)
    report = mateq.classify_stack(A)[0] if converged else None
    return SolveResult(
        A_final=Mat3.from_numpy(A[0]),
        residual_norm=float(norm[0]),
        iterations=int(iterations[0]),
        converged=converged,
        regularised_steps=int(regularised[0]),
        stalled=bool(stalled[0]),
        classification=report if isinstance(report, mateq.ClassificationReport) else None,
    )


def _seeded_starts(seed: int, indices, radius: float) -> np.ndarray:
    """Starts for the given indices, stacked; start ``index`` draws its
    entries uniformly over the complex disk of the given radius from
    ``default_rng([seed, index])``: 9 radii, then 9 angles."""
    draws = np.array(
        [np.random.default_rng([seed, index]).random(size=(2, 3, 3)) for index in indices]
    )
    u, theta = draws[:, 0], draws[:, 1] * 2 * np.pi
    return radius * np.sqrt(u) * np.exp(1j * theta)


def multistart(
    n_starts: int,
    seed: int,
    radius: float = DEFAULT_RADIUS,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_NEWTON_TOL,
) -> SurveyReport:
    """Run Newton from seeded random starts and tally the families found.

    The starts are solved BLOCK_ROWS at a time by the batched kernel, and
    the survey is tallied from the kernel's arrays and the reports of
    :func:`mateq.classify_stack`.  Every converged point must classify
    into one of the five families; a converged point without a
    classification raises :class:`mateq.Inconclusive`, signalling a
    tolerance failure.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    if not (math.isfinite(radius) and radius >= 0):
        raise ValueError("radius must be finite and non-negative")
    histogram: dict[str, int] = {}
    k_values: list[complex] = []
    iteration_counts = Counter()
    converged_count = regularised = stalls = 0
    for lo in range(0, n_starts, BLOCK_ROWS):
        starts = _seeded_starts(seed, range(lo, min(lo + BLOCK_ROWS, n_starts)), radius)
        A, norm, iterations, reg, stalled = _newton(starts, max_iter, tol)
        rows = np.flatnonzero(norm < tol)
        for row, report in zip(rows.tolist(), mateq.classify_stack(A[rows])):
            if not isinstance(report, mateq.ClassificationReport):
                raise mateq.Inconclusive(
                    f"converged point at start {lo + row} failed to classify"
                )
            tag = report.tag
            histogram[tag.kind.value] = histogram.get(tag.kind.value, 0) + 1
            if tag.kind == mateq.FamilyKind.K_FAMILY:
                k_values.append(complex(tag.k))
        converged_count += rows.size
        iteration_counts.update(iterations.tolist())
        regularised += int(reg.sum())
        stalls += int(stalled.sum())
    return SurveyReport(
        starts=n_starts,
        converged_count=converged_count,
        family_histogram=histogram,
        k_values=k_values,
        failures=n_starts - converged_count,
        iterations=sum(steps * starts for steps, starts in iteration_counts.items()),
        regularised_steps=regularised,
        stalls=stalls,
        iteration_histogram=dict(sorted(iteration_counts.items())),
    )

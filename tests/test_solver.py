from collections import Counter

import numpy as np
import pytest

from postlie_sl2 import mateq, solver
from postlie_sl2.linalg import Mat3
from postlie_sl2.mateq import FamilyKind, FamilyTag, representative

from conftest import (
    finite_difference_jacobian,
    reference_jacobian,
    reference_newton_step,
    reference_residual,
    reference_solve_rows,
)


def entrywise_jacobian(A: np.ndarray) -> np.ndarray:
    """Reference 9x9 complex Jacobian, one column per entry E_pq, from the
    directional derivative of A'((tr A + 1) I - A) - A*."""
    t = np.trace(A)
    I = np.eye(3)
    M = (t + 1) * I - A
    J = np.zeros((9, 9), dtype=complex)
    for p in range(3):
        for q in range(3):
            E = np.zeros((3, 3))
            E[p, q] = 1.0
            dtr = float(p == q)
            d_main = E.T @ M + A.T @ (dtr * I - E)
            # A* = A^2 - tr(A) A + c1 I with c1 = ((tr A)^2 - tr(A^2))/2
            d_adj = E @ A + A @ E - dtr * A - t * E + (t * dtr - A[q, p]) * I
            J[:, 3 * p + q] = (d_main - d_adj).ravel()
    return J


class TestResidualJacobian:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_entrywise_reference(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        A *= 10.0 ** rng.uniform(-3, 3) / np.linalg.norm(A)
        ref = entrywise_jacobian(A)
        ref = np.block([[ref.real, -ref.imag], [ref.imag, ref.real]])
        J = solver.residual_jacobian(Mat3.from_numpy(A))
        assert np.linalg.norm(J - ref) <= 1e-14 * np.linalg.norm(ref)

    def test_at_zero(self):
        A = Mat3.zero(exact=False)
        J = solver.residual_jacobian(A)
        fd = finite_difference_jacobian(A)
        assert np.linalg.norm(J - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))

    def test_at_minus_identity(self):
        A = -Mat3.identity(exact=False)
        J = solver.residual_jacobian(A)
        fd = finite_difference_jacobian(A)
        assert np.linalg.norm(J - fd) <= 1e-5 * np.linalg.norm(fd)

    @pytest.mark.parametrize("seed", range(10))
    def test_at_random_points(self, seed):
        rng = np.random.default_rng(seed)
        A = Mat3.from_numpy(
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        )
        J = solver.residual_jacobian(A)
        fd = finite_difference_jacobian(A)
        assert np.linalg.norm(J - fd) <= 1e-5 * np.linalg.norm(fd)


def same_bits(a, b) -> bool:
    """Equal shapes, dtypes and bytes: equal values with equal signed zeros."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestGatheredKernel:
    """The gathered Jacobian and the batched line search give the bits of
    the broadcast Jacobian and the one-damping-at-a-time line search."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e50, 1e150])
    def test_jacobian_equals_broadcast(self, scale):
        rng = np.random.default_rng(int(np.log10(scale)) + 3)
        A = scale * (rng.standard_normal((50, 3, 3)) + 1j * rng.standard_normal((50, 3, 3)))
        want = reference_jacobian(A)
        got = solver._jacobian(A)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
        assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))
        assert got.flags.c_contiguous

    def test_jacobian_equals_broadcast_on_real_and_sparse_rows(self):
        # zero real or imaginary parts are where signed zeros could differ
        A = np.array(
            [np.zeros((3, 3)), np.eye(3), -np.eye(3), np.diag([1.0, 2.0, -3.0]),
             [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -0.0]]],
            dtype=complex,
        )
        A[3] *= 1j
        assert same_bits(solver._jacobian(A), reference_jacobian(A))

    def test_damping_batches_are_the_halvings(self):
        dampings = [lam for batch in solver._DAMPING_BATCHES for lam in batch]
        assert dampings == [2.0**-e for e in range(21)]
        assert dampings[-1] == solver.MIN_DAMPING

    @pytest.mark.parametrize("seed, radius", [(1, 2.0), (2, 2.0), (3, 5.0), (4, 5.0)])
    def test_newton_step_equals_sequential_halving(self, seed, radius):
        # twenty steps from 40 starts run through the full step, the damped
        # steps of both batches and, once rows converge, refused steps
        A = solver._seeded_starts(seed, range(40), radius)
        F = mateq.residual_array(A)
        norm = np.linalg.norm(F, axis=(-2, -1))
        refused = 0
        for _ in range(20):
            got = solver._newton_step(A, F, norm)
            want = reference_newton_step(A, F, norm)
            for g, w in zip(got, want):
                assert same_bits(g, w)
            A, F, norm, accepted, _ = got
            refused += int((~accepted).sum())
        assert refused > 0

    def test_overflowing_rows_stall_after_one_step(self):
        # the residual or the Gram matrix J^H J of these rows overflows;
        # any RuntimeWarning would fail the test
        A0 = np.array([1e160, 1e300])[:, None, None] * np.ones((3, 3), complex)
        _, norm, iterations, _, stalled = solver._newton(A0)
        assert stalled.all()
        assert iterations.tolist() == [1, 1]
        assert not (norm < solver.DEFAULT_NEWTON_TOL).any()


class TestArrayResidual:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_mateq_residual(self, seed):
        # the solver's array residual is the matrix equation of the
        # independent reference formula
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        A *= 10.0 ** rng.uniform(-3, 3) / np.linalg.norm(A)
        want = np.array(reference_residual(A.tolist()))
        got = mateq.residual_array(A)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestNewtonSolve:
    def test_exact_root_converges_immediately(self):
        A = representative(FamilyTag.minus_identity()).to_floating()
        result = solver.newton_solve(A)
        assert result.converged
        assert result.iterations == 0
        assert result.A_final == A

    def test_perturbed_minus_identity(self):
        rng = np.random.default_rng(8)
        noise = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        noise *= 1e-3 / np.linalg.norm(noise)
        A0 = Mat3.from_numpy(-np.eye(3) + noise)
        result = solver.newton_solve(A0)
        assert result.converged
        assert result.classification is not None
        assert result.classification.tag.kind == FamilyKind.MINUS_IDENTITY

    def test_never_lies_about_convergence(self):
        result = solver.newton_solve(Mat3.identity(exact=False))
        assert result.converged == (result.residual_norm < 1e-12)
        if result.converged:
            assert np.linalg.norm(mateq.residual_array(result.A_final.to_numpy())) < 1e-11


class TestBatchedKernel:
    """Every operation of the kernel acts on each row alone."""

    STARTS = solver._seeded_starts(7, range(40), solver.DEFAULT_RADIUS)

    @staticmethod
    def newton(starts):
        return solver._newton(starts)

    def test_rows_equal_newton_solve(self):
        # the starts of multistart(40, seed=7)
        rows = reference_solve_rows(self.STARTS)
        for A0, row in zip(self.STARTS, rows):
            single = solver.newton_solve(Mat3.from_numpy(A0))
            assert row.A_final == single.A_final
            assert row.iterations == single.iterations
            assert row.residual_norm == single.residual_norm
            assert row.classification == single.classification

    def test_failing_rows_leave_the_others_unchanged(self):
        # start 199 of seed 2 at radius 5 runs out of iterations; starts
        # whose residual or Gram matrix J^H J overflows stall after one step
        # and warn of nothing; the identity converges; the zero matrix is an
        # exact root and takes no step
        out_of_iterations = solver._seeded_starts(2, [199], 5.0)
        overflowing = np.array([1e100, 1e160, 1e300])[:, None, None] * np.ones((3, 3), complex)
        identity = np.eye(3, dtype=complex)[None]
        zero = np.zeros((1, 3, 3), dtype=complex)
        mixed = np.concatenate(
            [out_of_iterations, self.STARTS[:20], overflowing, identity, zero, self.STARTS[20:]]
        )
        got = self.newton(mixed)
        want = self.newton(self.STARTS)
        kept = np.r_[1:21, 26:46]
        for g, w in zip(got, want):
            assert np.array_equal(g[kept], w)
        _, norm, iterations, _, stalled = got
        assert not norm[0] < solver.DEFAULT_NEWTON_TOL
        assert iterations[0] == solver.DEFAULT_MAX_ITER and not stalled[0]
        for row in (21, 22, 23):
            assert stalled[row] and iterations[row] == 1
            assert not norm[row] < solver.DEFAULT_NEWTON_TOL
        assert norm[24] < solver.DEFAULT_NEWTON_TOL and not stalled[24]
        assert norm[25] == 0.0 and iterations[25] == 0

    @pytest.mark.parametrize("k", [0.5, 2.0, 3 + 1j])
    def test_step_at_a_rank_deficient_root(self, k):
        # the Jacobian at a KFamily root is singular along the orbit; one
        # step from a small perturbation stays finite and takes the full
        # step to a much smaller residual
        root = representative(FamilyTag.k_family(k)).to_floating().to_numpy()
        assert np.linalg.matrix_rank(solver._jacobian(root[None])[0]) < 9
        rng = np.random.default_rng(11)
        noise = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        A = (root + 1e-6 * noise)[None]
        F = mateq.residual_array(A)
        norm = np.linalg.norm(F, axis=(-2, -1))
        A1, _, norm1, accepted, _ = solver._newton_step(A, F, norm)
        assert accepted[0] and np.isfinite(A1).all()
        assert norm1[0] <= 1e-4 * norm[0]

    def test_prefix_gives_the_same_rows(self):
        full = self.newton(self.STARTS)
        prefix = self.newton(self.STARTS[:13])
        for f, p in zip(full, prefix):
            assert np.array_equal(f[:13], p)


class TestMultistart:
    def test_zero_radius_single_start(self):
        report = solver.multistart(1, seed=5, radius=0.0)
        assert report.converged_count == 1
        assert report.family_histogram == {"Zero": 1}

    def test_histogram_keys_are_families(self):
        report = solver.multistart(60, seed=99, radius=2.0)
        allowed = {k.value for k in FamilyKind}
        assert set(report.family_histogram) <= allowed
        assert report.converged_count == sum(report.family_histogram.values())
        assert report.converged_count + report.failures == report.starts

    def test_wide_radius_converges(self):
        # the survey's radius-5 starts, as the benchmark runs them
        report = solver.multistart(500, seed=1, radius=5.0)
        assert report.converged_count >= 495

    def test_deterministic(self):
        a = solver.multistart(40, seed=7, radius=2.0)
        b = solver.multistart(40, seed=7, radius=2.0)
        assert a == b

    def test_unclassified_point_names_its_start(self, monkeypatch):
        # the zero starts of radius 0 all converge; the second block's
        # classification fails, so the error names that block's first start
        classify_stack = mateq.classify_stack
        calls = []

        def failing_second_call(A):
            calls.append(len(A))
            if len(calls) == 2:
                return [mateq.Inconclusive("no branch")] * len(A)
            return classify_stack(A)

        monkeypatch.setattr(mateq, "classify_stack", failing_second_call)
        monkeypatch.setattr(solver, "BLOCK_ROWS", 3)
        with pytest.raises(mateq.Inconclusive, match="at start 3 failed"):
            solver.multistart(6, seed=1, radius=0.0)

    def test_block_size_changes_no_outcome(self, monkeypatch):
        reports = []
        for rows in (1, 7, 64, solver.BLOCK_ROWS, 40):
            monkeypatch.setattr(solver, "BLOCK_ROWS", rows)
            reports.append(solver.multistart(40, seed=7, radius=5.0))
        assert all(report == reports[0] for report in reports)

    def test_counters_sum_the_single_solves(self):
        report = solver.multistart(60, seed=99, radius=2.0)
        singles = [
            solver.newton_solve(Mat3.from_numpy(A0))
            for A0 in solver._seeded_starts(99, range(60), 2.0)
        ]
        assert report.iterations == sum(r.iterations for r in singles)
        assert report.regularised_steps == sum(r.regularised_steps for r in singles)
        assert report.stalls == sum(r.stalled for r in singles)
        assert report.iteration_histogram == dict(
            sorted(Counter(r.iterations for r in singles).items())
        )
        tags = [r.classification.tag for r in singles if r.converged]
        assert report.family_histogram == Counter(tag.kind.value for tag in tags)
        assert report.k_values == [
            complex(tag.k) for tag in tags if tag.kind == FamilyKind.K_FAMILY
        ]
        assert report.failures == sum(not r.converged for r in singles)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            solver.multistart(0, seed=1)
        nan, inf = float("nan"), float("inf")
        for kwargs in (
            {"radius": -1.0},
            {"radius": nan},
            {"radius": inf},
        ):
            with pytest.raises(ValueError):
                solver.multistart(3, seed=1, **kwargs)

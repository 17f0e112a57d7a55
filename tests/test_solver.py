import numpy as np
import pytest

from postlie_sl2 import mateq, solver
from postlie_sl2.linalg import Mat3
from postlie_sl2.mateq import FamilyKind, FamilyTag, representative, residual

from conftest import finite_difference_jacobian


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


class TestArrayResidual:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_mateq_residual(self, seed):
        # the solver's array residual is the matrix equation of mateq.residual
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        A *= 10.0 ** rng.uniform(-3, 3) / np.linalg.norm(A)
        want = residual(Mat3.from_numpy(A)).to_numpy()
        got = mateq.residual_array(A)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestNewtonSolve:
    def test_exact_root_converges_immediately(self):
        A = representative(FamilyTag.minus_identity()).to_floating()
        result = solver.newton_solve(A, 50, 1e-12)
        assert result.converged
        assert result.iterations == 0
        assert result.A_final == A

    def test_perturbed_minus_identity(self):
        rng = np.random.default_rng(8)
        noise = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        noise *= 1e-3 / np.linalg.norm(noise)
        A0 = Mat3.from_numpy(-np.eye(3) + noise)
        result = solver.newton_solve(A0, 50, 1e-12)
        assert result.converged
        assert result.classification is not None
        assert result.classification.tag.kind == FamilyKind.MINUS_IDENTITY

    def test_never_lies_about_convergence(self):
        result = solver.newton_solve(Mat3.identity(exact=False), 50, 1e-12)
        assert result.converged == (result.residual_norm < 1e-12)
        if result.converged:
            assert mateq.is_solution(result.A_final, 1e-11)

    def test_argument_validation(self):
        A = Mat3.zero(exact=False)
        with pytest.raises(ValueError):
            solver.newton_solve(A, 0, 1e-12)
        with pytest.raises(ValueError):
            solver.newton_solve(A, 10, 0.0)
        with pytest.raises(ValueError):
            solver.newton_solve(A, 10, float("nan"))


class TestBatchedKernel:
    """Every operation of the kernel acts on each row alone."""

    STARTS = solver._seeded_starts(7, range(40), solver.DEFAULT_RADIUS)

    @staticmethod
    def newton(starts):
        return solver._newton(starts, solver.DEFAULT_MAX_ITER, solver.DEFAULT_NEWTON_TOL)

    def test_rows_equal_newton_solve(self):
        # the starts of multistart(40, seed=7)
        rows = solver._solve_rows(self.STARTS)
        for A0, row in zip(self.STARTS, rows):
            single = solver.newton_solve(Mat3.from_numpy(A0))
            assert row.A_final == single.A_final
            assert row.iterations == single.iterations
            assert row.residual_norm == single.residual_norm

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

    def test_counters_sum_the_single_solves(self):
        report = solver.multistart(60, seed=99, radius=2.0)
        singles = [
            solver.newton_solve(Mat3.from_numpy(A0))
            for A0 in solver._seeded_starts(99, range(60), 2.0)
        ]
        assert report.iterations == sum(r.iterations for r in singles)
        assert report.regularised_steps == sum(r.regularised_steps for r in singles)
        assert report.stalls == sum(r.stalled for r in singles)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            solver.multistart(0, seed=1)
        nan, inf = float("nan"), float("inf")
        for kwargs in (
            {"max_iter": 0},
            {"tol": 0.0},
            {"tol": nan},
            {"tol": inf},
            {"radius": -1.0},
            {"radius": nan},
            {"radius": inf},
        ):
            with pytest.raises(ValueError):
                solver.multistart(3, seed=1, **kwargs)

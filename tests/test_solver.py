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
        got = solver._residual(A)
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

    def test_deterministic(self):
        a = solver.multistart(40, seed=7, radius=2.0)
        b = solver.multistart(40, seed=7, radius=2.0)
        assert a == b

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            solver.multistart(0, seed=1)

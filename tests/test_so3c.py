import math
from fractions import Fraction

import numpy as np
import pytest

from postlie_sl2 import so3c
from postlie_sl2.linalg import GaussianRational, Mat2, Mat3, Vec3
from postlie_sl2.sl2 import bracket
from postlie_sl2.so3c import (
    Singular,
    adjoint_rep,
    automorphism_check,
    cayley,
    is_special_orthogonal,
    random_so3,
    random_so3_exact,
)

from conftest import gr, reference_automorphism_check, reference_is_special_orthogonal

#: a floating matrix whose T'T and cofactors overflow
BIG = Mat3([[1e200 + 0j, 1e200 + 0j, 0j], [0j, 1 + 0j, 0j], [0j, 0j, 1 + 0j]])


def random_mat2(rng) -> Mat2:
    return Mat2((rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))).tolist())


class TestMembership:
    def test_identity(self):
        assert is_special_orthogonal(Mat3.identity())
        assert is_special_orthogonal(Mat3.identity(exact=False))

    def test_signed_diag_det_plus_one(self):
        assert is_special_orthogonal(Mat3.diag(1, -1, -1))

    def test_signed_diag_det_minus_one(self):
        assert not is_special_orthogonal(Mat3.diag(1, 1, -1))

    def test_defects_in_either_arithmetic(self):
        # T'T - I = 3I and det T - 1 = 7 for T = 2I
        for exact in (True, False):
            assert so3c.membership_defects(Mat3.identity(exact=exact)) == (0.0, 0.0)
            two = Mat3.identity(exact=exact).scale(2)
            assert so3c.membership_defects(two) == pytest.approx((27**0.5, 7.0), rel=1e-15)
        assert so3c.membership_defects(random_so3_exact(3)) == (0.0, 0.0)


class TestCayley:
    def test_zero_gives_identity(self):
        assert cayley(Mat3.zero()) == Mat3.identity()

    def test_exact_sample_values(self):
        # the stated entries {1, 1/2, -1/3} of the antisymmetric matrix
        a, b, c = gr(1), gr(Fraction(1, 2)), gr(Fraction(-1, 3))
        K = Mat3([[0, a, b], [-a, 0, c], [-b, -c, 0]])
        T = cayley(K)
        assert T.kind == "exact"
        assert T.transpose() @ T == Mat3.identity()
        assert T.det() == gr(1)


class TestRandomSampling:
    def test_deterministic(self):
        assert random_so3(1234) == random_so3(1234)

    def test_membership_at_1e10(self):
        for seed in range(25):
            T = random_so3(seed)
            assert T.kind == "floating"
            assert is_special_orthogonal(T, so3c.MEMBERSHIP_TOL)
        assert so3c.MEMBERSHIP_TOL == 1e-10

    def test_exact_variant(self):
        for seed in range(10):
            T = random_so3_exact(seed)
            assert T.kind == "exact"
            assert T.transpose() @ T == Mat3.identity()
            assert T.det() == gr(1)


class TestAdjointRep:
    def test_identity(self):
        assert adjoint_rep(Mat2.identity()) == Mat3.identity()

    def test_quarter_turn(self):
        # P = [[0,1],[-1,0]] commutes with e1 and negates e2, e3
        P = Mat2([[0, 1], [-1, 0]])
        assert adjoint_rep(P) == Mat3.diag(1, -1, -1)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        P = random_mat2(rng)
        Pc = P.scale(2.5 - 1.25j)
        assert (adjoint_rep(P) - adjoint_rep(Pc)).frobenius_norm() < 1e-12

    def test_lands_in_so3(self):
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 100:
            P = random_mat2(rng)
            if abs(complex(P.det())) < 1e-3:
                continue
            checked += 1
            assert is_special_orthogonal(adjoint_rep(P), 1e-9)

    def test_functoriality(self):
        # row-vector convention: the image of PQ is adjoint(Q) @ adjoint(P)
        rng = np.random.default_rng(7)
        for _ in range(20):
            P, Q = random_mat2(rng), random_mat2(rng)
            if abs(complex(P.det())) < 1e-3 or abs(complex(Q.det())) < 1e-3:
                continue
            lhs = adjoint_rep(P @ Q)
            rhs = adjoint_rep(Q) @ adjoint_rep(P)
            assert (lhs - rhs).frobenius_norm() < 1e-9

    def test_singular_rejected(self):
        with pytest.raises(Singular):
            adjoint_rep(Mat2([[1, 1], [1, 1]]))

    def test_trace_pairing_orthonormality(self):
        # -2 tr(e_i e_j) = delta_ij for the fixed 2x2 basis
        from postlie_sl2.sl2 import basis_2x2

        basis = basis_2x2(exact=True)
        for i, ei in enumerate(basis):
            for j, ej in enumerate(basis):
                pairing = GaussianRational(-2) * (ei @ ej).trace()
                assert pairing == (gr(1) if i == j else gr(0))


class TestAutomorphismCheck:
    def test_identity(self):
        assert automorphism_check(Mat3.identity())

    def test_random_so3_samples(self):
        for seed in range(50):
            assert automorphism_check(random_so3(seed))

    def test_scaling_breaks_it(self):
        assert not automorphism_check(Mat3.identity().scale(gr(2)))

    def test_adjugate_identity_on_samples(self):
        for seed in range(25):
            T = random_so3(seed)
            assert (T.adjugate().transpose() - T).frobenius_norm() <= 1e-10

    def test_agrees_with_bracket_preservation(self):
        # cross-check: the adjugate identity against explicit bracket tests
        rng = np.random.default_rng(11)
        cases = [random_so3(s) for s in range(10)]
        for _ in range(10):
            cases.append(
                Mat3.from_numpy(
                    rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                )
            )
        for T in cases:
            preserved = True
            for i in range(3):
                for j in range(3):
                    lhs = bracket(T.row(i), T.row(j))
                    rhs = bracket(Vec3.basis(i, exact=False), Vec3.basis(j, exact=False)) @ T
                    if (lhs - rhs).max_abs() > 1e-9:
                        preserved = False
            assert automorphism_check(T) == preserved


def _near_group(rng, count):
    """SO(3,C) elements, exact and floating, and matrices at distances from
    the group that straddle the default tolerances: scalings (1 + s) T,
    which move both defects by about 2s and 3s, and random perturbations."""
    out = [random_so3_exact(seed) for seed in range(5)]
    for seed, k in ((1, 3), (2, 9)):
        out.append(random_so3_exact(seed) + Mat3.diag(gr(0, Fraction(1, 10**k)), 0, 0))
    for seed in range(count):
        T = random_so3(seed)
        out.append(T)
        for tol in (1e-8, 1e-10):
            for factor in (0.3, 0.57, 0.58, 0.9, 0.99, 1.01, 1.1, 2.0):
                out.append(T.scale(1 + factor * tol / 2))
        for eps in (1e-12, 1e-11, 1e-10, 1e-9, 3e-9, 1e-8, 3e-8):
            E = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            out.append(Mat3.from_numpy(T.to_numpy() + eps * E))
    return out


class TestDecisionsAgainstMat3Formulas:
    """The kernel's membership and automorphism decisions equal the Mat3
    formulas of ``conftest`` on group elements and near the tolerances."""

    def test_membership(self):
        cases = _near_group(np.random.default_rng(31), 30)
        for tol in (1e-8, 1e-10):
            got = [is_special_orthogonal(T, tol) for T in cases]
            assert got == [reference_is_special_orthogonal(T, tol) for T in cases]
            # both answers occur, so the cases straddle the tolerance
            assert any(got) and not all(got)

    def test_automorphism(self, monkeypatch):
        cases = _near_group(np.random.default_rng(32), 30)
        for tol in (1e-9, 1e-10):
            # the decision follows the module threshold, at either value
            monkeypatch.setattr(so3c, "AUTOMORPHISM_TOL", tol)
            got = [automorphism_check(T) for T in cases]
            assert got == [reference_automorphism_check(T, tol) for T in cases]
            assert any(got) and not all(got)

    def test_exact_decisions(self):
        for seed in range(10):
            T = random_so3_exact(seed)
            nudged = T + Mat3.diag(0, 0, gr(Fraction(1, 10**12)))
            for M in (T, nudged, T.scale(gr(-1))):
                assert is_special_orthogonal(M) == reference_is_special_orthogonal(M)
                assert automorphism_check(M) == reference_automorphism_check(M)
            assert is_special_orthogonal(T) and not is_special_orthogonal(nudged)


class TestOverflowAnswers:
    """Near the float range the kernel's defects are inf or nan, which fail
    every tolerance: the tests answer False instead of raising."""

    def test_membership_of_an_overflowing_matrix(self):
        assert is_special_orthogonal(BIG) is False
        gram_defect, _ = so3c.membership_defects(BIG)
        assert gram_defect == math.inf

    def test_membership_of_a_group_element_whose_gram_overflows(self):
        # diag(1e78, 1e-78) is invertible, so its adjoint representation lies
        # in SO(3,C), but T'T has entries of 2.5e311
        T = adjoint_rep(Mat2([[1e78 + 0j, 0j], [0j, 1e-78 + 0j]]))
        assert is_special_orthogonal(T) is False
        assert not math.isfinite(so3c.membership_defects(T)[0])

    def test_membership_defects_of_an_exact_matrix_past_the_float_range(self):
        M = Mat3([[10**400, 0, 0], [0, 0, 0], [0, 0, 0]])
        assert so3c.membership_defects(M) == (math.inf, 1.0)
        assert is_special_orthogonal(M) is False

    def test_automorphism_of_an_overflowing_matrix(self):
        assert automorphism_check(BIG) is False

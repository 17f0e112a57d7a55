"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single ``[criterion N] PASS`` line once its assertions
hold (visible with ``pytest -s``); a failing criterion fails its test.
Criteria 5-7 share one 500-start survey through session fixtures.
"""

import time
from fractions import Fraction

import numpy as np

from postlie_sl2 import mateq, so3c, solver
from postlie_sl2.linalg import (
    GaussianRational,
    IM,
    Mat2,
    Mat3,
    cofactors,
    frobenius_distance,
    jordan_signature,
)
from postlie_sl2.mateq import FamilyKind, FamilyTag, representative
from postlie_sl2.sl2 import check_postlie, check_rota_baxter, circ_from_matrix
from postlie_sl2.symcanon import canonical_matrix, classify_symmetric

from conftest import (
    SAMPLE_FORMS,
    exact_congruate,
    finite_difference_jacobian,
    rank1_identity,
    rank2_identity,
    sampled_tags,
)


def report(n, text):
    print(f"[criterion {n}] PASS: {text}")


def test_criterion_1_exact_verification():
    """All representatives (k in {0,-1,1,i,5}) solve the equation exactly."""
    t0 = time.perf_counter()
    tags = sampled_tags()
    assert len(tags) == 9
    for tag in tags:
        assert mateq.residual(representative(tag)).is_zero()
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    report(1, f"9 exact residuals identically zero in {elapsed * 1000:.0f}ms")


def test_criterion_2_axiom_equivalence():
    """PostLie and Rota-Baxter checks are empty exactly on solutions."""
    t0 = time.perf_counter()
    five = (
        FamilyTag.zero(),
        FamilyTag.minus_identity(),
        FamilyTag.trace_minus_2(),
        FamilyTag.k_family(IM),
        FamilyTag.non_sym_rank1(),
    )
    for tag in five:
        mats = [representative(tag)]
        mats += [exact_congruate(tag, 1000 + 37 * i) for i in range(20)]
        for A in mats:
            assert check_postlie(circ_from_matrix(A)) == []
            assert check_rota_baxter(A) == []

    rng = np.random.default_rng(424242)
    rejected = 0
    for _ in range(100):
        while True:
            A = Mat3.from_numpy(
                rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            )
            if mateq.residual(A).frobenius_norm() > 1e-3:
                break
            rejected += 1
        assert check_postlie(circ_from_matrix(A)) != []
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"
    report(
        2,
        f"105 solutions all-empty, 100 non-solutions all-nonempty "
        f"({rejected} rejected) in {elapsed:.2f}s",
    )


def test_criterion_3_congruence_invariance():
    """Congruation preserves both the residual and the classified tag."""
    worst = 0.0
    for tag in sampled_tags():
        A = representative(tag).to_floating()
        for i in range(100):
            T = so3c.random_so3(2000 + i)
            B = mateq.congruate(A, T)
            r = mateq.residual(B).frobenius_norm()
            worst = max(worst, r)
            assert r < 1e-9
            assert mateq.classify(B).tag.close_to(tag, 1e-6)
    report(3, f"900 congruations: residuals < 1e-9 (worst {worst:.1e}), tags stable")


def test_criterion_4_classifier_separation():
    """The two ambiguous family pairs are separated without error."""
    pairs = [
        (FamilyTag.trace_minus_2(), FamilyTag.k_family(-1)),
        (FamilyTag.k_family(0), FamilyTag.non_sym_rank1()),
    ]
    for left, right in pairs:
        for tag in (left, right):
            A = representative(tag).to_floating()
            for i in range(50):
                T = so3c.random_so3(3000 + i)
                got = mateq.classify(mateq.congruate(A, T)).tag
                assert got.close_to(tag, 1e-6), (tag, i, got)
    report(4, "200 congruates of the ambiguous pairs, zero misclassifications")


def test_criterion_4_branch_invariants_oracle():
    """The [DERIVED] branch constants pass the exact brute-force oracle."""
    expectations = {
        FamilyTag.trace_minus_2(): (2, 2),  # (rank(A), rank(A'A))
        FamilyTag.k_family(-1): (2, 1),
    }
    for tag, (r, raa) in expectations.items():
        for i in range(25):
            B = exact_congruate(tag, 4000 + i)
            assert B.rank() == r
            assert (B.transpose() @ B).rank() == raa
    sym_expect = {FamilyTag.k_family(0): 1, FamilyTag.non_sym_rank1(): 2}
    half = GaussianRational(Fraction(1, 2))
    for tag, s in sym_expect.items():
        for i in range(25):
            B = exact_congruate(tag, 4500 + i)
            assert B.rank() == 1
            assert (B.sym_part() + Mat3.identity().scale(half)).rank() == s
    report(4, "branch invariants exactly constant on 100 exact congruates")


def test_criterion_5_rank3_rigidity(converged_points):
    """Every converged rank-3 point is -I entrywise to 1e-8."""
    checked = 0
    for result in converged_points:
        A = result.A_final
        if result.residual_norm >= 1e-10:
            continue
        if A.rank(1e-6, 1.0) == 3:
            checked += 1
            dev = (A - (-Mat3.identity(exact=False))).max_abs()
            assert dev <= 1e-8, f"rank-3 point deviates from -I by {dev:.2e}"
    assert checked > 0, "no rank-3 converged points to check"
    report(5, f"{checked} rank-3 converged points all equal -I to 1e-8")


def test_criterion_6_reduction_identities(converged_points):
    """Rank-2 and non-symmetric rank-1 converged points satisfy the
    reduction identities at the stated tolerances."""
    n2 = n1 = 0
    for result in converged_points:
        A = result.A_final
        r = A.rank(1e-6, 1.0)
        if r == 2:
            n2 += 1
            assert rank2_identity(A).frobenius_norm() < 1e-10
        elif r == 1 and (A - A.transpose()).frobenius_norm() > 2e-6:
            n1 += 1
            assert rank1_identity(A).frobenius_norm() < 1e-10
            assert abs(complex(A.trace()) + 1) < 1e-8
    assert n2 > 0 and n1 > 0
    report(6, f"identities hold on {n2} rank-2 and {n1} rank-1 converged points")


def test_criterion_7_numerical_rediscovery(survey_500):
    """Desk-scale reproduction: >=60% convergence, five families only,
    >=20 distinct k, under 60s single-threaded."""
    t0 = time.perf_counter()
    rerun = solver.multistart(500, seed=20260810, radius=2.0)
    elapsed = time.perf_counter() - t0
    assert rerun == survey_500  # determinism while we are at it
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"

    assert survey_500.converged_count >= 0.60 * survey_500.starts
    allowed = {k.value for k in FamilyKind}
    assert set(survey_500.family_histogram) <= allowed
    assert survey_500.converged_count == sum(survey_500.family_histogram.values())

    distinct: list[complex] = []
    for k in survey_500.k_values:
        if all(abs(k - d) > 1e-3 for d in distinct):
            distinct.append(k)
    assert len(distinct) >= 20
    report(
        7,
        f"{survey_500.converged_count}/500 converged in {elapsed:.1f}s, "
        f"families {sorted(survey_500.family_histogram)}, {len(distinct)} distinct k",
    )


def test_criterion_8_automorphism_lemma():
    """Automorphisms in the fixed basis are exactly the SO(3,C) matrices."""
    for seed in range(200):
        assert so3c.automorphism_check(so3c.random_so3(seed))

    rng = np.random.default_rng(777)
    checked = 0
    while checked < 100:
        P = Mat2((rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))).tolist())
        if abs(complex(P.det())) < 1e-3:
            continue
        checked += 1
        T = so3c.adjoint_rep(P)
        gram = (T.transpose() @ T - Mat3.identity(exact=False)).frobenius_norm()
        assert gram < 1e-9
        assert frobenius_distance(cofactors(T.entries)[0], T.entries) <= 1e-9

    checked = 0
    while checked < 200:
        T = Mat3.from_numpy(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        gram = (T.transpose() @ T - Mat3.identity(exact=False)).frobenius_norm()
        if abs(complex(T.det())) < 1e-3 or gram < 1e-3:
            continue
        checked += 1
        assert not so3c.automorphism_check(T)
    report(8, "200 orthogonal + 100 adjoint images pass; 200 non-orthogonal fail")


def test_criterion_9_symmetric_canonical_forms():
    """Round trip, orbit stability and pairwise-distinct Jordan types."""
    for f in SAMPLE_FORMS:
        assert classify_symmetric(canonical_matrix(f)).close_to(f, 1e-6)

    for f in SAMPLE_FORMS:
        M = canonical_matrix(f).to_floating()
        for i in range(50):
            T = so3c.random_so3(5000 + i)
            got = classify_symmetric(mateq.congruate(M, T))
            assert got.close_to(f, 1e-4), (f.kind, i, got)

    sigs = [jordan_signature(canonical_matrix(f).to_floating()) for f in SAMPLE_FORMS]
    for i in range(len(sigs)):
        for j in range(i + 1, len(sigs)):
            assert not sigs[i].close_to(sigs[j], 1e-3)
    report(9, "10 forms round-trip, 500 orbit samples stable, signatures distinct")


def test_criterion_10_gradient_check():
    """Analytic Jacobian against central differences at 50 seeded points."""
    h = 1e-6
    for seed in range(50):
        rng = np.random.default_rng(seed)
        A = Mat3.from_numpy(
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        )
        J = solver.residual_jacobian(A)
        fd = finite_difference_jacobian(A, h)
        rel = np.linalg.norm(J - fd) / np.linalg.norm(J)
        assert rel <= 1e-5, f"seed {seed}: relative error {rel:.2e}"
    report(10, "Jacobian matches finite differences at 50 points (rel <= 1e-5)")

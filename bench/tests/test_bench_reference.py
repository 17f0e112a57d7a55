"""Tests of the benchmark's reference checks and input generators.

    python3 -m pytest bench/tests -q

These import nothing from ``postlie_sl2``: the reference must stand apart
from the program it checks.
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import inputs  # noqa: E402
import reference as R  # noqa: E402

K_SAMPLES = [R.g(0), R.g(-1), R.g(5), R.g((3, 7)), R.g(2, 1), R.g((-1, 3), (5, 4))]


def _exact_identity_check(T):
    assert R.matmul(R.transpose(T), T) == R.identity()
    assert R.det(T) == R.G1


@pytest.mark.parametrize("height", sorted(inputs.HEIGHTS))
def test_exact_cayley_lies_in_so3(height):
    rng = random.Random(height)
    for _ in range(5):
        _exact_identity_check(inputs.so3_exact(rng, height))


def test_adjugate_by_cofactors():
    rng = random.Random(1)
    A = tuple(tuple(R.g((rng.randint(-5, 5), rng.randint(1, 4)), rng.randint(-3, 3))
                    for _ in range(3)) for _ in range(3))
    d = R.det(A)
    assert R.matmul(A, R.adjugate(A)) == R.scale(d, R.identity())
    assert R.matmul(R.adjugate(A), A) == R.scale(d, R.identity())


@pytest.mark.parametrize("family", R.FAMILIES)
def test_canonical_families_solve_the_equation(family):
    ks = K_SAMPLES if family == "KFamily" else [None]
    T = inputs.so3_exact(random.Random(family), "high")
    for k in ks:
        A = R.canonical(family, k)
        assert R.is_zero(R.residual(A))
        assert R.is_zero(R.residual(R.congruate(A, T)))


def test_residual_sees_a_perturbation():
    A = R.canonical("TraceMinus2")
    B = tuple(tuple(R.add(x, R.g((1, 9))) if (i, j) == (1, 2) else x for j, x in enumerate(r))
              for i, r in enumerate(A))
    assert not R.is_zero(R.residual(B))


def test_witness_check_accepts_true_and_rejects_false_witnesses():
    rng = np.random.default_rng(0)
    A = R.canonical_float("KFamily", 2 - 1j)
    T = inputs.so3_float(rng)
    B = R.congruate_float(A, T)
    assert R.witness_ok(T, A, B)
    assert not R.witness_ok(-T, A, B)  # det -1
    off = T.copy()
    off[0, 1] += 1e-4
    assert not R.witness_ok(off, A, B)  # not orthogonal
    S = inputs.so3_float(rng)
    assert not R.witness_ok(S, A, B)  # orthogonal but not a witness


@pytest.mark.parametrize("family", R.FAMILIES)
def test_expected_symmetric_forms(family):
    k = 3 + 2j
    A = R.canonical_float(family, k)
    S = (A + A.T) / 2
    name, params = R.expected_sym_form(family, k)
    eig = sorted(np.linalg.eigvals(S), key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    if name == "Rank3Diag":
        want = sorted(params, key=lambda z: (z.real, z.imag))
        assert np.allclose(eig, want)
        return
    if name == "ZeroForm":
        assert np.allclose(S, 0)
        return
    # one 2x2 Jordan block at the last parameter: rank(S - lam I) = 2
    lam = params[-1]
    assert np.linalg.matrix_rank(S - lam * np.eye(3), tol=1e-9) == 2
    assert np.allclose(np.sort_complex(eig), np.sort_complex(
        np.array([*params, lam] if name == "Rank3OneBlock" else [0, lam, lam], dtype=complex)))


def test_circ_constants_are_brackets_with_the_rows():
    A = R.scale(R.g(-1), R.identity())
    c = R.circ_constants(A)
    es = R.identity()
    for i in range(3):
        for j in range(3):
            assert c[i][j] == R.cross(R.scale(R.g(-1), R.identity())[i], es[j])
    assert c[1][2] == (R.g(-1), R.G0, R.G0)  # e2 o e3 = [-e2, e3] = -e1


def test_exact_certify_round_is_seeded_and_labelled():
    a = inputs.exact_certify_round(7, 0)
    assert a == inputs.exact_certify_round(7, 0)
    assert a != inputs.exact_certify_round(8, 0)
    assert a != inputs.exact_certify_round(7, 1)
    assert len(a) == 34
    assert sum(item["solution"] for item in a) == 24
    for item in a:
        assert item["solution"] == (item["family"] is not None)
        if item["family"] == "KFamily":
            assert item["k"] == item["trace_plus_1"]


def test_orbit_round_keeps_the_known_faults_fixed():
    a, b = inputs.orbit_round(1, 0), inputs.orbit_round(2, 3)
    assert len(a) == len(b) == 33
    faults_a = [item for item in a if item["known_fault"]]
    faults_b = [item for item in b if item["known_fault"]]
    assert len(faults_a) == 2
    for x, y in zip(faults_a, faults_b):
        assert np.array_equal(x["B"], y["B"])
    assert not np.array_equal(a[0]["B"], b[0]["B"])


def test_stalling_inputs_are_congruates_in_round_zero_only():
    a, b = inputs.orbit_round(1, 0), inputs.orbit_round(2, 0)
    stall_a = [item for item in a if item["label"].startswith("stall/")]
    stall_b = [item for item in b if item["label"].startswith("stall/")]
    assert len(stall_a) == len(inputs.STALLING) == 2
    for x, y in zip(stall_a, stall_b):
        assert np.array_equal(x["B"], y["B"])
    assert len(a) == 33
    assert not any(item["label"].startswith("stall/") for item in inputs.orbit_round(1, 1))
    for _, k, B in inputs.STALLING:
        # T'AT = T^-1 A T for T in SO(3,C): B has the spectrum of the
        # representative, and tr B + 1 = k
        B, A = np.array(B), R.canonical_float("KFamily", k)
        assert abs(np.trace(B) + 1 - k) < 1e-12 * np.linalg.norm(B)
        assert np.allclose(np.poly(B), np.poly(A), rtol=0, atol=1e-10 * np.linalg.norm(B) ** 3)


def test_survey_rounds_use_distinct_seeds():
    seeds = [item["seed"] for r in range(8) for item in inputs.survey_round(1, r)]
    assert len(set(seeds)) == len(seeds)
    assert [item["radius"] for item in inputs.survey_round(1, 0)] == list(inputs.SURVEY_RADII)


def test_scalar_json_encodes_exact_and_floating_values():
    assert inputs.scalar_json((Fraction(-3, 4), Fraction(0))) == {"re": "-3/4", "im": "0/1"}
    assert inputs.scalar_json(1.5 - 2j) == [1.5, -2.0]

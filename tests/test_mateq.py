import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from postlie_sl2 import linalg, mateq, so3c
from postlie_sl2.cli import verify_canon
from postlie_sl2.linalg import GaussianRational, IM, Mat3
from postlie_sl2.mateq import (
    FamilyKind,
    FamilyTag,
    NotASolution,
    classify,
    congruate,
    congruence_test,
    is_solution,
    representative,
    residual,
)
from postlie_sl2.symcanon import (
    FormKind,
    canonical_matrix,
    find_orthogonal_similarity,
    form,
)

from conftest import (
    ReferenceGaussianRational,
    exact_congruate,
    gr,
    half,
    ihalf,
    rank1_identity,
    rank2_identity,
    reference_classify_floating,
    reference_polar_iterates,
    reference_residual,
    reference_sylvester,
    sampled_tags,
)


def _reference_entries(A: Mat3):
    return [[ReferenceGaussianRational(x.re, x.im) for x in row] for row in A.rows]


#: primes whose product exceeds 2**64 several times over
_BIG_PRIMES = (2**61 - 1, 2**31 - 1, 10**9 + 7, 998244353, 2**89 - 1)


class TestResidual:
    def test_zero(self):
        assert residual(Mat3.zero()).is_zero()

    def test_minus_identity(self):
        # (-I)(-2I + I) - adj(-I) = I - I
        assert residual(-Mat3.identity()).is_zero()

    def test_identity(self):
        # I (4I - I) - I = 2I
        assert residual(Mat3.identity()) == Mat3.identity().scale(gr(2))

    def test_large_common_denominator_matches_reference(self):
        # the integer numerators sit over a common denominator far beyond
        # 2**64; zero and purely imaginary entries are mixed in
        rng = np.random.default_rng(11)
        for _ in range(40):
            entries = []
            for kind in rng.integers(0, 3, 9):  # zero, purely imaginary, general
                p = Fraction(int(rng.integers(-10**6, 10**6)), int(rng.choice(_BIG_PRIMES)))
                q = Fraction(int(rng.integers(-10**6, 10**6)), int(rng.choice(_BIG_PRIMES)))
                entries.append((gr(0), gr(0, q), gr(p, q))[kind])
            A = Mat3([entries[0:3], entries[3:6], entries[6:9]])
            assert math.lcm(*(x.den for x in entries)) > 2**64
            assert _reference_entries(residual(A)) == reference_residual(_reference_entries(A))

    def test_floating_matches_array_kernel(self):
        # floating residual() is the array kernel, bit for bit; both are
        # checked against the independent reference formula
        rng = np.random.default_rng(12)
        for scale in (1e-6, 1e-2, 1.0, 1e3, 1e8):
            for _ in range(10):
                A = scale * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
                got = residual(Mat3.from_numpy(A))
                assert got == Mat3.from_numpy(mateq.residual_array(A))
                want = np.array(reference_residual(A.tolist()))
                n = np.linalg.norm(A, 2)
                assert np.linalg.norm(got.to_numpy() - want) <= 1e-12 * (n * n + n + 1)

    def test_exact_classify_fails_exactly_on_nonzero_reference_residual(self):
        nudge = Mat3.diag(0, gr(Fraction(1, 2**61 - 1), Fraction(-2, 89)), 0)
        for n, tag in enumerate(sampled_tags()):
            A = exact_congruate(tag, 60 + n)
            for M in (A, A + nudge, A + nudge.scale(IM)):
                ref = reference_residual(_reference_entries(M))
                nonzero = any(x for row in ref for x in row)
                assert is_solution(M) is not nonzero
                if nonzero:
                    with pytest.raises(NotASolution, match="nonzero"):
                        classify(M)
                else:
                    assert classify(M).tag.kind == tag.kind


class TestIsSolution:
    def test_all_sampled_representatives(self):
        for tag in sampled_tags():
            assert is_solution(representative(tag))

    def test_identity_is_not(self):
        assert not is_solution(Mat3.identity())

    def test_kfamily_arbitrary_exact_k(self):
        tag = FamilyTag.k_family(GaussianRational(7, 1))  # k = 7 + i
        assert is_solution(representative(tag))

    def test_overflowing_residual_is_not(self):
        # the residual of a random matrix of norm 1e200 overflows to inf/nan
        rng = np.random.default_rng(3)
        A = 1e200 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        assert is_solution(Mat3.from_numpy(A)) is False


class TestResidualArray:
    @pytest.mark.parametrize("k", [1e150, 1e155, 1e200])
    def test_huge_k_representative_is_exactly_zero(self, k):
        # no term of the cofactor adjugate cancels on the representative
        A = representative(FamilyTag.k_family(k + 0j)).to_numpy()
        assert not mateq.residual_array(A).any()
        assert is_solution(Mat3.from_numpy(A))

    def test_non_finite_residual_is_not_a_solution(self):
        A = np.diag([1e200, 1e200, 1]).astype(complex)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(mateq.residual_array(A)).all()
        (got,) = mateq.classify_stack(A[None])
        assert type(got) is NotASolution
        assert str(got) == "matrix equation residual is not finite"
        with pytest.raises(NotASolution, match="not finite"):
            classify(Mat3.from_numpy(A))


class TestRepresentatives:
    def test_zero(self):
        assert representative(FamilyTag.zero()) == Mat3.zero()

    def test_minus_identity(self):
        assert representative(FamilyTag.minus_identity()) == -Mat3.identity()

    def test_trace_minus_2_verbatim(self):
        p = gr(Fraction(-1, 2), Fraction(-1, 2))
        q = gr(Fraction(-1, 2), Fraction(1, 2))
        A = representative(FamilyTag.trace_minus_2())
        assert A == Mat3([[-1, 0, 0], [0, p, q], [0, p, q]])
        assert A.trace() == gr(-2)

    def test_k_family_verbatim(self):
        A = representative(FamilyTag.k_family(0))
        assert A == Mat3(
            [[0, 0, 0], [0, half(-1), ihalf()], [0, ihalf(-1), half(-1)]]
        )
        B = representative(FamilyTag.k_family(5))
        assert B.trace() == gr(4)  # k - 1

    def test_non_sym_rank1_verbatim(self):
        A = representative(FamilyTag.non_sym_rank1())
        assert A == Mat3(
            [
                [gr(Fraction(-1, 2), 1), gr(1, Fraction(-1, 2)), 0],
                [gr(1, Fraction(1, 2)), gr(Fraction(-1, 2), -1), 0],
                [0, 0, 0],
            ]
        )
        assert A.rank() == 1
        assert (A.transpose() @ A).is_zero()

    def test_floating_k(self):
        A = representative(FamilyTag.k_family(0.25 + 0.5j))
        assert A.kind == "floating"
        assert is_solution(A, 1e-12)


class TestCongruate:
    def test_identity_fixes(self):
        A = representative(FamilyTag.trace_minus_2())
        assert congruate(A, Mat3.identity()) == A

    def test_minus_identity_is_fixed_point(self):
        T = so3c.random_so3(5)
        B = congruate(-Mat3.identity(exact=False), T)
        assert (B - (-Mat3.identity(exact=False))).frobenius_norm() < 1e-12

    def test_preserves_solutions(self):
        A = representative(FamilyTag.trace_minus_2()).to_floating()
        for seed in range(10):
            T = so3c.random_so3(seed)
            assert is_solution(congruate(A, T), 1e-9)

    def test_rejects_non_orthogonal(self):
        with pytest.raises(so3c.NotOrthogonal):
            congruate(Mat3.zero(), Mat3.identity().scale(gr(2)))

    def test_rejects_a_matrix_whose_gram_overflows(self):
        # T'T overflows: the membership test answers, and congruate refuses T
        T = Mat3([[1e200 + 0j, 1e200 + 0j, 0j], [0j, 1 + 0j, 0j], [0j, 0j, 1 + 0j]])
        with pytest.raises(so3c.NotOrthogonal):
            congruate(representative(FamilyTag.k_family(2 + 0j)), T)


class TestReductionIdentities:
    def test_rank2_on_trace_minus_2(self):
        assert rank2_identity(representative(FamilyTag.trace_minus_2())).is_zero()

    def test_rank2_on_kfamily(self):
        assert rank2_identity(representative(FamilyTag.k_family(3))).is_zero()

    def test_rank2_on_identity(self):
        # (tr I + 1) I'I - I'I I = 4I - I = 3I
        assert rank2_identity(Mat3.identity()) == Mat3.identity().scale(gr(3))

    def test_rank1_on_non_sym_rank1(self):
        assert rank1_identity(representative(FamilyTag.non_sym_rank1())).is_zero()

    def test_rank1_on_kfamily0(self):
        assert rank1_identity(representative(FamilyTag.k_family(0))).is_zero()

    def test_rank1_on_zero(self):
        assert rank1_identity(Mat3.zero()).is_zero()

    def test_identities_exact_on_congruates(self):
        # both identities transform as T'(...)T, so they vanish on whole orbits
        for tag in (FamilyTag.trace_minus_2(), FamilyTag.k_family(3)):
            for seed in range(5):
                assert rank2_identity(exact_congruate(tag, 700 + seed)).is_zero()
        for tag in (FamilyTag.non_sym_rank1(), FamilyTag.k_family(0)):
            for seed in range(5):
                B = exact_congruate(tag, 750 + seed)
                assert rank1_identity(B).is_zero()
                assert B.trace() == gr(-1)


# The classifier's branch invariants are not given by the theory; they must
# first survive an exact brute-force oracle: evaluate each invariant with
# exact arithmetic on every representative and on random exact congruates,
# and check it is constant on each orbit and matches the decision table.

DECISION_TABLE = {
    # tag-kind: (rank, trace, rank(A'A), rank(sym(A)+I/2))
    "Zero": (0, gr(0), 0, 3),
    "MinusIdentity": (3, gr(-3), 3, 3),
    "TraceMinus2": (2, gr(-2), 2, 2),
    # sym(A) + I/2 of a KFamily representative is diag(k + 1/2, 0, 0)
    "KFamily(-1)": (2, gr(-2), 1, 1),
    "KFamily(0)": (1, gr(-1), 0, 1),
    "KFamily(5)": (2, gr(4), 1, 1),
    "KFamily(i)": (2, gr(-1, 1), 1, 1),
    "NonSymRank1": (1, gr(-1), 0, 2),
}


def exact_invariants(A: Mat3):
    ata = A.transpose() @ A
    shifted = A.sym_part() + Mat3.identity().scale(gr(Fraction(1, 2)))
    return (A.rank(), A.trace(), ata.rank(), shifted.rank())


def oracle_cases():
    return [
        ("Zero", FamilyTag.zero()),
        ("MinusIdentity", FamilyTag.minus_identity()),
        ("TraceMinus2", FamilyTag.trace_minus_2()),
        ("KFamily(-1)", FamilyTag.k_family(-1)),
        ("KFamily(0)", FamilyTag.k_family(0)),
        ("KFamily(5)", FamilyTag.k_family(5)),
        ("KFamily(i)", FamilyTag.k_family(IM)),
        ("NonSymRank1", FamilyTag.non_sym_rank1()),
    ]


class TestClassifierBranchOracle:
    @pytest.mark.parametrize("name,tag", oracle_cases())
    def test_representative_matches_table(self, name, tag):
        assert exact_invariants(representative(tag)) == DECISION_TABLE[name]

    @pytest.mark.parametrize("name,tag", oracle_cases())
    def test_invariance_on_exact_congruates(self, name, tag):
        expected = DECISION_TABLE[name]
        for seed in range(15):
            B = exact_congruate(tag, 5000 + seed)
            got = exact_invariants(B)
            # traces are congruence-invariant; the other three are the
            # branch constants the classifier relies on
            assert got == expected, f"{name} congruate {seed}: {got} != {expected}"

    def test_ambiguous_pairs_share_all_but_the_resolver(self):
        tm2 = DECISION_TABLE["TraceMinus2"]
        km1 = DECISION_TABLE["KFamily(-1)"]
        assert (tm2[0], tm2[1]) == (km1[0], km1[1])  # same rank and trace
        assert tm2[2] != km1[2]  # separated by rank(A'A)
        k0 = DECISION_TABLE["KFamily(0)"]
        ns = DECISION_TABLE["NonSymRank1"]
        assert (k0[0], k0[1], k0[2]) == (ns[0], ns[1], ns[2])
        assert k0[3] != ns[3]  # separated by rank(sym(A)+I/2)

    def test_ata_values_behind_the_resolver(self):
        # direct computation backing the rank(A'A) = 2 vs 1 split
        A = representative(FamilyTag.trace_minus_2())
        assert A.transpose() @ A == Mat3([[1, 0, 0], [0, IM, 1], [0, 1, -IM]])
        B = representative(FamilyTag.k_family(-1))
        assert B.transpose() @ B == Mat3.diag(1, 0, 0)


class TestClassify:
    def test_witness_for_a_parameter_past_the_float_range_is_refused(self):
        # an exact KFamily member classifies exactly; its witness search
        # needs a floating copy, which k = 10**400 does not have
        tag = FamilyTag.k_family(10**400)
        A = representative(tag)
        assert classify(A).tag == tag
        with pytest.raises(ValueError, match="exceeds the floating range"):
            classify(A, find_witness=True)

    def test_tags_past_the_float_range_compare(self):
        # exact parameters compare by the exact distance, inf past the float
        # range; against a floating parameter that distance is inf too
        huge = FamilyTag.k_family(10**400)
        assert not huge.close_to(FamilyTag.k_family(1), 1e-6)
        assert huge.close_to(FamilyTag.k_family(10**400), 0.0)
        assert not huge.close_to(FamilyTag.k_family(1 + 0j), 1e300)
        assert FamilyTag.k_family(Fraction(1, 3)).close_to(FamilyTag.k_family(1 / 3 + 0j), 1e-15)

    @pytest.mark.parametrize("name,tag", oracle_cases())
    def test_representatives_round_trip(self, name, tag):
        report = classify(representative(tag))
        assert report.tag == tag
        assert report.residual_norm == 0.0

    def test_exact_congruates_keep_tags(self):
        for name, tag in oracle_cases():
            for seed in range(5):
                B = exact_congruate(tag, 300 + seed)
                assert classify(B).tag == tag

    def test_floating_congruates_keep_tags(self):
        for name, tag in oracle_cases():
            A = representative(tag).to_floating()
            for seed in range(10):
                T = so3c.random_so3(800 + seed)
                report = classify(congruate(A, T))
                assert report.tag.close_to(tag, 1e-6), (name, seed, report.tag)

    def test_floating_k_is_complex_on_every_branch(self):
        # rank-2 branch: k = tr(A) + 1 of the floating representative at k = 10
        report = classify(representative(FamilyTag.k_family(10.0)))
        assert type(report.tag.k) is complex
        assert complex(report.tag.k) == 10
        # rank-1 branch: k = 0 of a floating congruate
        A = representative(FamilyTag.k_family(0)).to_floating()
        report = classify(congruate(A, so3c.random_so3(21)))
        assert report.tag.kind == FamilyKind.K_FAMILY
        assert type(report.tag.k) is complex
        assert report.tag.k == 0

    def test_kfamily_minus1_not_trace_minus_2(self):
        A = representative(FamilyTag.k_family(-1)).to_floating()
        T = so3c.random_so3(99)
        report = classify(congruate(A, T))
        assert report.tag.kind == FamilyKind.K_FAMILY
        assert ("rank(A'A)", 1) in report.invariants_used

    def test_identity_not_a_solution(self):
        with pytest.raises(NotASolution):
            classify(Mat3.identity())

    def test_witness_attachment(self):
        tag = FamilyTag.trace_minus_2()
        T = so3c.random_so3(41)
        B = congruate(representative(tag).to_floating(), T)
        report = classify(B, find_witness=True, seed=7)
        assert report.witness is not None
        W = report.witness.to_numpy()
        rep = representative(tag).to_numpy()
        assert np.linalg.norm(W.T @ W - np.eye(3)) <= 1e-8
        assert abs(np.linalg.det(W) - 1) <= 1e-8
        assert np.linalg.norm(W.T @ rep @ W - B.to_numpy()) <= 1e-8

    def test_overflowing_trace_is_not_a_solution(self):
        # at 1e308 tr(A) overflows as well as the residual; no warning escapes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotASolution, match="not finite"):
                classify(Mat3.diag(1e308 + 0j, 1e308 + 0j, 1 + 0j))

    def test_near_zero_is_zero_family(self):
        A = Mat3.from_numpy(1e-12 * np.random.default_rng(0).standard_normal((3, 3)))
        assert classify(A).tag == FamilyTag.zero()


@pytest.fixture(scope="module")
def survey_points():
    """Converged Newton points, stacked: from the starts of ``survey_500``
    and of two radius-5 surveys."""
    from postlie_sl2 import solver

    stacks = []
    for seed, radius in ((20260810, 2.0), (7, 5.0), (31, 5.0)):
        starts = solver._seeded_starts(seed, range(500), radius)
        A, norm, *_ = solver._newton(starts, solver.DEFAULT_MAX_ITER, solver.DEFAULT_NEWTON_TOL)
        stacks.append(A[norm < solver.DEFAULT_NEWTON_TOL])
    return np.concatenate(stacks)


class TestClassifyStack:
    """The stacked floating classifier against the one-matrix Mat3
    classifier it replaced (``reference_classify_floating``)."""

    def test_matches_reference_on_survey_points(self, survey_points):
        kinds = set()
        for A, got in zip(survey_points, mateq.classify_stack(survey_points)):
            want = reference_classify_floating(Mat3.from_numpy(A))
            assert got.tag.kind == want.tag.kind
            assert got.tag.k == want.tag.k
            assert got.invariants_used == want.invariants_used
            # the array and the Mat3 residual sum in different orders
            n = np.linalg.norm(A, 2)
            assert abs(got.residual_norm - want.residual_norm) <= 1e-12 * (n * n + n + 1)
            kinds.add(got.tag.kind)
        assert kinds == set(FamilyKind)

    def test_row_report_alone_in_prefix_and_in_batch(self, survey_points):
        full = mateq.classify_stack(survey_points)
        assert mateq.classify_stack(survey_points[:37]) == full[:37]
        for A, report in zip(survey_points, full):
            assert mateq.classify_stack(A[None]) == [report]
            assert classify(Mat3.from_numpy(A)) == report

    def test_non_solution_rows_in_a_batch(self, survey_points):
        rng = np.random.default_rng(5)
        kfamily = next(
            A for A, r in zip(survey_points, mateq.classify_stack(survey_points))
            if r.tag.kind == FamilyKind.K_FAMILY
        )
        bad = [
            np.eye(3, dtype=complex),
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
            (1 + 1e-3) * kfamily,
        ]
        mixed = np.stack([A for pair in zip(bad, survey_points) for A in pair])
        reports = mateq.classify_stack(mixed)
        failed = 0
        for A, got in zip(mixed, reports):
            try:
                want = classify(Mat3.from_numpy(A))
            except NotASolution as exc:
                failed += 1
                assert type(got) is NotASolution
                assert str(got) == str(exc)
            else:
                assert got == want
        assert failed == len(bad)

    def test_empty_stack(self):
        assert mateq.classify_stack(np.zeros((0, 3, 3), dtype=complex)) == []

    def test_no_svd_that_no_row_reads(self, monkeypatch):
        # one row of every branch: the second-rank SVDs run only for the
        # branch that reads them, and the reports are those of one batch,
        # which runs both
        rows = [representative(tag).to_floating().to_numpy() for tag in (
            FamilyTag.zero(),
            FamilyTag.minus_identity(),
            FamilyTag.trace_minus_2(),
            FamilyTag.non_sym_rank1(),
            FamilyTag.k_family(0),
            FamilyTag.k_family(-1),
            FamilyTag.k_family(2.5 - 1j),
        )]
        rows.append(np.eye(3, dtype=complex))  # not a solution
        sym, ata = mateq.RANK_SHIFTED_SYM, mateq.RANK_ATA
        second = [None, None, ata, sym, sym, ata, None, None]
        batch = mateq.classify_stack(np.stack(rows))
        svd = np.linalg.svd
        shapes = []

        def counting(M, *args, **kwargs):
            shapes.append(M.shape)
            return svd(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        assert mateq.classify_stack(np.zeros((0, 3, 3), dtype=complex)) == []
        assert shapes == []
        for A, name, want in zip(rows, second, batch):
            shapes.clear()
            got = mateq.classify_stack(A[None])[0]
            assert shapes == [(1, 3, 3)] * (1 if name is None else 2), name
            if isinstance(want, Exception):
                assert type(got) is type(want) and str(got) == str(want)
                continue
            assert got == want
            assert (name in dict(got.invariants_used)) == (name is not None)
            ref = reference_classify_floating(Mat3.from_numpy(A))
            assert (got.tag, got.invariants_used) == (ref.tag, ref.invariants_used)


class TestMargins:
    def test_near_boundary_k_shows_its_margin(self):
        # rank(A) = 1 from sigma = 1e-7, ten times below the threshold
        report = classify(representative(FamilyTag.k_family(1e-7 + 0j)))
        name, sigma, threshold = report.margins[0]
        assert name == "rank(A)"
        assert sigma / threshold == pytest.approx(0.1, rel=1e-6)

    def test_one_margin_per_rank_decision(self):
        for seed, (_, tag) in enumerate(oracle_cases()):
            A = congruate(representative(tag).to_floating(), so3c.random_so3(60 + seed))
            report = classify(A)
            ranks = [name for name, _ in report.invariants_used if name.startswith("rank(")]
            assert [m[0] for m in report.margins] == ranks
            # each threshold is tol * max(sigma_max, floor), the floor carrying
            # the scale max(||A||_2, 1) at the degree of the derived matrix
            M = A.to_numpy()
            scale = max(np.linalg.norm(M, 2), 1.0)
            derived = {
                "rank(A)": (M, 1.0),
                "rank(sym(A)+I/2)": ((M + M.T) / 2 + np.eye(3) / 2, scale),
                "rank(A'A)": (M.T @ M, scale**2),
            }
            for name, sigma, threshold in report.margins:
                D, floor = derived[name]
                sv = np.linalg.svd(D, compute_uv=False)
                assert threshold == pytest.approx(1e-6 * max(sv[0], floor), rel=1e-12)
                assert np.abs(sv - sigma).min() <= 1e-12 * sv[0]

    def test_exact_input_has_no_margins(self):
        for _, tag in oracle_cases():
            assert classify(representative(tag)).margins == ()


NULLITY_PREFIX = "dim{S : XS = SY, X'S = SY'} for (A,A), (A,B), (B,B) = "
#: what the nullspace decision gives for a pair it cannot decide: no
#: dimensions, none decided, no basis
UNDECIDED = ((None, None, None), (False, False, False), None)


def k_family_tags(rng, lo: float, hi: float, n: int) -> list:
    """n KFamily tags with log10 |k| uniform on [lo, hi] and a uniform phase."""
    return [
        FamilyTag.k_family(complex(10 ** rng.uniform(lo, hi) * np.exp(2j * np.pi * rng.uniform())))
        for _ in range(n)
    ]


class TestCongruenceTest:
    def test_exact_entry_past_the_float_range_is_refused(self):
        M = Mat3([[10**400, 0, 0], [0, 0, 0], [0, 0, 0]])
        with pytest.raises(ValueError, match="Mat3 entry 0 exceeds the floating range"):
            congruence_test(M, Mat3.identity())
        with pytest.raises(ValueError, match="Mat3 entry 0 exceeds the floating range"):
            congruence_test(Mat3.identity(), M)

    def test_reflexive(self):
        A = representative(FamilyTag.non_sym_rank1())
        v = congruence_test(A, A, seed=1)
        assert v.status == "congruent"
        assert v.witness == Mat3.identity(exact=False)

    def test_separating_invariant(self):
        v = congruence_test(
            representative(FamilyTag.trace_minus_2()),
            representative(FamilyTag.k_family(-1)),
            seed=1,
        )
        assert v.status == "not_congruent"
        assert v.separating_invariant == NULLITY_PREFIX + "(2, 2, 3)"
        # floating congruates of representatives of distinct classes
        tags = [tag for _, tag in oracle_cases()] + [FamilyTag.k_family(2.5 - 1j)]
        for i, s in enumerate(tags):
            A = congruate(representative(s).to_floating(), so3c.random_so3(600 + i))
            for j, t in enumerate(tags[i + 1:], i + 1):
                B = congruate(representative(t).to_floating(), so3c.random_so3(650 + j))
                v = congruence_test(A, B, seed=1)
                assert v.status == "not_congruent", (s, t, v)
                assert v.separating_invariant.startswith(NULLITY_PREFIX)

    def test_trace_separates_k_family(self):
        v = congruence_test(
            representative(FamilyTag.k_family(2)),
            representative(FamilyTag.k_family(3)),
            seed=1,
        )
        assert v.status == "not_congruent"
        assert v.separating_invariant == NULLITY_PREFIX + "(3, 2, 3)"
        # k against k (1 + 0.05), |k| from 1e-3 to 1e3, both congruated
        rng = np.random.default_rng(20261019)
        for seed, tag in enumerate(k_family_tags(rng, -3, 3, 16)):
            k = complex(tag.k)
            A = congruate(representative(tag).to_floating(), so3c.random_so3(700 + seed))
            B = congruate(
                representative(FamilyTag.k_family(k * 1.05)).to_floating(),
                so3c.random_so3(750 + seed),
            )
            v = congruence_test(A, B, seed=1)
            assert v.status == "not_congruent", (k, v)

    def test_orbit_pair_finds_witness(self):
        A = representative(FamilyTag.non_sym_rank1()).to_floating()
        T = so3c.random_so3(3)
        B = congruate(A, T)
        v = congruence_test(A, B, seed=5)
        assert v.status == "congruent"
        W = v.witness.to_numpy()
        assert np.linalg.norm(W.T @ W - np.eye(3)) <= 1e-8
        assert abs(np.linalg.det(W) - 1) <= 1e-8
        assert np.linalg.norm(W.T @ A.to_numpy() @ W - B.to_numpy()) <= 1e-8

    def test_nan_witness_defect_is_not_congruent(self):
        # at 1e308 T'AT - I overflows to nan for every candidate T, and a nan
        # defect must not verify a witness; at 1e307 the nullspace dimensions
        # still separate the pair
        for x in (1e307, 1e308):
            A = Mat3([[x, x, 0.0], [0.0, x, 0.0], [0.0, 0.0, 1.0]])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                v = congruence_test(A, Mat3.identity(exact=False))
            assert v.status != "congruent", x

    def test_svd_failure_near_float_range_is_unknown(self):
        # the (A, A) system overflows: the dimensions are undecided and there
        # is no basis, so the verdict is unknown, not an error
        A = Mat3([[1e308, 1e308, 0.0], [1e308, -1e308, 0.0], [0.0, 0.0, 1.0]])
        Af = A.to_numpy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mateq._congruence_nullities(Af, Af) == UNDECIDED
            v = congruence_test(A, Mat3.identity(exact=False))
        assert (v.status, v.attempts, v.nullities) == ("unknown", 0, UNDECIDED[:2])

    def test_deterministic(self):
        A = representative(FamilyTag.trace_minus_2()).to_floating()
        B = congruate(A, so3c.random_so3(13))
        v1 = congruence_test(A, B, budget=16, seed=99)
        v2 = congruence_test(A, B, budget=16, seed=99)
        assert v1 == v2

    def test_negative_budget_is_error(self):
        A = representative(FamilyTag.non_sym_rank1())
        with pytest.raises(ValueError, match="budget"):
            congruence_test(A, A, budget=-1)
        with pytest.raises(ValueError, match="budget"):
            classify(A, find_witness=True, budget=-5)

    def test_exact_prefilter_needs_no_spectral_scale(self, monkeypatch):
        # exact classification, and the pairwise check of verify-canon built
        # on its tags, never reach floating arithmetic
        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"numpy.{name} on an exact path")

        for module in (linalg, mateq, so3c):
            monkeypatch.setattr(module, "np", NoNumpy())
        tags = [tag for _, tag in oracle_cases()]
        for s in tags:
            assert classify(representative(s)).tag == s
        code, payload = verify_canon()
        assert code == 0
        assert payload["pairs_checked"] == 36
        assert payload["pairwise_noncongruent"] is True
        assert "undistinguished_pairs" not in payload


def _assert_witness(W: Mat3, A: np.ndarray, B: np.ndarray):
    T = W.to_numpy()
    assert np.linalg.norm(T.T @ T - np.eye(3)) <= 1e-8
    assert abs(np.linalg.det(T) - 1) <= 1e-8
    assert np.linalg.norm(T.T @ A @ T - B) <= 1e-8


# Two congruent KFamily inputs on which a Gauss-Newton search for S'S = I
# over {S : A S = S B} stalled at an orthogonality defect near 1e-7 on all
# 64 starts and answered unknown: a classify witness at k = -1.56-2.49i,
# ||B||_2 = 7.38, and a congruence test at |k| = 6, ||B||_2 = 18.2.
STALLED_CLASSIFY_B = [
    [-0.32326029269947454 - 0.3534198801489236j, 0.4743518987000108 + 1.3355892348808953j,
     0.892174789966659 - 0.6613092002280548j],
    [-0.4198622529696464 + 1.3706234677606643j, -2.7384593708655127 - 4.05899595403719j,
     -2.713152240783173 + 1.3247315568429656j],
    [0.9586901160870279 + 0.6456819981686689j, -2.873478780097949 + 1.6715664551791303j,
     0.5020631624996409 + 1.9219626876427514j],
]
STALLED_CONGRUENCE_K = -5.4294733419300645 - 2.553589479393816j
STALLED_CONGRUENCE_B = [
    [2.830811613319406 + 5.203752121673732j, -0.5469394422266601 - 1.7511383074736109j,
     -6.61832563973266 + 5.354627227534106j],
    [-0.7494865306591335 - 0.3220883685289161j, -0.37390040615292575 + 0.20646662316498435j,
     0.7913937812817495 - 1.1879639067914485j],
    [-6.417262153831378 + 5.410765545118323j, 1.8104113084222888 - 0.9149926073553275j,
     -8.886384549096539 - 7.963808224232542j],
]


class TestWitnessConstruction:
    def test_stalled_classify_gets_a_witness(self):
        B = Mat3.from_numpy(np.array(STALLED_CLASSIFY_B))
        report = classify(B, find_witness=True)
        assert report.tag.kind == FamilyKind.K_FAMILY
        assert report.witness is not None
        rep = representative(report.tag).to_numpy()
        _assert_witness(report.witness, rep, B.to_numpy())

    def test_stalled_congruence_is_congruent(self):
        A = representative(FamilyTag.k_family(STALLED_CONGRUENCE_K)).to_floating()
        B = Mat3.from_numpy(np.array(STALLED_CONGRUENCE_B))
        v = congruence_test(A, B)
        assert v.status == "congruent"
        _assert_witness(v.witness, A.to_numpy(), B.to_numpy())

    def test_solution_congruates(self):
        rng = np.random.default_rng(20261018)
        tags = k_family_tags(rng, -3, 1, 24)
        tags += [FamilyTag.trace_minus_2(), FamilyTag.non_sym_rank1()] * 4
        # |k| up to 1e4 for congruence_test; classify keeps |k| <= 10, where
        # its fixed residual tolerance holds
        tags += k_family_tags(rng, 1, 4, 24)
        # random_so3 draws have ||T||_2 up to 10
        for seed, tag in enumerate(tags):
            A = representative(tag).to_floating()
            B = congruate(A, so3c.random_so3(900 + seed))
            v = congruence_test(A, B, seed=3)
            assert v.status == "congruent", (tag, v)
            _assert_witness(v.witness, A.to_numpy(), B.to_numpy())
            if tag.k is not None and abs(complex(tag.k)) > 10:
                continue
            report = classify(B, find_witness=True, seed=4)
            assert report.witness is not None, tag
            rep = representative(report.tag).to_numpy()
            _assert_witness(report.witness, rep, B.to_numpy())

    @pytest.mark.parametrize("k", [100.0, 1000.0, 12345.678])
    def test_large_k_congruates_are_congruent(self, k):
        # ||B||_2 grows with k: no part of the decision may hang on an absolute scale
        A = representative(FamilyTag.k_family(complex(k))).to_floating()
        B = congruate(A, so3c.random_so3(0))
        v = congruence_test(A, B)
        assert v.status == "congruent", v
        _assert_witness(v.witness, A.to_numpy(), B.to_numpy())

    def test_nilpotent_symmetric_forms(self):
        forms = [
            form(FormKind.RANK1_NILP),
            form(FormKind.RANK2_BIG_NILP),
            form(FormKind.RANK3_BIG_BLOCK, 1.5 - 0.5j),
        ]
        for seed, f in enumerate(forms * 4):
            S = canonical_matrix(f).to_floating()
            S2 = congruate(S, so3c.random_so3(950 + seed))
            v = find_orthogonal_similarity(S, S2, seed=5)
            assert v.status == "congruent", (f, v)
            _assert_witness(v.witness, S.to_numpy(), S2.to_numpy())

    def test_arbitrary_complex_matrices(self):
        rng = np.random.default_rng(11)
        for seed in range(10):
            A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            T = so3c.random_so3(980 + seed).to_numpy()
            v = congruence_test(Mat3.from_numpy(A), Mat3.from_numpy(T.T @ A @ T), seed=6)
            assert v.status == "congruent"
            _assert_witness(v.witness, A, T.T @ A @ T)


def _polar_starts():
    """Starts of the polar iteration, as complex (3,3) arrays: random at
    the witness search's scale, ill-conditioned (singular values down to
    1e-4), and nilpotent plus a perturbation of 1e-3."""
    rng = np.random.default_rng(20261020)

    def draw():
        return rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))

    starts = [draw() for _ in range(40)]
    for _ in range(20):
        U, _, Vh = np.linalg.svd(draw())
        starts.append(U @ np.diag([1.0, 10 ** rng.uniform(-2, 0), 10 ** rng.uniform(-4, -2)]) @ Vh)
    nilpotent = [np.triu(draw(), 1), np.diag([1.0, 1.0], 1) + 0j, np.diag([1.0], 2) + 0j]
    for _ in range(10):
        for N in nilpotent:
            starts.append(N + 1e-3 * draw())
    return [S * (math.sqrt(3.0) / np.linalg.norm(S)) for S in starts]


def _entries(M: Mat3) -> list:
    """The nine entries of M, row-major, as the witness search holds them."""
    return [x for row in M.rows for x in row]


class TestScalarWitness:
    """The witness search on nine complex scalars, against the numpy
    iteration it replaced (``reference_polar_iterates``)."""

    def test_polar_iterates_match_numpy(self):
        # the two invert X differently (cofactors over the determinant, and
        # LU), so an iterate on the way may differ by the start's condition
        # number times rounding; the last iterates agree to 1e-12 relative
        starts = _polar_starts()
        converged = 0
        for S in starts:
            iterates, defects = reference_polar_iterates(S)
            cond = np.linalg.cond(S)
            for k, (want, want_defect) in enumerate(zip(iterates, defects)):
                X, defect = mateq._orthogonal_polar_factor(S.ravel().tolist(), max_iter=k)
                X = np.array(X).reshape(3, 3)
                assert np.linalg.norm(X - want) <= 1e-12 * cond * np.linalg.norm(want), k
                assert (defect <= 1e-10) == (want_defect <= 1e-10), k
            X, defect = mateq._orthogonal_polar_factor(S.ravel().tolist())
            X = np.array(X).reshape(3, 3)
            assert np.linalg.norm(X - iterates[-1]) <= 1e-12 * np.linalg.norm(iterates[-1])
            assert (defect <= 1e-10) == (defects[-1] <= 1e-10)
            assert (defect >= 1e-12) == (defects[-1] >= 1e-12)
            converged += defect <= 1e-10
        assert converged == len(starts)

    def test_singular_start_is_none(self):
        A9 = _entries(representative(FamilyTag.non_sym_rank1()).to_floating())
        basis = np.diag([1.0, 1.0, 0.0]).astype(complex)[None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for start in range(4):
                assert mateq._witness_from_start(basis, A9, A9, 0, start, 1e-8) is None
        X, defect = mateq._orthogonal_polar_factor(basis[0].ravel().tolist())
        assert defect == 1.0  # the start itself: its iterate is singular

    def test_start_near_the_float_range_is_none(self, monkeypatch):
        A9 = _entries(representative(FamilyTag.non_sym_rank1()).to_floating())
        rng = np.random.default_rng(3)
        basis = 1e300 * (rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for start in range(4):
                assert mateq._witness_from_start(basis, A9, A9, 0, start, 1e-8) is None
        # an entry of X'X whose modulus exceeds the float range, though its
        # parts do not: abs() raises OverflowError, and the start fails
        a = complex(np.sqrt(1.3e308 * (1 + 1j)))
        huge = [a, 0j, 0j, 0j, 1 + 0j, 0j, 0j, 0j, 1 + 0j]
        with pytest.raises(OverflowError):
            mateq._orthogonal_polar_factor(huge)
        polar = mateq._orthogonal_polar_factor
        monkeypatch.setattr(mateq, "_orthogonal_polar_factor", lambda S: polar(huge))
        basis = np.eye(3, dtype=complex)[None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mateq._witness_from_start(basis, A9, A9, 0, 0, 1e-8) is None

    def test_non_finite_entry_is_none(self):
        # the nan sits in the third column, where max() alone would skip it
        X, defect = mateq._orthogonal_polar_factor([1, 0, math.nan, 0, 1, 0, 0, 0, 1])
        assert math.isnan(defect)
        A9 = _entries(representative(FamilyTag.non_sym_rank1()).to_floating())
        basis = np.array([[1, 0, math.nan], [0, 1, 0], [0, 0, 1]], dtype=complex)[None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mateq._witness_from_start(basis, A9, A9, 0, 0, 1e-8) is None

    def test_determinant_minus_one_is_flipped(self, monkeypatch):
        # start 0 of this pair converges to an orthogonal factor of
        # determinant -1, and its negation is the witness
        A = representative(FamilyTag.trace_minus_2()).to_floating()
        B = congruate(A, so3c.random_so3(0))
        A9, B9 = _entries(A), _entries(B)
        basis = mateq._congruence_nullities(A9, B9)[2]
        polar = mateq._orthogonal_polar_factor
        factors = []
        monkeypatch.setattr(
            mateq, "_orthogonal_polar_factor", lambda S: factors.append(polar(S)) or factors[-1]
        )
        S = mateq._witness_from_start(basis, A9, B9, 0, 0, 1e-8)
        Q = np.array(factors[0][0]).reshape(3, 3)
        assert abs(np.linalg.det(Q) + 1) <= 1e-8
        assert S == [-x for x in factors[0][0]]
        _assert_witness(Mat3([S[0:3], S[3:6], S[6:9]]), A.to_numpy(), B.to_numpy())

    def test_witness_is_a_floating_mat3(self):
        A = representative(FamilyTag.trace_minus_2()).to_floating()
        B = congruate(A, so3c.random_so3(4))
        v = congruence_test(A, B)
        assert v.status == "congruent"
        assert isinstance(v.witness, Mat3) and v.witness.kind == linalg.FLOATING
        _assert_witness(v.witness, A.to_numpy(), B.to_numpy())

    def test_exact_operands(self):
        # exact input is decided on its floating copy
        A = representative(FamilyTag.trace_minus_2())
        B = exact_congruate(FamilyTag.trace_minus_2(), 2)
        exact, floating = congruence_test(A, B), congruence_test(A.to_floating(), B.to_floating())
        assert exact == floating
        assert exact.status == "congruent"


class TestNullitySeparation:
    """Pairs of equal ranks and characteristic polynomials that the
    nullspace dimensions for (A, A), (A, B) and (B, B) separate."""

    def test_rank2_block_against_rank2_diag(self):
        A = canonical_matrix(form(FormKind.RANK2_BLOCK, 1.5 + 0j))
        B = canonical_matrix(form(FormKind.RANK2_DIAG, 1.5 + 0j, 1.5 + 0j))
        v = find_orthogonal_similarity(A, B, seed=1)
        assert v.status == "not_congruent"
        assert v.separating_invariant == NULLITY_PREFIX + "(3, 3, 5)"

    def test_rank3_one_block_against_scalar(self):
        A = canonical_matrix(form(FormKind.RANK3_ONE_BLOCK, 2 + 0j, 2 + 0j))
        B = Mat3.diag(2 + 0j, 2 + 0j, 2 + 0j)
        v = find_orthogonal_similarity(A, B, seed=1)
        assert v.status == "not_congruent"
        assert v.separating_invariant == NULLITY_PREFIX + "(5, 6, 9)"

    def test_separated_after_the_first_failed_start(self, monkeypatch):
        polar = mateq._orthogonal_polar_factor
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return polar(*args, **kwargs)

        monkeypatch.setattr(mateq, "_orthogonal_polar_factor", counting)
        pairs = [
            (
                canonical_matrix(form(FormKind.RANK2_BLOCK, 1.5 + 0j)),
                canonical_matrix(form(FormKind.RANK2_DIAG, 1.5 + 0j, 1.5 + 0j)),
            ),
            (
                canonical_matrix(form(FormKind.RANK3_ONE_BLOCK, 2 + 0j, 2 + 0j)),
                Mat3.diag(2 + 0j, 2 + 0j, 2 + 0j),
            ),
        ]
        for A, B in pairs:
            calls.clear()
            assert find_orthogonal_similarity(A, B, seed=1).status == "not_congruent"
            assert not calls  # the dimensions answer before any start

    def test_congruent_pairs_are_never_separated(self):
        # with no search budget the nullspace dimensions alone answer
        rng = np.random.default_rng(20261018)
        tags = k_family_tags(rng, -3, 1, 24)
        tags += [FamilyTag.trace_minus_2(), FamilyTag.non_sym_rank1()] * 4
        tags += k_family_tags(rng, 1, 4, 24)
        for seed, tag in enumerate(tags):
            A = representative(tag).to_floating()
            B = congruate(A, so3c.random_so3(900 + seed))
            assert congruence_test(A, B, budget=0).status == "unknown", tag

    def test_undecided_gap_stays_unknown(self):
        # singular values 2.8e-10 sit next to the cutoff 1.4e-10: counted as
        # nonzero they would read (3, 3, 5), but they are too close to call
        A = np.diag([1, 2e-10, 0]).astype(complex)
        B = np.diag([1, 0, 0]).astype(complex)
        dims, decided, basis = mateq._congruence_nullities(A, B)
        assert dims == (3, 3, 5)
        assert len(basis) == 3
        assert decided[1] is False
        verdict = congruence_test(Mat3.from_numpy(A), Mat3.from_numpy(B), budget=0, tol=1e-12)
        assert verdict.status == "unknown"
        assert verdict.nullities == (dims, decided)


def _pairs(rng, n: int, scale: float, kind: str):
    """n pairs of complex (3,3) arrays at ``scale``: random, real, sparse
    (about half the entries zero) or equal."""
    X = scale * (rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3)))
    Y = scale * (rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3)))
    if kind == "real":
        X, Y = X.real + 0j, Y.real + 0j
    elif kind == "sparse":
        X = np.where(rng.random((n, 3, 3)) < 0.5, 0j, X)
        Y = np.where(rng.random((n, 3, 3)) < 0.5, 0j, Y)
    elif kind == "equal":
        Y = X.copy()
    return X, Y


class TestSimilaritySystems:
    """The gathered (n,18,9) stack of similarity systems, and the one
    batched SVD that decides the three nullspaces of a congruence test."""

    @pytest.mark.parametrize("kind", ["random", "real", "sparse", "equal"])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e150])
    def test_gathered_system_is_the_kronecker_system(self, scale, kind):
        # the two agree everywhere except in the sign of a zero, which == ignores
        X, Y = _pairs(np.random.default_rng(20261019), 12, scale, kind)
        for n in range(12):
            M = mateq._similarity_systems(X[n], Y[n])
            assert M.shape == (3, 18, 9)
            for row, (P, Q) in enumerate(((X[n], X[n]), (X[n], Y[n]), (Y[n], Y[n]))):
                assert (M[row] == reference_sylvester(P, Q)).all(), (n, row)

    def test_batched_rows_are_one_pair_calls(self):
        # each system of the gathered stack is, byte for byte, the (A, B)
        # system of a gather of its own pair
        rng = np.random.default_rng(5)
        for kind in ("random", "sparse", "equal"):
            X, Y = _pairs(rng, 9, 1.0, kind)
            for n in range(9):
                M = mateq._similarity_systems(X[n], Y[n])
                for row, (P, Q) in enumerate(((X[n], X[n]), (X[n], Y[n]), (Y[n], Y[n]))):
                    one = mateq._similarity_systems(P, Q)[1]
                    assert M[row].tobytes() == one.tobytes()

    def test_batched_svd_is_three_one_pair_svds(self):
        # every row of the one SVD gives the dimension, the decision and,
        # for (A, B), the basis that an SVD of that system alone gives
        reps = [representative(t).to_floating() for t in RECORDED_TAGS]
        pairs = [(A, congruate(A, so3c.random_so3(i))) for i, A in enumerate(reps)]
        pairs = [(A.to_numpy(), B.to_numpy()) for A, B in pairs]
        pairs += [(pairs[i][0], pairs[j][0]) for i, j in RECORDED_NULLITIES]
        pairs += list(zip(*_pairs(np.random.default_rng(11), 4, 1.0, "random")))
        for A, B in pairs:
            dims, decided, basis = mateq._congruence_nullities(A, B)
            for row, (X, Y) in enumerate(((A, A), (A, B), (B, B))):
                M = mateq._similarity_systems(X, Y)[1]
                _, sv, vh = np.linalg.svd(M, full_matrices=False)
                rank, nearest, cutoff = linalg.rank_decisions(sv[None], 1e-10, 1.0)[0]
                assert dims[row] == 9 - rank
                assert decided[row] == (
                    nearest <= cutoff / mateq.NULLITY_GAP or nearest >= cutoff * mateq.NULLITY_GAP
                )
                if row == 1:
                    assert basis.tobytes() == vh[rank:].conj().tobytes()

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0, math.inf)])
    def test_non_finite_pair_is_undecided(self, bad):
        # a non-finite entry in either matrix leaves all three dimensions
        # undecided and no basis, with no RuntimeWarning
        A = representative(FamilyTag.non_sym_rank1()).to_floating().to_numpy()
        for which in (0, 1):
            pair = [A.copy(), A.copy()]
            pair[which][1, 2] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert mateq._congruence_nullities(*pair) == UNDECIDED

    def test_overflowing_svd_is_undecided(self):
        # a finite stack whose SVD overflows to non-finite singular values
        A = np.array([[1e308, 1e308, 0], [0, 1e308, 0], [0, 0, 1]], dtype=complex)
        I = np.eye(3, dtype=complex)
        M = mateq._similarity_systems(A, I)
        assert np.isfinite(M).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mateq._congruence_nullities(A, I) == UNDECIDED

    def test_one_svd_per_congruence_test(self, monkeypatch):
        svd = np.linalg.svd
        shapes = []

        def counting(M, *args, **kwargs):
            shapes.append(M.shape)
            return svd(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        A = representative(FamilyTag.trace_minus_2()).to_floating()
        congruence_test(A, congruate(A, so3c.random_so3(4)))
        congruence_test(A, representative(FamilyTag.non_sym_rank1()).to_floating())
        assert shapes == [(3, 18, 9), (3, 18, 9)]


#: the four fixed families and KFamily at six parameters
RECORDED_TAGS = [
    FamilyTag.zero(),
    FamilyTag.minus_identity(),
    FamilyTag.trace_minus_2(),
    FamilyTag.non_sym_rank1(),
] + [FamilyTag.k_family(k) for k in (0j, -1 + 0j, 1 + 0j, 2 + 0j, 0.5 + 0j, 3 + 7j)]
#: the separating dimensions of every distinct pair of RECORDED_TAGS, by
#: index, as the per-pair Kronecker systems gave them
RECORDED_NULLITIES = {
    (0, 1): (9, 0, 9), (0, 2): (9, 0, 2), (0, 3): (9, 3, 2), (0, 4): (9, 3, 3),
    (0, 5): (9, 0, 3), (0, 6): (9, 0, 3), (0, 7): (9, 0, 3), (0, 8): (9, 0, 3),
    (0, 9): (9, 0, 3), (1, 2): (9, 3, 2), (1, 3): (9, 0, 2), (1, 4): (9, 0, 3),
    (1, 5): (9, 3, 3), (1, 6): (9, 0, 3), (1, 7): (9, 0, 3), (1, 8): (9, 0, 3),
    (1, 9): (9, 0, 3), (2, 3): (2, 1, 2), (2, 4): (2, 1, 3), (2, 5): (2, 2, 3),
    (2, 6): (2, 1, 3), (2, 7): (2, 1, 3), (2, 8): (2, 1, 3), (2, 9): (2, 1, 3),
    (3, 4): (2, 2, 3), (3, 5): (2, 1, 3), (3, 6): (2, 1, 3), (3, 7): (2, 1, 3),
    (3, 8): (2, 1, 3), (3, 9): (2, 1, 3), (4, 5): (3, 2, 3), (4, 6): (3, 2, 3),
    (4, 7): (3, 2, 3), (4, 8): (3, 2, 3), (4, 9): (3, 2, 3), (5, 6): (3, 2, 3),
    (5, 7): (3, 2, 3), (5, 8): (3, 2, 3), (5, 9): (3, 2, 3), (6, 7): (3, 2, 3),
    (6, 8): (3, 2, 3), (6, 9): (3, 2, 3), (7, 8): (3, 2, 3), (7, 9): (3, 2, 3),
    (8, 9): (3, 2, 3),
}


class TestRecordedVerdicts:
    """Statuses and separating invariants recorded from the per-pair
    Kronecker systems, before the three systems became one gathered stack."""

    def test_congruates_are_congruent(self):
        for tag in RECORDED_TAGS:
            A = representative(tag).to_floating()
            for seed in range(5):
                v = congruence_test(A, congruate(A, so3c.random_so3(seed)))
                assert (v.status, v.separating_invariant) == ("congruent", None), (tag, seed)

    def test_distinct_representatives_are_separated(self):
        reps = [representative(tag).to_floating() for tag in RECORDED_TAGS]
        assert len(RECORDED_NULLITIES) == len(reps) * (len(reps) - 1) // 2
        for (i, j), dims in RECORDED_NULLITIES.items():
            v = congruence_test(reps[i], reps[j])
            assert v.status == "not_congruent", (i, j)
            assert v.separating_invariant == NULLITY_PREFIX + str(dims), (i, j)

    def test_symmetric_canonical_form_pairs(self):
        S = canonical_matrix(form(FormKind.RANK2_DIAG, 1, 2))
        v = find_orthogonal_similarity(S, S, seed=0)
        assert (v.status, v.separating_invariant) == ("congruent", None)
        S = canonical_matrix(form(FormKind.RANK1_DIAG, 2)).to_floating()
        v = find_orthogonal_similarity(S, congruate(S, so3c.random_so3(77)), seed=3)
        assert (v.status, v.separating_invariant) == ("congruent", None)
        v = find_orthogonal_similarity(
            canonical_matrix(form(FormKind.RANK1_DIAG, 1)),
            canonical_matrix(form(FormKind.RANK1_NILP)),
            seed=0,
        )
        assert (v.status, v.separating_invariant) == ("not_congruent", NULLITY_PREFIX + "(5, 4, 5)")


class TestVerdictNullities:
    """Every verdict carries the three dimensions and their decisions."""

    def test_congruent(self):
        A = representative(FamilyTag.non_sym_rank1()).to_floating()
        v = congruence_test(A, congruate(A, so3c.random_so3(3)), seed=5)
        assert v.status == "congruent"
        assert v.nullities == ((2, 2, 2), (True, True, True))

    def test_identity_shortcut(self):
        A = representative(FamilyTag.trace_minus_2()).to_floating()
        v = congruence_test(A, A)
        assert v.witness == Mat3.identity(exact=False)
        assert v.nullities == ((2, 2, 2), (True, True, True))

    def test_not_congruent(self):
        v = congruence_test(
            representative(FamilyTag.trace_minus_2()), representative(FamilyTag.k_family(-1))
        )
        assert v.status == "not_congruent"
        assert v.nullities == ((2, 2, 3), (True, True, True))

    def test_unknown(self):
        A = representative(FamilyTag.k_family(2)).to_floating()
        v = congruence_test(A, congruate(A, so3c.random_so3(8)), budget=0)
        assert (v.status, v.attempts) == ("unknown", 0)
        assert v.nullities == ((3, 3, 3), (True, True, True))


class TestRank3Rigidity:
    def test_exact_congruates_of_minus_identity(self):
        # T'(-I)T = -T'T = -I: the orbit is a single point
        for seed in range(10):
            B = exact_congruate(FamilyTag.minus_identity(), seed)
            assert B == -Mat3.identity()

    def test_classify_requires_minus_identity(self):
        report = classify(-Mat3.identity())
        assert report.tag == FamilyTag.minus_identity()

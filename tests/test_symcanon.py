from fractions import Fraction

import pytest

from postlie_sl2 import mateq, so3c
from postlie_sl2.linalg import FLOATING, IM, Mat3, jordan_signature
from postlie_sl2.symcanon import (
    FormKind,
    InvalidParameter,
    NotSymmetric,
    OutOfRange,
    canonical_matrix,
    classify_symmetric,
    d_k_block,
    find_orthogonal_similarity,
    form,
)

from conftest import REPEATED_EIGENVALUE_FORMS, SAMPLE_FORMS, gr


def _form_id(f):
    """The kind for a sample form; the kind and parameters for a repeat."""
    if f in SAMPLE_FORMS:
        return f.kind.value
    return "-".join([f.kind.value, *map(str, f.params)])


ROUND_TRIP_FORMS = SAMPLE_FORMS + REPEATED_EIGENVALUE_FORMS


def form_params(kind):
    """Distinct nonzero, non-real exact parameters, as many as ``kind`` takes."""
    count = next(len(f.params) for f in SAMPLE_FORMS if f.kind == kind)
    return [gr(Fraction(n, 2), -n) for n in range(1, count + 1)]


PARAMETRISED_KINDS = [k for k in FormKind if form_params(k)]


class TestDkBlocks:
    def test_k1(self):
        assert d_k_block(1) == ((gr(0),),)

    def test_k2(self):
        assert d_k_block(2) == ((IM, gr(1)), (gr(1), -IM))

    def test_k3(self):
        a, b, z = gr(1, 1), gr(1, -1), gr(0)
        assert d_k_block(3) == ((z, a, z), (a, z, b), (z, b, z))

    @pytest.mark.parametrize("k", [0, 4, -1])
    def test_out_of_range(self, k):
        with pytest.raises(OutOfRange):
            d_k_block(k)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_symmetric(self, k):
        block = d_k_block(k)
        assert all(block[i][j] == block[j][i] for i in range(k) for j in range(k))

    def test_nilpotency_indices(self):
        # index 2 for the 2x2 block, index 3 for the 3x3 block
        d2 = d_k_block(2)
        sq = [
            [sum(d2[i][k] * d2[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)
        ]
        assert all(not x for row in sq for x in row)

        D3 = Mat3([list(r) for r in d_k_block(3)])
        assert not (D3 @ D3).is_zero()
        assert (D3 @ D3 @ D3).is_zero()


class TestCanonicalMatrix:
    def test_zero_form(self):
        assert canonical_matrix(form(FormKind.ZERO_FORM)) == Mat3.zero()

    def test_rank1_nilp(self):
        assert canonical_matrix(form(FormKind.RANK1_NILP)) == Mat3(
            [[IM, 1, 0], [1, -IM, 0], [0, 0, 0]]
        )

    def test_required_nonzero(self):
        with pytest.raises(InvalidParameter):
            canonical_matrix(form(FormKind.RANK1_DIAG, 0))
        with pytest.raises(InvalidParameter):
            canonical_matrix(form(FormKind.RANK3_DIAG, 1, 0, 2))

    @pytest.mark.parametrize("f", SAMPLE_FORMS, ids=lambda f: f.kind.value)
    def test_symmetric_and_rank_matches_stratum(self, f):
        M = canonical_matrix(f)
        assert M.kind == "exact"
        assert M == M.transpose()
        assert M.rank() == f.rank

    @pytest.mark.parametrize("kind", PARAMETRISED_KINDS, ids=lambda k: k.value)
    def test_floating_parameters_give_the_exact_matrix(self, kind):
        exact = canonical_matrix(form(kind, *form_params(kind)))
        floating = canonical_matrix(form(kind, *(p.to_complex() for p in form_params(kind))))
        assert floating.kind == FLOATING
        assert (floating.to_numpy() == exact.to_numpy()).all()


class TestParameterCount:
    @pytest.mark.parametrize("kind", list(FormKind), ids=lambda k: k.value)
    def test_one_too_many(self, kind):
        with pytest.raises(ValueError):
            form(kind, *form_params(kind), 1)

    @pytest.mark.parametrize("kind", PARAMETRISED_KINDS, ids=lambda k: k.value)
    def test_one_too_few(self, kind):
        with pytest.raises(ValueError):
            form(kind, *form_params(kind)[1:])


class TestUniqueness:
    def test_jordan_signatures_pairwise_distinct(self):
        # uniqueness of the list: distinct entries have distinct Jordan types
        sigs = []
        for f in SAMPLE_FORMS:
            M = canonical_matrix(f).to_floating()
            sigs.append(jordan_signature(M, 1e-6))
        for i in range(len(sigs)):
            for j in range(i + 1, len(sigs)):
                assert not sigs[i].close_to(sigs[j], 1e-3), (
                    SAMPLE_FORMS[i].kind,
                    SAMPLE_FORMS[j].kind,
                )


class TestClassifySymmetric:
    def test_diag_123(self):
        f = classify_symmetric(Mat3.diag(1.0, 2.0, 3.0))
        assert f.close_to(form(FormKind.RANK3_DIAG, 1, 2, 3), 1e-9)

    def test_eigenvalue_ordering_canonicalized(self):
        f = classify_symmetric(Mat3.diag(3.0, 1.0, 2.0))
        assert f.close_to(form(FormKind.RANK3_DIAG, 1, 2, 3), 1e-9)

    def test_rank1_nilp_round_trip(self):
        f = classify_symmetric(canonical_matrix(form(FormKind.RANK1_NILP)))
        assert f.kind == FormKind.RANK1_NILP

    def test_shifted_symmetrizer_of_rank1_family(self):
        # eigenvalues {-1/2, -1/2, 0} with a size-2 block at -1/2
        M = Mat3(
            [
                [gr(Fraction(-1, 2), 1), 1, 0],
                [1, gr(Fraction(-1, 2), -1), 0],
                [0, 0, 0],
            ]
        )
        f = classify_symmetric(M)
        assert f.kind == FormKind.RANK2_BLOCK
        assert f.close_to(form(FormKind.RANK2_BLOCK, Fraction(-1, 2)), 1e-9)

    @pytest.mark.parametrize("f", ROUND_TRIP_FORMS, ids=_form_id)
    def test_round_trip(self, f):
        got = classify_symmetric(canonical_matrix(f))
        assert got.close_to(f, 1e-6)

    @pytest.mark.parametrize("f", ROUND_TRIP_FORMS, ids=_form_id)
    def test_stable_under_orthogonal_similarity(self, f):
        M = canonical_matrix(f).to_floating()
        for seed in range(10):
            T = so3c.random_so3(400 + seed)
            got = classify_symmetric(mateq.congruate(M, T))
            assert got.close_to(f, 1e-4), (f.kind, seed, got)

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            classify_symmetric(Mat3([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))


class TestFindOrthogonalSimilarity:
    def test_reflexive(self):
        S = canonical_matrix(form(FormKind.RANK2_DIAG, 1, 2))
        v = find_orthogonal_similarity(S, S, seed=0)
        assert v.status == "congruent"
        assert v.witness == Mat3.identity(exact=False)

    def test_orbit_pair(self):
        S = canonical_matrix(form(FormKind.RANK1_DIAG, 2)).to_floating()
        T = so3c.random_so3(77)
        v = find_orthogonal_similarity(S, mateq.congruate(S, T), seed=3)
        assert v.status == "congruent"

    def test_different_jordan_types(self):
        v = find_orthogonal_similarity(
            canonical_matrix(form(FormKind.RANK1_DIAG, 1)),
            canonical_matrix(form(FormKind.RANK1_NILP)),
            seed=0,
        )
        assert v.status == "not_congruent"

    def test_rejects_asymmetric_input(self):
        with pytest.raises(NotSymmetric):
            find_orthogonal_similarity(
                Mat3([[0, 1, 0], [0, 0, 0], [0, 0, 0]]), Mat3.zero(), seed=0
            )

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postlie_sl2 import mateq, serialize, sl2, so3c
from postlie_sl2.linalg import GaussianRational, Mat3, Vec3
from postlie_sl2.sl2 import (
    LIE_BRACKET,
    NotAdjointForm,
    StructureConstants,
    bracket,
    bracket_via_2x2,
    check_jacobi,
    check_postlie,
    check_rota_baxter,
    circ_from_matrix,
    derived_bracket,
    matrix_from_circ,
)

from conftest import (
    exact_congruate,
    gr,
    reference_check_jacobi,
    reference_check_postlie,
    reference_check_rota_baxter,
    reference_derived_bracket,
    sampled_tags,
)

rationals = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=6
)
gaussians = st.builds(GaussianRational, rationals, rationals)
exact_mats = st.lists(gaussians, min_size=9, max_size=9).map(
    lambda e: Mat3([e[0:3], e[3:6], e[6:9]])
)

E = [Vec3.basis(i) for i in range(3)]

# Gaussian scalars with mixed denominators up to 97, zero half the time so
# that sparse tables and matrices occur
wide_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=97)
sparse_gaussians = st.one_of(
    st.just(GaussianRational(0)),
    st.builds(GaussianRational, wide_rationals, wide_rationals),
)
exact_tables = st.lists(sparse_gaussians, min_size=27, max_size=27).map(
    lambda e: StructureConstants(
        [[Vec3(e[9 * i + 3 * j : 9 * i + 3 * j + 3]) for j in range(3)]
         for i in range(3)]
    )
)
sparse_mats = st.lists(sparse_gaussians, min_size=9, max_size=9).map(
    lambda e: Mat3([e[0:3], e[3:6], e[6:9]])
)

class TestBracket:
    def test_table(self):
        assert bracket(E[1], E[2]) == E[0]
        assert bracket(E[2], E[0]) == E[1]
        assert bracket(E[0], E[1]) == E[2]

    @given(st.lists(gaussians, min_size=3, max_size=3))
    def test_alternating(self, coords):
        x = Vec3(coords)
        assert bracket(x, x).is_zero()

    def test_lie_bracket_constant_is_valid(self):
        assert not check_jacobi(LIE_BRACKET)

    def test_lie_bracket_constant_is_the_bracket(self):
        for i, j in itertools.product(range(3), repeat=2):
            assert LIE_BRACKET.product(i, j) == bracket(E[i], E[j])


class TestBracketVia2x2:
    def test_basis_pairs(self):
        for i in range(3):
            for j in range(3):
                assert bracket_via_2x2(E[i], E[j]) == bracket(E[i], E[j])

    def test_random_floating_pairs(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            x = Vec3((rng.standard_normal(3) + 1j * rng.standard_normal(3)).tolist())
            y = Vec3((rng.standard_normal(3) + 1j * rng.standard_normal(3)).tolist())
            diff = bracket_via_2x2(x, y) - bracket(x, y)
            assert diff.max_abs() < 1e-12

    def test_self_bracket_zero(self):
        assert bracket_via_2x2(E[0], E[0]).is_zero()


class TestCircFromMatrix:
    def test_zero(self):
        c = circ_from_matrix(Mat3.zero())
        assert all(c.product(i, j).is_zero() for i in range(3) for j in range(3))

    def test_minus_identity(self):
        c = circ_from_matrix(-Mat3.identity())
        for i in range(3):
            for j in range(3):
                assert c.product(i, j) == bracket(-E[i], E[j])

    def test_family3_products(self):
        A = mateq.representative(mateq.FamilyTag.trace_minus_2())
        c = circ_from_matrix(A)
        # images written out exactly as the classification states them
        f2 = E[1].scale(gr(Fraction(-1, 2), Fraction(-1, 2))) + E[2].scale(
            gr(Fraction(-1, 2), Fraction(1, 2))
        )
        for j in range(3):
            assert c.product(0, j) == bracket(-E[0], E[j])
            assert c.product(1, j) == bracket(f2, E[j])
            assert c.product(2, j) == bracket(f2, E[j])

    @given(exact_mats)
    def test_products_are_brackets(self, A):
        c = circ_from_matrix(A)
        for i, j in itertools.product(range(3), repeat=2):
            assert c.product(i, j) == bracket(A.row(i), E[j])

    def test_floating_products_are_brackets(self):
        # products by 1 and 0 are exact, so == holds (it treats -0.0 as 0.0)
        rng = np.random.default_rng(29)
        Ef = [e.to_floating() for e in E]
        for scale in (1e-3, 1.0, 1e3):
            for _ in range(20):
                A = _floating_matrix(rng, scale)
                c = circ_from_matrix(A)
                for i, j in itertools.product(range(3), repeat=2):
                    assert c.product(i, j) == bracket(A.row(i), Ef[j])


def _signed_zero_table(rng):
    """A floating table whose real and imaginary parts are signed zeros
    about 30% of the time."""
    re, im = rng.standard_normal((2, 27))
    for part in (re, im):
        zeros = rng.random(27) < 0.3
        part[zeros] = np.copysign(0.0, rng.standard_normal(zeros.sum()))
    e = (re + 1j * im).tolist()
    return StructureConstants([[e[n : n + 3] for n in range(i, i + 9, 3)] for i in range(0, 27, 9)])


def _nested_repr(c):
    """The repr of a table as written from its nested Vec3 table."""
    return f"StructureConstants({[[list(v.coords) for v in row] for row in c.table]!r})"


class TestFlatStructureConstants:
    def test_entry_order(self):
        nested = [[[gr(100 * i + 10 * j + k) for k in range(3)] for j in range(3)] for i in range(3)]
        c = StructureConstants(nested)
        for i, j, k in itertools.product(range(3), repeat=3):
            assert c.entries[9 * i + 3 * j + k] == nested[i][j][k]
            assert c.table[i][j][k] == c.product(i, j)[k] == nested[i][j][k]

    @given(exact_tables)
    @settings(max_examples=30)
    def test_views_and_repr_of_exact_tables(self, c):
        assert StructureConstants(c.table) == c
        assert all(isinstance(v, Vec3) for row in c.table for v in row)
        assert repr(c) == _nested_repr(c)
        assert c.to_floating() == StructureConstants(
            [[v.to_floating() for v in row] for row in c.table]
        )

    def test_views_and_repr_of_floating_tables(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            c = _signed_zero_table(rng)
            assert StructureConstants(c.table) == c
            assert repr(StructureConstants(c.table)) == repr(c) == _nested_repr(c)
            assert c.to_floating() is c

    def test_repr_unchanged(self):
        assert repr(StructureConstants.zero(exact=False)) == (
            "StructureConstants(" + repr([[[0j, 0j, 0j]] * 3] * 3) + ")"
        )
        assert repr(LIE_BRACKET).startswith(
            "StructureConstants([[[GaussianRational('0', '0'), GaussianRational('0', '0'), "
            "GaussianRational('0', '0')], [GaussianRational('0', '0'), "
            "GaussianRational('0', '0'), GaussianRational('1', '0')]"
        )

    def test_product_indexes_like_the_nested_table(self):
        c = circ_from_matrix(Mat3([[1, 2, 3], [4, 5, 6], [7, 8, 9]]))
        assert c.product(-1, -2) == c.table[2][1]
        with pytest.raises(IndexError):
            c.product(3, 0)
        with pytest.raises(IndexError):
            c.product(0, -4)

    def test_never_equal_to_vectors_or_matrices(self):
        c = StructureConstants.zero()
        for other in (Mat3.zero(), Vec3.zero(), c.entries):
            assert c != other and other != c and not (c == other)
        assert StructureConstants.zero() == c and StructureConstants.zero(exact=False) != c
        with pytest.raises(TypeError):
            hash(c)

    def test_constructor_messages(self):
        with pytest.raises(ValueError, match="structure constants need a 3x3 table of vectors"):
            StructureConstants([[Vec3.zero()] * 3] * 2)
        with pytest.raises(ValueError, match="structure constants need a 3x3 table of vectors"):
            StructureConstants([[Vec3.zero()] * 2] * 3)
        mixed = [[Vec3.zero(exact=False)] * 3 for _ in range(3)]
        mixed[2][1] = Vec3.zero()
        with pytest.raises(ValueError, match="mixed exact and floating structure constants"):
            StructureConstants(mixed)
        # an int vector is exact, as before, and so mixes with floating ones
        mixed[2][1] = [0, 0, 0]
        with pytest.raises(ValueError, match="mixed exact and floating structure constants"):
            StructureConstants(mixed)
        with pytest.raises(ValueError, match="Vec3 needs exactly 3 coordinates"):
            StructureConstants([[[0, 0]] * 3] * 3)

    def test_mixed_difference_is_refused_by_the_kind_check(self):
        with pytest.raises(ValueError, match="mixed exact and floating structure constants"):
            LIE_BRACKET - LIE_BRACKET.to_floating()

    def test_arithmetic_results_are_still_checked(self):
        table = [[Vec3.zero(exact=False) for _ in range(3)] for _ in range(3)]
        table[1][2] = Vec3([0j, 1e308 + 0j, 0j])
        c = StructureConstants(table)
        with pytest.raises(ValueError, match="non-finite value in structure constants"):
            c + c
        with pytest.raises(ValueError, match="non-finite value in structure constants"):
            c.scale(10.0)
        assert (c - c).is_zero() and (c - c).kind == c.kind
        assert -LIE_BRACKET == circ_from_matrix(-Mat3.identity())


class TestStructureConstantsJson:
    @staticmethod
    def reference(c):
        return {
            "c": [
                [[serialize.scalar_to_json(x) for x in c.product(i, j).coords] for j in range(3)]
                for i in range(3)
            ]
        }

    def _check(self, c):
        doc = json.dumps(serialize.structure_constants_to_json(c))
        assert doc == json.dumps(self.reference(c))
        back = serialize.structure_constants_from_json(json.loads(doc))
        assert back == c and repr(back) == repr(c)

    @given(exact_tables)
    @settings(max_examples=30)
    def test_exact_tables(self, c):
        self._check(c)

    def test_floating_tables_with_signed_zeros(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            self._check(_signed_zero_table(rng))
        for tag in sampled_tags():
            self._check(circ_from_matrix(mateq.representative(tag)).to_floating())

    def test_a_table_of_numbers_is_refused(self):
        for table in ([[1, 2, 3]] * 3, [[[1, 2, 3]] * 3] * 2 + [[[1, 2], [1, 2, 3], [1, 2, 3]]]):
            with pytest.raises(ValueError, match="3x3x3 nested array"):
                serialize.structure_constants_from_json({"c": table})


class TestMatrixFromCirc:
    def test_zero(self):
        assert matrix_from_circ(StructureConstants.zero()) == Mat3.zero()

    @given(exact_mats)
    def test_round_trip(self, A):
        assert matrix_from_circ(circ_from_matrix(A)) == A

    def test_floating_round_trip_is_bitwise(self):
        # about 30% of the real and imaginary parts are signed zeros; repr
        # tells -0.0 from 0.0 and every other pair of distinct floats apart
        rng = np.random.default_rng(3)
        for _ in range(200):
            re, im = rng.standard_normal((2, 3, 3))
            for part in (re, im):
                zeros = rng.random((3, 3)) < 0.3
                part[zeros] = np.copysign(0.0, rng.standard_normal(zeros.sum()))
            A = Mat3.from_numpy(re + 1j * im)
            assert repr(matrix_from_circ(circ_from_matrix(A)).rows) == repr(A.rows)

    def test_not_adjoint_form(self):
        # [f, e1] is always orthogonal to e1 in coordinates, so no f works
        table = [[Vec3.zero() for _ in range(3)] for _ in range(3)]
        table[0][0] = E[0]
        with pytest.raises(NotAdjointForm):
            matrix_from_circ(StructureConstants(table))

    def test_not_adjoint_form_past_the_float_range(self):
        # the defect 1.5e308(1 + i) has a modulus beyond the float range
        table = [[Vec3.zero(exact=False) for _ in range(3)] for _ in range(3)]
        table[0][1] = Vec3([0j, 0j, 1.5e308 + 1.5e308j])
        with pytest.raises(NotAdjointForm):
            matrix_from_circ(StructureConstants(table))

    def test_overflowing_difference_is_not_adjoint_form(self):
        # A reads f(e_1) = (X, 0, 0), which places -X where the table holds
        # X; the difference -2X overflows, and the defect is inf
        X = 1.5e308 + 1.5e308j
        table = [[Vec3.zero(exact=False) for _ in range(3)] for _ in range(3)]
        table[0][1] = Vec3([0j, 0j, X])
        table[0][2] = Vec3([0j, X, 0j])
        with pytest.raises(NotAdjointForm, match="defect inf"):
            matrix_from_circ(StructureConstants(table))

    def test_every_slot_is_checked(self):
        A = Mat3([[gr(m + 1, m) for m in range(n, n + 3)] for n in (0, 3, 6)])
        for c, nudge in ((circ_from_matrix(A), gr(1, 7)), (circ_from_matrix(A).to_floating(), 1e-6)):
            for n in range(27):
                e = list(c.entries)
                e[n] = e[n] + nudge
                table = [[e[m : m + 3] for m in range(i, i + 9, 3)] for i in range(0, 27, 9)]
                with pytest.raises(NotAdjointForm):
                    matrix_from_circ(StructureConstants(table))

    def test_slots_of_a(self):
        A = Mat3([[gr(m + 1, m) for m in range(n, n + 3)] for n in (0, 3, 6)])
        c = circ_from_matrix(A)
        # [f, e1] = (0, f3, -f2), [f, e2] = (-f3, 0, f1), [f, e3] = (f2, -f1, 0)
        for i in range(3):
            f = A.entries[3 * i : 3 * i + 3]
            z = gr(0)
            want = [z, f[2], -f[1], -f[2], z, f[0], f[1], -f[0], z]
            assert list(c.entries[9 * i : 9 * i + 9]) == want
        assert matrix_from_circ(c) == A


class TestCheckPostlie:
    def test_zero_product(self):
        assert check_postlie(StructureConstants.zero()) == []

    def test_minus_identity(self):
        assert check_postlie(circ_from_matrix(-Mat3.identity())) == []

    def test_identity_fails(self):
        violations = check_postlie(circ_from_matrix(Mat3.identity()))
        assert violations
        assert all(v.identity == "postlie-3" for v in violations)

    def test_defect_past_the_float_range_is_a_violation(self):
        table = [[Vec3.zero(exact=False) for _ in range(3)] for _ in range(3)]
        table[0][1] = Vec3([0j, 0j, 1.5e308 + 1.5e308j])
        violations = check_postlie(StructureConstants(table))
        assert violations
        assert max(v.residual.max_abs() for v in violations) == float("inf")


class TestDerivedBracket:
    def test_zero_product_gives_bracket(self):
        assert derived_bracket(StructureConstants.zero()) == LIE_BRACKET

    def test_minus_identity_gives_negated_bracket(self):
        # x o y - y o x = [-x,y] - [-y,x] = -2[x,y], so {x,y} = -[x,y]
        d = derived_bracket(circ_from_matrix(-Mat3.identity()))
        for i in range(3):
            for j in range(3):
                assert d.product(i, j) == -LIE_BRACKET.product(i, j)

    @given(exact_mats)
    @settings(max_examples=30)
    def test_antisymmetric(self, A):
        d = derived_bracket(circ_from_matrix(A))
        for i in range(3):
            for j in range(3):
                assert (d.product(i, j) + d.product(j, i)).is_zero()

    @given(exact_tables)
    @settings(max_examples=40)
    def test_exact_tables_equal_the_vec3_formula(self, c):
        got, want = derived_bracket(c), reference_derived_bracket(c)
        assert got == want and repr(got) == repr(want)

    def test_floating_tables_are_bit_equal_to_the_vec3_formula(self):
        rng = np.random.default_rng(13)
        tables = [_signed_zero_table(rng) for _ in range(100)]
        tables += [circ_from_matrix(A).to_floating() for A in (Mat3.zero(), -Mat3.identity())]
        for c in tables:
            got, want = derived_bracket(c), reference_derived_bracket(c)
            assert repr(got) == repr(want)


class TestCheckJacobi:
    def test_fixed_bracket(self):
        assert check_jacobi(LIE_BRACKET) == []

    def test_derived_of_solutions(self):
        for tag in sampled_tags():
            A = mateq.representative(tag)
            assert check_jacobi(derived_bracket(circ_from_matrix(A))) == []

    def test_antisymmetry_violation(self):
        table = [[Vec3.zero() for _ in range(3)] for _ in range(3)]
        table[0][0] = E[1]  # [e1, e1] = e2 breaks antisymmetry
        violations = check_jacobi(StructureConstants(table))
        assert any(v.identity == "antisymmetry" for v in violations)


class TestCheckRotaBaxter:
    def test_zero(self):
        assert check_rota_baxter(Mat3.zero()) == []

    def test_minus_identity(self):
        # LHS = [x,y]; RHS = f(-[x,y]) = [x,y]
        assert check_rota_baxter(-Mat3.identity()) == []

    def test_identity_fails(self):
        assert check_rota_baxter(Mat3.identity())


class TestEquivalenceTheorem:
    """PostLie axioms, the Rota-Baxter identity and the matrix equation are
    three faces of the same condition; they must agree on every input."""

    def test_representatives_and_congruates(self):
        for tag in sampled_tags():
            A = mateq.representative(tag)
            mats = [A] + [exact_congruate(tag, 100 + s) for s in range(3)]
            for M in mats:
                assert mateq.residual(M).is_zero()
                assert check_postlie(circ_from_matrix(M)) == []
                assert check_rota_baxter(M) == []

    def test_non_solutions_fail_everything(self):
        rng = np.random.default_rng(23)
        count = 0
        while count < 10:
            A = Mat3.from_numpy(
                rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            )
            if mateq.residual(A).frobenius_norm() <= 1e-3:
                continue
            count += 1
            assert check_postlie(circ_from_matrix(A))
            assert check_rota_baxter(A)

    def test_rota_baxter_is_derived_bracket_homomorphism(self):
        # f({x,y}) = [f(x), f(y)] on all basis pairs, for every solution
        for tag in sampled_tags():
            A = mateq.representative(tag)
            d = derived_bracket(circ_from_matrix(A))
            for i in range(3):
                for j in range(3):
                    lhs = d.product(i, j) @ A
                    rhs = bracket(A.row(i), A.row(j))
                    assert lhs == rhs


def _assert_floating_match(got, want):
    """Same identities and indices; residuals within 1e-12 relative."""
    assert [(v.identity, v.indices) for v in got] == [
        (v.identity, v.indices) for v in want
    ]
    for g, w in zip(got, want):
        assert (g.residual - w.residual).max_abs() <= 1e-12 * w.residual.max_abs()


def _floating_table(rng, scale):
    z = scale * (rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3)))
    return StructureConstants(
        [[Vec3(z[i, j].tolist()) for j in range(3)] for i in range(3)]
    )


def _floating_matrix(rng, scale):
    return Mat3.from_numpy(
        scale * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    )


class TestReferenceOracle:
    """The contractions return the violation lists of the term-by-term
    reference in ``conftest``: equal element for element on exact input,
    within rounding on floating input."""

    @given(exact_tables)
    @settings(max_examples=40, deadline=None)
    def test_exact_tables(self, c):
        assert check_postlie(c) == reference_check_postlie(c)
        assert check_jacobi(c) == reference_check_jacobi(c)

    @given(sparse_mats)
    @settings(max_examples=40, deadline=None)
    def test_exact_adjoint_form(self, A):
        c = circ_from_matrix(A)
        assert check_postlie(c) == reference_check_postlie(c)
        assert check_rota_baxter(A) == reference_check_rota_baxter(A)
        d = derived_bracket(c)
        assert check_jacobi(d) == reference_check_jacobi(d)

    def test_exact_congruates_and_non_solutions(self):
        nudge = Mat3.diag(0, gr(Fraction(1, 97), Fraction(-2, 89)), 0)
        violating = 0
        for n, tag in enumerate(sampled_tags()):
            A = exact_congruate(tag, 40 + n)
            for M in (A, A + nudge):
                c = circ_from_matrix(M)
                postlie = check_postlie(c)
                assert postlie == reference_check_postlie(c)
                assert check_rota_baxter(M) == reference_check_rota_baxter(M)
                violating += bool(postlie)
        assert violating == len(sampled_tags())

    def test_floating_tables_and_matrices(self):
        rng = np.random.default_rng(31)
        for scale in (1e-3, 1.0, 1e3):
            for _ in range(5):
                c = _floating_table(rng, scale)
                _assert_floating_match(check_postlie(c), reference_check_postlie(c))
                _assert_floating_match(check_jacobi(c), reference_check_jacobi(c))
                A = _floating_matrix(rng, scale)
                _assert_floating_match(
                    check_rota_baxter(A), reference_check_rota_baxter(A)
                )
                c = circ_from_matrix(A)
                _assert_floating_match(check_postlie(c), reference_check_postlie(c))

    def test_floating_solutions_pass(self):
        for tag in sampled_tags():
            A = exact_congruate(tag, 7).to_floating()
            c = circ_from_matrix(A)
            assert check_postlie(c) == reference_check_postlie(c) == []
            assert check_rota_baxter(A) == reference_check_rota_baxter(A) == []

    def test_floating_threshold(self):
        # a solution moved off the solution set by 3e-9: a tol just below
        # a defect's largest entry keeps that violation and one just above
        # drops it, in both implementations alike
        A = exact_congruate(mateq.FamilyTag.trace_minus_2(), 5).to_floating()
        A = A + Mat3.diag(3e-9 + 0j, 0j, 0j)
        c = circ_from_matrix(A)
        cases = [
            (check_postlie, reference_check_postlie, c),
            (check_rota_baxter, reference_check_rota_baxter, A),
        ]
        for check, reference, arg in cases:
            defects = sorted(
                {v.residual.max_abs() for v in reference(arg, tol=1e-12)}
            )
            assert defects
            for m in (defects[0], defects[len(defects) // 2]):
                below, above = m * (1 - 1e-9), m * (1 + 1e-9)
                for tol in (below, above):
                    _assert_floating_match(check(arg, tol=tol), reference(arg, tol=tol))
                assert len(reference(arg, tol=below)) > len(reference(arg, tol=above))


def _dense_exact_table(rng):
    e = [
        GaussianRational(Fraction(int(p), int(d)), Fraction(int(q), int(d)))
        for p, q, d in zip(rng.integers(-9, 10, 27), rng.integers(-9, 10, 27), rng.integers(1, 12, 27))
    ]
    return StructureConstants(
        [[Vec3(e[9 * i + 3 * j : 9 * i + 3 * j + 3]) for j in range(3)] for i in range(3)]
    )


def _dense_exact_matrix(rng):
    return Mat3([list(v) for v in _dense_exact_table(rng).table[0]])


def _diagonal(v):
    """Whether ``v`` is an instance that vanishes identically: b = d for
    postlie-3, a = b for postlie-4 and i = j for rota-baxter."""
    i = v.indices
    return i[1] == i[2] if v.identity == "postlie-3" else i[0] == i[1]


class TestIndependentInstances:
    """A mirrored instance's defect is the negation of its partner's and a
    diagonal one is zero: exact check_rota_baxter contracts only the
    independent instances and reads the mirrored ones as negated defects,
    and the general postlie contractions, which run every instance, give
    the same negations; the lists stay the oracle's."""

    def test_all_off_diagonal_instances_fail_as_in_the_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            c = _dense_exact_table(rng)
            got = check_postlie(c)
            assert len(got) == 36
            assert got == reference_check_postlie(c)
            A = _dense_exact_matrix(rng)
            got = check_rota_baxter(A)
            assert len(got) == 6
            assert got == reference_check_rota_baxter(A)

    def test_mirrored_instances_are_exact_negations(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            by_index = {(v.identity, v.indices): v.residual for v in check_postlie(_dense_exact_table(rng))}
            for a, b, d in itertools.product(range(1, 4), repeat=3):
                if b != d:
                    assert by_index["postlie-3", (a, d, b)] == -by_index["postlie-3", (a, b, d)]
                if a != b:
                    assert by_index["postlie-4", (b, a, d)] == -by_index["postlie-4", (a, b, d)]
            by_index = {v.indices: v.residual for v in check_rota_baxter(_dense_exact_matrix(rng))}
            for i, j in itertools.permutations(range(1, 4), 2):
                assert by_index[j, i] == -by_index[i, j]

    def test_no_diagonal_instance_is_reported(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            c = _dense_exact_table(rng)
            A = _dense_exact_matrix(rng)
            cases = [check_postlie(c), check_rota_baxter(A)]
            # floating mode contracts the diagonal too, and it cancels exactly
            cases += [check_postlie(c.to_floating(), tol=0.0), check_rota_baxter(A.to_floating(), tol=0.0)]
            for violations in cases:
                assert violations
                assert not [v for v in violations if _diagonal(v)]


MOVED_TAGS = (
    mateq.FamilyTag.trace_minus_2(),
    mateq.FamilyTag.k_family(GaussianRational(0, 1)),
    mateq.FamilyTag.k_family(GaussianRational(Fraction(5, 3), -2)),
    mateq.FamilyTag.non_sym_rank1(),
)


def _high_height(rng, bits):
    """A Gaussian rational whose denominators have about ``bits`` bits."""
    def q():
        return Fraction(int(rng.integers(-(2**bits), 2**bits)), int(rng.integers(2 ** (bits - 1), 2**bits)))
    return GaussianRational(q(), q())


def _high_height_matrices(rng):
    """Exact solutions and non-solutions with denominators of 40 bits or
    more: the representatives of the families that congruence moves (not
    Zero or MinusIdentity) under the Cayley transform of an antisymmetric
    matrix of 24-bit entries, each also with one entry nudged, and dense
    matrices of 48-bit entries."""
    out = []
    for tag in MOVED_TAGS:
        a, b, c = (_high_height(rng, 24) for _ in range(3))
        z = GaussianRational(0)
        T = so3c.cayley(Mat3([[z, a, b], [-a, z, c], [-b, -c, z]]))
        A = mateq.congruate(mateq.representative(tag), T)
        out += [A, A + Mat3.diag(_high_height(rng, 40), 0, 0)]
    out += [Mat3([[_high_height(rng, 48) for _ in range(3)] for _ in range(3)]) for _ in range(3)]
    return out


def _largest_denominator_bits(c):
    return max(x.den for row in c.table for v in row for x in v).bit_length()


def _forbid(monkeypatch, name):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"check_postlie reached {name}")

    monkeypatch.setattr(sl2, name, forbidden)


class TestDerivationForm:
    """An exact table whose every L_d = C[d] is antisymmetric is decided
    from three vectors u_bd; any other exact table, and every floating one,
    runs the contractions.  Both give the reference's lists element for
    element."""

    def test_high_height_adjoint_tables(self, monkeypatch):
        tables = [circ_from_matrix(A) for A in _high_height_matrices(np.random.default_rng(23))]
        assert min(_largest_denominator_bits(c) for c in tables) >= 40
        want = [reference_check_postlie(c) for c in tables]
        # every solution passes and every nudged or dense matrix fails
        assert [bool(w) for w in want] == [False, True] * len(MOVED_TAGS) + [True] * 3
        _forbid(monkeypatch, "_postlie_defects")
        assert [check_postlie(c) for c in tables] == want

    def test_zero_table_and_lie_bracket(self, monkeypatch):
        want = [reference_check_postlie(c) for c in (StructureConstants.zero(), LIE_BRACKET)]
        assert want[0] == [] and want[1]
        _forbid(monkeypatch, "_postlie_defects")
        assert check_postlie(StructureConstants.zero()) == want[0]
        assert check_postlie(LIE_BRACKET) == want[1]

    @pytest.mark.parametrize("d", range(3))
    def test_symmetric_perturbation_falls_back(self, monkeypatch, d):
        A = exact_congruate(mateq.FamilyTag.k_family(gr(2, 1)), 11)
        base = [[list(v) for v in row] for row in circ_from_matrix(A).table]
        eps = gr(Fraction(3, 7), Fraction(-1, 5))
        tables = []
        for i in range(3):
            for j in range(i, 3):
                t = [[list(v) for v in row] for row in base]
                t[d][i][j] += eps
                if i != j:
                    t[d][j][i] += eps
                tables.append(StructureConstants(t))
        want = [reference_check_postlie(c) for c in tables]
        # L_d + L_d' is no longer zero, so postlie-4 fails on some instance
        assert all(any(v.identity == "postlie-4" for v in w) for w in want)
        _forbid(monkeypatch, "_derivation_postlie_defects")
        assert [check_postlie(c) for c in tables] == want

    def test_floating_tables_take_the_contractions(self, monkeypatch):
        c = circ_from_matrix(exact_congruate(mateq.FamilyTag.trace_minus_2(), 5).to_floating())
        _forbid(monkeypatch, "_derivation_postlie_defects")
        assert check_postlie(c) == []

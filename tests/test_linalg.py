import cmath
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postlie_sl2 import linalg, so3c
from postlie_sl2.linalg import (
    EXACT,
    GaussianRational,
    IM,
    IllConditioned,
    Mat2,
    Mat3,
    Vec3,
    jordan_signature,
    rank_decisions,
    rank_numerators,
)
from postlie_sl2.mateq import residual

from conftest import (
    ReferenceGaussianRational as Ref,
    gr,
    reference_adjugate,
    reference_char_poly,
    reference_det,
    reference_matmul,
    reference_rank,
    reference_rank_decisions,
    reference_residual,
    reference_transpose,
)

rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=8
)
gaussians = st.builds(GaussianRational, rationals, rationals)
#: rationals with denominators up to 1e6, for the kernel against its reference
big_rationals = st.builds(Fraction, st.integers(-10**7, 10**7), st.integers(1, 10**6))
exact_mats = st.lists(gaussians, min_size=9, max_size=9).map(
    lambda e: Mat3([e[0:3], e[3:6], e[6:9]])
)


# -- GaussianRational ------------------------------------------------------


class TestGaussianRational:
    def test_lowest_terms(self):
        x = GaussianRational(Fraction(2, 4), Fraction(-6, 9))
        assert x.re.numerator == 1 and x.re.denominator == 2
        assert x.im.numerator == -2 and x.im.denominator == 3

    def test_i_squared(self):
        assert IM * IM == GaussianRational(-1)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            GaussianRational(0.5)

    def test_component_strings_are_integers_or_quotients(self):
        assert GaussianRational("-6/4", "+7") == GaussianRational(Fraction(-3, 2), 7)
        for part in ("1e5", "1.5", "1_000", " 3", "3 ", "0x10", "1/-2", ""):
            with pytest.raises(ValueError, match="p or p/q"):
                GaussianRational(part)
            with pytest.raises(ValueError, match="p or p/q"):
                GaussianRational(0, part)

    @given(gaussians, gaussians, gaussians)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(gaussians)
    def test_multiplicative_inverse(self, a):
        if a:
            assert a * (GaussianRational(1) / a) == GaussianRational(1)
        else:
            with pytest.raises(ZeroDivisionError):
                GaussianRational(1) / a

    @given(gaussians, gaussians)
    def test_division_round_trip(self, a, b):
        if b:
            assert (a / b) * b == a

    def test_equal_values_hash_alike(self):
        half = Fraction(1, 2)
        assert GaussianRational(1) in {1}
        assert len({GaussianRational(1), 1}) == 1
        assert GaussianRational(half) in {half}
        assert len({GaussianRational(half), half}) == 1
        assert hash(GaussianRational(-3)) == hash(-3)
        assert hash(GaussianRational(half, 2)) == hash((half, Fraction(2)))

    def test_strings_are_not_operands(self):
        one = GaussianRational(1)
        assert one != "1" and "1" != one
        assert len({one, "1"}) == 2
        for op in ARITHMETIC:
            with pytest.raises(TypeError):
                op(one, "1")
            with pytest.raises(TypeError):
                op("1", one)

    @given(st.one_of(st.integers(-10**9, 10**9), big_rationals))
    def test_real_values_hash_like_their_rational(self, q):
        assert GaussianRational(q) == q
        assert hash(GaussianRational(q)) == hash(q)


# -- GaussianRational against the Fraction-pair reference --------------------


def _canonical(z: GaussianRational) -> bool:
    return (
        type(z.num_re) is int
        and type(z.num_im) is int
        and type(z.den) is int
        and z.den > 0
        and math.gcd(z.num_re, z.num_im, z.den) == 1
    )


def _agrees(z, ref: Ref) -> bool:
    """``z`` is canonical and holds the reference value."""
    return isinstance(z, GaussianRational) and _canonical(z) and (z.re, z.im) == (ref.re, ref.im)


def _bits(c: complex):
    return (c.real.hex(), c.imag.hex())


components = st.one_of(st.just(0), st.integers(-50, 50), big_rationals)
scalar_pairs = st.tuples(components, components)
huge_rationals = st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**30))
operands = st.one_of(st.integers(-10**6, 10**6), big_rationals)
ARITHMETIC = (
    lambda x, y: x + y,
    lambda x, y: x - y,
    lambda x, y: x * y,
    lambda x, y: x / y,
)


def _both(pair):
    return GaussianRational(*pair), Ref(*pair)


def _check_op(op, x, y, rx, ry):
    try:
        want = op(rx, ry)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            op(x, y)
        return
    assert _agrees(op(x, y), want)


class TestAgainstReference:
    @given(scalar_pairs)
    def test_construction(self, pair):
        x, ref = _both(pair)
        assert _agrees(x, ref)
        # string components, as the JSON decoder passes them
        assert GaussianRational(str(pair[0]), str(pair[1])) == x

    @given(scalar_pairs, scalar_pairs)
    def test_arithmetic(self, p, q):
        (x, rx), (y, ry) = _both(p), _both(q)
        for op in ARITHMETIC:
            _check_op(op, x, y, rx, ry)

    @given(scalar_pairs, operands)
    def test_mixed_operands(self, p, c):
        x, rx = _both(p)
        for op in ARITHMETIC:
            _check_op(op, x, c, rx, c)
            _check_op(op, c, x, c, rx)

    @given(scalar_pairs, scalar_pairs, operands)
    def test_equality_and_truth(self, p, q, c):
        (x, rx), (y, ry) = _both(p), _both(q)
        assert (x == y) == (rx == ry)
        assert (x == c) == (rx == c) and (c == x) == (c == rx)
        assert x == GaussianRational(*p)
        assert bool(x) == bool(rx)
        assert not (x == 0.0) and x != complex(x)

    @given(scalar_pairs)
    def test_unary_and_conversions(self, p):
        x, rx = _both(p)
        assert _agrees(-x, -rx)
        assert _agrees(+x, rx)
        assert _agrees(x.conjugate(), rx.conjugate())
        assert x.abs_squared() == rx.abs_squared()
        assert type(x.abs_squared()) is Fraction
        assert type(x.re) is Fraction and type(x.im) is Fraction
        assert str(x) == str(rx)
        assert repr(x) == repr(rx)
        assert _bits(complex(x)) == _bits(complex(rx))
        assert _bits(x.to_complex()) == _bits(rx.to_complex())

    @given(st.one_of(scalar_pairs, st.tuples(huge_rationals, huge_rationals)))
    def test_negation_keeps_lowest_terms(self, p):
        # negation builds its triple without reducing again
        x, rx = _both(p)
        minus = -x
        assert _agrees(minus, -rx)
        assert minus.den == x.den
        assert -minus == x and hash(-minus) == hash(x)
        assert hash(minus) == hash(GaussianRational(-rx.re, -rx.im))
        assert (minus == x) == (not x)

    def test_negation_of_zero_and_large_denominators(self):
        big = Fraction(2**61 - 1, 3**45)
        for x in (GaussianRational(0), GaussianRational(big), GaussianRational(0, -big),
                  GaussianRational(big, Fraction(7, 3**45 * 5))):
            minus = -x
            assert _canonical(minus) and minus == GaussianRational(-x.re, -x.im)
            assert hash(minus) == hash(GaussianRational(-x.re, -x.im))
            assert -minus == x
        zero = GaussianRational(0)
        assert (-zero) == zero and hash(-zero) == hash(zero) == hash(0)

    @given(huge_rationals, huge_rationals)
    def test_complex_of_huge_components(self, re, im):
        # past 2**53 a float of each int would round twice
        x, rx = GaussianRational(re, im), Ref(re, im)
        assert _bits(complex(x)) == _bits(complex(rx))

    @given(scalar_pairs)
    def test_division_by_zero(self, p):
        x, _ = _both(p)
        for zero in (GaussianRational(0), 0, Fraction(0)):
            with pytest.raises(ZeroDivisionError):
                x / zero
        if x:
            with pytest.raises(ZeroDivisionError):
                GaussianRational(0) / (x - x)

    def test_rejects_float_operands(self):
        x = GaussianRational(1, 1)
        for op in ARITHMETIC:
            with pytest.raises(TypeError):
                op(x, 0.5)
            with pytest.raises(TypeError):
                op(0.5j, x)


@st.composite
def reference_matrices(draw):
    """A 3x3 reference matrix of rank at most a drawn bound r: the rows
    past the first r are reference combinations of those."""
    entries = draw(st.lists(scalar_pairs, min_size=9, max_size=9))
    rows = [[Ref(*entries[3 * i + j]) for j in range(3)] for i in range(3)]
    r = draw(st.integers(0, 3))
    coefficients = draw(st.lists(scalar_pairs, min_size=4, max_size=4))
    for i in range(r, 3):
        c = [Ref(*coefficients[2 * (i - 1) + m]) for m in range(r)]
        rows[i] = [sum((c[m] * rows[m][j] for m in range(r)), Ref(0)) for j in range(3)]
    return rows


def _as_mat3(rows) -> Mat3:
    return Mat3([[GaussianRational(x.re, x.im) for x in r] for r in rows])


def _mat_agrees(M: Mat3, rows) -> bool:
    return M.kind == EXACT and all(
        _agrees(M[i, j], rows[i][j]) for i in range(3) for j in range(3)
    )


class TestMat3AgainstReference:
    @given(reference_matrices())
    @settings(max_examples=60, deadline=None)
    def test_exact_kernel(self, rows):
        A = _as_mat3(rows)
        assert _mat_agrees(A.adjugate(), reference_adjugate(rows))
        assert _agrees(A.det(), reference_det(rows))
        assert all(_agrees(c, r) for c, r in zip(A.char_poly(), reference_char_poly(rows)))
        assert _mat_agrees(residual(A), reference_residual(rows))
        assert A.rank() == reference_rank(rows)


class TestMatmul:
    @given(reference_matrices(), reference_matrices())
    @settings(max_examples=40, deadline=None)
    def test_exact_against_reference(self, a, b):
        assert _mat_agrees(_as_mat3(a) @ _as_mat3(b), reference_matmul(a, b))

    def test_floating_entries_are_sums_from_zero(self):
        # a floating entry is ((0j + p0) + p1) + p2, signed zeros included
        rng = np.random.default_rng(3)
        values = np.array([0.0, -0.0, 1.5, -0.25])
        for _ in range(50):
            a, b = (
                rng.choice(values, (3, 3)) + 1j * rng.choice(values, (3, 3))
                for _ in range(2)
            )
            A, B = Mat3.from_numpy(a), Mat3.from_numpy(b)
            want = [
                [sum((A[i, k] * B[k, j] for k in range(3)), 0j) for j in range(3)]
                for i in range(3)
            ]
            got = (A @ B).rows
            assert repr(got) == repr(tuple(tuple(r) for r in want))


def _nine(rows) -> list:
    return [GaussianRational(x.re, x.im) for r in rows for x in r]


def _flat(rows) -> list:
    return [x for r in rows for x in r]


def _signed_zero_matrices(seed, count):
    """Floating 3x3 arrays whose entries mix 0.0, -0.0 and small values in
    both components, so that many products and differences are zeros."""
    rng = np.random.default_rng(seed)
    values = np.array([0.0, -0.0, 1.5, -0.25, 2.0])
    for _ in range(count):
        yield rng.choice(values, (3, 3)) + 1j * rng.choice(values, (3, 3))


class TestNineEntryKernel:
    """``cofactors``, ``gram`` and ``frobenius_distance`` on nine entries,
    the 3x3 kernel that Mat3, so3c, symcanon and the witness search read."""

    @given(reference_matrices(), reference_matrices())
    @settings(max_examples=60, deadline=None)
    def test_exact_against_reference(self, a, b):
        cof, det = linalg.cofactors(_nine(a))
        assert _agrees(det, reference_det(a))
        # the cofactor matrix is the adjugate transposed
        want = _flat(reference_transpose(reference_adjugate(a)))
        assert all(_agrees(c, r) for c, r in zip(cof, want))
        want = _flat(reference_matmul(reference_transpose(a), b))
        assert all(_agrees(g, r) for g, r in zip(linalg.gram(_nine(a), _nine(b)), want))

    def test_floating_with_signed_zeros_against_reference(self):
        # values agree; -0.0 == 0.0, so a zero may carry either sign
        for a in _signed_zero_matrices(5, 200):
            rows, X = a.tolist(), a.ravel().tolist()
            cof, det = linalg.cofactors(X)
            assert det == reference_det(rows)
            assert cof == _flat(reference_transpose(reference_adjugate(rows)))
            b = a.T.conj()
            want = _flat(reference_matmul(reference_transpose(rows), b.tolist()))
            assert linalg.gram(X, b.ravel().tolist()) == want

    def test_mat3_reads_the_kernel(self):
        for a in _signed_zero_matrices(6, 50):
            A = Mat3.from_numpy(a)
            cof, det = linalg.cofactors(A.entries)
            assert _bits(A.det()) == _bits(det)
            adjugate = cof[0::3] + cof[1::3] + cof[2::3]
            assert [_bits(x) for x in A.adjugate().entries] == [_bits(x) for x in adjugate]

    def test_frobenius_distance(self):
        X = [GaussianRational(3, 4)] + [GaussianRational(0)] * 8
        assert linalg.frobenius_distance(X, (0,) * 9) == 5.0
        assert linalg.frobenius_distance([3 + 4j, 1j], [0j, 1j]) == 5.0
        # past the float range: a finite value or inf, never OverflowError
        assert linalg.frobenius_distance([1e308 + 1e308j], [0j]) == pytest.approx(2**0.5 * 1e308)
        assert linalg.frobenius_distance([1e308, -1e308], [-1e308, 1e308]) == math.inf

    def test_overflow_gives_inf_or_nan(self):
        X = [1e200 + 1e200j] * 9
        cof, det = linalg.cofactors(X)
        assert not all(map(cmath.isfinite, linalg.gram(X, X)))
        assert not cmath.isfinite(det)
        assert not linalg.frobenius_distance(linalg.gram(X, X), X) <= 1.0

    def test_close_to(self):
        A = Mat3([[1, IM, 0], [0, 2, 0], [0, 0, 3]])
        assert A.close_to(A.to_floating(), 0.0) and A.to_floating().close_to(A, 0.0)
        B = A.to_floating() + Mat3.diag(1e-9 + 0j, 0j, 0j)
        assert A.close_to(B, 2e-9) and not A.close_to(B, 5e-10)
        # the difference overflows: far, with no warning
        big = Mat3.diag(1e308 + 0j, 0j, 0j)
        assert not big.close_to(-big, 1.0)

    def test_frobenius_norm_past_the_float_range(self):
        # |x|**2 overflows here; hypot does not
        z = 0j
        A = Mat3([[1e308 + 1e308j, z, z], [z, z, z], [z, z, z]])
        assert A.frobenius_norm() == pytest.approx(2**0.5 * 1e308)
        assert A.frobenius_norm() == math.hypot(1e308, 1e308)


#: an exact matrix whose entry 10**400 lies beyond the float range
HUGE = Mat3([[10**400, 0, 0], [0, 0, 0], [0, 0, 0]])


class TestExactBeyondTheFloatRange:
    """Exact values past the float range answer through the exact Frobenius
    distance, and refuse a floating copy with ValueError."""

    def test_max_abs_and_frobenius_norm_are_inf(self):
        assert HUGE.max_abs() == math.inf
        assert HUGE.frobenius_norm() == math.inf
        assert Vec3([0, gr(-(10**400), 10**400), 0]).max_abs() == math.inf

    def test_close_to_compares_exactly(self):
        assert HUGE.close_to(HUGE, 1e-9)
        assert not HUGE.close_to(Mat3.zero(), 1e300)
        assert Mat3.diag(gr(Fraction(1, 10**400)), 0, 0).close_to(Mat3.zero(), 1e-300)

    def test_close_to_a_floating_matrix_refuses_the_copy(self):
        with pytest.raises(ValueError, match="Mat3 entry 0 exceeds the floating range"):
            HUGE.close_to(Mat3.zero(exact=False), 1e-9)

    def test_to_numpy_raises_the_to_floating_error(self):
        with pytest.raises(ValueError, match="Mat3 entry 0 exceeds the floating range"):
            HUGE.to_numpy()
        assert np.array_equal(Mat3.diag(1, IM, gr(1, 3)).to_numpy(), np.diag([1, 1j, 1 + 3j]))

    def test_to_floating_names_the_entry(self):
        with pytest.raises(ValueError, match="Mat3 entry 0 exceeds the floating range"):
            HUGE.to_floating()
        with pytest.raises(ValueError, match="Vec3 entry 2 exceeds the floating range"):
            Vec3([1, gr(1, 3), gr(0, -(10**309))]).to_floating()

    def test_frobenius_distance(self):
        # the exact sum 10**400 is past the float range, though its root is not
        assert linalg.frobenius_distance([gr(10**200), gr(0)], [0, 0]) == math.inf
        assert linalg.frobenius_distance([gr(3 * 10**150), gr(0, 4 * 10**150)], [0, 0]) == 5e150
        assert linalg.frobenius_distance(HUGE.entries, HUGE.entries) == 0.0


class TestKindFromTheScalars:
    def test_numerator_vectors_read_the_kind(self):
        vecs, D = linalg.numerator_vectors([gr(1, 2), gr(Fraction(1, 3)), IM])
        assert (vecs, D) == ((((3, 6), (1, 0), (0, 3)),), 3)
        vecs, D = linalg.numerator_vectors([1 + 2j, -0.0 + 0j, 0.5j])
        assert (vecs, D) == ((((1.0, 2.0), (-0.0, 0.0), (0.0, 0.5)),), 1.0)

    def test_diag_zeros_take_the_kind_of_the_diagonal(self):
        floating = Mat3.diag(1.0, 2j, -0.5)
        assert floating.kind == linalg.FLOATING
        assert all(type(x) is complex for x in floating.entries)
        assert repr(floating.entries[1]) == "0j"
        exact = Mat3.diag(gr(1, 2), 0, IM)
        assert exact.kind == EXACT and exact.entries[1] == gr(0)


class TestFlatEntries:
    def test_entries_are_the_rows_row_major(self):
        for M in (Mat3([[1, 2, 3], [4, 5, 6], [7, 8, IM]]), Mat2([[1j, 2.0], [3.0, 4.0]])):
            assert M.entries == tuple(x for r in M.rows for x in r)
            assert M.rows == tuple(tuple(r) for r in M.rows)
            n = len(M.rows)
            assert all(M[i, j] == M.rows[i][j] for i in range(n) for j in range(n))
        v = Vec3([1, 2, 3])
        assert v.coords is v.entries and tuple(v) == v.entries

    def test_views_round_trip(self):
        rng = np.random.default_rng(8)
        floating = Mat3.from_numpy(rng.standard_normal((3, 3)) + 1j)
        for M in (Mat3([[1, gr(2, 3), 0], [0, IM, 4], [5, 6, 7]]), floating):
            assert Mat3(M.rows) == M
            assert Mat3(M.rows).entries == M.entries
        for M in (Mat2([[1, 2], [3, IM]]), Mat2([[1j, 0.5], [0j, -0.0]])):
            assert Mat2(M.rows) == M
        for v in (Vec3([gr(1, 2), 0, IM]), Vec3([1j, -0.0, 2.5])):
            assert Vec3(v.coords) == v

    def test_repr_unchanged(self):
        assert repr(Mat3.identity(exact=False)) == (
            "Mat3([[(1+0j), 0j, 0j], [0j, (1+0j), 0j], [0j, 0j, (1+0j)]])"
        )
        assert repr(Mat2([[1, 0], [0, IM]])) == (
            "Mat2([[GaussianRational('1', '0'), GaussianRational('0', '0')], "
            "[GaussianRational('0', '0'), GaussianRational('0', '1')]])"
        )
        assert repr(Vec3([1j, -0.0, 2])) == "Vec3([1j, (-0+0j), (2+0j)])"

    def test_vectors_and_matrices_are_never_equal(self):
        v, M, P = Vec3([0, 0, 0]), Mat3.zero(), Mat2.zero()
        assert v != M and M != v and not (v == M)
        assert M != P and P != M
        assert Vec3([1, 2, 3]) != Mat3.diag(1, 2, 3)

    def test_arithmetic_results_are_still_checked(self):
        big = Mat3.diag(1e308 + 0j, 1 + 0j, 1 + 0j)
        with pytest.raises(ValueError, match="non-finite value in entries"):
            big + big
        with pytest.raises(ValueError, match="non-finite value in entries"):
            big @ big
        with pytest.raises(ValueError, match="non-finite value in coordinates"):
            Vec3([1e308, 0, 0]).scale(10.0)
        with pytest.raises(ValueError, match="mixed exact and floating entries"):
            Mat3.diag(IM, 2.0, 3)
        with pytest.raises(ValueError, match="mixed exact and floating coordinates"):
            Vec3([IM, 2.0, 3])

    def test_mixed_sum_is_refused_by_the_kind_check(self):
        with pytest.raises(ValueError, match="mixed exact and floating entries"):
            Mat3.identity() + Mat3.identity(exact=False)
        with pytest.raises(ValueError, match="mixed exact and floating entries"):
            Mat3.identity(exact=False) - Mat3.identity()

    def test_mixed_product_is_refused_by_the_kind_check(self):
        with pytest.raises(ValueError, match="mixed exact and floating entries"):
            Mat3.identity() @ Mat3.identity(exact=False)
        with pytest.raises(ValueError, match="mixed exact and floating coordinates"):
            Vec3([1, 2, 3]) @ Mat3.identity(exact=False)
        with pytest.raises(ValueError, match="mixed exact and floating coordinates"):
            Vec3([1, 2, 3]).cross(Vec3([1.0, 2.0, 3.0]))

    def test_sum_with_another_class_is_refused(self):
        with pytest.raises(TypeError, match="Mat3 does not combine with Vec3"):
            Mat3.identity() + Vec3([1, 2, 3])
        with pytest.raises(TypeError, match="Vec3 does not combine with Mat3"):
            Vec3([1, 2, 3]) - Mat3.identity()
        with pytest.raises(TypeError, match="Mat2 does not combine with Mat3"):
            Mat2.identity() + Mat3.identity()

    def test_product_with_another_class_is_refused(self):
        with pytest.raises(TypeError, match="Mat2 does not combine with Mat3"):
            Mat2.identity() @ Mat3.identity()
        with pytest.raises(TypeError, match="Mat3 does not combine with Mat2"):
            Mat3.identity() @ Mat2.identity()
        with pytest.raises(TypeError, match="Mat3 does not combine with Vec3"):
            Mat3.identity() @ Vec3([1, 2, 3])

    def test_vector_times_anything_but_a_mat3_is_refused(self):
        for other in (Mat2.identity(), Vec3([1, 2, 3])):
            with pytest.raises(TypeError, match="Vec3 does not combine with"):
                Vec3([1, 2, 3]) @ other

    def test_cross_with_anything_but_a_vector_is_refused(self):
        with pytest.raises(TypeError, match="Vec3 does not combine with Mat3"):
            Vec3([1, 2, 3]).cross(Mat3.identity())

    def test_scale_by_a_scalar_of_the_other_kind_is_refused(self):
        with pytest.raises(ValueError, match="mixed exact and floating entries"):
            Mat3.identity().scale(0.5)
        with pytest.raises(ValueError, match="mixed exact and floating entries"):
            Mat3.identity(exact=False).scale(GaussianRational(1, 2))
        with pytest.raises(ValueError, match="mixed exact and floating coordinates"):
            Vec3([1, 2, 3]).scale(1j)
        # an int scales either kind
        assert Mat3.identity().scale(2) == Mat3.diag(2, 2, 2)
        assert Vec3([1.0, 0, 0]).scale(-3) == Vec3([-3.0, 0.0, 0.0])


class TestFloatingConstruction:
    """All-complex finite entries take the fast path; anything else takes
    the general one, with its conversions and messages."""

    def test_all_complex_entries(self):
        rows = [[1 + 2j, -0.0 + 0j, 3j], [0j, complex(-0.0, -0.0), 2 + 0j], [1j, 0j, -1 + 0j]]
        M = Mat3(rows)
        assert M.kind == linalg.FLOATING
        assert [_bits(z) for z in M.entries] == [_bits(z) for r in rows for z in r]

    @pytest.mark.parametrize("bad", [complex(math.nan, 0), complex(0, math.inf), complex(-math.inf, 1)])
    def test_non_finite_complex_is_refused(self, bad):
        with pytest.raises(ValueError, match=r"non-finite value in entries: " + re.escape(repr(bad))):
            Mat3([[1j, 0j, 0j], [0j, bad, 0j], [0j, 0j, 1j]])
        with pytest.raises(ValueError, match=r"non-finite value in coordinates: " + re.escape(repr(bad))):
            Vec3([1j, 2j, bad])

    def test_complex_with_exact_is_refused(self):
        for other in (IM, Fraction(1, 2)):
            with pytest.raises(ValueError, match="mixed exact and floating entries"):
                Mat3([[1j, 0j, 0j], [0j, other, 0j], [0j, 0j, 1j]])

    def test_floats_and_ints_beside_complex_become_complex(self):
        M = Mat3([[1j, 2.5, -0.0], [3, 0j, 0j], [0j, 0j, 1j]])
        assert M.kind == linalg.FLOATING and all(type(z) is complex for z in M.entries)
        assert [_bits(z) for z in M.entries[:4]] == [_bits(1j), _bits(2.5 + 0j), _bits(complex(-0.0)), _bits(3 + 0j)]
        F = Mat3([[1.0, 0.0, -0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
        assert F.kind == linalg.FLOATING and F == Mat3.diag(1 + 0j, 2 + 0j, 3 + 0j)
        with pytest.raises(ValueError, match="non-finite value in entries: nan"):
            Mat3([[1j, 0j, 0j], [0j, math.nan, 0j], [0j, 0j, 1j]])


class TestDerivedForms:
    """A form is computed once per value and kept on it; values with equal
    entries share nothing."""

    def test_a_form_is_computed_once(self):
        calls = []

        def form(value):
            calls.append(value)
            return object()

        A = Mat3([[1, 2, 3], [4, 5, 6], [7, 8, IM]])
        first = A.derived(form)
        assert A.derived(form) is first and calls == [A]

    def test_equal_values_share_no_state(self):
        import copy
        import pickle

        A = Mat3([[1, gr(2, 3), 3], [4, 5, 6], [7, 8, IM]])
        kept = A.derived(linalg.numerator_form)
        A.keep(str, "kept on A only")
        others = [Mat3(A.rows), -(-A), A + Mat3.zero(), copy.copy(A), copy.deepcopy(A),
                  pickle.loads(pickle.dumps(A))]
        for B in others:
            assert B == A and B is not A
            assert B.derived(str) == str(B)
            got = B.derived(linalg.numerator_form)
            assert got == kept and got is not kept
        assert A.derived(str) == "kept on A only"

    @pytest.mark.parametrize("value", [
        Mat3([[1, gr(2, 3), 3], [4, gr(Fraction(1, 5), 1), 6], [7, 8, IM]]),
        Mat3.diag(1 + 0j, -0.0 + 2j, 0.5j),
        Vec3([gr(Fraction(1, 4)), 0, IM]),
    ])
    def test_numerator_form_is_the_numerator_vectors(self, value):
        assert value.derived(linalg.numerator_form) == linalg.numerator_vectors(value.entries)

    def test_keep_hands_a_result_to_derived(self):
        A = Mat3.identity()
        A.keep(linalg.numerator_form, "handed")
        assert A.derived(linalg.numerator_form) == "handed"
        assert Mat3.identity().derived(linalg.numerator_form) == linalg.numerator_vectors(A.entries)


# -- basic matrix operations -----------------------------------------------


class TestBasicOps:
    def test_transpose_identity(self):
        I = Mat3.identity()
        assert I.transpose() == I

    def test_transpose_single_entry(self):
        A = Mat3([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        assert A.transpose() == Mat3([[0, 0, 0], [1, 0, 0], [0, 0, 0]])

    @given(exact_mats)
    def test_transpose_involution(self, A):
        assert A.transpose().transpose() == A

    def test_adjugate_identity(self):
        assert Mat3.identity().adjugate() == Mat3.identity()

    def test_adjugate_minus_identity(self):
        # adj(A) = det(A) A^-1 = (-1)(-I) = I
        assert (-Mat3.identity()).adjugate() == Mat3.identity()

    def test_adjugate_diagonal(self):
        a, b, c = gr(2), gr(3), gr(5)
        assert Mat3.diag(a, b, c).adjugate() == Mat3.diag(b * c, c * a, a * b)

    @given(exact_mats)
    def test_adjugate_defining_identity(self, A):
        d = A.det()
        assert A @ A.adjugate() == Mat3.diag(d, d, d)
        assert A.adjugate() @ A == Mat3.diag(d, d, d)

    @given(exact_mats)
    def test_adjugate_commutes_with_transpose(self, A):
        assert A.transpose().adjugate() == A.adjugate().transpose()

    def test_trace_minus_identity(self):
        assert (-Mat3.identity()).trace() == gr(-3)

    @given(exact_mats, exact_mats)
    def test_det_multiplicative_trace_cyclic(self, A, B):
        assert (A @ B).det() == A.det() * B.det()
        assert (A @ B).trace() == (B @ A).trace()

    @given(exact_mats)
    def test_cayley_hamilton(self, A):
        c2, c1, c0 = A.char_poly()
        acc = A @ A @ A + (A @ A).scale(c2) + A.scale(c1) + Mat3.identity().scale(c0)
        assert acc.is_zero()

    def test_mixed_kind_rejected(self):
        with pytest.raises(ValueError):
            Mat3([[gr(1), 0.5, 0], [0, 0, 0], [0, 0, 0]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Mat3([[float("nan"), 0.0, 0], [0, 0, 0], [0, 0, 0]])


class TestCharPoly:
    def test_zero(self):
        assert Mat3.zero().char_poly() == (gr(0), gr(0), gr(0))

    def test_minus_identity(self):
        # (x+1)^3 = x^3 + 3x^2 + 3x + 1
        assert (-Mat3.identity()).char_poly() == (gr(3), gr(3), gr(1))

    def test_diag_123(self):
        # (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
        assert Mat3.diag(1, 2, 3).char_poly() == (gr(-6), gr(11), gr(-6))


# -- rank --------------------------------------------------------------------


def family3_rep():
    p = GaussianRational(Fraction(-1, 2), Fraction(-1, 2))
    q = GaussianRational(Fraction(-1, 2), Fraction(1, 2))
    return Mat3([[-1, 0, 0], [0, p, q], [0, p, q]])


def family5_rep():
    return Mat3(
        [
            [gr(Fraction(-1, 2), 1), gr(1, Fraction(-1, 2)), 0],
            [gr(1, Fraction(1, 2)), gr(Fraction(-1, 2), -1), 0],
            [0, 0, 0],
        ]
    )


class TestRank:
    def test_zero_matrix(self):
        assert Mat3.zero().rank() == 0
        assert Mat3.zero(exact=False).rank() == 0
        # threshold 0 (floor 0): rank 0, nearest value 0, and no warning
        assert Mat3.zero(exact=False).rank(1e-8, 0.0) == 0
        rows = rank_decisions(np.zeros((2, 3)), 1e-8, np.array([0.0, 1.0]))
        assert rows == [(0, 0.0, 0.0), (0, 0.0, 1e-8)]

    def test_neighbours_of_the_threshold_match_the_whole_row(self):
        # random descending rows over many decades, with zeros, repeated
        # values and values on the threshold, against the loop over every
        # value that the rule replaced
        rng = np.random.default_rng(20261020)
        rows = []
        for n in (3, 9):
            sv = 10 ** rng.uniform(-14, 3, (400, n))
            sv[rng.random((400, n)) < 0.2] = 0.0
            repeat = rng.random((400, n)) < 0.2
            sv[:, 1:][repeat[:, 1:]] = sv[:, :-1][repeat[:, 1:]]
            sv[:40] = 0.0
            sv[40:80, -1] = 1e-8 * np.maximum(sv[40:80].max(axis=1), 1.0)
            rows.append(-np.sort(-sv, axis=1))
        for sv in rows:
            floors = 10 ** rng.uniform(-6, 6, len(sv))
            for tol, floor in ((1e-10, 1.0), (1e-8, 0.0), (1e-8, 1.0), (1e-6, floors),
                               (1e-3, floors * 0), (0.5, floors)):
                want = reference_rank_decisions(sv, tol, floor)
                assert rank_decisions(sv, tol, floor) == want, (tol, floor)

    def test_family3_rank2(self):
        # rows 2 and 3 agree, row 1 independent
        assert family3_rep().rank() == 2

    def test_family5_rank1(self):
        # row 2 is a scalar multiple of row 1: both entry products are 5/4
        A = family5_rep()
        assert A[0, 0] * A[1, 1] == gr(Fraction(5, 4))
        assert A[0, 1] * A[1, 0] == gr(Fraction(5, 4))
        assert A.rank() == 1

    def test_floor_scales_the_threshold(self):
        M = Mat3.diag(1e-9 + 0j, 1e-9 + 0j, 1e-9 + 0j)
        assert M.rank(1e-8) == M.rank(1e-8, 0.0) == 3
        # noise of a derived matrix: the floor carries the scale of its source
        assert M.rank(1e-8, 1.0) == 0
        # a floor below sigma_max changes nothing
        N = Mat3.diag(1.0 + 0j, 1e-9 + 0j, 0j)
        assert N.rank(1e-8, 0.5) == N.rank(1e-8) == 1

    def test_exact_rank_requires_zero_tol(self):
        with pytest.raises(ValueError):
            Mat3.identity().rank(1e-8)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_exact_matches_floating(self, seed):
        # entries of magnitude in [1e-3, 1e3]; the two rank paths must agree
        rng = np.random.default_rng(seed)
        rows = []
        for _ in range(3):
            row = []
            for _ in range(3):
                if rng.random() < 0.25:
                    row.append(GaussianRational(0))
                else:
                    num = int(rng.integers(-999, 1000)) or 1
                    den = int(rng.integers(1, 1000))
                    num2 = int(rng.integers(-999, 1000))
                    den2 = int(rng.integers(1, 1000))
                    row.append(
                        GaussianRational(Fraction(num, den), Fraction(num2, den2))
                    )
            rows.append(row)
        A = Mat3(rows)
        assert A.rank() == A.to_floating().rank(1e-8)


class TestRankNumerators:
    """The fraction-free rank on Gaussian-integer pairs.  Every Bareiss
    division must be exact: the routine raises ArithmeticError on a
    remainder, so each case also checks that none occurred."""

    @staticmethod
    def known_rank(rng, m, n, r, bound):
        """U V for U (m x r) and V (r x n) with Gaussian-integer parts up to
        ``bound``, of rank exactly r: U holds the identity at r random
        rows and V at r random columns."""

        def draw():
            return int(rng.integers(-bound, bound + 1)), int(rng.integers(-bound, bound + 1))

        U = [[draw() for _ in range(r)] for _ in range(m)]
        V = [[draw() for _ in range(n)] for _ in range(r)]
        rows, cols = rng.choice(m, r, replace=False), rng.choice(n, r, replace=False)
        for k, (i, j) in enumerate(zip(rows.tolist(), cols.tolist())):
            U[i] = [(int(c == k), 0) for c in range(r)]
            for c in range(r):
                V[c][j] = (int(c == k), 0)
        columns = [[V[k][j] for k in range(r)] for j in range(n)]
        M = [
            [
                (
                    sum(a * c - b * d for (a, b), (c, d) in zip(row, col)),
                    sum(a * d + b * c for (a, b), (c, d) in zip(row, col)),
                )
                for col in columns
            ]
            for row in U
        ]
        return M, draw

    @pytest.mark.parametrize("seed", range(40))
    def test_products_of_known_rank(self, seed):
        rng = np.random.default_rng(seed)
        padded = seed % 2 == 1
        # padding adds a row and two columns, up to the 18x9 congruence system
        m, n = int(rng.integers(1, 18 - padded)), int(rng.integers(1, 10 - 2 * padded))
        if seed < 4:
            m, n = 18 - padded, 9 - 2 * padded
        r = int(rng.integers(0, min(m, n) + 1))
        M, draw = self.known_rank(rng, m, n, r, 10**6)
        if padded:
            # a zero first row makes the first pivot a swap; a zero first
            # column, and a multiple of the column before it, are skipped
            (p, q) = draw()
            M = [[(0, 0)] * n] + M
            M = [[(0, 0), x, (p * x[0] - q * x[1], p * x[1] + q * x[0]), *rest] for x, *rest in M]
        reference = [[Ref(a, b) for a, b in row] for row in M]
        assert rank_numerators(M) == reference_rank(reference) == r
        assert rank_numerators([list(col) for col in zip(*M)]) == r

    def test_square_and_degenerate_shapes(self):
        assert rank_numerators([]) == 0
        assert rank_numerators([[(0, 0)] * 4] * 3) == 0
        assert rank_numerators([[(0, 0), (0, 1)], [(0, 0), (2, 0)]]) == 1
        assert rank_numerators([[(0, 0), (1, 0)], [(1, 0), (0, 0)]]) == 2


# -- eigenvalues and Jordan signatures ---------------------------------------


def eigenvalues(A):
    """The eigenvalues of A with repetition, as ``jordan_signature`` reports
    them: each cluster's mean, once per unit of its block sizes."""
    return [lam for lam, blocks in jordan_signature(A).entries for _ in range(sum(blocks))]


class TestEigenvalues:
    def test_minus_identity(self):
        vals = eigenvalues(-Mat3.identity(exact=False))
        assert len(vals) == 3 and all(abs(v + 1) < 1e-12 for v in vals)

    def test_diag(self):
        vals = eigenvalues(Mat3.diag(1.0, 2.0, 3.0))
        assert np.allclose(sorted(v.real for v in vals), [1, 2, 3])

    def test_family3(self):
        # block has trace -1 and determinant 0, so eigenvalues are -1,-1,0
        vals = sorted(eigenvalues(family3_rep().to_floating()), key=lambda z: z.real)
        assert abs(vals[0] + 1) < 1e-8 and abs(vals[1] + 1) < 1e-8
        assert abs(vals[2]) < 1e-8

    def test_exact_input_rejected(self):
        with pytest.raises(TypeError, match="use to_floating"):
            eigenvalues(Mat3.identity())

    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_against_numpy(self, seed):
        rng = np.random.default_rng(seed)
        A = Mat3.from_numpy(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        ours = sorted(eigenvalues(A), key=lambda z: (z.real, z.imag))
        ref = sorted(np.linalg.eigvals(A.to_numpy()), key=lambda z: (z.real, z.imag))
        assert all(abs(a - b) < 1e-8 * max(1, abs(b)) for a, b in zip(ours, ref))


class TestJordanSignature:
    def test_minus_identity(self):
        sig = jordan_signature(-Mat3.identity(exact=False))
        assert len(sig.entries) == 1
        lam, blocks = sig.entries[0]
        assert abs(lam + 1) < 1e-9 and blocks == (1, 1, 1)

    def test_nilpotent_two_block(self):
        # the 2x2 block is nonzero with square zero: nilpotent of index 2
        A = Mat3([[1j, 1, 0], [1, -1j, 0], [0, 0, 0]])
        sig = jordan_signature(A)
        assert len(sig.entries) == 1
        lam, blocks = sig.entries[0]
        assert abs(lam) < 1e-9 and blocks == (2, 1)

    def test_diag_123(self):
        sig = jordan_signature(Mat3.diag(1.0, 2.0, 3.0))
        assert [b for _, b in sig.entries] == [(1,), (1,), (1,)]
        assert np.allclose([complex(l).real for l, _ in sig.entries], [1, 2, 3])

    def test_ambiguous_clustering_raises(self):
        # gap 5e-4 sits between the effective tolerance and ten times it
        A = Mat3.diag(1.0, 1.0 + 5e-4, 3.0)
        with pytest.raises(IllConditioned):
            jordan_signature(A)

    @pytest.mark.parametrize("blocks", [(3,), (2, 1)])
    def test_blocks_at_a_non_real_eigenvalue(self, blocks):
        # lam*I plus a nilpotent part with the given blocks, in a rotated basis
        lam = 2 + 1j
        N = np.diag([1.0, 1.0 if blocks == (3,) else 0.0], k=1)
        T = so3c.random_so3(4).to_numpy()
        sig = jordan_signature(Mat3.from_numpy(T.T @ (lam * np.eye(3) + N) @ T))
        assert len(sig.entries) == 1
        mean, found = sig.entries[0]
        assert abs(mean - lam) < 1e-9 and found == blocks

    def test_exact_needs_eigenvalues(self):
        with pytest.raises(TypeError):
            jordan_signature(Mat3.identity())


# -- symmetric split ---------------------------------------------------------


class TestSymmetricSplit:
    def test_symmetric_fixed_point(self):
        S = Mat3([[1, 2, 3], [2, 4, 5], [3, 5, 6]])
        assert S.sym_part() == S
        assert (S - S.transpose()).is_zero()

    def test_family5_sym_part(self):
        # off-diagonal entries (1 - i/2) and (1 + i/2) average to 1
        expected = Mat3(
            [
                [gr(Fraction(-1, 2), 1), 1, 0],
                [1, gr(Fraction(-1, 2), -1), 0],
                [0, 0, 0],
            ]
        )
        assert family5_rep().sym_part() == expected

    def test_antisym_identity(self):
        assert (Mat3.identity() - Mat3.identity().transpose()).is_zero()

    @given(exact_mats)
    def test_reconstruction(self, A):
        K = (A - A.transpose()).scale(gr(Fraction(1, 2)))
        assert A.sym_part() + K == A
        assert A.sym_part().transpose() == A.sym_part()
        assert K.transpose() == -K

    @given(
        st.lists(gaussians, min_size=3, max_size=3),
        st.lists(gaussians, min_size=3, max_size=3),
    )
    def test_rank1_symmetry_criteria(self, a, b):
        av, bv = Vec3(a), Vec3(b)
        if av.is_zero() or bv.is_zero():
            return
        A = Mat3([[x * y for y in bv] for x in av])
        assert A.sym_part().rank() >= 1
        symmetric = A == A.transpose()
        assert symmetric == (A - A.transpose()).is_zero()
        parallel = all(
            av[i] * bv[j] == av[j] * bv[i] for i in range(3) for j in range(3)
        )
        assert symmetric == parallel

    def test_frobenius_norm(self):
        assert Mat3.identity().frobenius_norm() == pytest.approx(math.sqrt(3))
        assert Mat3.zero().frobenius_norm() == 0.0

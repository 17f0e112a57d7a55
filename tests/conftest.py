import math
from fractions import Fraction

import numpy as np
import pytest

from postlie_sl2 import mateq, so3c
from postlie_sl2.cli import VERIFY_K_SAMPLES as K_SAMPLES
from postlie_sl2.linalg import EXACT, GaussianRational, IM, Mat3, Vec3
from postlie_sl2.sl2 import LIE_BRACKET, IdentityViolation, StructureConstants, bracket
from postlie_sl2.symcanon import FormKind, form


def gr(re, im=0):
    """Shorthand for exact scalars from ints/Fractions."""
    return GaussianRational(re, im)


def half(sign=1):
    return GaussianRational(Fraction(sign, 2))


def ihalf(sign=1):
    return GaussianRational(0, Fraction(sign, 2))


FIVE_TAGS = (
    mateq.FamilyTag.zero(),
    mateq.FamilyTag.minus_identity(),
    mateq.FamilyTag.trace_minus_2(),
    mateq.FamilyTag.k_family(IM),
    mateq.FamilyTag.non_sym_rank1(),
)


#: one sample of each symmetric canonical form, with distinct eigenvalues
SAMPLE_FORMS = [
    form(FormKind.RANK3_DIAG, 1, 2, 3),
    form(FormKind.RANK3_ONE_BLOCK, 1, 2),
    form(FormKind.RANK3_BIG_BLOCK, 1),
    form(FormKind.RANK2_DIAG, 1, 2),
    form(FormKind.RANK2_BLOCK, 1),
    form(FormKind.RANK2_NILP, 1),
    form(FormKind.RANK2_BIG_NILP),
    form(FormKind.RANK1_DIAG, 1),
    form(FormKind.RANK1_NILP),
    form(FormKind.ZERO_FORM),
]

#: forms with one nonzero eigenvalue carrying several Jordan blocks
REPEATED_EIGENVALUE_FORMS = [
    form(FormKind.RANK3_DIAG, 2, 2, 2),
    form(FormKind.RANK3_DIAG, 1, 1, 2),
    form(FormKind.RANK3_DIAG, 1, 2, 2),
    form(FormKind.RANK3_ONE_BLOCK, 2, 2),
    form(FormKind.RANK2_DIAG, 3, 3),
]


def sampled_tags():
    """The five families with the KFamily parameter swept over K_SAMPLES."""
    tags = [
        mateq.FamilyTag.zero(),
        mateq.FamilyTag.minus_identity(),
        mateq.FamilyTag.trace_minus_2(),
        mateq.FamilyTag.non_sym_rank1(),
    ]
    tags.extend(mateq.FamilyTag.k_family(k) for k in K_SAMPLES)
    return tags


def finite_difference_jacobian(A: Mat3, h: float = 1e-6) -> np.ndarray:
    """Central differences of ``mateq.residual`` over the 18 real
    coordinates: real parts of the row-major entries, then imaginary parts."""
    a = A.to_numpy().ravel()

    def f(z):
        r = mateq.residual(Mat3.from_numpy(z.reshape(3, 3))).to_numpy().ravel()
        return np.concatenate([r.real, r.imag])

    fd = np.zeros((18, 18))
    for i in range(18):
        e = np.zeros(9, dtype=complex)
        e[i % 9] = h if i < 9 else 1j * h
        fd[:, i] = (f(a + e) - f(a - e)) / (2 * h)
    return fd


# Reference identity checkers: the identities evaluated term by term with
# Vec3 arithmetic through the bilinear extension of each product.  The
# package's checkers contract integer pairs instead and must return equal
# violation lists.


def _reference_apply(c, x: Vec3, y: Vec3) -> Vec3:
    """The bilinear extension x o y of the structure constants ``c``."""
    out = Vec3.zero(exact=c.kind == EXACT)
    for i in range(3):
        for j in range(3):
            if x[i] and y[j]:
                out = out + c.product(i, j).scale(x[i] * y[j])
    return out


def _reference_record(violations, identity, indices, residual: Vec3, tol):
    if residual.kind == EXACT:
        failed = not residual.is_zero()
    else:
        failed = residual.max_abs() > tol
    if failed:
        violations.append(IdentityViolation(identity, indices, residual))


def _reference_basis(kind):
    return [Vec3.basis(i, exact=kind == EXACT) for i in range(3)]


def reference_derived_bracket(c):
    """{x,y} = x o y - y o x + [x,y] table by table, on Vec3 products."""
    br = LIE_BRACKET if c.kind == EXACT else LIE_BRACKET.to_floating()
    return StructureConstants(
        [[c.product(i, j) - c.product(j, i) + br.product(i, j) for j in range(3)] for i in range(3)]
    )


def reference_check_postlie(c, tol=1e-9):
    es = _reference_basis(c.kind)
    br = LIE_BRACKET if c.kind == EXACT else LIE_BRACKET.to_floating()
    violations = []
    for a in range(3):
        x = es[a]
        for b in range(3):
            y = es[b]
            for d in range(3):
                z = es[d]
                r = (
                    _reference_apply(c, z, c.product(b, a))
                    - _reference_apply(c, y, c.product(d, a))
                    + _reference_apply(c, c.product(b, d), x)
                    - _reference_apply(c, c.product(d, b), x)
                    + _reference_apply(c, br.product(b, d), x)
                )
                _reference_record(violations, "postlie-3", (a + 1, b + 1, d + 1), r, tol)
                r = (
                    _reference_apply(c, z, br.product(a, b))
                    - bracket(c.product(d, a), y)
                    - bracket(x, c.product(d, b))
                )
                _reference_record(violations, "postlie-4", (a + 1, b + 1, d + 1), r, tol)
    return violations


def reference_check_jacobi(b, tol=1e-9):
    es = _reference_basis(b.kind)
    violations = []
    for i in range(3):
        for j in range(3):
            r = b.product(i, j) + b.product(j, i)
            _reference_record(violations, "antisymmetry", (i + 1, j + 1), r, tol)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                r = (
                    _reference_apply(b, b.product(i, j), es[k])
                    + _reference_apply(b, b.product(k, i), es[j])
                    + _reference_apply(b, b.product(j, k), es[i])
                )
                _reference_record(violations, "jacobi", (i + 1, j + 1, k + 1), r, tol)
    return violations


def reference_check_rota_baxter(A, tol=1e-9):
    es = _reference_basis(A.kind)
    f = [A.row(i) for i in range(3)]
    violations = []
    for i in range(3):
        for j in range(3):
            lhs = bracket(f[i], f[j])
            inner = bracket(f[i], es[j]) + bracket(es[i], f[j]) + bracket(es[i], es[j])
            _reference_record(violations, "rota-baxter", (i + 1, j + 1), lhs - inner @ A, tol)
    return violations


# Reference Gaussian rationals: the scalar as a pair of Fractions, each
# operation written out on the components.  The package stores one Gaussian
# integer over one denominator instead and must agree with this class on
# every operation.


class ReferenceGaussianRational:
    """Exact complex scalar ``re + im*i`` with ``Fraction`` components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, (float, complex)) or isinstance(im, (float, complex)):
            raise TypeError("exact scalars need rational components")
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def _coerce(value):
        if isinstance(value, ReferenceGaussianRational):
            return value
        if isinstance(value, (float, complex)):
            return None
        try:
            return ReferenceGaussianRational(value)
        except (TypeError, ValueError):
            return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ReferenceGaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ReferenceGaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ReferenceGaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ReferenceGaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if not d:
            raise ZeroDivisionError("division by zero GaussianRational")
        return ReferenceGaussianRational(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return ReferenceGaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def conjugate(self):
        return ReferenceGaussianRational(self.re, -self.im)

    def abs_squared(self):
        return self.re * self.re + self.im * self.im

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    __complex__ = to_complex

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __repr__(self):
        return f"GaussianRational('{self.re}', '{self.im}')"


# Reference 3x3 algebra on nested lists of ReferenceGaussianRational, or of
# complex for the floating cross-checks.


def reference_matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


def reference_transpose(a):
    return [[a[j][i] for j in range(3)] for i in range(3)]


def reference_det(a):
    return (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )


def reference_adjugate(a):
    def cofactor(i, j):
        rs = [k for k in range(3) if k != i]
        cs = [k for k in range(3) if k != j]
        m = a[rs[0]][cs[0]] * a[rs[1]][cs[1]] - a[rs[0]][cs[1]] * a[rs[1]][cs[0]]
        return m if (i + j) % 2 == 0 else -m

    return [[cofactor(j, i) for j in range(3)] for i in range(3)]


def reference_trace(a):
    return a[0][0] + a[1][1] + a[2][2]


def reference_char_poly(a):
    return (-reference_trace(a), reference_trace(reference_adjugate(a)), -reference_det(a))


def reference_residual(a):
    """A'((tr A + 1) I - A) - A* in reference arithmetic."""
    s = reference_trace(a) + 1
    shifted = [[(s if i == j else 0) - a[i][j] for j in range(3)] for i in range(3)]
    product = reference_matmul(reference_transpose(a), shifted)
    adj = reference_adjugate(a)
    return [[product[i][j] - adj[i][j] for j in range(3)] for i in range(3)]


def rank2_identity(A: Mat3) -> Mat3:
    """(tr A + 1) A'A - A'A A, which vanishes on every solution with
    det A = 0 (proved in tests/test_theorem.py)."""
    ata = A.transpose() @ A
    return ata.scale(A.trace() + 1) - ata @ A


def rank1_identity(A: Mat3) -> Mat3:
    """(tr A + 1) A' - A'A, which vanishes on every solution of rank at
    most 1 (proved in tests/test_theorem.py)."""
    return A.transpose().scale(A.trace() + 1) - A.transpose() @ A


def reference_rank(a):
    """Rank by Gaussian elimination over the field, for rows of any shape."""
    m = [list(r) for r in a]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][col] / m[rank][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def exact_congruate(tag_or_matrix, seed):
    """An exact SO(3,C)-congruate; stays inside the Gaussian-rational field."""
    A = (
        mateq.representative(tag_or_matrix)
        if isinstance(tag_or_matrix, mateq.FamilyTag)
        else tag_or_matrix
    )
    T = so3c.random_so3_exact(seed)
    return mateq.congruate(A, T)


@pytest.fixture(scope="session")
def survey_500():
    """The multistart survey shared by the rediscovery-related criteria."""
    from postlie_sl2 import solver

    return solver.multistart(500, seed=20260810, radius=2.0)


def reference_solve_rows(starts) -> list:
    """One ``solver.SolveResult`` per row of a complex (N,3,3) array of
    starts, from one batched Newton call; the converged rows are classified
    together, as ``multistart`` classifies a block, and a row that fails to
    classify gets no classification."""
    from postlie_sl2 import solver

    tol = solver.DEFAULT_NEWTON_TOL
    A, norm, iterations, regularised, stalled = solver._newton(starts, solver.DEFAULT_MAX_ITER, tol)
    converged = norm < tol
    reports = dict(zip(np.flatnonzero(converged).tolist(), mateq.classify_stack(A[converged])))
    return [
        solver.SolveResult(
            A_final=Mat3.from_numpy(A[row]),
            residual_norm=float(norm[row]),
            iterations=int(iterations[row]),
            converged=bool(converged[row]),
            regularised_steps=int(regularised[row]),
            stalled=bool(stalled[row]),
            classification=(
                reports[row] if isinstance(reports.get(row), mateq.ClassificationReport) else None
            ),
        )
        for row in range(len(A))
    ]


@pytest.fixture(scope="session")
def converged_points():
    """Converged runs on the starts of ``survey_500``, from one batched
    Newton call."""
    from postlie_sl2 import solver

    starts = solver._seeded_starts(20260810, range(500), 2.0)
    return [result for result in reference_solve_rows(starts) if result.converged]


def reference_jacobian(A: np.ndarray) -> np.ndarray:
    """The solver's Jacobians before they were gathered: entry ((i,j),(p,q))
    d_iq M_pj + d_pq S_ij - d_jq S_ip - d_ip A_qj + d_ij A_qp, each term one
    broadcast over the axes (row, i, j, p, q); shape (N,9,9)."""
    d = np.eye(3)
    t = np.trace(A, axis1=-2, axis2=-1)[:, None, None]
    At = np.swapaxes(A, -1, -2)
    M = (t + 1) * d - A
    S = At + A - t * d
    J = (
        np.swapaxes(M, -1, -2)[:, None, :, :, None] * d[:, None, None, :]
        + S[:, :, :, None, None] * d
        - S[:, :, None, :, None] * d[:, None, :]
        - At[:, None, :, None, :] * d[:, None, :, None]
        + At[:, None, None, :, :] * d[:, :, None, None]
    )
    return J.reshape(-1, 9, 9)


def reference_sylvester(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The congruence test's similarity system before it was gathered: the
    matrix of S -> (X S - S Y, X' S - S Y') under row-major vectorization,
    [X (x) I - I (x) Y'; X' (x) I - I (x) Y] for one pair of complex (3,3)
    arrays; shape (18,9)."""
    I = np.eye(3)
    return np.vstack([np.kron(X, I) - np.kron(I, Y.T), np.kron(X.T, I) - np.kron(I, Y)])


def reference_newton_step(A: np.ndarray, F: np.ndarray, norm: np.ndarray):
    """The solver's Newton step before its line search was batched: the same
    shifted normal-equations step on :func:`reference_jacobian`, then one
    residual call per halving of the damping, from 1 down to MIN_DAMPING."""
    from postlie_sl2 import solver

    n = len(A)
    J = reference_jacobian(A)
    f = F.reshape(n, 9, 1)
    JH = np.swapaxes(J.conj(), -1, -2)
    G = JH @ J
    shift = solver.LM_SHIFT * np.trace(G, axis1=-2, axis2=-1).real + solver.TIKHONOV_SHIFT
    step = np.linalg.solve(G + shift[:, None, None] * np.eye(9), -JH @ f)
    regularised = np.linalg.norm(J @ step + f, axis=(-2, -1)) > 1e-3 * norm
    step = step.reshape(n, 3, 3)
    A, F, norm = A.copy(), F.copy(), norm.copy()
    pending = np.arange(n)
    lam = 1.0
    while lam >= solver.MIN_DAMPING and pending.size:
        A_try = A[pending] + lam * step[pending]
        F_try = mateq.residual_array(A_try)
        n_try = np.linalg.norm(F_try, axis=(-2, -1))
        better = n_try < norm[pending]
        rows = pending[better]
        A[rows], F[rows], norm[rows] = A_try[better], F_try[better], n_try[better]
        pending = pending[~better]
        lam *= 0.5
    accepted = np.ones(n, dtype=bool)
    accepted[pending] = False
    return A, F, norm, accepted, regularised


def reference_classify_floating(A: Mat3, tol: float = mateq.DEFAULT_CLASSIFY_TOL):
    """Floating ``classify`` before the stacked classifier: cofactor Mat3
    residual, then one Mat3 rank at a time down the decision tree.  Returns
    the report without margins, and raises NotASolution and Inconclusive
    with the classifier's messages."""
    res_norm = mateq.residual(A).frobenius_norm()
    if res_norm >= tol:
        raise mateq.NotASolution(f"matrix equation residual {res_norm:.3e} exceeds {tol:.3e}")
    scale = max(float(np.linalg.norm(A.to_numpy(), 2)), 1.0)
    r = A.rank(tol, 1.0)
    invariants = [("rank(A)", r)]
    tag = None
    if r == 0:
        tag = mateq.FamilyTag.zero()
    elif r == 3:
        tag = mateq.FamilyTag.minus_identity()
    elif r == 1:
        shifted = A.sym_part() + Mat3.identity(exact=False).scale(0.5)
        s = shifted.rank(tol, scale)
        invariants.append(("rank(sym(A)+I/2)", s))
        if s == 1:
            tag = mateq.FamilyTag.k_family(0j)
        elif s == 2:
            tag = mateq.FamilyTag.non_sym_rank1()
    elif r == 2:
        t = A.trace()
        invariants.append(("tr(A)", t))
        if abs(complex(t) + 2) > tol:
            tag = mateq.FamilyTag.k_family(t + 1)
        else:
            ra = (A.transpose() @ A).rank(tol, scale**2)
            invariants.append(("rank(A'A)", ra))
            if ra == 2:
                tag = mateq.FamilyTag.trace_minus_2()
            elif ra == 1:
                tag = mateq.FamilyTag.k_family(t + 1)
    if tag is None:
        raise mateq.Inconclusive(f"no branch matches invariants {invariants}")
    return mateq.ClassificationReport(tag, float(res_norm), tuple(invariants))


def reference_rank_decisions(sv, tol, floor):
    """``linalg.rank_decisions`` before it read the threshold's two
    neighbours: the rank counts every value above the threshold, and the
    nearest value in ratio is the first minimum over the whole row."""
    rows = sv.tolist()
    floors = floor.tolist() if isinstance(floor, np.ndarray) else [floor] * len(rows)
    out = []
    for row, f in zip(rows, floors):
        threshold = tol * max(row[0], f)
        if not threshold:
            out.append((0, 0.0, 0.0))
            continue
        log_t = math.log(threshold)
        rank = sum(x > threshold for x in row)
        nearest = min(row, key=lambda x: abs(math.log(x) - log_t) if x > 0 else math.inf)
        out.append((rank, nearest, threshold))
    return out


def reference_polar_iterates(S: np.ndarray, max_iter: int = 60):
    """Newton's polar iteration X <- (X + X^-T)/2 on a complex (3,3) array,
    as the congruence test ran it in numpy: every iterate, and the defect
    max |X'X - I| of each; it stops as ``mateq._orthogonal_polar_factor``
    does."""
    X = S
    iterates = [X]
    defects = [float(np.abs(X.T @ X - np.eye(3)).max())]
    for _ in range(max_iter):
        if not defects[-1] >= 1e-12:
            break
        try:
            X = (X + np.linalg.inv(X).T) / 2
        except np.linalg.LinAlgError:
            break
        iterates.append(X)
        defects.append(float(np.abs(X.T @ X - np.eye(3)).max()))
    return iterates, defects


# The SO(3,C) membership and automorphism decisions as Mat3 formulas, the
# way the package computed them before its nine-entry kernel: T'T and the
# adjugate through nested lists, the determinant expanded along the first
# row, and the Frobenius norm as sqrt(sum |x|^2).


def _reference_frobenius(a) -> float:
    return math.sqrt(sum(abs(x) ** 2 for row in a for x in row))


def reference_is_special_orthogonal(T: Mat3, tol: float = 1e-8) -> bool:
    rows = [list(r) for r in T.rows]
    gram = reference_matmul(reference_transpose(rows), rows)
    det = reference_det(rows)
    if T.kind == EXACT:
        return all(gram[i][j] == (i == j) for i in range(3) for j in range(3)) and det == 1
    defect = _reference_frobenius([[gram[i][j] - (i == j) for j in range(3)] for i in range(3)])
    return defect <= tol and abs(det - 1) <= tol


def reference_automorphism_check(T: Mat3, tol: float = 1e-10) -> bool:
    rows = [list(r) for r in T.rows]
    lhs = reference_transpose(reference_adjugate(rows))
    if T.kind == EXACT:
        return lhs == rows
    return _reference_frobenius([[x - y for x, y in zip(p, q)] for p, q in zip(lhs, rows)]) <= tol

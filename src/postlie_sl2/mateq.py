"""The matrix equation A'((tr A + 1) I - A) = A* and its solution classes.

Provides the residual of the equation, exact on integer numerators over
one common denominator and floating on complex (3,3) arrays or stacks of
them (the one floating kernel, which every floating decision reads); the five
canonical solution families; the SO(3,C) congruence action; a congruence
decision procedure (the nullspace dimensions of the similarity equations
for (A, A), (A, B) and (B, B) decide non-congruence; otherwise a witness
is built as the orthogonal polar factor of a simultaneous similarity of
(A, A') and (B, B')); and the classifier that maps a solution to its
family.  The classifier has one decision tree from invariants to a
family.  Exact input reaches it through an integer zero test and exact
ranks; floating input, one matrix or a whole stack, through one stacked
pass that computes residuals, traces and ranks with batched SVDs and
reports how close each rank decision came to its threshold.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import so3c
from ._numpy import np
from .linalg import (
    EXACT, GaussianRational, Mat3, ad, cofactors, contract, frobenius_distance, gram,
    numerator_form, rank_decisions, rank_numerators, times,
)

__all__ = [
    "FamilyKind",
    "FamilyTag",
    "ClassificationReport",
    "CongruenceVerdict",
    "NotASolution",
    "Inconclusive",
    "residual",
    "residual_array",
    "is_solution",
    "representative",
    "congruate",
    "classify",
    "classify_stack",
    "congruence_test",
]

#: the residual norm below which ``is_solution`` answers True
DEFAULT_SOLUTION_TOL = 1e-9
#: the classifier's residual bound, relative rank threshold and |tr A + 2| bound
DEFAULT_CLASSIFY_TOL = 1e-6
#: bound on each witness defect and on ||A - B||_F for the identity witness
DEFAULT_WITNESS_TOL = 1e-8
DEFAULT_BUDGET = 64
#: singular values decide a nullspace dimension only when each lies this
#: factor or more away from the cutoff
NULLITY_GAP = 1e3
#: the rank invariants the classifier reads, by their names in a report
RANK_A = "rank(A)"
RANK_SHIFTED_SYM = "rank(sym(A)+I/2)"
RANK_ATA = "rank(A'A)"


class NotASolution(ValueError):
    """The matrix does not satisfy the matrix equation at the tolerance."""


class Inconclusive(ArithmeticError):
    """The rank/trace pattern matches no classification branch."""


class FamilyKind(enum.Enum):
    ZERO = "Zero"
    MINUS_IDENTITY = "MinusIdentity"
    TRACE_MINUS_2 = "TraceMinus2"
    K_FAMILY = "KFamily"
    NON_SYM_RANK1 = "NonSymRank1"


@dataclass(frozen=True)
class FamilyTag:
    """One of the five congruence classes; KFamily carries its parameter k."""

    kind: FamilyKind
    k: object | None = None

    def __post_init__(self):
        if (self.kind == FamilyKind.K_FAMILY) != (self.k is not None):
            raise ValueError("k is carried by KFamily tags and only by them")

    @classmethod
    def zero(cls):
        return cls(FamilyKind.ZERO)

    @classmethod
    def minus_identity(cls):
        return cls(FamilyKind.MINUS_IDENTITY)

    @classmethod
    def trace_minus_2(cls):
        return cls(FamilyKind.TRACE_MINUS_2)

    @classmethod
    def k_family(cls, k):
        if isinstance(k, (int, Fraction)):
            k = GaussianRational(k)
        return cls(FamilyKind.K_FAMILY, k)

    @classmethod
    def non_sym_rank1(cls):
        return cls(FamilyKind.NON_SYM_RANK1)

    def close_to(self, other: "FamilyTag", tol: float) -> bool:
        """Same kind, and for KFamily |k - k'| <= tol: exact parameters are
        compared by :func:`linalg.frobenius_distance`, others as ``complex``;
        a distance past the float range is inf."""
        if self.kind != other.kind:
            return False
        if self.kind != FamilyKind.K_FAMILY:
            return True
        a, b = self.k, other.k
        if isinstance(a, GaussianRational) and isinstance(b, GaussianRational):
            return frobenius_distance((a,), (b,)) <= tol
        try:
            return abs(complex(a) - complex(b)) <= tol
        except OverflowError:  # an exact parameter past the float range
            return math.inf <= tol


@dataclass(frozen=True)
class ClassificationReport:
    tag: FamilyTag
    residual_norm: float
    invariants_used: tuple
    witness: Mat3 | None = None
    #: (invariant, singular value nearest the threshold, threshold), one per
    #: floating rank decision in the order of ``invariants_used``; exact
    #: ranks have no margin
    margins: tuple = ()


@dataclass(frozen=True)
class CongruenceVerdict:
    """Outcome of the congruence decision procedure.

    ``congruent`` carries a verified witness, ``not_congruent`` the name of
    the separating invariant, ``unknown`` the number of failed witness
    attempts.  Unknown is a value, not an error: the witness search is
    one-sided.  ``nullities`` is set on every verdict: the pair (dims,
    decided) of the dimensions of {S : X S = S Y, X' S = S Y'} for
    (X, Y) = (A, A), (A, B) and (B, B) and whether each is decided; a
    dimension the SVD could not give is None.
    """

    status: str
    witness: Mat3 | None = None
    separating_invariant: str | None = None
    attempts: int | None = None
    nullities: tuple | None = None

    @classmethod
    def congruent(cls, T: Mat3, nullities: tuple):
        return cls("congruent", witness=T, nullities=nullities)

    @classmethod
    def not_congruent(cls, invariant: str, nullities: tuple):
        return cls("not_congruent", separating_invariant=invariant, nullities=nullities)

    @classmethod
    def unknown(cls, attempts: int, nullities: tuple):
        return cls("unknown", attempts=attempts, nullities=nullities)


# ---------------------------------------------------------------------------
# the equation


#: rows (and columns) i+1 and i+2, cyclically, for i = 0, 1, 2
_NEXT = [1, 2, 0]
_AFTER = [2, 0, 1]


def _residual_numerators(A: Mat3):
    """R D**2 = N'((tr N + D) I - N) - adj(N) for A = N / D, on the int pairs
    of :func:`linalg.numerator_form`, as rows of pairs; with N and D.
    Row i is column i of N times (tr N + D) I - N, plus column i+2 cross
    column i+1, which is minus row i of adj(N).  ``residual``,
    ``is_solution`` and ``classify`` read it through ``A.derived``, so an
    exact value computes it once."""
    N, D = A.derived(numerator_form)
    cols = list(zip(*N))
    trace = ((N[0][0][0] + N[1][1][0] + N[2][2][0] + D, N[0][0][1] + N[1][1][1] + N[2][2][1]),)
    neg = [times(c, -1) for c in cols]
    ads = [ad(c, n, (0, 0)) for c, n in zip(cols, neg)]
    R = [
        contract((trace, (c,)), (n, N), (cols[_AFTER[i]], ads[_NEXT[i]]))
        for i, (c, n) in enumerate(zip(cols, neg))
    ]
    return R, N, D


def residual(A: Mat3) -> Mat3:
    """A'((tr A + 1) I - A) - A*; zero exactly on matrices of PostLie products.
    Floating input is the one-matrix call of :func:`residual_array`."""
    if A.kind == EXACT:
        R, _, D = A.derived(_residual_numerators)
        return Mat3([[GaussianRational.from_numerators(*z, D * D) for z in row] for row in R])
    with np.errstate(over="ignore", invalid="ignore"):
        return Mat3.from_numpy(residual_array(A.to_numpy()))


def residual_array(A: np.ndarray) -> np.ndarray:
    """:func:`residual` on a complex (3,3) array or a stack of them, each
    matrix on its own.

    The adjugate is the cofactor matrix of A': entry (i, j) is the 2x2
    minor of A' on rows i+1, i+2 and columns j+1, j+2 (indices mod 3),
    whose cyclic order carries the cofactor sign.  No term cancels on a
    solution, so the residual of a solution of large norm stays at
    rounding level; an overflowing entry gives inf or nan, which callers
    must not read as small.
    """
    At = np.swapaxes(A, -1, -2)
    t = np.trace(A, axis1=-2, axis2=-1)[..., None, None]
    r1, r2 = At[..., _NEXT, :], At[..., _AFTER, :]
    adj = r1[..., _NEXT] * r2[..., _AFTER] - r1[..., _AFTER] * r2[..., _NEXT]
    return At @ ((t + 1) * np.eye(3) - A) - adj


def is_solution(A: Mat3) -> bool:
    """Exact matrices: residual is exactly zero.  Floating: the norm of
    :func:`residual_array` is below ``DEFAULT_SOLUTION_TOL``, which a
    residual that overflows to inf or nan never is."""
    if A.kind == EXACT:
        return not any(re or im for row in A.derived(_residual_numerators)[0] for re, im in row)
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.linalg.norm(residual_array(A.to_numpy())) < DEFAULT_SOLUTION_TOL)


# ---------------------------------------------------------------------------
# representatives


def _gr(re, im=0) -> GaussianRational:
    return GaussianRational(Fraction(*re) if isinstance(re, tuple) else re,
                            Fraction(*im) if isinstance(im, tuple) else im)


def representative(tag: FamilyTag) -> Mat3:
    """The canonical matrix of the family, with exact entries.

    For a KFamily tag whose parameter is floating, the matrix is returned
    in floating form instead.
    """
    kind = tag.kind
    if kind == FamilyKind.ZERO:
        return Mat3.zero()
    if kind == FamilyKind.MINUS_IDENTITY:
        return -Mat3.identity()
    if kind == FamilyKind.TRACE_MINUS_2:
        p = _gr((-1, 2), (-1, 2))  # -(1+i)/2
        q = _gr((-1, 2), (1, 2))  # (i-1)/2
        return Mat3([[-1, 0, 0], [0, p, q], [0, p, q]])
    if kind == FamilyKind.K_FAMILY:
        k = tag.k
        if isinstance(k, GaussianRational):
            return Mat3(
                [
                    [k, 0, 0],
                    [0, _gr((-1, 2)), _gr(0, (1, 2))],
                    [0, _gr(0, (-1, 2)), _gr((-1, 2))],
                ]
            )
        kc = complex(k)
        return Mat3(
            [
                [kc, 0j, 0j],
                [0j, -0.5 + 0j, 0.5j],
                [0j, -0.5j, -0.5 + 0j],
            ]
        )
    if kind == FamilyKind.NON_SYM_RANK1:
        return Mat3(
            [
                [_gr((-1, 2), 1), _gr(1, (-1, 2)), 0],
                [_gr(1, (1, 2)), _gr((-1, 2), -1), 0],
                [0, 0, 0],
            ]
        )
    raise ValueError(f"unknown family kind {kind!r}")


def congruate(A: Mat3, T: Mat3) -> Mat3:
    """T' A T for T in SO(3,C); solutions map to solutions.

    Raises :class:`so3c.NotOrthogonal` when T fails membership at
    ``DEFAULT_WITNESS_TOL``.
    """
    if not so3c.is_special_orthogonal(T, DEFAULT_WITNESS_TOL):
        raise so3c.NotOrthogonal("congruate needs T in SO(3,C)")
    if A.kind != T.kind:
        A, T = A.to_floating(), T.to_floating()
    return T.transpose() @ A @ T


# ---------------------------------------------------------------------------
# congruence decision procedure


def _sylvester_columns(block: int, i: int, j: int, p: int, q: int) -> tuple:
    """Columns of the gathered array (X, Y row-major, then a zero) that the
    two terms of entry ((block, i, j), (p, q)) of the similarity system
    read: X_ip d_jq - d_ip Y_qj in block 0, X_pi d_jq - d_ip Y_jq in block 1."""
    if block == 0:
        return (3 * i + p if j == q else 18, 9 + 3 * q + j if i == p else 18)
    return (3 * p + i if j == q else 18, 9 + 3 * j + q if i == p else 18)


@functools.cache
def _sylvester_tables() -> np.ndarray:
    """The gather tables of the three systems (A, A), (A, B) and (B, B)
    from [A row-major, B row-major, 0]: a (2,3,18,9) index array, one
    table per term, made on first use so that importing the module does
    not load numpy.  The (A, B) table is :func:`_sylvester_columns`; the
    (A, A) table reads A for Y, and the (B, B) table reads B for X."""
    entries = itertools.product(range(2), *[range(3)] * 4)
    ab = np.array([_sylvester_columns(*entry) for entry in entries], dtype=np.intp).T
    aa = np.where((ab >= 9) & (ab < 18), ab - 9, ab)
    bb = np.where(ab < 9, ab + 9, ab)
    return np.stack([aa, ab, bb], axis=1).reshape(2, 3, 18, 9)


def _similarity_systems(A, B) -> np.ndarray:
    """The matrices of S -> (X S - S Y, X' S - S Y') for (X, Y) = (A, A),
    (A, B) and (B, B), with S vectorized row-major, for two complex 3x3
    array-likes A and B: shape (3,18,9).

    Each term is one gather from the 19-vector [A row-major, B row-major,
    0], and each system is the difference of its two terms; it agrees with
    the Kronecker form [X (x) I - I (x) Y'; X' (x) I - I (x) Y] except in
    the sign of a zero.
    """
    V = np.concatenate([np.ravel(A), np.ravel(B), np.zeros(1)])
    first, second = _sylvester_tables()
    return V.take(first) - V.take(second)


def _congruence_nullities(A, B):
    """The dimensions of {S : X S = S Y, X' S = S Y'} for (X, Y) = (A, A),
    (A, B) and (B, B), whether each is decided, and a basis of the (A, B)
    space as a (dim,3,3) array, or None; A and B are complex 3x3
    array-likes.

    Every witness lies in the (A, B) space: transposing T'AT = B for an
    orthogonal T gives A'T = TB'.  The space is closed under S -> S^-T,
    and S'S commutes with B for each S in it.  The three systems are one
    gathered (3,18,9) stack (:func:`_similarity_systems`), and one batched
    SVD gives their singular values and the basis.  A dimension is the
    nullity by the rule of :func:`linalg.rank_decisions` at tol 1e-10 and
    floor 1; it is decided when the singular value nearest the cutoff lies
    a factor ``NULLITY_GAP`` or more away from it.  A stack that is not
    finite (an entry of A or B that is not, or a difference that
    overflows), or whose SVD fails or gives a non-finite value (entries
    near the float range), leaves all three dimensions undecided (None)
    and gives no basis, without a warning.
    """
    undecided = (None,) * 3, (False,) * 3, None
    with np.errstate(over="ignore", invalid="ignore"):
        M = _similarity_systems(A, B)
        if not np.isfinite(M).all():
            return undecided
        try:
            _, sv, vh = np.linalg.svd(M, full_matrices=False)
        except np.linalg.LinAlgError:  # no convergence near the float range
            return undecided
    if not np.isfinite(sv).all():
        return undecided
    decisions = rank_decisions(sv, 1e-10, 1.0)
    dims = tuple(9 - rank for rank, _, _ in decisions)
    decided = tuple(
        nearest <= cutoff / NULLITY_GAP or nearest >= cutoff * NULLITY_GAP
        for _, nearest, cutoff in decisions
    )
    return dims, decided, vh[1, decisions[1][0]:].conj().reshape(-1, 3, 3)


# The witness search holds a 3x3 matrix as its nine entries, row-major, as
# Python complex numbers, and reads the nine-entry kernel of ``linalg``
# (cofactors, X'Y, Frobenius distance): at this size numpy's per-call cost
# outweighs the arithmetic.  Overflow gives inf or nan, but abs() raises
# OverflowError when a modulus exceeds the float range.

_IDENTITY = (1, 0, 0, 0, 1, 0, 0, 0, 1)
_ZERO = (0,) * 9


def _orthogonal_polar_factor(S, max_iter: int = 60):
    """Newton's polar iteration X <- (X + X^-T)/2 from X = S, nine entries.

    It converges quadratically to Q = S (S'S)^(-1/2) when S'S has no
    eigenvalue on (-inf, 0]; then Q'Q = I, and Q'AQ = B for S in the
    nullspace above, since (S'S)^(-1/2) commutes with B.  X^-T is the
    cofactor matrix over det(X), and a singular iterate ends the
    iteration.  Returns the last iterate and the largest modulus of an
    entry of X'X - I.
    """
    X, defect = S, _orthogonality_defect(S)
    for _ in range(max_iter):
        if not defect >= 1e-12:  # converged, or no longer finite
            break
        cof, det = cofactors(X)
        try:
            X = [(x + y / det) * 0.5 for x, y in zip(X, cof)]
        except ZeroDivisionError:  # singular iterate
            break
        defect = _orthogonality_defect(X)
    return X, defect


def _orthogonality_defect(X) -> float:
    """The largest modulus of an entry of X'X - I, read on its six
    distinct entries (X'X is symmetric, bit for bit); nan when one is nan,
    which max() alone would skip."""
    a, b, c, d, e, f, g, h, i = X
    moduli = (
        abs(a * a + d * d + g * g - 1), abs(b * b + e * e + h * h - 1),
        abs(c * c + f * f + i * i - 1), abs(a * b + d * e + g * h),
        abs(a * c + d * f + g * i), abs(b * c + e * f + h * i),
    )
    total = sum(moduli)
    return total if total != total else max(moduli)


def _witness_from_start(basis: np.ndarray, A, B, seed: int, start: int):
    """The witness, as nine entries, from one seeded random member of the
    nullspace spanned by the (dim,3,3) array ``basis``, or None when its
    polar factor fails verification against the nine entries A and B at
    ``DEFAULT_WITNESS_TOL``; a singular iterate, a non-finite value or a
    modulus beyond the float range fails too."""
    rng = np.random.default_rng([seed, start])
    c0 = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    S0 = np.dot(c0, basis.reshape(len(basis), 9)).tolist()
    scale = frobenius_distance(S0, _ZERO)
    if scale < 1e-12:
        return None
    try:
        unit = math.sqrt(3.0) / scale
        S, defect = _orthogonal_polar_factor([x * unit for x in S0])
        if not defect <= 1e-10:
            return None
        det = cofactors(S)[1]
        if abs(det + 1) <= DEFAULT_WITNESS_TOL:
            S = [-x for x in S]  # odd dimension: -S is orthogonal with determinant +1
            det = cofactors(S)[1]
        # each check must pass, so a defect that is NaN rejects the witness
        if (
            abs(det - 1) <= DEFAULT_WITNESS_TOL
            and frobenius_distance(gram(S, S), _IDENTITY) <= DEFAULT_WITNESS_TOL
            and frobenius_distance(gram(gram(A, S), S), B) <= DEFAULT_WITNESS_TOL
        ):
            return S
    except OverflowError:  # a modulus beyond the float range
        pass
    return None


def congruence_test(
    A: Mat3, B: Mat3, budget: int = DEFAULT_BUDGET, seed: int = 0
) -> CongruenceVerdict:
    """Decide whether B = T' A T for some T in SO(3,C).

    A and B are orthogonally similar exactly when (A, A') and (B, B') are
    simultaneously similar (Byrnes and Gauger for a pair of matrices,
    extended to tuples by Friedland), that is, when the nullspaces of
    S -> (X S - S Y, X' S - S Y') for (X, Y) = (A, A), (A, B) and (B, B)
    have one dimension.  Unequal dimensions, each decided with a clear
    singular-value gap, give ``not_congruent``, naming the three
    dimensions.  B within ``DEFAULT_WITNESS_TOL`` of A is ``congruent``
    with the identity as witness.  Otherwise the orthogonal polar factor
    of a similarity S from the (A, B) nullspace is a witness: up to
    ``budget`` seeded random S go through Newton's polar iteration, and a
    verified witness gives ``congruent``.  When no start gives one, the
    verdict is ``unknown``.  Witnesses satisfy T'T = I, det T = 1 and
    T' A T = B to ``DEFAULT_WITNESS_TOL``.  Every verdict carries the three
    dimensions as ``nullities``.  Raises ``ValueError`` for a negative
    ``budget``.
    Exact operands are decided on floating copies (``ValueError`` when an
    entry is beyond the float range).
    """
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    A9, B9 = A.to_floating().entries, B.to_floating().entries
    dims, decided, basis = _congruence_nullities(A9, B9)
    nullities = (dims, decided)
    if frobenius_distance(A9, B9) <= DEFAULT_WITNESS_TOL:
        return CongruenceVerdict.congruent(Mat3.identity(exact=False), nullities)
    if all(decided) and len(set(dims)) > 1:
        invariant = "dim{S : XS = SY, X'S = SY'} for (A,A), (A,B), (B,B) = " + str(dims)
        return CongruenceVerdict.not_congruent(invariant, nullities)
    if basis is None or not len(basis):
        return CongruenceVerdict.unknown(0, nullities)
    for start in range(budget):
        S = _witness_from_start(basis, A9, B9, seed, start)
        if S is not None:
            return CongruenceVerdict.congruent(Mat3([S[0:3], S[3:6], S[6:9]]), nullities)
    return CongruenceVerdict.unknown(budget, nullities)


# ---------------------------------------------------------------------------
# classification


def _family_tag(rank_of, trace, at_minus_2: bool, exact: bool):
    """The decision tree from invariants to a family, shared by the exact
    and the floating classifier.

    ``rank_of(name)`` gives the rank named ``RANK_A``, ``RANK_SHIFTED_SYM``
    or ``RANK_ATA``, and is asked only for the ranks a branch reads:
    rank(A) splits the five families except for two ambiguous spots, which
    rank(sym(A) + I/2) (rank 1) and rank(A'A) (rank 2, trace -2) resolve.
    A KFamily member has k = tr(A) + 1.  Returns the tag and the invariants
    read, and raises :class:`Inconclusive` when no branch matches.
    """
    r = rank_of(RANK_A)
    invariants = [(RANK_A, r)]
    tag = None
    if r == 0:
        tag = FamilyTag.zero()
    elif r == 3:
        tag = FamilyTag.minus_identity()
    elif r == 1:
        s = rank_of(RANK_SHIFTED_SYM)
        invariants.append((RANK_SHIFTED_SYM, s))
        if s == 1:
            tag = FamilyTag.k_family(GaussianRational(0) if exact else 0j)
        elif s == 2:
            tag = FamilyTag.non_sym_rank1()
    elif r == 2:
        invariants.append(("tr(A)", trace))
        if not at_minus_2:
            tag = FamilyTag.k_family(trace + 1)
        else:
            ra = rank_of(RANK_ATA)
            invariants.append((RANK_ATA, ra))
            if ra == 2:
                tag = FamilyTag.trace_minus_2()
            elif ra == 1:
                tag = FamilyTag.k_family(trace + 1)
    if tag is None:
        raise Inconclusive(f"no branch matches invariants {invariants}")
    return tag, tuple(invariants)


def classify_stack(A: np.ndarray) -> list:
    """Floating classification of every matrix of a stack of finite complex
    (3,3) arrays, shape (N,3,3).

    Entry n of the list is the :class:`ClassificationReport` that
    :func:`classify` returns for ``A[n]``, or the :class:`NotASolution` or
    :class:`Inconclusive` it raises.  The residual and its norm, rank(A),
    tr(A) and the spectral scale max(||A||_2, 1) are computed for the
    whole stack, rank(A) from one batched SVD; a residual norm that is not
    finite is never a solution.  rank(sym(A) + I/2),
    floored at the scale, is computed only for the rows of rank 1, and
    rank(A'A), floored at the scale squared, only for the rows of rank 2
    with |tr(A) + 2| <= ``DEFAULT_CLASSIFY_TOL``; the SVD of a second rank
    runs only when some row reads it, and an empty stack runs none.  Each
    report lists one margin per rank decision: the singular value nearest
    the threshold, and the threshold.  A row's report does not depend on
    the other rows.
    """
    A = np.asarray(A, dtype=complex)
    tol = DEFAULT_CLASSIFY_TOL
    if not len(A):
        return []
    with np.errstate(over="ignore", invalid="ignore"):
        res_norm = np.linalg.norm(residual_array(A), axis=(-2, -1))
        # summed left to right as Mat3.trace does, so k = tr(A) + 1 is the same
        trace = A[:, 0, 0] + A[:, 1, 1] + A[:, 2, 2]
        at_minus_2 = np.abs(trace + 2) <= tol
    solution = res_norm < tol
    sv = np.linalg.svd(A, compute_uv=False)
    scale = np.maximum(sv[:, 0], 1.0)
    decisions = [{RANK_A: triple} for triple in rank_decisions(sv, tol, 1.0)]
    rank_a = np.array([got[RANK_A][0] for got in decisions], dtype=int)

    # the second ranks, each only on the rows whose branch reads it
    At = np.swapaxes(A, -1, -2)
    rows = np.flatnonzero(solution & (rank_a == 1))
    second = [(RANK_SHIFTED_SYM, rows, 0.5 * (A[rows] + At[rows]) + 0.5 * np.eye(3), scale[rows])]
    rows = np.flatnonzero(solution & (rank_a == 2) & at_minus_2)
    second.append((RANK_ATA, rows, At[rows] @ A[rows], scale[rows] ** 2))
    for name, rows, M, floor in second:
        if not rows.size:
            continue
        found = rank_decisions(np.linalg.svd(M, compute_uv=False), tol, floor)
        for row, triple in zip(rows.tolist(), found):
            decisions[row][name] = triple

    reports = []
    for norm, ok, t, near_2, got in zip(
        res_norm.tolist(), solution.tolist(), trace.tolist(), at_minus_2.tolist(), decisions
    ):
        if not ok:
            reason = f"{norm:.3e} exceeds {tol:.3e}" if math.isfinite(norm) else "is not finite"
            reports.append(NotASolution(f"matrix equation residual {reason}"))
            continue
        try:
            tag, invariants = _family_tag(lambda name: got[name][0], t, near_2, exact=False)
        except Inconclusive as exc:
            reports.append(exc)
            continue
        margins = tuple((name, *got[name][1:]) for name, _ in invariants if name in got)
        reports.append(ClassificationReport(tag, norm, invariants, margins=margins))
    return reports


def classify(
    A: Mat3, find_witness: bool = False, budget: int = DEFAULT_BUDGET, seed: int = 0
) -> ClassificationReport:
    """Map a solution of the matrix equation to its congruence class.

    The decision tree uses congruence invariants only: rank(A) splits the
    five families except for two ambiguous spots, which are resolved by
    rank(A'A) (trace -2, rank 2) and by rank(sym(A) + I/2) (rank 1).
    Exact input is decided on the integer numerators N / D of its residual
    test: a zero residual, and the ranks of N, N + N' + D I and N'N from
    :func:`linalg.rank_numerators`, with no margins.  Floating input is the
    one-row call of :func:`classify_stack`, whose report carries the margin
    of each rank decision.  A KFamily tag carries k as a GaussianRational
    for exact input and as a complex for floating input, on every branch.
    Raises :class:`NotASolution` when the residual norm reaches
    ``DEFAULT_CLASSIFY_TOL`` and :class:`Inconclusive` when no branch
    matches, which cannot happen for true solutions; with
    ``find_witness``, an exact entry beyond the float range raises
    ``ValueError``.
    """
    if A.kind == EXACT:
        R, N, D = A.derived(_residual_numerators)
        if any(re or im for row in R for re, im in row):
            raise NotASolution("matrix equation residual is nonzero")
        cols = list(zip(*N))
        ranks = {
            RANK_A: lambda: rank_numerators(N),
            # N + N' + D I = 2 D (sym(A) + I/2), of the same rank
            RANK_SHIFTED_SYM: lambda: rank_numerators(
                [[(p + u + D * (i == j), q + w) for j, ((p, q), (u, w)) in enumerate(pairs)]
                 for i, pairs in enumerate(map(zip, N, cols))]
            ),
            RANK_ATA: lambda: rank_numerators([contract((c, N)) for c in cols]),
        }
        t = A.trace()
        tag, invariants = _family_tag(
            lambda name: ranks[name](), t, t == GaussianRational(-2), exact=True
        )
        report = ClassificationReport(tag, 0.0, invariants)
    else:
        report = classify_stack(A.to_numpy()[None])[0]
        if not isinstance(report, ClassificationReport):
            raise report

    if find_witness:
        rep = representative(report.tag).to_floating()
        verdict = congruence_test(rep, A.to_floating(), budget=budget, seed=seed)
        if verdict.status == "congruent":
            report = dataclasses.replace(report, witness=verdict.witness)
    return report

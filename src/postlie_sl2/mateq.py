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
import math
from dataclasses import dataclass
from fractions import Fraction

from . import so3c
from ._numpy import np
from .linalg import (
    EXACT, GaussianRational, Mat3, ad, contract, numerator_vectors, rank_decisions,
    rank_numerators, times,
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
    "rank2_identity_residual",
    "rank1_identity_residual",
    "classify",
    "classify_stack",
    "congruence_test",
]

DEFAULT_SOLUTION_TOL = 1e-9
DEFAULT_CLASSIFY_TOL = 1e-6
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
        if self.kind != other.kind:
            return False
        if self.kind != FamilyKind.K_FAMILY:
            return True
        return abs(complex(self.k) - complex(other.k)) <= tol


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
    one-sided.
    """

    status: str
    witness: Mat3 | None = None
    separating_invariant: str | None = None
    attempts: int | None = None

    @classmethod
    def congruent(cls, T: Mat3):
        return cls("congruent", witness=T)

    @classmethod
    def not_congruent(cls, invariant: str):
        return cls("not_congruent", separating_invariant=invariant)

    @classmethod
    def unknown(cls, attempts: int):
        return cls("unknown", attempts=attempts)


# ---------------------------------------------------------------------------
# the equation


#: rows (and columns) i+1 and i+2, cyclically, for i = 0, 1, 2
_NEXT = [1, 2, 0]
_AFTER = [2, 0, 1]


def _residual_numerators(A: Mat3):
    """R D**2 = N'((tr N + D) I - N) - adj(N) for A = N / D, on the int pairs
    of :func:`linalg.numerator_vectors`, as rows of pairs; with N and D.
    Row i is column i of N times (tr N + D) I - N, plus column i+2 cross
    column i+1, which is minus row i of adj(N)."""
    N, D = numerator_vectors([x for row in A.rows for x in row], True)
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
        R, _, D = _residual_numerators(A)
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


def is_solution(A: Mat3, tol: float = DEFAULT_SOLUTION_TOL) -> bool:
    """Exact matrices: residual is exactly zero.  Floating: the norm of
    :func:`residual_array` is below ``tol``, which a residual that
    overflows to inf or nan never is."""
    if A.kind == EXACT:
        return not any(re or im for row in _residual_numerators(A)[0] for re, im in row)
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.linalg.norm(residual_array(A.to_numpy())) < tol)


def rank2_identity_residual(A: Mat3) -> Mat3:
    """(tr A + 1) A'A - A'A A; vanishes on every rank-2 solution."""
    ata = A.transpose() @ A
    s = A.trace() + 1
    return ata.scale(s) - ata @ A


def rank1_identity_residual(A: Mat3) -> Mat3:
    """(tr A + 1) A' - A'A; vanishes on every rank-1 solution."""
    s = A.trace() + 1
    return A.transpose().scale(s) - A.transpose() @ A


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


def congruate(A: Mat3, T: Mat3, tol: float = DEFAULT_WITNESS_TOL) -> Mat3:
    """T' A T for T in SO(3,C); solutions map to solutions.

    Raises :class:`so3c.NotOrthogonal` when T fails membership at ``tol``.
    """
    if not so3c.is_special_orthogonal(T, tol):
        raise so3c.NotOrthogonal("congruate needs T in SO(3,C)")
    if A.kind != T.kind:
        A, T = A.to_floating(), T.to_floating()
    return T.transpose() @ A @ T


# ---------------------------------------------------------------------------
# congruence decision procedure


def _nullspace_sylvester(
    Af: np.ndarray, Bf: np.ndarray
) -> tuple[list[np.ndarray], bool]:
    """Basis of {S : A S = S B, A' S = S B'} under row-major vectorization,
    and whether its dimension is decided.

    Every witness lies here: transposing T'AT = B for an orthogonal T gives
    A'T = TB'.  The space is closed under S -> S^-T, and S'S commutes with
    B for each S in it.  The dimension is the nullity by the rule of
    :func:`linalg.rank_decisions` at tol 1e-10 and floor 1; it is decided
    when the singular value nearest the cutoff lies a factor
    ``NULLITY_GAP`` or more away from it.  A system that is not finite, or
    whose SVD fails or overflows (entries near the float range), gives no
    basis and an undecided dimension.
    """
    I = np.eye(3)
    M = np.vstack(
        [np.kron(Af, I) - np.kron(I, Bf.T), np.kron(Af.T, I) - np.kron(I, Bf)]
    )
    try:
        _, sv, vh = np.linalg.svd(M)
    except np.linalg.LinAlgError:  # no convergence near the float range
        return [], False
    if not (np.isfinite(M).all() and np.isfinite(sv).all()):
        return [], False
    rank, nearest, cutoff = rank_decisions(sv[None], 1e-10, 1.0)[0]
    basis = [vh[idx].conj().reshape(3, 3) for idx in range(rank, 9)]
    decided = nearest <= cutoff / NULLITY_GAP or nearest >= cutoff * NULLITY_GAP
    return basis, decided


def _orthogonal_polar_factor(S: np.ndarray, max_iter: int = 60):
    """Newton's polar iteration X <- (X + X^-T)/2 from X = S.

    It converges quadratically to Q = S (S'S)^(-1/2) when S'S has no
    eigenvalue on (-inf, 0]; then Q'Q = I, and Q'AQ = B for S in the
    nullspace above, since (S'S)^(-1/2) commutes with B.  Returns the last
    iterate and the largest modulus of an entry of X'X - I.
    """
    X, defect = S, float(np.abs(S.T @ S - np.eye(3)).max())
    for _ in range(max_iter):
        if not defect >= 1e-12:  # converged, or no longer finite
            break
        try:
            X = (X + np.linalg.inv(X).T) / 2
        except np.linalg.LinAlgError:  # singular iterate
            break
        defect = float(np.abs(X.T @ X - np.eye(3)).max())
    return X, defect


def _separating_nullities(
    Af: np.ndarray, Bf: np.ndarray
) -> tuple[list[np.ndarray], str | None]:
    """The nullspace basis for (A, B), and the separating invariant when the
    nullspace dimensions for (A, A), (A, B) and (B, B) prove A and B not
    congruent, else None.

    The spaces {S : X S = S Y, X' S = S Y'} for (X, Y) = (A, A), (A, B)
    and (B, B) have one dimension exactly when (A, A') and (B, B') are
    simultaneously similar (Byrnes and Gauger for a pair of matrices,
    extended to tuples by Friedland), that is, when A and B are
    orthogonally similar.  So unequal dimensions, each decided with a
    clear singular-value gap, rule out congruence.
    """
    spaces = [_nullspace_sylvester(X, Y) for X, Y in ((Af, Af), (Af, Bf), (Bf, Bf))]
    dims = tuple(len(basis) for basis, _ in spaces)
    separating = None
    if all(decided for _, decided in spaces) and len(set(dims)) > 1:
        separating = "dim{S : XS = SY, X'S = SY'} for (A,A), (A,B), (B,B) = " + str(dims)
    return spaces[1][0], separating


def _witness_from_start(
    stack: np.ndarray, Af: np.ndarray, Bf: np.ndarray, seed: int, start: int, tol: float
) -> np.ndarray | None:
    """The witness from one seeded random member of the nullspace spanned
    by ``stack``, or None when its polar factor fails verification."""
    rng = np.random.default_rng([seed, start])
    c0 = rng.standard_normal(len(stack)) + 1j * rng.standard_normal(len(stack))
    S0 = np.tensordot(c0, stack, axes=1)
    scale = np.linalg.norm(S0)
    if scale < 1e-12:
        return None
    S, defect = _orthogonal_polar_factor(S0 * (math.sqrt(3.0) / scale))
    if not defect <= 1e-10:
        return None
    det = np.linalg.det(S)
    if abs(det + 1) <= tol:
        S = -S  # odd dimension: -S is orthogonal with determinant +1
        det = np.linalg.det(S)
    # each check must pass, so a defect that is NaN rejects the witness
    if (
        abs(det - 1) <= tol
        and np.linalg.norm(S.T @ S - np.eye(3)) <= tol
        and np.linalg.norm(S.T @ Af @ S - Bf) <= tol
    ):
        return S
    return None


def congruence_test(
    A: Mat3,
    B: Mat3,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    tol: float = DEFAULT_WITNESS_TOL,
) -> CongruenceVerdict:
    """Decide whether B = T' A T for some T in SO(3,C).

    A and B are orthogonally similar exactly when (A, A') and (B, B') are
    simultaneously similar, which the dimensions of the nullspaces of
    S -> (X S - S Y, X' S - S Y') for (X, Y) = (A, A), (A, B) and (B, B)
    decide: unequal dimensions, each decided with a clear singular-value
    gap, give ``not_congruent``, naming the three dimensions.  Otherwise
    the orthogonal polar factor of a similarity S from the (A, B)
    nullspace is a witness: up to ``budget`` seeded random S go through
    Newton's polar iteration, and a verified witness gives ``congruent``.
    When no start gives one, the verdict is ``unknown``.  Witnesses satisfy
    T'T = I, det T = 1 and T' A T = B to ``tol``.  Raises ``ValueError``
    for a negative ``budget``.
    """
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    Af, Bf = A.to_numpy(), B.to_numpy()
    # entries near the float range overflow to inf or nan, which no check
    # accepts; the overflow is not worth a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if float(np.linalg.norm(Af - Bf)) <= tol:
            return CongruenceVerdict.congruent(Mat3.identity(exact=False))

        basis, separating = _separating_nullities(Af, Bf)
        if separating is not None:
            return CongruenceVerdict.not_congruent(separating)
        if not basis:
            return CongruenceVerdict.unknown(0)
        stack = np.stack(basis)
        for start in range(budget):
            S = _witness_from_start(stack, Af, Bf, seed, start, tol)
            if S is not None:
                return CongruenceVerdict.congruent(Mat3.from_numpy(S))
    return CongruenceVerdict.unknown(budget)


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


def classify_stack(A: np.ndarray, tol: float = DEFAULT_CLASSIFY_TOL) -> list:
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
    with |tr(A) + 2| <= tol.  Each report lists one margin per rank
    decision: the singular value nearest the threshold, and the threshold.
    A row's report does not depend on the other rows.
    """
    A = np.asarray(A, dtype=complex)
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
    A: Mat3,
    tol: float = DEFAULT_CLASSIFY_TOL,
    find_witness: bool = False,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
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
    Raises :class:`NotASolution` when the residual exceeds ``tol`` and
    :class:`Inconclusive` when no branch matches, which cannot happen for
    true solutions.
    """
    if A.kind == EXACT:
        R, N, D = _residual_numerators(A)
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
        report = classify_stack(A.to_numpy()[None], tol)[0]
        if not isinstance(report, ClassificationReport):
            raise report

    if find_witness:
        rep = representative(report.tag).to_floating()
        verdict = congruence_test(rep, A.to_floating(), budget=budget, seed=seed)
        if verdict.status == "congruent":
            report = dataclasses.replace(report, witness=verdict.witness)
    return report

"""Canonical forms of complex symmetric 3x3 matrices under SO(3,C).

Each of the ten forms is a direct sum of blocks lam*I_k + D_k, where D_k
is the symmetric nilpotent k x k block, so a form is its Jordan type: the
block sizes at its nonzero eigenvalues and at eigenvalue 0.  One table of
those types builds each form's matrix (``canonical_matrix``), gives its
parameter count and rank (``SymCanonicalForm``) and, read backwards,
names the form of a symmetric matrix from its Jordan signature
(``classify_symmetric``).  Witness construction is delegated to the
congruence machinery.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from . import mateq
from .linalg import (
    DEFAULT_JORDAN_TOL,
    EXACT,
    GaussianRational,
    IllConditioned,
    Mat3,
    frobenius_distance,
    jordan_signature,
)

__all__ = [
    "FormKind",
    "SymCanonicalForm",
    "NotSymmetric",
    "InvalidParameter",
    "OutOfRange",
    "d_k_block",
    "canonical_matrix",
    "classify_symmetric",
    "find_orthogonal_similarity",
]

#: bound on ||S - S'||_F and on a zero eigenvalue; the Jordan tolerance
DEFAULT_SYM_TOL = DEFAULT_JORDAN_TOL


class NotSymmetric(ValueError):
    """The input matrix is not symmetric at the working tolerance."""


class InvalidParameter(ValueError):
    """A canonical-form parameter that must be nonzero is zero."""


class OutOfRange(ValueError):
    """Block size outside {1, 2, 3}."""


class FormKind(enum.Enum):
    RANK3_DIAG = "Rank3Diag"
    RANK3_ONE_BLOCK = "Rank3OneBlock"
    RANK3_BIG_BLOCK = "Rank3BigBlock"
    RANK2_DIAG = "Rank2Diag"
    RANK2_BLOCK = "Rank2Block"
    RANK2_NILP = "Rank2Nilp"
    RANK2_BIG_NILP = "Rank2BigNilp"
    RANK1_DIAG = "Rank1Diag"
    RANK1_NILP = "Rank1Nilp"
    ZERO_FORM = "ZeroForm"


# Each form's Jordan type: its block sizes at nonzero eigenvalues, one
# block per parameter in parameter order, then its block sizes at 0.
_JORDAN_TYPE = {
    FormKind.RANK3_DIAG: ((1, 1, 1), ()),
    FormKind.RANK3_ONE_BLOCK: ((1, 2), ()),
    FormKind.RANK3_BIG_BLOCK: ((3,), ()),
    FormKind.RANK2_DIAG: ((1, 1), (1,)),
    FormKind.RANK2_BLOCK: ((2,), (1,)),
    FormKind.RANK2_NILP: ((1,), (2,)),
    FormKind.RANK2_BIG_NILP: ((), (3,)),
    FormKind.RANK1_DIAG: ((1,), (1, 1)),
    FormKind.RANK1_NILP: ((), (2, 1)),
    FormKind.ZERO_FORM: ((), (1, 1, 1)),
}

_KIND_OF_TYPE = {jordan_type: kind for kind, jordan_type in _JORDAN_TYPE.items()}


@dataclass(frozen=True)
class SymCanonicalForm:
    """A canonical form kind plus its eigenvalue parameters."""

    kind: FormKind
    params: tuple = ()

    def __post_init__(self):
        count = len(_JORDAN_TYPE[self.kind][0])
        if len(self.params) != count:
            raise ValueError(
                f"{self.kind.value} takes {count} parameters, got {len(self.params)}"
            )

    def close_to(self, other: "SymCanonicalForm", tol: float) -> bool:
        if self.kind != other.kind:
            return False
        return all(
            abs(complex(a) - complex(b)) <= tol
            for a, b in zip(self.params, other.params)
        )

    @property
    def rank(self) -> int:
        return 3 - len(_JORDAN_TYPE[self.kind][1])


def _coerce_param(v):
    if isinstance(v, (int, Fraction)):
        return GaussianRational(v)
    return v


def form(kind: FormKind, *params) -> SymCanonicalForm:
    return SymCanonicalForm(kind, tuple(_coerce_param(p) for p in params))


def d_k_block(k: int):
    """The symmetric nilpotent k x k block, as nested tuples of exact scalars.

    k = 1 is the 1x1 zero, k = 2 the block [[i, 1], [1, -i]], k = 3 the
    tridiagonal block with entries 1+i above and 1-i below the middle.
    """
    if k == 1:
        return ((GaussianRational(0),),)
    i1 = GaussianRational(0, 1)
    one = GaussianRational(1)
    zero = GaussianRational(0)
    if k == 2:
        return ((i1, one), (one, -i1))
    if k == 3:
        a = GaussianRational(1, 1)  # 1 + i
        b = GaussianRational(1, -1)  # 1 - i
        return ((zero, a, zero), (a, zero, b), (zero, b, zero))
    raise OutOfRange(f"d_k_block supports k in 1..3, got {k}")


def _require_nonzero(*params):
    for p in params:
        if not p:
            raise InvalidParameter("canonical-form constants must be non-zero")


def canonical_matrix(f: SymCanonicalForm) -> Mat3:
    """The verbatim matrix of the form: its Jordan blocks down the diagonal.

    Exact parameters give an exact matrix, floating parameters a floating
    one.  Raises :class:`InvalidParameter` when a required-nonzero constant
    is zero.
    """
    _require_nonzero(*f.params)
    exact = all(isinstance(x, GaussianRational) for x in f.params)
    z = GaussianRational(0) if exact else 0j
    nonzero, zero = _JORDAN_TYPE[f.kind]
    rows = [[z] * 3 for _ in range(3)]
    at = 0
    for lam, k in zip([*f.params] + [z] * len(zero), nonzero + zero):
        d = d_k_block(k)
        for i in range(k):
            for j in range(k):
                x = d[i][j] if exact else d[i][j].to_complex()
                if i == j:
                    # lam is left as given where D_k's diagonal is zero, so
                    # mixed exact and floating parameters reach Mat3's check
                    x = lam + x if x else lam
                rows[at + i][at + j] = x
        at += k
    return Mat3(rows)


def _require_symmetric(S: Mat3) -> None:
    """Exact input must equal its transpose; floating input within
    ``DEFAULT_SYM_TOL``, where a distance past the float range is inf and
    fails."""
    X = S.entries
    transposed = X[0::3] + X[1::3] + X[2::3]
    if S.kind == EXACT:
        if X != transposed:
            raise NotSymmetric("input is not symmetric")
    elif frobenius_distance(X, transposed) > DEFAULT_SYM_TOL:
        raise NotSymmetric("input is not symmetric at the tolerance")


def classify_symmetric(S: Mat3) -> SymCanonicalForm:
    """Identify the unique canonical form orthogonally similar to ``S``.

    Clusters the eigenvalues, reads off the Jordan blocks and looks their
    type up in the table of forms.  The blocks at nonzero eigenvalues are
    sorted by size, then by the (real, imag) of their eigenvalue, which
    gives the parameter order; signed coordinate permutations lie in
    SO(3,C), so the orderings of equal-size blocks are congruent.  An
    exact entry beyond the float range raises ``ValueError``.  Symmetry
    and a zero eigenvalue are decided at ``DEFAULT_SYM_TOL``.
    """
    _require_symmetric(S)
    sig = jordan_signature(S.to_floating())

    zero: tuple = ()
    nonzero: list[tuple[int, complex]] = []
    for lam, blocks in sig.entries:
        lam = complex(lam)
        if abs(lam) <= DEFAULT_SYM_TOL:
            zero = blocks
        else:
            nonzero.extend((k, lam) for k in blocks)
    nonzero.sort(key=lambda e: (e[0], e[1].real, e[1].imag))

    kind = _KIND_OF_TYPE.get((tuple(k for k, _ in nonzero), zero))
    if kind is None:
        # every Jordan type of a symmetric matrix is in the table, so an
        # unmatched one can only come from a tolerance failure
        raise IllConditioned(
            f"Jordan structure {sig.entries!r} matches no symmetric canonical form"
        )
    return form(kind, *(lam for _, lam in nonzero))


def find_orthogonal_similarity(
    S1: Mat3, S2: Mat3, budget: int = mateq.DEFAULT_BUDGET, seed: int = 0
) -> mateq.CongruenceVerdict:
    """Congruence test specialized to symmetric inputs.

    For T in SO(3,C) congruence equals orthogonal similarity, so this
    delegates to the general congruence decision procedure after checking
    symmetry of both inputs at ``DEFAULT_SYM_TOL``.
    """
    _require_symmetric(S1)
    _require_symmetric(S2)
    return mateq.congruence_test(S1, S2, budget=budget, seed=seed)

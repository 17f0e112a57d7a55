"""Canonical forms of complex symmetric 3x3 matrices under SO(3,C).

Ten forms, stratified by rank, built from scalar blocks and the symmetric
nilpotent blocks D_k.  ``classify_symmetric`` identifies the unique form of
a symmetric matrix through its Jordan signature; witness construction is
delegated to the congruence machinery.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from . import mateq
from .linalg import (
    EXACT,
    GaussianRational,
    IllConditioned,
    Mat3,
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

DEFAULT_SYM_TOL = 1e-6


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


_PARAM_COUNT = {
    FormKind.RANK3_DIAG: 3,
    FormKind.RANK3_ONE_BLOCK: 2,
    FormKind.RANK3_BIG_BLOCK: 1,
    FormKind.RANK2_DIAG: 2,
    FormKind.RANK2_BLOCK: 1,
    FormKind.RANK2_NILP: 1,
    FormKind.RANK2_BIG_NILP: 0,
    FormKind.RANK1_DIAG: 1,
    FormKind.RANK1_NILP: 0,
    FormKind.ZERO_FORM: 0,
}

_FORM_RANK = {
    FormKind.RANK3_DIAG: 3,
    FormKind.RANK3_ONE_BLOCK: 3,
    FormKind.RANK3_BIG_BLOCK: 3,
    FormKind.RANK2_DIAG: 2,
    FormKind.RANK2_BLOCK: 2,
    FormKind.RANK2_NILP: 2,
    FormKind.RANK2_BIG_NILP: 2,
    FormKind.RANK1_DIAG: 1,
    FormKind.RANK1_NILP: 1,
    FormKind.ZERO_FORM: 0,
}


@dataclass(frozen=True)
class SymCanonicalForm:
    """A canonical form kind plus its eigenvalue parameters."""

    kind: FormKind
    params: tuple = ()

    def __post_init__(self):
        if len(self.params) != _PARAM_COUNT[self.kind]:
            raise ValueError(
                f"{self.kind.value} takes {_PARAM_COUNT[self.kind]} parameters, "
                f"got {len(self.params)}"
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
        return _FORM_RANK[self.kind]


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
        if (isinstance(p, GaussianRational) and not p) or (
            not isinstance(p, GaussianRational) and complex(p) == 0
        ):
            raise InvalidParameter("canonical-form constants must be non-zero")


def canonical_matrix(f: SymCanonicalForm) -> Mat3:
    """The verbatim matrix of the form.

    Exact parameters give an exact matrix, floating parameters a floating
    one.  Raises :class:`InvalidParameter` when a required-nonzero constant
    is zero.
    """
    kind, p = f.kind, f.params
    exact = all(isinstance(x, GaussianRational) for x in p)
    z = GaussianRational(0) if exact else 0j
    one = GaussianRational(1) if exact else 1 + 0j
    i1 = GaussianRational(0, 1) if exact else 1j

    if kind == FormKind.ZERO_FORM:
        return Mat3.zero(exact=exact)
    if kind == FormKind.RANK3_DIAG:
        _require_nonzero(*p)
        return Mat3.diag(*p)
    if kind == FormKind.RANK3_ONE_BLOCK:
        _require_nonzero(*p)
        l1, l2 = p
        return Mat3([[l1, z, z], [z, l2 + i1, one], [z, one, l2 - i1]])
    if kind == FormKind.RANK3_BIG_BLOCK:
        _require_nonzero(*p)
        (lam,) = p
        d3 = d_k_block(3)
        rows = [
            [
                lam if i == j else (d3[i][j] if exact else d3[i][j].to_complex())
                for j in range(3)
            ]
            for i in range(3)
        ]
        return Mat3(rows)
    if kind == FormKind.RANK2_DIAG:
        _require_nonzero(*p)
        return Mat3.diag(p[0], p[1], z)
    if kind == FormKind.RANK2_BLOCK:
        _require_nonzero(*p)
        (lam,) = p
        return Mat3([[lam + i1, one, z], [one, lam - i1, z], [z, z, z]])
    if kind == FormKind.RANK2_NILP:
        _require_nonzero(*p)
        (lam,) = p
        return Mat3([[lam, z, z], [z, i1, one], [z, one, -i1]])
    if kind == FormKind.RANK2_BIG_NILP:
        d3 = d_k_block(3)
        return Mat3([list(r) for r in d3])
    if kind == FormKind.RANK1_DIAG:
        _require_nonzero(*p)
        return Mat3.diag(p[0], z, z)
    if kind == FormKind.RANK1_NILP:
        return Mat3([[i1, one, z], [one, -i1, z], [z, z, z]])
    raise ValueError(f"unknown form kind {kind!r}")


def _require_symmetric(S: Mat3, tol: float) -> None:
    """Exact input must equal its transpose; floating input within ``tol``."""
    if S.kind == EXACT:
        if S != S.transpose():
            raise NotSymmetric("input is not symmetric")
    elif (S - S.transpose()).frobenius_norm() > tol:
        raise NotSymmetric("input is not symmetric at the tolerance")


def _sort_key(z: complex):
    return (z.real, z.imag)


def classify_symmetric(S: Mat3, tol: float = DEFAULT_SYM_TOL) -> SymCanonicalForm:
    """Identify the unique canonical form orthogonally similar to ``S``.

    Clusters the eigenvalues, reads off the Jordan block structure and maps
    it to the single list entry with the same Jordan type.  Diagonal-form
    parameters are sorted by (real, imag); signed coordinate permutations
    lie in SO(3,C), so the orderings are congruent.
    """
    _require_symmetric(S, tol)
    Sf = S.to_floating()
    sig = jordan_signature(Sf, tol)

    zero_blocks: tuple = ()
    nonzero: list[tuple[complex, tuple]] = []
    for lam, blocks in sig.entries:
        lamc = complex(lam)
        if abs(lamc) <= tol:
            zero_blocks = blocks
        else:
            nonzero.append((lamc, blocks))
    nonzero.sort(key=lambda e: _sort_key(e[0]))

    result = _form_from_blocks(zero_blocks, nonzero)
    if result is None:
        # every Jordan structure of a symmetric matrix is in the lists, so
        # an unmatched one can only come from a tolerance failure
        raise IllConditioned(
            f"Jordan structure {sig.entries!r} matches no symmetric canonical form"
        )
    return result


def _form_from_blocks(zero_blocks, nonzero) -> SymCanonicalForm | None:
    if not nonzero:
        if zero_blocks in ((), (1, 1, 1)):
            return form(FormKind.ZERO_FORM)
        if zero_blocks == (2, 1):
            return form(FormKind.RANK1_NILP)
        if zero_blocks == (3,):
            return form(FormKind.RANK2_BIG_NILP)
        return None

    if not zero_blocks:
        lams = []
        for lam, blocks in nonzero:
            if blocks == (1,):
                lams.append([lam])
            elif blocks == (1, 1):
                lams.append([lam, lam])
            elif blocks == (1, 1, 1):
                lams.append([lam, lam, lam])
            elif blocks == (2,):
                lams.append(None)
            elif blocks == (2, 1):
                # one size-2 block plus a simple eigenvalue at the same value
                return form(FormKind.RANK3_ONE_BLOCK, lam, lam)
            elif blocks == (3,):
                return form(FormKind.RANK3_BIG_BLOCK, lam)
            else:
                return None
        if any(l is None for l in lams):
            defective = [lam for (lam, blocks) in nonzero if blocks == (2,)]
            simple = [lam for (lam, blocks) in nonzero if blocks == (1,)]
            if len(defective) == 1 and len(simple) == 1:
                return form(FormKind.RANK3_ONE_BLOCK, simple[0], defective[0])
            return None
        flat = sorted((x for group in lams for x in group), key=_sort_key)
        if len(flat) == 3:
            return form(FormKind.RANK3_DIAG, *flat)
        return None

    if zero_blocks == (1,):
        if len(nonzero) == 2 and all(b == (1,) for _, b in nonzero):
            return form(FormKind.RANK2_DIAG, nonzero[0][0], nonzero[1][0])
        if len(nonzero) == 1:
            lam, blocks = nonzero[0]
            if blocks == (1, 1):
                return form(FormKind.RANK2_DIAG, lam, lam)
            if blocks == (2,):
                return form(FormKind.RANK2_BLOCK, lam)
        return None
    if zero_blocks == (2,):
        if len(nonzero) == 1 and nonzero[0][1] == (1,):
            return form(FormKind.RANK2_NILP, nonzero[0][0])
        return None
    if zero_blocks == (1, 1):
        if len(nonzero) == 1 and nonzero[0][1] == (1,):
            return form(FormKind.RANK1_DIAG, nonzero[0][0])
        return None
    return None


def find_orthogonal_similarity(
    S1: Mat3,
    S2: Mat3,
    budget: int = mateq.DEFAULT_BUDGET,
    seed: int = 0,
    tol: float = DEFAULT_SYM_TOL,
) -> mateq.CongruenceVerdict:
    """Congruence test specialized to symmetric inputs.

    For T in SO(3,C) congruence equals orthogonal similarity, so this
    delegates to the general congruence decision procedure after checking
    symmetry of both inputs.
    """
    _require_symmetric(S1, tol)
    _require_symmetric(S2, tol)
    return mateq.congruence_test(S1, S2, budget=budget, seed=seed)

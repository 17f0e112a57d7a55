"""The Lie algebra sl(2,C) in a fixed basis, with identity checkers.

The basis {e1, e2, e3} is chosen so that the bracket of coordinate row
vectors is the ordinary cross product:

    [e2, e3] = e1,   [e3, e1] = e2,   [e1, e2] = e3.

A bilinear product on the 3-dimensional space is represented by its
structure constants.  ``check_postlie``, ``check_jacobi`` and
``check_rota_baxter`` evaluate the defining identities on all basis tuples,
which suffices by bilinearity, and report every violation they find.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .linalg import (
    EXACT, FLOATING, GaussianRational, Mat2, Mat3, Vec3, ad, contract, numerator_vectors, times,
)

__all__ = [
    "StructureConstants",
    "LIE_BRACKET",
    "IdentityViolation",
    "NotAdjointForm",
    "bracket",
    "bracket_via_2x2",
    "basis_2x2",
    "coords_from_2x2",
    "circ_from_matrix",
    "matrix_from_circ",
    "check_postlie",
    "derived_bracket",
    "check_jacobi",
    "check_rota_baxter",
]


class NotAdjointForm(ValueError):
    """The product is not of the form x o y = [f(x), y] for any linear f."""


@dataclass(frozen=True)
class IdentityViolation:
    """One failed instance of an algebraic identity on basis elements.

    ``indices`` are 1-based basis indices in the order the identity's
    variables are quantified; ``residual`` is the nonzero defect vector.
    """

    identity: str
    indices: tuple
    residual: Vec3


def bracket(x: Vec3, y: Vec3) -> Vec3:
    """Lie bracket [x, y]; equals the cross product of the coordinates."""
    return x.cross(y)


class StructureConstants:
    """A bilinear product stored as the 27 coefficients of e_i o e_j.

    ``table[i][j]`` is the coordinate vector of ``e_i o e_j``.
    """

    __slots__ = ("table", "kind")

    def __init__(self, table):
        rows = [tuple(row) for row in table]
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("structure constants need a 3x3 table of vectors")
        vecs = []
        for row in rows:
            vecs.append(tuple(v if isinstance(v, Vec3) else Vec3(v) for v in row))
        kinds = {v.kind for row in vecs for v in row}
        if len(kinds) != 1:
            raise ValueError("mixed exact and floating structure constants")
        self.table = tuple(vecs)
        self.kind = kinds.pop()

    @classmethod
    def zero(cls, exact=True):
        z = Vec3.zero(exact=exact)
        return cls([[z, z, z] for _ in range(3)])

    def product(self, i: int, j: int) -> Vec3:
        """e_i o e_j for 0-based i, j."""
        return self.table[i][j]

    def to_floating(self) -> "StructureConstants":
        if self.kind == FLOATING:
            return self
        return StructureConstants(
            [[v.to_floating() for v in row] for row in self.table]
        )

    def __eq__(self, other):
        if not isinstance(other, StructureConstants):
            return NotImplemented
        return self.kind == other.kind and self.table == other.table

    def __repr__(self):
        return f"StructureConstants({[[list(v.coords) for v in row] for row in self.table]!r})"


def bracket_via_2x2(x: Vec3, y: Vec3) -> Vec3:
    """Compute [x, y] through the 2x2 traceless-matrix realization.

    Embeds both vectors as 2x2 matrices, takes the matrix commutator and
    extracts coordinates again; must agree with :func:`bracket`.
    """
    mx, my = _embed_2x2(x), _embed_2x2(y)
    return coords_from_2x2((mx @ my) - (my @ mx))


def basis_2x2(exact: bool = True) -> tuple[Mat2, Mat2, Mat2]:
    """The fixed basis as traceless 2x2 matrices.

    Matrix commutators of e1, e2, e3 realize the bracket, and the trace
    pairing -2 tr(e_i e_j) is the Kronecker delta.
    """
    if exact:
        h = GaussianRational(Fraction(1, 2))
        ih = GaussianRational(0, Fraction(1, 2))
        z = GaussianRational(0)
    else:
        h, ih, z = 0.5 + 0j, 0.5j, 0j
    e1 = Mat2([[z, h], [-h, z]])
    e2 = Mat2([[z, -ih], [-ih, z]])
    e3 = Mat2([[-ih, z], [z, ih]])
    return e1, e2, e3


def coords_from_2x2(X: Mat2) -> Vec3:
    """Coordinates x_j = -2 tr(X e_j) of a traceless 2x2 matrix."""
    exact = X.kind == EXACT
    minus_two = GaussianRational(-2) if exact else -2.0
    return Vec3([minus_two * (X @ e).trace() for e in basis_2x2(exact)])


def _embed_2x2(v: Vec3) -> Mat2:
    e1, e2, e3 = basis_2x2(v.kind == EXACT)
    return e1.scale(v[0]) + e2.scale(v[1]) + e3.scale(v[2])


def circ_from_matrix(A: Mat3) -> StructureConstants:
    """The product x o y = [f(x), y] where f maps e_i to row i of A.

    Row i of the table is the matrix of y -> [f(e_i), y] = -[y, f(e_i)], so
    each entry is an entry of A, its negation or zero.
    """
    zero = GaussianRational(0) if A.kind == EXACT else 0j
    return StructureConstants([ad([-x for x in f], f, zero) for f in A.rows])


#: structure constants of the fixed Lie bracket: x o y = [x, y] for f = id
LIE_BRACKET = circ_from_matrix(Mat3.identity())


def matrix_from_circ(c: StructureConstants, tol: float = 1e-9) -> Mat3:
    """Recover the unique A with ``circ_from_matrix(A) == c``.

    Row i is read off the entries of row i of the table where
    ``circ_from_matrix`` places f(e_i); the rest of the table is a
    consistency check.  Raises :class:`NotAdjointForm` when it fails
    (exactly in exact mode, beyond ``tol`` in floating mode).
    """
    # [f, e1] = (0, f3, -f2), [f, e2] = (-f3, 0, f1), [f, e3] = (f2, -f1, 0)
    A = Mat3([(c2[2], c3[0], c1[1]) for c1, c2, c3 in c.table])
    back = circ_from_matrix(A)
    if c.kind == EXACT:
        if back != c:
            raise NotAdjointForm("product is not an adjoint-form product")
    else:
        defect = max(
            (back.product(i, j) - c.product(i, j)).max_abs()
            for i in range(3)
            for j in range(3)
        )
        if defect > tol:
            raise NotAdjointForm(
                f"product is not an adjoint-form product (defect {defect:.3e})"
            )
    return A


# The checkers evaluate each identity as a sum of contractions over
# integer pairs.  Every scalar is N / D with N = (re, im) and one positive
# common denominator D per call.  A product of two scalars then sits at
# D**2, so a linear term is multiplied by D to bring the whole identity to
# one power of D, and an exact zero test is an integer test.  Floating
# scalars run the same loops as float pairs over D = 1.0 (both from
# ``linalg.numerator_vectors``).  A triple of pairs is a coordinate vector;
# a triple of those, a 3x3 matrix acting on row vectors.  postlie-3 is
# antisymmetric in (b, d), postlie-4 in (a, b) and rota-baxter in (i, j), so
# exact mode contracts only the instances with b < d, a < b or i < j: it
# negates them for the mirrored instances and gives zero on the diagonal.
# Floating mode contracts every instance: a negation rounds unlike a sum.
#
# Exact check_postlie first tries the derivation form.  Write L_d = C[d],
# so x -> e_d o x is x @ L_d.  The postlie-4 defect at (a, b, d) is
# (e_a x e_b) @ (L_d + L_d' - tr(L_d) I), so postlie-4 holds on every
# instance exactly when every L_d is antisymmetric, which is 18 integer
# sums; then L_d = ad(w_d), x @ L_d = [x, w_d].  With W the matrix of rows
# w_d, postlie-3 at (a, b, d) is [e_a, u_bd], where
# u_bd = w_b x w_d + (C[b][d] - C[d][b] + [e_b, e_d]) @ W sits at D**2, so
# three vectors u_01, u_02, u_12 decide all 27 instances.  Every table of
# ``circ_from_matrix`` is of this form.  An exact table that is not, and
# every floating table, takes the contractions above.

_ONE = ((1, 0),)
_ZERO = ((0, 0), (0, 0), (0, 0))


def _column(C, j):
    """Rows ``C[m][j]``: the matrix of x -> x o e_j for the table ``C``."""
    return C[0][j], C[1][j], C[2][j]


def _violations(defects, D, exact, tol):
    """The failed instances among ``(identity, indices, power, r)``, where
    ``r / D**power`` is the defect vector.

    An exact defect fails when it is nonzero, a floating one when an entry
    exceeds ``tol`` in absolute value.
    """
    violations = []
    for identity, indices, power, r in defects:
        if exact:
            if r == _ZERO:
                continue
            s = D**power
            residual = Vec3([GaussianRational.from_numerators(re, im, s) for re, im in r])
        else:
            residual = Vec3([complex(re, im) for re, im in r])
            if not residual.max_abs() > tol:
                continue
        violations.append(IdentityViolation(identity, indices, residual))
    return violations


def _table_form(c: StructureConstants):
    """The table as ``C[i][j]``, the vector of e_i o e_j, with its D."""
    exact = c.kind == EXACT
    vecs, D = numerator_vectors([x for row in c.table for v in row for x in v], exact)
    return (vecs[0:3], vecs[3:6], vecs[6:9]), D, exact


#: ``_BRACKET[i][j]`` holds the coordinates of [e_i, e_j] as int pairs
_BRACKET = _table_form(LIE_BRACKET)[0]


def _postlie_defects(C, D, exact):
    # C[d] is the matrix of x -> e_d o x, right[a] that of x -> x o e_a
    right = [_column(C, a) for a in range(3)]
    right_bracket = [_column(_BRACKET, a) for a in range(3)]
    neg = [[times(v, -1) for v in row] for row in C]
    bracket_d = [[times(v, D) for v in row] for row in _BRACKET]
    three, four = {}, {}
    for a in range(3):
        for b in range(3):
            for d in range(3):
                if exact and b >= d:
                    r = _ZERO if b == d else times(three[a, d, b], -1)
                else:
                    # z o (y o x) - y o (z o x) + (y o z) o x - (z o y) o x + [y,z] o x
                    r = three[a, b, d] = contract(
                        (C[b][a], C[d]),
                        (neg[d][a], C[b]),
                        (C[b][d], right[a]),
                        (neg[d][b], right[a]),
                        (bracket_d[b][d], right[a]),
                    )
                yield "postlie-3", (a + 1, b + 1, d + 1), 2, r
                if exact and a >= b:
                    r = _ZERO if a == b else times(four[b, a, d], -1)
                else:
                    # z o [x,y] - [z o x, y] - [x, z o y]
                    r = four[a, b, d] = contract(
                        (_BRACKET[a][b], C[d]),
                        (neg[d][a], right_bracket[b]),
                        (C[d][b], right_bracket[a]),
                    )
                yield "postlie-4", (a + 1, b + 1, d + 1), 1, r


def _antisymmetric(L):
    """Whether the matrix of pairs ``L`` satisfies L' = -L exactly."""
    pairs = ((L[i][j], L[j][i]) for i in range(3) for j in range(i, 3))
    return all(p == -r and q == -s for (p, q), (r, s) in pairs)


def _derivation_postlie_defects(C, D):
    # every C[d] is ad(w_d), read off where ``ad`` places w; postlie-4 is zero
    W = tuple((L[2][1], L[0][2], L[1][0]) for L in C)
    sides = ((1, 0), (-1, 0), (D, 0))
    ads = {}
    for b, d in ((0, 1), (0, 2), (1, 2)):
        v = contract((sides, (C[b][d], C[d][b], _BRACKET[b][d])))
        u = contract((W[b], ad(W[d], times(W[d], -1), (0, 0))), (v, W))
        n = times(u, -1)
        ads[b, d], ads[d, b] = ad(u, n, (0, 0)), ad(n, u, (0, 0))
    # the diagonal b = d vanishes; the rest in the contractions' order
    for a in range(3):
        for b, d in itertools.permutations(range(3), 2):
            yield "postlie-3", (a + 1, b + 1, d + 1), 2, ads[b, d][a]


def check_postlie(c: StructureConstants, tol: float = 1e-9) -> list[IdentityViolation]:
    """Evaluate both product axioms of a PostLie structure on basis triples.

    The two bracket axioms concern the fixed bracket and are validated once
    at import time; the returned list is empty exactly when the product
    turns the fixed bracket into a PostLie algebra (to ``tol`` in floating
    mode).  An exact table whose left multiplications are all
    antisymmetric is decided in derivation form, with the same list.
    """
    C, D, exact = _table_form(c)
    if exact and all(_antisymmetric(L) for L in C):
        return _violations(_derivation_postlie_defects(C, D), D, exact, tol)
    return _violations(_postlie_defects(C, D, exact), D, exact, tol)


def derived_bracket(c: StructureConstants) -> StructureConstants:
    """Structure constants of {x,y} = x o y - y o x + [x,y]."""
    br = LIE_BRACKET if c.kind == EXACT else LIE_BRACKET.to_floating()
    return StructureConstants(
        [
            [c.product(i, j) - c.product(j, i) + br.product(i, j) for j in range(3)]
            for i in range(3)
        ]
    )


def _jacobi_defects(B):
    for i in range(3):
        for j in range(3):
            r = contract((_ONE, (B[i][j],)), (_ONE, (B[j][i],)))
            yield "antisymmetry", (i + 1, j + 1), 1, r
    for i in range(3):
        for j in range(3):
            for k in range(3):
                # {{e_i,e_j},e_k} + {{e_k,e_i},e_j} + {{e_j,e_k},e_i}
                r = contract(
                    (B[i][j], _column(B, k)),
                    (B[k][i], _column(B, j)),
                    (B[j][k], _column(B, i)),
                )
                yield "jacobi", (i + 1, j + 1, k + 1), 2, r


def check_jacobi(b: StructureConstants, tol: float = 1e-9) -> list[IdentityViolation]:
    """Antisymmetry on all basis pairs plus the Jacobi identity on all triples."""
    B, D, exact = _table_form(b)
    return _violations(_jacobi_defects(B), D, exact, tol)


def _rota_baxter_defects(F, D, exact):
    # F[i] is f(e_i), row i of A
    ads = [ad(v, times(v, -1), (0, 0)) for v in F]
    unit_d = ((D, 0),)
    found = {}
    for i in range(3):
        for j in range(3):
            if exact and i >= j:
                r = _ZERO if i == j else times(found[j, i], -1)
            else:
                # [f(e_i), e_j] + [e_i, f(e_j)] + [e_i, e_j], at D
                inner = contract(
                    (F[i], _column(_BRACKET, j)),
                    (_ONE, (ads[j][i],)),
                    (unit_d, (_BRACKET[i][j],)),
                )
                # [f(e_i), f(e_j)] - f(inner), at D**2
                r = found[i, j] = contract((F[i], ads[j]), (times(inner, -1), F))
            yield "rota-baxter", (i + 1, j + 1), 2, r


def check_rota_baxter(A: Mat3, tol: float = 1e-9) -> list[IdentityViolation]:
    """Check on all basis pairs that f given by the rows of A satisfies
    [f(x),f(y)] = f([f(x),y] + [x,f(y)] + [x,y])."""
    exact = A.kind == EXACT
    F, D = numerator_vectors([x for row in A.rows for x in row], exact)
    return _violations(_rota_baxter_defects(F, D, exact), D, exact, tol)


def _validate_fixed_bracket() -> bool:
    # LIE_BRACKET is a placement of entries: compare it with the cross
    # product, which must give [e2, e3] = e1, [e3, e1] = e2, [e1, e2] = e3
    es = [Vec3.basis(i) for i in range(3)]
    return not check_jacobi(LIE_BRACKET) and all(
        bracket(es[(i + 1) % 3], es[(i + 2) % 3]) == es[i]
        and all(LIE_BRACKET.product(i, j) == bracket(es[i], es[j]) for j in range(3))
        for i in range(3)
    )


# the bracket is a compile-time constant; check it once on import in debug runs
assert _validate_fixed_bracket(), "fixed sl(2,C) bracket table is corrupt"

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

from dataclasses import dataclass

from .linalg import (
    EXACT,
    FLOATING,
    GaussianRational,
    Mat2,
    Mat3,
    Vec3,
    _Q,
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


def _basis(kind):
    return tuple(Vec3.basis(i, exact=kind == EXACT) for i in range(3))


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

    def apply(self, x: Vec3, y: Vec3) -> Vec3:
        """The bilinear extension x o y."""
        out = Vec3.zero(exact=self.kind == EXACT)
        for i in range(3):
            xi = x.coords[i]
            if not xi:
                continue
            for j in range(3):
                yj = y.coords[j]
                if not yj:
                    continue
                out = out + self.table[i][j].scale(xi * yj)
        return out

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


def _bracket_constants(exact=True) -> StructureConstants:
    es = _basis(EXACT if exact else FLOATING)
    return StructureConstants([[bracket(ei, ej) for ej in es] for ei in es])


#: structure constants of the fixed Lie bracket
LIE_BRACKET = _bracket_constants(exact=True)


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
        h = GaussianRational(_Q(1, 2))
        ih = GaussianRational(0, _Q(1, 2))
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
    """The product x o y = [f(x), y] where f maps e_i to row i of A."""
    es = _basis(A.kind)
    return StructureConstants(
        [[bracket(A.row(i), es[j]) for j in range(3)] for i in range(3)]
    )


def matrix_from_circ(c: StructureConstants, tol: float = 1e-9) -> Mat3:
    """Recover the unique A with ``circ_from_matrix(A) == c``.

    Row i is solved from the linear system [f_i, e_j] = e_i o e_j, j=1..3;
    the bracket relations pin f_i coordinate by coordinate and the remaining
    equations are consistency checks.  Raises :class:`NotAdjointForm` when
    the system is inconsistent (exactly in exact mode, beyond ``tol`` in
    floating mode).
    """
    rows = []
    for i in range(3):
        ci1, ci2, ci3 = (c.product(i, j) for j in range(3))
        # [f, e1] = (0, f3, -f2), [f, e2] = (-f3, 0, f1), [f, e3] = (f2, -f1, 0)
        f = Vec3([ci2[2], ci3[0], ci1[1]])
        rows.append(f.coords)
    A = Mat3(rows)
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


def _record(violations, identity, indices, residual: Vec3, tol, exact):
    if exact:
        if not residual.is_zero():
            violations.append(IdentityViolation(identity, indices, residual))
    elif residual.max_abs() > tol:
        violations.append(IdentityViolation(identity, indices, residual))


def check_postlie(c: StructureConstants, tol: float = 1e-9) -> list[IdentityViolation]:
    """Evaluate both product axioms of a PostLie structure on basis triples.

    The two bracket axioms concern the fixed bracket and are validated once
    at import time; the returned list is empty exactly when the product
    turns the fixed bracket into a PostLie algebra (to ``tol`` in floating
    mode).
    """
    exact = c.kind == EXACT
    es = _basis(c.kind)
    br = LIE_BRACKET if exact else LIE_BRACKET.to_floating()
    violations: list[IdentityViolation] = []
    for a in range(3):
        x = es[a]
        for b in range(3):
            y = es[b]
            for d in range(3):
                z = es[d]
                # z o (y o x) - y o (z o x) + (y o z) o x - (z o y) o x + [y,z] o x
                r = (
                    c.apply(z, c.product(b, a))
                    - c.apply(y, c.product(d, a))
                    + c.apply(c.product(b, d), x)
                    - c.apply(c.product(d, b), x)
                    + c.apply(br.product(b, d), x)
                )
                _record(violations, "postlie-3", (a + 1, b + 1, d + 1), r, tol, exact)
                # z o [x,y] - [z o x, y] - [x, z o y]
                r = (
                    c.apply(z, br.product(a, b))
                    - bracket(c.product(d, a), y)
                    - bracket(x, c.product(d, b))
                )
                _record(violations, "postlie-4", (a + 1, b + 1, d + 1), r, tol, exact)
    return violations


def derived_bracket(c: StructureConstants) -> StructureConstants:
    """Structure constants of {x,y} = x o y - y o x + [x,y]."""
    br = LIE_BRACKET if c.kind == EXACT else LIE_BRACKET.to_floating()
    return StructureConstants(
        [
            [c.product(i, j) - c.product(j, i) + br.product(i, j) for j in range(3)]
            for i in range(3)
        ]
    )


def check_jacobi(b: StructureConstants, tol: float = 1e-9) -> list[IdentityViolation]:
    """Antisymmetry on all basis pairs plus the Jacobi identity on all triples."""
    exact = b.kind == EXACT
    es = _basis(b.kind)
    violations: list[IdentityViolation] = []
    for i in range(3):
        for j in range(3):
            r = b.product(i, j) + b.product(j, i)
            _record(violations, "antisymmetry", (i + 1, j + 1), r, tol, exact)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                r = (
                    b.apply(b.product(i, j), es[k])
                    + b.apply(b.product(k, i), es[j])
                    + b.apply(b.product(j, k), es[i])
                )
                _record(violations, "jacobi", (i + 1, j + 1, k + 1), r, tol, exact)
    return violations


def check_rota_baxter(A: Mat3, tol: float = 1e-9) -> list[IdentityViolation]:
    """Check on all basis pairs that f given by the rows of A satisfies
    [f(x),f(y)] = f([f(x),y] + [x,f(y)] + [x,y])."""
    exact = A.kind == EXACT
    es = _basis(A.kind)
    f = [A.row(i) for i in range(3)]
    violations: list[IdentityViolation] = []
    for i in range(3):
        for j in range(3):
            lhs = bracket(f[i], f[j])
            inner = bracket(f[i], es[j]) + bracket(es[i], f[j]) + bracket(es[i], es[j])
            rhs = inner @ A
            _record(violations, "rota-baxter", (i + 1, j + 1), lhs - rhs, tol, exact)
    return violations


def _validate_fixed_bracket() -> bool:
    if check_jacobi(LIE_BRACKET):
        return False
    es = _basis(EXACT)
    return (
        bracket(es[1], es[2]) == es[0]
        and bracket(es[2], es[0]) == es[1]
        and bracket(es[0], es[1]) == es[2]
    )


# the bracket is a compile-time constant; check it once on import in debug runs
assert _validate_fixed_bracket(), "fixed sl(2,C) bracket table is corrupt"

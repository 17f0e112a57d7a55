"""Reference checks made apart from the program.

Nothing here imports ``postlie_sl2``.  Exact values are Gaussian
rationals held as pairs ``(re, im)`` of ``fractions.Fraction``; the
adjugate is computed by cofactors, so these checks share no code path with
the program's exact kernel.  Floating checks use numpy directly, at
tolerances scaled to the size of their inputs.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# exact Gaussian rationals as Fraction pairs


def g(re=0, im=0):
    """A Gaussian rational from ints, Fractions or ``(p, q)`` tuples."""
    return (_frac(re), _frac(im))


def _frac(x):
    return Fraction(*x) if isinstance(x, tuple) else Fraction(x)


G0 = g(0)
G1 = g(1)


def add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def neg(a):
    return (-a[0], -a[1])


def mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def div(a, b):
    d = b[0] * b[0] + b[1] * b[1]
    if not d:
        raise ZeroDivisionError("division by the zero Gaussian rational")
    return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)


def to_complex(a) -> complex:
    return complex(float(a[0]), float(a[1]))


# ---------------------------------------------------------------------------
# exact 3x3 matrices as tuples of rows of pairs


def identity():
    return tuple(tuple(G1 if i == j else G0 for j in range(3)) for i in range(3))


def transpose(A):
    return tuple(tuple(A[j][i] for j in range(3)) for i in range(3))


def mat_add(A, B):
    return tuple(tuple(add(A[i][j], B[i][j]) for j in range(3)) for i in range(3))


def mat_sub(A, B):
    return tuple(tuple(sub(A[i][j], B[i][j]) for j in range(3)) for i in range(3))


def scale(s, A):
    return tuple(tuple(mul(s, A[i][j]) for j in range(3)) for i in range(3))


def matmul(A, B):
    out = []
    for i in range(3):
        row = []
        for j in range(3):
            acc = G0
            for k in range(3):
                acc = add(acc, mul(A[i][k], B[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def trace(A):
    return add(add(A[0][0], A[1][1]), A[2][2])


def _minor(A, i, j):
    rs = [r for r in range(3) if r != i]
    cs = [c for c in range(3) if c != j]
    return sub(
        mul(A[rs[0]][cs[0]], A[rs[1]][cs[1]]),
        mul(A[rs[0]][cs[1]], A[rs[1]][cs[0]]),
    )


def adjugate(A):
    """Transpose of the cofactor matrix."""
    return tuple(
        tuple(
            _minor(A, j, i) if (i + j) % 2 == 0 else neg(_minor(A, j, i))
            for j in range(3)
        )
        for i in range(3)
    )


def det(A):
    acc = G0
    for j in range(3):
        term = mul(A[0][j], _minor(A, 0, j))
        acc = add(acc, term) if j % 2 == 0 else sub(acc, term)
    return acc


def inverse(A):
    d = det(A)
    if d == G0:
        raise ZeroDivisionError("singular matrix")
    adj = adjugate(A)
    return tuple(tuple(div(adj[i][j], d) for j in range(3)) for i in range(3))


def is_zero(A) -> bool:
    return all(x == G0 for r in A for x in r)


def residual(A):
    """A'((tr A + 1) I - A) - A*, exactly."""
    s = add(trace(A), G1)
    inner = mat_sub(scale(s, identity()), A)
    return mat_sub(matmul(transpose(A), inner), adjugate(A))


def congruate(A, T):
    return matmul(matmul(transpose(T), A), T)


def cayley(a, b, c):
    """Exact Cayley transform (I - K)^-1 (I + K) of the antisymmetric K
    with upper entries a, b, c; lies in SO(3,C)."""
    K = ((G0, a, b), (neg(a), G0, c), (neg(b), neg(c), G0))
    I = identity()
    return matmul(inverse(mat_sub(I, K)), mat_add(I, K))


def to_numpy(A) -> np.ndarray:
    return np.array([[to_complex(x) for x in r] for r in A], dtype=complex)


# ---------------------------------------------------------------------------
# the five families, built from the published list

FAMILIES = ("Zero", "MinusIdentity", "TraceMinus2", "KFamily", "NonSymRank1")


def canonical(kind: str, k=None):
    """Exact canonical matrix of a family; KFamily takes an exact k."""
    h = Fraction(1, 2)
    if kind == "Zero":
        return tuple(tuple(G0 for _ in range(3)) for _ in range(3))
    if kind == "MinusIdentity":
        return scale(g(-1), identity())
    if kind == "TraceMinus2":
        p, q = g(-h, -h), g(-h, h)
        return ((g(-1), G0, G0), (G0, p, q), (G0, p, q))
    if kind == "KFamily":
        return ((k, G0, G0), (G0, g(-h), g(0, h)), (G0, g(0, -h), g(-h)))
    if kind == "NonSymRank1":
        return (
            (g(-h, 1), g(1, -h), G0),
            (g(1, h), g(-h, -1), G0),
            (G0, G0, G0),
        )
    raise ValueError(f"unknown family {kind!r}")


def canonical_float(kind: str, k: complex = 0j) -> np.ndarray:
    if kind == "KFamily":
        A = to_numpy(canonical(kind, G0))
        A[0, 0] = k
        return A
    return to_numpy(canonical(kind))


def expected_sym_form(kind: str, k: complex = 0j):
    """Canonical form of sym(A) for the family representative, derived by
    hand from its eigenvalues and Jordan blocks: (form name, parameters)."""
    if kind == "Zero":
        return "ZeroForm", ()
    if kind == "MinusIdentity":
        return "Rank3Diag", (-1, -1, -1)
    if kind == "TraceMinus2":
        # eigenvalue -1 simple, -1/2 in one 2x2 Jordan block
        return "Rank3OneBlock", (-1, -0.5)
    if kind == "NonSymRank1":
        # eigenvalue 0 simple, -1/2 in one 2x2 Jordan block
        return "Rank2Block", (-0.5,)
    if kind == "KFamily":
        # sym(A) = diag(k, -1/2, -1/2); k is kept away from 0 and -1/2
        params = sorted([complex(k), -0.5 + 0j, -0.5 + 0j], key=lambda z: (z.real, z.imag))
        return "Rank3Diag", tuple(params)
    raise ValueError(f"unknown family {kind!r}")


# ---------------------------------------------------------------------------
# structure constants of x o y = [f(x), y], with [u, v] the cross product


def cross(u, v):
    return (
        sub(mul(u[1], v[2]), mul(u[2], v[1])),
        sub(mul(u[2], v[0]), mul(u[0], v[2])),
        sub(mul(u[0], v[1]), mul(u[1], v[0])),
    )


def circ_constants(A):
    """c[i][j] = coordinates of e_i o e_j = [row i of A, e_j]."""
    es = identity()
    return tuple(tuple(cross(A[i], es[j]) for j in range(3)) for i in range(3))


# ---------------------------------------------------------------------------
# floating checks


def cayley_float(a: complex, b: complex, c: complex) -> np.ndarray:
    K = np.array([[0, a, b], [-a, 0, c], [-b, -c, 0]], dtype=complex)
    I = np.eye(3)
    return np.linalg.solve(I - K, I + K)


def congruate_float(A: np.ndarray, T: np.ndarray) -> np.ndarray:
    return T.T @ A @ T


WITNESS_TOL = 1e-8


def witness_ok(T: np.ndarray, A: np.ndarray, B: np.ndarray, tol: float = WITNESS_TOL) -> bool:
    """T'T = I, det T = 1 and T'AT = B, each to ``tol`` times the size of
    the quantities involved."""
    t = max(1.0, float(np.linalg.norm(T)))
    a = max(1.0, float(np.linalg.norm(A)), float(np.linalg.norm(B)))
    if np.linalg.norm(T.T @ T - np.eye(3)) > tol * t * t:
        return False
    if abs(np.linalg.det(T) - 1) > tol * t**3:
        return False
    return bool(np.linalg.norm(T.T @ A @ T - B) <= tol * a * t * t)


def close(z: complex, w: complex, tol: float) -> bool:
    return abs(complex(z) - complex(w)) <= tol * max(1.0, abs(complex(w)))

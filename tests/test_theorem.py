"""The paper's reduction, proved on a unisolvent set of points.

For f(x) = x A the Rota-Baxter defect [f(x), f(y)] - f([f(x), y] +
[x, f(y)] + [x, y]), the PostLie defects of x o y = [f(x), y] and the
residual R = A'((tr A + 1) I - A) - A* are polynomials of degree at most 2
in the nine entries of A.  The 55 integer points alpha of N^9 with
|alpha| <= 2 are unisolvent for that space, so two such polynomials that
agree on them agree for every complex A.  The identities checked here
therefore hold as polynomial identities:

* RB(e_i, e_j) = -[e_i, e_j] R': minus column k of R when
  [e_i, e_j] = e_k (j = i + 1 mod 3), plus column k when
  [e_i, e_j] = -e_k, and zero when i = j;
* postlie-3 at (a, b, d) is [e_a, RB(e_b, e_d)];
* postlie-4 holds identically.

So x o y = [f(x), y] is a PostLie product exactly when R = 0, and the
rewritten residual agrees with the independent Rota-Baxter contraction.
"""

import itertools

from postlie_sl2.linalg import Mat3, Vec3
from postlie_sl2.mateq import residual
from postlie_sl2.sl2 import bracket, check_postlie, check_rota_baxter, circ_from_matrix


#: the matrices whose entries are the points of {alpha in N^9 : |alpha| <= 2}
LATTICE = [
    Mat3([alpha[0:3], alpha[3:6], alpha[6:9]])
    for alpha in itertools.product(range(3), repeat=9)
    if sum(alpha) <= 2
]


def defects(violations, identity):
    """The nonzero defects of one identity, by 1-based indices."""
    return {v.indices: v.residual for v in violations if v.identity == identity}


def test_rota_baxter_defect_is_the_residual():
    # C(9 + 2, 2) points, one per monomial of degree <= 2 in nine variables
    assert len(LATTICE) == 55
    zero = Vec3.zero()
    for A in LATTICE:
        R = residual(A)
        rb = defects(check_rota_baxter(A), "rota-baxter")
        for i, j in itertools.product(range(3), repeat=2):
            if i == j:
                want = zero
            else:
                k = 3 - i - j
                column = Vec3([R[m, k] for m in range(3)])
                want = -column if j == (i + 1) % 3 else column
            assert rb.get((i + 1, j + 1), zero) == want, (A, i, j)


def test_postlie_defects_are_brackets_of_rota_baxter_defects():
    zero = Vec3.zero()
    for A in LATTICE:
        rb = defects(check_rota_baxter(A), "rota-baxter")
        violations = check_postlie(circ_from_matrix(A))
        assert not defects(violations, "postlie-4"), A
        three = defects(violations, "postlie-3")
        for a, b, d in itertools.product(range(3), repeat=3):
            want = bracket(Vec3.basis(a), rb.get((b + 1, d + 1), zero))
            assert three.get((a + 1, b + 1, d + 1), zero) == want, (A, a, b, d)

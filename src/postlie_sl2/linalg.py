"""Scalar kernels and fixed-size complex matrix algebra (3x3 and 2x2).

Two scalar worlds coexist and never mix inside one matrix:

* exact     -- :class:`GaussianRational`, a complex number with rational
               real and imaginary parts, stored as one Gaussian integer
               ``num_re + num_im*i`` over one positive denominator ``den``
               in lowest terms.  Every operation works on plain ints and
               reduces once; equality is mathematical equality.
* floating  -- the built-in ``complex``.  NaN and infinite entries are
               rejected when a matrix or vector is constructed, from
               outside input or from arithmetic.

Vectors are *row* coordinate vectors throughout: a linear map with matrix
``A`` sends ``v`` to ``v @ A``.  ``Vec3``, ``Mat2``, ``Mat3`` and
``sl2.StructureConstants`` store one flat tuple ``entries`` (row-major)
beside ``kind``, with read-only views such as ``rows``, and share the
elementwise operations of :class:`Entries`.

Python-scalar 3x3 work reads one kernel on nine entries, which builds no
``Mat3``: :func:`cofactors` (determinant and adjugate), :func:`gram` (X'Y)
and :func:`frobenius_distance`.  ``Mat3`` and the membership, automorphism,
symmetry and witness tests read it.  Overflow gives inf or nan, never an
exception, so those tests answer near the float range; on exact entries,
an exact sum past the float range gives inf, and ``to_floating`` raises
``ValueError`` naming the first entry beyond it.

Exact decisions read one kernel on Gaussian-integer numerators, ``(re, im)``
int pairs over one common denominator (:func:`numerator_vectors`):
:func:`contract`, the one multiply-accumulate (with :func:`ad` and
:func:`times`), and :func:`rank_numerators`, the one exact rank.

Floating ranks have one rule, :func:`rank_decisions`: singular values
above ``tol * max(sigma_max, floor)`` count, and on descending rows the
value nearest the threshold is one of its two neighbours.  ``Mat3.rank``,
the classifier, the Jordan signatures and the congruence nullspaces all
read it.  Jordan signatures are floating only, and read their eigenvalues
from ``np.linalg.eigvals``.

A flat value computes a derived form once: ``value.derived(form)`` runs
``form(value)`` on the first call and keeps the result on the value, and
``value.keep(form, result)`` hands it a result its caller already has.  An
exact value keeps its numerator form (:func:`numerator_form`), and
``mateq`` keeps the residual numerators of a matrix, which ``residual``,
``is_solution`` and ``classify`` all read; ``sl2.circ_from_matrix`` hands
its table the numerator and derivation forms it placed from A's.  This is
sound because values are immutable and a form is a function of the
entries alone: a kept result never goes stale, and two threads that
compute one at once keep equal results.  A value built from another, even
with equal entries, or copied, starts with nothing kept.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to use concurrently without locks.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from ._numpy import np

__all__ = [
    "GaussianRational",
    "IM",
    "Entries",
    "Vec3",
    "Mat3",
    "Mat2",
    "JordanSignature",
    "IllConditioned",
    "rank_decisions",
    "numerator_vectors",
    "numerator_form",
    "times",
    "ad",
    "contract",
    "rank_numerators",
    "cofactors",
    "gram",
    "frobenius_distance",
    "jordan_signature",
]

EXACT = "exact"
FLOATING = "floating"

#: relative threshold below which a singular value counts as zero
DEFAULT_RANK_TOL = 1e-8
#: eigenvalue clustering tolerance for Jordan signatures
DEFAULT_JORDAN_TOL = 1e-6
#: clusters closer than this multiple of the tolerance are ambiguous
JORDAN_AMBIGUITY_FACTOR = 10.0
#: floor on the clustering threshold, relative to the matrix scale: a
#: defective triple eigenvalue of a float64 matrix is only determined to
#: about (machine eps)**(1/3) ~ 6e-6, so finer clustering is meaningless
EIG_CLUSTER_FLOOR = 1e-4


class IllConditioned(ArithmeticError):
    """Eigenvalue clustering is ambiguous at the working tolerance."""


#: a component string: an integer or a quotient of two, in decimal digits;
#: Fraction alone would expand "1e30000000" to thirty million digits
_RATIONAL = r"[+-]?[0-9]+(/[0-9]+)?"


def _to_rational(value) -> Fraction:
    """Coerce ``value`` to an exact rational, refusing floats outright."""
    if isinstance(value, (float, complex)):
        raise TypeError(f"exact scalars need rational components, got {value!r}")
    if isinstance(value, str) and not re.fullmatch(_RATIONAL, value):
        raise ValueError(f"exact component strings are p or p/q, got {value!r}")
    return Fraction(value)


def _reduced(a: int, b: int, d: int) -> "GaussianRational":
    """The scalar (a + b*i) / d for d > 0, brought to lowest terms."""
    g = math.gcd(a, b, d)
    z = object.__new__(GaussianRational)
    if g == 1:
        z.num_re, z.num_im, z.den = a, b, d
    else:
        z.num_re, z.num_im, z.den = a // g, b // g, d // g
    return z


class GaussianRational:
    """Exact complex scalar ``(num_re + num_im*i) / den``.

    The value is stored as three plain ints: a Gaussian-integer numerator
    ``num_re + num_im*i`` over one positive denominator ``den``, in lowest
    terms (``gcd(num_re, num_im, den) == 1``).  Each operation computes
    integer numerators and reduces once, so the triple is canonical and
    equality compares triples.  The three attributes are read-only by
    convention; ``re`` and ``im`` give the components as ``Fraction``s.

    The constructor takes an int, a ``Fraction`` or a string ``p`` or
    ``p/q`` of decimal integers for each component; arithmetic and
    equality also accept int and ``Fraction`` operands, but not strings.
    Hashing agrees with equality: a real value hashes like its
    ``Fraction`` (and so like an int when it is one), any other value like
    its ``(re, im)`` pair.
    """

    __slots__ = ("num_re", "num_im", "den")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.num_re, self.num_im, self.den = re, im, 1
            return
        r, i = _to_rational(re), _to_rational(im)
        # the lcm of two lowest-terms denominators leaves gcd(a, b, d) = 1
        d = math.lcm(r.denominator, i.denominator)
        self.num_re = r.numerator * (d // r.denominator)
        self.num_im = i.numerator * (d // i.denominator)
        self.den = d

    @classmethod
    def from_numerators(cls, re: int, im: int, den: int) -> "GaussianRational":
        """``(re + im*i) / den`` for plain ints and ``den > 0``, reduced once."""
        return _reduced(re, im, den)

    @property
    def re(self) -> Fraction:
        return Fraction(self.num_re, self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.num_im, self.den)

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(value):
        if type(value) is GaussianRational:
            return value
        # a string operand would equal the scalar but not hash like it
        if isinstance(value, (float, complex, str)):
            return None
        try:
            return GaussianRational(value)
        except (TypeError, ValueError):
            return None

    def __add__(self, other):
        o = other if type(other) is GaussianRational else self._coerce(other)
        if o is None:
            return NotImplemented
        d, f = self.den, o.den
        if d == f:
            return _reduced(self.num_re + o.num_re, self.num_im + o.num_im, d)
        return _reduced(
            self.num_re * f + o.num_re * d, self.num_im * f + o.num_im * d, d * f
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is GaussianRational else self._coerce(other)
        if o is None:
            return NotImplemented
        d, f = self.den, o.den
        if d == f:
            return _reduced(self.num_re - o.num_re, self.num_im - o.num_im, d)
        return _reduced(
            self.num_re * f - o.num_re * d, self.num_im * f - o.num_im * d, d * f
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = other if type(other) is GaussianRational else self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, e = self.num_re, self.num_im, o.num_re, o.num_im
        return _reduced(a * c - b * e, a * e + b * c, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if type(other) is GaussianRational else self._coerce(other)
        if o is None:
            return NotImplemented
        # ((a+bi)/d) / ((c+ei)/f) = (a+bi)(c-ei) f / (d (c^2+e^2))
        a, b, c, e, f = self.num_re, self.num_im, o.num_re, o.num_im, o.den
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("division by zero GaussianRational")
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self.den * n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        # negating the numerator keeps the triple in lowest terms
        z = object.__new__(GaussianRational)
        z.num_re, z.num_im, z.den = -self.num_re, -self.num_im, self.den
        return z

    def __pos__(self):
        return self

    # -- comparisons / conversions --------------------------------------

    def __eq__(self, other):
        o = other if type(other) is GaussianRational else self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.num_re, self.num_im, self.den) == (o.num_re, o.num_im, o.den)

    def __hash__(self):
        if not self.num_im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.num_re or self.num_im)

    def conjugate(self) -> "GaussianRational":
        return _reduced(self.num_re, -self.num_im, self.den)

    def abs_squared(self) -> Fraction:
        """``re**2 + im**2`` as an exact rational."""
        a, b, d = self.num_re, self.num_im, self.den
        return Fraction(a * a + b * b, d * d)

    def to_complex(self) -> complex:
        # int true division is correctly rounded, as float(Fraction) is
        return complex(self.num_re / self.den, self.num_im / self.den)

    __complex__ = to_complex

    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}i"

    def __repr__(self):
        return f"GaussianRational('{self.re}', '{self.im}')"


#: the exact imaginary unit sqrt(-1)
IM = GaussianRational(0, 1)


def _coerce_scalars(values, where="entries"):
    """Normalize a flat scalar list to one kind; reject mixed or non-finite."""
    values = tuple(values)
    # all exact, or all finite complex, is settled by one scan
    first = type(values[0])
    if first is GaussianRational and all(type(v) is GaussianRational for v in values):
        return values, EXACT
    if first is complex and all(type(v) is complex for v in values) and all(
        map(cmath.isfinite, values)
    ):
        return values, FLOATING
    has_float = any(isinstance(v, (float, complex)) for v in values)
    has_exact = any(isinstance(v, (GaussianRational, Fraction)) for v in values)
    if not has_float and not has_exact:
        # plain ints also land here and default to the exact world
        has_exact = True
    if has_float and has_exact:
        raise ValueError(f"mixed exact and floating {where}")
    if has_float:
        out = tuple(map(complex, values))
        if not all(map(cmath.isfinite, out)):
            bad = next(v for v, z in zip(values, out) if not cmath.isfinite(z))
            raise ValueError(f"non-finite value in {where}: {bad!r}")
        return out, FLOATING
    return tuple(v if isinstance(v, GaussianRational) else GaussianRational(v) for v in values), EXACT


class Entries:
    """The elementwise operations of the flat values, on the tuple
    ``entries`` of scalars of one ``kind``; values are unhashable, equal
    only to values of their own class, and take only those as operands
    (``Vec3 @`` takes a ``Mat3``).  :meth:`derived` keeps a form computed
    from the entries on the value."""

    __slots__ = ("entries", "kind", "_derived")
    #: what the kind check's messages call the entries
    _where = "entries"
    #: the number of entries
    _size = 0

    @classmethod
    def _of(cls, entries):
        """The value with these flat entries, through the constructor's kind check."""
        value = object.__new__(cls)
        value.entries, value.kind = _coerce_scalars(entries, cls._where)
        return value

    def derived(self, form):
        """``form(self)``, computed on this value's first call and kept on
        the value; ``form`` must be a function of the entries alone."""
        kept = getattr(self, "_derived", None)
        if kept is not None and form in kept:
            return kept[form]
        result = form(self)
        self.keep(form, result)
        return result

    def keep(self, form, result):
        """Keep ``result`` as ``form(self)`` for :meth:`derived`, for a
        caller that has it from elsewhere; it must equal ``form(self)``."""
        kept = getattr(self, "_derived", None)
        if kept is None:
            self._derived = {form: result}
        else:
            kept[form] = result

    def __getstate__(self):
        # a copy or a pickle carries the entries, not the kept forms
        return None, {"entries": self.entries, "kind": self.kind}

    def _same_kind(self, other, cls=None):
        """Refuse an operand that is not a ``cls``, by default of this
        class, and one of the other kind as the kind check does."""
        if not isinstance(other, cls or type(self)):
            raise TypeError(f"{type(self).__name__} does not combine with {type(other).__name__}")
        if other.kind != self.kind:
            raise ValueError(f"mixed exact and floating {self._where}")

    def __add__(self, other):
        self._same_kind(other)
        return self._of([a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._same_kind(other)
        return self._of([a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self):
        return self._of([-a for a in self.entries])

    def scale(self, s):
        """Every entry times ``s``, an int or a scalar of this value's kind."""
        if isinstance(s, (float, complex) if self.kind == EXACT else (GaussianRational, Fraction)):
            raise ValueError(f"mixed exact and floating {self._where}")
        return self._of([s * a for a in self.entries])

    @classmethod
    def zero(cls, exact=True):
        return cls._of([0 if exact else 0j] * cls._size)

    def is_zero(self) -> bool:
        return not any(self.entries)

    def max_abs(self) -> float:
        # inf where abs() of a complex or a float conversion would raise
        return max(frobenius_distance((z,), (0,)) for z in self.entries)

    def to_floating(self):
        if self.kind == FLOATING:
            return self
        out = []
        for n, x in enumerate(self.entries):
            try:
                out.append(x.to_complex())
            except OverflowError:
                raise ValueError(f"{type(self).__name__} entry {n} exceeds the floating range") from None
        return self._of(out)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.kind == other.kind and self.entries == other.entries


class Vec3(Entries):
    """Row coordinate vector with three scalars of a single kind."""

    __slots__ = ()
    _where = "coordinates"
    _size = 3

    def __init__(self, coords):
        cs = tuple(coords)
        if len(cs) != 3:
            raise ValueError("Vec3 needs exactly 3 coordinates")
        self.entries, self.kind = _coerce_scalars(cs, self._where)

    @property
    def coords(self) -> tuple:
        return self.entries

    @classmethod
    def basis(cls, i, exact=True):
        """The i-th standard basis row vector, 0-indexed."""
        c = [0, 0, 0]
        c[i] = 1
        return cls._of(c if exact else [complex(x) for x in c])

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def cross(self, other):
        """Cross product of the coordinate triples."""
        self._same_kind(other)
        x, y = self.entries, other.entries
        return self._of(
            [
                x[1] * y[2] - x[2] * y[1],
                x[2] * y[0] - x[0] * y[2],
                x[0] * y[1] - x[1] * y[0],
            ]
        )

    def __matmul__(self, A: "Mat3") -> "Vec3":
        """Row vector times matrix."""
        self._same_kind(A, Mat3)
        a = A.entries
        x0, x1, x2 = self.entries
        return self._of([x0 * a[j] + x1 * a[3 + j] + x2 * a[6 + j] for j in range(3)])

    def __repr__(self):
        return f"Vec3({list(self.entries)!r})"


class _SquareMatrix(Entries):
    """Shared plumbing for the fixed-size matrix classes."""

    __slots__ = ()
    _n = 0

    def __init__(self, rows):
        rows = [tuple(r) for r in rows]
        n = self._n
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError(f"{type(self).__name__} needs {n}x{n} entries")
        self.entries, self.kind = _coerce_scalars([x for r in rows for x in r])

    @property
    def rows(self) -> tuple:
        e, n = self.entries, self._n
        return tuple(e[i : i + n] for i in range(0, n * n, n))

    @classmethod
    def identity(cls, exact=True):
        z, o = (0, 1) if exact else (0j, 1 + 0j)
        n = cls._n
        return cls._of([o if i % (n + 1) == 0 else z for i in range(n * n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self._n + j]

    def __matmul__(self, other):
        self._same_kind(other)
        n = self._n
        a, b = self.entries, other.entries
        cells = [(i, j) for i in range(0, n * n, n) for j in range(n)]
        if self.kind == EXACT:
            # start each sum at its first product: no zero to build and add
            return self._of(
                [sum((a[i + k] * b[k * n + j] for k in range(1, n)), a[i] * b[j]) for i, j in cells]
            )
        # floating sums start at 0j, which turns a first product of -0.0 into
        # +0.0; floating products and their JSON keep that sign of zero
        return self._of([sum((a[i + k] * b[k * n + j] for k in range(n)), 0j) for i, j in cells])

    def transpose(self):
        n, e = self._n, self.entries
        return self._of([e[j * n + i] for i in range(n) for j in range(n)])

    def trace(self):
        n, e = self._n, self.entries
        t = e[0]
        for i in range(1, n):
            t = t + e[i * (n + 1)]
        return t

    def frobenius_norm(self) -> float:
        return frobenius_distance(self.entries, (0,) * len(self.entries))

    def to_numpy(self) -> np.ndarray:
        """The complex (n,n) array; exact entries past the float range raise
        the ``ValueError`` of ``to_floating``."""
        n = self._n
        return np.array(self.to_floating().entries, dtype=complex).reshape(n, n)

    @classmethod
    def from_numpy(cls, arr) -> "_SquareMatrix":
        return cls(np.asarray(arr, dtype=complex).tolist())

    def close_to(self, other, tol: float) -> bool:
        """||self - other||_F <= tol, on floating copies if the kinds differ."""
        if self.kind != other.kind:
            self, other = self.to_floating(), other.to_floating()
        return frobenius_distance(self.entries, other.entries) <= tol

    def __repr__(self):
        body = ", ".join(repr(list(r)) for r in self.rows)
        return f"{type(self).__name__}([{body}])"


class Mat2(_SquareMatrix):
    """2x2 complex matrix over either scalar kind."""

    __slots__ = ()
    _n, _size = 2, 4

    def det(self):
        a, b, c, d = self.entries
        return a * d - b * c

    def inverse(self) -> "Mat2":
        det = self.det()
        if not det:
            raise ZeroDivisionError("singular 2x2 matrix")
        a, b, c, d = self.entries
        return self._of([d / det, -b / det, -c / det, a / det])


class Mat3(_SquareMatrix):
    """3x3 complex matrix over either scalar kind.

    Hosts the matrix operations the rest of the package is built on:
    transpose, adjugate, determinant, characteristic polynomial, rank and
    the symmetric part.  The determinant and the adjugate
    are read off :func:`cofactors`.
    """

    __slots__ = ()
    _n, _size = 3, 9

    @classmethod
    def diag(cls, a, b, c):
        return cls([[a, 0, 0], [0, b, 0], [0, 0, c]])

    def row(self, i) -> Vec3:
        return Vec3(self.entries[3 * i : 3 * i + 3])

    def det(self):
        return cofactors(self.entries)[1]

    def adjugate(self) -> "Mat3":
        """Transpose of the cofactor matrix; ``A @ A.adjugate() == det(A) * I``."""
        cof = cofactors(self.entries)[0]
        return self._of(cof[0::3] + cof[1::3] + cof[2::3])

    def inverse(self) -> "Mat3":
        d = self.det()
        if not d:
            raise ZeroDivisionError("singular 3x3 matrix")
        one = GaussianRational(1) if self.kind == EXACT else 1 + 0j
        return self.adjugate().scale(one / d)

    def char_poly(self):
        """Coefficients ``(c2, c1, c0)`` of ``x^3 + c2 x^2 + c1 x + c0``."""
        return (-self.trace(), self.adjugate().trace(), -self.det())

    def sym_part(self) -> "Mat3":
        half = GaussianRational(Fraction(1, 2)) if self.kind == EXACT else 0.5
        return (self + self.transpose()).scale(half)

    def rank(self, tol: float | None = None, floor: float = 0.0) -> int:
        """Rank of the matrix.

        Exact matrices go through :func:`rank_numerators` (``tol`` must be 0
        or omitted; ``floor`` is ignored).  Floating matrices are the one-row
        call of :func:`rank_decisions`, with ``tol`` defaulting to 1e-8.
        """
        if self.kind == EXACT:
            if tol not in (None, 0, 0.0):
                raise ValueError("exact rank requires tol=0")
            return rank_numerators(self.derived(numerator_form)[0])
        if tol is None:
            tol = DEFAULT_RANK_TOL
        sv = np.linalg.svd(self.to_numpy(), compute_uv=False)
        return rank_decisions(sv[None], tol, floor)[0][0]


def cofactors(X):
    """The cofactor matrix of X, which is det(X) X^-T, as nine entries, and
    det(X); the adjugate is the cofactor matrix transposed."""
    a, b, c, d, e, f, g, h, i = X
    cof = [
        e * i - f * h, f * g - d * i, d * h - e * g,
        c * h - b * i, a * i - c * g, b * g - a * h,
        b * f - c * e, c * d - a * f, a * e - b * d,
    ]
    return cof, a * cof[0] + b * cof[1] + c * cof[2]


def gram(X, Y) -> list:
    """X' Y for two matrices of nine entries, as nine entries."""
    return [X[r] * Y[c] + X[r + 3] * Y[c + 3] + X[r + 6] * Y[c + 6]
            for r in (0, 1, 2) for c in (0, 1, 2)]


def frobenius_distance(X, Y) -> float:
    """||X - Y||_F for two sequences of entries of one kind: exact entries
    sum their squared moduli exactly; floating ones go through
    ``math.hypot``.  Either gives inf past the float range."""
    diffs = [x - y for x, y in zip(X, Y)]
    if isinstance(diffs[0], GaussianRational):
        try:
            return math.sqrt(sum((z.abs_squared() for z in diffs), Fraction(0)))
        except OverflowError:  # the exact sum exceeds the float range
            return math.inf
    return math.hypot(*[z.real for z in diffs], *[z.imag for z in diffs])


def rank_decisions(sv, tol: float, floor) -> list:
    """The floating rank rule, on a stack of rows of descending singular
    values: per row, (rank, singular value nearest the threshold in ratio,
    threshold).

    The rank counts singular values above ``tol * max(sigma_max, floor)``;
    ``floor`` is one number or one per row.  The floor carries the scale of
    the object a matrix was derived from, so that a derived matrix that is
    mathematically zero but numerically noise has rank 0.  A row with
    threshold 0 (the zero matrix at floor 0) has rank 0, and its nearest
    singular value is 0.  The rows descend, so the values above the
    threshold lead the row, and the nearest value is the last of them or
    the first value after them, the earlier of the two on a tie; a row
    with no positive value gives its first.
    """
    rows = sv.tolist()
    floors = floor.tolist() if isinstance(floor, np.ndarray) else [floor] * len(rows)
    out = []
    for row, f in zip(rows, floors):
        threshold = tol * max(row[0], f)
        if not threshold:
            out.append((0, 0.0, 0.0))
            continue
        rank = 0
        for x in row:
            if not x > threshold:
                break
            rank += 1
        log_t = math.log(threshold)
        nearest, distance = row[0], math.inf
        for x in row[max(rank - 1, 0) : rank + 1]:
            if x > 0:
                d = abs(math.log(x) - log_t)
                if d < distance:
                    nearest, distance = x, d
        out.append((rank, nearest, threshold))
    return out


def numerator_vectors(scalars):
    """Consecutive triples of scalars of one kind as vectors of (re, im)
    pairs over one positive common denominator D; returns the vectors and
    D.  Exact scalars become plain ints over the lcm of their denominators,
    so a polynomial of degree p in them is an int pair over D**p; floating
    scalars become float pairs over D = 1.0."""
    if isinstance(scalars[0], GaussianRational):
        D = math.lcm(*(z.den for z in scalars))
        pairs = [(z.num_re * (D // z.den), z.num_im * (D // z.den)) for z in scalars]
    else:
        D = 1.0
        pairs = [(z.real, z.imag) for z in scalars]
    triples = iter(pairs)
    return tuple(zip(triples, triples, triples)), D


def numerator_form(value):
    """:func:`numerator_vectors` of the entries of a flat value, which
    ``value.derived(numerator_form)`` computes once per value."""
    return numerator_vectors(value.entries)


def times(v, s):
    """The vector of pairs ``v`` times the real scalar ``s``."""
    return tuple((s * p, s * q) for p, q in v)


def ad(w, n, z):
    """Rows [e_m, w], the matrix of x -> [x, w]: a placement of the
    coordinates w, their negations n and a zero z, scalars or pairs."""
    (w0, w1, w2), (n0, n1, n2) = w, n
    return (z, n2, w1), (w2, z, n0), (n1, w0, z)


def contract(*terms):
    """The sum of the vectors ``v @ M`` over the terms ``(v, M)``, for
    coefficient pairs ``v`` and matrix rows ``M``.

    Each term is summed on its own before it joins the total, the order in
    which term-by-term vector arithmetic rounds, so that a term and its
    negative cancel exactly on float pairs too.  Zero coefficients are
    skipped.
    """
    R0 = I0 = R1 = I1 = R2 = I2 = 0
    for v, M in terms:
        r0 = i0 = r1 = i1 = r2 = i2 = 0
        for (p, q), ((u0, w0), (u1, w1), (u2, w2)) in zip(v, M):
            if p or q:
                r0 += p * u0 - q * w0
                i0 += p * w0 + q * u0
                r1 += p * u1 - q * w1
                i1 += p * w1 + q * u1
                r2 += p * u2 - q * w2
                i2 += p * w2 + q * u2
        R0 += r0
        I0 += i0
        R1 += r1
        I1 += i1
        R2 += r2
        I2 += i2
    return (R0, I0), (R1, I1), (R2, I2)


def rank_numerators(rows) -> int:
    """Rank over C of a matrix of Gaussian integers, given as rows of
    (re, im) int pairs, of any shape, by fraction-free (Bareiss)
    elimination.  Each entry left after k pivots is a (k+1)-minor, so the
    division by the last pivot is exact in Z[i]; a remainder raises
    ``ArithmeticError``.  A column with no nonzero entry left is skipped."""
    rest, rank, (dr, di) = list(rows), 0, (1, 0)
    while rest and rest[0]:
        k = next((k for k, r in enumerate(rest) if r[0] != (0, 0)), None)
        if k is None:
            rest = [r[1:] for r in rest]
            continue
        (pr, pi), *top = rest.pop(k)
        n, eliminated = dr * dr + di * di, []
        for (fr, fi), *row in rest:
            eliminated.append([])
            for (xr, xi), (yr, yi) in zip(row, top):
                # (p x - f y) / d = (p x - f y) conj(d) / |d|^2
                ar = pr * xr - pi * xi - fr * yr + fi * yi
                ai = pr * xi + pi * xr - fr * yi - fi * yr
                qr, er = divmod(ar * dr + ai * di, n)
                qi, ei = divmod(ai * dr - ar * di, n)
                if er or ei:
                    raise ArithmeticError("inexact Bareiss division")
                eliminated[-1].append((qr, qi))
        rest, rank, dr, di = eliminated, rank + 1, pr, pi
    return rank


# ---------------------------------------------------------------------------
# Jordan signatures


def _sorted_eigenvalues(a: np.ndarray) -> tuple:
    """Eigenvalues of a complex (3,3) array with repetition, from
    ``np.linalg.eigvals``, sorted by ``(real, imag)`` for determinism."""
    vals = np.linalg.eigvals(a).tolist()
    return tuple(sorted(vals, key=lambda z: (z.real, z.imag)))


@dataclass(frozen=True)
class JordanSignature:
    """Eigenvalues with descending Jordan block sizes, block sizes summing to 3.

    ``entries`` is a tuple of ``(eigenvalue, block_sizes)`` pairs sorted by
    ``(real, imag)`` of the eigenvalue.
    """

    entries: tuple

    def close_to(self, other: "JordanSignature", tol: float) -> bool:
        if len(self.entries) != len(other.entries):
            return False
        for (la, ba), (lb, bb) in zip(self.entries, other.entries):
            if ba != bb:
                return False
            if abs(complex(la) - complex(lb)) > tol:
                return False
        return True


def jordan_signature(A: Mat3) -> JordanSignature:
    """Cluster the eigenvalues of a floating ``A`` and determine Jordan
    block sizes.

    Block sizes for eigenvalue ``lam`` come from the ranks of
    ``(A - lam*I)**p`` for ``p = 1..multiplicity``.  Exact matrices raise
    ``TypeError``.

    The clustering threshold is the larger of ``DEFAULT_JORDAN_TOL`` and
    ``EIG_CLUSTER_FLOOR`` times the matrix scale, since eigenvalues of a
    floating matrix cannot be resolved below the defective-eigenvalue
    sensitivity of float64.  Raises :class:`IllConditioned` when two
    clusters are separated by less than ten times that threshold.
    """
    if A.kind != FLOATING:
        raise TypeError("jordan_signature needs a floating matrix; use to_floating()")
    a = A.to_numpy()
    vals = _sorted_eigenvalues(a)
    scale = max(1.0, float(np.linalg.norm(a, 2)))
    eff_tol = max(DEFAULT_JORDAN_TOL, EIG_CLUSTER_FLOOR * scale)
    groups = _cluster(vals, eff_tol)
    gap = _min_intercluster_gap(groups)
    if gap < JORDAN_AMBIGUITY_FACTOR * eff_tol:
        raise IllConditioned(
            f"eigenvalue clusters separated by {gap:.3e} < "
            f"{JORDAN_AMBIGUITY_FACTOR * eff_tol:.3e}"
        )
    entries = []
    for g in groups:
        lam = sum(g) / len(g)
        entries.append((lam, _block_sizes(a, lam, len(g))))
    entries.sort(key=lambda e: (e[0].real, e[0].imag))
    return JordanSignature(tuple(entries))


def _cluster(vals, tol):
    """Single-linkage clustering of up to three complex numbers."""
    groups = [[v] for v in vals]
    merged = True
    while merged:
        merged = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if any(abs(a - b) <= tol for a in groups[i] for b in groups[j]):
                    groups[i].extend(groups[j])
                    del groups[j]
                    merged = True
                    break
            if merged:
                break
    return groups


def _min_intercluster_gap(groups):
    gap = math.inf
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            for a in groups[i]:
                for b in groups[j]:
                    gap = min(gap, abs(a - b))
    return gap


def _block_sizes(a: np.ndarray, lam: complex, mult: int) -> tuple:
    """Jordan block sizes of ``lam`` in the complex (3,3) array ``a``, from
    the ranks of the powers of ``a - lam*I``, decided with one batched SVD.

    Powers of a nilpotent part are numerically noise, so the rank
    threshold of power p is floored at the p-th power of the shifted
    matrix's scale, its largest singular value and at least 1.
    """
    shifted = a - np.eye(3, dtype=complex) * lam
    powers = [shifted]
    for _ in range(1, mult):
        powers.append(powers[-1] @ shifted)
    sv = np.linalg.svd(np.stack(powers), compute_uv=False)
    scale = max(float(sv[0, 0]), 1.0)
    floors = np.array([scale**p for p in range(1, mult + 1)])
    ranks = [3] + [rank for rank, _, _ in rank_decisions(sv, DEFAULT_JORDAN_TOL, floors)]
    return _sizes_from_ranks(ranks, mult, lam)


def _sizes_from_ranks(ranks, mult: int, lam) -> tuple:
    ge = [ranks[p - 1] - ranks[p] for p in range(1, mult + 1)]  # blocks of size >= p
    ge.append(0)
    sizes = []
    for p in range(1, mult + 1):
        sizes.extend([p] * (ge[p - 1] - ge[p]))
    sizes.sort(reverse=True)
    if sum(sizes) != mult or any(s <= 0 for s in sizes):
        raise IllConditioned(
            f"inconsistent block structure for eigenvalue {lam}: ranks {ranks}"
        )
    return tuple(sizes)

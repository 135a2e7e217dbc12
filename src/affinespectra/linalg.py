"""Exact linear algebra over the integers and rationals.

Small dense matrices (n <= 16 in the benchmark).  The kernels run on lists
of Python ints and make Fractions only at the end: fraction-free (Bareiss)
elimination for determinants, ranks, inverses and, on the iterates
v, Mv, ..., the minimal polynomial of v; Faddeev-LeVerrier for other
characteristic polynomials; and an exact Schur-Cohn test for the
expanding property that keeps each reduced polynomial content-free.  The
unimodular echelon form runs its Euclid on the work rows alone and
replays the recorded steps on packed ints, one per row of b and per
column of b^-1, in fields the steps' magnitude bounds prove wide enough.
Exact products that are only checked (b b^-1 = I, b a = h, M b = b M~),
and the block b M b^-1 from 5 rows on, run on packed rows: each row one
int of balanced fields wide enough for every entry (Kronecker
substitution), so a product takes n^2 big-int operations.  A solve
against a companion matrix is a substitution, not an elimination.
Every division assumed exact is checked.  No float ever participates in
a mathematical decision made by this module.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import lshift, mul

from .errors import InternalError, RankDeficient, Singular, ZeroVector


def _as_int(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"integer entry expected, got {x!r}")
    return x


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, s, t) with g = s*a + t*b and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _power(base, k: int, result):
    """base^k for k >= 0 by repeated squaring, starting from the identity
    ``result``."""
    while k:
        if k & 1:
            result = result * base
        base = base * base if k > 1 else base
        k >>= 1
    return result


def _mat_mul(a, b) -> tuple:
    """Rows of the product of two integer matrices given by their rows."""
    cols = list(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def _apply_power(rows, k: int, x, modulus: int | None = None) -> list[int]:
    """rows^k x for k >= 0, every entry reduced mod ``modulus`` when one is
    given.  Binary powering on the vector: x is multiplied on each set bit
    of k and the matrix squared only while bits remain, so k = 1 costs one
    matrix-vector product and any k O(log k) squarings."""
    def reduce(y):
        return y if modulus is None else [e % modulus for e in y]

    x = reduce(x)
    while k:
        if k & 1:
            x = reduce([sum(map(mul, row, x)) for row in rows])
        k >>= 1
        if k:
            rows = [reduce(row) for row in _mat_mul(rows, rows)]
    return x


class _Vector:
    """Immutable vector; subclasses fix the entry type."""

    __slots__ = ("entries",)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):
        return type(other) is type(self) and self.entries == other.entries

    def __hash__(self):
        return hash((type(self).__name__, self.entries))

    def __add__(self, other):
        return type(self)(a + b for a, b in zip(self.entries, other.entries, strict=True))

    def __sub__(self, other):
        return type(self)(a - b for a, b in zip(self.entries, other.entries, strict=True))

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)


class IntVector(_Vector):
    """Immutable integer vector."""

    __slots__ = ()

    def __init__(self, entries):
        self.entries = tuple(_as_int(e) for e in entries)
        if not self.entries:
            raise ValueError("empty vector")

    @classmethod
    def _make(cls, entries: tuple) -> "IntVector":
        """Unchecked: a non-empty tuple of ints from validated operands."""
        vec = object.__new__(cls)
        vec.entries = entries
        return vec

    def __repr__(self):
        return f"IntVector({list(self.entries)})"

    def scaled(self, c: int) -> "IntVector":
        c = _as_int(c)
        return IntVector._make(tuple(c * e for e in self.entries))

    def dot(self, other):
        if len(other) != len(self):
            raise ValueError("dimension mismatch")
        return sum(map(mul, self.entries, other))

    def to_rat(self) -> "RatVector":
        return RatVector(Fraction(e) for e in self.entries)


class RatVector(_Vector):
    """Immutable rational vector; entries are canonical Fractions."""

    __slots__ = ()

    def __init__(self, entries):
        self.entries = tuple(e if type(e) is Fraction else Fraction(e) for e in entries)
        if not self.entries:
            raise ValueError("empty vector")

    def __repr__(self):
        return f"RatVector([{', '.join(str(e) for e in self.entries)}])"

    def scaled(self, c) -> "RatVector":
        c = Fraction(c)
        return RatVector(c * e for e in self.entries)

    def dot(self, other) -> Fraction:
        if len(other) != len(self):
            raise ValueError("dimension mismatch")
        return sum((Fraction(a) * Fraction(b) for a, b in zip(self.entries, other)), Fraction(0))

    def is_integral(self) -> bool:
        return all(e.denominator == 1 for e in self.entries)

    def denominator_lcm(self) -> int:
        return lcm(*(e.denominator for e in self.entries))

    def to_int(self) -> IntVector:
        if not self.is_integral():
            raise ValueError(f"{self!r} is not integral")
        return IntVector(int(e) for e in self.entries)


def _over_common_denominator(x) -> tuple[tuple[int, ...], int]:
    """(a, den) with x = a / den for an integer or rational vector, a
    integral and den the lcm of the entry denominators."""
    if isinstance(x, IntVector):
        return x.entries, 1
    if not isinstance(x, RatVector):
        raise TypeError(f"vector expected, got {type(x).__name__}")
    den = x.denominator_lcm()
    return tuple(e.numerator * (den // e.denominator) for e in x), den


class IntMatrix:
    """Immutable integer matrix.  Rectangular shapes are allowed; the
    operations that require squareness check for it themselves."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(_as_int(x) for x in row) for row in rows)
        if not self.rows or not self.rows[0]:
            raise ValueError("empty matrix")
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise ValueError("ragged rows")

    @classmethod
    def _make(cls, rows: tuple) -> "IntMatrix":
        """Unchecked: rectangular tuple-of-int rows from validated operands
        (tuples, since matrices hash and compare by their rows)."""
        mat = object.__new__(cls)
        mat.rows = rows
        return mat

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, cols) -> "IntMatrix":
        cols = [list(c) for c in cols]
        return cls([[c[i] for c in cols] for i in range(len(cols[0]))])

    @classmethod
    def _from_columns(cls, cols) -> "IntMatrix":
        """Unchecked from_columns, for equal-length validated int columns."""
        return cls._make(tuple(zip(*cols)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @property
    def n(self) -> int:
        self._require_square()
        return self.nrows

    def _require_square(self):
        if self.nrows != self.ncols:
            raise ValueError(f"square matrix required, got {self.nrows}x{self.ncols}")

    def __eq__(self, other):  # equal to an equal RatMatrix, and hashed alike
        return isinstance(other, (IntMatrix, RatMatrix)) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.rows]})"

    def __add__(self, other):
        return IntMatrix(
            [a + b for a, b in zip(r1, r2, strict=True)]
            for r1, r2 in zip(self.rows, other.rows, strict=True)
        )

    def scaled(self, c: int) -> "IntMatrix":
        c = _as_int(c)
        return IntMatrix._make(tuple(tuple(c * x for x in row) for row in self.rows))

    def __mul__(self, other):
        if isinstance(other, IntMatrix):
            if self.ncols != other.nrows:
                raise ValueError("dimension mismatch")
            return IntMatrix._make(_mat_mul(self.rows, other.rows))
        if isinstance(other, IntVector):
            if self.ncols != len(other):
                raise ValueError("dimension mismatch")
            return IntVector._make(tuple(sum(map(mul, row, other.entries)) for row in self.rows))
        if isinstance(other, RatVector):
            if self.ncols != len(other):
                raise ValueError("dimension mismatch")
            return RatVector(
                sum((a * b for a, b in zip(row, other)), Fraction(0)) for row in self.rows
            )
        return NotImplemented

    def __pow__(self, k: int) -> "IntMatrix":
        self._require_square()
        if k < 0:
            raise ValueError("negative powers are rational; use inverse() explicitly")
        return _power(self, k, IntMatrix.identity(self.nrows))

    def transpose(self) -> "IntMatrix":
        return IntMatrix._make(tuple(zip(*self.rows)))

    def submatrix(self, row_range, col_range) -> "IntMatrix":
        if not row_range or not col_range:
            raise ValueError("empty matrix")
        return IntMatrix._make(tuple(tuple(self.rows[i][j] for j in col_range) for i in row_range))

    def to_rat(self) -> "RatMatrix":
        return RatMatrix(self.rows)


class RatMatrix:
    """Immutable rational matrix."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in rows)
        if not self.rows or not self.rows[0]:
            raise ValueError("empty matrix")
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def __eq__(self, other):
        return isinstance(other, (IntMatrix, RatMatrix)) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"RatMatrix({[[str(x) for x in r] for r in self.rows]})"

    def __mul__(self, other):
        if isinstance(other, IntMatrix):
            other = other.to_rat()
        if isinstance(other, RatMatrix):
            if self.ncols != other.nrows:
                raise ValueError("dimension mismatch")
            cols = list(zip(*other.rows))
            return RatMatrix(
                [sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in cols]
                for row in self.rows
            )
        if isinstance(other, (IntVector, RatVector)):
            if self.ncols != len(other):
                raise ValueError("dimension mismatch")
            return RatVector(
                sum((a * Fraction(b) for a, b in zip(row, other)), Fraction(0))
                for row in self.rows
            )
        return NotImplemented

    def __pow__(self, k: int) -> "RatMatrix":
        if self.nrows != self.ncols:
            raise ValueError("square matrix required")
        if k < 0:
            return inverse(self) ** (-k)
        return _power(self, k, RatMatrix.identity(self.nrows))

    def transpose(self) -> "RatMatrix":
        return RatMatrix(zip(*self.rows))


class IntPolynomial:
    """Integer polynomial, coefficients in ascending degree order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [_as_int(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [0]
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1

    def constant_term(self) -> int:
        return self.coeffs[0]

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("IntPolynomial", self.coeffs))

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"

    def __call__(self, x):
        acc = 0 * x  # matches the numeric type of x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


# ---------------------------------------------------------------------------
# determinant, rank, characteristic polynomial
# ---------------------------------------------------------------------------


def det(m: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    m._require_square()
    r, sign, prev = _eliminate([list(row) for row in m.rows], m.nrows)
    return sign * prev if r == m.nrows else 0


def rank(m: IntMatrix) -> int:
    """Rank by fraction-free elimination with column skipping."""
    return _eliminate([list(row) for row in m.rows], m.ncols)[0]


def char_poly(m: IntMatrix) -> IntPolynomial:
    """Characteristic polynomial det(xI - M), monic, exact.

    Faddeev-LeVerrier recursion on lists of ints; all divisions land on
    integers because the coefficients are integers (checked).  The constant
    coefficient is checked against an independent Bareiss determinant.
    """
    n = m.n
    rows = m.rows
    work = [list(row) for row in rows]  # M * I
    a = []
    for k in range(1, n + 1):
        if k > 1:
            work = [list(row) for row in _mat_mul(rows, work)]
        ak, rem = divmod(-sum(work[i][i] for i in range(n)), k)
        if rem:
            raise InternalError("Faddeev-LeVerrier division must be exact")
        a.append(ak)
        for i in range(n):
            work[i][i] += ak
    # f(x) = x^n + a_1 x^{n-1} + ... + a_n; independent determinant route
    if a[-1] != (-1) ** n * det(m):
        raise InternalError("constant coefficient disagrees with det")
    return IntPolynomial(list(reversed(a)) + [1])


def _krylov_relation(m: IntMatrix, v: IntVector) -> tuple[list[IntVector], int, IntPolynomial]:
    """(vecs, r, f): the iterates [v, Mv, ..., M^r v], their rank r and the
    minimal polynomial f of v, monic of degree r.

    Bareiss elimination of the iterates as columns, each reduced by the
    earlier steps on arrival; the first with no pivot left is M^r v, and
    back-substitution over the r pivot rows solves sum c_k M^k v = -M^r v.
    f divides the char poly of M, so every division is exact (checked), and
    f(M) v = 0 is checked on the iterates."""
    n = m.n
    if len(v) != n:
        raise ValueError("dimension mismatch")
    if v.is_zero():
        raise ZeroVector("krylov: v must be nonzero")
    vecs, steps, rest, prev = [v], [], list(range(n)), 1
    while True:
        col = list(vecs[-1])
        for prow, piv, below, last in steps:  # rows below the pivot row prow
            p, y = piv[prow], col[prow]
            for i in below:
                col[i], rem = divmod(p * col[i] - piv[i] * y, last)
                if rem:
                    raise InternalError("Bareiss division must be exact")
        prow = next((i for i in rest if col[i]), None)
        if prow is None:
            break
        rest = [i for i in rest if i != prow]
        steps.append((prow, col, rest, prev))
        prev = col[prow]
        vecs.append(m * vecs[-1])
    r, coeffs = len(steps), []
    for k in reversed(range(r)):  # the pivot row of step k, solved for c_k
        prow, piv = steps[k][:2]
        num = -col[prow] - sum(steps[l][1][prow] * c for l, c in zip(range(k + 1, r), coeffs))
        c, rem = divmod(num, piv[prow])
        if rem:
            raise InternalError("minimal polynomial of v must be integral")
        coeffs.insert(0, c)
    f = IntPolynomial(coeffs + [1])
    if not _annihilates(f, vecs):
        raise InternalError("minimal polynomial does not annihilate v")
    return vecs, r, f


def _annihilates(f: IntPolynomial, vecs) -> bool:
    """f(M) v = 0 for vecs = [v, Mv, ..., M^{deg f} v]."""
    if len(vecs) != len(f.coeffs):
        return False
    return all(sum(map(mul, f.coeffs, col)) == 0 for col in zip(*vecs))


def krylov(m: IntMatrix, v: IntVector) -> tuple[list[IntVector], int]:
    """Return ([v, Mv, ..., M^{n-1}v], rank of their span), the rank read
    off the elimination of ``_krylov_relation``."""
    vecs, r, _ = _krylov_relation(m, v)
    while len(vecs) < m.n:
        vecs.append(m * vecs[-1])
    return vecs[:m.n], r


# ---------------------------------------------------------------------------
# unimodular echelon form
# ---------------------------------------------------------------------------


def hnf_unimodular(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Unimodular row reduction of a full-column-rank n x r matrix.

    Returns (b, h) with b unimodular (det +-1), h = b*a upper echelon:
    nonzero pivots on the first r diagonal positions, zeros below them,
    and all-zero rows from row r down.

    Pivoting is deterministic: columns are processed left to right; within
    a column the nonzero entry of minimal absolute value is chosen (ties
    broken by lowest row index) and the entries below are reduced by
    Euclidean steps until they vanish.

    The Euclid runs on the n x r work rows alone and records its steps,
    with a bound on the entries of each row of b and each column of b^{-1}
    (|x - t y| <= |x| + |t| |y|).  The steps are then replayed on one int
    per row of b and per column of b^{-1}, holding balanced fields of a
    byte width those bounds prove wide enough, so each step is one big-int
    operation.  b b^{-1} = I and b a = h are checked exactly, each row of
    a product compared as one int.

    Raises RankDeficient if the columns of ``a`` are linearly dependent.
    """
    b, _, h = _hnf_unimodular(a)
    return b, h


def _unpack(packed: list[int], n: int, size: int) -> tuple:
    """Rows of the n balanced fields of ``size`` bytes in each int, whose
    entries must lie in [-2^(8 size - 1), 2^(8 size - 1))."""
    half = 1 << (8 * size - 1)
    offset = int.from_bytes((bytes(size - 1) + b"\x80") * n, "little")
    try:
        raw = b"".join([(p + offset).to_bytes(n * size, "little") for p in packed])
    except OverflowError:
        raise InternalError("an entry outgrew its packed width") from None
    entries = [int.from_bytes(raw[k:k + size], "little") - half for k in range(0, len(raw), size)]
    return tuple(zip(*[iter(entries)] * n))


def _bits(rows) -> int:
    """Bit length of the largest absolute entry."""
    return max(map(abs, chain(*rows))).bit_length()


def _pack(rows, width: int) -> list[int]:
    """Each row as one int of balanced ``width``-bit fields (Kronecker
    substitution), entry j at bit width j.  The map is linear, and rows
    whose entries lie below 2^(width - 1) in absolute value are equal iff
    their ints are."""
    shifts = range(0, width * len(rows[0]), width)
    return [sum(map(lshift, row, shifts)) for row in rows]


def _times_packed(left, packed: list[int]) -> list[int]:
    """The rows of left * right packed, from the packed rows of right: n^2
    big-int products in place of n^3 small ones."""
    return [sum(map(mul, row, packed)) for row in left]


def _product_width(left, right) -> int:
    """A field width holding every entry of left * right, each at most
    k max|left| max|right| for k = len(right)."""
    return 1 + len(right).bit_length() + _bits(left) + _bits(right)


def _product_is(left, right, target) -> bool:
    """left * right == target, each row compared as one packed int."""
    width = max(_product_width(left, right), 1 + _bits(target))
    return _times_packed(left, _pack(right, width)) == _pack(target, width)


def _conjugate(b, m, b_inv) -> tuple:
    """Rows of b * m * b_inv.  From 5 rows on, on packed rows: m b_inv
    packed at a byte width that holds every entry of the whole product
    (n^2 max|b| max|m| max|b_inv|), b times those, then unpacked; below
    that the plain products cost less."""
    n = len(m)
    if n < 5:
        return _mat_mul(_mat_mul(b, m), b_inv)
    size = (2 * n.bit_length() + _bits(b) + _bits(m) + _bits(b_inv) + 8) // 8
    return _unpack(_times_packed(b, _times_packed(m, _pack(b_inv, 8 * size))), n, size)


def _hnf_unimodular(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """(b, b^{-1}, h): a row swap on b swaps columns of b^{-1}, and
    row_i -= t row_p makes col_p += t col_i; b b^{-1} = I implies det +-1.
    Rows from col down are zero left of col, so only columns col.. of the
    work rows are updated.  No entry of row i of b exceeds bound[i] in
    absolute value, nor one of column i of b^{-1} bound_inv[i]."""
    nr, nc = a.nrows, a.ncols
    work = [list(row) for row in a.rows]
    steps = []  # (i, p, t): row_i -= t row_p, or with t = 0 swap rows i and p
    bound, bound_inv = [1] * nr, [1] * nr
    for col in range(nc):  # full column rank puts the pivot of col in row col
        if col == nr:
            raise RankDeficient(f"hnf_unimodular: no pivot row left for column {col}")
        cand = [(abs(work[i][col]), i) for i in range(col, nr) if work[i][col] != 0]
        if not cand:
            raise RankDeficient(f"hnf_unimodular: column {col} is dependent")
        piv = min(cand)[1]
        while piv is not None:
            if piv != col:
                work[col], work[piv] = work[piv], work[col]
                bound[col], bound[piv] = bound[piv], bound[col]
                bound_inv[col], bound_inv[piv] = bound_inv[piv], bound_inv[col]
                steps.append((col, piv, 0))
            # a floor remainder is below |p|, so the next pivot is the least
            # nonzero remainder (lowest row on ties), and none ends the column
            top, piv, least = work[col], None, abs(work[col][col])
            for i in range(col + 1, nr):
                w_i = work[i]
                if not w_i[col]:
                    continue
                t = w_i[col] // top[col]
                if t:
                    for j in range(col, nc):
                        w_i[j] -= t * top[j]
                    bound[i] += abs(t) * bound[col]
                    bound_inv[col] += abs(t) * bound_inv[i]
                    steps.append((i, col, t))
                if w_i[col] and abs(w_i[col]) < least:
                    piv, least = i, abs(w_i[col])
    size = (max(bound + bound_inv).bit_length() + 8) // 8
    rows = [1 << 8 * size * i for i in range(nr)]
    cols = rows[:]
    for i, p, t in steps:
        if t:
            rows[i] -= t * rows[p]
            cols[p] += t * cols[i]
        else:
            rows[i], rows[p] = rows[p], rows[i]
            cols[i], cols[p] = cols[p], cols[i]
    fields = _unpack(rows + cols, nr, size)
    b, b_inv = fields[:nr], tuple(zip(*fields[nr:]))
    h = tuple(map(tuple, work))
    if not _product_is(b, b_inv, [(0,) * i + (1,) + (0,) * (nr - 1 - i) for i in range(nr)]):
        raise InternalError("row operations must stay unimodular")
    if not _product_is(b, a.rows, h):
        raise InternalError("row operations do not reproduce the echelon form")
    return IntMatrix._make(b), IntMatrix._make(b_inv), IntMatrix._make(h)


# ---------------------------------------------------------------------------
# fraction-free elimination, solves and inverses
# ---------------------------------------------------------------------------


def _eliminate(a: list[list[int]], ncols: int) -> tuple[int, int, int]:
    """Fraction-free (Bareiss) forward elimination of the rows ``a`` in
    place over the first ``ncols`` columns, skipping a column with no pivot
    left: (rank, sign of the row permutation, last pivot).  Every entry
    stays a minor of the input, so each division is exact (checked)."""
    r, sign, prev = 0, 1, 1
    for c in range(ncols):
        if r == len(a):
            break
        piv = r if a[r][c] else next((i for i in range(r + 1, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        pivot_row, p = a[r], a[r][c]
        for row in a[r + 1:]:
            f = row[c]
            for j in range(c + 1, len(row)):
                row[j], rem = divmod(p * row[j] - f * pivot_row[j], prev)
                if rem:
                    raise InternalError("Bareiss division must be exact")
        prev, r = p, r + 1
    return r, sign, prev


def _is_companion(rows) -> bool:
    """Ones on the superdiagonal, zeros elsewhere off column 0 (any 1 x 1)."""
    n = len(rows)
    unit = (0,) * (n - 1) + (1,) + (0,) * (n - 2)  # row i's tail at n - 1 - i
    return all(tuple(row[1:]) == unit[n - 1 - i:2 * n - 2 - i] for i, row in enumerate(rows))


def _solve(rows, rhs) -> tuple[list[list[int]] | None, int]:
    """(X, det A) with X = adj(A) W, for the rows of a square integer A and
    the columns W of ``rhs``, or (None, 0) when A is singular.

    A companion matrix with first column c, c_{n-1} != 0, takes O(n) per
    column: det A = (-1)^(n+1) c_{n-1}, x_0 = (-1)^(n+1) w_{n-1} and
    x_{i+1} = det(A) w_i - c_i x_0.  Otherwise the last pivot D of the
    elimination of [A | W] is +-det A, and back-substitution solves
    U x = D c column by column: x = D A^{-1} w is integral by Cramer's rule,
    so each division is exact (checked).  Scaling by det A = sign D gives
    adj(A) w, and x's unsolved entries are 0."""
    n, width = len(rows), len(rows) + len(rhs)
    if rows[-1][0] and _is_companion(rows):
        sign = 1 if n % 2 else -1
        d, x0s = sign * rows[-1][0], [sign * w[-1] for w in rhs]
        return [[x0] + [d * e - row[0] * x0 for e, row in zip(w, rows[:-1])]
                for w, x0 in zip(rhs, x0s)], d
    a = [list(row) + [w[i] for w in rhs] for i, row in enumerate(rows)]
    r, sign, prev = _eliminate(a, n)
    if r < n:
        return None, 0
    d, cols = sign * prev, []
    for c in range(n, width):
        x = [0] * n
        for i in reversed(range(n)):
            row = a[i]
            x[i], rem = divmod(d * row[c] - sum(map(mul, row, x)), row[i])
            if rem:
                raise InternalError("back-substitution must be exact")
        cols.append(x)
    return cols, d


def _adjugate(rows) -> tuple[list[list[int]] | None, int]:
    """(adj A, det A) of a square integer matrix, or (None, 0) if singular:
    ``_solve`` against the columns of the identity."""
    n = len(rows)
    cols, d = _solve(rows, [[int(i == j) for i in range(n)] for j in range(n)])
    return (None if cols is None else list(map(list, zip(*cols)))), d


def _solve_parts(m: IntMatrix, w) -> tuple[IntVector, int]:
    """(x, d) with m^{-1} w = x / d, x integral and d = |det m| > 0, from one
    ``_solve`` of [m | w] (a substitution on a companion m), not the adjugate.
    w is an IntVector or a tuple of ints."""
    rows = m.rows
    n = len(rows)
    if len(rows[0]) != n:
        raise ValueError(f"square matrix required, got {n}x{len(rows[0])}")
    if len(w) != n:
        raise ValueError("dimension mismatch")
    cols, d = _solve(rows, [w])
    if d == 0:
        raise Singular("matrix is singular")
    return IntVector._make(tuple(cols[0]) if d > 0 else tuple(-e for e in cols[0])), abs(d)


def _inverse_parts(m: IntMatrix) -> tuple[IntMatrix, int]:
    """(a, d) with m^{-1} = a / d, a integral and d = |det m| > 0, from the
    same fraction-free elimination as ``inverse``, with no Fraction made."""
    m._require_square()
    adj, d = _adjugate(m.rows)
    if d == 0:
        raise Singular("matrix is singular")
    rows = map(tuple, adj) if d > 0 else (tuple(-x for x in row) for row in adj)
    return IntMatrix._make(tuple(rows)), abs(d)


def inverse(m) -> RatMatrix:
    """Exact rational inverse: adj(A) / det(A) from one fraction-free
    elimination over the integers.  A rational matrix is first scaled to
    an integer one by the lcm of its denominators."""
    if isinstance(m, IntMatrix):
        m._require_square()
        scale, rows = 1, m.rows
    elif isinstance(m, RatMatrix):
        if m.nrows != m.ncols:
            raise ValueError("square matrix required")
        scale = lcm(*(x.denominator for row in m.rows for x in row))
        rows = [[x.numerator * (scale // x.denominator) for x in row] for row in m.rows]
    else:
        raise TypeError(f"matrix expected, got {type(m).__name__}")
    adj, d = _adjugate(rows)
    if d == 0:
        raise Singular("matrix is singular")
    return RatMatrix([Fraction(scale * x, d) for x in row] for row in adj)


# ---------------------------------------------------------------------------
# expanding test
# ---------------------------------------------------------------------------


def _no_root_in_closed_unit_disk(coeffs: list[int]) -> bool:
    """Exact test that a nonzero integer polynomial has every complex root
    strictly outside the closed unit disk.

    Schur-Cohn recursion.  Running it on p directly is arithmetically the
    same as running the classical stability recursion on the reversed
    polynomial: with p* the coefficient reversal, all roots of p lie
    outside the closed disk iff |p(0)| > |lead(p)| and the reduced
    polynomial q = p(0)*p - lead(p)*p* (degree drops by at least one)
    again has no root in the closed disk.  The base case, degree zero,
    has no roots at all.  q(0) = p(0)^2 - lead(p)^2 > 0 whenever we
    recurse, so q is never the zero polynomial; dividing it by the gcd of
    its coefficients keeps its roots and stops its size doubling per step.
    """
    c = list(coeffs)
    while True:
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        if len(c) == 1:
            return True
        a0, an = c[0], c[-1]
        if a0 * a0 <= an * an:
            return False
        deg = len(c) - 1
        c = [a0 * c[i] - an * c[deg - i] for i in range(deg)]
        g = gcd(*c)
        c = [x // g for x in c]


def is_expanding(m: IntMatrix) -> bool:
    """True iff every eigenvalue of m has modulus strictly greater than 1.

    Decided exactly from the characteristic polynomial; no root finding.
    """
    return _no_root_in_closed_unit_disk(list(char_poly(m).coeffs))

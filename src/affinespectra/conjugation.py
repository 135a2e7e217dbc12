"""Normal forms for an integer matrix paired with a digit direction.

Two conjugations are provided.  When the iterates v, Mv, M^2 v, ... span
the whole space, M is conjugated to the companion matrix of its
characteristic polynomial by the basis of those iterates; the check
f(M) v = 0 on them proves M b = b M~ (``_companion_conjugate``).  When
they span a proper subspace, a unimodular change of basis exhibits M as
a block upper-triangular matrix whose leading block acts on that
subspace; the classification problem then reduces to the leading block
in lower dimension.  ``leading_block`` is the one place that chooses
between the two.  What decides a verdict, the rank r, the char poly f of
the leading block and the char poly of the trailing block, comes from one
Krylov elimination (``_krylov_chains``); the decomposition itself, a
proof device, is built only when a reader asks for it.

Frequency sets transport through a conjugation by the transpose of the
basis matrix, never the matrix itself, on integer numerators over one
denominator; ``_transport`` is the single place that convention lives,
and ``map_spectrum`` is its public form on rational vectors.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import _Record
from .errors import FullRank, InternalError, InternalRankError, NotFullRank, Singular
from .linalg import (
    IntMatrix,
    IntPolynomial,
    IntVector,
    RatVector,
    _adjugate,
    _annihilates,
    _conjugate,
    _hnf_unimodular,
    _krylov_chains,
    _over_common_denominator,
    det,
)


class CompanionConjugation(_Record):
    """Exact conjugation M b = b m_tilde with m_tilde in companion form and
    b v_tilde = v, v_tilde the last standard basis vector.

    b is the integer matrix [M^{n-1}v, ..., Mv, v]; it is invertible over
    the rationals only, and no inverse of it is kept.
    """

    __slots__ = ("b", "m_tilde", "v_tilde")


class BlockDecomposition(_Record):
    """Unimodular b with b*M*b_inv = [[m1, c], [0, m2]] and b*v = (x, 0),
    with the char poly of m2 (the product of the trailing polynomials of
    the Krylov chains)."""

    __slots__ = ("b", "b_inv", "r", "m1", "c", "m2", "x", "m2_char_poly")

    @property
    def block(self) -> IntMatrix:
        """b*M*b_inv, assembled from its blocks."""
        top = tuple(a + c for a, c in zip(self.m1.rows, self.c.rows))
        return IntMatrix._make(top + tuple((0,) * self.r + row for row in self.m2.rows))


def companion_matrix(f) -> IntMatrix:
    """Companion matrix of a monic integer polynomial: negated non-leading
    coefficients down the first column (highest degree first), ones on the
    superdiagonal."""
    if not f.is_monic:
        raise ValueError("companion form requires a monic polynomial")
    n = f.degree
    if n == 0:
        raise ValueError("constant polynomial has no companion matrix")
    # IntPolynomial coefficients are ints; row i has its 1 in column i + 1
    ones = [tuple(int(j == i) for j in range(n - 1)) for i in range(n)]
    return IntMatrix._make(tuple((-f.coeffs[n - 1 - i],) + ones[i] for i in range(n)))


def companion_conjugate(m: IntMatrix, v: IntVector) -> CompanionConjugation:
    """Conjugate (m, v) to companion form via b = [M^{n-1}v, ..., Mv, v].

    Requires the iterates of v to span the whole space; raises NotFullRank
    otherwise.  The returned m_tilde is integer even though b^{-1} is not.
    """
    n = m.n
    vecs, r, f, _ = _krylov_chains(m, v, complete=False)
    if r < n:
        raise NotFullRank(f"iterates of v span a {r}-dimensional subspace of dimension {n}")
    return _companion_conjugate(vecs[:n], f)


def _companion_conjugate(vecs, f: IntPolynomial) -> CompanionConjugation:
    """The frame b = [M^{n-1}v, ..., v] of vecs = [v, ..., M^{n-1}v], each
    built as M times the one before, where f(M) v = 0 was checked on
    v, ..., M^n v (``_krylov_chains``, or ``LeadingBlock`` at r < n).
    That proves M b = b m_tilde: column 0 of b m_tilde is -sum c_k M^k v,
    which is M^n v, and columns 1 to n-1 of both sides are M^{n-1}v, ..., Mv."""
    n = len(vecs)
    b = IntMatrix._from_columns(reversed(vecs))
    return CompanionConjugation(b, companion_matrix(f), IntVector._make((0,) * (n - 1) + (1,)))


def block_decompose(m: IntMatrix, v: IntVector) -> BlockDecomposition:
    """Unimodular block triangularization for the rank-deficient case.

    With r the dimension of the span of v, Mv, M^2 v, ..., a unimodular b
    is built by integer row reduction of [M^{r-1}v, ..., Mv, v] so that
    b*M*b_inv is block upper triangular with an r x r leading block and
    b*v has only its first r entries nonzero.  Raises FullRank when r = n,
    where the companion conjugation is the right tool.
    """
    return _block_decompose(m, v, *_krylov_chains(m, v))


def _poly_product(polys) -> IntPolynomial:
    """The product of integer polynomials (1 for none), by schoolbook."""
    coeffs = [1]
    for p in polys:
        out = [0] * (len(coeffs) + p.degree)
        for i, a in enumerate(coeffs):
            for j, c in enumerate(p.coeffs):
                out[i + j] += a * c
        coeffs = out
    return IntPolynomial(coeffs)


def _block_decompose(m: IntMatrix, v: IntVector, vecs, r: int, f: IntPolynomial,
                     trailing) -> BlockDecomposition:
    # vecs[:r] = [v, Mv, ..., M^{r-1}v], independent; f, the minimal
    # polynomial of v, is the char poly of m1, so det m1 = (-1)^r f(0); the
    # trailing chain polynomials multiply to the char poly of M on the
    # quotient, which m2 represents
    n = m.n
    if r == n:
        raise FullRank(f"iterates of v already span dimension {n}")
    a = IntMatrix._from_columns(reversed(vecs[:r]))
    b, b_inv, _ = _hnf_unimodular(a)
    block = IntMatrix._make(_conjugate(b.rows, m.rows, b_inv.rows))
    if any(block.rows[i][j] for i in range(r, n) for j in range(r)):
        raise InternalRankError("block triangularization failed to zero the lower-left block")
    m1 = block.submatrix(range(r), range(r))
    c = block.submatrix(range(r), range(r, n))
    m2 = block.submatrix(range(r, n), range(r, n))
    bv = b * v
    if any(bv[i] != 0 for i in range(r, n)):
        raise InternalRankError("b*v has nonzero trailing entries")
    x = IntVector(bv[i] for i in range(r))
    f2 = _poly_product(trailing)
    if (-1) ** n * det(m) != f.constant_term() * f2.constant_term():
        raise InternalError("block determinants do not multiply to det M")
    if (-1) ** (n - r) * det(m2) != f2.constant_term():
        raise InternalError("trailing block determinant disagrees with its char poly")
    return BlockDecomposition(b, b_inv, r, m1, c, m2, x, f2)


class LeadingBlock:
    """Leading block (m1, v1) with the Krylov rank r, the char poly
    ``char_poly`` and the determinant ``det_m1`` of m1, and the trailing
    polynomials of the Krylov chains, whose product is the char poly of
    the trailing block m2.  Those four come from one elimination, at once.

    At r = n, m1 and v1 are M and v, ``decomp`` is None and ``krylov`` the
    iterates v, Mv, ..., M^{n-1} v.  At r < n the block decomposition is
    built on the first read of ``decomp``, ``m1``, ``v1`` or ``krylov``,
    and only then: m1 and v1 are its leading block and reduced vector, and
    ``krylov`` holds v1, m1 v1, ..., m1^{r-1} v1, on which f(m1) v1 = 0 is
    checked in the same build."""

    __slots__ = ("r", "char_poly", "det_m1", "trailing", "_m", "_v", "_vecs", "_decomp", "_krylov")

    def __init__(self, m: IntMatrix, v: IntVector, vecs, r: int, f: IntPolynomial, trailing):
        self.r, self.char_poly, self.trailing = r, f, trailing
        # det(xI - m1) at x = 0 is (-1)^r det m1
        self.det_m1 = (-1) ** r * f.constant_term()
        self._m, self._v, self._vecs = m, v, vecs
        # _krylov stays None until the pair (m1, v1) is known: at once when
        # r = n, after _build otherwise
        self._decomp = None
        self._krylov = tuple(vecs[:r]) if r == len(v) else None

    def _build(self) -> None:
        decomp = _block_decompose(self._m, self._v, self._vecs, self.r, self.char_poly, self.trailing)
        # m1^k v1 is the head of b M^k v, so the first r are independent
        vecs = [decomp.x]
        for _ in range(self.r):
            vecs.append(decomp.m1 * vecs[-1])
        if not _annihilates(self.char_poly, vecs):
            raise InternalRankError("minimal polynomial of v does not annihilate the reduced vector")
        self._decomp, self._krylov = decomp, tuple(vecs[:self.r])

    @property
    def decomp(self) -> BlockDecomposition | None:
        if self._krylov is None:
            self._build()
        return self._decomp

    @property
    def m1(self) -> IntMatrix:
        return self._m if self.decomp is None else self._decomp.m1

    @property
    def v1(self) -> IntVector:
        return self._v if self.decomp is None else self._decomp.x

    @property
    def krylov(self) -> tuple:
        if self._krylov is None:
            self._build()
        return self._krylov

    def companion(self) -> CompanionConjugation:
        """companion_conjugate(m1, v1) from the recorded iterates and char poly."""
        return _companion_conjugate(self.krylov, self.char_poly)


def leading_block(m: IntMatrix, v: IntVector) -> LeadingBlock:
    """The one place that decides between the full pair (r = n) and the
    reduced pair of the block decomposition (r < n).  One Krylov
    elimination gives r, the minimal polynomial f of v, which is the char
    poly of m1, and at r < n the trailing chain polynomials; the
    decomposition waits for its first reader."""
    return LeadingBlock(m, v, *_krylov_chains(m, v))


def _transport(b: IntMatrix, direction: str) -> tuple[IntMatrix, int]:
    """(op, d), d > 0, carrying each frequency a / den to op a / (den d):
    op = b^T and d = 1 "forward", op = sign(det b) adj(b)^T and d = |det b|
    "inverse".  A singular b raises Singular, then another direction
    ValueError."""
    if direction == "inverse":
        b._require_square()
        op, d = _adjugate(b.rows)
    else:
        op, d = b.rows, det(b)
    if d == 0:
        raise Singular("spectrum transport needs an invertible basis matrix")
    if direction == "forward":
        return IntMatrix._make(tuple(zip(*op))), 1
    if direction != "inverse":
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    sign = 1 if d > 0 else -1
    return IntMatrix._make(tuple(tuple(sign * x for x in col) for col in zip(*op))), abs(d)


def map_spectrum(b: IntMatrix, lambda_set, direction: str) -> list[RatVector]:
    """Transport frequencies through the conjugation with basis matrix b.

    direction "forward" applies the transpose of b, "inverse" its inverse
    transpose.  Exponentials pair with points through the inner product,
    so a change of basis on points acts on frequencies by the adjoint;
    callers choose the direction that matches which side of the
    conjugation their frequencies live on.  Both act on the integer
    numerators of each frequency, the inverse through one adjugate
    (``_transport``, which candidate spectra share).
    """
    op, d = _transport(b, direction)
    parts = map(_over_common_denominator, lambda_set)
    return [RatVector(Fraction(x, den * d) for x in op * IntVector._make(a)) for a, den in parts]


__all__ = [
    "BlockDecomposition",
    "CompanionConjugation",
    "LeadingBlock",
    "block_decompose",
    "companion_conjugate",
    "companion_matrix",
    "leading_block",
    "map_spectrum",
]

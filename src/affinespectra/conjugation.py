"""Normal forms for an integer matrix paired with a digit direction.

Two conjugations are provided.  When the iterates v, Mv, M^2 v, ... span
the whole space, M is conjugated to the companion matrix of its
characteristic polynomial by the basis of those iterates; the check
f(M) v = 0 on them proves M b = b M~ (``_companion_conjugate``).  When
they span a proper subspace, a unimodular change of basis exhibits M as
a block upper-triangular matrix whose leading block acts on that
subspace; the classification problem then reduces to the leading block
in lower dimension.  ``leading_block`` is the one place that chooses
between the two.

Frequency sets transport through a conjugation by the transpose of the
basis matrix, never the matrix itself, on integer numerators over one
denominator; ``_transport`` is the single place that convention lives,
and ``map_spectrum`` is its public form on rational vectors.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

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
    _krylov_relation,
    _over_common_denominator,
    char_poly,
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
    with the char poly of m2."""

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
    vecs, r, f = _krylov_relation(m, v)
    if r < n:
        raise NotFullRank(f"iterates of v span a {r}-dimensional subspace of dimension {n}")
    return _companion_conjugate(vecs[:n], f)


def _companion_conjugate(vecs, f: IntPolynomial) -> CompanionConjugation:
    """The frame b = [M^{n-1}v, ..., v] of vecs = [v, ..., M^{n-1}v], each
    built as M times the one before, where f(M) v = 0 was checked on
    v, ..., M^n v (``_krylov_relation``, or ``leading_block`` at r < n).
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
    vecs, r, f = _krylov_relation(m, v)
    return _block_decompose(m, v, vecs, r, f)


def _block_decompose(m: IntMatrix, v: IntVector, vecs, r: int, f: IntPolynomial) -> BlockDecomposition:
    # vecs[:r] = [v, Mv, ..., M^{r-1}v], independent; f, the minimal
    # polynomial of v, is the char poly of m1, so det m1 = (-1)^r f(0)
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
    f2 = char_poly(m2)
    if (-1) ** n * det(m) != f.constant_term() * f2.constant_term():
        raise InternalError("block determinants do not multiply to det M")
    return BlockDecomposition(b, b_inv, r, m1, c, m2, x, f2)


class LeadingBlock(NamedTuple):
    """Leading block (m1, v1) with the Krylov rank r, the decomposition
    (None when r = n and m1, v1 are M, v), char poly and det of m1, and
    the iterates v1, m1 v1, ..., m1^{r-1} v1."""

    r: int
    decomp: BlockDecomposition | None
    m1: IntMatrix
    v1: IntVector
    char_poly: IntPolynomial
    det_m1: int
    krylov: tuple

    def companion(self) -> CompanionConjugation:
        """companion_conjugate(m1, v1) from the recorded iterates and char poly."""
        return _companion_conjugate(self.krylov, self.char_poly)


def leading_block(m: IntMatrix, v: IntVector) -> LeadingBlock:
    """The one place that decides between the full pair (r = n) and the
    reduced pair of the block decomposition (r < n).  One Krylov
    elimination gives r and the minimal polynomial f of v, which is the
    char poly of m1; r < n adds the block decomposition."""
    vecs, r, f = _krylov_relation(m, v)
    if r == m.n:
        decomp, m1, v1 = None, m, v
    else:
        decomp = _block_decompose(m, v, vecs, r, f)
        m1, v1 = decomp.m1, decomp.x
        # m1^k v1 is the head of b M^k v, so the first r are independent
        vecs = [v1]
        for _ in range(r):
            vecs.append(m1 * vecs[-1])
        if not _annihilates(f, vecs):
            raise InternalRankError("minimal polynomial of v does not annihilate the reduced vector")
    # det(xI - m1) at x = 0 is (-1)^r det m1
    return LeadingBlock(r, decomp, m1, v1, f, (-1) ** r * f.constant_term(), tuple(vecs[:r]))


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

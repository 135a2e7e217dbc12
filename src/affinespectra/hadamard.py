"""Dual digit sets, exact unitarity checking, and candidate spectra.

For a companion-form pair whose determinant is divisible by q, the dual
set {0, ..., q-1} u with u = (-a_n/q, 0, ..., 0) makes the digit/dual
phase matrix a scaled discrete Fourier matrix, hence unitary.  Unitarity
is decided exactly: a True is a proof, not a numerical observation.  A
HadamardTriple keeps its digits {0, w, ..., (q-1)w} and duals
{0, u, ..., (q-1)u} as (w, u, q) and decides itself by one gcd and one
substitution for m^{-1} w (Laba-Wang), so it builds no list of q vectors.
The list path, verify_hadamard, serves library callers and the benchmark:
digits that are consecutive multiples of one vector, in any order, take
the same closed form in one pass over the duals; any other digit set is
refused (PreconditionError), as the paper's digit sets are all of this kind.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from operator import add, mul

from .conjugation import CompanionConjugation, _transport
from .errors import DuplicateFrequency, InternalError, NotDivisible, PreconditionError, TooLarge
from .errors import UnverifiedTriple
from .linalg import IntMatrix, IntVector, RatVector, _inverse_parts, _solve_parts

_SPECTRUM_CAP = 2**16  # frequencies a candidate spectrum may hold


class HadamardTriple:
    """Matrix m, digits {0, w, ..., (q-1)w} and duals {0, u, ..., (q-1)u}, listed
    on first read.  verify() alone sets ``verified``: with m^{-1} w = x / d and
    T = <x, u>, H is unitary iff q T = 0 mod d and gcd(q T / d, q) = 1.
    ``coordinate_frame`` is m's companion conjugation, and ``block`` the
    block decomposition whose leading block it conjugates, or None."""

    __slots__ = ("m", "w", "u", "q", "coordinate_frame", "block", "verified", "_digits", "_duals")

    def __init__(self, m: IntMatrix, w: IntVector, u: IntVector, q: int, coordinate_frame=None):
        self.m, self.w, self.u, self.q = m, w, u, q
        self.coordinate_frame, self.block, self.verified = coordinate_frame, None, False
        self._digits = self._duals = None

    @property
    def digits(self) -> list:
        if self._digits is None:
            self._digits = list(map(IntVector._make, _progression(self.w.entries, self.q)))
        return self._digits

    @property
    def duals(self) -> list:
        if self._duals is None:
            self._duals = list(map(IntVector._make, _progression(self.u.entries, self.q)))
        return self._duals

    def verify(self) -> bool:
        x, d = _solve_parts(self.m, self.w)
        qt = self.q * x.dot(self.u)
        self.verified = self.q == 1 or (qt % d == 0 and gcd(qt // d, self.q) == 1)
        return self.verified

    def __repr__(self):
        return f"HadamardTriple(q={self.q}, verified={self.verified})"


def _progression(w: tuple, q: int):
    """The entries of 0, w, ..., (q-1) w for the entries w of a vector,
    zipped from one range per coordinate."""
    return zip(*(range(0, q * e, e) if e else itertools.repeat(0, q) for e in w))


class CandidateSpectrum:
    """Finite truncation of the canonical spectrum attached to a verified
    triple, in the instance's n coordinates, also when the triple lives on
    a leading block of rank r < n: the frequencies a / denominator held as
    their integer numerators a over one positive denominator.
    ``frequencies`` lists them as RatVectors on first read."""

    __slots__ = ("depth", "numerators", "denominator", "_frequencies")

    def __init__(self, depth: int, numerators, denominator: int):
        self.depth = depth
        self.numerators = list(numerators)
        self.denominator = denominator
        self._frequencies = None

    @property
    def frequencies(self) -> list:
        if self._frequencies is None:
            den = self.denominator
            self._frequencies = [RatVector(Fraction(x, den) for x in a) for a in self.numerators]
        return self._frequencies

    def __repr__(self):
        return f"CandidateSpectrum(depth={self.depth}, size={len(self.numerators)})"


def construct_dual_digits(conj: CompanionConjugation, q: int) -> HadamardTriple:
    """Dual set {0,...,q-1} u with u = (-a_n/q) e_1 for the companion pair.

    a_n is the constant coefficient of the characteristic polynomial, so
    |a_n| = |det M|; q must divide it (NotDivisible otherwise).  The
    resulting phases are k*l/q and the triple verifies unitarily.
    """
    n = conj.m_tilde.n
    # the companion matrix carries -a_n at the foot of its first column
    a_n = -conj.m_tilde.rows[n - 1][0]
    if a_n % q != 0:
        raise NotDivisible(f"q={q} does not divide |det| = {abs(a_n)}")
    u = IntVector._make((-a_n // q,) + (0,) * (n - 1))
    return HadamardTriple(conj.m_tilde, conj.v_tilde, u, q, coordinate_frame=conj)


def phase_matrix(m: IntMatrix, digits, duals) -> tuple[tuple[Fraction, ...], ...]:
    """Exact phases theta_kl in [0, 1) with H = (1/sqrt(q)) [e^{2 pi i theta_kl}]:
    theta_kl = <m^{-1} d_k, s_l> mod 1 = <adj d_k, s_l> / d mod 1, m^{-1} = adj / d."""
    adj, d = _inverse_parts(m)
    pre = [adj * x for x in digits]
    return tuple(tuple(Fraction(x.dot(s) % d, d) for s in duals) for x in pre)


def verify_hadamard(m: IntMatrix, digits, duals) -> bool:
    """Exact unitarity of the phase matrix: H*H = qI.

    The digits, q IntVectors in any order (H*H does not depend on it), must
    be {0, w, ..., (q-1)w}.  Entry (j, l) of H*H is then the geometric sum
    sum_k e^{2 pi i k (tau_l - tau_j)} with tau_l = <m^{-1} w, s_l>, which
    vanishes iff q (tau_l - tau_j) is an integer and tau_l - tau_j is not;
    so H is unitary iff the residues (tau_l - tau_0) mod 1 are q distinct
    multiples of 1/q (Laba-Wang).  The duals are IntVectors or plain
    sequences of one length.  Errors, in this order: ValueError for sizes
    that differ or are 0; the solve's errors (a non-square or singular m,
    or a wrong length of w0, the first nonzero digit of least l1 norm,
    which is w on a progression); PreconditionError for any other digit
    set; ValueError for a dual of the wrong length.

    Cost: each digit's and each dual's entries are read once, O(q n) in
    all, around one exact solve for m^{-1} w (an O(n) substitution on a
    companion m, an elimination otherwise); no tolerance, no q x q matrix.
    """
    if not digits or len(digits) != len(duals):
        raise ValueError("digit and dual sets must have equal, nonzero size")
    q = len(digits)
    rows = [d.entries for d in digits]
    digit_set = set(rows)
    # {0, w, ..., (q-1)w} sums to q(q-1)/2 w, so the coordinate sums name
    # the only w whose progression can be the digit set
    half = q * (q - 1) // 2
    w = tuple(s // half for s in map(sum, zip(*rows))) if q > 1 else rows[0]
    if len(digit_set) != q or digit_set != set(_progression(w, q)):
        # a solve for the least digit would name a wrong length or a
        # singular m before the digit set is refused
        norms = [sum(map(abs, e)) for e in rows]
        _solve_parts(m, rows[norms.index(min(filter(None, norms), default=0))])
        raise PreconditionError("hadamard digits are not consecutive multiples of one vector")
    # with m^{-1} w = x / d, d tau_l = <x, s_l> and the residues live mod d;
    # q times them, mod q d, must be exactly the q multiples of d
    x, d = _solve_parts(m, w)
    x = x.entries
    cols = [getattr(s, "entries", s) for s in duals]  # an IntVector's, or the sequence
    if set(map(len, cols)) != {len(x)}:
        raise ValueError("dimension mismatch")
    qd, t0 = q * d, sum(map(mul, x, cols[0]))
    return {q * (sum(map(mul, x, s)) - t0) % qd for s in cols} == set(range(0, qd, d))


def candidate_spectrum(triple: HadamardTriple, depth: int) -> CandidateSpectrum:
    """All depth-length dual expansions sum_{j<k} (M*)^j s_j.

    Requires a verified triple and at most _SPECTRUM_CAP sums (TooLarge,
    before any is built); the q^depth sums must be pairwise distinct (a
    collision would contradict unitarity and raises DuplicateFrequency).
    Frequencies are returned in the instance's coordinates: out of the
    companion frame by b^{-T}, b its basis, when one is recorded, and then,
    when a block decomposition is recorded too, padded with zeros and
    carried by its b^T.  They are integer numerators over |det b| of the
    frame (over 1 without one); no Fraction is made.  0 is always first.
    """
    if not triple.verified:
        raise UnverifiedTriple("run verify() before expanding a spectrum")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if triple.q ** min(depth, _SPECTRUM_CAP.bit_length()) > _SPECTRUM_CAP:  # q >= 2 passes it by then
        raise TooLarge(f"{triple.q}^{depth} frequencies exceed the cap of {_SPECTRUM_CAP}")
    # layers[i] is (M*)^i applied to each dual, carried to the instance's
    # coordinates as op s over den before any sum; zero padding, then b^T,
    # is the transpose of b's first r rows, so op is injective and the sums
    # collide where the companion sums do.  level holds the sums over the
    # first i digits in itertools.product order (first digit slowest); their
    # entries are ints the package built, so no sum is re-validated
    q, mt = triple.q, triple.m.transpose()
    layers = [triple.duals]
    while len(layers) < depth:
        layers.append([mt * s for s in layers[-1]])
    den = 1
    if triple.coordinate_frame is not None:
        op, den = _transport(triple.coordinate_frame.b, "inverse")
        if triple.block is not None:
            op = IntMatrix._make(tuple(zip(*triple.block.b.rows[:triple.block.r]))) * op
        layers = [[op * s for s in layer] for layer in layers]
    level = [s.entries for s in layers[0]]
    for layer in layers[1:]:
        level = [tuple(map(add, acc, s.entries)) for acc in level for s in layer]
    seen = set()
    for index, key in enumerate(level):
        if key in seen:
            choice = tuple(index // q ** (depth - 1 - j) % q for j in range(depth))
            raise DuplicateFrequency(f"expansion collision at digits {choice}")
        seen.add(key)
    if any(level[0]):
        raise InternalError("candidate spectrum must start at 0")
    return CandidateSpectrum(depth, level, den)


__all__ = [
    "CandidateSpectrum",
    "HadamardTriple",
    "candidate_spectrum",
    "construct_dual_digits",
    "phase_matrix",
    "verify_hadamard",
]

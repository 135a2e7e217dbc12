"""Dual digit sets, exact unitarity checking, and candidate spectra.

For a companion-form pair whose determinant is divisible by q, the dual
set {0, ..., q-1} u with u = (-a_n/q, 0, ..., 0) makes the digit/dual
phase matrix a scaled discrete Fourier matrix, hence unitary.  Unitarity
is decided exactly, so a True from verify_hadamard is a proof, not a
numerical observation.  Consecutive collinear digits {0, w, ..., (q-1)w},
the only kind the classifier builds, make every off-diagonal entry of
H*H a geometric sum with a closed-form zero set (Laba-Wang), in any
order, which one pass over the duals decides; any other digit set falls
back to reducing each column-pair sum of roots of unity, written as an
integer polynomial, modulo the appropriate cyclotomic polynomial.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .conjugation import CompanionConjugation, map_spectrum
from .errors import DuplicateFrequency, InternalError, NotDivisible, UnverifiedTriple
from .linalg import IntMatrix, IntVector, _inverse_parts, _solve_parts


class HadamardTriple:
    """Matrix, digit set, and dual set, with a verification flag that only
    verify_hadamard sets."""

    __slots__ = ("m", "digits", "duals", "coordinate_frame", "verified")

    def __init__(self, m: IntMatrix, digits, duals, coordinate_frame=None):
        self.m = m
        self.digits = list(digits)
        self.duals = list(duals)
        self.coordinate_frame = coordinate_frame
        self.verified = False

    @property
    def q(self) -> int:
        return len(self.digits)

    def verify(self) -> bool:
        ok = verify_hadamard(self.m, self.digits, self.duals)
        self.verified = ok
        return ok

    def __repr__(self):
        return f"HadamardTriple(q={self.q}, verified={self.verified})"


class PhaseMatrix:
    """Exact phases theta with H = (1/sqrt(q)) [e^{2 pi i theta_kl}]."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(Fraction(x) % 1 for x in row) for row in rows)

    def __getitem__(self, k):
        return self.rows[k]

    def __eq__(self, other):
        return isinstance(other, PhaseMatrix) and self.rows == other.rows

    def __repr__(self):
        return f"PhaseMatrix({[[str(x) for x in row] for row in self.rows]})"


class CandidateSpectrum:
    """Finite truncation of the canonical spectrum attached to a verified
    triple, expressed in the coordinates the instance was given in."""

    __slots__ = ("depth", "frequencies")

    def __init__(self, depth: int, frequencies):
        self.depth = depth
        self.frequencies = list(frequencies)

    def __repr__(self):
        return f"CandidateSpectrum(depth={self.depth}, size={len(self.frequencies)})"


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
    u = IntVector([-a_n // q] + [0] * (n - 1))
    digits = [conj.v_tilde.scaled(k) for k in range(q)]
    duals = [u.scaled(k) for k in range(q)]
    return HadamardTriple(conj.m_tilde, digits, duals, coordinate_frame=conj)


def phase_matrix(m: IntMatrix, digits, duals) -> PhaseMatrix:
    """theta_kl = <m^{-1} d_k, s_l> mod 1 = <adj d_k, s_l> / d mod 1, m^{-1} = adj / d."""
    adj, d = _inverse_parts(m)
    pre = [adj * x for x in digits]
    return PhaseMatrix([[Fraction(x.dot(s), d) for s in duals] for x in pre])


# -- exact vanishing of root-of-unity sums ----------------------------------


def _poly_divmod(num, den):
    """Quotient and remainder of integer polynomials (ascending), den monic."""
    num = list(num)
    d = len(den) - 1
    if den[-1] != 1:
        raise InternalError("exact division needs a monic divisor")
    quo = [0] * max(len(num) - d, 0)
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        if c:
            quo[i - d] = c
            for j, y in enumerate(den):
                num[i - d + j] -= c * y
    return quo, num


@lru_cache(maxsize=None)
def _cyclotomic(order: int):
    """Coefficients (ascending) of the cyclotomic polynomial, by the sieve
    Phi_L = (x^L - 1) / prod of Phi_d over proper divisors d of L."""
    poly = [-1] + [0] * (order - 1) + [1]
    for d in range(1, order):
        if order % d == 0:
            poly, rem = _poly_divmod(poly, _cyclotomic(d))
            if any(rem):
                raise InternalError("division was not exact")
    return tuple(poly)


def _root_of_unity_sum_is_zero(exponents) -> bool:
    """Exact test of sum_i e^{2 pi i e_i} = 0 for rational exponents: the
    sum vanishes iff its polynomial has zero remainder mod Phi_order."""
    exps = [Fraction(e) % 1 for e in exponents]
    order = lcm(*(e.denominator for e in exps))
    coeffs = [0] * order
    for e in exps:
        coeffs[int(e * order)] += 1
    return not any(_poly_divmod(coeffs, _cyclotomic(order))[1])


def _verify_collinear(m: IntMatrix, w, duals) -> bool:
    # entry (j, l) of H*H is sum_k e^{2 pi i k (tau_l - tau_j)} with
    # tau_l = <m^{-1} w, s_l>; it vanishes iff q (tau_l - tau_j) is an
    # integer and tau_l - tau_j is not, so H is unitary iff the residues
    # (tau_l - tau_0) mod 1 are q distinct multiples of 1/q.  With
    # m^{-1} w = x / d, d tau_l = <x, s_l> and the residues live mod d
    x, d = _solve_parts(m, w)
    taus = [x.dot(s) for s in duals]
    q = len(duals)
    residues = {(t - taus[0]) % d for t in taus}
    return len(residues) == q and all(q * r % d == 0 for r in residues)


def _verify_cyclotomic(m: IntMatrix, digits, duals) -> bool:
    q = len(digits)
    theta = phase_matrix(m, digits, duals)
    for j in range(q):
        for k in range(j + 1, q):
            exps = [theta[d][k] - theta[d][j] for d in range(q)]
            if not _root_of_unity_sum_is_zero(exps):
                return False
    return True


def verify_hadamard(m: IntMatrix, digits, duals) -> bool:
    """Exact unitarity of the phase matrix: H*H = qI.

    Diagonal entries are q automatically; each off-diagonal entry is a
    sum of q roots of unity.  When the digits, as a set of q vectors in any
    order (H*H does not depend on it), are {0, w, ..., (q-1)w} with w the
    nonzero digit of least l1 norm, it is a geometric sum, and H is unitary
    iff the phases tau_l = <m^{-1} w, s_l> are q distinct residues of
    tau_0 + (1/q)Z mod 1: one exact linear solve for m^{-1} w and one
    pass over the duals.
    Every other digit set is decided by reducing each sum modulo a
    cyclotomic polynomial.  Both paths are exact, with no tolerance.
    """
    if len(digits) != len(duals):
        raise ValueError("digit and dual sets must have equal size")
    keys = [tuple(d) for d in digits]
    w = min((d for d, key in zip(digits, keys) if any(key)),
            key=lambda d: sum(abs(e) for e in d), default=None)
    if w is not None and set(keys) == {tuple(k * e for e in w) for k in range(len(keys))}:
        return _verify_collinear(m, w, duals)
    return _verify_cyclotomic(m, digits, duals)


def candidate_spectrum(triple: HadamardTriple, depth: int) -> CandidateSpectrum:
    """All depth-length dual expansions sum_{j<k} (M*)^j s_j.

    Requires a verified triple; the q^depth sums must be pairwise distinct
    (a collision would contradict unitarity and raises
    DuplicateFrequency).  Frequencies are returned mapped out of the
    companion frame when one is recorded, so they live in the same
    coordinates as the instance the triple came from; 0 is always first.
    """
    if not triple.verified:
        raise UnverifiedTriple("run verify() before expanding a spectrum")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    q, mt, layers = triple.q, triple.m.transpose(), [list(triple.duals)]
    while len(layers) < depth:  # layer j holds (M*)^j s for each dual s
        layers.append([mt * s for s in layers[-1]])
    sums = []
    seen = set()
    for choice in itertools.product(range(q), repeat=depth):
        acc = layers[0][choice[0]]
        for j in range(1, depth):
            acc = acc + layers[j][choice[j]]
        key = acc.entries
        if key in seen:
            raise DuplicateFrequency(f"expansion collision at digits {choice}")
        seen.add(key)
        sums.append(acc)
    if triple.coordinate_frame is not None:
        freqs = map_spectrum(triple.coordinate_frame.b, sums, "inverse")
    else:
        freqs = [s.to_rat() for s in sums]
    if not freqs[0].is_zero():
        raise InternalError("candidate spectrum must start at 0")
    return CandidateSpectrum(depth, freqs)


__all__ = [
    "CandidateSpectrum",
    "HadamardTriple",
    "PhaseMatrix",
    "candidate_spectrum",
    "construct_dual_digits",
    "phase_matrix",
    "verify_hadamard",
]

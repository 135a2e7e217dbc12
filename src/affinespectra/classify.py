"""Spectrality classification of (M, v, q) instances.

The measure attached to an expanding integer matrix M and the digit set
{0, ..., q-1} v is classified by three quantities: the dimension r of the
span of v, Mv, M^2 v, ...; the determinant d1 of the leading block M1
acting on that span (M1 = M when r = n); and gcd(q, |d1|).  The decision
tree:

    q divides |d1|                  -> Spectral (Hadamard certificate)
    else, char poly of M1 = x^r + c:
        gcd > 1                     -> NotSpectralInfiniteOrthogonals
        gcd = 1                     -> NotSpectralFinitelyMany
    else (general char poly):
        gcd > 1                     -> InfiniteOrthogonalsSpectralityUnknown
        gcd = 1                     -> Unknown

Only the first three verdicts are theorems; the last two report exactly
what is established (a witness of infinitely many orthogonal
exponentials, or nothing) without guessing spectrality.
"""

from __future__ import annotations

import enum
from math import gcd

from ._record import _Record
from .conjugation import companion_matrix, leading_block
from .errors import BadQ, InternalError, NotExpanding, ZeroVector
from .fourier import construct_witness
from .hadamard import HadamardTriple, _dual_digits
from .linalg import IntMatrix, IntPolynomial, IntVector, _no_root_in_closed_unit_disk


class ProblemInstance:
    """Validated input triple: expanding integer matrix, nonzero digit
    direction, digit count q >= 2.  ``leading`` is built first and decides
    the expanding test: one Krylov elimination factors char_poly(m) into
    the char poly f of m1 and, at r < n, the trailing polynomials of the
    chains that continue it to rank n, and each factor must have every
    root outside the closed unit disk.  No block decomposition is built
    here; ``leading`` builds it when a reader asks for it."""

    __slots__ = ("m", "v", "q", "leading")

    def __init__(self, m: IntMatrix, v: IntVector, q: int):
        n = m.n
        if len(v) != n:
            raise ValueError(f"v has length {len(v)}, matrix is {n}x{n}")
        if v.is_zero():
            raise ZeroVector("digit direction v must be nonzero")
        if not isinstance(q, int) or isinstance(q, bool) or q < 2:
            raise BadQ(f"q must be an integer >= 2, got {q!r}")
        lead = leading_block(m, v)
        if not all(_no_root_in_closed_unit_disk(p.coeffs) for p in (lead.char_poly, *lead.trailing)):
            raise NotExpanding(
                "matrix is not expanding: all eigenvalues must exceed 1 in modulus"
            )
        self.m = m
        self.v = v
        self.q = q
        self.leading = lead

    def __repr__(self):
        return f"ProblemInstance(m={self.m!r}, v={self.v!r}, q={self.q})"


class Verdict(enum.Enum):
    SPECTRAL = "spectral"
    NOT_SPECTRAL_INFINITE_ORTHOGONALS = "not_spectral_infinite_orthogonals"
    NOT_SPECTRAL_FINITELY_MANY = "not_spectral_finitely_many"
    INFINITE_ORTHOGONALS_SPECTRALITY_UNKNOWN = "infinite_orthogonals_spectrality_unknown"
    UNKNOWN = "unknown"


class Conditions(_Record):
    """The numeric facts the verdict is a function of."""

    __slots__ = ("r", "det_m1", "gcd_q_detm1", "q_divides_detm1", "pure_power_c")


class HadamardCertificate(_Record):
    """A verified Hadamard triple in the companion frame of the leading
    block, which reads the block decomposition, when dimension reduction
    was used, on demand.  Re-verifiable from its own data."""

    kind = "hadamard"
    __slots__ = ("triple",)


class WitnessCertificate(_Record):
    """A verified witness frequency for an infinite orthogonal family."""

    kind = "witness"
    __slots__ = ("witness",)


class ConditionOnly(_Record):
    """No constructive certificate; the verdict rests on the recorded
    arithmetic conditions alone."""

    kind = "condition-only"
    __slots__ = ("note",)


class Classification(_Record):
    __slots__ = ("verdict", "conditions", "certificate", "reasons")


def pure_power_form(p: IntPolynomial):
    """The constant c when p = x^r + c, else None.  Every monic linear
    polynomial qualifies."""
    if not p.is_monic:
        raise ValueError("pure-power test expects a monic polynomial")
    if any(p.coeffs[i] != 0 for i in range(1, p.degree)):
        return None
    return p.coeffs[0]


def leading_triple(inst: ProblemInstance) -> HadamardTriple:
    """Dual digit triple of the leading block in its companion frame, with
    exact unitarity checked (``triple.verified``).  The triple is built from
    companion_matrix(f) alone; its companion frame (``coordinate_frame``)
    and block decomposition (``block``) are read off ``inst.leading`` on
    demand.  Raises NotDivisible when q does not divide |det m1|."""
    lead = inst.leading
    w = IntVector._make((0,) * (lead.r - 1) + (1,))
    triple = _dual_digits(companion_matrix(lead.char_poly), w, inst.q, leading=lead)
    triple.verify()
    return triple


def classify(inst: ProblemInstance) -> Classification:
    """Run the decision tree and attach a certificate.

    Spectral verdicts carry a Hadamard certificate whose unitarity has
    been verified exactly; verdicts asserting infinitely many orthogonal
    exponentials carry an exactly verified witness; the remaining
    verdicts carry the conditions record only.
    """
    lead = inst.leading
    reasons = [] if lead.r == len(inst.v) else ["rank-reduction"]
    d1 = lead.det_m1
    g = gcd(inst.q, abs(d1))
    pure_c = pure_power_form(lead.char_poly)
    conditions = Conditions(
        r=lead.r,
        det_m1=d1,
        gcd_q_detm1=g,
        q_divides_detm1=abs(d1) % inst.q == 0,
        pure_power_c=pure_c,
    )
    if conditions.q_divides_detm1:
        triple = leading_triple(inst)
        if not triple.verified:
            raise InternalError("constructed dual digits failed unitarity")
        reasons.append("divisibility-sufficiency")
        return Classification(
            Verdict.SPECTRAL, conditions, HadamardCertificate(triple), reasons
        )
    if g > 1:
        reasons.append("gcd-witness")
        verdict = Verdict.INFINITE_ORTHOGONALS_SPECTRALITY_UNKNOWN
        if pure_c is not None:
            reasons.append("pure-power-necessity")
            verdict = Verdict.NOT_SPECTRAL_INFINITE_ORTHOGONALS
        witness = WitnessCertificate(construct_witness(inst))
        return Classification(verdict, conditions, witness, reasons)
    if pure_c is not None:
        reasons.append("pure-power-finiteness")
        note = "coprime digit count over a pure-power block"
        return Classification(Verdict.NOT_SPECTRAL_FINITELY_MANY, conditions, ConditionOnly(note), reasons)
    note = "no established criterion applies"
    return Classification(Verdict.UNKNOWN, conditions, ConditionOnly(note), reasons)


__all__ = [
    "Classification",
    "ConditionOnly",
    "Conditions",
    "HadamardCertificate",
    "ProblemInstance",
    "Verdict",
    "WitnessCertificate",
    "classify",
    "leading_triple",
    "pure_power_form",
]

"""Mask polynomial and Fourier transform of the invariant measure.

The measure attached to (M, D) with D = {0, ..., q-1} v has
mu_hat(xi) = prod_{j >= 1} mask((M*)^{-j} xi), where the mask is the
normalized exponential sum over the digits.  Because the digits are
consecutive multiples of one vector, the mask is a geometric sum and its
zero set has an exact rational description: the phase <v, xi> must be a
non-integer multiple of 1/q.  Everything decision-grade here is exact:
with M^{-1} = adj / d, the factor phases are <a, n_j> mod L d^j for
xi = a / L and M^{-j} v = n_j / d^j, all Python ints.  Floats appear only
in reported numeric values and error bounds, each rounded once from an
exact rational.

Orthogonality of two exponentials is certified by exhibiting a factor
index j with an exactly vanishing mask; absence of a certificate proves
nothing, and no function here claims otherwise.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul

from .errors import GcdOne, InternalError, NonConvergent
from .linalg import IntMatrix, IntVector, RatVector, _apply_power, _inverse_parts
from .linalg import _over_common_denominator, _solve_parts, is_expanding, xgcd

_WITNESS_DEPTH_CAP = 500
_MU_HAT_FACTOR_CAP = 100000
_FLOAT_MIN = sys.float_info.min  # the smallest normal float


class Witness:
    """A frequency alpha with vanishing mask whose image under (M*)^ell is
    an integer vector; the seed of an infinite orthogonal family.  The
    verified flag is set only by construct_witness, from verify_witness."""

    __slots__ = ("alpha", "ell", "phase", "image", "verified")

    def __init__(self, alpha: RatVector, ell: int, phase: Fraction, image: IntVector):
        self.alpha = alpha
        self.ell = ell
        self.phase = phase
        self.image = image
        self.verified = False

    def __repr__(self):
        return f"Witness(alpha={self.alpha!r}, ell={self.ell})"


class OrthogonalityCertificate:
    """Exact proof that two exponentials are orthogonal: factor j of the
    transform product vanishes at the difference frequency."""

    __slots__ = ("lambda1", "lambda2", "j", "phase")

    def __init__(self, lambda1: RatVector, lambda2: RatVector, j: int, phase: Fraction):
        self.lambda1 = lambda1
        self.lambda2 = lambda2
        self.j = j
        self.phase = phase

    def __repr__(self):
        return f"OrthogonalityCertificate(j={self.j}, phase={self.phase})"


class MuHatValue:
    """Truncated transform value with a certified absolute error bound."""

    __slots__ = ("value", "error", "factors")

    def __init__(self, value: complex, error: float, factors: int):
        self.value = value
        self.error = error
        self.factors = factors

    def __repr__(self):
        return f"MuHatValue({self.value:.6g}, error={self.error:.3g})"


def _as_rat_vector(xi) -> RatVector:
    if isinstance(xi, RatVector):
        return xi
    if isinstance(xi, IntVector):
        return xi.to_rat()
    return RatVector(xi)


def _phase(inst, xi: RatVector) -> Fraction:
    if len(xi) != len(inst.v):
        raise ValueError("frequency dimension does not match the instance")
    return xi.dot(inst.v)


def _mask_from_phase(q: int, num: int, den: int) -> complex:
    # the mask at phase t = num / den
    num %= den
    if num == 0:
        return complex(1.0)
    if q * num % den == 0:
        return complex(0.0)  # exact zero of the geometric sum
    # period 1: reduce into (-1/2, 1/2] while exact, or a phase just below
    # an integer loses every digit of sin(pi t) in the float conversion
    if 2 * num > den:
        num -= den
    tf = num / den
    if abs(tf) < _FLOAT_MIN:
        # below the normal floats sin(pi t) keeps too few digits, and the
        # Dirichlet ratio is 1 to double precision there
        return cmath.exp(1j * math.pi * (q - 1) * tf)
    # (1/q) sum_k e^{2 pi i k t} in closed Dirichlet-kernel form
    return (
        cmath.exp(1j * math.pi * (q - 1) * tf)
        * math.sin(math.pi * q * tf)
        / (q * math.sin(math.pi * tf))
    )


def mask(inst, xi) -> complex:
    """Normalized digit exponential sum (1/q) sum_k e^{2 pi i k <v, xi>}."""
    t = _phase(inst, _as_rat_vector(xi))
    return _mask_from_phase(inst.q, t.numerator, t.denominator)


def mask_is_zero_exact(inst, xi) -> bool:
    """Exact zero test for the mask at a rational frequency.

    The geometric sum vanishes iff t = <v, xi> is a non-integer whose
    reduced denominator divides q, i.e. t is congruent mod 1 to j/q for
    some j in {1, ..., q-1}.
    """
    t = _phase(inst, _as_rat_vector(xi)) % 1
    return t != 0 and (inst.q * t).denominator == 1


@lru_cache(maxsize=None)
def _contraction_data(m: IntMatrix):
    """(adj, adj^T, d, col, row) with M^{-1} = adj / d, d = |det M|, and
    (k, rho, s) for (M*)^{-k} (col) and M^{-k} (row): the least k whose inf
    norm rho, the column or row sums of adj^k over d^k, is below 1, and the
    sum s of the first k norms, exact.  A non-expanding M raises NonConvergent."""
    adj, d = _inverse_parts(m)
    power, scale, k = adj, d, 1
    sums, found = [Fraction(0), Fraction(0)], [None, None]
    while True:
        for i, rows in enumerate((zip(*power.rows), power.rows)):
            if found[i] is None:
                rho = Fraction(max(sum(map(abs, row)) for row in rows), scale)
                sums[i] += rho
                if rho < 1:
                    found[i] = (k, rho, sums[i])
        if None not in found:
            return adj, adj.transpose(), d, found[0], found[1]
        # an expanding M contracts eventually, after however many powers
        if k == 10 * m.n and not is_expanding(m):
            raise NonConvergent("matrix is not expanding: no power of its inverse contracts")
        power, scale, k = power * adj, scale * d, k + 1


def _check_tail_eps(tail_eps):
    # no tail falls below a bound <= 0 or NaN, and an infinite one bounds nothing
    if not 0 < tail_eps < math.inf:
        raise ValueError(f"tail_eps must be finite and positive, got {tail_eps!r}")


def mu_hat(inst, xi, tail_eps: float = 1e-9) -> MuHatValue:
    """Fourier transform of the invariant measure, numerically.

    Multiplies mask factors at (M*)^{-j} xi until the remaining tail is
    provably below tail_eps, using |mask(eta) - 1| <= pi (q-1) |<v, eta>|
    and geometric decay of the exact power norms.  If any factor is an
    exact rational zero the product short-circuits to exactly 0.  The
    returned error field bounds |true - value| absolutely.  The iterate
    (M*)^{-j} xi is kept exactly as (adj^T)^j a over L d^j, gcd removed.
    Raises ValueError unless tail_eps is finite and positive.
    """
    _check_tail_eps(tail_eps)
    xi = _as_rat_vector(xi)
    if len(xi) != len(inst.v):
        raise ValueError("frequency dimension does not match the instance")
    if xi.is_zero():
        return MuHatValue(complex(1.0), 0.0, 0)
    _, adj_t, d, (_, rho, norm_sum), _ = _contraction_data(inst.m)
    q, v = inst.q, inst.v.entries
    coeff = Fraction(norm_sum, 1) / (1 - rho) * sum(abs(e) for e in v) * (q - 1)
    a, den = _over_common_denominator(xi)
    product = complex(1.0)
    j = 0
    while True:
        a = [sum(map(mul, row, a)) for row in adj_t.rows]
        den *= d
        g = gcd(den, *a)
        a, den = [x // g for x in a], den // g
        j += 1
        t = sum(map(mul, a, v)) % den
        if t and q * t % den == 0:
            return MuHatValue(complex(0.0), 0.0, j)
        product *= _mask_from_phase(q, t, den)
        # int / int rounds once, as the float of the exact Fraction would
        tail = math.pi * (coeff.numerator * max(map(abs, a)) / (coeff.denominator * den))
        if tail < tail_eps:
            return MuHatValue(product, math.expm1(tail), j)
        if j > _MU_HAT_FACTOR_CAP:
            raise InternalError("transform truncation failed to converge")


@lru_cache(maxsize=None)
def _probe_sequence(m: IntMatrix, v: IntVector) -> list:
    """[(n_j, d^j) for j = 0, 1, ...] with M^{-j} v = n_j / d^j, grown on
    demand by _vanishing_factor.  <(M*)^{-j} delta, v> = <delta, M^{-j} v>,
    so one sequence serves every pair ever certified against (M, v)."""
    return [(v.entries, 1)]


def _vanishing_factor(inst, a, den: int, j_max: int | None):
    """(j, r, modulus) for the first j <= j_max whose mask vanishes at
    (M*)^{-j} (a / den), with phase r / modulus = <a, n_j> / (den d^j) mod 1,
    or None.  The default j_max grows with the reduced entries of a / den."""
    if j_max is None:
        max_den = max(den // gcd(x, den) for x in a)
        max_num = max(abs(x) // gcd(x, den) for x in a)
        j_max = 3 * inst.m.n + (max_den * max_num).bit_length()
    seq = _probe_sequence(inst.m, inst.v)
    q = inst.q
    for j in range(1, j_max + 1):
        if j == len(seq):
            adj, _, d, _, _ = _contraction_data(inst.m)
            prev, scale = seq[-1]
            seq.append((tuple(sum(map(mul, row, prev)) for row in adj.rows), scale * d))
        n_j, d_j = seq[j]
        modulus = den * d_j
        r = sum(map(mul, a, n_j)) % modulus
        if r and q * r % modulus == 0:
            return j, r, modulus
    return None


def certify_orthogonal(inst, lambda1, lambda2, j_max: int | None = None):
    """Search for an exactly vanishing factor separating two frequencies.

    Returns an OrthogonalityCertificate for the first j <= j_max with
    mask((M*)^{-j}(lambda1 - lambda2)) = 0, or None when the search is
    exhausted.  None means NOT CERTIFIED; it never means "not orthogonal".
    """
    lambda1 = _as_rat_vector(lambda1)
    lambda2 = _as_rat_vector(lambda2)
    delta = lambda1 - lambda2
    if len(delta) != len(inst.v):
        raise ValueError("frequency dimension does not match the instance")
    if delta.is_zero():
        raise ValueError("frequencies must differ")
    hit = _vanishing_factor(inst, *_over_common_denominator(delta), j_max)
    return None if hit is None else OrthogonalityCertificate(lambda1, lambda2, hit[0], Fraction(*hit[1:]))


# ---------------------------------------------------------------------------
# witnesses of infinite orthogonal families
# ---------------------------------------------------------------------------


def _bezout_vector(w: IntVector) -> tuple[int, IntVector]:
    """gcd g of the entries of w plus an integer c with <w, c> = g."""
    g = w[0]
    coefs = [1] + [0] * (len(w) - 1)
    for i in range(1, len(w)):
        g, s, t = xgcd(g, w[i])
        coefs = [s * x for x in coefs]
        coefs[i] = t
    if g < 0:
        g, coefs = -g, [-x for x in coefs]
    return g, IntVector(coefs)


def _solve_phase_congruence(w: IntVector, m: int, target: int) -> IntVector:
    """Integer z with <w, z> congruent to target mod m, of small size.

    Requires gcd of the entries of w to be invertible mod m, which the
    caller guarantees; the solution is a Bezout combination scaled by the
    modular quotient, reduced to the minimal absolute residue (preferring
    the positive one on ties)."""
    g, c = _bezout_vector(w)
    gg, ginv, _ = xgcd(g % m, m)
    if gg != 1:
        raise InternalError("gcd of numerators must be a unit modulo the denominator")
    t = (target * ginv) % m
    if 2 * t > m:
        t -= m
    z = c.scaled(t)
    if (w.dot(z) - target) % m != 0:
        raise InternalError("phase congruence solution is wrong")
    return z


def construct_witness(inst) -> Witness:
    """Build a witness frequency proving an infinite orthogonal family.

    Works on the leading block (m1, v1) of the instance, ``inst.leading``:
    m1 = M and v1 = v when the iterates of v span everything, otherwise
    the reduced pair from the block decomposition.  Inverse iterates
    m1^{-l} v1 are computed until their common denominator shares a
    factor d > 1 with q (this must happen: a prime dividing both q and
    det(m1) cannot leave all inverse iterates p-integral).  A lattice congruence then produces
    alpha with <v, alpha> = 1/d mod 1, killing the mask, while (M*)^l
    alpha is integral.  In the reduced case the trailing coordinates of
    alpha are chosen to cancel the coupling block, which preserves both
    properties through the change of basis.

    Raises GcdOne when gcd(q, |det m1|) = 1, where no witness of this
    kind exists.
    """
    n = inst.m.n
    r, decomp, m1, v1, _, d1, _ = inst.leading
    if gcd(inst.q, abs(d1)) == 1:
        raise GcdOne(
            f"gcd(q={inst.q}, |det m1|={abs(d1)}) = 1: no vanishing-denominator witness"
        )
    # all in integers: m1^{-1} = adj / d1_abs, and m1^{-ell} v1 = a / den
    # with gcd(den, a) = 1, so den is the lcm of the entry denominators
    adj, d1_abs = _inverse_parts(m1)
    a, den = v1, 1
    for ell in range(1, _WITNESS_DEPTH_CAP + 1):
        a, den = adj * a, den * d1_abs
        g = gcd(den, *a)
        a, den = IntVector(x // g for x in a), den // g
        dstar = gcd(den, inst.q)
        if dstar > 1:
            break
    else:
        raise InternalError("witness depth cap reached; should be unreachable")
    z = _solve_phase_congruence(a, den, den // dstar)
    if decomp is None:
        # alpha = (m1^{-T})^ell z = num / den
        num = IntVector._make(tuple(_apply_power(adj.transpose().rows, ell, z.entries)))
        den, image = d1_abs ** ell, z
    else:
        # alpha = b^T (B^{-T})^ell (z, 0) with B = b M b^{-1}: (M*)^ell alpha
        # = b^T (z, 0) is integral, and the leading block of b^{-T} alpha is
        # (m1^{-T})^ell z; ell solves x / d = B^{-T} x_prev, d = |det M|
        bt, image = decomp.block.transpose(), IntVector(list(z) + [0] * (n - r))
        num, den = image, 1
        for _ in range(ell):
            num, d = _solve_parts(bt, num)
            den *= d
        num, image = decomp.b.transpose() * num, decomp.b.transpose() * image
    alpha = RatVector(Fraction(x, den) for x in num)
    phase = Fraction(num.dot(inst.v) % den, den)
    witness = Witness(alpha, ell, phase, image)
    witness.verified = verify_witness(inst, witness)
    if not witness.verified:
        raise InternalError("constructed witness failed verification")
    return witness


def verify_witness(inst, w: Witness) -> bool:
    """Exact re-check of both witness properties against the instance, on
    the integers a of alpha = a / den: the mask vanishes iff t = <v, a> mod
    den is nonzero with q t = 0 mod den, and (M*)^ell alpha is integral iff
    (M^T)^ell a = 0 mod den, one vector power mod den: no matrix squaring
    at ell = 1 and O(log ell) squarings for any ell."""
    if len(w.alpha) != inst.m.n or w.ell < 1:
        return False
    a, den = _over_common_denominator(w.alpha)
    t = sum(map(mul, a, inst.v.entries)) % den
    if t == 0 or inst.q * t % den:
        return False
    return not any(_apply_power(inst.m.transpose().rows, w.ell, a, den))


def witness_orthogonal_family(inst, w: Witness, count: int) -> list[RatVector]:
    """Mutually orthogonal integer frequencies grown from a witness.

    Returns the partial sums lambda_k = sum_{i=1}^{k} (M*)^{i ell} alpha
    for k = 0, ..., count-1.  Any two of them differ by (M*)^{j} applied
    to (alpha + integer vector), so the mask kills factor j and every
    pair is certifiable; the family realizes, at finite scale, the
    infinite orthogonal set the witness promises.  Works on the integers
    of alpha = a / den: each sum of (M^T)^{i ell} a must be 0 mod den.
    """
    mt = inst.m.transpose().rows
    term, den = _over_common_denominator(w.alpha)
    acc = [0] * inst.m.n
    out = [RatVector(acc)]
    for _ in range(count - 1):
        term = _apply_power(mt, w.ell, term)
        acc = [x + y for x, y in zip(acc, term)]
        if any(x % den for x in acc):
            raise InternalError("orthogonal family member is not integral")
        out.append(RatVector(x // den for x in acc))
    return out


__all__ = [
    "MuHatValue",
    "OrthogonalityCertificate",
    "Witness",
    "certify_orthogonal",
    "construct_witness",
    "mask",
    "mask_is_zero_exact",
    "mu_hat",
    "verify_witness",
    "witness_orthogonal_family",
]

"""Mask polynomial and Fourier transform of the invariant measure.

The measure attached to (M, D) with D = {0, ..., q-1} v has
mu_hat(xi) = prod_{j >= 1} mask((M*)^{-j} xi), where the mask is the
normalized exponential sum over the digits.  Because the digits are
consecutive multiples of one vector, the mask is a geometric sum and its
zero set has an exact rational description: the phase <v, xi> must be a
non-integer multiple of 1/q.  Everything decision-grade here is exact:
with M^{-1} = adj / d, the factor phases are <a, n_j> mod L d_j for
xi = a / L and M^{-j} v = n_j / d_j, all Python ints, d_j a divisor of
d^j: every power of M^{-1}, iterate of v and lockstep level is stepped
from the last by adj and d and, once its denominator passes 53 bits, put
in lowest terms (_lowest_terms).  Floats appear only in reported numeric
values and error bounds, each rounded once from an exact rational.

Orthogonality of two exponentials is certified by exhibiting a factor
index j with an exactly vanishing mask; absence of a certificate proves
nothing, and no function here claims otherwise.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd
from operator import mul

from ._record import _Record
from .errors import GcdOne, InternalError, NonConvergent, TooLarge
from .linalg import IntMatrix, IntVector, RatVector, _apply_power, _inverse_parts
from .linalg import _over_common_denominator, _solve_parts, is_expanding, xgcd

_WITNESS_DEPTH_CAP = 500
_MU_HAT_FACTOR_CAP = 100000
_PROBE_BITS_CAP = 2**28
_FLOAT_MIN = sys.float_info.min  # the smallest normal float
_ULP = 2.0 ** -53  # unit roundoff of a double


class Witness(_Record, verified=False):
    """A frequency alpha with vanishing mask whose image under (M*)^ell is
    an integer vector; the seed of an infinite orthogonal family.  The
    verified flag defaults to False; construct_witness sets it from
    verify_witness."""

    __slots__ = ("alpha", "ell", "phase", "image", "verified")


class OrthogonalityCertificate(_Record):
    """Exact proof that two exponentials are orthogonal: factor j of the
    transform product vanishes at the difference frequency."""

    __slots__ = ("lambda1", "lambda2", "j", "phase")


class MuHatValue(_Record):
    """Truncated transform value with a certified absolute error bound (_error_bound)."""

    __slots__ = ("value", "error", "factors")


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


def _masks(q: int, phases, den: int) -> dict:
    """{t: the mask at phase t / den} for the distinct t in [0, den) of
    phases, None at an exact zero (t != 0, q t = 0 mod den): one pass, one
    zero test and one closed Dirichlet form of (1/q) sum_k e^{2 pi i k t}
    per phase."""
    w, p = 1j * math.pi * (q - 1), math.pi * q
    exp, sin, pi = cmath.exp, math.sin, math.pi
    out = {}
    for t in set(phases):
        if t == 0:
            out[t] = complex(1.0)
        elif q * t % den == 0:
            out[t] = None
        else:
            # period 1: reduce into (-1/2, 1/2] while exact, or a phase just
            # below an integer loses every digit of sin(pi t) as a float;
            # below the normal floats the Dirichlet ratio is 1 to precision
            tf = (t - den if 2 * t > den else t) / den
            rot = exp(w * tf)
            out[t] = rot if abs(tf) < _FLOAT_MIN else rot * sin(p * tf) / (q * sin(pi * tf))
    return out


def mask(inst, xi) -> complex:
    """Normalized digit exponential sum (1/q) sum_k e^{2 pi i k <v, xi>}."""
    t = _phase(inst, _as_rat_vector(xi)) % 1
    value = _masks(inst.q, [t.numerator], t.denominator)[t.numerator]
    return complex(0.0) if value is None else value


def mask_is_zero_exact(inst, xi) -> bool:
    """Exact zero test for the mask at a rational frequency.

    The geometric sum vanishes iff t = <v, xi> is a non-integer whose
    reduced denominator divides q, i.e. t is congruent mod 1 to j/q for
    some j in {1, ..., q-1}.
    """
    t = _phase(inst, _as_rat_vector(xi)) % 1
    return t != 0 and (inst.q * t).denominator == 1


# Past 53 bits a denominator leaves CPython's exact double path for int /
# int, and a gcd a level keeps the integers at the size of the reduced
# fractions; below it a gcd rarely pays, so small instances take none
_EXACT_BITS = 53


def _lowest_terms(den: int, rows: list) -> tuple:
    """(den, rows) divided by g = gcd(den, every entry of rows) once den has
    more than _EXACT_BITS bits.  The values x / den do not move, so neither
    do their zero tests nor the floats int / int rounds them to."""
    if den.bit_length() > _EXACT_BITS:
        g = gcd(den, *itertools.chain.from_iterable(rows))
        if g > 1:
            return den // g, [[x // g for x in row] for row in rows]
    return den, rows


@lru_cache(maxsize=None)
def _linear_map(a: tuple):
    """xs -> for each row of a, the list of sum c * xs[k] over its nonzero
    c = row[k], entry by entry: one comprehension a row with its terms
    written out, as _record writes an __init__, and xs[k] itself for a row
    that is a unit vector e_k."""
    coeffs, body = [], []
    for row in a:
        terms = [(f"y{k}", k, c) for k, c in enumerate(row) if c]
        if len(terms) == 1 and terms[0][2] == 1:
            body.append(f"xs[{terms[0][1]}]")
            continue
        expr = [f"c{len(coeffs) + i} * {y}" for i, (y, _, _) in enumerate(terms)]
        coeffs += [c for _, _, c in terms]
        names = ", ".join(y for y, _, _ in terms)
        lists = ", ".join(f"xs[{k}]" for _, k, _ in terms)
        source = f"{names} in zip({lists})" if len(terms) > 1 else f"{names} in {lists}"
        body.append(f"[{' + '.join(expr)} for {source}]")
    params = "".join(f", c{i}=coeffs[{i}]" for i in range(len(coeffs)))
    namespace = {"coeffs": coeffs}
    exec(f"def apply(xs{params}):\n return [{', '.join(body)}]", namespace)
    return namespace["apply"]


def _inverse_powers(adj: IntMatrix, d: int):
    """(rows, den) with M^{-k} = rows / den for k = 1, 2, ..., M^{-1} =
    adj / d: each power is adj times the last, in lowest terms."""
    step, rows, den = _linear_map(adj.rows), [list(row) for row in adj.rows], d
    while True:
        yield rows, den
        den, rows = _lowest_terms(den * d, step(rows))


@lru_cache(maxsize=None)
def _contraction_data(m: IntMatrix):
    """(adj, adj^T, d, col, row) with M^{-1} = adj / d, d = |det M|, and
    (k, rho, s) for (M*)^{-k} (col) and M^{-k} (row): the least k whose inf
    norm rho, the column or row sums of the powers of _inverse_powers, is
    below 1, and the sum s of the first k norms, exact.  A non-expanding M
    raises NonConvergent."""
    adj, d = _inverse_parts(m)
    sums, found = [Fraction(0), Fraction(0)], [None, None]
    for k, (power, scale) in enumerate(_inverse_powers(adj, d), 1):
        for i, rows in enumerate((zip(*power), power)):
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


@lru_cache(maxsize=None)
def _probe_sequence(m: IntMatrix, v: IntVector) -> list:
    """[(n_j, d_j) for j = 0, 1, ...] with M^{-j} v = n_j / d_j, grown on
    demand by _iterate.  <(M*)^{-j} delta, v> = <delta, M^{-j} v>, so one
    sequence serves every pair ever certified against (M, v), and the
    chaos game's taps too."""
    return [(v.entries, 1)]


def _iterate(m: IntMatrix, v: IntVector, j: int) -> tuple:
    """(n_j, d_j) of _probe_sequence, a new level adj times the last in lowest terms."""
    seq = _probe_sequence(m, v)
    while j >= len(seq):
        adj, _, d, _, _ = _contraction_data(m)
        n, den = seq[-1]
        den, (n,) = _lowest_terms(den * d, [[sum(map(mul, row, n)) for row in adj.rows]])
        seq.append((tuple(n), den))
    return seq[j]


def _check_tail_eps(tail_eps):
    # no tail falls below a bound <= 0 or NaN, and an infinite one bounds nothing
    if not 0 < tail_eps < math.inf:
        raise ValueError(f"tail_eps must be finite and positive, got {tail_eps!r}")


@lru_cache(maxsize=None)
def _tail_coefficient(m: IntMatrix, v: IntVector, q: int) -> Fraction:
    """c with |tail after factor j| <= pi c ||(M*)^{-j} xi||_inf: the
    geometric bound s / (1 - rho) on the later power norms times |v|_1 (q - 1)."""
    _, _, _, (_, rho, norm_sum), _ = _contraction_data(m)
    return norm_sum / (1 - rho) * sum(map(abs, v.entries)) * (q - 1)


def _log(x: Fraction) -> float:
    return math.log(x.numerator) - math.log(x.denominator)


@lru_cache(maxsize=None)
def _power_norms(m: IntMatrix):
    """([], more): more yields ||P^i||_inf for i = 0, 1, ... in floats,
    where P = (M*)^{-k} for the first contracting power k of
    _contraction_data has each entry of M^{-k} of _inverse_powers rounded
    once; the list keeps what _factor_bound has drawn, so each matrix pays once."""
    def more():
        adj, _, d, (k, _, _), _ = _contraction_data(m)
        rows, scale = next(itertools.islice(_inverse_powers(adj, d), k - 1, None))
        cols = [[x / scale for x in row] for row in rows]  # the columns of P
        power = [[float(i == j) for j in range(m.n)] for i in range(m.n)]
        while True:
            yield max(sum(map(abs, row)) for row in power)
            power = [[sum(map(mul, row, col)) for col in cols] for row in power]

    return [], more()


def _factor_bound(inst, radius: Fraction, tail_eps: float) -> int:
    """The factors mu_hat takes, at most, at a frequency of sup norm at
    most radius, up to float rounding.  With (k, rho, s) of (M*)^{-1} and
    P = (M*)^{-k}, ||(M*)^{-j}||_inf <= max(1, s) ||P^i||_inf for j >= i k,
    so the tail bound pi c ||(M*)^{-j} xi|| is below tail_eps from the
    first i with max(1, s) ||P^i|| radius < tail_eps / (pi c).  The norms
    ||P^i|| <= rho^i come from floats, in which the products only shrink;
    past _MU_HAT_FACTOR_CAP factors the bound stops at the cap plus one."""
    if radius == 0:
        return 0
    _, _, _, (k, _, norm_sum), _ = _contraction_data(inst.m)
    log_target = (math.log(tail_eps / math.pi) - _log(_tail_coefficient(inst.m, inst.v, inst.q))
                  - _log(max(Fraction(1), norm_sum)) - _log(radius))
    norms, more = _power_norms(inst.m)
    for i in itertools.count():
        if i == len(norms):
            norms.append(next(more))
        if norms[i] == 0 or math.log(norms[i]) < log_target:
            return max(1, i * k)
        if i * k > _MU_HAT_FACTOR_CAP:
            return _MU_HAT_FACTOR_CAP + 1


def _error_bound(tail: float, factors: int, q: int) -> float:
    """|mu_hat - value| for a product of ``factors`` float masks with the
    float tail bound ``tail``; u = 2^-53, sin, cos and exp within 1 ulp.
    A mask (1/q) sum_k e^{2 pi i k tau}, |tau| <= 1/2, has slope at most
    pi (q - 1).  Its angle pi (q - 1) tf takes 4 roundings, 2 pi (q - 1) u,
    and exp 3u; in sin(pi q tf) / (q sin(pi tf)) the first argument's 4
    roundings give 2 pi u, as q |sin(pi tau)| >= 2 q |tau|, the sines 7u,
    the other operations 3u, and the product sqrt(5) u: a factor is off by
    under (2 pi q + 16) u, and the product, |mask| <= 1, by under factors
    (8 q + 16) u, the slack covering second-order terms.  Raising the tail
    by 8u covers its 3 roundings and, as x e^x >= expm1(x), the rest."""
    return math.expm1(tail * (1 + 8 * _ULP)) + factors * (8 * q + 16) * _ULP


def _transform_many(inst, numerators, den: int, tail_eps: float) -> list:
    """(value, error, factors) of mu_hat at each point a / den, in order.

    The points share one denominator, so they step through (adj^T)^j in
    lockstep over den d^j, in lowest terms past 53 bits (_lowest_terms):
    the zero test, the mask phase and the tail bound read only the rational
    values t / den and max|a| / den, and int / int rounds each once, as the
    float of the reduced Fraction would.  A point leaves at its first exact
    mask zero, with value 0, or once its tail bound is below tail_eps; the
    zero point takes no factor.  Each product is multiplied in factor
    order.  Fewer live points than twice the most nonzero entries of a row
    of adj^T step row-major, a dot product per point (mu_hat's one point,
    or a few against a dense adj^T); more step column-major, where a pass
    per entry over all points costs less."""
    out = [(complex(1.0), 0.0, 0)] * len(numerators)
    live = [(i, a) for i, a in enumerate(numerators) if any(a)]
    if live:
        rows = _contraction_data(inst.m)[1].rows
        few = len(live) < 2 * max(len(row) - row.count(0) for row in rows)
        (_rows_lockstep if few else _columns_lockstep)(inst, live, den, tail_eps, out)
    return out


def _rows_lockstep(inst, live, den: int, tail_eps: float, out: list):
    """_transform_many on the points (i, a), each a list of coordinates."""
    _, adj_t, d, _, _ = _contraction_data(inst.m)
    coeff = _tail_coefficient(inst.m, inst.v, inst.q)
    c_num, c_den, q = coeff.numerator, coeff.denominator, inst.q
    v, rows = inst.v.entries, adj_t.rows
    live = [(i, a, complex(1.0)) for i, a in live]
    j = 0
    while live:
        if j > _MU_HAT_FACTOR_CAP:
            raise InternalError("transform truncation failed to converge")
        j += 1
        den, points = _lowest_terms(den * d, [[sum(map(mul, row, a)) for row in rows] for _, a, _ in live])
        scale = c_den * den
        stepped = []
        phases = [sum(map(mul, a, v)) % den for a in points]
        masks = _masks(q, phases, den)
        for (i, _, product), a, t in zip(live, points, phases):
            value = masks[t]
            if value is None:
                out[i] = (complex(0.0), 0.0, j)
                continue
            product *= value
            tail = math.pi * (c_num * max(map(abs, a)) / scale)
            if tail < tail_eps:
                out[i] = (product, _error_bound(tail, j, q), j)
            else:
                stepped.append((i, a, product))
        live = stepped


def _columns_lockstep(inst, live, den: int, tail_eps: float, out: list):
    """_transform_many on the points (i, a) held column-major, one list per
    coordinate: a step is one comprehension per coordinate (_linear_map)
    and a few over all points, each distinct phase takes one mask and zero
    test, and the points that leave are dropped in one pass.  When v is a
    unit vector e_k, the phase is coordinate k itself.  With h a double,
    pi h >= tail_eps, a sup numerator s with c_num s / (c_den den) >= h has,
    rounding being monotone, a float tail of at least tail_eps: only points
    below that integer floor, or at 2^1000 and past, where the float may
    overflow, compute it, and a level with neither and no mask zero keeps
    every point as it is."""
    _, adj_t, d, _, _ = _contraction_data(inst.m)
    coeff = _tail_coefficient(inst.m, inst.v, inst.q)
    c_num, c_den, q = coeff.numerator, coeff.denominator, inst.q
    step, phase = _linear_map(adj_t.rows), _linear_map((inst.v.entries,))
    h = tail_eps / math.pi
    while math.pi * h < tail_eps:
        h = math.nextafter(h, math.inf)
    h_num, h_den = h.as_integer_ratio()
    index = [i for i, _ in live]
    cols = [list(col) for col in zip(*(a for _, a in live))]
    products = [complex(1.0)] * len(index)
    j = 0
    while index:
        if j > _MU_HAT_FACTOR_CAP:
            raise InternalError("transform truncation failed to converge")
        j += 1
        den, cols = _lowest_terms(den * d, step(cols))
        phases = [t % den for t in phase(cols)[0]]
        masks = _masks(q, phases, den)
        # a point at an exact zero leaves with value 0, whatever its product
        zeros = {t for t, value in masks.items() if value is None} if None in masks.values() else ()
        masks.update(dict.fromkeys(zeros, complex(0.0)))
        products = [product * masks[t] for product, t in zip(products, phases)]
        sup = list(map(max, *(map(abs, col) for col in cols)) if len(cols) > 1 else map(abs, cols[0]))
        scale = c_den * den
        # c_num s / scale is at least h from s = floor on, and below 2^1000 up to top
        floor = -(-h_num * scale // (c_num * h_den))
        top = 1 << max(0, scale.bit_length() + 999 - c_num.bit_length())
        if not zeros and floor <= min(sup) and max(sup) < top:
            continue
        tails = [math.inf if floor <= s < top else math.pi * (c_num * s / scale) for s in sup]
        keep = [tail >= tail_eps and t not in zeros for t, tail in zip(phases, tails)]
        if all(keep):
            continue
        for i, t, product, tail, kept in zip(index, phases, products, tails, keep):
            if not kept:
                out[i] = (complex(0.0), 0.0, j) if t in zeros else (product, _error_bound(tail, j, q), j)
        index, products = list(compress(index, keep)), list(compress(products, keep))
        cols = [list(compress(col, keep)) for col in cols]


def mu_hat(inst, xi, tail_eps: float = 1e-9) -> MuHatValue:
    """Fourier transform of the invariant measure, numerically.

    Multiplies mask factors at (M*)^{-j} xi until the remaining tail is
    provably below tail_eps, using |mask(eta) - 1| <= pi (q-1) |<v, eta>|
    and geometric decay of the exact power norms.  If any factor is an
    exact rational zero the product short-circuits to exactly 0.  The
    error field bounds |true - value|, float rounding included.  The iterate
    (M*)^{-j} xi is kept exactly as (adj^T)^j a over L d^j, in lowest terms
    past 53 bits, by the kernel that evidence.completeness_defect runs on
    many points at once.
    Raises ValueError unless tail_eps is finite and positive.
    """
    _check_tail_eps(tail_eps)
    xi = _as_rat_vector(xi)
    if len(xi) != len(inst.v):
        raise ValueError("frequency dimension does not match the instance")
    a, den = _over_common_denominator(xi)
    return MuHatValue(*_transform_many(inst, [a], den, tail_eps)[0])


def _check_j_max(inst, j_max: int | None, norm: int, den: int):
    """Raise TooLarge, before any probe is built, if a search to an explicit
    j_max over points a / den, |a|_1 <= norm, builds n_j (kept by
    _probe_sequence, n entries of at most about j log2(d) bits each: in
    lowest terms they may take fewer) worth over 2^28 bits, n J^2 log2(d)
    / 2 up to level J, an upper bound.  It builds them up to min(j_max, J),
    J = max(1, k m) for the least m with q max(norm, 1) C^2 rho^m |v|_inf <
    den, (k, rho, s) the row data of _contraction_data and C = max(1, s):
    as |M^{-j} v|_inf <= C rho^floor(j / k) |v|_inf, the decay bound of
    _vanishing_factors has dropped every point by level J.  One integer
    test at m = (the deepest level within the cap) // k decides; the level
    in the message is a float estimate."""
    if j_max is None:
        return
    _, _, d, _, (k, rho, s) = _contraction_data(inst.m)
    n, width = inst.m.n, d.bit_length()
    if n * j_max * j_max * width // 2 <= _PROBE_BITS_CAP:
        return
    deepest = math.isqrt((2 * _PROBE_BITS_CAP + 1) // (n * width))
    weight = inst.q * max(norm, 1) * max(Fraction(1), s) ** 2 * max(map(abs, inst.v.entries))
    m = deepest // k
    if deepest and weight.numerator * rho.numerator ** m < den * weight.denominator * rho.denominator ** m:
        return
    reach = min(j_max, max(deepest + 1, k * math.ceil((_log(weight) - math.log(den)) / -_log(rho))))
    raise TooLarge(f"certificates up to j_max = {j_max} need about {n * reach * reach * width // 2} bits "
                   f"of probe vectors, over the cap of {_PROBE_BITS_CAP}")


def _vanishing_factors(inst, points, den: int, j_max: int | None) -> list:
    """For each point a / den, (j, r, modulus) for the first j <= j_max whose
    mask vanishes at (M*)^{-j} (a / den), with phase r / modulus = <a, n_j> /
    (den d_j) mod 1 over the n_j / d_j of _iterate, or None.  The points
    step through j = 1, 2, ... in lockstep.  The default j_max, 3n +
    bitlen(max reduced den * max reduced num) of a / den, exceeds 3n, so
    it is computed only if j < 3n fail.

    Both depths are upper limits.  A mask vanishes only at a phase t with
    q t an integer and t not, so |t| >= 1 / q.  With (k, rho, s) the row
    data of _contraction_data, C = max(1, s) >= ||M^{-i}||_inf for all i, so
    |<a / den, M^{-j'} v>| <= |a|_1 C |n_j|_inf / (den d_j) for all j' >= j,
    and a point leaves with None at the first j where the bound is below
    1 / q even with max(|a|_1, 1) for |a|_1: q |a|_1 C |n_j|_inf < den d_j.
    An explicit j_max is priced by _check_j_max on the largest |a|_1 of
    the points, before any probe is built."""
    if j_max is not None and points:
        _check_j_max(inst, j_max, max(sum(map(abs, a)) for a in points), den)
    q, least = inst.q, 3 * inst.m.n
    c = max(Fraction(1), _contraction_data(inst.m)[4][2])
    qc = q * c.numerator
    ends = [least if j_max is None else j_max] * len(points)
    out, live, j = [None] * len(points), [i for i, end in enumerate(ends) if end > 0], 0
    norms = None
    while live:
        j += 1
        n_j, d_j = _iterate(inst.m, inst.v, j)
        modulus = den * d_j
        # the least |a|_1 the bound keeps; the sort waits until it can drop
        # a point with |a|_1 >= 1, as every nonzero point has
        lim = -(-modulus * c.denominator // (qc * max(map(abs, n_j))))
        if norms is None and lim > 1:
            norms = {i: sum(map(abs, points[i])) for i in live}
            live.sort(key=norms.__getitem__, reverse=True)
        # live runs largest |a|_1 first, so points leave from its end
        while norms is not None and live and norms[live[-1]] < lim:
            live.pop()
        if j == least and j_max is None:
            for i in live:
                ends[i] = least + (max(den // gcd(x, den) for x in points[i])
                                   * max(abs(x) // gcd(x, den) for x in points[i])).bit_length()
        stepped = []
        for i in live:
            r = sum(map(mul, points[i], n_j)) % modulus
            if r and q * r % modulus == 0:
                out[i] = (j, r, modulus)
            elif ends[i] > j:
                stepped.append(i)
        live = stepped
    return out


def certify_orthogonal(inst, lambda1, lambda2, j_max: int | None = None):
    """Search for an exactly vanishing factor separating two frequencies.

    Returns an OrthogonalityCertificate for the first j <= j_max with
    mask((M*)^{-j}(lambda1 - lambda2)) = 0, or None when the search is
    exhausted.  j_max, or the default depth of _vanishing_factors, is an
    upper limit: the search also ends where a decay bound shows that no
    later factor can vanish.  None means NOT CERTIFIED; it never means "not
    orthogonal".  Raises TooLarge when an explicit j_max is over its budget
    (_check_j_max).
    """
    lambda1 = _as_rat_vector(lambda1)
    lambda2 = _as_rat_vector(lambda2)
    delta = lambda1 - lambda2
    if len(delta) != len(inst.v):
        raise ValueError("frequency dimension does not match the instance")
    if delta.is_zero():
        raise ValueError("frequencies must differ")
    a, den = _over_common_denominator(delta)
    hit = _vanishing_factors(inst, [a], den, j_max)[0]
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
    lead = inst.leading
    r, d1 = lead.r, lead.det_m1
    if gcd(inst.q, abs(d1)) == 1:
        raise GcdOne(
            f"gcd(q={inst.q}, |det m1|={abs(d1)}) = 1: no vanishing-denominator witness"
        )
    decomp, m1, v1 = lead.decomp, lead.m1, lead.v1
    # all in integers: m1^{-ell} v1 = a / den with gcd(den, a) = 1, so den
    # is the lcm of the entry denominators; each step is one solve on m1
    a, den = v1, 1
    for ell in range(1, _WITNESS_DEPTH_CAP + 1):
        a, d1_abs = _solve_parts(m1, a)
        den *= d1_abs
        g = gcd(den, *a)
        a, den = IntVector._make(tuple(x // g for x in a)), den // g
        dstar = gcd(den, inst.q)
        if dstar > 1:
            break
    else:
        raise InternalError("witness depth cap reached; should be unreachable")
    z = _solve_phase_congruence(a, den, den // dstar)
    m1_t = m1.transpose()
    if decomp is None:
        # alpha = (m1^{-T})^ell z = num / den, ell solves on m1^T
        num, den, image = z, 1, z
        for _ in range(ell):
            num, d = _solve_parts(m1_t, num)
            den *= d
    else:
        # alpha = b^T (B^{-T})^ell (z, 0) with B = b M b^{-1}: (M*)^ell alpha
        # = b^T (z, 0) is integral, and the leading block of b^{-T} alpha is
        # (m1^{-T})^ell z.  B^T = [[m1^T, 0], [c^T, m2^T]], so a step
        # y -> B^{-T} y is x1 / d1 = m1^{-T} y1, then x2 / d2 =
        # m2^{-T} (d1 y2 - c^T x1), giving (d2 x1, x2) / (d1 d2) with
        # d1 d2 = |det M|: solves on m1^T and m2^T, no n x n solve
        m2_t, c_t = decomp.m2.transpose(), decomp.c.transpose()
        image = IntVector._make(z.entries + (0,) * (n - r))
        num, den = image.entries, 1
        for _ in range(ell):
            x1, d1_abs = _solve_parts(m1_t, IntVector._make(num[:r]))
            y2 = (d1_abs * y - e for y, e in zip(num[r:], c_t * x1))
            x2, d2_abs = _solve_parts(m2_t, IntVector._make(tuple(y2)))
            num, den = x1.scaled(d2_abs).entries + x2.entries, den * d1_abs * d2_abs
        num, image = decomp.b.transpose() * IntVector._make(num), decomp.b.transpose() * image
    alpha = RatVector(Fraction(x, den) for x in num)
    phase = Fraction(num.dot(inst.v) % den, den)
    witness = Witness(alpha, ell, phase, image)
    witness.verified = verify_witness(inst, witness)
    if not witness.verified:
        raise InternalError("constructed witness failed verification")
    return witness


def verify_witness(inst, w: Witness) -> bool:
    """Exact re-check of both witness properties against the instance, on
    the integers a of alpha = a / den, den the lcm of the entries'
    denominators: the mask vanishes iff t = <v, a> mod den is nonzero with
    q t = 0 mod den, and (M*)^ell alpha is integral iff (M^T)^ell a = 0 mod
    den.  The phase and image fields are not read.

    Cost: alpha's entries are read once, then one vector power of M^T mod
    den: n^2 multiplications per set bit of ell and n^3 per squaring, so
    one matrix-vector product at ell = 1 and O(n^3 log ell) for any ell."""
    alpha, rows = w.alpha, inst.m.rows
    if len(alpha) != len(rows) or w.ell < 1:
        return False
    if not isinstance(alpha, (IntVector, RatVector)):
        raise TypeError(f"vector expected, got {type(alpha).__name__}")
    ratios = [e.as_integer_ratio() for e in alpha.entries]
    den = math.lcm(*(b for _, b in ratios))
    a = [p * (den // b) for p, b in ratios]
    t = sum(map(mul, a, inst.v.entries)) % den
    if t == 0 or inst.q * t % den:
        return False
    return not any(_apply_power(tuple(zip(*rows)), w.ell, a, den))


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
]

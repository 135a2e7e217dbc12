"""The integer evidence kernel against the Fraction code it replaced.

mu_hat, certify_orthogonal and max_orthogonal_clique step integer
numerators over powers of |det M|; chaos_game convolves the digit stream
with exact taps.  The oracles below are the earlier implementations,
which stepped Fraction vectors and iterated the float inverse.  Every
exact output must match them bit for bit, and the samples to 1e-12.
"""

import cmath
import itertools
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affinespectra import evidence, fourier, hadamard, linalg
from affinespectra.classify import ProblemInstance
from affinespectra.conjugation import companion_conjugate, companion_matrix
from affinespectra.errors import NonConvergent, TooLarge
from affinespectra.evidence import attractor_radius, chaos_game, max_orthogonal_clique
from affinespectra.fourier import certify_orthogonal, mu_hat
from affinespectra.hadamard import construct_dual_digits, verify_hadamard
from affinespectra.linalg import (
    IntMatrix,
    IntPolynomial,
    IntVector,
    RatMatrix,
    RatVector,
    inverse,
)

from oracles import inverse_unimodular

M_CUBE = IntMatrix([[2, 6, 4], [-1, 2, 2], [-1, -1, -4]])
# a unimodular conjugate of the companion of x^4 + 6, with q = 6
M_X4 = IntMatrix([[-6, 0, 0, -6], [7, 0, 0, 6], [-3, 1, -2, -4], [8, 0, 1, 8]])
V_X4 = IntVector([1, -1, 0, -1])
V_CUBE = IntVector([0, 0, 1])
M_DIAG = IntMatrix([[1, -3, 3], [3, -5, 3], [6, -6, 4]])
V_DIAG = IntVector([1, 1, 2])

# (matrix, v, q); well conditioned, so the float iteration is a fair oracle
BASES = [
    (IntMatrix([[2]]), IntVector([1]), 2),
    (IntMatrix([[4]]), IntVector([1]), 2),
    (IntMatrix([[-3]]), IntVector([1]), 3),
    (IntMatrix([[0, 1], [6, 0]]), IntVector([0, 1]), 6),
    (M_CUBE, V_CUBE, 6),
    (M_CUBE, V_CUBE, 5),
    (M_DIAG, V_DIAG, 4),
]
BASES_4D = [
    (companion_matrix(IntPolynomial([6, 0, 0, 0, 1])), IntVector([0, 0, 0, 1]), 6),
    (M_X4, V_X4, 6),
    (companion_matrix(IntPolynomial([10, 0, 0, 0, 1])), IntVector([0, 0, 0, 1]), 5),
]

# seed 42 of the dim-sweep benchmark, "n=4 r=2 general p(0)=-10 q=4
# bits=24": expanding, but the first contracting power of M^-1 is the 46th
M_SLOW = IntMatrix([
    [-54801745179329, -25959521525985, 33007899165661, 42917986735561],
    [-218757646639458, -103625236273470, 131760955808351, 171320051451518],
    [-400370648072440, -189655098604398, 241149144240849, 313550273815120],
    [105627481940997, 50035612082599, -63620989638643, -82722162788045],
])
V_SLOW = IntVector([-1270681, -5072363, -9283435, 2449207])


# ---------------------------------------------------------------------------
# oracles: the Fraction and float implementations the kernel replaced
# ---------------------------------------------------------------------------


def _oracle_mask(q, t):
    if t.denominator == 1:
        return complex(1.0)
    if (q * t).denominator == 1:
        return complex(0.0)
    num, den = t.numerator % t.denominator, t.denominator
    if 2 * num > den:
        num -= den
    tf = num / den
    return (
        cmath.exp(1j * math.pi * (q - 1) * tf)
        * math.sin(math.pi * q * tf)
        / (q * math.sin(math.pi * tf))
    )


def _oracle_contraction(m):
    p = inverse(m).transpose()
    power = p
    norm_sum = Fraction(0)
    for k in range(1, 10 * m.n + 1):
        rho = max(sum(map(abs, row)) for row in power.rows)
        norm_sum += rho
        if rho < 1:
            return p, rho, norm_sum
        power = power * p
    raise NonConvergent("no contracting power up to 10 n")


def _oracle_mu_hat(inst, xi, tail_eps=1e-9):
    """(value, error, factors) as mu_hat computed them over Fractions."""
    if xi.is_zero():
        return complex(1.0), 0.0, 0
    p, rho, norm_sum = _oracle_contraction(inst.m)
    v_l1 = sum(abs(e) for e in inst.v)
    coeff = Fraction(norm_sum, 1) / (1 - rho) * v_l1 * (inst.q - 1)
    cur, product, j = xi, complex(1.0), 0
    while True:
        cur = p * cur
        j += 1
        tm = cur.dot(inst.v) % 1
        if tm != 0 and (inst.q * tm).denominator == 1:
            return complex(0.0), 0.0, j
        product *= _oracle_mask(inst.q, tm)
        tail = math.pi * float(coeff * max(abs(e) for e in cur))
        if tail < tail_eps:
            return product, math.expm1(tail * (1 + 2**-50)) + j * (8 * inst.q + 16) * 2**-53, j


def _oracle_probes(inst, count):
    m_inv = inverse(inst.m)
    probes = [inst.v.to_rat()]
    for _ in range(count):
        probes.append(m_inv * probes[-1])
    return probes


def _oracle_certify(inst, lambda1, lambda2, j_max=None, probes=None):
    """(j, phase) of the first vanishing factor over Fractions, or None."""
    delta = lambda1 - lambda2
    if j_max is None:
        max_den = max(e.denominator for e in delta)
        max_num = max(abs(e.numerator) for e in delta)
        j_max = 3 * inst.m.n + (max_den * max_num).bit_length()
    probes = probes or _oracle_probes(inst, j_max)
    for j in range(1, j_max + 1):
        t = delta.dot(probes[j]) % 1
        if t != 0 and (inst.q * t).denominator == 1:
            return j, t
    return None


def _oracle_clique(inst, ell, box_radius):
    """(size, witness entries, certified) of the Fraction clique search."""
    n = inst.m.n
    span = range(-box_radius * ell, box_radius * ell + 1)
    zero = RatVector([0] * n)
    points = [RatVector([Fraction(g, ell) for g in c]) for c in itertools.product(span, repeat=n)]
    probes = _oracle_probes(inst, 3 * n + 64)
    cache = {}

    def connected(a, b):
        key = tuple(int((x - y) * ell) for x, y in zip(a, b))
        if next((c for c in key if c != 0), 0) < 0:
            key = tuple(-c for c in key)
        if key not in cache:
            cache[key] = _oracle_certify(inst, a, b, probes=probes) is not None
        return cache[key]

    nbrs = sorted((p for p in points if not p.is_zero() and connected(zero, p)),
                  key=lambda p: p.entries)
    adj_bits = [0] * len(nbrs)
    for i, j in itertools.combinations(range(len(nbrs)), 2):
        if connected(nbrs[i], nbrs[j]):
            adj_bits[i] |= 1 << j
            adj_bits[j] |= 1 << i
    witness = [zero] + [nbrs[i] for i in sorted(evidence._max_clique(len(nbrs), adj_bits))]
    certified = all(_oracle_certify(inst, a, b, probes=probes) is not None
                    for a, b in itertools.combinations(witness, 2))
    return len(witness), [p.entries for p in witness], certified


def _pairwise_clique(inst, ell, box_radius, j_max):
    """(size, witness entries, certified) of the tuple-keyed clique search
    that the integer difference keys replaced: coordinate tuples normalized
    to a positive first nonzero entry, and every witness pair re-checked."""
    n = inst.m.n
    span = range(-box_radius * ell, box_radius * ell + 1)
    zero = (0,) * n
    cache = {}

    def certified_pair(a, b):
        delta = [x - y for x, y in zip(a, b)]
        return fourier._vanishing_factors(inst, [delta], ell, j_max)[0] is not None

    def connected(a, b):
        key = tuple(x - y for x, y in zip(a, b))
        if next(c for c in key if c) < 0:
            key = tuple(-c for c in key)
        if key not in cache:
            cache[key] = certified_pair(key, zero)
        return cache[key]

    nbrs = [p for p in itertools.product(span, repeat=n) if any(p) and connected(p, zero)]
    adj_bits = [0] * len(nbrs)
    for i, j in itertools.combinations(range(len(nbrs)), 2):
        if connected(nbrs[i], nbrs[j]):
            adj_bits[i] |= 1 << j
            adj_bits[j] |= 1 << i
    witness = [zero] + [nbrs[i] for i in sorted(evidence._max_clique(len(nbrs), adj_bits))]
    certified = all(certified_pair(a, b) for a, b in itertools.combinations(witness, 2))
    return len(witness), [tuple(Fraction(g, ell) for g in p) for p in witness], certified


def _oracle_vanishing_factor(inst, a, den, j_max):
    """fourier._vanishing_factors at one point, as it was when it computed
    the default j_max up front, before the search."""
    if j_max is None:
        max_den = max(den // math.gcd(x, den) for x in a)
        max_num = max(abs(x) // math.gcd(x, den) for x in a)
        j_max = 3 * inst.m.n + (max_den * max_num).bit_length()
    seq = fourier._probe_sequence(inst.m, inst.v)
    q = inst.q
    for j in range(1, j_max + 1):
        if j == len(seq):
            adj, _, d, _, _ = fourier._contraction_data(inst.m)
            prev, scale = seq[-1]
            seq.append((tuple(sum(x * y for x, y in zip(row, prev)) for row in adj.rows), scale * d))
        n_j, d_j = seq[j]
        modulus = den * d_j
        r = sum(x * y for x, y in zip(a, n_j)) % modulus
        if r and q * r % modulus == 0:
            return j, r, modulus
    return None


def _oracle_max_clique(n_vertices, adj_bits):
    """evidence._max_clique as it was before the degree order: the same
    branch and bound over the caller's vertex order."""
    best_size = 0
    best_bits = 0
    for seed in range(n_vertices):
        size, bits, cand = 1, 1 << seed, adj_bits[seed]
        while cand:
            bit = cand & -cand
            size += 1
            bits |= bit
            cand &= adj_bits[bit.bit_length() - 1]
        if size > best_size:
            best_size, best_bits = size, bits

    def expand(rsize, rbits, cand):
        nonlocal best_size, best_bits
        if cand == 0:
            if rsize > best_size:
                best_size, best_bits = rsize, rbits
            return
        order = []
        colors = []
        uncolored = cand
        color = 0
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                bit = avail & -avail
                v = bit.bit_length() - 1
                order.append(v)
                colors.append(color)
                uncolored ^= bit
                avail &= ~adj_bits[v] & ~bit
        for idx in range(len(order) - 1, -1, -1):
            if rsize + colors[idx] <= best_size:
                return
            v = order[idx]
            bit = 1 << v
            expand(rsize + 1, rbits | bit, cand & adj_bits[v])
            cand ^= bit

    expand(0, 0, (1 << n_vertices) - 1)
    return [v for v in range(n_vertices) if best_bits >> v & 1]


def _float_chaos_game(inst, iterations, seed):
    """x <- M^{-1}(x + k v) in floats, 100 iterates burnt in."""
    rng = random.Random(seed)
    m_inv = np.array([[float(x) for x in row] for row in inverse(inst.m).rows])
    v = np.array([float(x) for x in inst.v])
    x = np.zeros(inst.m.n)
    for _ in range(100):
        x = m_inv @ (x + rng.randrange(inst.q) * v)
    points = np.empty((iterations, inst.m.n))
    for i in range(iterations):
        x = m_inv @ (x + rng.randrange(inst.q) * v)
        points[i] = x
    return points


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


@st.composite
def _instances(draw, bases=BASES):
    """A base instance conjugated by a random unimodular u: (u M u^-1, u v)."""
    m, v, q = draw(st.sampled_from(bases))
    n = m.n
    u = IntMatrix.identity(n)
    for i, j, k in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                           st.integers(-2, 2)), max_size=4)):
        if i != j:
            rows = [list(r) for r in u.rows]
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
            u = IntMatrix(rows)
    return ProblemInstance(u * m * inverse_unimodular(u), u * v, q)


def _frequencies(n):
    entry = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
    return st.lists(entry, min_size=n, max_size=n).map(RatVector)


@st.composite
def _instance_and_frequencies(draw, count):
    inst = draw(_instances())
    return inst, [draw(_frequencies(inst.m.n)) for _ in range(count)]


# ---------------------------------------------------------------------------
# bit identity
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_instance_and_frequencies(3))
def test_mu_hat_matches_fraction_oracle_bit_for_bit(case):
    inst, freqs = case
    for xi in freqs + [freqs[0] - freqs[1]]:
        res = mu_hat(inst, xi)
        assert (res.value, res.error, res.factors) == _oracle_mu_hat(inst, xi)
    res = mu_hat(inst, freqs[2], tail_eps=1e-4)
    assert (res.value, res.error, res.factors) == _oracle_mu_hat(inst, freqs[2], 1e-4)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_instance_and_frequencies(3), st.sampled_from([None, 1, 3]))
def test_certify_orthogonal_matches_fraction_oracle(case, j_max):
    inst, (a, b, c) = case
    zero = RatVector([0] * inst.m.n)
    # the integer lattice points a - c and their halves hit vanishing
    # factors often, so both outcomes are exercised
    pairs = [(a, b), (zero, a), (RatVector(round(x) for x in a), RatVector(round(x) for x in c)),
             (zero, RatVector(Fraction(round(x), 2) for x in b))]
    for l1, l2 in pairs:
        if l1 == l2:
            continue
        cert = certify_orthogonal(inst, l1, l2, j_max)
        got = None if cert is None else (cert.j, cert.phase)
        assert got == _oracle_certify(inst, l1, l2, j_max)
        if cert is not None:
            assert (cert.lambda1, cert.lambda2) == (l1, l2)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_instances(), st.integers(1, 2), st.integers(0, 4))
def test_clique_matches_fraction_oracle(inst, ell, box):
    n = inst.m.n
    box = min(box, {1: 4, 2: 2}.get(n, 1))
    if (2 * box * ell + 1) ** n > 150:
        ell = 1
    report = max_orthogonal_clique(inst, ell, box)
    got = (report.max_clique_size, [p.entries for p in report.witness_set], report.certified)
    assert got == _oracle_clique(inst, ell, box)
    assert all(type(p) is RatVector for p in report.witness_set)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_instances(), st.integers(1, 3), st.integers(0, 5), st.sampled_from([None, 1, 3]))
def test_clique_matches_pairwise_search(inst, ell, box, j_max):
    n = inst.m.n
    box = min(box, {1: 5, 2: 2}.get(n, 1))
    while (2 * box * ell + 1) ** n > 200:
        ell -= 1
    report = max_orthogonal_clique(inst, ell, box, j_max)
    got = (report.max_clique_size, [p.entries for p in report.witness_set], report.certified)
    assert got == _pairwise_clique(inst, ell, box, j_max)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(1, 3))
def test_key_differences_decode_to_coordinate_differences(n, box, ell):
    while (2 * box * ell + 1) ** n > 125:
        box -= 1
    half = 2 * box * ell
    points = list(itertools.product(range(-box * ell, box * ell + 1), repeat=n))
    keys = [evidence._lattice_key(p, half) for p in points]
    decode = evidence._lattice_decoder(n, half)
    assert decode(keys) == points
    differences = [key_a - key_b for key_a in keys for key_b in keys]
    assert decode(differences) == [tuple(x - y for x, y in zip(a, b)) for a in points for b in points]
    assert decode([]) == []


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.integers(0, 6), st.integers(1, 4))
def test_box_keys_are_the_lattice_keys_in_product_order(n, box, ell):
    while (2 * box * ell + 1) ** n > evidence._CANDIDATE_CAP:
        box -= 1
    half, radius = 2 * box * ell, box * ell
    span = range(-radius, radius + 1)
    points = list(itertools.product(span, repeat=n))
    keys = evidence._box_keys(n, radius, 2 * half + 1)
    assert keys == [evidence._lattice_key(p, half) for p in points]
    # the batch decoder returns each key's coordinates
    assert evidence._lattice_decoder(n, half)(keys) == points
    # 0 is the middle point, and the points after it hold one of each sign class
    middle = len(keys) // 2
    assert keys[middle] == 0
    assert sorted(map(abs, keys[middle + 1:])) == sorted(k for k in keys if k > 0)


def test_clique_certifies_each_difference_once(monkeypatch):
    # x^4 + 6 at q = 6, box 1: an 81-point witness, 3240 pairs of it, but
    # far fewer distinct differences; the points passed to the certifying
    # kernel are counted, whatever the number of calls
    inst = ProblemInstance(companion_matrix(IntPolynomial([6, 0, 0, 0, 1])), IntVector([0, 0, 0, 1]), 6)
    points = []
    vanishing_factors = fourier._vanishing_factors

    def spy(inst, batch, den, j_max):
        points.extend(batch)
        return vanishing_factors(inst, batch, den, j_max)

    monkeypatch.setattr(evidence, "_vanishing_factors", spy)
    report = max_orthogonal_clique(inst, 1, 1)
    assert (report.max_clique_size, report.certified) == (81, True)
    assert len(points) <= 700


def _decay_bound_level(inst, a, den, last):
    """The first j in 1..last with q max(|a|_1, 1) C |M^{-j} v|_inf < den,
    in Fractions, or None: C = max(1, s), s the sum of the row norms
    |M^{-i}|_inf for i = 1, 2, ... up to the first below 1.  From that j on
    the phase <a / den, M^{-j'} v> stays below 1 / q, so no mask vanishes."""
    m_inv = inverse(inst.m)
    power, s = m_inv, Fraction(0)
    while True:
        rho = max(sum(map(abs, row)) for row in power.rows)
        s += rho
        if rho < 1:
            break
        power = power * m_inv
    weight = inst.q * max(sum(map(abs, a)), 1) * max(Fraction(1), s)
    probe = RatVector(inst.v)
    for j in range(1, last + 1):
        probe = m_inv * probe
        if weight * max(map(abs, probe)) < den:
            return j
    return None


def _default_depth(a, den, n):
    max_den = max(den // math.gcd(x, den) for x in a)
    max_num = max(abs(x) // math.gcd(x, den) for x in a)
    return 3 * n + (max_den * max_num).bit_length()


def _stop_level(inst, a, den, j_max):
    """The last j at which fourier._vanishing_factors looks at a / den: the
    j of its certificate, else the first j where the decay bound holds or
    the search depth, whichever comes first."""
    hit = _oracle_vanishing_factor(inst, a, den, j_max)
    if hit is not None:
        return hit[0]
    end = _default_depth(a, den, inst.m.n) if j_max is None else j_max
    bound = _decay_bound_level(inst, a, den, end)
    return end if bound is None else bound


@pytest.mark.parametrize("rows, v, q, lam, j_max, limit", [
    ([[4]], [1], 2, [Fraction(3, 4)], None, "bound"),
    ([[4]], [1], 2, [1], None, "bound"),
    ([[2, 1], [0, 3]], [1, 1], 3, [Fraction(5, 6), Fraction(-7, 4)], None, "bound"),
    ([[2, 1], [0, 3]], [1, 1], 3, [Fraction(5, 6), Fraction(-7, 4)], 1, "window"),
    # contracting by sqrt(2) a step, and no phase over a power of 2 is a
    # nonzero multiple of 1/3: the default window ends first
    ([[1, 1], [-1, 1]], [1, 0], 3, [40, 40], None, "window"),
], ids=["1-D 3/4", "1-D 1", "2-D", "2-D jmax 1", "2-D slow"])
def test_search_stops_where_the_decay_bound_holds(rows, v, q, lam, j_max, limit):
    # an uncertifiable pair stops at the first j where the decay bound
    # proves that no later factor vanishes, and never past the search depth:
    # 3 n plus the bit length of (largest reduced denominator) * (largest
    # reduced numerator), or the explicit j_max
    inst = ProblemInstance(IntMatrix(rows), IntVector(v), q)
    zero, lam = RatVector([0] * len(v)), RatVector(lam)
    a, den = linalg._over_common_denominator(zero - lam)
    fourier._probe_sequence.cache_clear()
    assert certify_orthogonal(inst, zero, lam, j_max) is None
    reached = len(fourier._probe_sequence(inst.m, inst.v)) - 1
    assert _oracle_vanishing_factor(inst, a, den, j_max) is None
    assert _oracle_certify(inst, zero, lam, j_max) is None
    window = _default_depth(a, den, len(v)) if j_max is None else j_max
    bound = _decay_bound_level(inst, a, den, window)
    assert reached == (window if bound is None else bound) <= window
    assert (bound is None) == (limit == "window")


# entries x b^k, b | 6, so that some differences first certify past j = 3n
_DEEP_ENTRIES = st.builds(lambda x, b, k: x * b ** k, st.integers(-40, 40),
                          st.sampled_from([1, 2, 3, 6]), st.integers(0, 20))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_instances(BASES + BASES_4D), st.lists(_DEEP_ENTRIES, min_size=4, max_size=4),
       st.integers(1, 12), st.sampled_from(["default", "explicit", "below"]), st.integers(1, 40))
@example(ProblemInstance(IntMatrix([[2]]), IntVector([1]), 2), [2 ** 9] * 4, 1, "default", 1)
@example(ProblemInstance(IntMatrix([[2]]), IntVector([1]), 2), [0] * 4, 1, "default", 1)
def test_lazy_default_depth_matches_eager_oracle(inst, entries, den, mode, depth):
    n = inst.m.n
    a = entries[:n]
    j_max = {"default": None, "explicit": depth, "below": depth % (3 * n + 1)}[mode]
    assert fourier._vanishing_factors(inst, [a], den, j_max) == [_oracle_vanishing_factor(inst, a, den, j_max)]


_POINT_ROWS = st.lists(st.lists(_DEEP_ENTRIES, min_size=4, max_size=4), min_size=1, max_size=6)
# over den = 3 at [[2]], q = 2: 2^9 first certifies at j = 10, past 3n,
# 1 at j = 1, 1/3 never, and 0 is the zero point
_MIXED = ProblemInstance(IntMatrix([[2]]), IntVector([1]), 2), [[3 * 2 ** 9] * 4, [3] * 4, [1] * 4], 3


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_instances(BASES + BASES_4D), _POINT_ROWS, st.integers(1, 12),
       st.sampled_from(["default", "explicit", "below"]), st.integers(1, 40))
@example(*_MIXED, "default", 1)
@example(*_MIXED, "explicit", 12)
@example(*_MIXED, "below", 2)
def test_lockstep_certification_matches_one_point_oracle(inst, rows, den, mode, depth):
    n = inst.m.n
    points = [row[:n] for row in rows] + [[0] * n]
    j_max = {"default": None, "explicit": depth, "below": depth % (3 * n + 1)}[mode]
    fourier._probe_sequence.cache_clear()
    got = fourier._vanishing_factors(inst, points, den, j_max)
    reached = len(fourier._probe_sequence(inst.m, inst.v))
    fourier._probe_sequence.cache_clear()
    assert got == [_oracle_vanishing_factor(inst, a, den, j_max) for a in points]
    # the lockstep grows the shared probe sequence exactly as far as the
    # furthest point's own search goes
    assert reached == 1 + max(_stop_level(inst, a, den, j_max) for a in points)


def test_a_certificate_past_the_lazy_point_is_found():
    # [[2]], q = 2: 2^9 / 2^j is 1/2 mod 1 first at j = 10, past 3n = 3
    # and within the default depth 3 + bitlen(2^9) = 13
    inst = ProblemInstance(IntMatrix([[2]]), IntVector([1]), 2)
    assert fourier._vanishing_factors(inst, [[2 ** 9]], 1, None) == [(10, 512, 1024)]
    assert fourier._vanishing_factors(inst, [[2 ** 9]], 1, 9) == [None]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_instances(BASES + BASES_4D), st.lists(_DEEP_ENTRIES, min_size=4, max_size=4),
       st.integers(1, 12), st.integers(1, 200))
@example(ProblemInstance(IntMatrix([[2]]), IntVector([1]), 2), [1] * 4, 3, 200)
@example(ProblemInstance(M_CUBE, V_CUBE, 6), [0] * 4, 1, 5)
def test_no_factor_vanishes_past_the_decay_bound(inst, entries, den, j_max):
    n = inst.m.n
    a = entries[:n]
    # a search with no depth in its way stops where the Fraction bound
    # holds, and 64 further levels of the eager oracle find no zero
    fourier._probe_sequence.cache_clear()
    hit = fourier._vanishing_factors(inst, [a], den, 10 ** 6)[0]
    stop = len(fourier._probe_sequence(inst.m, inst.v)) - 1
    if hit is None:
        assert stop == _decay_bound_level(inst, a, den, stop)
        assert _oracle_vanishing_factor(inst, a, den, stop + 64) is None
    else:
        assert (hit, stop) == (_oracle_vanishing_factor(inst, a, den, stop + 64), hit[0])
    # an explicit depth is an upper limit, the result the oracle's
    assert fourier._vanishing_factors(inst, [a], den, j_max) == [_oracle_vanishing_factor(inst, a, den, j_max)]


def test_deep_jmax_stops_at_the_decay_bound():
    # every difference of the cube fixture's box 3 certifies or meets the
    # decay bound within 7 factors; a search to j_max builds 5000 probes
    inst = ProblemInstance(M_CUBE, V_CUBE, 6)
    fourier._probe_sequence.cache_clear()
    report = max_orthogonal_clique(inst, 1, 3, 5000)
    assert (report.max_clique_size, report.certified) == (36, True)
    assert len(fourier._probe_sequence(inst.m, inst.v)) <= 8


def _priced_level(inst, norm, den, last):
    """min(J, last), J = max(1, k m) for the least m with q max(norm, 1) C^2
    rho^m |v|_inf < den, in Fractions from the row norms of M^{-1}, M^{-2},
    ...: k the first power whose norm rho is below 1, C = max(1, s), s the
    sum of the first k norms.  As |M^{-j} v|_inf <= C rho^floor(j / k)
    |v|_inf, the decay bound holds at J for every a / den with |a|_1 <= norm."""
    m_inv = inverse(inst.m)
    power, s, k = m_inv, Fraction(0), 1
    while True:
        rho = max(sum(map(abs, row)) for row in power.rows)
        s += rho
        if rho < 1:
            break
        power, k = power * m_inv, k + 1
    weight = inst.q * max(norm, 1) * max(Fraction(1), s) ** 2 * max(map(abs, inst.v.entries))
    lhs, rhs, m = weight.numerator, den * weight.denominator, 0
    while lhs >= rhs and k * m < last:
        lhs, rhs, m = lhs * rho.numerator, rhs * rho.denominator, m + 1
    return min(max(1, k * m), last)


def _reduced(hit):
    """(j, r / modulus) of a hit of _vanishing_factors, or None."""
    return None if hit is None else (hit[0], Fraction(*hit[1:]))


def _probe_bits(inst, level):
    return inst.m.n * level * level * fourier._contraction_data(inst.m)[2].bit_length() // 2


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_instances(BASES + BASES_4D), _POINT_ROWS, st.integers(1, 12),
       st.sampled_from([1, 40, 9000, 10 ** 6]))
@example(ProblemInstance(IntMatrix([[2]]), IntVector([1]), 2), [[2 ** 20000] * 4], 1, 10 ** 6)
@example(ProblemInstance(IntMatrix([[2]]), IntVector([1]), 2), [[2 ** 20000] * 4], 1, 16384)
@example(ProblemInstance(IntMatrix([[2, 10 ** 60], [0, 2]]), IntVector([0, 1]), 2), [[1, 1]], 2, 9000)
@example(ProblemInstance(IntMatrix([[2, 10 ** 60], [0, 2]]), IntVector([0, 1]), 2), [[1, 1]], 2, 9460)
def test_probes_are_priced_to_the_level_the_search_can_reach(inst, rows, den, j_max):
    n = inst.m.n
    points = [row[:n] for row in rows] + [[0] * n]
    norm = max(sum(map(abs, a)) for a in points)
    level = _priced_level(inst, norm, den, j_max)
    # an explicit j_max is refused iff the probes up to min(j_max, J) pass
    # the cap; the old price, up to j_max itself, refused any j_max > 16384
    # at n = 1, d = 2, and j_max = 9000 on the cube fixture
    if _probe_bits(inst, level) > fourier._PROBE_BITS_CAP:
        with pytest.raises(TooLarge, match=f"certificates up to j_max = {j_max} need about"):
            fourier._check_j_max(inst, j_max, norm, den)
        return
    fourier._check_j_max(inst, j_max, norm, den)
    if level > 200:
        return  # sound by the bound; too deep to search in a test
    # no search passes J, and no certificate lies past it
    fourier._probe_sequence.cache_clear()
    got = fourier._vanishing_factors(inst, points, den, j_max)
    assert len(fourier._probe_sequence(inst.m, inst.v)) - 1 <= level
    fourier._probe_sequence.cache_clear()
    # past 53 bits the probes are in lowest terms, so a phase may come over a
    # smaller modulus than the oracle's: compare the rational phase
    assert [_reduced(hit) for hit in got] == [_reduced(_oracle_vanishing_factor(inst, a, den, level))
                                              for a in points]


def test_certify_orthogonal_prices_its_own_point():
    # [[2]], q = 2: 2^k / 2^j is 1/2 mod 1 first at j = k + 1, so the search
    # for 2^20000 needs 20001 probes, past the 16384 the cap allows at d = 2,
    # while 2^10 certifies at j = 11 whatever j_max allows beyond it
    inst = ProblemInstance(IntMatrix([[2]]), IntVector([1]), 2)
    with pytest.raises(TooLarge, match="certificates up to j_max = 1000000 need about"):
        certify_orthogonal(inst, [0], [2 ** 20000], 10 ** 6)
    cert = certify_orthogonal(inst, [0], [2 ** 10], 10 ** 6)
    assert (cert.j, cert.phase) == (11, Fraction(1, 2))


def test_a_clique_of_all_neighbours_of_zero_skips_the_search(monkeypatch):
    # x^4 + 6 at q = 6, box 1: 0 and its 80 neighbours are mutually
    # orthogonal, so no row is built and the branch and bound never runs
    inst = ProblemInstance(companion_matrix(IntPolynomial([6, 0, 0, 0, 1])), IntVector([0, 0, 0, 1]), 6)
    expected = _oracle_clique(inst, 1, 1)

    def refuse(n_vertices, adj_bits):
        raise AssertionError("maximum clique search on a complete graph")

    monkeypatch.setattr(evidence, "_max_clique", refuse)
    report = max_orthogonal_clique(inst, 1, 1)
    assert (report.max_clique_size, [p.entries for p in report.witness_set], report.certified) == expected
    assert expected[0] == 81
    # the cube fixture's neighbours of 0 are not a clique: the search runs
    with pytest.raises(AssertionError, match="complete graph"):
        max_orthogonal_clique(ProblemInstance(M_CUBE, V_CUBE, 6), 1, 1)


def _random_graph(n, density, seed):
    rnd = random.Random(seed)
    adj_bits = [0] * n
    for i, j in itertools.combinations(range(n), 2):
        if rnd.random() < density:
            adj_bits[i] |= 1 << j
            adj_bits[j] |= 1 << i
    return adj_bits


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 60), st.floats(0.1, 0.95), st.integers(0, 2**32))
def test_degree_ordered_search_finds_a_maximum_clique(n, density, seed):
    adj_bits = _random_graph(n, density, seed)
    clique = evidence._max_clique(n, adj_bits)
    assert clique == sorted(set(clique))
    assert all(adj_bits[u] >> v & 1 for u, v in itertools.combinations(clique, 2))
    assert len(clique) == len(_oracle_max_clique(n, adj_bits))


@pytest.mark.parametrize("n", [0, 1, 2, 7, 80])
def test_complete_graph_returns_every_vertex(n):
    adj_bits = [((1 << n) - 1) ^ (1 << v) for v in range(n)]
    assert evidence._max_clique(n, adj_bits) == list(range(n)) == _oracle_max_clique(n, adj_bits)


@pytest.mark.parametrize("m, v, lattice_den, box, size", [
    (M_CUBE, V_CUBE, 1, 4, 45),
    (M_X4, V_X4, 2, 1, 95),
    (companion_matrix(IntPolynomial([6, 0, 0, 1])), IntVector([0, 0, 1]), 1, 8, 4913),
])
def test_dense_boxes_finish_in_seconds(m, v, lattice_den, box, size):
    # a branch and bound that colours the vertices in lattice order takes
    # about 29 s and 399 s on the first two boxes; on the all-orthogonal
    # third, 12 million pairs, a dict lookup per pair took 5 to 7 s
    inst = ProblemInstance(m, v, 6)
    start = time.perf_counter()
    report = max_orthogonal_clique(inst, lattice_den, box)
    assert time.perf_counter() - start < 10
    assert (report.max_clique_size, report.certified) == (size, True)


def test_clique_budget_counts_colorings_not_nodes():
    # a sparse search: 85,301 branch nodes, past the 16384 that a budget in
    # nodes allowed (it refused after finding the clique of 15), but about
    # 25 candidates at each, 2,119,539 vertex colorings in all
    m = IntMatrix([[-38, 81, -121], [42, -96, 143], [40, -90, 134]])
    inst = ProblemInstance(m, IntVector([1, 1, 0]), 6)
    report = max_orthogonal_clique(inst, 2, 2, 40)
    assert (report.max_clique_size, report.certified) == (15, True)


def test_certificate_phase_is_reduced_fraction():
    inst = ProblemInstance(IntMatrix([[4]]), IntVector([1]), 2)
    cert = certify_orthogonal(inst, RatVector([0]), RatVector([2]))
    assert (cert.j, cert.phase) == (1, Fraction(1, 2))
    assert type(cert.phase) is Fraction


def test_certify_orthogonal_rejects_wrong_dimension():
    inst = ProblemInstance(M_CUBE, V_CUBE, 6)
    with pytest.raises(ValueError):
        certify_orthogonal(inst, RatVector([0, 1]), RatVector([0, 0]))


# ---------------------------------------------------------------------------
# no rational matrix arithmetic on the evidence paths
# ---------------------------------------------------------------------------


def test_evidence_layer_makes_no_rational_matrix_product(monkeypatch):
    insts = [ProblemInstance(M_CUBE, V_CUBE, 6), ProblemInstance(IntMatrix([[4]]), IntVector([1]), 2)]
    triple = construct_dual_digits(companion_conjugate(M_CUBE, V_CUBE), 6)
    for inst in insts:
        inst.leading  # built before the spies go in
    fourier._contraction_data.cache_clear()
    fourier._probe_sequence.cache_clear()

    def refuse(*args):
        raise AssertionError("rational matrix arithmetic on an evidence path")

    monkeypatch.setattr(RatMatrix, "__mul__", refuse)
    monkeypatch.setattr(RatMatrix, "__pow__", refuse)
    for module in (linalg, fourier, evidence, hadamard):
        monkeypatch.setattr(module, "inverse", refuse, raising=False)
    for inst in insts:
        n = inst.m.n
        xi = RatVector([Fraction(1, 3)] + [Fraction(1, 2)] * (n - 1))
        mu_hat(inst, xi)
        certify_orthogonal(inst, RatVector([0] * n), xi.scaled(6))
        assert max_orthogonal_clique(inst, 1, 1 if n > 1 else 6).certified
        chaos_game(inst, 200, seed=1)
        attractor_radius(inst)
    assert verify_hadamard(triple.m, triple.digits, triple.duals)


# ---------------------------------------------------------------------------
# chaos game
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m, v, q", BASES)
def test_chaos_game_fir_matches_float_iteration(m, v, q):
    inst = ProblemInstance(m, v, q)
    for seed in (0, 5, 123):
        fir = chaos_game(inst, 3000, seed).points
        assert np.max(np.abs(fir - _float_chaos_game(inst, 3000, seed))) <= 1e-12


@pytest.mark.parametrize("b, q", [(2, 2), (3, 3), (-4, 2)])
def test_chaos_game_keeps_the_digit_stream_of_its_seed(b, q):
    # with M = [b], v = [1], x_t = (x_{t-1} + k_t) / b, so b x_t - x_{t-1}
    # reads each digit back from consecutive points
    inst = ProblemInstance(IntMatrix([[b]]), IntVector([1]), q)
    for seed in (7, 8):
        points = chaos_game(inst, 2000, seed).points[:, 0]
        rng = random.Random(seed)
        expected = [rng.randrange(q) for _ in range(2100)][101:]
        assert np.array_equal(np.rint(b * points[1:] - points[:-1]), expected)
    first, again = chaos_game(inst, 500, 3), chaos_game(inst, 500, 3)
    assert np.array_equal(first.points, again.points)


STREAM_QS = [*range(2, 70), 127, 128, 129, 1000, 2 ** 20, 2 ** 31 - 1, 2 ** 32 - 1, 2 ** 32,
             3 ** 25, 2 ** 64 - 1, 2 ** 64 + 1, 10 ** 30]


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_digit_stream_is_randranges(seed):
    # one to four words per draw, powers of two (half the draws rejected)
    # and values just below a word boundary included
    for q in STREAM_QS:
        count = 1500 if q < 2 ** 32 else 300
        rng = random.Random(seed)
        expected = [rng.randrange(q) for _ in range(count)]
        digits = evidence._randrange_stream(random.Random(seed), q, count)
        assert [int(k) for k in digits] == expected, q
        assert digits.astype(float).tolist() == [float(k) for k in expected], q


@pytest.mark.parametrize("m, v, q", BASES)
def test_chaos_game_points_are_those_of_the_randrange_digits(m, v, q):
    # the samples as computed from one randrange call per digit
    inst = ProblemInstance(m, v, q)
    taps = np.array(evidence._chaos_taps(inst))
    for seed in (0, 9):
        rng = random.Random(seed)
        digits = np.array([rng.randrange(q) for _ in range(2100)], dtype=float)
        expected = np.stack([np.convolve(digits, taps[:, c])[100:2100] for c in range(m.n)], axis=1)
        assert np.array_equal(chaos_game(inst, 2000, seed).points, expected)


def test_chaos_tap_count_stays_bounded():
    # |2^-J| < 2^-60 first at J = 61
    assert len(evidence._chaos_taps(ProblemInstance(IntMatrix([[2]]), IntVector([1]), 2))) == 61
    assert len(evidence._chaos_taps(ProblemInstance(M_CUBE, V_CUBE, 6))) <= 64


def test_chaos_game_with_no_iterations():
    sample = chaos_game(ProblemInstance(M_CUBE, V_CUBE, 6), 0, seed=1)
    assert sample.points.shape == (0, 3)


# ---------------------------------------------------------------------------
# expanding matrices whose inverse contracts only after more than 10 n powers
# ---------------------------------------------------------------------------


def test_slowly_contracting_instance_is_handled():
    inst = ProblemInstance(M_SLOW, V_SLOW, 4)
    _, _, _, col, row = fourier._contraction_data(inst.m)
    assert min(col[0], row[0]) > 10 * inst.m.n
    res = mu_hat(inst, RatVector([Fraction(1, 3), 0, Fraction(1, 7), 1]))
    assert math.isfinite(res.error) and abs(res.value) <= 1 + res.error
    radius = attractor_radius(inst)
    assert math.isfinite(radius) and radius > 0
    zero = RatVector([0] * 4)
    for lam in (RatVector([1, 0, 0, 0]), RatVector([0, Fraction(1, 2), 0, 3])):
        cert = certify_orthogonal(inst, zero, lam)
        assert (None if cert is None else (cert.j, cert.phase)) == _oracle_certify(inst, zero, lam)


def test_sample_command_on_slowly_contracting_instance(tmp_path):
    inst = ProblemInstance(M_SLOW, V_SLOW, 4)
    path = tmp_path / "slow.json"
    path.write_text(
        '{"matrix": %s, "v": %s, "q": 4}' % ([list(r) for r in M_SLOW.rows], list(V_SLOW))
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "affinespectra.cli", "sample", "--input", str(path),
         "--iters", "2000", "--seed", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert lines[0] == "x1,x2,x3,x4" and len(lines) == 2001
    points = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert np.all(np.isfinite(points))
    assert np.max(np.abs(points)) <= attractor_radius(inst)


def test_non_expanding_matrix_still_raises():
    class Raw:
        m, v, q = IntMatrix([[1, 1], [0, 1]]), IntVector([1, 0]), 2

    with pytest.raises(NonConvergent):
        mu_hat(Raw, RatVector([1, 1]))
    with pytest.raises(NonConvergent):
        attractor_radius(Raw)

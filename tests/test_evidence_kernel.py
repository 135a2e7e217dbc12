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
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinespectra import evidence, fourier, hadamard, linalg
from affinespectra.classify import ProblemInstance
from affinespectra.conjugation import companion_conjugate, companion_matrix
from affinespectra.errors import NonConvergent
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
    inverse_unimodular,
)

M_CUBE = IntMatrix([[2, 6, 4], [-1, 2, 2], [-1, -1, -4]])
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
        rho = power.inf_norm()
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
            return product, math.expm1(tail), j


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
        return fourier._vanishing_factor(inst, delta, ell, j_max) is not None

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
def _instances(draw):
    """A base instance conjugated by a random unimodular u: (u M u^-1, u v)."""
    m, v, q = draw(st.sampled_from(BASES))
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
    for a, key_a in zip(points, keys):
        assert evidence._lattice_point(key_a, n, half) == list(a)
        for b, key_b in zip(points, keys):
            assert evidence._lattice_point(key_a - key_b, n, half) == [x - y for x, y in zip(a, b)]


def test_clique_certifies_each_difference_once(monkeypatch):
    # x^4 + 6 at q = 6, box 1: an 81-point witness, 3240 pairs of it, but
    # far fewer distinct differences
    inst = ProblemInstance(companion_matrix(IntPolynomial([6, 0, 0, 0, 1])), IntVector([0, 0, 0, 1]), 6)
    calls = []
    vanishing_factor = fourier._vanishing_factor

    def spy(*args):
        calls.append(args)
        return vanishing_factor(*args)

    monkeypatch.setattr(evidence, "_vanishing_factor", spy)
    report = max_orthogonal_clique(inst, 1, 1)
    assert (report.max_clique_size, report.certified) == (81, True)
    assert len(calls) <= 700


def test_default_search_depth_is_unchanged():
    # an uncertifiable pair searches the whole default window, 3 n plus the
    # bit length of (largest reduced denominator) * (largest reduced
    # numerator), and the probe sequence grows to exactly that depth
    for rows, v, q, lam in [
        ([[4]], [1], 2, [Fraction(3, 4)]),
        ([[4]], [1], 2, [1]),
        ([[2, 1], [0, 3]], [1, 1], 3, [Fraction(5, 6), Fraction(-7, 4)]),
    ]:
        inst = ProblemInstance(IntMatrix(rows), IntVector(v), q)
        lam = RatVector(lam)
        fourier._probe_sequence.cache_clear()
        assert certify_orthogonal(inst, RatVector([0] * len(v)), lam) is None
        assert _oracle_certify(inst, RatVector([0] * len(v)), lam) is None
        bits = (max(e.denominator for e in lam) * max(abs(e.numerator) for e in lam)).bit_length()
        assert len(fourier._probe_sequence(inst.m, inst.v)) == 3 * len(v) + bits + 1


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

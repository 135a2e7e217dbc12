"""The lockstep completeness kernel against the per-frequency loop it replaced.

fourier.mu_hat and evidence.completeness_defect share one transform
kernel, fourier._transform_many, which steps all the differences
xi - lambda of a probe through (adj^T)^j over one denominator with no gcd
taken.  The oracles below are the earlier code: mu_hat reducing each
iterate by its gcd, a defect that calls it once per (probe, frequency)
pair on the vector difference, and candidate_spectrum adding the layers
of each itertools.product choice.  Values, error bounds, factor counts,
defects, frequencies and errors must match them bit for bit.
"""

import itertools
import math
from fractions import Fraction
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinespectra import evidence, fourier
from affinespectra.classify import ProblemInstance, classify
from affinespectra.cli import _default_probes, _spectrum_in_original_coords
from affinespectra.errors import DuplicateFrequency, TooLarge
from affinespectra.evidence import completeness_defect
from affinespectra.fourier import mu_hat
from affinespectra.hadamard import HadamardTriple, candidate_spectrum
from affinespectra.linalg import (
    IntMatrix,
    IntVector,
    RatVector,
    _over_common_denominator,
    inverse_unimodular,
)

M_CUBE = IntMatrix([[2, 6, 4], [-1, 2, 2], [-1, -1, -4]])
# a unimodular conjugate of x^4 + 6 whose mask phases come within about
# 1e-8 of an integer at the probe of test_evidence's Bessel test
M_X4 = IntMatrix([[-903, -343, -1003, 2085], [-464, -148, -554, 1267],
                  [1879, 683, 2129, -4551], [437, 156, 499, -1078]])

# (matrix, v, q): expanding, one to four dimensions
BASES = [
    (IntMatrix([[2]]), IntVector([1]), 2),
    (IntMatrix([[-4]]), IntVector([1]), 2),
    (IntMatrix([[-3]]), IntVector([1]), 3),
    (IntMatrix([[6]]), IntVector([2]), 6),
    (IntMatrix([[0, 1], [6, 0]]), IntVector([0, 1]), 6),
    (IntMatrix([[0, -6], [1, 0]]), IntVector([1, 0]), 3),
    (M_CUBE, IntVector([0, 0, 1]), 6),
    (IntMatrix([[1, -3, 3], [3, -5, 3], [6, -6, 4]]), IntVector([1, 1, 2]), 4),
    (IntMatrix([[0, 0, 0, -6], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]), IntVector([1, 0, 0, 0]), 6),
    (M_X4, IntVector([19, 12, -42, -10]), 6),
]


# ---------------------------------------------------------------------------
# oracles: the code the kernel replaced
# ---------------------------------------------------------------------------


def _oracle_mu_hat(inst, xi, tail_eps=1e-9):
    """(value, error, factors) of mu_hat stepping one gcd-reduced iterate."""
    if len(xi) != len(inst.v):
        raise ValueError("frequency dimension does not match the instance")
    if xi.is_zero():
        return complex(1.0), 0.0, 0
    _, adj_t, d, (_, rho, norm_sum), _ = fourier._contraction_data(inst.m)
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
            return complex(0.0), 0.0, j
        product *= fourier._mask_from_phase(q, t, den)
        tail = math.pi * (coeff.numerator * max(map(abs, a)) / (coeff.denominator * den))
        if tail < tail_eps:
            return product, math.expm1(tail), j


def _oracle_defects(inst, freqs, probes, tail_eps=1e-9):
    """Defects of the per-frequency loop: one transform per difference."""
    defects = []
    for xi in probes:
        xi = xi if isinstance(xi, RatVector) else RatVector(xi)
        q_sum = 0.0
        for lam in freqs:
            q_sum += abs(_oracle_mu_hat(inst, xi - lam, tail_eps)[0]) ** 2
        defects.append(1.0 - q_sum)
    return defects


def _oracle_sums(triple, depth):
    """The q^depth sums in itertools.product order, or the collision error."""
    q, mt, layers = triple.q, triple.m.transpose(), [triple.duals]
    while len(layers) < depth:
        layers.append([mt * s for s in layers[-1]])
    sums, seen = [], set()
    for choice in itertools.product(range(q), repeat=depth):
        acc = layers[0][choice[0]]
        for j in range(1, depth):
            acc = acc + layers[j][choice[j]]
        if acc.entries in seen:
            raise DuplicateFrequency(f"expansion collision at digits {choice}")
        seen.add(acc.entries)
        sums.append(acc)
    return sums


def _outcome(f, *args):
    """f(*args), or the type and message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as e:
        return type(e), str(e)


def _transform(inst, xi, tail_eps=1e-9):
    res = mu_hat(inst, xi, tail_eps)
    return res.value, res.error, res.factors


def _defects(inst, freqs, probes, tail_eps=1e-9):
    return completeness_defect(inst, freqs, probes, tail_eps).defects


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
                                           st.integers(-2, 2)), max_size=3)):
        if i != j:
            rows = [list(r) for r in u.rows]
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
            u = IntMatrix(rows)
    return ProblemInstance(u * m * inverse_unimodular(u), u * v, q)


def _frequencies(n):
    entry = st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 1, 2, 3, 4, 6, 20]))
    return st.lists(entry, min_size=n, max_size=n).map(RatVector)


@st.composite
def _problems(draw):
    """(inst, spectrum, probes): random frequencies, with each probe itself
    (0 factors), integer and half-integer shifts of it (frequent exact
    zeros) and integer vectors mixed into the spectrum."""
    inst = draw(_instances())
    n = inst.m.n
    probes = draw(st.lists(_frequencies(n), min_size=1, max_size=3))
    freqs = draw(st.lists(_frequencies(n), max_size=6))
    for xi in probes:
        shift = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        freqs += [xi, xi - RatVector(shift), xi - RatVector(Fraction(s, 2) for s in shift)]
    freqs.append(IntVector(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))))
    return inst, draw(st.permutations(freqs)), probes


# ---------------------------------------------------------------------------
# bit identity
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_problems(), st.sampled_from([1e-9, 1e-4]))
def test_kernel_matches_the_per_frequency_loop_bit_for_bit(problem, tail_eps):
    inst, freqs, probes = problem
    for xi in probes:
        diffs = [xi - lam for lam in freqs]
        points, den = evidence._differences(xi, *_lambda_parts(freqs), inst.m.n)
        got = fourier._transform_many(inst, points, den, tail_eps)
        assert got == [_oracle_mu_hat(inst, delta, tail_eps) for delta in diffs]
        assert [_transform(inst, delta, tail_eps) for delta in diffs] == got
    assert _defects(inst, freqs, probes, tail_eps) == _oracle_defects(inst, freqs, probes, tail_eps)


def _lambda_parts(freqs):
    """(numerators, denominator) of the frequencies over one denominator,
    as completeness_defect forms them."""
    parts = [_over_common_denominator(lam) for lam in freqs]
    den = math.lcm(*(d for _, d in parts))
    return [tuple(x * (den // d) for x in a) for a, d in parts], den


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_problems(), st.sampled_from(["frequency", "probe", "both"]), st.data())
def test_wrong_dimension_raises_the_same_error_at_the_same_pair(problem, where, data):
    inst, freqs, probes = problem
    n = inst.m.n
    other = data.draw(st.sampled_from([k for k in range(1, 6) if k != n]))
    stray = RatVector(data.draw(st.lists(st.integers(-3, 3), min_size=other, max_size=other)))
    freqs, probes = list(freqs), list(probes)
    # a stray frequency breaks the subtraction; a stray probe whose length
    # the first frequency shares reaches mu_hat's dimension check first
    if where != "probe":
        freqs.insert(data.draw(st.integers(0, len(freqs))), stray)
    if where != "frequency":
        probes.insert(data.draw(st.integers(0, len(probes))), stray)
    if where == "both":
        freqs.insert(0, stray)
    expected = _outcome(_oracle_defects, inst, freqs, probes)
    assert isinstance(expected, tuple)
    assert _outcome(_defects, inst, freqs, probes) == expected
    assert _outcome(_transform, inst, stray) == _outcome(_oracle_mu_hat, inst, stray)


def test_equal_frequencies_take_no_factor_and_exact_zeros_stop_the_product():
    inst = ProblemInstance(IntMatrix([[4]]), IntVector([1]), 2)
    xi = RatVector([Fraction(3, 20)])
    # xi - lambda = 0, then 2 (phase 1/2 at the first factor), then 1/7
    freqs = [xi, xi - RatVector([2]), xi - RatVector([Fraction(1, 7)])]
    points, den = evidence._differences(xi, *_lambda_parts(freqs), 1)
    got = fourier._transform_many(inst, points, den, 1e-9)
    assert got[:2] == [(complex(1.0), 0.0, 0), (complex(0.0), 0.0, 1)]
    assert got[2][2] > 1
    assert got == [_oracle_mu_hat(inst, xi - lam) for lam in freqs]
    assert _defects(inst, freqs, [xi]) == _oracle_defects(inst, freqs, [xi])


def test_candidate_spectrum_defects_match_the_loop():
    checked = 0
    for base in BASES:
        inst = ProblemInstance(*base)
        cert = classify(inst).certificate
        if cert is None or cert.kind != "hadamard":
            continue
        spectrum = _spectrum_in_original_coords(inst, cert.triple, 2 if inst.q < 6 else 1)
        probes = _default_probes(inst.m.n)[:4]
        assert _defects(inst, spectrum, probes) == _oracle_defects(inst, spectrum.frequencies, probes)
        checked += 1
    assert checked >= 6


def test_completeness_accepts_iterables_and_keeps_the_probes():
    inst = ProblemInstance(IntMatrix([[4]]), IntVector([1]), 2)
    probes = [(Fraction(1, 20),), RatVector([Fraction(7, 20)])]
    freqs = [IntVector([0]), RatVector([2])]
    report = completeness_defect(inst, iter(freqs), iter(probes))
    assert report.probes == probes
    assert report.defects == _oracle_defects(inst, freqs, probes)


# ---------------------------------------------------------------------------
# the budget
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_problems(), st.sampled_from([1e-9, 1e-4, 0.5]))
def test_factor_bound_is_an_upper_bound(problem, tail_eps):
    inst, freqs, probes = problem
    for xi in probes:
        for lam in freqs:
            delta = xi - lam
            radius = max(map(abs, delta))
            bound = fourier._factor_bound(inst, radius, tail_eps)
            assert mu_hat(inst, delta, tail_eps).factors <= bound


def test_oversized_completeness_is_refused_before_any_transform(monkeypatch):
    inst = ProblemInstance(IntMatrix([[-36]]), IntVector([1]), 36)
    triple = classify(inst).certificate.triple
    spectrum = candidate_spectrum(triple, 3)
    monkeypatch.setattr(evidence, "_transform_many", lambda *a: pytest.fail("transform ran"))
    with pytest.raises(TooLarge, match="cap"):
        completeness_defect(inst, spectrum, _default_probes(1))


def test_empty_spectrum_or_probes_cost_nothing():
    inst = ProblemInstance(IntMatrix([[-36]]), IntVector([1]), 36)
    assert completeness_defect(inst, [], _default_probes(1)).defects == [1.0] * 10
    assert completeness_defect(inst, [RatVector([5])] * 1000, []).defects == []


# ---------------------------------------------------------------------------
# candidate spectra built one level at a time
# ---------------------------------------------------------------------------


@st.composite
def _triples(draw):
    """A triple forced verified, so that collisions occur as well."""
    n = draw(st.integers(1, 2))
    entries = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    m = IntMatrix(draw(st.lists(entries, min_size=n, max_size=n)))
    triple = HadamardTriple(m, IntVector(draw(entries)), IntVector(draw(entries)), draw(st.integers(1, 4)))
    triple.verified = True
    return triple


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_triples(), st.integers(1, 3))
def test_candidate_spectrum_matches_the_product_loop(triple, depth):
    try:
        expected = [s.to_rat() for s in _oracle_sums(triple, depth)]
    except DuplicateFrequency as e:
        with pytest.raises(DuplicateFrequency) as got:
            candidate_spectrum(triple, depth)
        assert str(got.value) == str(e)
        return
    assert candidate_spectrum(triple, depth).frequencies == expected

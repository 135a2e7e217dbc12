"""The lockstep completeness kernel against the per-frequency loop it replaced.

fourier.mu_hat and evidence.completeness_defect share one transform
kernel, fourier._transform_many, which steps all the differences
xi - lambda of a probe through (adj^T)^j over one denominator with no gcd
taken: row-major for mu_hat's one point and for a few points against a
dense adj^T, column-major for more.  The oracles below are the earlier code:
mu_hat reducing each iterate by its gcd, with a verbatim copy of the
one-phase mask function it called, a defect that calls it once per
(probe, frequency) pair on the vector difference, candidate_spectrum
adding the layers of each itertools.product choice, and the rational
transport of frequencies out of the companion and the block frames.
Values, error bounds, factor counts, defects, frequencies and errors
must match them bit for bit.
"""

import cmath
import math
import sys
from fractions import Fraction
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinespectra import evidence, fourier, linalg
from affinespectra.classify import ProblemInstance, classify
from affinespectra.cli import _default_probes
from affinespectra.errors import DuplicateFrequency, TooLarge
from affinespectra.evidence import completeness_defect
from affinespectra.fourier import mu_hat
from affinespectra.hadamard import HadamardTriple, candidate_spectrum
from affinespectra.linalg import IntMatrix, IntVector, RatVector, _over_common_denominator

from oracles import inverse_unimodular, oracle_spectrum, oracle_sums

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
# large det M: the denominators pass 53 bits within two levels, where the
# kernels put each level in lowest terms; the companion of x^3 - 7 10^30,
# a unimodular conjugate of the companion of x^2 + 10^20, and [[10^18 + 3]]
LARGE_DET = [
    (IntMatrix([[0, 1, 0], [0, 0, 1], [7 * 10**30, 0, 0]]), IntVector([0, 0, 1]), 10),
    (IntMatrix([[2, 1], [1, 1]]) * IntMatrix([[0, 1], [-10**20, 0]]) * IntMatrix([[1, -1], [-1, 2]]),
     IntVector([1, 1]), 10),
    (IntMatrix([[10**18 + 3]]), IntVector([1]), 2),
]
# rank-deficient: the iterates of v span a proper subspace, whose leading
# block, [[4]] and the companion of x^2 + 6, carries the spectrum
RANK_DEFICIENT = [
    (IntMatrix([[4, 1], [0, 3]]), IntVector([1, 0]), 4),
    (IntMatrix([[0, -6, 1], [1, 0, 1], [0, 0, 3]]), IntVector([1, 0, 0]), 6),
]


# ---------------------------------------------------------------------------
# oracles: the code the kernel replaced
# ---------------------------------------------------------------------------


def _oracle_mask_from_phase(q: int, num: int, den: int) -> complex:
    # verbatim: fourier._mask_from_phase before it took a set of phases
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
    if abs(tf) < sys.float_info.min:
        # below the normal floats sin(pi t) keeps too few digits, and the
        # Dirichlet ratio is 1 to double precision there
        return cmath.exp(1j * math.pi * (q - 1) * tf)
    # (1/q) sum_k e^{2 pi i k t} in closed Dirichlet-kernel form
    return (
        cmath.exp(1j * math.pi * (q - 1) * tf)
        * math.sin(math.pi * q * tf)
        / (q * math.sin(math.pi * tf))
    )


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
        product *= _oracle_mask_from_phase(q, t, den)
        tail = math.pi * (coeff.numerator * max(map(abs, a)) / (coeff.denominator * den))
        if tail < tail_eps:
            return product, math.expm1(tail * (1 + 2**-50)) + j * (8 * q + 16) * 2**-53, j


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
def _instances(draw, bases=BASES):
    """A base instance conjugated by a random unimodular u: (u M u^-1, u v)."""
    m, v, q = draw(st.sampled_from(bases))
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
def _problems(draw, bases=BASES):
    """(inst, spectrum, probes): random frequencies, with each probe itself
    (0 factors), integer and half-integer shifts of it (frequent exact
    zeros) and integer vectors mixed into the spectrum."""
    inst = draw(_instances(bases))
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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_problems(LARGE_DET), st.sampled_from([1e-9, 1e-4]))
def test_kernel_in_lowest_terms_matches_the_per_frequency_loop_bit_for_bit(problem, tail_eps):
    # the oracle reduces every level by its gcd, the kernels past 53 bits
    _check_kernel(problem, tail_eps)


def _check_kernel(problem, tail_eps):
    """The body of test_kernel_matches_the_per_frequency_loop_bit_for_bit,
    which keeps its own copy, as a derandomized test draws its examples
    from a hash of its source."""
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


@st.composite
def _batches(draw, bases=BASES):
    """(inst, points, den): over 100 points a / den for one kernel call,
    leaving at many different steps: the zero point, integer and
    half-integer points (exact zeros at early factors) and numerators
    spread over twelve orders of magnitude (tails of different sizes)."""
    inst = draw(_instances(bases))
    n = inst.m.n
    den = draw(st.sampled_from([1, 2, 6, 20, 63]))
    small = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    ints = draw(st.lists(small, min_size=15, max_size=15))
    points = [(0,) * n] + [tuple(den * x for x in p) for p in ints]
    if den % 2 == 0:
        points += [tuple(den // 2 * x for x in p) for p in ints]
    for e in range(13):
        entry = st.builds(lambda s, r, e=e: s * (10**e + r), st.sampled_from([-1, 1]), st.integers(0, 10**e))
        points += draw(st.lists(st.tuples(*[entry] * n), min_size=7, max_size=7))
    return inst, draw(st.permutations(points)), den


def _bits(results):
    """repr of each (value, error, factors): equal reprs are equal floats,
    signed zeros included."""
    return [repr(r) for r in results]


@settings(max_examples=15, deadline=None, derandomize=True)
@given(_batches(), st.sampled_from([1e-9, 1e-4]))
def test_one_call_on_many_points_matches_the_loop_and_mu_hat(batch, tail_eps):
    inst, points, den = batch
    xis = [RatVector(Fraction(x, den) for x in a) for a in points]
    expected = _bits(_oracle_mu_hat(inst, xi, tail_eps) for xi in xis)
    got = fourier._transform_many(inst, points, den, tail_eps)
    assert _bits(got) == expected
    # the same points one at a time, through mu_hat's row-major steps
    assert _bits(_transform(inst, xi, tail_eps) for xi in xis) == expected
    assert len({factors for _, _, factors in got}) >= 3


@settings(max_examples=15, deadline=None, derandomize=True)
@given(_batches(LARGE_DET), st.sampled_from([1e-9, 1e-4]))
def test_one_call_in_lowest_terms_matches_the_loop_and_mu_hat(batch, tail_eps):
    inst, points, den = batch
    _check_batch(inst, points, den, tail_eps)
    # the first level's denominator has more than 53 bits already
    assert (den * fourier._contraction_data(inst.m)[2]).bit_length() > fourier._EXACT_BITS


def _check_batch(inst, points, den, tail_eps):
    """_transform_many on the points, and mu_hat on each, against the
    oracle: the body of test_one_call_on_many_points_matches_the_loop_and_mu_hat,
    which keeps its own copy, as a derandomized test draws its examples from
    a hash of its source."""
    xis = [RatVector(Fraction(x, den) for x in a) for a in points]
    expected = _bits(_oracle_mu_hat(inst, xi, tail_eps) for xi in xis)
    got = fourier._transform_many(inst, points, den, tail_eps)
    assert _bits(got) == expected
    # the same points one at a time, through mu_hat's row-major steps
    assert _bits(_transform(inst, xi, tail_eps) for xi in xis) == expected
    return got


@pytest.mark.parametrize("m, q", [([[4]], 2), ([[-3]], 3)])
def test_one_call_through_subnormal_phases_matches_the_loop(m, q):
    # at tail_eps = 1e-320 a point steps on until its phase is far below
    # the smallest normal float, where the mask takes its limit form;
    # integer points meet exact zeros at different early factors, and the
    # large numerators leave many factors after the small ones
    inst = ProblemInstance(IntMatrix(m), IntVector([1]), q)
    den = 3 * 7 * 11 * 4
    points = ([(k,) for k in range(-40, 41)] + [(den * k,) for k in range(-20, 21)]
              + [(den * 10**e + 1,) for e in range(15)])
    xis = [RatVector([Fraction(a, den)]) for (a,) in points]
    got = fourier._transform_many(inst, points, den, 1e-320)
    assert _bits(got) == _bits(_oracle_mu_hat(inst, xi, 1e-320) for xi in xis)
    assert _bits(_transform(inst, xi, 1e-320) for xi in xis) == _bits(got)
    # every point that kept a nonzero product ended at a subnormal phase
    d = abs(m[0][0])
    ends = [(a, f) for (a,), (value, _, f) in zip(points, got) if value != 0 and f]
    assert all(abs(Fraction(a, den * d ** f)) < sys.float_info.min for a, f in ends)
    assert max(f for _, f in ends) - min(f for _, f in ends) >= 20
    assert len({f for value, _, f in got if value == 0}) >= 2


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
        spectrum = candidate_spectrum(cert.triple, 2 if inst.q < 6 else 1)
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
        expected = [s.to_rat() for s in oracle_sums(triple, depth)]
    except DuplicateFrequency as e:
        with pytest.raises(DuplicateFrequency) as got:
            candidate_spectrum(triple, depth)
        assert str(got.value) == str(e)
        return
    assert candidate_spectrum(triple, depth).frequencies == expected


# ---------------------------------------------------------------------------
# candidate spectra as integer numerators over one denominator
# ---------------------------------------------------------------------------


def _spectral_instances():
    """Conjugates of the spectral bases, in the companion frame (full
    Krylov rank) and in the block frame (reduced rank)."""
    return _instances(BASES + RANK_DEFICIENT)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_spectral_instances(), st.integers(1, 2))
def test_spectrum_numerators_over_one_denominator_are_its_frequencies(inst, depth):
    spectrum = candidate_spectrum(classify(inst).certificate.triple, depth)
    den = spectrum.denominator
    assert den > 0 and len(spectrum.numerators) == inst.q ** depth
    assert all(type(x) is int for a in spectrum.numerators for x in a)
    assert spectrum.frequencies == [RatVector([Fraction(x, den) for x in a]) for a in spectrum.numerators]
    assert spectrum.frequencies == oracle_spectrum(inst, classify(inst).certificate.triple, depth)


@pytest.mark.parametrize("m, v, q, depth", [
    ([[6, 0], [0, 5]], [1, 0], 6, 2),
    ([[1, -3, 3], [3, -5, 3], [6, -6, 4]], [1, 1, 2], 4, 2),
    ([[0, -6, 1], [1, 0, 1], [0, 0, 3]], [1, 0, 0], 6, 1),
], ids=["diag(6, 5)", "DIAG q=4", "x^2+6 in 3-D"])
def test_a_reduced_rank_spectrum_lives_in_the_instance_coordinates(m, v, q, depth):
    # the library carries a leading-block spectrum back to all n coordinates
    inst = ProblemInstance(IntMatrix(m), IntVector(v), q)
    triple = classify(inst).certificate.triple
    spectrum = candidate_spectrum(triple, depth)
    assert inst.leading.r < inst.m.n and triple.block is inst.leading.decomp
    assert spectrum.frequencies == oracle_spectrum(inst, triple, depth)
    assert all(len(a) == inst.m.n for a in spectrum.numerators)
    probes = _default_probes(inst.m.n)[:3]
    assert _defects(inst, spectrum, probes) == _oracle_defects(inst, spectrum.frequencies, probes)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_spectral_instances(), st.data())
def test_a_spectrum_and_its_frequency_list_give_identical_defects(inst, data):
    depth = 1 if inst.m.n > 2 else 2
    spectrum = candidate_spectrum(classify(inst).certificate.triple, depth)
    probes = data.draw(st.lists(_frequencies(inst.m.n), min_size=1, max_size=2))
    frequencies = list(spectrum.frequencies)
    got = _defects(inst, spectrum, probes)
    assert repr(got) == repr(_defects(inst, frequencies, probes))
    assert repr(got) == repr(_oracle_defects(inst, frequencies, probes))


# ---------------------------------------------------------------------------
# inverse powers in lowest terms
# ---------------------------------------------------------------------------


def _oracle_tails(inst, a, den, levels):
    """The float tail pi c |a_j|_inf / den_j that _oracle_mu_hat tests at
    each level j <= levels of a / den, up to its first exact zero."""
    _, adj_t, d, (_, rho, norm_sum), _ = fourier._contraction_data(inst.m)
    v = inst.v.entries
    coeff = Fraction(norm_sum, 1) / (1 - rho) * sum(abs(e) for e in v) * (inst.q - 1)
    tails = []
    for _ in range(levels):
        a = [sum(map(mul, row, a)) for row in adj_t.rows]
        den *= d
        t = sum(map(mul, a, v)) % den
        if t and inst.q * t % den == 0:
            break
        tails.append(math.pi * (coeff.numerator * max(map(abs, a)) / (coeff.denominator * den)))
    return tails


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.one_of(_batches(), _batches(LARGE_DET)), st.data())
def test_a_tolerance_at_a_tail_the_points_take_matches_the_loop(batch, data):
    # tail_eps is the float tail of one point at one level, or a neighbour
    # of it: that point is exactly at the kernels' integer floor there
    inst, points, den = batch
    point = data.draw(st.sampled_from([a for a in points if any(a)]))
    tails = [t for t in _oracle_tails(inst, list(point), den, 12) if t < 1]
    tail = data.draw(st.sampled_from(tails)) if tails else 1e-9
    near = [tail, math.nextafter(tail, 0.0), math.nextafter(tail, math.inf)]
    tail_eps = data.draw(st.sampled_from([eps for eps in near if 0 < eps < math.inf]))
    _check_batch(inst, points, den, tail_eps)


def _unreduced_contraction_data(m):
    """_contraction_data stepping adj^k over d^k with no gcd taken."""
    adj, d = linalg._inverse_parts(m)
    power, scale, k = adj, d, 1
    sums, found = [Fraction(0), Fraction(0)], [None, None]
    while None in found:
        for i, rows in enumerate((zip(*power.rows), power.rows)):
            if found[i] is None:
                rho = Fraction(max(sum(map(abs, row)) for row in rows), scale)
                sums[i] += rho
                if rho < 1:
                    found[i] = (k, rho, sums[i])
        power, scale, k = power * adj, scale * d, k + 1
    return adj, adj.transpose(), d, found[0], found[1]


def _unreduced_power_norms(m, count):
    """||P^i||_inf for i < count, P = (adj^T)^k / d^k rounded entrywise."""
    _, adj_t, d, (k, _, _), _ = _unreduced_contraction_data(m)
    scale = d ** k
    cols = list(zip(*([x / scale for x in row] for row in (adj_t ** k).rows)))
    power, norms = [[float(i == j) for j in range(m.n)] for i in range(m.n)], []
    for _ in range(count):
        norms.append(max(sum(map(abs, row)) for row in power))
        power = [[sum(map(mul, row, col)) for col in cols] for row in power]
    return norms


def _unreduced_chaos_taps(inst):
    """_chaos_taps stepping adj x over d^j with no gcd taken."""
    adj, _, d, _, _ = _unreduced_contraction_data(inst.m)
    vmax = max(abs(e) for e in inst.v)
    taps, x, scale = [], inst.v, 1
    while True:
        x, scale = adj * x, scale * d
        taps.append([e / scale for e in x])
        if max(map(abs, x)) << 60 < vmax * scale:
            return taps


@pytest.mark.parametrize("m, v, q", LARGE_DET + BASES[:4] + [(M_X4, IntVector([19, 12, -42, -10]), 6)])
def test_inverse_powers_in_lowest_terms_equal_the_unreduced_ones(m, v, q):
    inst = ProblemInstance(m, v, q)
    fourier._contraction_data.cache_clear()
    fourier._power_norms.cache_clear()
    fourier._probe_sequence.cache_clear()
    assert fourier._contraction_data(m) == _unreduced_contraction_data(m)
    norms, more = fourier._power_norms(m)
    while len(norms) < 12:
        norms.append(next(more))
    assert norms == _unreduced_power_norms(m, 12)
    assert repr(evidence._chaos_taps(inst)) == repr(_unreduced_chaos_taps(inst))
    # the shared sequence is in lowest terms once its denominator passes 53 bits
    for n_j, d_j in fourier._probe_sequence(m, v):
        assert d_j.bit_length() <= fourier._EXACT_BITS or math.gcd(d_j, *n_j) == 1


@pytest.mark.parametrize("count", [1, 40], ids=["row-major", "column-major"])
def test_a_tail_past_the_float_range_raises_as_before(count):
    # c |a| / den past the largest double: int / int raises OverflowError,
    # in both kernels, on a level where no mask vanishes and every point is
    # past the integer floor, rather than the large point stepping on
    inst = ProblemInstance(IntMatrix([[2]]), IntVector([1]), 2)
    points = [(1,)] * (count - 1) + [(3 * 10**400 + 1,)]
    with pytest.raises(OverflowError):
        fourier._transform_many(inst, points, 3, 1e-9)

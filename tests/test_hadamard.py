"""Dual digit construction, exact unitarity, candidate spectra."""

import cmath
import random
import time
import tracemalloc
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affinespectra import linalg
from affinespectra.classify import ProblemInstance, Verdict, classify, leading_triple
from affinespectra.conjugation import companion_conjugate, companion_matrix
from affinespectra.errors import (
    DuplicateFrequency,
    NotDivisible,
    PreconditionError,
    Singular,
    TooLarge,
    UnverifiedTriple,
)
from affinespectra.fourier import certify_orthogonal
from affinespectra.hadamard import (
    HadamardTriple,
    candidate_spectrum,
    construct_dual_digits,
    phase_matrix,
    verify_hadamard,
)
from affinespectra.linalg import (
    IntMatrix,
    IntPolynomial,
    IntVector,
    RatVector,
    det,
    inverse,
    is_expanding,
)

from oracles import inverse_unimodular

M_CUBE = IntMatrix([[2, 6, 4], [-1, 2, 2], [-1, -1, -4]])
V_CUBE = IntVector([0, 0, 1])
COMPANION_CUBE = IntMatrix([[0, 1, 0], [0, 0, 1], [-36, 0, 0]])


def _cube_triple(q):
    conj = companion_conjugate(COMPANION_CUBE, IntVector([0, 0, 1]))
    return construct_dual_digits(conj, q)


# ---------------------------------------------------------------------------
# dual construction and phases
# ---------------------------------------------------------------------------


def test_construct_dual_digits_fixture():
    triple = _cube_triple(6)
    assert triple.q == 6
    assert triple.duals[1] == IntVector([-6, 0, 0])
    assert triple.duals[5] == IntVector([-30, 0, 0])
    assert triple.digits == [IntVector([0, 0, k]) for k in range(6)]
    assert _cube_triple(36).duals[1] == IntVector([-1, 0, 0])


def test_progressions_are_the_scaled_lists():
    # the lazy lists are the k v~ and l u of the companion pair, built once
    conj = companion_conjugate(COMPANION_CUBE, IntVector([0, 0, 1]))
    for q in (2, 3, 6, 12, 36):
        triple = construct_dual_digits(conj, q)
        u = IntVector([-36 // q, 0, 0])
        assert (triple.w, triple.u, triple.q) == (conj.v_tilde, u, q)
        assert triple.digits == [conj.v_tilde.scaled(k) for k in range(q)]
        assert triple.duals == [u.scaled(k) for k in range(q)]
        assert triple.digits is triple.digits and triple.duals is triple.duals
    mixed = HadamardTriple(IntMatrix([[2, 0], [0, 3]]), IntVector([-2, 0]), IntVector([0, 5]), 4)
    assert mixed.digits == [IntVector([-2 * k, 0]) for k in range(4)]
    assert mixed.duals == [IntVector([0, 5 * k]) for k in range(4)]


def test_construct_dual_digits_one_dimensional():
    conj = companion_conjugate(IntMatrix([[2]]), IntVector([1]))
    triple = construct_dual_digits(conj, 2)
    assert triple.duals == [IntVector([0]), IntVector([1])]


def test_construct_dual_digits_requires_divisibility():
    conj = companion_conjugate(COMPANION_CUBE, IntVector([0, 0, 1]))
    with pytest.raises(NotDivisible):
        construct_dual_digits(conj, 5)
    with pytest.raises(NotDivisible):
        construct_dual_digits(conj, 8)


def test_phase_matrix_fixture():
    triple = _cube_triple(6)
    theta = phase_matrix(triple.m, triple.digits, triple.duals)
    assert theta == tuple(tuple(Fraction(k * l % 6, 6) for l in range(6)) for k in range(6))
    assert all(x == 0 for x in theta[0])


def test_phase_matrix_lebesgue():
    theta = phase_matrix(
        IntMatrix([[2]]),
        [IntVector([0]), IntVector([1])],
        [IntVector([0]), IntVector([1])],
    )
    assert theta == ((0, 0), (0, Fraction(1, 2)))


@st.composite
def _phase_cases(draw):
    """Nonsingular m of size 1-4 with det of either sign, and digit and
    dual vectors with small integer entries."""
    n = draw(st.integers(1, 4))
    entry = st.integers(-5, 5)
    vec = st.lists(entry, min_size=n, max_size=n).map(IntVector)
    m = IntMatrix(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)))
    assume(det(m) != 0)
    return m, draw(st.lists(vec, min_size=1, max_size=5)), draw(st.lists(vec, min_size=1, max_size=5))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_phase_cases())
def test_phase_matrix_matches_the_rational_inverse(case):
    # oracle: theta_kl = <m^-1 d_k, s_l> mod 1 through the rational inverse
    m, digits, duals = case
    m_inv = inverse(m)
    expected = [[(m_inv * d).dot(s) % 1 for s in duals] for d in digits]
    assert phase_matrix(m, digits, duals) == tuple(map(tuple, expected))


def test_phase_matrix_singular():
    with pytest.raises(Singular):
        phase_matrix(IntMatrix([[1, 2], [2, 4]]), [IntVector([0, 0])], [IntVector([0, 0])])


# ---------------------------------------------------------------------------
# exact unitarity
# ---------------------------------------------------------------------------


def test_verify_hadamard_constructed_triple():
    triple = _cube_triple(6)
    assert triple.verify()
    assert triple.verified


def test_verify_hadamard_rejects_zero_duals():
    m = IntMatrix([[2]])
    digits = [IntVector([0]), IntVector([1])]
    assert not verify_hadamard(m, digits, [IntVector([0]), IntVector([0])])


def test_verify_hadamard_quarter_phases():
    # M=[4], D={0,1}: duals {0,2} give phases k*l/2 and a unitary matrix,
    # duals {0,1} give phases k*l/4 whose column sum 1+i does not vanish
    m = IntMatrix([[4]])
    digits = [IntVector([0]), IntVector([1])]
    assert verify_hadamard(m, digits, [IntVector([0]), IntVector([2])])
    assert not verify_hadamard(m, digits, [IntVector([0]), IntVector([1])])


def test_verify_hadamard_length_mismatch():
    with pytest.raises(ValueError):
        verify_hadamard(IntMatrix([[2]]), [IntVector([0])], [IntVector([0]), IntVector([1])])


def test_constructed_triples_always_verify():
    for c in (2, -2, 4, 8, -12, 27, 36):
        for n in (1, 2, 3):
            poly = IntPolynomial([c] + [0] * (n - 1) + [1])
            comp = companion_matrix(poly)
            v = IntVector([0] * (n - 1) + [1])
            conj = companion_conjugate(comp, v)
            for q in range(2, abs(c) + 1):
                if abs(c) % q != 0:
                    continue
                triple = construct_dual_digits(conj, q)
                assert triple.verify(), (c, n, q)


def test_verify_hadamard_matches_float_check():
    # progressions in random order against the float Gram matrix; random
    # digit sets that are not progressions are refused
    rng = random.Random(345)
    done = refused = 0
    while done < 100:
        n = rng.randint(1, 3)
        m = IntMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        if det(m) == 0:
            continue
        q = rng.randint(2, 8)
        w = IntVector([rng.randint(-3, 3) for _ in range(n)])
        duals = [IntVector([rng.randint(-6, 6) for _ in range(n)]) for _ in range(q)]
        random_digits = [IntVector([rng.randint(-6, 6) for _ in range(n)]) for _ in range(q)]
        if w.is_zero():
            continue
        done += 1
        digits = rng.sample([w.scaled(k) for k in range(q)], q)
        theta = phase_matrix(m, digits, duals)
        h = np.array(
            [[cmath.exp(2j * cmath.pi * float(theta[k][l])) for l in range(q)] for k in range(q)]
        )
        gram = h.conj().T @ h
        numeric = bool(np.max(np.abs(gram - q * np.eye(q))) < 1e-10)
        assert verify_hadamard(m, digits, duals) == numeric
        if not _is_progression(random_digits):
            refused += 1
            with pytest.raises(PreconditionError, match="not consecutive multiples of one vector"):
                verify_hadamard(m, random_digits, duals)
    assert refused > 90


def test_unitarity_preserved_under_conjugation():
    rng = random.Random(456)
    triple = _cube_triple(6)
    assert triple.verify()
    for _ in range(10):
        u = IntMatrix.identity(3)
        for _ in range(6):
            i, j = rng.sample(range(3), 2)
            c = rng.randint(-2, 2)
            rows = [list(r) for r in u.rows]
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
            u = IntMatrix(rows)
        u_inv = inverse_unimodular(u)
        m2 = u * triple.m * u_inv
        digits2 = [u * d for d in triple.digits]
        duals2 = [(u_inv.transpose()) * s for s in triple.duals]
        assert verify_hadamard(m2, digits2, duals2)
    # a failing triple keeps failing after conjugation
    m = IntMatrix([[4]])
    digits = [IntVector([0]), IntVector([1])]
    duals = [IntVector([0]), IntVector([1])]
    assert not verify_hadamard(m, digits, duals)


def test_verify_hadamard_collinear_keeps_errors():
    # the closed form raises exactly what the phase matrix would
    digits = [IntVector([0, 0]), IntVector([1, 1]), IntVector([2, 2])]
    duals = [IntVector([0, 0])] * 3
    with pytest.raises(ValueError):
        verify_hadamard(IntMatrix([[2, 0], [0, 3]]), digits, duals[:2])
    with pytest.raises(Singular):
        verify_hadamard(IntMatrix([[1, 2], [2, 4]]), digits, duals)
    with pytest.raises(ValueError):
        verify_hadamard(IntMatrix([[2, 0], [0, 3]]), digits, duals[:2] + [IntVector([1])])


def _is_progression(digits):
    # the digit set, in any order and without repeats, is {0, w, ..., (q-1)w}
    q = len(digits)
    return len(set(digits)) == q and any(
        set(digits) == {w.scaled(k) for k in range(q)} for w in digits
    )


def test_only_consecutive_multiples_take_the_closed_form():
    m = IntMatrix([[4, 0], [0, 6]])
    w = IntVector([1, -2])
    duals = [IntVector([k, 0]) for k in range(4)]
    for ks, progression in [
        (range(4), True),
        ((0, 2, 1, 3), True),  # the same digit set in another order
        ((3, 1, 0, 2), True),
        ((0, -1, -2, -3), True),  # consecutive multiples of -w
        (range(1, 5), False),
        ((0, 1, 2, 4), False),
        ((0, 1, 1, 2), False),
    ]:
        digits = [w.scaled(k) for k in ks]
        assert _is_progression(digits) is progression, ks
        if progression:
            assert verify_hadamard(m, digits, duals) == _gram_is_scaled_identity(m, digits, duals)
        else:
            with pytest.raises(PreconditionError):
                verify_hadamard(m, digits, duals)
    assert verify_hadamard(m, [w.scaled(0)], [IntVector([3, 3])])
    # an all-zero digit list is a progression only at q = 1
    with pytest.raises(PreconditionError):
        verify_hadamard(m, [w.scaled(0)] * 2, duals[:2])


def test_collinear_verification_solves_instead_of_inverting(monkeypatch):
    # the closed form needs only M^-1 w: one solve of [M | w], no adjugate
    triple = leading_triple(ProblemInstance(M_CUBE, V_CUBE, 36))
    calls = []
    original = linalg._adjugate
    monkeypatch.setattr(linalg, "_adjugate", lambda rows: calls.append(rows) or original(rows))
    assert verify_hadamard(triple.m, triple.digits, triple.duals)
    assert verify_hadamard(triple.m, list(reversed(triple.digits)), triple.duals)
    duals = list(triple.duals)
    duals[1] = duals[1].scaled(2)
    assert not verify_hadamard(triple.m, triple.digits, duals)
    assert calls == []


def _x16_minus_6():
    """(M, v): a 16-D unimodular conjugate of the companion matrix of
    x^16 - 6 and the image of its last basis vector, a full Krylov basis."""
    rng, n = random.Random(16), 16
    u = IntMatrix.identity(n)
    for _ in range(40):
        i, j = rng.sample(range(n), 2)
        step = [[int(a == b) + (rng.choice((-1, 1)) if (a, b) == (i, j) else 0) for b in range(n)]
                for a in range(n)]
        u = u * IntMatrix(step)
    m = u * companion_matrix(IntPolynomial([-6] + [0] * 15 + [1])) * inverse_unimodular(u)
    return m, u * IntVector([0] * (n - 1) + [1])


def test_companion_frame_certificates_make_no_elimination(monkeypatch):
    # every classifier triple lives on a companion matrix, where m^-1 w and
    # the adjugate are substitutions: checking a 16-D triple, its phases and
    # the witness of a 1-D block [[b]] runs no Bareiss elimination
    triple = leading_triple(ProblemInstance(*_x16_minus_6(), 6))
    witnessed = [ProblemInstance(IntMatrix([[b]]), IntVector([1]), q)
                 for b, q in ((4, 6), (-9, 6), (10**40, 15))]

    def refuse(*args):
        raise RuntimeError("Bareiss elimination on the companion frame")

    monkeypatch.setattr(linalg, "_eliminate", refuse)
    assert triple.m.n == 16 and triple.verify()
    assert verify_hadamard(triple.m, triple.digits, triple.duals)
    phases = phase_matrix(triple.m, triple.digits, triple.duals)
    assert {(k * l - 6 * p) % 6 for k, row in enumerate(phases) for l, p in enumerate(row)} == {0}
    for inst in witnessed:
        c = classify(inst)
        assert c.verdict is Verdict.NOT_SPECTRAL_INFINITE_ORTHOGONALS
        assert c.certificate.witness.verified


def test_permuted_consecutive_digits_make_no_cyclotomic_reduction():
    # H*H does not depend on the order of the digits, so swapping two of
    # them keeps the closed form
    triple = leading_triple(ProblemInstance(M_CUBE, V_CUBE, 36))
    digits = list(triple.digits)
    digits[1], digits[2] = digits[2], digits[1]
    corrupted = list(triple.duals)
    corrupted[1] = corrupted[1] + IntVector([1, 0, 0])
    assert verify_hadamard(triple.m, digits, triple.duals)
    assert not verify_hadamard(triple.m, digits, corrupted)


def test_large_one_dimensional_q_is_certified():
    c = classify(ProblemInstance(IntMatrix([[10**4]]), IntVector([1]), 200))
    assert c.verdict is Verdict.SPECTRAL
    triple = c.certificate.triple
    assert triple.verified and triple.q == 200
    rng = random.Random(200)
    shuffled = rng.sample(triple.digits, 200)
    assert verify_hadamard(triple.m, shuffled, triple.duals) is True
    assert _gram_is_scaled_identity(triple.m, shuffled, triple.duals)
    # the first 12 digits are consecutive multiples; 12 drawn from all 200 are not
    for digits, duals in [(rng.sample(triple.digits[:12], 12), triple.duals[:12]),
                          (triple.digits[:12], rng.sample(triple.duals, 12))]:
        assert verify_hadamard(triple.m, digits, duals) == _gram_is_scaled_identity(
            triple.m, digits, duals)
    digits = rng.sample(triple.digits, 12)
    assert not _is_progression(digits)
    with pytest.raises(PreconditionError):
        verify_hadamard(triple.m, digits, triple.duals[:12])


def _gram_is_scaled_identity(m, digits, duals):
    # phases <m^-1 d_k, s_l> reduced mod 1 exactly, as Python integers over
    # a common denominator, then H*H = qI tested in floats
    m_inv = inverse(m)
    pre = [m_inv * d for d in digits]
    den = lcm(*(p.denominator_lcm() for p in pre))
    a = np.array([[int(x * den) for x in p] for p in pre], dtype=object)
    s = np.array([list(t) for t in duals], dtype=object)
    h = np.exp(2j * np.pi * ((a @ s.T) % den).astype(float) / den)
    q = len(digits)
    return bool(np.max(np.abs(h.conj().T @ h - q * np.eye(q))) < 1e-8)


@pytest.mark.parametrize("n", [1, 3])
def test_closed_form_matches_gram_for_every_q(n):
    # constructed, permuted and corrupted duals at every q <= 40
    rng = random.Random(40 + n)
    e_n = IntVector([0] * (n - 1) + [1])
    for q in range(2, 41):
        comp = companion_matrix(IntPolynomial([2 * q] + [0] * (n - 1) + [1]))
        triple = construct_dual_digits(companion_conjugate(comp, e_n), q)
        corrupted = list(triple.duals)
        corrupted[1] = corrupted[1] + IntVector([1] * n)
        for duals in (triple.duals, rng.sample(triple.duals, q), corrupted):
            exact = verify_hadamard(triple.m, triple.digits, duals)
            assert exact == _gram_is_scaled_identity(triple.m, triple.digits, duals), q


@st.composite
def _unitarity_cases(draw):
    """A dual-digit triple of a random expanding companion matrix with
    q | det, conjugated by a random unimodular u, so that M = u C u^-1 and
    the digits k w with w = u e_n are arbitrary; then its duals constructed,
    permuted, or with one entry corrupted as acceptance criterion 9 does,
    and its digits consecutive, permuted, or random."""
    n = draw(st.integers(1, 3))
    q = draw(st.integers(2, 40))
    c = q * draw(st.sampled_from([-2, -1, 1, 2]))
    comp = companion_matrix(
        IntPolynomial([c] + [draw(st.integers(-2, 2)) for _ in range(n - 1)] + [1])
    )
    assume(is_expanding(comp))
    u = IntMatrix.identity(n)
    for i, j, k in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                           st.integers(-2, 2)), max_size=6)):
        if i != j:
            rows = [list(r) for r in u.rows]
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
            u = IntMatrix(rows)
    u_inv_t = inverse_unimodular(u).transpose()
    triple = construct_dual_digits(companion_conjugate(comp, IntVector([0] * (n - 1) + [1])), q)
    m = u * triple.m * inverse_unimodular(u)
    digits = [u * d for d in triple.digits]
    duals = [u_inv_t * s for s in triple.duals]
    dual_kind = draw(st.sampled_from(["constructed", "permuted", "corrupted"]))
    if dual_kind == "permuted":
        duals = draw(st.permutations(duals))
    elif dual_kind == "corrupted":
        duals[1] = duals[1] + IntVector([1] * n)
    digit_kind = draw(st.sampled_from(["consecutive", "permuted", "random"]))
    if digit_kind == "permuted":
        digits = draw(st.permutations(digits))
    elif digit_kind == "random":
        digits = [IntVector(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)))
                  for _ in range(q)]
    return m, digits, duals


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_unitarity_cases())
def test_closed_form_unitarity_matches_the_gram_oracle(case):
    m, digits, duals = case
    if _is_progression(digits):
        assert verify_hadamard(m, digits, duals) == _gram_is_scaled_identity(m, digits, duals)
    else:
        # random digits: refused, not decided
        with pytest.raises(PreconditionError):
            verify_hadamard(m, digits, duals)


@st.composite
def _progression_triples(draw):
    """The triple of a random expanding companion pair with q | p(0), with
    its constructed dual step u or a random one (mostly not unitary), and a
    random source for shuffling its digits."""
    n = draw(st.integers(1, 3))
    q = draw(st.integers(2, 16))
    c = q * draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    comp = companion_matrix(
        IntPolynomial([c] + [draw(st.integers(-2, 2)) for _ in range(n - 1)] + [1])
    )
    assume(is_expanding(comp))
    built = construct_dual_digits(companion_conjugate(comp, IntVector([0] * (n - 1) + [1])), q)
    entries = st.lists(st.integers(-2 * abs(c), 2 * abs(c)), min_size=n, max_size=n)
    u = draw(st.one_of(st.just(built.u), entries.map(IntVector)))
    return HadamardTriple(built.m, built.w, u, q), draw(st.randoms(use_true_random=False))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_progression_triples())
def test_progression_verify_matches_the_list_paths(case):
    triple, rng = case
    exact = verify_hadamard(triple.m, triple.digits, triple.duals)
    assert triple.verify() is exact and triple.verified is exact
    shuffled = rng.sample(triple.digits, triple.q)
    assert verify_hadamard(triple.m, shuffled, triple.duals) is exact


def test_classify_cost_does_not_grow_with_q():
    # the classifier's triple is decided on (m, w, u, q); no digit or dual
    # list is built, so q = 10^6 costs what q = 2 does
    tracemalloc.start()
    try:
        start = time.perf_counter()
        c = classify(ProblemInstance(IntMatrix([[10**6]]), IntVector([1]), 10**6))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.verdict is Verdict.SPECTRAL and c.certificate.triple.verified
    assert elapsed < 1.0, elapsed
    assert peak < 2**20, peak


# ---------------------------------------------------------------------------
# candidate spectra
# ---------------------------------------------------------------------------


def test_candidate_spectrum_lebesgue_like():
    conj = companion_conjugate(IntMatrix([[4]]), IntVector([1]))
    triple = construct_dual_digits(conj, 2)
    assert triple.verify()
    spec2 = candidate_spectrum(triple, 2)
    assert {lam[0] for lam in spec2.frequencies} == {0, 2, 8, 10}
    assert spec2.frequencies[0] == RatVector([0])
    spec1 = candidate_spectrum(triple, 1)
    assert {lam[0] for lam in spec1.frequencies} == {0, 2}


def test_candidate_spectrum_requires_verification():
    conj = companion_conjugate(IntMatrix([[4]]), IntVector([1]))
    triple = construct_dual_digits(conj, 2)
    with pytest.raises(UnverifiedTriple):
        candidate_spectrum(triple, 2)
    triple.verify()
    with pytest.raises(ValueError):
        candidate_spectrum(triple, 0)


def test_candidate_spectrum_refuses_oversize_before_building():
    # 6^7 = 279936 sums exceed the cap; a depth of 10^9 is refused as fast,
    # without q^depth being computed
    triple = _cube_triple(6)
    assert triple.verify()
    with pytest.raises(TooLarge, match=r"6\^7 frequencies exceed the cap of 65536"):
        candidate_spectrum(triple, 7)
    start = time.perf_counter()
    with pytest.raises(TooLarge):
        candidate_spectrum(triple, 10**9)
    assert time.perf_counter() - start < 0.1


def test_candidate_spectrum_detects_collisions():
    # the dual progression of u = 0 repeats the frequency 0
    triple = HadamardTriple(IntMatrix([[4]]), IntVector([1]), IntVector([0]), 2)
    triple.verified = True  # forced: collisions only occur on non-unitary input
    with pytest.raises(DuplicateFrequency):
        candidate_spectrum(triple, 1)


def test_candidate_spectrum_companion_frame_certified():
    inst = ProblemInstance(COMPANION_CUBE, IntVector([0, 0, 1]), 6)
    triple = _cube_triple(6)
    assert triple.verify()
    spec = candidate_spectrum(triple, 2)
    freqs = spec.frequencies
    assert len(freqs) == 36
    assert len({tuple(f) for f in freqs}) == 36
    assert freqs[0].is_zero()
    for i in range(36):
        for j in range(i + 1, 36):
            cert = certify_orthogonal(inst, freqs[i], freqs[j], j_max=4)
            assert cert is not None and cert.j <= 2


def test_candidate_spectrum_nontrivial_frame():
    # frame with det 40: frequencies live in original coordinates and the
    # certification runs against the original instance
    inst = ProblemInstance(M_CUBE, V_CUBE, 6)
    conj = companion_conjugate(M_CUBE, V_CUBE)
    triple = construct_dual_digits(conj, 6)
    assert triple.verify()
    spec = candidate_spectrum(triple, 2)
    assert len(spec.frequencies) == 36
    assert any(f.denominator_lcm() > 1 for f in spec.frequencies)
    rng = random.Random(9)
    pairs = [(i, j) for i in range(36) for j in range(i + 1, 36)]
    for i, j in rng.sample(pairs, 120):
        cert = certify_orthogonal(inst, spec.frequencies[i], spec.frequencies[j], j_max=4)
        assert cert is not None and cert.j <= 2

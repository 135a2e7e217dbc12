"""Decision tree, certificates, and instance validation."""

import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinespectra.classify import (
    Classification,
    ConditionOnly,
    HadamardCertificate,
    ProblemInstance,
    Verdict,
    WitnessCertificate,
    classify,
    pure_power_form,
)
from affinespectra.errors import BadQ, NotExpanding, ZeroVector
from affinespectra.fourier import verify_witness
from affinespectra.hadamard import verify_hadamard
from affinespectra.linalg import (
    IntMatrix,
    IntPolynomial,
    IntVector,
    det,
    is_expanding,
    krylov,
)

from oracles import inverse_unimodular

M_CUBE = IntMatrix([[2, 6, 4], [-1, 2, 2], [-1, -1, -4]])
V_CUBE = IntVector([0, 0, 1])
M_DIAG = IntMatrix([[1, -3, 3], [3, -5, 3], [6, -6, 4]])
V_DIAG = IntVector([1, 1, 2])
M_MIXED = IntMatrix([[0, 1], [-6, 5]])  # char poly x^2 - 5x + 6, not pure
V_MIXED = IntVector([0, 1])


def _c(m, v, q):
    return classify(ProblemInstance(m, v, q))


# ---------------------------------------------------------------------------
# instance validation
# ---------------------------------------------------------------------------


def test_instance_validation():
    with pytest.raises(ZeroVector):
        ProblemInstance(M_CUBE, IntVector([0, 0, 0]), 2)
    with pytest.raises(BadQ):
        ProblemInstance(M_CUBE, V_CUBE, 1)
    with pytest.raises(BadQ):
        ProblemInstance(M_CUBE, V_CUBE, True)
    with pytest.raises(NotExpanding):
        ProblemInstance(IntMatrix([[1, 0], [0, 2]]), IntVector([1, 1]), 2)
    with pytest.raises(ValueError):
        ProblemInstance(M_CUBE, IntVector([1, 0]), 2)


@st.composite
def _block_instances(draw, max_n=5):
    """(m, v): a block upper-triangular matrix with entries in -3..3,
    conjugated by a random unimodular u, and a v in its leading
    r-dimensional block; the eigenvalues of both blocks decide whether
    m is expanding, and r = n half of the time."""
    n = draw(st.integers(1, max_n))
    r = n if draw(st.booleans()) else draw(st.integers(1, n))
    a = IntMatrix([[draw(st.integers(-3, 3)) if i < r or j >= r else 0 for j in range(n)]
                   for i in range(n)])
    x = draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r).filter(any))
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    ops = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2))
    for i, j, c in draw(st.lists(ops, max_size=2 * n)):
        if i != j:
            u[i] = [p + c * q for p, q in zip(u[i], u[j])]
    u = IntMatrix(u)
    return u * a * inverse_unimodular(u), u * IntVector(list(x) + [0] * (n - r))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_block_instances())
def test_instance_accepts_exactly_the_expanding_matrices(pair):
    m, v = pair
    if is_expanding(m):
        assert ProblemInstance(m, v, 2).leading.r == krylov(m, v)[1]
    else:
        with pytest.raises(NotExpanding):
            ProblemInstance(m, v, 2)


def test_instance_errors_keep_their_order():
    # each input breaks every check from its own on; the first one raises
    flat = IntMatrix([[1, 0], [0, 2]])  # not expanding
    cases = [
        ((flat, IntVector([1, 0, 0]), 1), ValueError),
        ((flat, IntVector([0, 0]), 1), ZeroVector),
        ((flat, IntVector([1, 1]), 1), BadQ),
        ((flat, IntVector([1, 0]), 2), NotExpanding),
    ]
    for args, error in cases:
        with pytest.raises(error) as info:
            ProblemInstance(*args)
        assert type(info.value) is error


def test_pure_power_form():
    assert pure_power_form(IntPolynomial([36, 0, 0, 1])) == 36
    assert pure_power_form(IntPolynomial([-4, 1])) == -4
    assert pure_power_form(IntPolynomial([4, -4, 1])) is None
    with pytest.raises(ValueError):
        pure_power_form(IntPolynomial([1, 2]))


# ---------------------------------------------------------------------------
# the five verdicts
# ---------------------------------------------------------------------------


def test_spectral_full_rank():
    res = _c(M_CUBE, V_CUBE, 6)
    assert res.verdict is Verdict.SPECTRAL
    assert res.conditions.r == 3
    assert res.conditions.det_m1 == -36
    assert res.conditions.gcd_q_detm1 == 6
    assert res.conditions.q_divides_detm1
    assert res.conditions.pure_power_c == 36
    assert isinstance(res.certificate, HadamardCertificate)
    assert res.certificate.triple.block is None
    assert res.certificate.triple.verified
    assert res.reasons == ["divisibility-sufficiency"]


def test_spectral_reduced():
    for q in (2, 4):
        res = _c(M_DIAG, V_DIAG, q)
        assert res.verdict is Verdict.SPECTRAL
        assert res.conditions.r == 1
        assert res.conditions.det_m1 == 4
        assert isinstance(res.certificate, HadamardCertificate)
        assert res.certificate.triple.block is not None
        assert res.certificate.triple.block.m1 == IntMatrix([[4]])
        assert res.reasons == ["rank-reduction", "divisibility-sufficiency"]


def test_not_spectral_infinite_orthogonals():
    res = _c(M_DIAG, V_DIAG, 6)
    assert res.verdict is Verdict.NOT_SPECTRAL_INFINITE_ORTHOGONALS
    assert res.conditions.gcd_q_detm1 == 2
    assert not res.conditions.q_divides_detm1
    assert res.conditions.pure_power_c == -4
    assert isinstance(res.certificate, WitnessCertificate)
    assert verify_witness(ProblemInstance(M_DIAG, V_DIAG, 6), res.certificate.witness)
    assert res.reasons == ["rank-reduction", "gcd-witness", "pure-power-necessity"]

    res8 = _c(M_CUBE, V_CUBE, 8)
    assert res8.verdict is Verdict.NOT_SPECTRAL_INFINITE_ORTHOGONALS
    assert res8.conditions.gcd_q_detm1 == 4


def test_not_spectral_finitely_many():
    res = _c(IntMatrix([[3]]), IntVector([1]), 2)
    assert res.verdict is Verdict.NOT_SPECTRAL_FINITELY_MANY
    assert isinstance(res.certificate, ConditionOnly)
    assert res.reasons == ["pure-power-finiteness"]

    assert _c(M_CUBE, V_CUBE, 5).verdict is Verdict.NOT_SPECTRAL_FINITELY_MANY
    assert _c(M_DIAG, V_DIAG, 3).verdict is Verdict.NOT_SPECTRAL_FINITELY_MANY


def test_infinite_orthogonals_spectrality_unknown():
    res = _c(M_MIXED, V_MIXED, 4)
    assert res.verdict is Verdict.INFINITE_ORTHOGONALS_SPECTRALITY_UNKNOWN
    assert res.conditions.pure_power_c is None
    assert res.conditions.gcd_q_detm1 == 2
    assert isinstance(res.certificate, WitnessCertificate)
    assert verify_witness(ProblemInstance(M_MIXED, V_MIXED, 4), res.certificate.witness)
    assert res.reasons == ["gcd-witness"]


def test_unknown():
    res = _c(M_MIXED, V_MIXED, 5)
    assert res.verdict is Verdict.UNKNOWN
    assert isinstance(res.certificate, ConditionOnly)
    assert res.reasons == []


def test_unknown_reduced():
    m = IntMatrix([[0, 1, 0], [-6, 5, 0], [0, 0, 7]])
    v = IntVector([0, 1, 0])
    res = classify(ProblemInstance(m, v, 5))
    assert res.verdict is Verdict.UNKNOWN
    assert res.conditions.r == 2
    assert res.conditions.det_m1 == 6
    assert res.reasons == ["rank-reduction"]
    res4 = classify(ProblemInstance(m, v, 4))
    assert res4.verdict is Verdict.INFINITE_ORTHOGONALS_SPECTRALITY_UNKNOWN
    assert verify_witness(ProblemInstance(m, v, 4), res4.certificate.witness)


def test_spectral_divisibility_beats_pure_power():
    # q | det and pure power both hold; divisibility wins and certifies
    res = _c(IntMatrix([[4]]), IntVector([1]), 4)
    assert res.verdict is Verdict.SPECTRAL
    assert res.conditions.pure_power_c == -4


# ---------------------------------------------------------------------------
# known characterizations
# ---------------------------------------------------------------------------


def test_one_dimensional_family():
    for b in range(2, 13):
        for q in range(2, 13):
            res = _c(IntMatrix([[b]]), IntVector([1]), q)
            if b % q == 0:
                assert res.verdict is Verdict.SPECTRAL
            elif gcd(q, b) > 1:
                assert res.verdict is Verdict.NOT_SPECTRAL_INFINITE_ORTHOGONALS
            else:
                assert res.verdict is Verdict.NOT_SPECTRAL_FINITELY_MANY


def test_eigenvector_path_matches_eigenvalue_rule():
    # v an eigenvector: the verdict is a function of the eigenvalue alone
    for q in range(2, 9):
        res = _c(M_DIAG, V_DIAG, q)
        ell = 4
        if ell % q == 0:
            assert res.verdict is Verdict.SPECTRAL
        elif gcd(q, ell) > 1:
            assert res.verdict is Verdict.NOT_SPECTRAL_INFINITE_ORTHOGONALS
        else:
            assert res.verdict is Verdict.NOT_SPECTRAL_FINITELY_MANY


# ---------------------------------------------------------------------------
# invariance and certificate re-verification
# ---------------------------------------------------------------------------


def _random_unimodular(rng, n):
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return IntMatrix(u)


def test_verdict_invariant_under_conjugation():
    rng = random.Random(515)
    cases = [
        (M_CUBE, V_CUBE, 6),
        (M_CUBE, V_CUBE, 8),
        (M_CUBE, V_CUBE, 5),
        (M_DIAG, V_DIAG, 6),
        (M_DIAG, V_DIAG, 2),
        (M_MIXED, V_MIXED, 4),
        (M_MIXED, V_MIXED, 5),
    ]
    for m, v, q in cases:
        base = _c(m, v, q)
        for _ in range(5):
            u = _random_unimodular(rng, m.n)
            u_inv = inverse_unimodular(u)
            res = _c(u * m * u_inv, u * v, q)
            assert res.verdict is base.verdict
            assert res.conditions.r == base.conditions.r
            assert res.conditions.det_m1 == base.conditions.det_m1
            assert res.conditions.gcd_q_detm1 == base.conditions.gcd_q_detm1


def test_certificates_reverify():
    spectral = _c(M_CUBE, V_CUBE, 6)
    t = spectral.certificate.triple
    assert verify_hadamard(t.m, t.digits, t.duals)

    reduced = _c(M_DIAG, V_DIAG, 2)
    t2 = reduced.certificate.triple
    assert verify_hadamard(t2.m, t2.digits, t2.duals)

    witnessed = _c(M_DIAG, V_DIAG, 6)
    assert verify_witness(
        ProblemInstance(M_DIAG, V_DIAG, 6), witnessed.certificate.witness
    )


def test_verdict_consistent_with_conditions():
    rng = random.Random(626)
    done = 0
    while done < 60:
        n = rng.randint(1, 3)
        m = IntMatrix(
            [[rng.randint(-3, 3) + (5 if i == j else 0) for j in range(n)] for i in range(n)]
        )
        if not is_expanding(m):
            continue
        v = IntVector([rng.randint(-2, 2) for _ in range(n)])
        if v.is_zero():
            continue
        q = rng.randint(2, 9)
        done += 1
        res = _c(m, v, q)
        c = res.conditions
        assert c.r == krylov(m, v)[1]
        if c.q_divides_detm1:
            expected = Verdict.SPECTRAL
        elif c.pure_power_c is not None:
            expected = (
                Verdict.NOT_SPECTRAL_INFINITE_ORTHOGONALS
                if c.gcd_q_detm1 > 1
                else Verdict.NOT_SPECTRAL_FINITELY_MANY
            )
        else:
            expected = (
                Verdict.INFINITE_ORTHOGONALS_SPECTRALITY_UNKNOWN
                if c.gcd_q_detm1 > 1
                else Verdict.UNKNOWN
            )
        assert res.verdict is expected
        assert abs(c.det_m1) % q == 0 if c.q_divides_detm1 else abs(c.det_m1) % q != 0
        assert c.gcd_q_detm1 == gcd(q, abs(c.det_m1))
        if isinstance(res.certificate, WitnessCertificate):
            assert verify_witness(ProblemInstance(m, v, q), res.certificate.witness)
        if isinstance(res.certificate, HadamardCertificate):
            tt = res.certificate.triple
            assert verify_hadamard(tt.m, tt.digits, tt.duals)


def test_classification_repr():
    res = _c(IntMatrix([[3]]), IntVector([1]), 2)
    assert isinstance(res, Classification)
    assert "not_spectral_finitely_many" in repr(res)

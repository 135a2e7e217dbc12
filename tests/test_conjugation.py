"""Companion and block-triangular conjugations."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affinespectra import conjugation
from affinespectra.classify import ProblemInstance, classify
from affinespectra.conjugation import (
    BlockDecomposition,
    _companion_conjugate,
    block_decompose,
    companion_conjugate,
    companion_matrix,
    leading_block,
    map_spectrum,
)
from affinespectra.errors import FullRank, InternalRankError, NotFullRank, Singular
from affinespectra.linalg import (
    IntMatrix,
    IntPolynomial,
    IntVector,
    RatVector,
    char_poly,
    det,
    inverse,
    krylov,
    rank,
    _annihilates,
    _krylov_relation,
    _mat_mul,
)

from oracles import inverse_unimodular

M_CUBE = IntMatrix([[2, 6, 4], [-1, 2, 2], [-1, -1, -4]])
V_CUBE = IntVector([0, 0, 1])
M_DIAG = IntMatrix([[1, -3, 3], [3, -5, 3], [6, -6, 4]])
V_DIAG = IntVector([1, 1, 2])


def _random_unimodular(rng, n):
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    m = IntMatrix(u)
    assert det(m) in (1, -1)
    return m


def _assemble_block(m1, c, m2):
    r, s = m1.nrows, m2.nrows
    rows = []
    for i in range(r):
        rows.append(list(m1.rows[i]) + list(c.rows[i]))
    for i in range(s):
        rows.append([0] * r + list(m2.rows[i]))
    return IntMatrix(rows)


def _random_rank_deficient(rng, n):
    # conjugate a known block form by a random unimodular matrix, so the
    # iterate rank of (m, v) is the chosen r by construction
    r = rng.randint(1, n - 1)
    while True:
        coeffs = [rng.randint(-4, 4) for _ in range(r)] + [1]
        if coeffs[0] != 0:
            break
    a = companion_matrix(IntPolynomial(coeffs))
    c = IntMatrix([[rng.randint(-3, 3) for _ in range(n - r)] for _ in range(r)])
    d = IntMatrix([[rng.randint(-3, 3) for _ in range(n - r)] for _ in range(n - r)])
    block = _assemble_block(a, c, d)
    u = _random_unimodular(rng, n)
    u_inv = inverse_unimodular(u)
    m = u_inv * block * u
    x = IntVector([0] * (r - 1) + [1])  # full iterate basis for a companion block
    v = u_inv * IntVector(list(x) + [0] * (n - r))
    return m, v, r, a


# ---------------------------------------------------------------------------
# companion branch
# ---------------------------------------------------------------------------


def test_companion_matrix_shape():
    m = companion_matrix(IntPolynomial([36, 0, 0, 1]))
    assert m == IntMatrix([[0, 1, 0], [0, 0, 1], [-36, 0, 0]])
    assert companion_matrix(IntPolynomial([-2, 1])) == IntMatrix([[2]])
    with pytest.raises(ValueError):
        companion_matrix(IntPolynomial([1, 2]))  # not monic


def _validated(m):
    # the same rows through the checking constructor
    return IntMatrix([list(row) for row in m.rows])


def test_unchecked_constructions_equal_validated_ones():
    vecs, _ = krylov(M_CUBE, V_CUBE)
    built = [
        IntMatrix._from_columns(reversed(vecs)),
        companion_matrix(IntPolynomial([36, 0, 0, 1])),
        companion_matrix(IntPolynomial([-2, 1])),
        companion_conjugate(M_CUBE, V_CUBE).b,
        block_decompose(M_DIAG, V_DIAG).block,
    ]
    assert built[0] == IntMatrix.from_columns(list(reversed(vecs)))
    for m in built:
        assert type(m.rows) is tuple and all(type(row) is tuple for row in m.rows)
        assert all(type(x) is int for row in m.rows for x in row)
        assert m == _validated(m) and hash(m) == hash(_validated(m))


def test_companion_conjugate_fixture():
    conj = companion_conjugate(M_CUBE, V_CUBE)
    assert conj.m_tilde == IntMatrix([[0, 1, 0], [0, 0, 1], [-36, 0, 0]])
    assert conj.b == IntMatrix([[4, 4, 0], [-8, 2, 0], [10, -4, 1]])
    assert conj.v_tilde == IntVector([0, 0, 1])
    assert (inverse(conj.b) * V_CUBE).to_int() == conj.v_tilde
    assert det(conj.b) == 40


def test_companion_conjugate_one_dimensional():
    conj = companion_conjugate(IntMatrix([[2]]), IntVector([1]))
    assert conj.m_tilde == IntMatrix([[2]])
    assert conj.b == IntMatrix([[1]])
    assert conj.v_tilde == IntVector([1])


def test_companion_conjugate_already_companion():
    m = IntMatrix([[0, 1], [-4, 0]])
    conj = companion_conjugate(m, IntVector([0, 1]))
    assert conj.b == IntMatrix.identity(2)
    assert conj.m_tilde == m


def test_companion_identities_are_checked_in_integers():
    # M b = b M~ rests on f(M) v = 0 over the iterates v, ..., M^3 v, which
    # a char poly that is not v's fails
    vecs, r, f = _krylov_relation(M_CUBE, V_CUBE)
    assert r == 3 and f == char_poly(M_CUBE) and _annihilates(f, vecs)
    assert _companion_conjugate(vecs[:3], f).m_tilde == companion_matrix(IntPolynomial([36, 0, 0, 1]))
    assert not _annihilates(IntPolynomial([-36, 0, 0, 1]), vecs)


@st.composite
def _spectral_frames(draw, reduced):
    """The instance (u B u^-1, u (e_r, 0), q), B = [[C(f), c], [0, m2]], whose
    Krylov rank is r, r < n when ``reduced``: C(f) the companion matrix of
    f, whose constant term q (1 + sum |a_k|) puts its roots outside the
    closed unit disk and makes q divide det C(f); m2 upper triangular with
    diagonal entries of modulus 2 or 3, so the instance is expanding and
    spectral."""
    n = draw(st.integers(2, 6) if reduced else st.integers(1, 5))
    r = draw(st.integers(1, n - 1)) if reduced else n
    q = draw(st.sampled_from([2, 3, 6]))
    a = draw(st.lists(st.integers(-2, 2), min_size=r - 1, max_size=r - 1))
    sign = draw(st.sampled_from([-1, 1]))
    f = IntPolynomial([sign * q * (1 + sum(map(abs, a)))] + a + [1])
    small = st.integers(-3, 3)
    rows = [list(row) + draw(st.lists(small, min_size=n - r, max_size=n - r))
            for row in companion_matrix(f).rows]
    for i in range(r, n):
        diag = draw(st.sampled_from([-3, -2, 2, 3]))
        rows.append([0] * i + [diag] + draw(st.lists(small, min_size=n - 1 - i, max_size=n - 1 - i)))
    u = _random_unimodular(draw(st.randoms(use_true_random=False)), n)
    x = IntVector([int(i == r - 1) for i in range(n)])
    return ProblemInstance(u * IntMatrix(rows) * inverse_unimodular(u), u * x, q)


@pytest.mark.parametrize("reduced", [False, True], ids=["r=n", "r<n"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_companion_frames_conjugate_with_plain_products(reduced, data):
    # no product checks M1 b = b M~ at run time: f(M1) v1 = 0 on the
    # iterates proves it; plain products confirm it and b e_r = v1, for the
    # public constructor and for the frame a certificate carries
    inst = data.draw(_spectral_frames(reduced))
    triple = classify(inst).certificate.triple
    m1, v1 = (inst.m, inst.v) if triple.block is None else (triple.block.m1, triple.block.x)
    r = m1.n
    assert (r < inst.m.n) == reduced
    e_r = [(int(i == r - 1),) for i in range(r)]
    for frame in (companion_conjugate(m1, v1), triple.coordinate_frame):
        b = frame.b.rows
        assert _mat_mul(m1.rows, b) == _mat_mul(b, frame.m_tilde.rows)
        assert _mat_mul(b, e_r) == tuple((x,) for x in v1)
        assert frame.v_tilde == IntVector(x for (x,) in e_r)


def test_companion_conjugate_rejects_deficient():
    with pytest.raises(NotFullRank):
        companion_conjugate(M_DIAG, V_DIAG)


def test_companion_preserves_char_poly():
    rng = random.Random(711)
    done = 0
    while done < 60:
        n = rng.randint(1, 4)
        m = IntMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        v = IntVector([rng.randint(-3, 3) for _ in range(n)])
        if v.is_zero() or krylov(m, v)[1] < n:
            continue
        done += 1
        conj = companion_conjugate(m, v)
        assert char_poly(conj.m_tilde) == char_poly(m)


# ---------------------------------------------------------------------------
# block branch
# ---------------------------------------------------------------------------


def test_block_decompose_fixture():
    d = block_decompose(M_DIAG, V_DIAG)
    assert d.r == 1
    assert d.b == IntMatrix([[1, 0, 0], [-1, 1, 0], [-2, 0, 1]])
    assert d.m1 == IntMatrix([[4]])
    assert d.c == IntMatrix([[-3, 3]])
    assert d.m2 == IntMatrix([[-2, 0], [0, -2]])
    assert d.x == IntVector([1])
    assert det(M_DIAG) == det(d.m1) * det(d.m2)


def test_block_decompose_already_block():
    d = block_decompose(IntMatrix([[2, 0], [0, 3]]), IntVector([1, 0]))
    assert d.r == 1
    assert d.b == IntMatrix.identity(2)
    assert d.m1 == IntMatrix([[2]])
    assert d.m2 == IntMatrix([[3]])
    assert d.x == IntVector([1])


def test_block_decompose_rejects_full_rank():
    with pytest.raises(FullRank):
        block_decompose(IntMatrix([[2, 1], [0, 3]]), IntVector([0, 1]))


def test_block_decompose_random_properties():
    rng = random.Random(812)
    for _ in range(80):
        n = rng.randint(2, 5)
        m, v, r, a = _random_rank_deficient(rng, n)
        assert krylov(m, v)[1] == r
        d = block_decompose(m, v)
        assert d.r == r
        assert det(d.b) in (1, -1)
        # reassembly returns the original matrix exactly
        block = _assemble_block(d.m1, d.c, d.m2)
        assert d.b_inv * block * d.b == m
        bv = d.b * v
        assert IntVector(list(d.x) + [0] * (n - r)) == bv
        # the leading block is conjugate to the seed block
        assert char_poly(d.m1) == char_poly(a)
        assert det(m) == det(d.m1) * det(d.m2)


def test_leading_block_of_the_reduced_fixture():
    lead = ProblemInstance(M_DIAG, V_DIAG, 6).leading
    assert (lead.r, lead.m1, lead.v1) == (1, IntMatrix([[4]]), IntVector([1]))
    # the reduced pair always feeds the companion branch
    assert krylov(lead.m1, lead.v1)[1] == lead.r


def test_leading_block_guards_the_reduced_vector(monkeypatch):
    # v = (1, 1, 0) under diag(2, 3, 5) has Krylov rank 2 and minimal
    # polynomial (x - 2)(x - 3), which fails on m1 = diag(2, 7) and x = (0, 1)
    # since (7 - 2)(7 - 3) != 0.  x = (1, 0) would not do: (x - 2)(x - 3)
    # annihilates it although it generates only rank 1, as the guard checks
    # annihilation, not rank.  The rank of (m1, v1) rests on b being
    # unimodular, which _hnf_unimodular checks as b b^-1 = I.
    bad = BlockDecomposition(
        b=IntMatrix.identity(3),
        b_inv=IntMatrix.identity(3),
        r=2,
        m1=IntMatrix([[2, 0], [0, 7]]),
        c=IntMatrix([[0], [0]]),
        m2=IntMatrix([[5]]),
        x=IntVector([0, 1]),
        m2_char_poly=IntPolynomial([-5, 1]),
    )
    monkeypatch.setattr(conjugation, "_block_decompose", lambda *args: bad)
    with pytest.raises(InternalRankError, match="annihilate"):
        leading_block(IntMatrix([[2, 0, 0], [0, 3, 0], [0, 0, 5]]), IntVector([1, 1, 0]))


# ---------------------------------------------------------------------------
# frequency transport
# ---------------------------------------------------------------------------


def test_map_spectrum_identity():
    lams = [RatVector([1, 2]), RatVector(["1/2", 0])]
    assert map_spectrum(IntMatrix.identity(2), lams, "forward") == lams
    assert map_spectrum(IntMatrix.identity(2), lams, "inverse") == lams


def test_map_spectrum_fixture():
    b = IntMatrix([[1, 0, 0], [-1, 1, 0], [-2, 0, 1]])
    out = map_spectrum(b, [RatVector([0, 1, 0])], "forward")
    assert out == [RatVector([-1, 1, 0])]
    back = map_spectrum(b, out, "inverse")
    assert back == [RatVector([0, 1, 0])]


def test_map_spectrum_round_trip_random():
    rng = random.Random(913)
    for _ in range(50):
        n = rng.randint(1, 4)
        while True:
            b = IntMatrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            if det(b) != 0:
                break
        lams = [
            RatVector([rng.randint(-9, 9) for _ in range(n)]) for _ in range(4)
        ]
        assert map_spectrum(b, map_spectrum(b, lams, "forward"), "inverse") == lams


def test_map_spectrum_accepts_int_vectors():
    b = IntMatrix([[2, 1], [1, 1]])
    out = map_spectrum(b, [IntVector([1, 0])], "forward")
    assert out == [RatVector([2, 1])]


def test_map_spectrum_errors():
    with pytest.raises(Singular):
        map_spectrum(IntMatrix([[1, 2], [2, 4]]), [RatVector([1, 0])], "forward")
    with pytest.raises(ValueError):
        map_spectrum(IntMatrix.identity(2), [RatVector([1, 0])], "sideways")


@st.composite
def _transport_cases(draw, singular=False):
    """(b, frequencies): b of size 1-5, either sign of det (or singular,
    its last row a combination of the others), with IntVector and
    RatVector frequencies."""
    n = draw(st.integers(1, 5))
    entry = st.integers(-4, 4)
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if singular:
        c = draw(st.lists(entry, min_size=n - 1, max_size=n - 1))
        rows[-1] = [sum(k * row[j] for k, row in zip(c, rows)) for j in range(n)]
    elif draw(st.booleans()):
        rows[0] = [-x for x in rows[0]]  # flips the sign of det b
    b = IntMatrix(rows)
    rat = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    lams = draw(st.lists(st.one_of(
        st.lists(entry, min_size=n, max_size=n).map(IntVector),
        st.lists(rat, min_size=n, max_size=n).map(RatVector),
    ), max_size=4))
    return b, lams


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_transport_cases())
def test_map_spectrum_matches_the_rational_transport(case):
    # oracle: the rational matrix products the integer transport replaced
    b, lams = case
    assume(det(b) != 0)
    assert map_spectrum(b, lams, "forward") == [b.transpose().to_rat() * lam for lam in lams]
    assert map_spectrum(b, lams, "inverse") == [inverse(b).transpose() * lam for lam in lams]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_transport_cases(singular=True))
def test_map_spectrum_rejects_a_singular_basis_both_ways(case):
    b, lams = case
    for direction in ("forward", "inverse"):
        with pytest.raises(Singular, match="invertible basis matrix"):
            map_spectrum(b, lams, direction)


def test_block_rank_matches_krylov():
    assert block_decompose(M_DIAG, V_DIAG).r == krylov(M_DIAG, V_DIAG)[1]
    assert rank(IntMatrix.from_columns(krylov(M_DIAG, V_DIAG)[0])) == 1

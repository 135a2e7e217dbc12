"""Exact linear algebra: frozen fixtures plus randomized cross-checks
against independent routes (numpy floats, plain Fraction elimination)."""

import random
from fractions import Fraction
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinespectra import linalg
from affinespectra.conjugation import _companion_conjugate, companion_matrix
from affinespectra.errors import (
    RankDeficient,
    Singular,
    ZeroVector,
)
from affinespectra.linalg import (
    IntMatrix,
    IntPolynomial,
    IntVector,
    RatMatrix,
    RatVector,
    char_poly,
    det,
    hnf_unimodular,
    inverse,
    is_expanding,
    krylov,
    rank,
    xgcd,
    _apply_power,
    _adjugate,
    _annihilates,
    _conjugate,
    _hnf_unimodular,
    _inverse_parts,
    _is_companion,
    _krylov_relation,
    _mat_mul,
    _no_root_in_closed_unit_disk,
    _product_is,
    _product_width,
    _solve,
    _solve_parts,
)

from oracles import eval_matrix, inverse_by_fraction_gauss_jordan, inverse_unimodular

# char poly x^3 + 36; v generates a full Krylov basis
M_CUBE = IntMatrix([[2, 6, 4], [-1, 2, 2], [-1, -1, -4]])
V_CUBE = IntVector([0, 0, 1])

# eigenvalues 4, -2, -2; (1,1,2) is a 4-eigenvector
M_DIAG = IntMatrix([[1, -3, 3], [3, -5, 3], [6, -6, 4]])
V_DIAG = IntVector([1, 1, 2])


def _random_matrix(rng, n, lo=-9, hi=9):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def _rank_by_fraction_gauss(m):
    # independent oracle: textbook row echelon over Fraction
    a = [[Fraction(x) for x in row] for row in m.rows]
    nr, nc = len(a), len(a[0])
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, nr):
            if a[i][c] != 0:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == nr:
            break
    return r


# ---------------------------------------------------------------------------
# vectors and matrices
# ---------------------------------------------------------------------------


def test_vector_basic_ops():
    v = IntVector([1, -2, 3])
    w = IntVector([4, 0, -1])
    assert v + w == IntVector([5, -2, 2])
    assert v - w == IntVector([-3, -2, 4])
    assert v.scaled(-2) == IntVector([-2, 4, -6])
    assert v.dot(w) == 1
    assert not v.is_zero()
    assert IntVector([0, 0]).is_zero()


def test_rat_vector_integrality():
    v = RatVector([Fraction(1, 2), Fraction(3, 4), 2])
    assert not v.is_integral()
    assert v.denominator_lcm() == 4
    assert v.scaled(4).to_int() == IntVector([2, 3, 8])
    with pytest.raises(ValueError):
        v.to_int()
    assert RatVector([2, -3]).to_int() == IntVector([2, -3])


def test_matrix_vector_products():
    assert M_CUBE * V_CUBE == IntVector([4, 2, -4])
    assert M_CUBE * (M_CUBE * V_CUBE) == IntVector([4, -8, 10])
    assert M_DIAG * V_DIAG == V_DIAG.scaled(4)


def test_matrix_powers_and_transpose():
    assert M_CUBE ** 0 == IntMatrix.identity(3)
    assert M_CUBE ** 1 == M_CUBE
    assert M_CUBE ** 3 == IntMatrix.identity(3).scaled(-36)  # Cayley-Hamilton
    t = M_CUBE.transpose()
    assert t.rows[0] == (2, -1, -1)
    assert t.transpose() == M_CUBE


def _pow_mod_oracle(m, k, modulus):
    """m^k mod ``modulus`` by repeated squaring of the whole matrix, the
    way the removed IntMatrix.pow_mod computed it."""
    def reduce(a):
        return IntMatrix([x % modulus for x in row] for row in a.rows)

    result, base = reduce(IntMatrix.identity(m.n)), reduce(m)
    while k:
        if k & 1:
            result = reduce(result * base)
        base = reduce(base * base) if k > 1 else base
        k >>= 1
    return result


def test_vector_power_matches_matrix_pow_mod():
    rng = random.Random(77)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        x = [rng.randint(-9, 9) for _ in range(n)]
        modulus = rng.randint(1, 50)
        for k in [*range(9), 3 * 10**50]:
            oracle = _pow_mod_oracle(m, k, modulus)
            if k <= 12:
                assert oracle == IntMatrix([y % modulus for y in row] for row in (m ** k).rows)
                assert _apply_power(m.rows, k, x) == list((m ** k) * IntVector(x))
            expected = [y % modulus for y in oracle * IntVector(x)]
            assert _apply_power(m.rows, k, x, modulus) == expected, (m, k, modulus)
    # Cayley-Hamilton: M_CUBE^3 = -36 I, so every power of 3 is 0 mod 36
    assert _pow_mod_oracle(M_CUBE, 3 * 10**50, 36) == IntMatrix.identity(3).scaled(0)
    assert _apply_power(M_CUBE.rows, 3 * 10**50, [5, -7, 11], 36) == [0, 0, 0]


def test_from_columns_round_trip():
    cols = [IntVector([1, 2]), IntVector([3, 4])]
    m = IntMatrix.from_columns(cols)
    assert m == IntMatrix([[1, 3], [2, 4]])
    assert [IntVector(c) for c in m.transpose().rows] == cols


def test_unchecked_results_equal_validated_ones():
    # products, sums, transposes and submatrices skip re-validating their
    # integer entries; they must still be the matrices validation builds
    rng = random.Random(606)
    for _ in range(40):
        n = rng.randint(1, 5)
        a, b = _random_matrix(rng, n), _random_matrix(rng, n)
        v = IntVector([rng.randint(-9, 9) for _ in range(n)])
        built = {
            a * b: [[sum(a.rows[i][k] * b.rows[k][j] for k in range(n)) for j in range(n)]
                    for i in range(n)],
            a + b: [[a.rows[i][j] + b.rows[i][j] for j in range(n)] for i in range(n)],
            a.transpose(): [[a.rows[j][i] for j in range(n)] for i in range(n)],
            a.submatrix(range(n - 1, n), range(n)): [list(a.rows[n - 1])],
        }
        for result, rows in built.items():
            validated = IntMatrix(rows)
            assert type(result) is IntMatrix and result == validated
            assert hash(result) == hash(validated)
            assert all(type(row) is tuple and all(type(x) is int for x in row)
                       for row in result.rows)
        product = a * v
        expected = IntVector(sum(x * y for x, y in zip(row, v)) for row in a.rows)
        assert product == expected and hash(product) == hash(expected)
        assert type(product.entries) is tuple
        x, d = _solve_parts(a + IntMatrix.identity(n).scaled(40), v)
        assert x == IntVector(x.entries) and hash(x) == hash(IntVector(x.entries))
    b, b_inv, h = _hnf_unimodular(IntMatrix([[2], [3], [4]]))
    for result in (b, b_inv, h):
        validated = IntMatrix(result.rows)
        assert result == validated and hash(result) == hash(validated)
    with pytest.raises(ValueError):
        M_CUBE.submatrix(range(0), range(3))
    with pytest.raises(TypeError):
        M_CUBE + M_CUBE.to_rat()


@pytest.mark.parametrize("bad", [True, 1.0, Fraction(1), "1"], ids=["bool", "float", "Fraction", "str"])
def test_outside_entries_and_scalars_stay_validated(bad):
    with pytest.raises(TypeError):
        IntMatrix([[1, bad], [0, 1]])
    with pytest.raises(TypeError):
        IntVector([1, bad])
    with pytest.raises(TypeError):
        M_CUBE.scaled(bad)
    with pytest.raises(TypeError):
        V_CUBE.scaled(bad)
    with pytest.raises(TypeError):
        IntMatrix.from_columns([[1, bad]])
    with pytest.raises(TypeError):
        IntPolynomial([1, bad])


def test_shape_validation():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix([])
    with pytest.raises(TypeError):
        IntMatrix([[1.5]])


def test_integer_and_rational_matrices_compare_and_hash_alike():
    # equality is symmetric and agrees with hashing, as between 3 and Fraction(3)
    rat = M_CUBE.to_rat()
    assert M_CUBE == rat and rat == M_CUBE
    assert hash(M_CUBE) == hash(rat) and len({M_CUBE, rat}) == 1
    half = RatMatrix([[Fraction(1, 2), 0]])
    for a, b in ((IntMatrix([[0, 0]]), half), (IntMatrix([[1, 2]]), RatMatrix([[1], [2]]))):
        assert a != b and b != a
    assert M_CUBE != M_CUBE.rows and M_CUBE.to_rat() != M_CUBE.rows
    # vectors keep strict type equality
    assert V_CUBE != V_CUBE.to_rat() and V_CUBE.to_rat() != V_CUBE


def test_rat_matrix_pow():
    m = RatMatrix([[Fraction(1, 2), Fraction(-1, 3)], [0, Fraction(1, 4)]])
    sq = m * m
    assert sq.rows[0][0] == Fraction(1, 4)
    assert m ** 2 == sq
    inv2 = m ** -2
    assert inv2 * sq == RatMatrix.identity(2)


def test_polynomial_eval():
    p = IntPolynomial([36, 0, 0, 1])  # x^3 + 36
    assert p.degree == 3
    assert p.is_monic
    assert p(0) == 36
    assert p(-2) == 28
    assert p(Fraction(1, 2)) == Fraction(289, 8)
    assert eval_matrix(p, M_CUBE) == IntMatrix.identity(3).scaled(0)
    assert IntPolynomial([3, 0, 0]).degree == 0  # trailing zeros stripped


# ---------------------------------------------------------------------------
# determinant / rank / char poly
# ---------------------------------------------------------------------------


def test_det_fixtures():
    assert det(M_CUBE) == -36
    assert det(M_DIAG) == 16
    assert det(IntMatrix.identity(5)) == 1
    basis = IntMatrix.from_columns(
        [M_CUBE * (M_CUBE * V_CUBE), M_CUBE * V_CUBE, V_CUBE]
    )
    assert det(basis) == 40


def test_det_singular_and_permutation():
    assert det(IntMatrix([[1, 2], [2, 4]])) == 0
    assert det(IntMatrix([[0, 1], [1, 0]])) == -1
    assert det(IntMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])) == 1


def test_det_against_numpy():
    rng = random.Random(101)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = _random_matrix(rng, n)
        expected = round(np.linalg.det(np.array(m.rows, dtype=float)))
        assert det(m) == expected


def test_rank_fixtures():
    assert rank(IntMatrix.identity(4)) == 4
    assert rank(IntMatrix([[1, 2], [2, 4]])) == 1
    vecs, r = krylov(M_DIAG, V_DIAG)
    assert r == 1
    assert vecs == [V_DIAG, V_DIAG.scaled(4), V_DIAG.scaled(16)]
    vecs, r = krylov(M_CUBE, V_CUBE)
    assert r == 3
    assert vecs == [V_CUBE, IntVector([4, 2, -4]), IntVector([4, -8, 10])]


def test_krylov_rejects_zero_vector():
    with pytest.raises(ZeroVector):
        krylov(M_CUBE, IntVector([0, 0, 0]))


def test_rank_against_fraction_gauss():
    rng = random.Random(202)
    for _ in range(200):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        m = IntMatrix([[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)])
        assert rank(m) == _rank_by_fraction_gauss(m)


def test_char_poly_fixtures():
    assert char_poly(M_CUBE) == IntPolynomial([36, 0, 0, 1])
    assert char_poly(M_DIAG) == IntPolynomial([-16, -12, 0, 1])
    assert char_poly(IntMatrix([[4]])) == IntPolynomial([-4, 1])
    assert char_poly(IntMatrix([[0, 1], [-6, 5]])) == IntPolynomial([6, -5, 1])


def test_char_poly_properties():
    rng = random.Random(303)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = _random_matrix(rng, n, -6, 6)
        f = char_poly(m)
        assert f.degree == n and f.is_monic
        assert f.constant_term() == (-1) ** n * det(m)
        # Cayley-Hamilton
        zero = IntMatrix.identity(n).scaled(0)
        assert eval_matrix(f, m) == zero
        # float route: numpy's coefficients of det(xI - M)
        np_coeffs = np.poly(np.array(m.rows, dtype=float))
        approx = [round(c.real if isinstance(c, complex) else c) for c in np_coeffs]
        assert approx == list(reversed(f.coeffs))


# ---------------------------------------------------------------------------
# unimodular echelon reduction
# ---------------------------------------------------------------------------


def test_hnf_single_column_fixtures():
    b, h = hnf_unimodular(IntMatrix([[1], [1], [2]]))
    assert b == IntMatrix([[1, 0, 0], [-1, 1, 0], [-2, 0, 1]])
    assert h == IntMatrix([[1], [0], [0]])

    b, h = hnf_unimodular(IntMatrix([[0], [0], [5]]))
    assert b == IntMatrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert h == IntMatrix([[5], [0], [0]])

    # pivot ends up as the gcd of the column
    b, h = hnf_unimodular(IntMatrix([[4], [6]]))
    assert h == IntMatrix([[2], [0]])
    assert det(b) in (1, -1)


def test_hnf_properties():
    rng = random.Random(404)
    for _ in range(150):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, nr)
        while True:
            a = IntMatrix([[rng.randint(-7, 7) for _ in range(nc)] for _ in range(nr)])
            if rank(a) == nc:
                break
        b, h = hnf_unimodular(a)
        assert det(b) in (1, -1)
        assert b * a == h
        assert _hnf_unimodular(a) == (b, inverse_unimodular(b), h)
        for i in range(nc):
            assert h.rows[i][i] != 0
            assert all(h.rows[j][i] == 0 for j in range(i + 1, nr))
        for i in range(nc, nr):
            assert all(x == 0 for x in h.rows[i])


def _hnf_by_whole_rows(a):
    """(b, h) of the same pivoting rule with every row operation applied
    to whole rows, dead columns included."""
    nr, nc = a.nrows, a.ncols
    aug = [list(row) + [int(i == j) for j in range(nr)] for i, row in enumerate(a.rows)]
    for col in range(nc):
        while True:
            _, piv = min((abs(aug[i][col]), i) for i in range(col, nr) if aug[i][col])
            aug[col], aug[piv] = aug[piv], aug[col]
            for i in range(col + 1, nr):
                t = aug[i][col] // aug[col][col]
                aug[i] = [x - t * y for x, y in zip(aug[i], aug[col])]
            if not any(aug[i][col] for i in range(col + 1, nr)):
                break
    return IntMatrix(row[nc:] for row in aug), IntMatrix(row[:nc] for row in aug)


def _drawn_matrix(entry):
    """nr x nc matrices, nc <= nr <= 7, of entries drawn from ``entry``."""
    return st.integers(1, 7).flatmap(lambda nr: st.integers(1, nr).flatmap(lambda nc: st.lists(
        st.lists(entry, min_size=nc, max_size=nc), min_size=nr, max_size=nr))).map(IntMatrix)


def _krylov_basis(seed):
    """[M^{k-1} v, ..., v], k = r or (a quarter of the time) r + 1, for
    M = U B U^-1 with B block upper triangular, r x r block leading, and
    v = U x, x zero past its first r entries (so k = r + 1 is dependent):
    the construction of the dim-sweep benchmark, up to n = 16, where b^-1
    reaches 234 bits."""
    rng = random.Random(seed)
    n, bits = rng.randint(2, 16), rng.randint(1, 32)
    r = rng.randint(1, n - 1)
    blk = IntMatrix([[rng.randint(-3, 3) if i < r or j >= r else 0 for j in range(n)]
                     for i in range(n)])
    u, u_inv = ([[int(i == j) for j in range(n)] for i in range(n)] for _ in range(2))
    while max(abs(x) for row in u + u_inv for x in row).bit_length() < bits:
        # U <- (I + c e_i e_j^T) U, so U^-1 <- U^-1 (I - c e_i e_j^T)
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        for row in u_inv:
            row[j] -= c * row[i]
    m = IntMatrix(u) * blk * IntMatrix(u_inv)
    vecs = [IntMatrix(u) * IntVector([rng.choice((-2, -1, 1, 2)) if i < r else 0 for i in range(n)])]
    for _ in range(r - 1 + (rng.random() < 0.25)):
        vecs.append(m * vecs[-1])
    return IntMatrix.from_columns(reversed(vecs))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    _drawn_matrix(st.integers(-9, 9)),
    _drawn_matrix(st.tuples(st.sampled_from((-2**64, 2**64)), st.integers(-9, 9)).map(sum)),
    st.integers(0, 2**32).map(_krylov_basis),
)
def test_hnf_matches_whole_row_reduction(small, near_2_64, krylov):
    # the Krylov bases and the entries near +-2^64 take the packed replay
    # of b and b^-1 well past one machine word per entry
    for a in (small, near_2_64, krylov):
        if rank(a) < a.ncols:
            with pytest.raises(RankDeficient):
                _hnf_unimodular(a)
            continue
        b, h = _hnf_by_whole_rows(a)
        assert _hnf_unimodular(a) == (b, inverse_unimodular(b), h)


def test_hnf_rejects_rank_deficient():
    with pytest.raises(RankDeficient):
        hnf_unimodular(IntMatrix([[1, 2], [2, 4], [0, 0]]))


# ---------------------------------------------------------------------------
# packed rows (the width of Kronecker substitution)
# ---------------------------------------------------------------------------


def _near_2_64(rng, nr, nc):
    return [[rng.choice((-2**64, 2**64)) + rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]


@pytest.mark.parametrize("n", [1, 3, 8])
def test_packed_products_of_equal_operands_near_2_64_compare_equal(n):
    rng = random.Random(n)
    a, b = _near_2_64(rng, n, n), _near_2_64(rng, n, n)
    assert _product_is(a, b, _mat_mul(a, b))
    c = _near_2_64(rng, n, n)
    assert _conjugate(a, b, c) == _mat_mul(_mat_mul(a, b), c)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("n", [1, 4, 16])
def test_packed_products_off_by_one_at_the_widest_entry_compare_unequal(n, sign):
    # every entry of a b is n (2^64 - 1)^2, the most the operands' bit
    # lengths allow; one entry is moved by 1, at the top or the bottom field
    top = 2**64 - 1
    a, b = [[sign * top] * n for _ in range(n)], [[top] * n for _ in range(n)]
    prod = _mat_mul(a, b)
    assert prod[0][0] == sign * n * top * top
    # the balanced fields hold the widest entry the bit lengths allow
    assert n * top * top < 2 ** (_product_width(a, b) - 1)
    for i, j in ((0, 0), (n - 1, n - 1)):
        for delta in (1, -1):
            target = [list(row) for row in prod]
            target[i][j] += delta
            assert not _product_is(a, b, target)
            # a with e_i appended as a column, b with delta e_j as a row:
            # c d = a b + delta e_i e_j^T, the target, and not a b
            c = [row + [int(k == i)] for k, row in enumerate(a)]
            d = b + [[delta * int(k == j) for k in range(n)]]
            assert _mat_mul(c, d) == tuple(map(tuple, target))
            assert _product_is(c, d, target) and not _product_is(c, d, prod)
    assert _product_is(a, b, prod)


def test_packed_block_product_at_the_widest_entry():
    # past the plain-product threshold, b m b^-1 with every entry at the
    # bound n^2 max|b| max|m| max|b^-1| the packed width is chosen from
    for n in (5, 9, 16):
        top = 2**64 - 1
        a, m, c = ([[s * top] * n for _ in range(n)] for s in (1, -1, 1))
        assert _conjugate(a, m, c) == ((-n * n * top**3,) * n,) * n


def _companion_16():
    """(vecs, f) for a 16-D conjugate M of the companion matrix of
    x^16 - x^15 + 3x - 6 and v of full Krylov rank: the iterates
    v, ..., M^16 v and the char poly."""
    rng = random.Random(16)
    n, coeffs = 16, [-6, 3] + [0] * 13 + [-1]
    blk = [[0] * n for _ in range(n)]
    for i in range(n):
        if i + 1 < n:
            blk[i + 1][i] = 1
        blk[i][n - 1] = -coeffs[i]
    u = IntMatrix.identity(n)
    for _ in range(40):
        i, j = rng.sample(range(n), 2)
        e = [[int(a == b) + (rng.choice((-1, 1)) if (a, b) == (i, j) else 0) for b in range(n)] for a in range(n)]
        u = u * IntMatrix(e)
    m = u * IntMatrix(blk) * inverse_unimodular(u)
    vecs, r, f = _krylov_relation(m, u * IntVector([1] + [0] * (n - 1)))
    assert r == n and f == IntPolynomial(coeffs + [1])
    return vecs, f


@pytest.mark.parametrize("k", [0, 1, 7, 15])
@pytest.mark.parametrize("delta", [1, -1])
def test_companion_check_catches_a_char_poly_coefficient_off_by_one(k, delta):
    # the companion frame's M b = b M~ rests on f(M) v = 0 over v, ..., M^16 v
    vecs, f = _companion_16()
    assert _annihilates(f, vecs)
    assert _companion_conjugate(vecs[:16], f).m_tilde == companion_matrix(f)
    coeffs = list(f.coeffs)
    coeffs[k] += delta
    assert not _annihilates(IntPolynomial(coeffs), vecs)


# ---------------------------------------------------------------------------
# inverses
# ---------------------------------------------------------------------------


def test_inverse_fixture():
    b = IntMatrix([[1, 0, 0], [-1, 1, 0], [-2, 0, 1]])
    assert inverse(b) == IntMatrix([[1, 0, 0], [1, 1, 0], [2, 0, 1]])
    assert inverse(IntMatrix([[2, 1], [4, 3]])) == RatMatrix([[Fraction(3, 2), Fraction(-1, 2)], [-2, 1]])


def test_inverse_random():
    rng = random.Random(505)
    count = 0
    while count < 80:
        n = rng.randint(1, 4)
        m = _random_matrix(rng, n)
        if det(m) == 0:
            continue
        count += 1
        inv = inverse(m)
        assert inv * m == RatMatrix.identity(n)
        assert m.to_rat() * inv == RatMatrix.identity(n)


def test_inverse_errors():
    with pytest.raises(Singular):
        inverse(IntMatrix([[1, 2], [2, 4]]))
    with pytest.raises(Singular):
        inverse(RatMatrix([[Fraction(1, 2), 1], [1, 2]]))


def test_xgcd():
    for a, b in [(12, 18), (-12, 18), (0, 5), (5, 0), (7, 13), (0, -3)]:
        g, s, t = xgcd(a, b)
        assert g == s * a + t * b
        assert g >= 0
        assert g == __import__("math").gcd(a, b)


# ---------------------------------------------------------------------------
# expanding test
# ---------------------------------------------------------------------------


def test_expanding_fixtures():
    assert is_expanding(M_CUBE)  # |roots| = 36^(1/3) > 1
    assert is_expanding(M_DIAG)  # 4, -2, -2
    assert is_expanding(IntMatrix([[2]]))
    assert is_expanding(IntMatrix([[-2, 0], [0, -2]]))
    assert is_expanding(IntMatrix([[0, 2], [3, 0]]))  # roots +-sqrt(6)
    assert not is_expanding(IntMatrix([[1]]))
    assert not is_expanding(IntMatrix([[1, 1], [0, 1]]))
    assert not is_expanding(IntMatrix([[2, 0], [0, 1]]))  # eigenvalue on circle
    assert not is_expanding(IntMatrix([[0, 1], [-1, 0]]))  # roots +-i on circle
    assert not is_expanding(IntMatrix([[0, 1], [0, 3]]))  # eigenvalue 0 inside


def test_root_location_polynomial_cases():
    out = _no_root_in_closed_unit_disk
    assert out([36, 0, 0, 1])        # x^3 + 36
    assert out([-2, 1])              # x - 2
    assert out([-6, -1, 1])          # (x-3)(x+2)
    assert not out([-1, 1])          # x - 1
    assert not out([2, -3, 1])       # (x-1)(x-2): mixed
    assert not out([1, 0, 1])        # x^2 + 1: on the circle
    assert not out([-3, 7, -5, 1])   # (x-1)^2 (x-3)
    assert not out([-3, 4, -4, 1])   # (x^2-x+1)(x-3): circle roots
    assert not out([0, -3, 1])       # x(x-3): root at 0
    assert out([5])                  # constants have no roots


def test_expanding_against_numpy_eigenvalues():
    rng = random.Random(606)
    checked = 0
    while checked < 150:
        n = rng.randint(1, 4)
        m = _random_matrix(rng, n, -5, 5)
        eigs = np.linalg.eigvals(np.array(m.rows, dtype=float))
        margin = min(abs(abs(z) - 1.0) for z in eigs)
        if margin < 1e-6:
            continue  # too close to the circle for a float oracle
        checked += 1
        assert is_expanding(m) == bool(all(abs(z) > 1.0 for z in eigs))


# ---------------------------------------------------------------------------
# the integer kernels against independent oracles
# ---------------------------------------------------------------------------


@st.composite
def _int_matrices(draw, max_n=8, entries=st.integers(-6, 6)):
    """A random n x n integer matrix, 1 <= n <= max_n; a third of them
    low-rank products, so singular inputs come up often."""
    n = draw(st.integers(1, max_n))
    if draw(st.integers(0, 2)) == 0:
        k = draw(st.integers(1, n))
        a = [[draw(entries) for _ in range(k)] for _ in range(n)]
        b = [[draw(entries) for _ in range(n)] for _ in range(k)]
        return IntMatrix([[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a])
    return IntMatrix([[draw(entries) for _ in range(n)] for _ in range(n)])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_int_matrices(), st.lists(st.integers(1, 12), min_size=64, max_size=64))
def test_inverse_matches_fraction_gauss_jordan(m, dens):
    n = m.nrows
    rat = RatMatrix([[Fraction(x, dens[(i * n + j) % 64]) for j, x in enumerate(row)]
                     for i, row in enumerate(m.rows)])
    for a in (m, rat):
        expected = inverse_by_fraction_gauss_jordan(a.rows)
        if expected is None:
            with pytest.raises(Singular):
                inverse(a)
            continue
        inv = inverse(a)
        assert inv == RatMatrix(expected)
        assert RatMatrix(a.rows) * inv == RatMatrix.identity(n)
        assert inv * a == RatMatrix.identity(n)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_int_matrices(max_n=9), st.lists(st.integers(-9, 9), min_size=9, max_size=9))
def test_solve_parts_matches_adjugate_times_w(m, entries):
    w = IntVector(entries[:m.nrows])
    if det(m) == 0:
        with pytest.raises(Singular, match="matrix is singular"):
            _solve_parts(m, w)
        return
    adj, d = _inverse_parts(m)
    x, d_solve = _solve_parts(m, w)
    assert (x, d_solve) == (adj * w, d) == (adj * w, abs(det(m)))
    assert m * x == w.scaled(d)


@st.composite
def _companion_systems(draw):
    """(C, W, (i, j, delta)): the companion matrix of a monic f of degree 1
    to 12 with coefficients up to 2^256 in size, many middle ones zero and
    f(0) often zero or negative, 1 to 3 right-hand sides, and a nonzero
    change of one entry off the first column."""
    n = draw(st.integers(1, 12))
    big = st.integers(-2**256, 2**256)
    middle = draw(st.lists(st.one_of(st.just(0), big), min_size=n - 1, max_size=n - 1))
    f0 = draw(st.one_of(st.just(0), st.integers(-2**256, -1), big))
    rhs = draw(st.lists(st.lists(big, min_size=n, max_size=n), min_size=1, max_size=3))
    bend = draw(st.tuples(st.integers(0, n - 1), st.integers(1, max(n - 1, 1)),
                          st.integers(-2**256, 2**256).filter(bool)))
    return companion_matrix(IntPolynomial([f0] + middle + [1])), rhs, bend


def _adj_times(inv, d, w):
    """d A^{-1} w from the rows of A^{-1}: adj(A) w for d = det A."""
    return [d * sum(map(mul, row, w)) for row in inv]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_companion_systems())
def test_companion_solve_is_the_elimination(system):
    # the substitution on a companion matrix returns the very integers the
    # Bareiss route returns, and one entry off the layout takes that route
    c, rhs, (i, j, delta) = system
    rows, n = c.rows, c.nrows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_is_companion", lambda rows: False)
        eliminated = _solve(rows, rhs)
    assert _is_companion(rows) and _solve(rows, rhs) == eliminated
    inv = inverse_by_fraction_gauss_jordan(rows)
    if rows[-1][0] == 0:
        assert inv is None and eliminated == (None, 0) == _adjugate(rows)
        with pytest.raises(Singular, match="matrix is singular"):
            _solve_parts(c, IntVector(rhs[0]))
        with pytest.raises(Singular):
            inverse(c)
    else:
        cols, d = eliminated
        assert d == det(c) == (-1) ** (n + 1) * rows[-1][0]
        assert cols == [_adj_times(inv, d, w) for w in rhs]
        adj, d_adj = _adjugate(rows)
        assert d_adj == d
        assert RatMatrix([[Fraction(x, d) for x in row] for row in adj]) == RatMatrix(inv)
        assert inverse(c) == RatMatrix(inv)
        x, d_parts = _solve_parts(c, IntVector(rhs[0]))
        assert d_parts == abs(d) and list(x) == [e * (d // d_parts) for e in cols[0]]
    if n == 1:
        return  # every nonzero [[a]] is a companion matrix
    bent = [list(row) for row in rows]
    bent[i][j] += delta
    assert not _is_companion(bent)
    inv = inverse_by_fraction_gauss_jordan(bent)
    if inv is None:
        assert _solve(bent, rhs) == (None, 0)
    else:
        d = det(IntMatrix(bent))
        assert _solve(bent, rhs) == ([_adj_times(inv, d, w) for w in rhs], d)


def test_solve_parts_errors():
    with pytest.raises(Singular, match="matrix is singular"):
        _solve_parts(IntMatrix([[0, 0], [0, 5]]), IntVector([1, 1]))
    with pytest.raises(ValueError):
        _solve_parts(IntMatrix([[1, 2]]), IntVector([1]))
    with pytest.raises(ValueError):
        _solve_parts(M_CUBE, IntVector([1, 2]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_int_matrices(entries=st.integers(-20, 20)))
def test_char_poly_matches_det_at_integer_points(m):
    n = m.nrows
    f = char_poly(m)
    assert f.degree == n and f.is_monic
    for k in range(-(n // 2), n + 1 - n // 2):
        shifted = IntMatrix.identity(n).scaled(k) + m.scaled(-1)
        assert f(k) == det(shifted), k


def _schur_cohn_unreduced(coeffs):
    # the recursion without the content reduction, as it was first written
    c = list(coeffs)
    while True:
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        if len(c) == 1:
            return True
        a0, an = c[0], c[-1]
        if a0 * a0 <= an * an:
            return False
        deg = len(c) - 1
        c = [a0 * c[i] - an * c[deg - i] for i in range(deg)]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_int_matrices(entries=st.integers(-9, 9)))
def test_is_expanding_matches_unreduced_schur_cohn_and_eigenvalues(m):
    expanding = is_expanding(m)
    assert expanding == _schur_cohn_unreduced(char_poly(m).coeffs)
    eigs = np.linalg.eigvals(np.array(m.rows, dtype=float))
    if min(abs(abs(z) - 1.0) for z in eigs) > 1e-6:
        assert expanding == bool(all(abs(z) > 1.0 for z in eigs))


# ---------------------------------------------------------------------------
# Krylov relation: rank and minimal polynomial from one elimination
# ---------------------------------------------------------------------------


def _poly_mul(f, g):
    out = [0] * (f.degree + g.degree + 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] += a * b
    return IntPolynomial(out)


def _nonzero_vectors(n):
    return st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any).map(IntVector)


@st.composite
def _krylov_pairs(draw, max_n=6):
    """(m, v) with v nonzero.  Half are random or low-rank matrices,
    singular ones included.  The other half conjugate, by a random
    unimodular u, a block upper-triangular matrix with entries in -1..1
    (roots of unity, on the unit circle, come up often) and a v in its
    leading r-dimensional block, so the Krylov rank is at most r."""
    if draw(st.booleans()):
        m = draw(_int_matrices(max_n=max_n))
        return m, draw(_nonzero_vectors(m.nrows))
    n = draw(st.integers(1, max_n))
    r = draw(st.integers(1, n))
    a = IntMatrix([[draw(st.integers(-1, 1)) if i < r or j >= r else 0 for j in range(n)]
                   for i in range(n)])
    x = draw(_nonzero_vectors(r))
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    ops = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2))
    for i, j, c in draw(st.lists(ops, max_size=2 * n)):
        if i != j:
            u[i] = [p + c * q for p, q in zip(u[i], u[j])]
    u = IntMatrix(u)
    return u * a * inverse_unimodular(u), u * IntVector(list(x) + [0] * (n - r))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_krylov_pairs())
def test_krylov_relation_gives_rank_and_minimal_polynomial(pair):
    from affinespectra.conjugation import block_decompose

    m, v = pair
    n = m.nrows
    vecs, r, f = _krylov_relation(m, v)
    assert vecs == [(m ** k) * v for k in range(r + 1)]
    assert r == rank(IntMatrix.from_columns(vecs)) == rank(IntMatrix.from_columns(vecs[:r]))
    assert krylov(m, v) == ([(m ** k) * v for k in range(n)], r)
    assert f.degree == r and f.is_monic
    assert eval_matrix(f, m) * v == IntVector([0] * n)
    if r == n:
        assert char_poly(m) == f
    else:
        assert char_poly(m) == _poly_mul(f, char_poly(block_decompose(m, v).m2))


def test_krylov_relation_on_the_unit_circle():
    # rotation by a quarter turn: x^2 + 1; an eigenvector of 1 and of -1
    vecs, r, f = _krylov_relation(IntMatrix([[0, -1], [1, 0]]), IntVector([1, 0]))
    assert (r, f) == (2, IntPolynomial([1, 0, 1]))
    assert _krylov_relation(IntMatrix([[1, 0], [0, -1]]), IntVector([0, 3]))[1:] == (
        1, IntPolynomial([1, 1]))
    assert _krylov_relation(M_DIAG, V_DIAG) == (
        [V_DIAG, V_DIAG.scaled(4)], 1, IntPolynomial([-4, 1]))
    assert _krylov_relation(IntMatrix([[0, 0], [0, 0]]), IntVector([1, 1]))[1:] == (
        1, IntPolynomial([0, 1]))

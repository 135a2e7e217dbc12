"""Mask, transform, witnesses, and orthogonality certification."""

import math
import random
import time
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affinespectra.classify import ProblemInstance
from affinespectra.conjugation import map_spectrum
from affinespectra.errors import GcdOne, NonConvergent
from affinespectra import fourier, linalg
from affinespectra.fourier import (
    certify_orthogonal,
    construct_witness,
    mask,
    mask_is_zero_exact,
    mu_hat,
    verify_witness,
    Witness,
)
from affinespectra.linalg import (
    IntMatrix,
    IntVector,
    RatMatrix,
    RatVector,
    det,
    inverse,
    is_expanding,
    krylov,
)

from oracles import inverse_unimodular

M_CUBE = IntMatrix([[2, 6, 4], [-1, 2, 2], [-1, -1, -4]])
V_CUBE = IntVector([0, 0, 1])
M_DIAG = IntMatrix([[1, -3, 3], [3, -5, 3], [6, -6, 4]])
V_DIAG = IntVector([1, 1, 2])


def _inst(rows, v, q):
    return ProblemInstance(IntMatrix(rows), IntVector(v), q)


class _RawInstance:
    # bypasses ProblemInstance validation, for exercising guard paths
    def __init__(self, m, v, q):
        self.m = m
        self.v = v
        self.q = q


# ---------------------------------------------------------------------------
# mask
# ---------------------------------------------------------------------------


def test_mask_at_zero():
    inst = _inst([[2]], [1], 2)
    assert mask(inst, RatVector([0])) == 1.0


def test_mask_exact_zeros():
    inst = _inst([[2]], [1], 2)
    assert mask(inst, RatVector([Fraction(1, 2)])) == 0.0
    six = _inst([[2, 6, 4], [-1, 2, 2], [-1, -1, -4]], [0, 0, 1], 6)
    assert mask(six, RatVector([5, -3, Fraction(1, 6)])) == 0.0


def test_mask_modulus():
    inst = _inst([[2]], [1], 2)
    val = mask(inst, RatVector([Fraction(1, 3)]))
    assert abs(abs(val) - 0.5) < 1e-12  # |1 + e^{2 pi i/3}| / 2


def test_mask_is_zero_exact_cases():
    six = _inst([[2, 6, 4], [-1, 2, 2], [-1, -1, -4]], [0, 0, 1], 6)
    assert mask_is_zero_exact(six, RatVector([Fraction(3, 10), 7, Fraction(1, 6)]))
    assert mask_is_zero_exact(six, RatVector([Fraction(3, 10), 7, Fraction(1, 2)]))
    assert not mask_is_zero_exact(six, RatVector([Fraction(3, 10), 7, 2]))


def test_mask_zero_agrees_with_numeric():
    insts = [
        _inst([[2]], [1], 2),
        _inst([[4]], [1], 4),
        _inst([[2, 6, 4], [-1, 2, 2], [-1, -1, -4]], [0, 0, 1], 6),
    ]
    rng = random.Random(42)
    for _ in range(10000):
        inst = rng.choice(insts)
        n = inst.m.n
        xi = RatVector(
            [Fraction(rng.randint(-300, 300), rng.randint(1, 100)) for _ in range(n)]
        )
        numeric_zero = abs(mask(inst, xi)) < 1e-12
        assert numeric_zero == mask_is_zero_exact(inst, xi)


# ---------------------------------------------------------------------------
# mu_hat
# ---------------------------------------------------------------------------


def test_mu_hat_at_zero():
    inst = _inst([[2]], [1], 2)
    res = mu_hat(inst, RatVector([0]))
    assert res.value == 1.0
    assert res.error == 0.0


def test_mu_hat_short_circuits_on_zero_factor():
    inst = _inst([[2]], [1], 2)
    res = mu_hat(inst, RatVector([1]))  # factor j=1 has phase 1/2
    assert res.value == 0.0
    assert res.error == 0.0
    four = _inst([[4]], [1], 2)
    assert mu_hat(four, RatVector([2])).value == 0.0


def test_mu_hat_lebesgue_values():
    # M=[2], q=2 gives Lebesgue measure on [0,1]; closed-form transform
    inst = _inst([[2]], [1], 2)
    half = mu_hat(inst, RatVector([Fraction(1, 2)]))
    assert abs(abs(half.value) - 2 / math.pi) < 1e-6
    assert half.error < 1e-6
    third = mu_hat(inst, RatVector([Fraction(1, 3)]))
    assert abs(abs(third.value) - 3 * math.sqrt(3) / (2 * math.pi)) < 1e-6


def test_mu_hat_modulus_bounded():
    inst = _inst([[2, 6, 4], [-1, 2, 2], [-1, -1, -4]], [0, 0, 1], 6)
    rng = random.Random(7)
    for _ in range(25):
        xi = RatVector([Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(3)])
        res = mu_hat(inst, xi)
        assert abs(res.value) <= 1 + res.error + 1e-12


def test_mu_hat_tightens_with_eps():
    inst = _inst([[2]], [1], 2)
    loose = mu_hat(inst, RatVector([Fraction(1, 2)]), tail_eps=1e-3)
    tight = mu_hat(inst, RatVector([Fraction(1, 2)]), tail_eps=1e-12)
    assert tight.error < loose.error
    assert tight.factors > loose.factors
    assert abs(loose.value - tight.value) <= loose.error + tight.error


@pytest.mark.parametrize("tail_eps", [0.0, -1.0, float("nan"), float("inf")])
def test_mu_hat_rejects_a_tail_bound_it_cannot_reach(tail_eps):
    inst = _inst([[4]], [1], 2)
    with pytest.raises(ValueError):
        mu_hat(inst, RatVector([Fraction(1, 3)]), tail_eps)
    with pytest.raises(ValueError):
        mu_hat(inst, RatVector([0]), tail_eps)


def test_mu_hat_with_subnormal_phases():
    # phases below the smallest normal float take the limit form of the
    # mask; the Dirichlet ratio there lost its digits in sin(pi t)
    inst = _inst([[4]], [1], 2)
    res = mu_hat(inst, RatVector([Fraction(1, 3)]), tail_eps=1e-320)
    assert abs(res.value - (0.9056006479768612 + 0.3296116799957629j)) < 1e-12
    # a tail below 1e-320 vanishes beside the rounding of 531 factors
    assert (res.factors, res.error) == (531, 531 * (8 * 2 + 16) * 2**-53)


def _reference_mu_hat(inst, xi, factors, mpmath):
    """mu_hat at xi in the working precision: the closed-form masks at the
    exact phases of mu_hat's factors and 40 more, or exactly 0 at an exact
    zero.  Each instance below contracts by at least 6^(-1/2) a factor, so
    the tail left out is under 0.41^40 times the one that mu_hat bounded."""
    _, adj_t, d, _, _ = fourier._contraction_data(inst.m)
    den = xi.denominator_lcm()
    a, q, product = [int(x * den) for x in xi], inst.q, mpmath.mpc(1)
    for _ in range(factors + 40):
        a, den = [sum(map(mul, row, a)) for row in adj_t.rows], den * d
        t = Fraction(sum(map(mul, a, inst.v.entries)), den) % 1
        if t and (q * t).denominator == 1:
            return mpmath.mpc(0)
        if t > Fraction(1, 2):
            t -= 1  # into (-1/2, 1/2] while exact, so no digit of t is lost
        if t:
            t = mpmath.mpf(t.numerator) / t.denominator
            product *= mpmath.expjpi((q - 1) * t) * mpmath.sinpi(q * t) / (q * mpmath.sinpi(t))
    return product


def test_mu_hat_error_bound_covers_float_rounding():
    # probes in [0, 1) over large denominators leave products near 1 after
    # many factors, where the tail bound alone (expm1 of the tail) was
    # exceeded by rounding, up to 4.5 times at tail_eps = 1e-15
    mpmath = pytest.importorskip("mpmath")
    insts = [_inst([[-4]], [1], 2), _inst([[3]], [1], 3), _inst([[0, 1], [6, 0]], [0, 1], 6),
             ProblemInstance(M_CUBE, V_CUBE, 6)]
    with mpmath.workdps(30):
        for inst in insts:
            rng = random.Random(1)
            for _ in range(40):
                xi = RatVector([Fraction(rng.random()).limit_denominator(10**9) for _ in range(inst.m.n)])
                for tail_eps in (1e-9, 1e-13, 1e-15):
                    res = mu_hat(inst, xi, tail_eps)
                    exact = _reference_mu_hat(inst, xi, res.factors, mpmath)
                    assert abs(exact - res.value) <= res.error, (inst.m, xi, tail_eps)


def test_mu_hat_rejects_non_contracting():
    shear = _RawInstance(IntMatrix([[1, 1], [0, 1]]), IntVector([1, 0]), 2)
    with pytest.raises(NonConvergent):
        mu_hat(shear, RatVector([1, 1]))


# ---------------------------------------------------------------------------
# orthogonality certification
# ---------------------------------------------------------------------------


def test_certify_orthogonal_basic():
    inst = _inst([[4]], [1], 2)
    cert = certify_orthogonal(inst, RatVector([0]), RatVector([2]))
    assert cert is not None
    assert cert.j == 1
    assert cert.phase == Fraction(1, 2)
    assert certify_orthogonal(inst, RatVector([0]), RatVector([1])) is None
    assert certify_orthogonal(inst, RatVector([0]), RatVector([Fraction(1, 2)])) is None


def test_certify_orthogonal_requires_distinct():
    inst = _inst([[4]], [1], 2)
    with pytest.raises(ValueError):
        certify_orthogonal(inst, RatVector([3]), RatVector([3]))


def test_certification_invariant_under_unimodular_conjugation():
    inst = _inst([[2, 6, 4], [-1, 2, 2], [-1, -1, -4]], [0, 0, 1], 6)
    u = IntMatrix([[1, 2, 0], [0, 1, 0], [1, 1, 1]])
    u_inv = inverse_unimodular(u)
    inst2 = ProblemInstance(u * inst.m * u_inv, u * inst.v, 6)
    rng = random.Random(19)
    for _ in range(30):
        a = RatVector([rng.randint(-12, 12) for _ in range(3)])
        b = RatVector([rng.randint(-12, 12) for _ in range(3)])
        if a == b:
            continue
        a2, b2 = map_spectrum(u, [a, b], "inverse")
        c1 = certify_orthogonal(inst, a, b, j_max=12)
        c2 = certify_orthogonal(inst2, a2, b2, j_max=12)
        assert (c1 is None) == (c2 is None)
        if c1 is not None:
            assert c1.j == c2.j and c1.phase == c2.phase


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


def test_witness_companion_frame():
    inst = _inst([[0, 1, 0], [0, 0, 1], [-36, 0, 0]], [0, 0, 1], 6)
    w = construct_witness(inst)
    assert w.alpha == RatVector([0, 0, Fraction(1, 6)])
    assert w.ell == 1
    assert w.image == IntVector([-6, 0, 0])
    assert w.phase == Fraction(1, 6)
    assert verify_witness(inst, w)


def test_witness_one_dimensional():
    inst = _inst([[4]], [1], 2)
    w = construct_witness(inst)
    assert w.alpha == RatVector([Fraction(1, 2)])
    assert w.ell == 1
    assert w.image == IntVector([2])
    assert verify_witness(inst, w)


def test_witness_reduced_frame():
    inst = ProblemInstance(M_DIAG, V_DIAG, 6)
    w = construct_witness(inst)
    assert w.ell == 1
    assert w.alpha == RatVector([Fraction(-1, 4), Fraction(-3, 4), Fraction(3, 4)])
    assert w.image == IntVector([2, 0, 0])
    assert w.phase == Fraction(1, 2)
    assert verify_witness(inst, w)


def test_witness_needs_deeper_iterate():
    # denominators of M^{-l} v stay coprime to q until l = 3
    inst = _inst([[0, 2], [3, 0]], [2, 0], 2)
    w = construct_witness(inst)
    assert w.ell == 3
    assert w.alpha == RatVector([Fraction(1, 4), 0])
    assert w.phase == Fraction(1, 2)
    assert verify_witness(inst, w)


def test_witness_full_rank_composite_gcd():
    inst = ProblemInstance(M_CUBE, V_CUBE, 8)
    w = construct_witness(inst)
    assert w.ell == 1
    assert w.phase == Fraction(1, 2)
    assert verify_witness(inst, w)


def test_witness_gcd_one_rejected():
    with pytest.raises(GcdOne):
        construct_witness(_inst([[3]], [1], 2))
    with pytest.raises(GcdOne):
        construct_witness(ProblemInstance(M_CUBE, V_CUBE, 5))


def test_verify_witness_rejects_bad_candidates():
    inst = _inst([[3]], [1], 2)
    assert not verify_witness(inst, Witness(RatVector([Fraction(1, 2)]), 1, Fraction(1, 2), IntVector([1])))
    four = _inst([[4]], [1], 2)
    assert not verify_witness(four, Witness(RatVector([3]), 1, Fraction(0), IntVector([12])))
    assert not verify_witness(four, Witness(RatVector([Fraction(1, 2)]), 0, Fraction(1, 2), IntVector([2])))
    assert not verify_witness(four, Witness(RatVector([Fraction(1, 2), 0]), 1, Fraction(1, 2), IntVector([2, 0])))


def _random_witness_instances():
    """Random expanding instances with q the least prime factor of |det m|,
    each paired with whether gcd(q, |det m1|) > 1, i.e. whether a witness
    must exist; drawn until 25 of them have one."""
    rng = random.Random(2718)
    out = []
    built = 0
    while built < 25:
        n = rng.randint(1, 3)
        m = IntMatrix(
            [
                [rng.randint(-3, 3) + (6 if i == j else 0) for j in range(n)]
                for i in range(n)
            ]
        )
        if not is_expanding(m):
            continue
        v = IntVector([rng.randint(-2, 2) for _ in range(n)])
        if v.is_zero():
            continue
        d = abs(det(m))
        p = next((p for p in range(2, d + 1) if d % p == 0), None)
        if p is None:
            continue
        inst = ProblemInstance(m, v, p)
        # gcd(q, det m1) may still be 1 when the leading block drops the
        # factor p; construct only when the precondition holds
        _, r = krylov(m, v)
        if r < n:
            from affinespectra.conjugation import block_decompose

            d1 = abs(det(block_decompose(m, v).m1))
        else:
            d1 = d
        constructible = math.gcd(p, d1) > 1
        built += constructible
        out.append((inst, constructible))
    return out


def test_witness_random_instances():
    for inst, constructible in _random_witness_instances():
        if not constructible:
            with pytest.raises(GcdOne):
                construct_witness(inst)
            continue
        w = construct_witness(inst)
        assert verify_witness(inst, w)


def _witness_over_fractions(inst):
    """(alpha, ell, phase, image) of construct_witness, computed by rational
    matrix arithmetic: inverse iterates of v1, powers of the rational
    inverse transpose and the rational inverse of the trailing block."""
    n = inst.m.n
    r, decomp, m1, v1 = inst.leading[:4]
    m1_inv = inverse(m1)
    cur, ell = v1.to_rat(), 0
    while True:
        cur, ell = m1_inv * cur, ell + 1
        den = cur.denominator_lcm()
        dstar = math.gcd(den, inst.q)
        if dstar > 1:
            break
    z = fourier._solve_phase_congruence(cur.scaled(den).to_int(), den, den // dstar)
    alpha1 = (m1_inv.transpose() ** ell) * z
    if decomp is None:
        alpha, image = alpha1, z
    else:
        pow_t = (decomp.b * inst.m * decomp.b_inv).transpose() ** ell
        coupling = pow_t.submatrix(range(r, n), range(r))
        tail = (inverse(pow_t.submatrix(range(r, n), range(r, n))) * (coupling * alpha1)).scaled(-1)
        alpha = decomp.b.transpose().to_rat() * RatVector(list(alpha1) + list(tail))
        image = decomp.b.transpose() * IntVector(list(z) + [0] * (n - r))
    return alpha, ell, alpha.dot(inst.v) % 1, image


def _random_block_witness_instances(count):
    """Instances U [[B1, C], [0, B2]] U^-1, v = U (x, 0), with B1 a companion
    block whose determinant shares the prime q, so a witness exists; the
    leading block has rank r < n for about half of them."""
    rng = random.Random(31415)
    out = []
    while len(out) < count:
        n = rng.randint(1, 4)
        r = rng.randint(1, n)
        q = rng.choice((2, 3))
        coeffs = [q * rng.choice((-3, -2, -1, 1, 2, 3))] + [rng.randint(-2, 2) for _ in range(r - 1)]
        rows = [[0] * n for _ in range(n)]
        for i in range(1, r):
            rows[i][i - 1] = 1
        for i in range(r):
            rows[i][r - 1] = -coeffs[i]
        for i in range(r, n):
            rows[i][i] = rng.choice((-5, -4, 4, 5, 7))
            for j in range(i + 1, n):
                rows[i][j] = rng.randint(-2, 2)
        for i in range(r):
            for j in range(r, n):
                rows[i][j] = rng.randint(-2, 2)
        u = IntMatrix.identity(n)
        for _ in range(2 * n):
            i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
            if i != j:
                e = [[int(a == b) + (rng.choice((-1, 1)) if (a, b) == (i, j) else 0)
                      for b in range(n)] for a in range(n)]
                u = u * IntMatrix(e)
        m = u * IntMatrix(rows) * inverse_unimodular(u)
        x = [0] * n
        x[0] = rng.choice((1, 2, 3))
        if not is_expanding(m):
            continue
        out.append(ProblemInstance(m, u * IntVector(x), q))
    return out


def test_witness_matches_rational_construction():
    insts = [
        _inst([[0, 1, 0], [0, 0, 1], [-36, 0, 0]], [0, 0, 1], 6),
        ProblemInstance(M_DIAG, V_DIAG, 6),
        _inst([[0, 2], [3, 0]], [2, 0], 2),
        ProblemInstance(M_CUBE, V_CUBE, 8),
        *(inst for inst, constructible in _random_witness_instances() if constructible),
        *_random_block_witness_instances(60),
    ]
    reduced = deep = 0
    for inst in insts:
        w = construct_witness(inst)
        assert (w.alpha, w.ell, w.phase, w.image) == _witness_over_fractions(inst), inst.m
        assert w.verified
        reduced += inst.leading.decomp is not None
        deep += w.ell > 1
    assert reduced >= 10 and deep >= 5, (reduced, deep)


def _conjugated_witness_instance(seed):
    """M = U [[B1, C], [0, B2]] U^-1, v = U (s e_k, 0), n <= 10, U built by
    elementary row operations as test_linalg._krylov_basis builds it: B1
    the companion of x^r + ... + a0 with the prime q dividing a0, whose
    inverse iterates of e_k stay integral for k steps, so the witness depth
    reaches k + 1; B2 upper triangular with diagonal +-2 or +-3.  r = n
    about a quarter of the time.  None when M is not expanding."""
    rng = random.Random(seed)
    n = rng.randint(1, 10)
    r = n if rng.random() < 0.25 else rng.randint(1, n)
    q = rng.choice((2, 3))
    coeffs = [q * rng.choice((-3, -2, -1, 1, 2, 3))]
    coeffs += [rng.choice((0, 0, 0, -1, 1)) for _ in range(r - 1)]
    blk = [[0] * n for _ in range(n)]
    for i in range(r):
        if i + 1 < r:
            blk[i + 1][i] = 1
        blk[i][r - 1] = -coeffs[i]
        for j in range(r, n):
            blk[i][j] = rng.randint(-2, 2)
    for i in range(r, n):
        blk[i][i] = rng.choice((-3, -2, 2, 3))
        for j in range(i + 1, n):
            blk[i][j] = rng.randint(-2, 2)
    u, u_inv = ([[int(i == j) for j in range(n)] for i in range(n)] for _ in range(2))
    for _ in range(rng.randint(0, 3 * n) if n > 1 else 0):
        # U <- (I + c e_i e_j^T) U, so U^-1 <- U^-1 (I - c e_i e_j^T)
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        for row in u_inv:
            row[j] -= c * row[i]
    m = IntMatrix(u) * IntMatrix(blk) * IntMatrix(u_inv)
    if not is_expanding(m):
        return None
    x = [0] * n
    x[rng.randrange(r)] = rng.choice((-1, 1))
    return ProblemInstance(m, IntMatrix(u) * IntVector(x), q)


def _check_witness_draw(inst):
    """The witness equals the rational construction, and a decomposition's
    block is b M b^-1 with the rational inverse of b."""
    w = construct_witness(inst)
    assert w.verified
    assert (w.alpha, w.ell, w.phase, w.image) == _witness_over_fractions(inst), inst.m
    decomp = inst.leading.decomp
    if decomp is not None:
        b = decomp.b.to_rat()
        assert b * inst.m.to_rat() * inverse(b) == decomp.block
    return w


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**32).map(_conjugated_witness_instance))
def test_witness_matches_rational_construction_on_conjugates(inst):
    assume(inst is not None)
    _check_witness_draw(inst)


def test_conjugated_witness_draws_cover_both_frames_and_depth():
    # fixed seeds of the same construction cover what the drawn ones may
    # miss: reduced and full rank, a block past the packed product's
    # threshold, and a witness deeper than one step in each frame
    insts = [_conjugated_witness_instance(seed) for seed in range(40)]
    seen = set()
    for inst in filter(None, insts):
        w = _check_witness_draw(inst)
        seen.add((inst.leading.decomp is None, w.ell > 1, inst.m.n >= 5))
    assert {(False, True), (True, True)} <= {key[:2] for key in seen}, seen
    assert (False, True, True) in seen, seen


def test_witness_makes_no_rational_matrix_product(monkeypatch):
    # reduced frame and depth 3: the paths that took rational matrix powers
    insts = [ProblemInstance(M_DIAG, V_DIAG, 6), _inst([[0, 2], [3, 0]], [2, 0], 2)]
    for inst in insts:
        inst.leading  # built before the spies go in

    def refuse(*args):
        raise AssertionError("rational matrix arithmetic in construct_witness")

    monkeypatch.setattr(RatMatrix, "__mul__", refuse)
    monkeypatch.setattr(RatMatrix, "__pow__", refuse)
    # fourier binds no inverse of its own; the spy there catches one added back
    for module in (linalg, fourier):
        monkeypatch.setattr(module, "inverse", refuse, raising=False)
    for inst in insts:
        assert construct_witness(inst).verified


def _integral_by_exact_power(inst, w):
    """verify_witness with the image (M*)^ell alpha computed over the
    rationals, as the direct definition states it."""
    if len(w.alpha) != inst.m.n or w.ell < 1:
        return False
    if not mask_is_zero_exact(inst, w.alpha):
        return False
    return ((inst.m.transpose().to_rat() ** w.ell) * w.alpha).is_integral()


def test_verify_witness_matches_exact_power():
    # every witness built above, at its own depth and at nearby depths,
    # with its frequency shifted, and the hand-made bad candidates
    insts = [
        _inst([[0, 1, 0], [0, 0, 1], [-36, 0, 0]], [0, 0, 1], 6),
        _inst([[4]], [1], 2),
        ProblemInstance(M_DIAG, V_DIAG, 6),
        _inst([[0, 2], [3, 0]], [2, 0], 2),
        ProblemInstance(M_CUBE, V_CUBE, 8),
        *(inst for inst, constructible in _random_witness_instances() if constructible),
    ]
    cases = [
        (_inst([[3]], [1], 2), Witness(RatVector([Fraction(1, 2)]), 1, Fraction(1, 2), IntVector([1]))),
        (_inst([[4]], [1], 2), Witness(RatVector([3]), 1, Fraction(0), IntVector([12]))),
        (_inst([[4]], [1], 2), Witness(RatVector([Fraction(1, 2)]), 0, Fraction(1, 2), IntVector([2]))),
    ]
    for inst in insts:
        w = construct_witness(inst)
        n = inst.m.n
        for ell in {1, w.ell - 1, w.ell, w.ell + 1, 2 * w.ell + 3}:
            for shift in (Fraction(0), Fraction(1, 3), Fraction(1, 4)):
                alpha = w.alpha + RatVector([shift] + [0] * (n - 1))
                cases.append((inst, Witness(alpha, ell, w.phase, w.image)))
    valid = 0
    for inst, w in cases:
        expected = _integral_by_exact_power(inst, w)
        assert verify_witness(inst, w) == expected, (inst.m, w.alpha, w.ell)
        valid += expected
    assert 0 < valid < len(cases)


def _witness_properties(inst, w):
    """Both witness properties over Fractions, from their definitions: the
    mask vanishes at alpha (<v, alpha> is not an integer, q <v, alpha> is)
    and (M^T)^ell alpha is integral, by ell matrix-vector products."""
    rows, n = inst.m.rows, inst.m.n
    alpha = [Fraction(e) for e in w.alpha]
    if len(alpha) != n or w.ell < 1:
        return False
    phase = sum(a * b for a, b in zip(alpha, inst.v))
    if phase.denominator == 1 or (inst.q * phase).denominator != 1:
        return False
    for _ in range(w.ell):
        alpha = [sum(rows[j][i] * alpha[j] for j in range(n)) for i in range(n)]
    return all(a.denominator == 1 for a in alpha)


@st.composite
def _witness_cases(draw):
    """A constructed witness of a conjugated instance, as it is or with its
    alpha (one entry shifted, scaled, cleared of denominators, of another
    length, or moved by (M^T)^-k e_i for k <= ell, which keeps (M^T)^ell
    alpha integral and moves only the mask's phase), ell, phase or image
    corrupted."""
    inst = _conjugated_witness_instance(draw(st.integers(0, 2**32)))
    assume(inst is not None)
    w = construct_witness(inst)
    n = inst.m.n
    alpha, ell, phase, image = w.alpha, w.ell, w.phase, w.image
    kind = draw(st.sampled_from(["none", "shift", "scale", "integral", "length", "lattice", "ell", "phase",
                                 "image"]))
    if kind == "lattice":
        i = draw(st.integers(0, n - 1))
        e_i = RatVector([int(j == i) for j in range(n)])
        alpha = alpha + (inverse(inst.m).transpose() ** draw(st.integers(1, ell))) * e_i
    elif kind == "shift":
        i = draw(st.integers(0, n - 1))
        shift = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 12)))
        alpha = RatVector(e + shift * (j == i) for j, e in enumerate(alpha))
    elif kind == "scale":
        alpha = alpha.scaled(draw(st.sampled_from([-1, 2, 3, Fraction(1, 2)])))
    elif kind == "integral":
        alpha = alpha.scaled(alpha.denominator_lcm()).to_int()
    elif kind == "length":
        alpha = RatVector(list(alpha) + [Fraction(1, 2)])
    elif kind == "ell":
        ell = draw(st.sampled_from([-1, 0, 1, ell - 1, ell + 1, 2 * ell + 3]))
    elif kind == "phase":
        phase += Fraction(1, draw(st.integers(2, 9)))
    elif kind == "image":
        image = image + IntVector([1] + [0] * (n - 1))
    return inst, Witness(alpha, ell, phase, image)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_witness_cases())
def test_verify_witness_matches_the_fraction_oracle(case):
    inst, w = case
    assert verify_witness(inst, w) is _witness_properties(inst, w)


@pytest.mark.parametrize("ell, squarings", [(1, 0), (2, 1), (3, 1), (4, 2), (2**40, 40)])
def test_verify_witness_squares_only_while_bits_remain(monkeypatch, ell, squarings):
    # (M*)^ell alpha is one vector power: no matrix-matrix product at
    # ell = 1, and one squaring per bit of ell after the lowest
    inst = ProblemInstance(M_CUBE, V_CUBE, 8)
    w = construct_witness(inst)
    products = []
    original = linalg._mat_mul
    monkeypatch.setattr(linalg, "_mat_mul", lambda a, b: products.append(a) or original(a, b))
    assert verify_witness(inst, Witness(w.alpha, ell, w.phase, w.image))
    assert len(products) == squarings


def test_witness_holds_at_any_larger_depth():
    # (M*)^ell alpha stays integral at every depth past the witness's own;
    # the integrality check powers the matrix modulo the denominator, in
    # about log2(ell) steps, so a depth of 10^100 decides in well under 1 s
    inst = ProblemInstance(M_DIAG, V_DIAG, 6)
    w = construct_witness(inst)
    for alpha, holds in ((w.alpha, True), (RatVector([Fraction(1, 3), 0, 0]), False)):
        start = time.perf_counter()
        assert verify_witness(inst, Witness(alpha, 10**100, w.phase, w.image)) is holds
        assert time.perf_counter() - start < 1.0


def _oracle_family(inst, w, count):
    """lambda_k = sum_{i=1}^{k} (M*)^{i ell} alpha for k < count, by rational
    matrix powers: any two differ by (M*)^j applied to alpha plus an
    integer vector, so the mask kills factor j and every pair certifies."""
    step = inst.m.transpose().to_rat() ** w.ell
    term, family = w.alpha, [RatVector([0] * inst.m.n)]
    for _ in range(count - 1):
        term = step * term
        family.append(family[-1] + term)
    return family


def test_witness_family_realizes_orthogonality():
    inst = _inst([[4]], [1], 2)
    w = construct_witness(inst)
    family = _oracle_family(inst, w, 20)
    assert family[:4] == [RatVector([0]), RatVector([2]), RatVector([10]), RatVector([42])]
    for i in range(20):
        for j in range(i + 1, 20):
            cert = certify_orthogonal(inst, family[i], family[j], j_max=25)
            assert cert is not None
            assert cert.j <= 20


def test_witness_family_reduced_case():
    inst = ProblemInstance(M_DIAG, V_DIAG, 6)
    w = construct_witness(inst)
    family = _oracle_family(inst, w, 8)
    assert family[0].is_zero()
    for lam in family:
        assert lam.is_integral()
    for i in range(8):
        for j in range(i + 1, 8):
            assert certify_orthogonal(inst, family[i], family[j], j_max=10) is not None


def test_mu_hat_vanishes_on_certified_pairs():
    inst = ProblemInstance(M_DIAG, V_DIAG, 6)
    w = construct_witness(inst)
    family = _oracle_family(inst, w, 5)
    for lam in family[1:]:
        assert mu_hat(inst, lam).value == 0.0

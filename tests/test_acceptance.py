"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with -s (or read pytest's own PASSED/FAILED column) to see the lines.
Every numeric tolerance and time bound is stated inline.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

import numpy as np

from affinespectra.classify import ProblemInstance, Verdict, classify
from affinespectra.conjugation import block_decompose, companion_conjugate, companion_matrix
from affinespectra.evidence import chaos_game, completeness_defect, max_orthogonal_clique
from affinespectra.fourier import (
    certify_orthogonal,
    mask,
    mask_is_zero_exact,
    mu_hat,
    verify_witness,
)
from affinespectra.hadamard import candidate_spectrum, construct_dual_digits, verify_hadamard
from affinespectra.linalg import (
    IntMatrix,
    IntPolynomial,
    IntVector,
    RatVector,
    char_poly,
    det,
    is_expanding,
)

from oracles import eval_matrix, inverse_unimodular

M_CUBE = IntMatrix([[2, 6, 4], [-1, 2, 2], [-1, -1, -4]])  # char poly x^3 + 36
V_CUBE = IntVector([0, 0, 1])
M_DIAG = IntMatrix([[1, -3, 3], [3, -5, 3], [6, -6, 4]])  # eigenvalues 4, -2, -2
V_DIAG = IntVector([1, 1, 2])


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[criterion] {name}: FAIL")
        raise
    print(f"[criterion] {name}: PASS")


def _random_unimodular(rng, n):
    u = IntMatrix.identity(n)
    for _ in range(3 * n):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        rows = [list(r) for r in u.rows]
        if kind == 0 and i != j:
            c = rng.randint(-2, 2)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        elif kind == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-a for a in rows[i]]
        u = IntMatrix(rows)
    if abs(det(u)) != 1:
        raise ValueError(f"{u!r} is not unimodular")
    return u


def test_criterion_01_divisor_table_for_cubic_fixture():
    spectral_q = {2, 3, 4, 6, 9, 12, 18, 36}
    start = time.perf_counter()
    with criterion("1 cubic fixture q=2..40 divisor table, < 5 s"):
        for q in range(2, 41):
            verdict = classify(ProblemInstance(M_CUBE, V_CUBE, q)).verdict
            if q in spectral_q:
                assert verdict == Verdict.SPECTRAL, (q, verdict)
            else:
                assert verdict != Verdict.SPECTRAL, (q, verdict)
            if gcd(q, 36) > 1:
                assert verdict in (
                    Verdict.SPECTRAL,
                    Verdict.NOT_SPECTRAL_INFINITE_ORTHOGONALS,
                ), (q, verdict)
            else:
                assert verdict == Verdict.NOT_SPECTRAL_FINITELY_MANY, (q, verdict)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_criterion_02_rank_deficient_fixture_verdicts_and_blocks():
    with criterion("2 rank-deficient fixture verdicts and block decomposition"):
        expected = {
            6: Verdict.NOT_SPECTRAL_INFINITE_ORTHOGONALS,
            2: Verdict.SPECTRAL,
            4: Verdict.SPECTRAL,
            3: Verdict.NOT_SPECTRAL_FINITELY_MANY,
        }
        for q, want in expected.items():
            got = classify(ProblemInstance(M_DIAG, V_DIAG, q)).verdict
            assert got == want, (q, got)
        decomp = block_decompose(M_DIAG, V_DIAG)
        assert decomp.r == 1
        assert decomp.m1 == IntMatrix([[4]])
        assert decomp.m2 == IntMatrix([[-2, 0], [0, -2]])
        # contract-level invariants a different valid witness must share
        assert det(decomp.m1) == 4
        assert char_poly(decomp.m2).coeffs == (4, 4, 1)


def test_criterion_03_certificate_soundness_zero_tolerance():
    with criterion("3 every emitted certificate re-verifies exactly"):
        instances = [ProblemInstance(M_CUBE, V_CUBE, q) for q in range(2, 41)]
        instances += [ProblemInstance(M_DIAG, V_DIAG, q) for q in (2, 3, 4, 6)]
        instances += [
            ProblemInstance(IntMatrix([[b]]), IntVector([1]), q)
            for q in range(2, 13)
            for b in range(2, 13)
        ]
        hadamard_count = witness_count = 0
        for inst in instances:
            cert = classify(inst).certificate
            if cert.kind == "hadamard":
                hadamard_count += 1
                triple = cert.triple
                assert verify_hadamard(triple.m, triple.digits, triple.duals)
            elif cert.kind == "witness":
                witness_count += 1
                assert verify_witness(inst, cert.witness)
        # 8 cubic divisors + 2 reduced + 23 one-dimensional q | b cases
        assert hadamard_count == 33 and witness_count >= 20


def test_criterion_04_conjugation_invariance_suite():
    rng = random.Random(20260817)
    with criterion("4 verdicts invariant under 5 unimodular conjugations x 50"):
        checked = 0
        while checked < 50:
            n = rng.randint(1, 4)
            m = IntMatrix(
                [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            )
            if not is_expanding(m):
                continue
            v = IntVector([rng.randint(-3, 3) for _ in range(n)])
            if v.is_zero():
                continue
            q = rng.randint(2, 8)
            base = classify(ProblemInstance(m, v, q))
            p = char_poly(m)
            for _ in range(5):
                u = _random_unimodular(rng, n)
                u_inv = inverse_unimodular(u)
                m2 = u * m * u_inv
                v2 = u * v
                other = classify(ProblemInstance(m2, v2, q))
                assert other.verdict == base.verdict
                assert char_poly(m2) == p
                residual = eval_matrix(p, m2)
                assert all(x == 0 for row in residual.rows for x in row)
            checked += 1


def test_criterion_05_one_dimensional_regression_table():
    start = time.perf_counter()
    with criterion("5 all 121 one-dimensional cases, < 1 s"):
        cases = 0
        for b in range(2, 13):
            for q in range(2, 13):
                verdict = classify(
                    ProblemInstance(IntMatrix([[b]]), IntVector([1]), q)
                ).verdict
                if b % q == 0:
                    assert verdict == Verdict.SPECTRAL, (b, q)
                elif gcd(q, b) > 1:
                    assert verdict == Verdict.NOT_SPECTRAL_INFINITE_ORTHOGONALS, (b, q)
                else:
                    assert verdict == Verdict.NOT_SPECTRAL_FINITELY_MANY, (b, q)
                cases += 1
        assert cases == 121
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_06_exhaustive_orthogonality_at_depth_two():
    with criterion("6 all 630 depth-2 frequency pairs certified with j <= 2"):
        comp = IntMatrix([[0, 1, 0], [0, 0, 1], [-36, 0, 0]])
        e3 = IntVector([0, 0, 1])
        inst = ProblemInstance(comp, e3, 6)
        triple = construct_dual_digits(companion_conjugate(comp, e3), 6)
        assert triple.verify()
        spectrum = candidate_spectrum(triple, 2)
        freqs = spectrum.frequencies
        assert len(freqs) == 36
        pairs = 0
        for i in range(36):
            for j in range(i + 1, 36):
                cert = certify_orthogonal(inst, freqs[i], freqs[j], j_max=2)
                assert cert is not None, (i, j)
                assert cert.j <= 2
                pairs += 1
        assert pairs == 630


def test_criterion_07_completeness_defect_window():
    with criterion("7 defect in [-1e-9, 0.05] at 10 probes, Q_k monotone k=2..8"):
        inst = ProblemInstance(IntMatrix([[4]]), IntVector([1]), 2)
        triple = construct_dual_digits(companion_conjugate(inst.m, inst.v), 2)
        assert triple.verify()
        probes = [RatVector([Fraction(t, 20)]) for t in range(10)]
        q_by_depth = []
        for depth in range(2, 9):
            spectrum = candidate_spectrum(triple, depth)
            report = completeness_defect(inst, spectrum, probes, tail_eps=1e-9)
            q_by_depth.append([1.0 - d for d in report.defects])
        for prev, cur in zip(q_by_depth, q_by_depth[1:]):
            for a, b in zip(prev, cur):
                assert b >= a - 1e-12  # adding frequencies only adds mass
        for d in [1.0 - q for q in q_by_depth[-1]]:
            assert -1e-9 <= d <= 0.05, d


def test_criterion_08_clique_dichotomy():
    start = time.perf_counter()
    with criterion("8 clique size flat at 2 vs growing to >= 8, < 30 s"):
        tight = ProblemInstance(IntMatrix([[3]]), IntVector([1]), 2)
        sizes = [
            max_orthogonal_clique(tight, 2, n_box).max_clique_size
            for n_box in (10, 20, 40)
        ]
        assert sizes == [2, 2, 2], sizes
        rich = ProblemInstance(IntMatrix([[4]]), IntVector([1]), 2)
        assert max_orthogonal_clique(rich, 1, 10).max_clique_size >= 4
        assert max_orthogonal_clique(rich, 1, 42).max_clique_size >= 8
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f} s"


def test_criterion_09_numeric_exact_agreement():
    rng = random.Random(4242)
    with criterion("9 exact zero test matches 1e-12 numerics; unitarity matches 1e-10"):
        instances = [
            ProblemInstance(IntMatrix([[7]]), IntVector([1]), 3),
            ProblemInstance(M_CUBE, V_CUBE, 6),
        ]
        for _ in range(10000):
            inst = rng.choice(instances)
            xi = RatVector(
                [
                    Fraction(rng.randint(-50, 50), rng.randint(1, 100))
                    for _ in range(inst.m.n)
                ]
            )
            assert mask_is_zero_exact(inst, xi) == (abs(mask(inst, xi)) < 1e-12)
        def gram_defect(mm, digits, duals):
            mi = np.linalg.inv(np.array(mm.rows, dtype=float))
            phases = np.array(
                [
                    [float((mi @ np.array(list(d), dtype=float)) @ np.array(list(s), dtype=float)) for s in duals]
                    for d in digits
                ]
            )
            h = np.exp(2j * np.pi * phases)
            q = len(digits)
            return np.abs(h.conj().T @ h - q * np.eye(q)).max()

        checked = 0
        while checked < 100:
            n = rng.randint(1, 3)
            c = rng.choice([-36, -12, -8, 8, 12, 16, 27, 36])
            m = companion_matrix(IntPolynomial([c] + [0] * (n - 1) + [1]))
            if not is_expanding(m):
                continue
            divisors = [q for q in range(2, abs(c) + 1) if abs(c) % q == 0]
            q = rng.choice(divisors)
            v = IntVector([0] * (n - 1) + [1])
            triple = construct_dual_digits(companion_conjugate(m, v), q)
            assert verify_hadamard(triple.m, triple.digits, triple.duals)
            assert gram_defect(triple.m, triple.digits, triple.duals) < 1e-10
            if q > 2:
                bad = list(triple.duals)
                bad[1] = bad[1] + IntVector([1] * n)
                exact_bad = verify_hadamard(triple.m, triple.digits, bad)
                numeric_bad = gram_defect(triple.m, triple.digits, bad) < 1e-10
                assert exact_bad == numeric_bad
            checked += 1


def test_criterion_10_monte_carlo_consistency():
    n_points = 100000
    bound = 3 / math.sqrt(n_points)
    with criterion("10 empirical transform within 3/sqrt(1e5) at 20 probes x 3 fixtures"):
        fixtures = [
            ProblemInstance(IntMatrix([[2]]), IntVector([1]), 2),
            ProblemInstance(M_CUBE, V_CUBE, 6),
            ProblemInstance(M_DIAG, V_DIAG, 4),
        ]
        prng = random.Random(777)
        for inst in fixtures:
            sample = chaos_game(inst, n_points, seed=202)
            n = inst.m.n
            done = 0
            while done < 20:
                xi = RatVector(
                    [Fraction(prng.randint(-3, 3), prng.randint(1, 5)) for _ in range(n)]
                )
                if xi.is_zero():
                    continue
                w = np.array([float(c) for c in xi])
                empirical = np.exp(2j * np.pi * (sample.points @ w)).mean()
                exact = mu_hat(inst, xi).value
                assert abs(empirical - exact) < bound, (inst.q, str(xi))
                done += 1

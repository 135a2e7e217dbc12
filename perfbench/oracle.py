"""Correctness oracles, computed apart from the package.

Exact arithmetic here is the benchmark's own (Fraction Gauss-Jordan,
plain matrix-vector products); nothing is imported from the package, so a
fault in the program's linear algebra cannot hide itself.  Each check
returns None when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd

import numpy as np

SPECTRAL = "spectral"
NOT_SPECTRAL_INFINITE = "not_spectral_infinite_orthogonals"
NOT_SPECTRAL_FINITE = "not_spectral_finitely_many"
INFINITE_UNKNOWN = "infinite_orthogonals_spectrality_unknown"
UNKNOWN = "unknown"

CERTIFICATE_OF = {
    SPECTRAL: "hadamard",
    NOT_SPECTRAL_INFINITE: "witness",
    INFINITE_UNKNOWN: "witness",
    NOT_SPECTRAL_FINITE: "condition-only",
    UNKNOWN: "condition-only",
}

GRAM_TOLERANCE = 1e-9
BESSEL_SLACK = 1e-9
DEFECT_CEILING = 0.05


# ---------------------------------------------------------------------------
# exact arithmetic
# ---------------------------------------------------------------------------


def inverse(rows):
    """Exact inverse of a nonsingular square integer or rational matrix."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for i in range(n):
            f = aug[i][col]
            if i != col and f:
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def det(rows):
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    out = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            out = -out
        out *= a[col][col]
        for i in range(col + 1, n):
            f = a[i][col] / a[col][col]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return int(out)


def matvec(rows, x):
    return [sum((Fraction(a) * b for a, b in zip(row, x)), Fraction(0)) for row in rows]


def dot(x, y):
    return sum((Fraction(a) * b for a, b in zip(x, y)), Fraction(0))


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def kills_mask(q, t):
    """The digit sum (1/q) sum_k e^{2 pi i k t} vanishes: t in (1/q)Z \\ Z."""
    return t.denominator != 1 and (q * t).denominator == 1


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def dai_he_lai_verdict(b, q):
    """One-dimensional rule for [[b]] with digits {0, ..., q-1}."""
    if b % q == 0:
        return SPECTRAL
    if gcd(q, b) > 1:
        return NOT_SPECTRAL_INFINITE
    return NOT_SPECTRAL_FINITE


def expected_verdict(case):
    """Verdict from the facts the construction fixed: q | det M1 gives a
    spectral measure; for a pure-power leading block the gcd decides the
    two non-spectral cases; otherwise only a witness (gcd > 1) is known."""
    if case.one_dim_b is not None:
        return dai_he_lai_verdict(case.one_dim_b, case.q)
    g = gcd(case.q, case.det_m1)
    if case.det_m1 % case.q == 0:
        return SPECTRAL
    if case.pure_c is not None:
        return NOT_SPECTRAL_INFINITE if g > 1 else NOT_SPECTRAL_FINITE
    return INFINITE_UNKNOWN if g > 1 else UNKNOWN


def check_conditions(case, r, det_m1, gcd_q, q_divides, pure_c):
    want = (case.r, case.det_m1, gcd(case.q, case.det_m1),
            case.det_m1 % case.q == 0, case.pure_c)
    got = (r, det_m1, gcd_q, q_divides, pure_c)
    if got != want:
        return f"{case.label}: conditions (r, det M1, gcd, q|det, c) = {got}, expected {want}"
    return None


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def check_hadamard(case, matrix, digits, duals):
    """Numeric Gram test |H* H - qI| < 1e-9 on exact phases, plus the tie
    of the certificate to the instance: q digits and |det| = |det M1|."""
    q = case.q
    if len(digits) != q or len(duals) != q:
        return f"{case.label}: certificate has {len(digits)} digits for q = {q}"
    if abs(det(matrix)) != abs(case.det_m1):
        return f"{case.label}: certificate matrix has |det| {abs(det(matrix))}, expected {abs(case.det_m1)}"
    m_inv = inverse(matrix)
    pre = [matvec(m_inv, d) for d in digits]
    theta = np.array([[float(dot(x, s) % 1) for s in duals] for x in pre])
    h = np.exp(2j * np.pi * theta)
    defect = float(np.abs(h.conj().T @ h - q * np.eye(q)).max())
    if not defect < GRAM_TOLERANCE:
        return f"{case.label}: Gram defect {defect:.3g} of the hadamard certificate"
    return None


def check_witness(case, alpha, ell, phase, image):
    """<v, alpha> in (1/q)Z \\ Z, phase = <v, alpha> mod 1, and
    (M^T)^ell alpha integral and equal to the recorded image."""
    t = dot(case.v, alpha)
    if not kills_mask(case.q, t):
        return f"{case.label}: witness phase {t} does not kill the mask"
    if Fraction(phase) != t % 1:
        return f"{case.label}: witness phase field {phase} != <v, alpha> mod 1 = {t % 1}"
    if ell < 1:
        return f"{case.label}: witness depth {ell}"
    mt = transpose(case.matrix)
    x = list(alpha)
    for _ in range(ell):
        x = matvec(mt, x)
    if any(e.denominator != 1 for e in x):
        return f"{case.label}: (M^T)^ell alpha is not integral"
    if [int(e) for e in x] != [int(Fraction(e)) for e in image]:
        return f"{case.label}: witness image field differs from (M^T)^ell alpha"
    return None


# ---------------------------------------------------------------------------
# evidence
# ---------------------------------------------------------------------------


def check_defects(task, defects):
    for xi, d in zip(task.probes, defects):
        if d < -BESSEL_SLACK:
            return f"{task.case.label}: defect {d:.3g} at {xi} breaks the Bessel bound"
        if task.window and d > DEFECT_CEILING:
            return f"{task.case.label}: defect {d:.3g} at {xi} above {DEFECT_CEILING}"
    if len(defects) != len(task.probes):
        return f"{task.case.label}: {len(defects)} defects for {len(task.probes)} probes"
    return None


def _inverse_iterates(case, count):
    """M^-j v for j = 1..count, exactly."""
    m_inv = inverse(case.matrix)
    out = []
    cur = [Fraction(x) for x in case.v]
    for _ in range(count):
        cur = matvec(m_inv, cur)
        out.append(cur)
    return out


def check_clique(task, size, witness_set, certified):
    """Every pair of the witness set is certified orthogonal by a factor j
    found here; a one-dimensional leading block coprime to q admits at most
    q mutually orthogonal exponentials (exactly 2 when q = 2)."""
    case = task.case
    if size != len(witness_set) or not certified:
        return f"{case.label}: clique report size {size}, {len(witness_set)} points, certified={certified}"
    if any(x != 0 for x in witness_set[0]):
        return f"{case.label}: clique does not start at 0"
    j_max = 3 * case.n + 64
    iterates = _inverse_iterates(case, j_max)
    for i, a in enumerate(witness_set):
        for b in witness_set[i + 1:]:
            delta = [x - y for x, y in zip(a, b)]
            if not any(kills_mask(case.q, dot(delta, it) % 1) for it in iterates):
                return f"{case.label}: clique pair {a}, {b} has no vanishing factor"
    if case.one_dim_b is not None and gcd(case.q, case.one_dim_b) == 1:
        if size > case.q or (case.q == 2 and size != 2):
            return f"{case.label}: coprime clique of size {size} with q = {case.q}"
    return None


def attractor_bound(case):
    """Sup-norm radius of the attractor from the construction's own
    inverse: (q-1)|v|_inf sum_j |M^-j|_inf, with the geometric tail."""
    m_inv = inverse(case.matrix)
    n = len(m_inv)
    power = m_inv
    partial = Fraction(0)
    dmax = (case.q - 1) * max(abs(e) for e in case.v)
    for _ in range(20 * n):
        rho = max(sum(abs(x) for x in row) for row in power)
        partial += rho
        if rho < 1:
            return float(dmax * partial / (1 - rho))
        power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*m_inv)] for row in power]
    raise ValueError(f"{case.label}: no inverse power contracts")


def check_sample(task, points, radius, transforms):
    """Points inside the attractor radius; empirical transforms within
    3/sqrt(N) of the exact ones at the task's probes."""
    case = task.case
    if points.shape != (task.iterations, case.n):
        return f"{case.label}: sample shape {points.shape}"
    reach = float(np.abs(points).max())
    if not reach <= radius * (1 + 1e-12):
        return f"{case.label}: sample reaches {reach:.6g} beyond the radius {radius:.6g}"
    bound = 3 / math.sqrt(task.iterations)
    for xi, exact in zip(task.probes, transforms):
        w = np.array([float(c) for c in xi])
        empirical = np.exp(2j * np.pi * (points @ w)).mean()
        if not abs(empirical - exact) < bound:
            return (f"{case.label}: empirical transform at {xi} is "
                    f"{abs(empirical - exact):.3g} from mu_hat, bound {bound:.3g}")
    return None

"""Benchmark inputs, generated from the workload name and the seed.

Nothing here imports the package.  Every instance is built as
M = U B U^-1 with U unimodular and B block upper triangular,

    B = [[B1, C], [0, B2]],   v = U (x, 0),

where B1 is the companion matrix of a chosen monic polynomial p of degree
r and x is a cyclic vector of B1.  The construction fixes the facts the
classifier must find: the Krylov rank is r, det M1 = det B1 = (-1)^r p(0),
and the pure-power constant is p(0) when p = x^r + p(0).  The oracles in
``oracle.py`` turn those facts into the expected verdict.

The seed moves what changes the cost of a round little: signs, the
unimodular conjugator, coupling and trailing blocks, general polynomial
coefficients, digit direction and the completeness probes.  Sizes,
dimensions, digit counts and entry bit sizes are fixed per workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("q-sweep", "dim-sweep", "evidence", "cli")


@dataclass(frozen=True)
class Case:
    """One (M, v, q) instance and the facts its construction fixes."""

    label: str
    matrix: tuple
    v: tuple
    q: int
    r: int
    det_m1: int
    pure_c: int | None
    # the b of a one-dimensional leading block [[b]], for the Dai-He-Lai rule
    one_dim_b: int | None = None

    @property
    def n(self) -> int:
        return len(self.v)


@dataclass(frozen=True)
class CompletenessTask:
    case: Case
    depth: int
    probes: tuple
    # the [-1e-9, 0.05] window is a statement about deep two-sided
    # truncations; every task is held to the Bessel bound
    window: bool
    # set on a task with fixed inputs that a known fault makes fail: its
    # failure is counted as a failed operation naming the fault
    fault: str | None = None


@dataclass(frozen=True)
class CliqueTask:
    # coprime one-dimensional tasks use v = 1, an even lattice denominator
    # and a box reaching b/2, so the box holds an orthogonal partner of 0
    case: Case
    lattice_den: int
    box: int


@dataclass(frozen=True)
class SampleTask:
    case: Case
    iterations: int
    chaos_seed: int
    probes: tuple


@dataclass
class Workload:
    name: str
    classify: list = field(default_factory=list)
    completeness: list = field(default_factory=list)
    clique: list = field(default_factory=list)
    sample: list = field(default_factory=list)
    cli: list = field(default_factory=list)
    rejections: bool = False

    def cases(self):
        """Every instance the workload uses, repeats included."""
        tasks = self.completeness + self.clique + self.sample
        return list(self.classify) + list(self.cli) + [t.case for t in tasks]


# ---------------------------------------------------------------------------
# integer matrix construction
# ---------------------------------------------------------------------------


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _matvec(a, x):
    return [sum(p * q for p, q in zip(row, x)) for row in a]


def _companion(coeffs):
    """Companion matrix of x^r + coeffs[r-1] x^(r-1) + ... + coeffs[0]:
    ones on the subdiagonal, the negated coefficients in the last column.
    e_1 is a cyclic vector."""
    r = len(coeffs)
    rows = [[0] * r for _ in range(r)]
    for i in range(1, r):
        rows[i][i - 1] = 1
    for i in range(r):
        rows[i][r - 1] = -coeffs[i]
    return rows


def _unimodular(rng, n, bits):
    """Random U with det +-1 and its exact inverse, grown by elementary row
    operations until the largest entry of U or of U^-1 has ``bits`` bits;
    the identity when ``bits`` is 0."""
    if bits == 0:
        return _identity(n), _identity(n)
    if n == 1:
        s = rng.choice((-1, 1))
        return [[s]], [[s]]
    u, u_inv = _identity(n), _identity(n)
    for step in range(1, 400 * n + 1):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        # U <- E U with E = I + c e_i e_j^T, hence U^-1 <- U^-1 (I - c e_i e_j^T)
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        for row in u_inv:
            row[j] -= c * row[i]
        if step >= n and max(abs(x) for mat in (u, u_inv) for row in mat for x in row).bit_length() >= bits:
            break
    return u, u_inv


def _trailing_block(rng, size):
    """Upper triangular, diagonal in {+-2, +-3}: expanding by inspection."""
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = rng.choice((2, 3)) * rng.choice((-1, 1))
        for j in range(i + 1, size):
            rows[i][j] = rng.randint(-1, 1)
    return rows


def _general_coeffs(rng, r, a0):
    """p(0) = a0 and one to three nonzero middle coefficients in {-1, 1}.

    |a0| > 1 + sum |a_i| keeps every root outside the closed unit disk
    (on |z| <= 1, |p(z) - a0| <= 1 + sum |a_i| < |a0|)."""
    coeffs = [a0] + [0] * (r - 1)
    for i in rng.sample(range(1, r), min(r - 1, rng.randint(1, 3))):
        coeffs[i] = rng.choice((-1, 1))
    if abs(a0) <= 1 + sum(abs(c) for c in coeffs[1:]):
        raise ValueError(f"p(0) = {a0} does not dominate {coeffs}")
    return coeffs


def _build(rng, label, n, coeffs, q, bits, x_scale=1, cyclic=None):
    """Conjugate B = [[companion(coeffs), C], [0, B2]] by a random U."""
    r = len(coeffs)
    b = [[0] * n for _ in range(n)]
    b1 = _companion(coeffs)
    b2 = _trailing_block(rng, n - r)
    for i in range(r):
        b[i][:r] = b1[i]
        for j in range(r, n):
            b[i][j] = rng.randint(-1, 1)
    for i in range(n - r):
        b[r + i][r:] = b2[i]
    x = [0] * n
    if cyclic is None:
        x[0] = x_scale
    else:
        x[:r] = cyclic
    u, u_inv = _unimodular(rng, n, bits)
    m = _matmul(_matmul(u, b), u_inv)
    v = _matvec(u, x)
    pure = all(c == 0 for c in coeffs[1:])
    return Case(
        label=label,
        matrix=tuple(tuple(row) for row in m),
        v=tuple(v),
        q=q,
        r=r,
        det_m1=(-1) ** r * coeffs[0],
        pure_c=coeffs[0] if pure else None,
        one_dim_b=b1[0][0] if r == 1 else None,
    )


def _one_dim(rng, b, q, sign=None, scale=None):
    s = rng.choice((-1, 1)) if sign is None else sign
    k = rng.randint(1, 3) if scale is None else scale
    return _build(rng, f"[[{s * b}]] q={q}", 1, [-s * b], q, 0, x_scale=k)


def _pure_power(rng, n, c, q, bits=6):
    """x^n + c with c not a perfect n-th power up to sign: irreducible, so
    every nonzero v has full Krylov rank."""
    s = rng.choice((-1, 1))
    w = [0] * n
    while not any(w):
        w = [rng.randint(-2, 2) for _ in range(n)]
    return _build(rng, f"x^{n}{s * c:+d} q={q}", n, [s * c] + [0] * (n - 1), q, bits, cyclic=w)


def _rank_deficient_1d(rng, n, b, q, bits=6):
    s = rng.choice((-1, 1))
    return _build(rng, f"n={n} r=1 [[{s * b}]] q={q}", n, [-s * b], q, bits,
                  x_scale=rng.randint(1, 2))


def _probes(rng, n, count):
    """Completeness probes in (0, 1/2) per axis.

    Denominators are primes above every digit count and determinant
    used, so no mask factor vanishes exactly and every probe costs a full
    transform product: the cost of a task does not depend on the seed."""
    out = []
    for _ in range(count):
        coords = []
        for _ in range(n):
            den = rng.choice((61, 67, 71, 73))
            coords.append(Fraction(rng.randrange(1, den // 2), den))
        out.append(tuple(coords))
    return tuple(out)


def _sample_task(name, case, iterations, count):
    """A chaos game with a fixed seed and fixed probes.

    The 3/sqrt(N) test is about three standard deviations: over arbitrary
    seeds it would fail by chance about once in a thousand probes, so the
    sampling inputs do not depend on the benchmark seed."""
    rng = random.Random(f"sample/{name}")
    return SampleTask(case, iterations, rng.randrange(2**31), _sample_probes(rng, case.n, count))


def _sample_probes(rng, n, count):
    """Nonzero frequencies with small numerators and denominators."""
    out = []
    while len(out) < count:
        xi = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(n))
        if any(xi):
            out.append(xi)
    return tuple(out)


# ---------------------------------------------------------------------------
# the four workloads
# ---------------------------------------------------------------------------

# the cubic fixture of the acceptance suite: char poly x^3 + 36, q = 6
CUBE_FIXTURE = Case("cubic fixture q=6", ((2, 6, 4), (-1, 2, 2), (-1, -1, -4)), (0, 0, 1),
                    6, 3, -36, 36)

# A conjugate of x^4 + 6 where mu_hat at a fixed probe exceeds 1 in modulus:
# fourier._mask_from_phase evaluates phases just below an integer in
# floats, where sin(pi t) has no correct digits left, and multiplies those
# factors into the product.  The defect at depth 1 is about -0.15.
FAULTY_BESSEL = CompletenessTask(
    Case("x^4+6 q=6 (fixed)",
         ((-903, -343, -1003, 2085), (-464, -148, -554, 1267),
          (1879, 683, 2129, -4551), (437, 156, 499, -1078)),
         (19, 12, -42, -10), 6, 4, 6, 6),
    1, ((Fraction(1, 7), Fraction(1, 11), Fraction(1, 39), Fraction(5, 18)),), False,
    fault="fourier._mask_from_phase loses all precision on phases just below an "
          "integer, so |mu_hat| > 1 and the completeness defect breaks the Bessel bound",
)

# (b, digit counts): each row mixes q | b, gcd > 1 and coprime q.  The
# cheap witness and coprime cases outnumber the rest, so the median
# classify time sits inside one cluster of like instances.
_Q_SWEEP_1D = (
    (24, (2, 5, 9, 16, 24)),
    (36, (7, 8, 27, 36)),
    (48, (11, 32, 24)),
    (60, (30, 45, 49)),
    (90, (4, 7, 8, 12, 20, 27, 49)),
    (120, (7, 9, 11, 14, 16, 25, 27, 32, 49)),
)
_Q_SWEEP_PURE = (  # (n, c, digit counts) for x^n + c
    (2, 30, (4, 15, 10)),
    (2, 12, (6, 8, 12)),
    (3, 36, (5, 18, 24, 36)),
)
_Q_SWEEP_RANK_DEFICIENT = (3, 12, (6, 12, 25))  # n, b of the 1x1 leading block, q

# (n, r, pure power?, |p(0)|, q, entry bits of U); q <= 8 throughout.
# Each dimension appears at full rank and rank deficient; bit sizes grow.
_DIM_SWEEP = (
    (4, 4, True, 6, 6, 6),
    (4, 2, False, 10, 4, 24),
    (6, 6, False, 12, 6, 8),
    (6, 3, True, 12, 8, 28),
    (8, 8, True, 10, 3, 10),
    (8, 5, False, 15, 5, 32),
    (10, 10, False, 14, 4, 12),
    (10, 6, True, 20, 4, 24),
    (12, 12, True, 18, 6, 14),
    (12, 7, False, 21, 8, 20),
    (14, 14, False, 16, 8, 12),
    (14, 8, True, 9, 3, 16),
    (16, 16, False, 24, 8, 12),
    (16, 9, True, 6, 4, 18),
    # a cluster of like 8-D instances, so that the median classify time
    # sits among them
    (8, 8, False, 12, 6, 12),
    (8, 8, True, 14, 4, 12),
    (8, 8, False, 15, 5, 12),
    (8, 6, True, 12, 8, 12),
    (8, 6, False, 10, 5, 12),
    (8, 4, True, 6, 6, 12),
    (8, 4, False, 9, 3, 12),
)


def _q_sweep(rng):
    w = Workload("q-sweep")
    for b, qs in _Q_SWEEP_1D:
        w.classify += [_one_dim(rng, b, q) for q in qs]
    for n, c, qs in _Q_SWEEP_PURE:
        w.classify += [_pure_power(rng, n, c, q) for q in qs]
    n, b, qs = _Q_SWEEP_RANK_DEFICIENT
    w.classify += [_rank_deficient_1d(rng, n, b, q) for q in qs]
    # [[-b]] with q = b has a two-sided candidate spectrum, so depth 2
    # already carries the window
    w.completeness.append(CompletenessTask(
        _one_dim(rng, 10, 10, sign=-1, scale=1), 2, _probes(rng, 1, 3), True))
    w.clique.append(CliqueTask(_one_dim(rng, 45, 2, scale=1), 2, 120))
    w.sample.append(_sample_task(w.name, _one_dim(rng, 24, 6, sign=1, scale=1), 20000, 2))
    w.cli = [_pure_power(rng, 3, 36, 12)]
    return w


def _dim_sweep(rng):
    w = Workload("dim-sweep")
    for n, r, pure, a0, q, bits in _DIM_SWEEP:
        a0 *= rng.choice((-1, 1))
        coeffs = [a0] + [0] * (r - 1) if pure else _general_coeffs(rng, r, a0)
        kind = "pure" if pure else "general"
        w.classify.append(_build(rng, f"n={n} r={r} {kind} p(0)={a0} q={q} bits={bits}",
                                 n, coeffs, q, bits))
    # unconjugated: mu_hat misreads conjugated instances (see FAULTY_BESSEL)
    small_spectral = _build(rng, "n=4 r=4 x^4+6 q=6", 4, [6, 0, 0, 0], 6, 0)
    w.completeness.append(CompletenessTask(small_spectral, 1, _probes(rng, 4, 2), False))
    w.clique.append(CliqueTask(small_spectral, 1, 1))
    w.sample.append(_sample_task(w.name, small_spectral, 20000, 2))
    w.cli = [w.classify[3]]
    return w


def _evidence(rng):
    w = Workload("evidence")
    cantor4 = _one_dim(rng, 4, 2, sign=-1, scale=1)
    cube6 = CUBE_FIXTURE
    plane = _pure_power(rng, 2, 6, 6, bits=4)
    w.completeness = [
        CompletenessTask(cantor4, 7, _probes(rng, 1, 3), True),
        CompletenessTask(cube6, 2, _probes(rng, 3, 1), False),
        FAULTY_BESSEL,
    ]
    w.clique = [
        CliqueTask(_one_dim(rng, 3, 2, scale=1), 2, 40),
        CliqueTask(_one_dim(rng, 4, 2, scale=1), 1, 42),
        CliqueTask(plane, 1, 4),
        CliqueTask(cube6, 1, 2),
    ]
    lebesgue = _one_dim(rng, 2, 2, sign=1, scale=1)
    w.sample = [
        _sample_task("evidence-1d", lebesgue, 25000, 3),
        _sample_task("evidence-3d", cube6, 25000, 3),
    ]
    # classify and verify take a few ms here; repeats give them enough
    # samples.  The rank-deficient witness instance keeps the block and
    # witness paths in the traced layers.
    w.classify = [cantor4, cube6, plane, lebesgue, _rank_deficient_1d(rng, 3, 6, 4, bits=4)] * 8
    w.cli = [cube6]
    return w


def _cli(rng):
    w = Workload("cli", rejections=True)
    w.cli = [
        _pure_power(rng, 3, 36, 6, bits=4),
        _pure_power(rng, 3, 36, 8, bits=4),
        _one_dim(rng, 15, 2),
        _rank_deficient_1d(rng, 3, 4, 4, bits=4),
    ]
    w.classify = w.cli * 4
    w.completeness.append(CompletenessTask(
        _one_dim(rng, 6, 6, sign=-1, scale=1), 2, _probes(rng, 1, 2), True))
    w.clique.append(CliqueTask(_one_dim(rng, 15, 2, scale=1), 2, 12))
    w.sample.append(_sample_task(w.name, CUBE_FIXTURE, 10000, 2))
    return w


def build(name: str, seed: int) -> Workload:
    """The inputs of one workload; the same (name, seed) gives the same inputs."""
    makers = {"q-sweep": _q_sweep, "dim-sweep": _dim_sweep, "evidence": _evidence, "cli": _cli}
    rng = random.Random(f"{name}/{seed}")
    return makers[name](rng)

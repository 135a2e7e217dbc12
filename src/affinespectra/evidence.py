"""Brute-force and sampling evidence.

Nothing in this module proves a theorem.  The clique search is exact over
the finite lattice box it is given, the completeness defect is a numeric
Parseval diagnostic, and the chaos game samples the invariant measure.
Reports state their scope (lattice, box, truncation) so they can be read
as evidence and nothing more.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .errors import TooLarge
from .fourier import _check_tail_eps, _contraction_data, _vanishing_factor, mu_hat
from .linalg import RatVector

_CANDIDATE_CAP = 5000


class CliqueReport:
    """Exact maximum certified-orthogonal clique through 0 on a lattice box."""

    __slots__ = (
        "lattice_denominator",
        "box_radius",
        "max_clique_size",
        "witness_set",
        "certified",
    )

    def __init__(self, lattice_denominator, box_radius, max_clique_size, witness_set, certified):
        self.lattice_denominator = lattice_denominator
        self.box_radius = box_radius
        self.max_clique_size = max_clique_size
        self.witness_set = witness_set
        self.certified = certified

    def __repr__(self):
        return (
            f"CliqueReport(L={self.lattice_denominator}, N={self.box_radius}, "
            f"size={self.max_clique_size})"
        )


class CompletenessReport:
    __slots__ = ("depth", "tail_eps", "probes", "defects")

    def __init__(self, depth, tail_eps, probes, defects):
        self.depth = depth
        self.tail_eps = tail_eps
        self.probes = probes
        self.defects = defects

    def __repr__(self):
        return f"CompletenessReport(depth={self.depth}, defects={self.defects})"


class AttractorSample:
    __slots__ = ("points", "iterations", "seed", "radius")

    def __init__(self, points, iterations, seed, radius):
        self.points = points
        self.iterations = iterations
        self.seed = seed
        self.radius = radius

    def __repr__(self):
        return f"AttractorSample(iterations={self.iterations}, seed={self.seed})"


# ---------------------------------------------------------------------------
# maximum orthogonal clique
# ---------------------------------------------------------------------------


def _max_clique(n_vertices: int, adj_bits: list[int]) -> list[int]:
    """Exact maximum clique, branch and bound with a greedy coloring bound.

    Vertex sets are bitmasks over the caller's fixed vertex order, which
    keeps the search deterministic and the set operations cheap."""
    # greedy warm start: a decent lower bound prunes most of the tree
    best_size = 0
    best_bits = 0
    for seed in range(n_vertices):
        size, bits, cand = 1, 1 << seed, adj_bits[seed]
        while cand:
            bit = cand & -cand
            size += 1
            bits |= bit
            cand &= adj_bits[bit.bit_length() - 1]
        if size > best_size:
            best_size, best_bits = size, bits

    def expand(rsize: int, rbits: int, cand: int):
        nonlocal best_size, best_bits
        if cand == 0:
            if rsize > best_size:
                best_size, best_bits = rsize, rbits
            return
        # color classes are independent sets: a clique meets each at most
        # once, so the class index bounds any clique inside the remainder
        order = []
        colors = []
        uncolored = cand
        color = 0
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                bit = avail & -avail
                v = bit.bit_length() - 1
                order.append(v)
                colors.append(color)
                uncolored ^= bit
                avail &= ~adj_bits[v] & ~bit
        for idx in range(len(order) - 1, -1, -1):
            if rsize + colors[idx] <= best_size:
                return
            v = order[idx]
            bit = 1 << v
            expand(rsize + 1, rbits | bit, cand & adj_bits[v])
            cand ^= bit

    expand(0, 0, (1 << n_vertices) - 1)
    return [v for v in range(n_vertices) if best_bits >> v & 1]


def _lattice_key(g, half: int) -> int:
    """sum_k g_k B^k, B = 2 half + 1, for coordinates g_k in [-half, half]."""
    return sum(x * (2 * half + 1) ** k for k, x in enumerate(g))


def _lattice_point(key: int, n: int, half: int) -> list[int]:
    """The n coordinates of a key: its balanced base-B digits, lowest first."""
    base, key = 2 * half + 1, key + _lattice_key((half,) * n, half)  # digits + half
    return [key // base ** k % base - half for k in range(n)]


def max_orthogonal_clique(inst, lattice_denominator: int, box_radius: int, j_max=None) -> CliqueReport:
    """Largest certified-orthogonal set through 0 in (1/L) Z^n cap [-N, N]^n.

    Exhaustive and exact for the stated lattice box; frequencies outside
    the lattice are invisible to it, so the result is evidence about the
    box, not a bound on orthogonal sets in general.  Raises TooLarge when
    the box has more than 5000 lattice points.

    Exact maximum clique is exponential in the worst case.  One- and
    two-dimensional boxes stay fast at any permitted radius.  In three
    dimensions each difference is certified once, so a box of mutually
    orthogonal points takes seconds up to radius 6, but a dense instance on
    which the search branches is only practical up to radius about 3.
    """
    ell = lattice_denominator
    n = inst.m.n
    if ell < 1 or box_radius < 0:
        raise ValueError("lattice denominator must be >= 1 and box radius >= 0")
    per_axis = 2 * box_radius * ell + 1
    if per_axis ** n > _CANDIDATE_CAP:
        raise TooLarge(
            f"{per_axis ** n} lattice points exceed the cap of {_CANDIDATE_CAP}"
        )
    # key(a) - key(b) = key(a - b), whose coordinates lie in [-2 N L, 2 N L].
    # Negating a difference maps each phase r to -r mod the modulus, keeping
    # every verdict, so abs() certifies each sign class once.  product over
    # an ascending span lists the points in lexicographic order, as L > 0
    half = 2 * box_radius * ell
    span = range(-box_radius * ell, box_radius * ell + 1)
    keys = [_lattice_key(p, half) for p in itertools.product(span, repeat=n)]
    cache: dict[int, bool] = {}

    def certified_difference(key) -> bool:
        return _vanishing_factor(inst, _lattice_point(key, n, half), ell, j_max) is not None

    def connected(key) -> bool:
        key = abs(key)
        if key not in cache:
            cache[key] = certified_difference(key)
        return cache[key]

    neighbors_of_zero = [k for k in keys if k and connected(k)]
    count = len(neighbors_of_zero)
    adj_bits = [0] * count
    for i, j in itertools.combinations(range(count), 2):
        if connected(neighbors_of_zero[i] - neighbors_of_zero[j]):
            adj_bits[i] |= 1 << j
            adj_bits[j] |= 1 << i
    clique = _max_clique(count, adj_bits)
    witness = [0] + [neighbors_of_zero[i] for i in sorted(clique)]
    # every witness pair re-checked by its raw difference, not via the cache
    certified = all(map(certified_difference, {a - b for a, b in itertools.combinations(witness, 2)}))
    witness = [RatVector([Fraction(g, ell) for g in _lattice_point(k, n, half)]) for k in witness]
    return CliqueReport(
        lattice_denominator=ell,
        box_radius=box_radius,
        max_clique_size=len(witness),
        witness_set=witness,
        certified=certified,
    )


# ---------------------------------------------------------------------------
# Parseval completeness defect
# ---------------------------------------------------------------------------


def completeness_defect(inst, spectrum, probes, tail_eps: float = 1e-9) -> CompletenessReport:
    """1 - sum over the spectrum of |mu_hat(xi - lambda)|^2 at each probe.

    A spectrum makes the defect tend to 0 from above as the truncation
    depth grows; values far from 0 (or clearly negative) witness that the
    frequency set is not behaving like an orthonormal system.  Accepts a
    CandidateSpectrum or any list of frequencies, since comparing good
    and bad frequency sets is the point of the diagnostic.  Raises
    ValueError unless tail_eps is finite and positive.
    """
    _check_tail_eps(tail_eps)
    freqs = getattr(spectrum, "frequencies", spectrum)
    depth = getattr(spectrum, "depth", None)
    defects = []
    for xi in probes:
        xi = xi if isinstance(xi, RatVector) else RatVector(xi)
        q_sum = 0.0
        for lam in freqs:
            val = mu_hat(inst, xi - lam, tail_eps)
            q_sum += abs(val.value) ** 2
        defects.append(1.0 - q_sum)
    return CompletenessReport(depth=depth, tail_eps=tail_eps, probes=list(probes), defects=defects)


# ---------------------------------------------------------------------------
# chaos game sampling
# ---------------------------------------------------------------------------

_BURN_IN = 100


def attractor_radius(inst) -> float:
    """Sup-norm bound on the invariant set: max digit norm times the
    summed norms of inverse powers, via exact geometric tail bounding."""
    _, _, _, _, (_, rho, partial) = _contraction_data(inst.m)
    dmax = (inst.q - 1) * max(abs(e) for e in inst.v)
    return float(dmax * partial / (1 - rho))


def _chaos_taps(inst) -> list[list[float]]:
    """Taps M^{-j} v = n_j / d^j for j = 1, ..., J, each rounded once from
    its exact value, with J the first j where |M^{-j} v| < 2^-60 |v|.
    Every later tap is M^{-i} M^{-J} v, and the contraction data bound the
    sum of the norms of the M^{-i} by s / (1 - rho), so the taps left out
    sum to less than 2^-60 of the attractor radius."""
    adj, _, d, _, _ = _contraction_data(inst.m)
    vmax = max(abs(e) for e in inst.v)
    taps, x, scale = [], inst.v, 1
    while True:
        x, scale = adj * x, scale * d
        taps.append([e / scale for e in x])
        if max(map(abs, x)) << 60 < vmax * scale:
            return taps


def _randrange_stream(rng: random.Random, q: int, count: int):
    """[rng.randrange(q) for _ in range(count)] as an array.  randrange
    draws getrandbits(k), k = q.bit_length(), until it is below q;
    getrandbits(k) takes w = ceil(k / 32) words, lowest first, and drops the
    low 32 w - k bits of the last, and getrandbits(32 N) emits the words of
    N getrandbits(32) calls.  So one call per batch is decoded in w-word
    draws (uint64 up to w = 2, Python ints beyond) and the rejects dropped."""
    import numpy as np

    k = q.bit_length()
    w = -(-k // 32)
    dtype = np.uint64 if w <= 2 else object
    shift, word, bound = (np.array(x, dtype=dtype) for x in (32 * w - k, 32, q))
    parts, have = [np.empty(0, dtype)], 0
    while have < count:
        n = (count - have) * (1 << k) // q + 64
        words = np.frombuffer(rng.getrandbits(32 * w * n).to_bytes(4 * w * n, "little"), "<u4")
        words = words.reshape(n, w).astype(dtype)
        values = words[:, -1] >> shift
        for i in range(w - 2, -1, -1):
            values = (values << word) | words[:, i]
        parts.append(values[values < bound][:count - have])
        have += len(parts[-1])
    return np.concatenate(parts)


def chaos_game(inst, iterations: int, seed: int) -> AttractorSample:
    """Sample the invariant measure by random digit-driven iteration.

    The chain x <- M^{-1}(x + k v) from x = 0, with k uniform on
    {0, ..., q-1}, is x_t = sum_j k_{t-j} M^{-(j+1)} v after t steps: one
    FIR convolution per coordinate of the digit stream with the exact
    taps of _chaos_taps, truncated where the tail is provably below 2^-60
    of the attractor radius; no float power of M^{-1} is iterated.  The
    digits are the stream of random.Random(seed).randrange(q), decoded in
    batches from getrandbits by _randrange_stream, so a seed keeps its
    meaning; the first 100 iterates are discarded."""
    import numpy as np  # only sampling needs numpy; keep it off the import path

    digits = _randrange_stream(random.Random(seed), inst.q, _BURN_IN + iterations).astype(float)
    taps = np.array(_chaos_taps(inst))
    points = np.empty((iterations, inst.m.n))
    for c in range(inst.m.n):
        points[:, c] = np.convolve(digits, taps[:, c])[_BURN_IN:_BURN_IN + iterations]
    return AttractorSample(
        points=points, iterations=iterations, seed=seed, radius=attractor_radius(inst)
    )


__all__ = [
    "AttractorSample",
    "CliqueReport",
    "CompletenessReport",
    "attractor_radius",
    "chaos_game",
    "completeness_defect",
    "max_orthogonal_clique",
]

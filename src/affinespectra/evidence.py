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
from math import lcm
from operator import itemgetter

from ._record import _Record
from .errors import TooLarge
from .fourier import _check_j_max, _check_tail_eps, _contraction_data, _factor_bound, _transform_many
from .fourier import _iterate, _vanishing_factors
from .hadamard import CandidateSpectrum
from .linalg import RatVector, _over_common_denominator

_CANDIDATE_CAP = 5000
# vertex colorings of one maximum clique search, the sum over its branch
# nodes of the candidates each recolors: the cube fixture (x^3 + 36, q = 6)
# takes 25,581, 1,463,141 and 539,609 at boxes 4, 5 and 6, every benchmark
# task at most 307 and every test at most 25,581 but the sparse box of
# test_clique_budget_counts_colorings_not_nodes, 2,119,539; box 7 would run
# for minutes or more, and this budget stops it after about 3 s
_CLIQUE_WORK = 3 * 2**20
# completeness work: frequencies x probes x factors x (n^2 + 24), a factor
# being n^2 multiply-adds plus a mask and tail bound costing about 24 more
_COMPLETENESS_CAP = 2**25
_SAMPLE_CAP = 2**25  # chaos game floats: iterations x (n + 5), 8 bytes each


class CliqueReport(_Record):
    """Exact maximum certified-orthogonal clique through 0 on a lattice box."""

    __slots__ = ("lattice_denominator", "box_radius", "max_clique_size", "witness_set", "certified")


class CompletenessReport(_Record):
    __slots__ = ("depth", "tail_eps", "probes", "defects")


class AttractorSample(_Record):
    __slots__ = ("points", "iterations", "seed", "radius")


# ---------------------------------------------------------------------------
# maximum orthogonal clique
# ---------------------------------------------------------------------------


def _max_clique(n_vertices: int, adj_bits: list[int]) -> list[int]:
    """Exact maximum clique, branch and bound with a greedy coloring bound.

    The search runs on the vertices relabelled by non-increasing degree,
    ties by index (the initial order of Tomita and Seki's MCQ), and maps its
    clique back.  Vertex sets are bitmasks, which keeps the search
    deterministic and cheap.  The vertices are the neighbours of 0 of an
    orthogonal clique search, which returns a complete graph without
    calling this.  Each branch node recolors its whole candidate set, so
    the work is counted in vertex colorings, the candidates of each node
    summed: past _CLIQUE_WORK of them it raises TooLarge with the best
    clique so far, counting 0."""
    if n_vertices == 0:
        return []
    full = (1 << n_vertices) - 1
    by_degree = sorted(range(n_vertices), key=lambda v: -adj_bits[v].bit_count())
    # each row relabelled in C: its bits as a string, vertex u at index u,
    # picked in the new order, highest new index first
    pick = itemgetter(*reversed(by_degree))
    adj_bits = [int("".join(pick(f"{adj_bits[v]:0{n_vertices}b}"[::-1])), 2) for v in by_degree]
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

    work = 0

    def expand(rsize: int, rbits: int, cand: int):
        nonlocal best_size, best_bits, work
        work += cand.bit_count()
        if work > _CLIQUE_WORK:
            raise TooLarge(f"clique search stopped at its budget of {_CLIQUE_WORK} vertex colorings; "
                           f"the largest orthogonal set through 0 found has {best_size + 1} points")
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

    expand(0, 0, full)
    return sorted(by_degree[i] for i in range(n_vertices) if best_bits >> i & 1)


def _lattice_key(g, half: int) -> int:
    """sum_k g_k B^k, B = 2 half + 1, for coordinates g_k in [-half, half]."""
    return sum(x * (2 * half + 1) ** k for k, x in enumerate(g))


def _box_keys(n: int, radius: int, base: int) -> list[int]:
    """sum_k g_k B^k, B = base, for the g of [-radius, radius]^n in the order
    of itertools.product: one pass per axis, each adding axis i fastest."""
    keys = [0]
    for step in (base ** i for i in range(n)):
        keys = [k + g for k in keys for g in range(-radius * step, radius * step + 1, step)]
    return keys


def _lattice_decoder(n: int, half: int):
    """keys -> their points, each the tuple of its n balanced base-B digits,
    lowest first, B = 2 half + 1: one pass per axis over the whole list."""
    base = 2 * half + 1
    powers, offset = [base ** k for k in range(n)], _lattice_key((half,) * n, half)
    return lambda keys: list(zip(*([(key + offset) // p % base - half for key in keys] for p in powers)))


def max_orthogonal_clique(inst, lattice_denominator: int, box_radius: int, j_max=None) -> CliqueReport:
    """Largest certified-orthogonal set through 0 in (1/L) Z^n cap [-N, N]^n.

    Exhaustive and exact for the stated lattice box; frequencies outside
    the lattice are invisible to it, so the result is evidence about the
    box, not a bound on orthogonal sets in general.  Raises TooLarge when
    the box has more than 5000 lattice points, when an explicit j_max
    needs more probe vectors than fourier._check_j_max allows, or when the
    clique search passes its budget of 3 * 2^20 vertex colorings (_max_clique).

    Key sets are int bitmasks, bit k + top for key k, [-top, top] holding
    every difference of two box points: under 2^n * 5000 bits by the cap.
    The box keys are progressions per axis in the order of the grid's
    tuples, which the certification reads; only keys off the grid are
    decoded.  One lockstep certification (fourier._vanishing_factors, whose
    search depth j_max or its default only bounds from above) of the grid
    points after 0 gives N0, the neighbours of 0, and one more the
    differences of N0 outside the box.
    When every difference of two members of N0 is certified, 0 and N0 in
    key order are the clique; otherwise the row of a is the certified set
    shifted by a, met with N0.  Exact maximum clique is exponential in the
    worst case; the degree order of the search also picks the clique
    returned among several of maximum size.
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
    # key(a) - key(b) = key(a - b), whose coordinates lie in [-2 N L, 2 N L]:
    # priced once here, before any work; _vanishing_factors prices each
    # batch again at a norm no larger, so it never refuses one
    _check_j_max(inst, j_max, 2 * n * box_radius * ell, ell)
    half, radius = 2 * box_radius * ell, box_radius * ell
    top = _lattice_key((half,) * n, half)
    grid = list(itertools.product(range(-radius, radius + 1), repeat=n))
    keys = _box_keys(n, radius, 2 * half + 1)
    point = _lattice_decoder(n, half)

    def certified_keys(ks, points) -> list[int]:
        found = _vanishing_factors(inst, points, ell, j_max)
        return [k for k, hit in zip(ks, found) if hit is not None]

    def members(mask) -> list[int]:  # the keys k of bit k + 2 top, descending
        s = f"{mask:b}"
        return [len(s) - 1 - 2 * top - i for i, c in enumerate(s) if c == "1"]

    # Negating a difference maps each phase r to -r mod the modulus, keeping
    # every verdict.  The grid is symmetric and 0 its middle, so the points
    # after 0 hold one of each sign class; their absolute keys stand for both
    middle = len(keys) // 2
    hits = {abs(k) for k in certified_keys(keys[middle + 1:], grid[middle + 1:])}
    neighbors_of_zero = [k for k in keys if abs(k) in hits]
    count = len(neighbors_of_zero)
    n0 = sum(1 << k + top for k in neighbors_of_zero)
    # N0 = -N0, so its differences are its sums: bit k + 2 top for key k
    diffs, box = 0, set(keys)
    for a in neighbors_of_zero:
        diffs |= n0 << a + top
    sums = [k for k in members(diffs) if k > 0]
    outside = [k for k in sums if k not in box]
    fresh = certified_keys(outside, point(outside))
    if hits.union(fresh).issuperset(sums):
        # every difference of two neighbours of 0 is certified
        clique = range(count)
    else:
        # index top - k of the string holds key k: the certified set shifted
        # by a, on the box keys [-top / 2, top / 2], is the slice from top / 2 + a
        certified_set = f"{n0 | sum(1 << top + k | 1 << top - k for k in fresh):0{2 * top + 1}b}"
        pick = itemgetter(*(top // 2 - k for k in reversed(neighbors_of_zero)))
        adj_bits = [int("".join(pick(certified_set[top // 2 + a:top * 3 // 2 + a + 1])), 2)
                    for a in neighbors_of_zero]
        clique = _max_clique(count, adj_bits)
    witness = [0] + [neighbors_of_zero[i] for i in clique]
    # each raw difference a - b, b after a in the witness, re-checked afresh
    raw, after = 0, 0
    for a in reversed(witness):
        raw |= after << a + top
        after |= 1 << top - a
    check = members(raw)
    certified = len(certified_keys(check, point(check))) == len(check)
    witness = [RatVector([Fraction(g, ell) for g in p]) for p in point(witness)]
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


def _differences(xi, lam_nums, lam_den: int, n: int):
    """(points, den): xi - lam = point / den for each frequency numerator
    lam = b / lam_den, in order.  A frequency whose length differs from
    xi's, then a difference of the wrong dimension, raises the ValueError
    that subtracting the vectors and mu_hat raised, at the same pair."""
    a, xi_den = _over_common_denominator(xi)
    den = lcm(xi_den, lam_den)
    sa, sb = den // xi_den, den // lam_den
    points = []
    for b in lam_nums:
        points.append(tuple(x * sa - y * sb for x, y in zip(a, b, strict=True)))
        if len(a) != n:
            raise ValueError("frequency dimension does not match the instance")
    return points, den


def completeness_defect(inst, spectrum, probes, tail_eps: float = 1e-9) -> CompletenessReport:
    """1 - sum over the spectrum of |mu_hat(xi - lambda)|^2 at each probe.

    A spectrum makes the defect tend to 0 from above as the truncation
    depth grows; values far from 0 (or clearly negative) witness that the
    frequency set is not behaving like an orthonormal system.  Accepts a
    CandidateSpectrum, read on its integer numerators with no Fraction
    made, or any list of frequencies, put over one denominator (an lcm),
    since comparing good and bad frequency sets is the point of the
    diagnostic.  Each probe runs one lockstep transform over all its
    differences, summed in frequency order.  Raises ValueError unless tail_eps is finite and
    positive, and TooLarge, before any transform, when frequencies x probes
    x factors (bounded by fourier._factor_bound) x (n^2 + 24) exceeds
    2^25.  The count ignores the size of the integers: at small entries
    that is a few seconds of work at most, but the companion of x^64 - 6
    10^2000 at depth 1 passes it and takes about 13 s (ROADMAP item 6).
    """
    _check_tail_eps(tail_eps)
    n, probes = inst.m.n, list(probes)
    vectors = [xi if isinstance(xi, RatVector) else RatVector(xi) for xi in probes]
    if isinstance(spectrum, CandidateSpectrum):
        depth, lam_nums, lam_den = spectrum.depth, spectrum.numerators, spectrum.denominator
    else:
        parts = [_over_common_denominator(lam) for lam in spectrum]
        depth, lam_den = None, lcm(*(den for _, den in parts))
        lam_nums = [tuple(x * (lam_den // den) for x in b) for b, den in parts]
    if lam_nums and vectors:
        radius = (max(max(map(abs, xi)) for xi in vectors)
                  + Fraction(max(max(map(abs, b)) for b in lam_nums), lam_den))
        cost = len(lam_nums) * len(vectors) * _factor_bound(inst, radius, tail_eps) * (n * n + 24)
        if cost > _COMPLETENESS_CAP:
            raise TooLarge(f"completeness evidence needs about {cost} steps, "
                           f"over the cap of {_COMPLETENESS_CAP}")
    defects = []
    for xi in vectors:
        q_sum = 0.0
        for value, _, _ in _transform_many(inst, *_differences(xi, lam_nums, lam_den, n), tail_eps):
            q_sum += abs(value) ** 2
        defects.append(1.0 - q_sum)
    return CompletenessReport(depth=depth, tail_eps=tail_eps, probes=probes, defects=defects)


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
    """Taps M^{-j} v = n_j / d_j for j = 1, ..., J, each rounded once from
    its exact value in the shared sequence of fourier._iterate, with J the
    first j where |M^{-j} v| < 2^-60 |v|.  Every later tap is M^{-i}
    M^{-J} v, and the contraction data bound the sum of the norms of the
    M^{-i} by s / (1 - rho), so the taps left out sum to less than 2^-60 of
    the attractor radius."""
    vmax = max(abs(e) for e in inst.v)
    taps = []
    for j in itertools.count(1):
        n_j, d_j = _iterate(inst.m, inst.v, j)
        taps.append([e / d_j for e in n_j])
        if max(map(abs, n_j)) << 60 < vmax * d_j:
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
    meaning; the first 100 iterates are discarded.  Raises ValueError for
    fewer than 0 iterations and TooLarge when iterations x (n + 5) exceeds
    2^25, both before any digit is drawn."""
    if iterations < 0:
        raise ValueError("iterations must be at least 0")
    if iterations * (inst.m.n + 5) > _SAMPLE_CAP:
        raise TooLarge(f"{iterations} chaos game iterations in dimension {inst.m.n} need about "
                       f"{8 * iterations * (inst.m.n + 5)} bytes, over the cap of {8 * _SAMPLE_CAP}")
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

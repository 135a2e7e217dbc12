import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from affinespectra.classify import ProblemInstance
from affinespectra.conjugation import companion_conjugate
from affinespectra.errors import TooLarge
from affinespectra.evidence import (
    attractor_radius,
    chaos_game,
    completeness_defect,
    max_orthogonal_clique,
)
from affinespectra.fourier import certify_orthogonal, mu_hat
from affinespectra.hadamard import candidate_spectrum, construct_dual_digits
from affinespectra.linalg import IntMatrix, IntVector, RatVector, inverse

M_CUBE = IntMatrix([[2, 6, 4], [-1, 2, 2], [-1, -1, -4]])
V_CUBE = IntVector([0, 0, 1])


def _inst(m, v, q):
    return ProblemInstance(IntMatrix(m), IntVector(v), q)


def _spectrum(inst, depth):
    triple = construct_dual_digits(companion_conjugate(inst.m, inst.v), inst.q)
    triple.verify()
    return candidate_spectrum(triple, depth)


# -- max_orthogonal_clique ----------------------------------------------------


def test_clique_halved_lattice_saturates_at_two():
    inst = _inst([[3]], [1], 2)
    report = max_orthogonal_clique(inst, lattice_denominator=2, box_radius=10)
    assert report.max_clique_size == 2
    assert report.certified
    assert RatVector([0]) in report.witness_set


def test_clique_halved_lattice_constant_under_box_growth():
    # doubling the box twice adds no third mutually orthogonal point
    inst = _inst([[3]], [1], 2)
    sizes = [
        max_orthogonal_clique(inst, 2, n_box).max_clique_size for n_box in (10, 20, 40)
    ]
    assert sizes == [2, 2, 2]


def test_clique_integer_lattice_contains_known_quadruple():
    inst = _inst([[4]], [1], 2)
    report = max_orthogonal_clique(inst, lattice_denominator=1, box_radius=10)
    assert report.max_clique_size >= 4
    found = {p.entries[0] for p in report.witness_set}
    expected = {Fraction(0), Fraction(2), Fraction(8), Fraction(10)}
    # the maximum clique need not be that exact set, but one of size >= 4
    # exists because {0, 2, 8, 10} is pairwise certified
    for a, b in [(0, 2), (0, 8), (0, 10), (2, 8), (2, 10), (8, 10)]:
        assert certify_orthogonal(inst, RatVector([a]), RatVector([b])) is not None
    assert len(found) == report.max_clique_size


def test_clique_witness_pairwise_certified():
    inst = _inst([[4]], [1], 2)
    report = max_orthogonal_clique(inst, 1, 10)
    for i, a in enumerate(report.witness_set):
        for b in report.witness_set[i + 1 :]:
            assert certify_orthogonal(inst, a, b) is not None


def test_clique_zero_box_is_singleton():
    inst = _inst([[4]], [1], 2)
    report = max_orthogonal_clique(inst, 1, 0)
    assert report.max_clique_size == 1
    assert report.witness_set == [RatVector([0])]


def test_clique_box_cap():
    inst = ProblemInstance(M_CUBE, V_CUBE, 6)
    with pytest.raises(TooLarge):
        max_orthogonal_clique(inst, lattice_denominator=10, box_radius=10)


def test_clique_deterministic():
    inst = _inst([[4]], [1], 2)
    a = max_orthogonal_clique(inst, 1, 12)
    b = max_orthogonal_clique(inst, 1, 12)
    assert a.witness_set == b.witness_set


def test_clique_rejects_bad_box():
    inst = _inst([[4]], [1], 2)
    with pytest.raises(ValueError):
        max_orthogonal_clique(inst, 0, 5)
    with pytest.raises(ValueError):
        max_orthogonal_clique(inst, 1, -1)


def test_clique_3d_small_box():
    inst = ProblemInstance(M_CUBE, V_CUBE, 6)
    report = max_orthogonal_clique(inst, lattice_denominator=1, box_radius=1)
    assert report.certified
    assert report.max_clique_size >= 1
    assert all(max(abs(e) for e in p) <= 1 for p in report.witness_set)


# -- completeness_defect ------------------------------------------------------


def test_defect_vanishes_at_zero_probe():
    inst = _inst([[4]], [1], 2)
    spec = _spectrum(inst, depth=4)
    report = completeness_defect(inst, spec, probes=[RatVector([0])])
    assert abs(report.defects[0]) <= 1e-9


def test_defect_small_inside_window():
    inst = _inst([[4]], [1], 2)
    spec = _spectrum(inst, depth=6)
    probes = [RatVector([Fraction(t, 20)]) for t in (1, 7, 13, 19)]
    report = completeness_defect(inst, spec, probes)
    for d in report.defects:
        assert -1e-9 <= d <= 0.05


def test_defect_nonincreasing_in_depth():
    inst = _inst([[4]], [1], 2)
    probes = [RatVector([Fraction(3, 20)]), RatVector([Fraction(9, 20)])]
    prev = [float("inf")] * len(probes)
    for depth in (2, 3, 4, 5):
        report = completeness_defect(inst, _spectrum(inst, depth), probes)
        for i, d in enumerate(report.defects):
            # deeper truncation only adds nonnegative |mu_hat|^2 terms
            assert d <= prev[i] + 1e-12
        prev = report.defects


def test_defect_exposes_bad_dual_set():
    # frequencies built from duals {0, 1} are not mutually orthogonal for
    # M = [4], D = {0, 1}; Parseval mass overshoots and the defect leaves
    # any small neighbourhood of zero
    inst = _inst([[4]], [1], 2)
    bad = [
        RatVector([s0 + 4 * s1 + 16 * s2])
        for s0 in (0, 1)
        for s1 in (0, 1)
        for s2 in (0, 1)
    ]
    probes = [RatVector([0]), RatVector([Fraction(1, 4)])]
    report = completeness_defect(inst, bad, probes)
    assert any(abs(d) > 0.1 for d in report.defects)
    assert report.depth is None


@pytest.mark.parametrize("tail_eps", [0.0, -1.0, float("nan")])
def test_defect_rejects_a_tail_bound_it_cannot_reach(tail_eps):
    inst = _inst([[4]], [1], 2)
    with pytest.raises(ValueError):
        completeness_defect(inst, [], [RatVector([0])], tail_eps)


def test_defect_3d_spectrum():
    inst = ProblemInstance(M_CUBE, V_CUBE, 6)
    spec = _spectrum(inst, depth=2)
    report = completeness_defect(inst, spec, probes=[RatVector([0, 0, 0])])
    assert abs(report.defects[0]) <= 1e-9


def test_phases_just_below_an_integer_keep_the_bessel_bound():
    # a unimodular conjugate of x^4 + 6 whose transform at this probe has
    # mask phases within about 1e-8 of an integer
    inst = _inst(
        [[-903, -343, -1003, 2085], [-464, -148, -554, 1267],
         [1879, 683, 2129, -4551], [437, 156, 499, -1078]],
        [19, 12, -42, -10],
        6,
    )
    xi = RatVector([Fraction(1, 7), Fraction(1, 11), Fraction(1, 39), Fraction(5, 18)])
    val = mu_hat(inst, xi)
    assert abs(val.value) ** 2 <= 1 + val.error
    # the same truncated product, each mask summed term by term
    m_inv_t = inverse(inst.m).transpose()
    cur, direct = xi, 1.0
    for _ in range(val.factors):
        cur = m_inv_t * cur
        t = float(cur.dot(inst.v) % 1)
        direct *= sum(cmath.exp(2j * math.pi * k * t) for k in range(inst.q)) / inst.q
    assert abs(val.value - direct) <= 1e-9
    report = completeness_defect(inst, _spectrum(inst, depth=1), [xi])
    assert report.defects[0] >= -1e-9


# -- chaos_game ---------------------------------------------------------------


def test_chaos_game_mean_matches_lebesgue():
    inst = _inst([[2]], [1], 2)
    sample = chaos_game(inst, iterations=100000, seed=7)
    assert sample.points.shape == (100000, 1)
    assert abs(sample.points.mean() - 0.5) < 0.01


def test_chaos_game_deterministic():
    inst = ProblemInstance(M_CUBE, V_CUBE, 6)
    a = chaos_game(inst, iterations=500, seed=123)
    b = chaos_game(inst, iterations=500, seed=123)
    assert np.array_equal(a.points, b.points)
    c = chaos_game(inst, iterations=500, seed=124)
    assert not np.array_equal(a.points, c.points)


def test_chaos_game_respects_bounding_radius():
    for m, v, q in [
        ([[2]], [1], 2),
        ([[2, 6, 4], [-1, 2, 2], [-1, -1, -4]], [0, 0, 1], 6),
        ([[1, -3, 3], [3, -5, 3], [6, -6, 4]], [1, 1, 2], 4),
    ]:
        inst = _inst(m, v, q)
        sample = chaos_game(inst, iterations=2000, seed=5)
        assert np.max(np.abs(sample.points)) <= sample.radius + 1e-9


@pytest.mark.parametrize("m, v, iterations", [([[2]], [1], 5592406), (M_CUBE.rows, V_CUBE, 4194305)],
                         ids=["1-D", "3-D"])
def test_chaos_game_past_its_cap_draws_no_digit(monkeypatch, m, v, iterations):
    # the first refused count: iterations x (n + 5) floats just over 2^25
    inst = _inst(m, v, 2)
    assert (iterations - 1) * (inst.m.n + 5) <= 2**25 < iterations * (inst.m.n + 5)
    monkeypatch.setattr(random.Random, "getrandbits", lambda *a: pytest.fail("digits drawn"))
    with pytest.raises(TooLarge, match="over the cap of 268435456"):
        chaos_game(inst, iterations, seed=0)


def test_attractor_radius_unit_interval():
    # binary digits fill [0, 1]: dmax = 1 and sum of 2^{-j} bounds by 1
    inst = _inst([[2]], [1], 2)
    assert attractor_radius(inst) == pytest.approx(1.0)


def test_chaos_game_empirical_transform_matches_mu_hat():
    inst = _inst([[2]], [1], 2)
    n = 100000
    sample = chaos_game(inst, iterations=n, seed=11)
    xs = sample.points[:, 0]
    for xi in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)):
        empirical = np.exp(2j * np.pi * float(xi) * xs).mean()
        exact = mu_hat(inst, RatVector([xi])).value
        assert abs(empirical - exact) < 3 / math.sqrt(n)


def test_chaos_game_empirical_transform_3d():
    inst = ProblemInstance(M_CUBE, V_CUBE, 6)
    n = 40000
    sample = chaos_game(inst, iterations=n, seed=13)
    rng = random.Random(99)
    for _ in range(3):
        xi = RatVector([Fraction(rng.randint(-2, 2), rng.randint(1, 4)) for _ in range(3)])
        phase = sample.points @ np.array([float(c) for c in xi])
        empirical = np.exp(2j * np.pi * phase).mean()
        exact = mu_hat(inst, xi).value
        assert abs(empirical - exact) < 3 / math.sqrt(n)

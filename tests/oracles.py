"""Exact helpers shared by the tests, built on the rational reference
(RatMatrix and inverse) or on plain integer arithmetic rather than on the
code they check."""

import itertools

from affinespectra.errors import DuplicateFrequency
from affinespectra.linalg import IntMatrix, RatVector, inverse


def inverse_unimodular(u: IntMatrix) -> IntMatrix:
    """The integer inverse of a unimodular matrix, read off its rational
    inverse; a matrix whose inverse is not integral raises ValueError."""
    inv = inverse(u)
    if any(x.denominator != 1 for row in inv.rows for x in row):
        raise ValueError(f"{u!r} is not unimodular")
    return IntMatrix([[int(x) for x in row] for row in inv.rows])


def eval_matrix(p, m: IntMatrix) -> IntMatrix:
    """p(m) for an integer polynomial p, by Horner's rule."""
    acc = IntMatrix.identity(m.n).scaled(0)
    for c in reversed(p.coeffs):
        acc = acc * m + IntMatrix.identity(m.n).scaled(c)
    return acc


def oracle_sums(triple, depth):
    """The q^depth sums of a triple in itertools.product order, or the
    collision error."""
    q, mt, layers = triple.q, triple.m.transpose(), [triple.duals]
    while len(layers) < depth:
        layers.append([mt * s for s in layers[-1]])
    sums, seen = [], set()
    for choice in itertools.product(range(q), repeat=depth):
        acc = layers[0][choice[0]]
        for j in range(1, depth):
            acc = acc + layers[j][choice[j]]
        if acc.entries in seen:
            raise DuplicateFrequency(f"expansion collision at digits {choice}")
        seen.add(acc.entries)
        sums.append(acc)
    return sums


def oracle_spectrum(inst, triple, depth):
    """The frequencies by rational matrices: the companion sums through
    inverse(b)^T of the companion frame, then, at a reduced rank, padded
    with zeros and through b^T of the instance's block change of basis."""
    freqs = [s.to_rat() for s in oracle_sums(triple, depth)]
    if triple.coordinate_frame is not None:
        inv_t = inverse(triple.coordinate_frame.b).transpose()
        freqs = [inv_t * lam for lam in freqs]
    decomp = inst.leading.decomp
    if decomp is not None:
        b_t = decomp.b.transpose().to_rat()
        freqs = [b_t * RatVector(list(lam) + [0] * (inst.m.n - len(lam))) for lam in freqs]
    return freqs

"""Exact helpers shared by the tests, built on the rational reference
(RatMatrix and inverse), on plain Fraction elimination or on plain integer
arithmetic rather than on the code they check."""

import itertools
from fractions import Fraction

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


def inverse_by_fraction_gauss_jordan(rows):
    """Plain Fraction Gauss-Jordan on [A | I] for the rows of a square
    integer or rational A: the rows of A^{-1}, or None when A is singular."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]

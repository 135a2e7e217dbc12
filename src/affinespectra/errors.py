"""Exception taxonomy.

Three families, matching the CLI exit-code contract:

* ``ParseError``        -> exit 1 (malformed input file or schema violation)
* ``PreconditionError`` -> exit 2 (well-formed input outside the domain)
* ``InternalError``     -> exit 3 (an internal check failed; raised
  explicitly, never by ``assert``, so it holds under ``python -O``)
"""


class AffineSpectraError(Exception):
    """Base class for every error raised by this package."""


class ParseError(AffineSpectraError):
    """Input file is malformed or violates the instance schema."""


class PreconditionError(AffineSpectraError):
    """Input is well formed but violates a documented precondition."""


class InternalError(AffineSpectraError):
    """An internal invariant failed; indicates a bug, not bad input."""


# --- precondition violations (exit 2) ---

class NotExpanding(PreconditionError):
    pass


class ZeroVector(PreconditionError):
    pass


class BadQ(PreconditionError):
    pass


class Singular(PreconditionError):
    pass


class NotUnimodular(PreconditionError):
    pass


class RankDeficient(PreconditionError):
    pass


class NotFullRank(PreconditionError):
    """Krylov sequence does not span; companion conjugation impossible."""


class FullRank(PreconditionError):
    """Krylov sequence spans; block decomposition is not applicable."""


class NotDivisible(PreconditionError):
    """q does not divide the relevant determinant; no dual digit set."""


class GcdOne(PreconditionError):
    """gcd(q, |det M1|) = 1; no witness of infinite orthogonality exists."""


class UnverifiedTriple(PreconditionError):
    """Operation requires a triple whose unitarity has been verified."""


class DuplicateFrequency(PreconditionError):
    """Candidate spectrum sums collide; the input triple is not Hadamard."""


class TooLarge(PreconditionError):
    """Requested search space exceeds the hard enumeration cap."""


class NonConvergent(PreconditionError):
    """Iterates of the inverse transpose failed to contract in budget."""


# --- internal invariants (exit 3) ---

class InternalRankError(InternalError):
    """A block decomposition failed one of its rank checks."""

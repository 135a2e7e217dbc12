"""Exact spectrality classification for self-affine measures with
consecutive collinear digits."""

from .classify import (
    Classification,
    ConditionOnly,
    Conditions,
    HadamardCertificate,
    ProblemInstance,
    Verdict,
    WitnessCertificate,
    classify,
    leading_triple,
)
from .conjugation import (
    BlockDecomposition,
    CompanionConjugation,
    LeadingBlock,
    block_decompose,
    companion_conjugate,
    leading_block,
    map_spectrum,
)
from .evidence import (
    AttractorSample,
    CliqueReport,
    CompletenessReport,
    chaos_game,
    completeness_defect,
    max_orthogonal_clique,
)
from .fourier import (
    MuHatValue,
    OrthogonalityCertificate,
    Witness,
    certify_orthogonal,
    construct_witness,
    mask,
    mask_is_zero_exact,
    mu_hat,
    verify_witness,
    witness_orthogonal_family,
)
from .hadamard import (
    CandidateSpectrum,
    HadamardTriple,
    PhaseMatrix,
    candidate_spectrum,
    construct_dual_digits,
    phase_matrix,
    verify_hadamard,
)
from .linalg import (
    IntMatrix,
    IntPolynomial,
    IntVector,
    RatMatrix,
    RatVector,
    char_poly,
    det,
    hnf_unimodular,
    inverse,
    is_expanding,
    krylov,
    rank,
)

__version__ = "0.1.0"

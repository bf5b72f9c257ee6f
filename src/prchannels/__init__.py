"""Phase-retrievability analysis and synthesis for finite-dimensional quantum channels.

The package decides whether a channel given in Kraus form separates pure
states: exactly for Choi rank up to two and for a Hermitian kernel of
dimension at most one, and one-sidedly with machine checkable certificates
otherwise.  Complex frames are decided as their measurement channels.  It also
constructs channels that do phase retrieval with a minimal number of
rank-one observables, plus the matching negative examples.
"""

from . import errors
from .bilinear import OracleConfig
from .channels import (
    QuantumChannel,
    ValidationReport,
    adjoint_apply,
    apply,
    channels_equal,
    choi_matrix,
    choi_rank,
    minimal_kraus_from_choi,
    validate,
)
from .constructors import (
    FIXTURE_NAMES,
    POVM,
    ConstructionResult,
    channel_from_observables,
    fixture,
    orthogonal_projection_channel,
    projector_channel_from_frame,
    rank2_injective_plus_rankone,
    rankr_positive_construction,
)
from .deciders import (
    LIKELY_PR,
    NOT_FINITE,
    NOT_PR,
    PR,
    EmptyCertificate,
    InnerProductViolation,
    MacaulayCertificate,
    NoWitness,
    PencilClash,
    PRVerdict,
    StateWitness,
    TensorWitness,
    decide,
    decide_method,
    decide_rank1,
    decide_rank2,
    is_skew_commutative,
    necessary_inner_product_check,
    scalar_relative_spectrum,
    simple_tensor_oracle,
    symmetric_tensor_oracle,
    verify_certificate,
)
from .frames import (
    EXACT,
    LIKELY_YES,
    NO,
    UPPER_BOUND,
    YES,
    Frame,
    FrameReport,
    complement_property,
    frame_bounds,
    frame_operator,
    is_phase_retrievable_frame,
    minimal_pr_length,
    parseval_normalize,
    random_generic_frame,
    rank_one_independent,
)
from .linalg import (
    COMPLEX,
    DEFAULT_TOL,
    REAL,
    Tolerance,
    hermitian_eig,
    kernel_basis,
    numerical_rank,
)
from .spectra import (
    ALL_OF_C,
    FINITE,
    SingularSet,
    SpectrumPoint,
    constrained_2x2_eigenpair,
    in_relative_spectrum,
    is_left_invertible,
    pencil_singular_set,
)

__version__ = "0.1.0"

"""Secret sharing from correlated Gaussian sources over a public channel.

The package has three layers.  source_model and access_structure describe the
problem: a dealer's Gaussian variable observed through per-participant noisy
channels, and a monotone family of authorized coalitions.  capacity holds the
closed-form secret-capacity results together with a brute-force minimax
oracle that re-derives them numerically.  protocol is a desk-scale executable
model of the achievability scheme (quantization, random-codebook
reconciliation, Toeplitz-hash privacy amplification) with exact small-instance
security accounting and finite-blocklength bound evaluators.
"""

from . import protocol
from .access_structure import (
    AccessStructure,
    ExtremalSets,
    extremal_sets,
    monotone_closure,
    threshold_extremal_chain,
    threshold_structure,
)
from .capacity import (
    UNLIMITED,
    CapacityPoint,
    RateRegion,
    SaddleCheck,
    ThresholdComparison,
    UnlimitedRate,
    is_unlimited,
    optimal_conditional_variance,
    public_rate,
    rate_region,
    saddle_check,
    secret_capacity,
    secret_rate,
    threshold_compare,
    verify_rate_formulas,
)
from .errors import (
    BudgetExceeded,
    DegenerateVariance,
    DomainError,
    EmptyGenerator,
    EmptyGrid,
    GaussShareError,
    IndexOutOfRange,
    InvalidConfig,
    KTooLarge,
    NegativeRate,
    NonPositiveDefinite,
    NumericError,
    ThresholdOutOfRange,
    TooManyParticipants,
    ValidationError,
)
from .source_model import (
    SourceSpec,
    SubsetGain,
    derive_gain_vector,
    mutual_information,
    subset_snr,
)

__version__ = "0.1.0"

__all__ = [
    "AccessStructure",
    "BudgetExceeded",
    "CapacityPoint",
    "DegenerateVariance",
    "DomainError",
    "EmptyGenerator",
    "EmptyGrid",
    "ExtremalSets",
    "GaussShareError",
    "IndexOutOfRange",
    "InvalidConfig",
    "KTooLarge",
    "NegativeRate",
    "NonPositiveDefinite",
    "NumericError",
    "RateRegion",
    "SaddleCheck",
    "SourceSpec",
    "SubsetGain",
    "ThresholdComparison",
    "ThresholdOutOfRange",
    "TooManyParticipants",
    "UNLIMITED",
    "UnlimitedRate",
    "ValidationError",
    "derive_gain_vector",
    "extremal_sets",
    "is_unlimited",
    "monotone_closure",
    "mutual_information",
    "optimal_conditional_variance",
    "protocol",
    "public_rate",
    "rate_region",
    "saddle_check",
    "secret_capacity",
    "secret_rate",
    "subset_snr",
    "threshold_compare",
    "threshold_extremal_chain",
    "threshold_structure",
    "verify_rate_formulas",
]

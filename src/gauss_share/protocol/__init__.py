"""Executable model of the quantize / reconcile / hash secret-sharing scheme."""

from .bounds import (
    AchievableRateBound,
    CoalitionBoundInput,
    CoalitionErrorBound,
    ErrorBoundInputs,
    ReconciliationErrorBound,
    UnauthorizedRateTerm,
    achievable_rate_bound,
    bound_inputs,
    codebook_rates,
    error_bound,
)
from .codebook import (
    Codebook,
    build_codebook,
    is_jointly_typical,
    is_letter_typical,
    wz_decode,
    wz_encode,
)
from .hashing import (
    hash_matrix_for_input,
    privacy_amplify,
    seed_length,
    symbols_to_bits,
)
from .model import (
    DiscreteSourceModel,
    build_quantized_source,
    discretize_source,
    sample_source,
)
from .quantize import Quantizer, build_quantizer
from .simulate import (
    ErrorStats,
    MetricsReport,
    ProtocolConfig,
    run_protocol,
    wilson_interval,
)

__all__ = [
    "AchievableRateBound",
    "Codebook",
    "CoalitionBoundInput",
    "CoalitionErrorBound",
    "DiscreteSourceModel",
    "ErrorBoundInputs",
    "ErrorStats",
    "MetricsReport",
    "ProtocolConfig",
    "Quantizer",
    "ReconciliationErrorBound",
    "UnauthorizedRateTerm",
    "achievable_rate_bound",
    "bound_inputs",
    "build_codebook",
    "build_quantized_source",
    "build_quantizer",
    "codebook_rates",
    "discretize_source",
    "error_bound",
    "hash_matrix_for_input",
    "is_jointly_typical",
    "is_letter_typical",
    "privacy_amplify",
    "run_protocol",
    "sample_source",
    "seed_length",
    "symbols_to_bits",
    "wilson_interval",
    "wz_decode",
    "wz_encode",
]

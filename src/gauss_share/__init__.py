"""Secret sharing from correlated Gaussian sources over a public channel.

The package has three layers.  source_model and access_structure describe the
problem: a dealer's Gaussian variable observed through per-participant noisy
channels, and a monotone family of authorized coalitions.  capacity holds the
closed-form secret-capacity results together with a brute-force minimax
oracle that re-derives them numerically.  protocol is a desk-scale executable
model of the achievability scheme (quantization, random-codebook
reconciliation, Toeplitz-hash privacy amplification) with exact small-instance
security accounting and finite-blocklength bound evaluators.

The package re-exports the public names of access_structure, capacity,
errors (the exception taxonomy) and source_model, and each module's
`__all__` is the one list of them.
"""

from . import access_structure, capacity, errors, protocol, source_model
from .access_structure import *
from .capacity import *
from .errors import *
from .source_model import *

__version__ = "0.1.0"

__all__ = [
    "protocol",
    *access_structure.__all__,
    *capacity.__all__,
    *errors.__all__,
    *source_model.__all__,
]

"""Executable model of the quantize / reconcile / hash secret-sharing scheme.

The package re-exports the public names of bounds, codebook, hashing, model,
quantize and simulate, and each module's `__all__` is the one list of them.
normal (the normal CDF and quantile) and info (discrete entropies) are
not re-exported.
"""

from . import bounds, codebook, hashing, model, quantize, simulate
from .bounds import *
from .codebook import *
from .hashing import *
from .model import *
from .quantize import *
from .simulate import *

__all__ = [
    *bounds.__all__,
    *codebook.__all__,
    *hashing.__all__,
    *model.__all__,
    *quantize.__all__,
    *simulate.__all__,
]

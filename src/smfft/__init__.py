"""Sparse multidimensional FFT for real nonnegative spectra.

Recovers the support and values of an R-sparse nonnegative Fourier spectrum
from O(R log R log N) samples of the time-domain signal, in any fixed
dimension.  The values are fitted from the last ladder level's own samples;
if that fit does not converge, prime-grid draws give them instead, with a
failure probability that decays exponentially in their number: each draw
passes its contraction check with probability at least 1/2, and
ceil(-log2 p_fail) are made.  See README.md for usage.
"""

from .core_math import sample_coprime
from .errors import (CandidateBlowup, ContractionFailure, EnvelopeError,
                     IndexOutOfRange, ParseError, SmfftError)
from .md_transform import (RankOneLattice, flatten_index, md_sample_adapter,
                           md_sfft, relative_l2_error)
from .signal import (NoiseModel, SampleLedger, Sampler, SparseSpectrum,
                     load_signal_spec, make_noise)
from .support_recovery import (LastLevel, SupportParams, dealias_candidates,
                               find_aliased_support, find_support, plan_ladder)
from .value_recovery import (MeasurementSystem, apply_normal, compute_values,
                             draw_measurement)

__version__ = "0.1.0"

__all__ = [
    "sample_coprime",
    "CandidateBlowup", "ContractionFailure", "EnvelopeError", "IndexOutOfRange",
    "ParseError", "SmfftError",
    "RankOneLattice", "flatten_index", "md_sample_adapter", "md_sfft",
    "relative_l2_error",
    "NoiseModel", "SampleLedger", "Sampler", "SparseSpectrum",
    "load_signal_spec", "make_noise",
    "LastLevel", "SupportParams", "dealias_candidates", "find_aliased_support",
    "find_support", "plan_ladder",
    "MeasurementSystem", "apply_normal", "compute_values", "draw_measurement",
]

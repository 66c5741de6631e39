"""Sparse multidimensional FFT for real nonnegative spectra.

Recovers the support and values of an R-sparse nonnegative Fourier spectrum
from O(R log R log N) samples of the time-domain signal, in any fixed
dimension.  The values are fitted from the last ladder level's own samples;
if that fit does not converge, prime-grid draws give them instead: each
passes its contraction check with probability at least 1/2, and 14 are
made, so all fail with probability at most 2^-14.  See README.md for usage.
"""

from .errors import (CandidateBlowup, ContractionFailure, EnvelopeError,
                     IndexOutOfRange, ParseError, SmfftError)
from .md_transform import (RankOneLattice, flatten_index, md_sample_adapter,
                           md_sfft, relative_l2_error)
from .signal import (NoiseModel, SampleLedger, Sampler, SparseSpectrum,
                     load_signal_spec)
from .support_recovery import SupportParams

__version__ = "0.1.0"

__all__ = [
    "CandidateBlowup", "ContractionFailure", "EnvelopeError", "IndexOutOfRange",
    "ParseError", "SmfftError",
    "RankOneLattice", "flatten_index", "md_sample_adapter", "md_sfft",
    "relative_l2_error",
    "NoiseModel", "SampleLedger", "Sampler", "SparseSpectrum",
    "load_signal_spec", "SupportParams",
]

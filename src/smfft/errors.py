"""Exception types shared across the package."""


class SmfftError(Exception):
    """Base class for all smfft-specific failures."""


class IndexOutOfRange(SmfftError):
    """A (multi-)index fell outside the grid it was declared on."""


class CandidateBlowup(SmfftError):
    """The dealiasing candidate set exceeded its safety cap.

    Usually a symptom of parameter mis-estimation (mu too small, eta too
    large) rather than a bug in the ladder itself.
    """


class ContractionFailure(SmfftError):
    """Every measurement re-draw was rejected by the contraction test."""


class EnvelopeError(SmfftError):
    """The problem is too large for the ladder's exact int64 arithmetic;
    raised by plan_ladder, before any sample is drawn."""


class ParseError(SmfftError):
    """A signal spec file could not be parsed."""

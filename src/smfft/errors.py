"""Exception types shared across the package."""


class SmfftError(Exception):
    """Base class for all smfft-specific failures."""


class IndexOutOfRange(SmfftError):
    """A (multi-)index fell outside the grid it was declared on."""


class CandidateBlowup(SmfftError):
    """The dealiasing candidate set exceeded its safety cap.

    Usually a symptom of parameter mis-estimation (R or mu too small, eta too
    large) rather than a bug in the ladder itself.
    """


class ContractionFailure(SmfftError):
    """Every measurement re-draw was rejected by the contraction test."""


class Uncertified(SmfftError):
    """A fit on a first attempt missed CG's tolerance, or its residual
    exceeded the noise bound; md_sfft then searches again at the full K."""


class EnvelopeError(SmfftError):
    """The problem lies outside the pipeline's exact envelope.  Raised before
    any sample by SupportParams.k_base and plan_ladder (K or the padded N too
    large for the ladder's int64 arithmetic), and by md_sfft when a sample
    or a sum of its support or value stage overflows in units of mu."""


class ParseError(SmfftError):
    """A signal spec file could not be parsed."""

"""Exception hierarchy. Everything user-triggerable derives from SU11Error."""


class SU11Error(Exception):
    """Base class for domain errors raised by this package."""


class TruncationError(SU11Error):
    """Requested tail tolerance cannot be met within the hard ladder cap."""


class DegenerateRowError(SU11Error):
    """A likelihood row is identically zero over the whole phase grid."""


class DerivativeCheckError(SU11Error):
    """Finite-difference estimates at two step sizes disagree beyond tolerance."""


class CampaignError(SU11Error):
    """Too many trial failures inside an ensemble campaign."""


class WorkerError(SU11Error):
    """A child process running campaign cells died without returning them."""

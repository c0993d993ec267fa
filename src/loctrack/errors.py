"""Exception types shared across the package.

Every error raised on purpose derives from :class:`LocTrackError` so callers
can catch the package's failures without also swallowing programming errors.
"""


class LocTrackError(Exception):
    """Base class for all loctrack errors."""


class DimensionMismatch(LocTrackError):
    """Array shapes or index ranges do not line up."""


class DegenerateGeometry(LocTrackError):
    """A user sits on (or within the guard distance of) a RIS."""


class SamplingUnsupported(LocTrackError):
    """Trajectory sampling requested for a prior kind without a sampler."""


class NotGaussian(LocTrackError):
    """A closed-form Gaussian quantity was requested for a non-Gaussian prior."""


class EmptyEnsemble(LocTrackError):
    """A Monte Carlo expectation was requested over zero trajectories."""


class SingularEfim(LocTrackError):
    """The equivalent FIM is singular to working precision."""


class SingularBlock(LocTrackError):
    """A diagonal information block is singular, so its walk step is undefined."""


class SeriesDiverged(LocTrackError):
    """The coupling Neumann series does not converge (spectral radius >= 1)."""


class SingularInner(LocTrackError):
    """An inner matrix of the first-passage linear system is singular."""


class NotSpd(LocTrackError):
    """A matrix required to be symmetric positive definite is not."""


class SingularState(LocTrackError):
    """A recursive filtering state lost invertibility."""


class SchemaMismatch(LocTrackError):
    """A spec, setting, table or file does not have the form a consumer needs."""


class CampaignAborted(LocTrackError):
    """Too many Monte Carlo runs failed; the campaign result is not trustworthy."""

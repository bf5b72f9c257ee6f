"""Exception types shared across the package."""


class ChannelAnalysisError(Exception):
    """Base class for every package-specific error."""


class DimensionMismatch(ChannelAnalysisError):
    """Operands have incompatible shapes."""


class NotHermitian(ChannelAnalysisError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NotPSD(ChannelAnalysisError):
    """A matrix required to be positive semidefinite has a negative eigenvalue."""


class NotAFrame(ChannelAnalysisError):
    """The given vectors do not span the space."""


class TooManyVectors(ChannelAnalysisError):
    """Exhaustive bipartition enumeration was requested beyond the supported size."""


class WrongRank(ChannelAnalysisError):
    """A decider specialized to low Choi rank received a channel it does not settle."""


class NotSquare(ChannelAnalysisError):
    """The operation requires square Kraus operators (equal input/output dimension)."""


class NotFinite(ChannelAnalysisError):
    """A relative joint spectrum turned out to be a continuum, not a finite set."""


class WrongField(ChannelAnalysisError):
    """The operation is only defined for the other scalar field."""


class ConstraintViolated(ChannelAnalysisError):
    """The constrained eigenvalue system is not satisfied by the input matrix."""


class UnknownFixture(ChannelAnalysisError):
    """No fixture is registered under the requested name."""


class BadPartition(ChannelAnalysisError):
    """The block partition is empty, non-positive, or has fewer than two blocks."""


class NotIndependent(ChannelAnalysisError):
    """The rank-one projections of the given vectors are linearly dependent."""


class SpanConditionFailed(ChannelAnalysisError):
    """The identity lies in the span of a proper subset of the observables."""


class NotPhaseRetrievableFrame(ChannelAnalysisError):
    """The construction needs a phase-retrievable frame and the given one is not."""


class DependentOuterProducts(ChannelAnalysisError):
    """Sampling could not reach linearly independent rank-one parts."""

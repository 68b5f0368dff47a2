"""Exception taxonomy shared across the toolkit."""


class HyperflowError(Exception):
    """Base class for all toolkit errors."""


class CurvatureOutsideCone(HyperflowError):
    """A curvature tuple lies outside the speed's admissible cone."""


class NonPositiveSpeed(HyperflowError):
    """Speed evaluation returned a non-positive or non-finite value."""


class EmptySample(HyperflowError):
    """A sampling plan produced no admissible cone points."""


class ConeExit(HyperflowError):
    """Evolution drove some curvature tuple out of the admissible cone."""


class IndeterminateDivergence(HyperflowError):
    """Numeric probing cannot decide whether an improper integral diverges."""


class DegenerateElement(HyperflowError):
    """Zero-length edge or zero-area triangle."""


class CenterOutside(HyperflowError):
    """A reference center that must lie inside the surface does not."""


class MeshDegeneracy(HyperflowError):
    """Mesh quality fell below the acceptable floor."""


class NonFiniteState(HyperflowError):
    """NaN or infinity appeared in evolving vertex data."""


class InsufficientFrames(HyperflowError):
    pass


class StartNotStrict(HyperflowError):
    """Reflection monitoring requires a strict verdict at its start time."""


class NeverTouches(HyperflowError):
    """The trajectory never reaches the given plane."""


class EmptyTrajectory(HyperflowError):
    pass


class PreconditionFailed(HyperflowError):
    """A composite audit's precondition did not hold."""


class ConfigError(HyperflowError):
    pass


class ParseError(ConfigError):
    """Malformed configuration text."""


class ValidationError(ConfigError):
    """Well-formed configuration with inadmissible values."""

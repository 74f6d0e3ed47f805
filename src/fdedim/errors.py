"""Exception hierarchy shared across the toolkit."""


class FdedimError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(FdedimError):
    """Invalid configuration, malformed input, or violated precondition."""


class ShapeError(ConfigError):
    """Incompatible grid or array shapes."""


class DomainError(ConfigError):
    """Argument outside the mathematical domain of an operation."""


class ContourError(FdedimError):
    """Contour integration failed (contour too close to a root)."""


class TruncationError(FdedimError):
    """Spectrum floor does not cover all requested modes."""

    def __init__(self, msg, mode=None):
        super().__init__(msg)
        self.mode = mode


class DegenerateRootError(FdedimError):
    """Non-semisimple characteristic root; projection undefined."""


class IntegrationError(FdedimError):
    """Trajectory blow-up or integrator failure."""


class NetConstructionError(FdedimError):
    """Greedy covering net failed to terminate below the size guard."""


class DegeneratePairError(FdedimError):
    """Trajectory pair with zero initial separation."""

"""Exception hierarchy for the Capstan reproduction.

All library-specific exceptions derive from :class:`CapstanError` so callers
can catch a single base class at API boundaries.
"""

from __future__ import annotations


class CapstanError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class FormatError(CapstanError):
    """Raised when a sparse tensor format is malformed or misused.

    Examples include non-monotonic CSR row pointers, out-of-range column
    indices, or attempting to build a format from inconsistent arrays.
    """


class ConversionError(FormatError):
    """Raised when a conversion between sparse formats is not possible."""


class ConfigurationError(CapstanError):
    """Raised when an architecture configuration is invalid.

    For example a lane count that is not a power of two, or a shuffle
    network whose endpoint count does not match the grid.
    """


class SimulationError(CapstanError):
    """Raised when a hardware component simulation reaches an invalid state."""


class WorkloadError(CapstanError):
    """Raised when a workload/dataset cannot be generated or loaded."""

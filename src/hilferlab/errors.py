"""Exception types shared across the package.

Plain ``ValueError`` / ``OverflowError`` are raised for scalar domain
violations; the classes below mark failures that callers may want to
catch selectively (quadrature setup, series range and truncation, solver
blow-up, delay bookkeeping, config parsing).
"""


class HilferLabError(Exception):
    """Base class for package-specific failures."""


class GridError(HilferLabError, ValueError):
    """Grid nodes violate the required monotone / endpoint structure."""


class SeriesConvergenceError(HilferLabError, ArithmeticError):
    """A series evaluation hit its term cap before the stopping rule fired."""


class SeriesRangeError(HilferLabError, ValueError):
    """A series evaluation was refused: its argument lies outside the supported range."""


class DivergenceError(HilferLabError, ArithmeticError):
    """Fixed-point iteration produced non-finite values."""


class DelayRangeError(HilferLabError, ValueError):
    """A delayed argument fell below the covered history window."""


class ConfigError(HilferLabError, ValueError):
    """Experiment configuration failed to parse or validate."""

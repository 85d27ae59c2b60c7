"""Exception hierarchy shared across the package.

Every failure mode raised by the library derives from :class:`StorageError`,
so callers (and the CLI exit-code mapping) can catch one base class.  Each
class here is raised or caught by package code; errors that only the test
oracles raise live with them in ``tests/oracles.py``.
"""


class StorageError(Exception):
    """Base class for all errors raised by storagesddp."""


class ConfigError(StorageError, ValueError):
    """Invalid or inconsistent run configuration or command-line argument."""


class DataError(StorageError):
    """Input data could not be ingested."""


class DegenerateInputError(DataError):
    """Regression input carries no usable signal: too few observations, or no variance."""


class CheckpointError(DataError, ValueError):
    """A cut-pool checkpoint cannot be used.

    It is missing or malformed, has another format version, or was trained
    on another price model, battery, risk aversion or chain.
    """


class StageOutOfRangeError(StorageError):
    """Stage index outside 1..T."""


class InvalidOrderError(StorageError):
    """Quadrature order below 1, or so high that its weights underflow to 0 or NaN."""


class NumericalUnderflowError(StorageError):
    """A transition row lost essentially all mass; sampling density mismatched."""


class ConditionViolatedError(StorageError):
    """The bid/ask-vs-efficiency condition fails, so the relaxation may be strict."""


class OverflowGuardError(StorageError):
    """Wealth so negative that the exponential utility would overflow."""


class InfeasibleError(StorageError):
    """Stage problem has no feasible point (state outside its box)."""


class NotTrainedError(StorageError):
    """A policy operation was requested before training: no iteration, or a node without cuts."""


class DegenerateSampleError(StorageError):
    """Sample too small or with zero variance for density estimation."""

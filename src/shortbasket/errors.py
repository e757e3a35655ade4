"""Exception hierarchy shared across the package.

Every domain failure derives from :class:`ShortBasketError` so CLI entry
points can map library errors to a nonzero exit code in one place.
Builtin ``ValueError``/``OSError`` are still used where they are the
natural fit (bad row values, file I/O).
"""

from __future__ import annotations


class ShortBasketError(Exception):
    """Base class for all domain errors raised by this package."""


class ConfigError(ShortBasketError):
    """A run configuration is malformed or internally inconsistent."""


class MissingVariableRange(ShortBasketError):
    """A simulation seed config does not cover every lending variable."""


class SchemaError(ShortBasketError):
    """A CSV file does not match the documented column schema."""


class OrderError(ShortBasketError):
    """Observation dates are out of order or duplicated within a series."""


class EmptySeries(ShortBasketError):
    """An aggregate was requested over an empty value sequence."""


class InsufficientHistory(ShortBasketError):
    """Not enough observations to evaluate a windowed statistic."""


class EmptyAfterFilters(ShortBasketError):
    """Ranking was requested on an empty post-filter universe."""


class InsufficientSnapshots(ShortBasketError):
    """Rank-stability needs at least two ranking snapshots."""


class InfeasibleCap(ShortBasketError):
    """Position cap times basket size is below 1; weights cannot sum to 1."""


class NonPositiveScore(ShortBasketError):
    """A security selected for the basket carries a score <= 0."""


class NonFiniteScore(ShortBasketError):
    """A security selected for the basket carries an infinite or NaN score."""


class PathTooShort(ShortBasketError):
    """Path statistics need at least two points."""


class GenerationFailure(ShortBasketError):
    """A constrained scenario could not be generated in bounded retries."""

"""Exception types raised across the package.

Every error that callers are expected to handle derives from
:class:`BundlecastError`, so pipeline code can catch one base class and
re-tag it with the stage that failed.
"""


class BundlecastError(Exception):
    """Base class for all package errors."""


# --- panel ingest -----------------------------------------------------------

class FormatError(BundlecastError):
    """Malformed input file (bad header, ragged row, unparsable field)."""


class MissingColumnError(BundlecastError):
    """Asset set of the metadata file and the series file disagree."""


class TimestampGapError(BundlecastError):
    """Series timestamps are not strictly increasing with a uniform step."""


class ValueOutOfRangeError(BundlecastError):
    """A series value is missing, non-finite, negative, or above capacity."""


class DuplicateAssetIdError(BundlecastError):
    """The same asset identifier appears more than once."""


class TooShortSeriesError(BundlecastError):
    """Panel has too few time steps for the requested covariance."""


# --- bundling ---------------------------------------------------------------

class DimensionMismatchError(BundlecastError):
    """Array shapes are inconsistent with each other."""


class InfeasibleMergeError(BundlecastError):
    """Greedy merging ran out of diameter-feasible pairs before reaching K.

    Attributes:
        bundles_reached: bundle count at the point no feasible pair remained.
    """

    def __init__(self, message: str, bundles_reached: int):
        super().__init__(message)
        self.bundles_reached = bundles_reached


class PartitionTooLargeError(BundlecastError):
    """Exact enumeration was asked for more assets than it can handle."""


class InfeasiblePartitionError(BundlecastError):
    """No partition into K bundles satisfies the diameter constraint."""


# --- forecasting ------------------------------------------------------------

class InsufficientDataError(BundlecastError):
    """Training series too short for the requested window/horizon."""


class SingularSystemError(BundlecastError):
    """Ridge normal equations are singular (only possible at lambda=0)."""


class LengthMismatchError(BundlecastError):
    """Prediction history length differs from the model's input window."""


# --- reconciliation ---------------------------------------------------------

class ShapeMismatchError(BundlecastError):
    """Forecast and actual containers disagree in shape or origins."""


class NoOriginsError(BundlecastError):
    """Residual estimation received zero forecast origins."""


# --- metrics ----------------------------------------------------------------

class NonpositiveCapacityError(BundlecastError):
    """NMAE normalization requires strictly positive capacities."""


class NonpositiveOrderError(BundlecastError):
    """Variogram score order p must be > 0."""


class ExpensiveMetricError(BundlecastError):
    """Quadratic-cost metric requested on a wide level without opting in."""


# --- configuration ----------------------------------------------------------

class ConfigError(BundlecastError):
    """Config file is missing keys or holds values that fail validation."""

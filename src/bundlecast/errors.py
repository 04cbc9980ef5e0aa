"""Exception types raised across the package.

Every error that callers are expected to handle derives from
:class:`BundlecastError`, so pipeline code can catch one base class and
re-tag it with the stage that failed. The subclasses are the kinds of
failure a caller can tell apart:

* :class:`FormatError` -- an input file or its content is malformed;
* :class:`ValueOutOfRangeError` -- a value or parameter is outside its range;
* :class:`ShapeMismatchError` -- arrays or containers disagree in shape;
* :class:`InsufficientDataError` -- too little data for the computation;
* :class:`InfeasibleMergeError` -- the greedy runs out of diameter-feasible
  merges before it reaches K bundles;
* :class:`ConfigError` -- a config file or the run directory is unusable.
"""


class BundlecastError(Exception):
    """Base class for all package errors."""


class FormatError(BundlecastError):
    """Malformed input: bad header, ragged row, unparsable field, duplicate
    or missing asset ids, timestamps that are not a uniform grid."""


class ValueOutOfRangeError(BundlecastError):
    """A value or parameter is missing, non-finite, or outside its range."""


class ShapeMismatchError(BundlecastError):
    """Arrays or containers disagree in shape, length, or origins."""


class InsufficientDataError(BundlecastError):
    """Too few samples or origins for the requested computation."""


class InfeasibleMergeError(BundlecastError):
    """Greedy merging ran out of diameter-feasible pairs before reaching K.

    Attributes:
        bundles_reached: bundle count at the point no feasible pair remained.
    """

    def __init__(self, message: str, bundles_reached: int):
        super().__init__(message)
        self.bundles_reached = bundles_reached


class ConfigError(BundlecastError):
    """Config file is missing keys, holds values that fail validation, or does
    not fit the panel or run directory it is used with."""

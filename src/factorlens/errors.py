"""Exception types and the warning helper shared across the package."""

import os
import sys
import warnings

_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def warn_at_caller(message: str) -> None:
    """warnings.warn, attributed to the nearest calling frame outside this package.

    Frozen frames (<frozen runpy> under python -m) name no file a user can
    open, so they are passed over; where nothing else calls the package, the
    warning names the package's outermost frame.
    """
    frame, level, named = sys._getframe(1), 2, 2
    while frame is not None:
        filename = frame.f_code.co_filename
        if not filename.startswith("<frozen"):
            named = level
            if not filename.startswith(_PACKAGE_DIR):
                break
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=named)


class FactorLensError(Exception):
    """Base class for all package-specific errors."""


class BadDimension(FactorLensError):
    """Dimensions are inconsistent or outside the supported range."""


class NotPositiveDefinite(FactorLensError):
    """Matrix failed the positive-definiteness check."""


class Singular(NotPositiveDefinite):
    """Sample covariance of the stacked data is numerically singular.

    index is the position of the first failing dataset in a stack.
    """

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class DomainError(FactorLensError):
    """Argument outside the mathematical domain of a function."""


class DegenerateDof(FactorLensError):
    """Too few degrees of freedom for the requested adjustment."""


class MissingNullSample(FactorLensError):
    """Critical-value table was built without retaining its null sample."""


class MissingCalibration(FactorLensError):
    """Calibrated critical values are required but not available."""


class ParseError(FactorLensError):
    """CSV cell could not be parsed; message carries the location."""


class MissingColumn(FactorLensError):
    """Named column absent from the CSV header."""


class MissingValue(FactorLensError):
    """Missing or non-finite cell in the CSV; message carries the location."""


class TooFewRows(FactorLensError):
    """Not enough observations for the requested model dimensions."""


class WorkerFailed(FactorLensError):
    """A worker process of the calibration engine failed; the message names its replicates."""

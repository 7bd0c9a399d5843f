"""Exception types shared across the package."""


class FactorLensError(Exception):
    """Base class for all package-specific errors."""


class BadDimension(FactorLensError):
    """Dimensions are inconsistent or outside the supported range."""


class BadIndex(FactorLensError):
    """Row or column index outside the valid range."""


class NotPositiveDefinite(FactorLensError):
    """Matrix failed the positive-definiteness check."""


class Singular(NotPositiveDefinite):
    """Sample covariance of the stacked data is numerically singular."""


class DomainError(FactorLensError):
    """Argument outside the mathematical domain of a function."""


class DegenerateCorrection(FactorLensError):
    """Bartlett-style correction factor is not positive."""


class DegenerateDof(FactorLensError):
    """Too few degrees of freedom for the requested adjustment."""


class MissingNullSample(FactorLensError):
    """Critical-value table was built without retaining its null sample."""


class MissingCalibration(FactorLensError):
    """Calibrated critical values are required but not available."""


class EmptySample(FactorLensError):
    """Empty sample where at least one observation is required."""


class ParseError(FactorLensError):
    """CSV cell could not be parsed; message carries the location."""


class MissingColumn(FactorLensError):
    """Named column absent from the CSV header."""


class MissingValue(FactorLensError):
    """Missing or non-finite cell in the CSV; message carries the location."""


class TooFewRows(FactorLensError):
    """Not enough observations for the requested model dimensions."""

"""Exception types shared across the calibration toolkit."""


class CalibrationError(Exception):
    """Base class for every error raised by this package."""


class IllConditionedError(CalibrationError, ValueError):
    """A covariance matrix is numerically singular for the requested operation."""


class RankDeficiencyError(IllConditionedError):
    """Excitation is missing along one or more axes entirely.

    ``axis`` names the weakest excitation axis ('x', 'y' or 'z').
    """

    def __init__(self, message: str, axis: str):
        super().__init__(message)
        self.axis = axis


class TrajectoryRejectedError(CalibrationError):
    """An optimized trajectory's condition number is above the accepted band."""

"""Exception types shared across the toolkit."""


class PumpwatchError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(PumpwatchError):
    """Invalid configuration value or combination."""


class ShapeError(PumpwatchError):
    """Array shape does not match what an operation requires."""


class DatasetFormatError(PumpwatchError):
    """A dataset file could not be parsed or failed validation.

    Carries the 1-based line number of the offending record.
    """

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class SplitError(PumpwatchError):
    """Dataset cannot be split as requested (e.g. too few healthy samples)."""


class EvalSplitWarning(PumpwatchError, UserWarning):
    """The eval split has rows but no healthy one, so no false positive can
    lower its precision.  A library call warns and goes on; the ``run`` and
    ``evaluate`` commands raise it as an error."""


class CalibrationError(PumpwatchError):
    """Threshold calibration received unusable input."""


class TrainingError(PumpwatchError):
    """Training diverged or was otherwise aborted.

    ``epoch`` is the 0-based epoch in which the problem was detected.
    """

    def __init__(self, message, epoch=None):
        if epoch is not None:
            message = f"epoch {epoch}: {message}"
        super().__init__(message)
        self.epoch = epoch


class UsageError(PumpwatchError):
    """An operation was called in a way its contract forbids."""

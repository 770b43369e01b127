"""The three root exceptions: the one an error derives from decides the CLI's exit code."""


class UsageError(ValueError):
    """A flag value the command cannot use (exit 2)."""


class DatasetError(ValueError):
    """A malformed input: records, crops, model, threshold, sample or scenario files (exit 3)."""


class TrainingDivergedError(RuntimeError):
    """Training loss became non-finite (exit 4)."""

"""Exception hierarchy for the repro package.

Every exception raised by the library derives from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SchemaError(ReproError):
    """A schema is malformed or an attribute reference cannot be resolved."""


class TableError(ReproError):
    """A table operation received inconsistent rows, columns or indexes."""


class CsvFormatError(TableError):
    """A CSV document could not be parsed into a rectangular table."""


class PatternSyntaxError(ReproError):
    """A pattern string violates the restricted pattern grammar."""

    def __init__(self, message, text=None, position=None):
        super().__init__(message)
        self.text = text
        self.position = position


class ConstraintError(ReproError):
    """A constrained pattern or PFD definition is invalid."""


class DiscoveryError(ReproError):
    """The PFD discovery pipeline was misconfigured or failed."""


class DetectionError(ReproError):
    """The error-detection engine was asked to do something impossible."""


class ProjectError(ReproError):
    """The ANMAT project store is inconsistent or a lookup failed."""


class EvaluationError(ReproError):
    """Evaluation metrics were requested on incompatible inputs."""

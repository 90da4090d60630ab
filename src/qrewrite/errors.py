"""Exception types shared across the package.

Kept in one place so the CLI can map error classes onto exit codes.
"""


class ShapeError(ValueError):
    """Operands have incompatible or invalid shapes."""


class LengthError(ValueError):
    """A token sequence exceeds the configured maximum length."""


class ArrangementError(ValueError):
    """Document graph cannot be serialized (disconnected, or the answer
    document is missing or ambiguous)."""


class DataFormatError(ValueError):
    """A dataset, prediction or report file is malformed."""


class CompatibilityError(ValueError):
    """Checkpoint and dataset/vocabulary do not match."""


class ConfigError(ValueError):
    """Unknown or inconsistent configuration keys."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss, or greedy decoding a non-finite
    logit."""


class GenerationError(RuntimeError):
    """The synthetic world cannot satisfy a generation request."""

"""Exception hierarchy shared across the package, and the config type check."""


def is_a(value, kind) -> bool:
    """isinstance check that does not count a bool as a number."""
    return isinstance(value, kind) and not isinstance(value, bool)


class NeurolockError(Exception):
    """Base class for all package-specific errors."""


class ParseError(NeurolockError):
    """Malformed input file. Carries the byte/row position when known."""

    def __init__(self, message, offset=None):
        super().__init__(message if offset is None else f"{message} (offset {offset})")
        self.offset = offset


class EmptyRecording(NeurolockError):
    """File parsed fine but contains no data records."""


class ConfigError(NeurolockError):
    """Invalid parameter or configuration value."""


class LengthError(NeurolockError):
    """Signal or series too short for the requested operation."""


class DegenerateSignal(NeurolockError):
    """Signal has no usable content (all-zero, constant, zero variance)."""


class ConvergenceError(NeurolockError):
    """Iterative method exhausted its iteration budget."""


class DegenerateGraph(NeurolockError):
    """Graph has no edges / zero total weight."""


class DisconnectedGraph(NeurolockError):
    """Path-based metric requested on a graph with unreachable node pairs."""


class ShapeError(NeurolockError):
    """Dimension mismatch between operands."""


class IncompatibleTemplates(NeurolockError):
    """Templates cannot be matched (length, key id, or ratio mismatch)."""


class ObjectiveError(NeurolockError):
    """Objective function returned NaN during optimization."""


class SingularityError(NeurolockError):
    """Singular covariance with no regularization."""

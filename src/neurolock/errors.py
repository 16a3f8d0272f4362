"""Exception hierarchy shared across the package, and the config value rule."""

import contextlib
import numbers
import sys

MAX_COUNT = sys.maxsize  # np.iinfo(np.intp).max: the most items one array can index


def is_a(value, kind) -> bool:
    """isinstance, but a bool is only a bool, and an int too large for a float is no Real."""
    if kind is numbers.Real and isinstance(value, int) and abs(value) > sys.float_info.max:
        return False
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def require(name: str, value, kind, ok, what: str) -> None:
    """Raise ConfigError unless value is a `kind` (see is_a) and ok(value) holds."""
    if not is_a(value, kind) or not ok(value):
        raise ConfigError(f"{name} must be {what}, got {value!r}")


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


@contextlib.contextmanager
def error_context(where: str, kinds=NeurolockError):
    """Put `where` in front of the message of a `kinds` error raised inside."""
    try:
        yield
    except kinds as exc:
        exc.args = (f"{where}: {exc}",)
        raise

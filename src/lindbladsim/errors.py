"""Exception types shared across the package, and the argument checks on times,
precisions, rates and counts."""

import math
import numbers


class LindbladSimError(Exception):
    """Base class for every error raised by this package."""


class ModelError(LindbladSimError, ValueError):
    """Invalid physical model: non-Hermitian Hamiltonian, bad shapes, bad bounds."""


class ArgumentError(LindbladSimError, ValueError):
    """Invalid argument to a numerical routine."""


class ResourceLimitError(LindbladSimError):
    """The requested work exceeds a desk-scale guard: series nodes or superoperator
    bytes in the engine, Kraus terms or grid tuples read out, or sampler calls of
    a time-ordered run."""


class InfeasiblePrecisionError(LindbladSimError):
    """No truncation orders within the search caps reach the requested precision."""


class PauliParseError(LindbladSimError, ValueError):
    """Syntax error in a Pauli-sum expression; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ContractError(LindbladSimError):
    """A primitive was invoked outside the premise its guarantee needs."""

    def __init__(self, message: str, measured: float | None = None):
        super().__init__(message)
        self.measured = measured


def check_time(t: float, name: str = "evolution time", positive: bool = False) -> None:
    """Raise ArgumentError unless t is finite and nonnegative (positive if asked);
    also checks a target precision eps, with positive=True, a rate or
    derivative bound such as beta, and a normalizer, coefficient or tolerance."""
    if not (math.isfinite(t) and (t > 0 if positive else t >= 0)):
        sign = "positive" if positive else "nonnegative"
        raise ArgumentError(f"{name} must be {sign} and finite, got {t}")


def check_finite(t: float, name: str) -> None:
    """Raise ArgumentError unless t is finite: a time that may be negative, such as
    a sample time or a propagator endpoint."""
    if not math.isfinite(t):
        raise ArgumentError(f"{name} must be finite, got {t}")


def check_count(n, name: str, minimum: int, maximum: int | None = None):
    """n, after raising ArgumentError unless it is an integer, Python or NumPy, and
    minimum <= n, and n <= maximum unless that is None: an order, a grid or
    segment count, a seed."""
    if not isinstance(n, numbers.Integral) or n < minimum or (maximum is not None and n > maximum):
        span = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise ArgumentError(f"{name} must be an integer {span}, got {n}")
    return n

"""Exception types shared across the package, and the integer argument check."""
import operator


class DomainError(ValueError):
    """An argument is outside the documented domain of an operation."""


def require_int(name: str, value, lo: int | None = None,
                hi: int | None = None) -> int:
    """``value`` as a Python int in [lo, hi] (``hi`` only with ``lo``).

    Any integer passes, NumPy's and bool included; a float, even 48.0, and
    an int out of range raise ``DomainError`` naming the argument.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if lo is not None and value < lo or hi is not None and value > hi:
        bound = f"{name} >= {lo}" if hi is None else f"{lo} <= {name} <= {hi}"
        raise DomainError(f"need {bound}, got {value}")
    return value


class PoleError(ZeroDivisionError):
    """A linear fractional transformation was evaluated at its pole."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed (cost identities, hard worst-case bounds).

    This is never a user error: it means two independent computations of the
    same quantity disagreed, so the library itself is wrong somewhere.
    """


class ConvergenceError(RuntimeError):
    """An iterative solver ran out of iterations.

    The partial result is attached as the ``result`` attribute so callers can
    inspect the last iterate.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result

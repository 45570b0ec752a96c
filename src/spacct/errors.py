"""Exception types and input checks shared across the package."""

import math
import numbers


class DomainError(ValueError):
    """An argument violates an operation's precondition."""


class CapacityError(RuntimeError):
    """An exhaustive computation would exceed its configured cap."""


def magnitude(count: int) -> str:
    """A count for a message; math.log10 takes any int, where float() overflows."""
    return str(count) if count < 10**12 else f"about 10^{math.floor(math.log10(count))}"


def is_int(value) -> bool:
    """An integer (numpy ones included) that is not a bool: True would read as 1."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)

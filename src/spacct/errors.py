"""Exception types and input checks shared across the package."""

import math
import numbers


class DomainError(ValueError):
    """An argument violates an operation's precondition."""


class CapacityError(RuntimeError):
    """An exhaustive computation would exceed its configured cap."""


def magnitude(count: int, shift: int = 0) -> str:
    """count * 2^shift for a message, exact below 10^12; past 2^40 > 10^12 the
    shift is added as a log, not multiplied out. math.log10 takes any int."""
    head, tail = count << min(shift, 40), max(shift - 40, 0) * math.log10(2)
    return str(head) if head < 10**12 else f"about 10^{math.floor(math.log10(head) + tail)}"


def is_int(value) -> bool:
    """An integer (numpy ones included) that is not a bool: True would read as 1."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)

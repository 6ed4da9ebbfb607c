"""One rule for a numeric setting that comes from outside the program: an
integer is not a bool and meets its lower bound; a real is not a bool, is
finite and lies in an interval written as in maths, such as ``"(0, 1]"``."""

import math
import numbers


def integer(name: str, value, least: int):
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)) or value < least:
        raise ValueError(f"{name} must be at least {least} and an integer, got {value!r}")
    return value


def real(name: str, value, interval: str):
    low, high = map(float, interval[1:-1].split(","))
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)) or not (
            math.isfinite(value) and (low < value if interval[0] == "(" else low <= value)
            and (value < high if interval[-1] == ")" else value <= high)):
        raise ValueError(f"{name} must be in {interval}, got {value!r}")
    return value

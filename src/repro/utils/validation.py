"""Argument-validation helpers with consistent error messages.

These are used at public API boundaries so that misuse fails fast with a
message naming the offending parameter, rather than propagating NaNs or
index errors deep into the LP solver or the simulators.
"""

from __future__ import annotations

import math
from typing import Union

Number = Union[int, float]

__all__ = [
    "approx_eq",
    "check_finite",
    "check_in_range",
    "check_non_negative",
    "check_positive",
    "check_probability",
]


def approx_eq(
    a: Number,
    b: Number,
    *,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-12,
) -> bool:
    """Tolerance equality for accumulated float quantities.

    Tree cost, reliability, and lifetime are sums/products of many float
    terms (and the engine maintains them incrementally), so bitwise ``==``
    on them is path-dependent; compare them through this helper instead.
    The defaults absorb ulp-level drift while still distinguishing any two
    genuinely different trees of practical size.
    """
    return math.isclose(float(a), float(b), rel_tol=rel_tol, abs_tol=abs_tol)


def check_finite(value: Number, name: str) -> float:
    """Require *value* to be a finite real number; return it as float."""
    try:
        val = float(value)
    except (TypeError, ValueError) as exc:
        raise TypeError(f"{name} must be a real number, got {value!r}") from exc
    if math.isnan(val) or math.isinf(val):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return val


def check_positive(value: Number, name: str) -> float:
    """Require ``value > 0``; return it as float."""
    val = check_finite(value, name)
    if val <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return val


def check_non_negative(value: Number, name: str) -> float:
    """Require ``value >= 0``; return it as float."""
    val = check_finite(value, name)
    if val < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return val


def check_probability(value: Number, name: str, *, allow_zero: bool = True) -> float:
    """Require *value* in ``[0, 1]`` (or ``(0, 1]``); return it as float."""
    val = check_finite(value, name)
    low_ok = val >= 0 if allow_zero else val > 0
    if not (low_ok and val <= 1):
        interval = "[0, 1]" if allow_zero else "(0, 1]"
        raise ValueError(f"{name} must be in {interval}, got {value!r}")
    return val


def check_in_range(
    value: Number,
    name: str,
    low: Number,
    high: Number,
    *,
    low_inclusive: bool = True,
    high_inclusive: bool = True,
) -> float:
    """Require *value* in the given interval; return it as float."""
    val = check_finite(value, name)
    low_ok = val >= low if low_inclusive else val > low
    high_ok = val <= high if high_inclusive else val < high
    if not (low_ok and high_ok):
        lo_b = "[" if low_inclusive else "("
        hi_b = "]" if high_inclusive else ")"
        raise ValueError(f"{name} must be in {lo_b}{low}, {high}{hi_b}, got {value!r}")
    return val

"""Exact rational helpers: parsing, formatting, range checks.

All values handled by the package are `fractions.Fraction` instances; they
stay canonical (reduced, positive denominator) by construction.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConstantOutOfRangeError

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", an integer, or an exact decimal literal ("0.25").

    Only strings are accepted: a JSON number is not an exact literal."""
    if not isinstance(text, str):
        raise ValueError(f"not a rational literal: {text!r} is not a string")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConstantOutOfRangeError(f"not a rational literal: {text!r}") from exc


def require_unit(q: Fraction) -> Fraction:
    if not ZERO <= q <= ONE:
        raise ConstantOutOfRangeError(f"rational {q} outside [0,1]")
    return q


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"

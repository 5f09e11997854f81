"""Exact rational helpers: parsing and range checks.

All values handled by the package are `fractions.Fraction` instances; they
stay canonical (reduced, positive denominator) by construction, so ``str``
writes each as its one literal: "p" when the denominator is 1, else "p/q".
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConstantOutOfRangeError

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", an integer, or an exact decimal literal ("0.25").

    Only strings are accepted: a JSON number is not an exact literal.  Text
    that is not a rational raises ValueError, a format error, not a domain
    error."""
    if not isinstance(text, str):
        raise ValueError(f"not a rational literal: {text!r} is not a string")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational literal: {text!r}") from None


def literal_parser(check=None):
    """A ``parse_rational`` for the literals of one file, which parses each
    distinct string once.  A new value is first passed to ``check``, if
    given, which raises ValueError to reject it; only a value that passes
    is remembered, so every occurrence of a rejected literal fails alike.
    A non-string is never remembered, and gets parse_rational's error.
    Each call returns a parser with a memo of its own."""
    memo: dict[str, Fraction] = {}

    def parse(text):
        if not isinstance(text, str):
            return parse_rational(text)
        value = memo.get(text)
        if value is None:
            value = parse_rational(text)
            if check is not None:
                check(value)
            memo[text] = value
        return value

    return parse


def require_unit(q: Fraction) -> Fraction:
    if not ZERO <= q <= ONE:
        raise ConstantOutOfRangeError(f"rational {q} outside [0,1]")
    return q

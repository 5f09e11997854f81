"""Exact formula evaluation on finite prefixes.

Two semantics live here: ``evaluate`` treats the prefix as the whole
structure (quantifiers range over the n points, values are exact
rationals), while ``evaluate_prefix_bounds`` returns an interval that is
guaranteed to contain the formula's value in any structure whose dense
presentation extends the prefix.  Only the quantifier prefix widens the
interval (an inf over the prefix only upper-bounds the true inf, and
dually for sup); the quantifier-free matrix below it is valued exactly by
the same evaluator ``evaluate`` uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotPrenexUnsupportedError, UnboundVariableError
from .logic import (
    AbsDiff,
    Atom,
    Condition,
    Const,
    DotMinus,
    Formula,
    Inf,
    Max,
    Min,
    Neg,
    ScaleQ,
    Sup,
    TruncPlus,
    quantifier_class,
)
from .rationals import ONE, ZERO
from .structures import PresentedStructure


@dataclass(frozen=True)
class ValueInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not ZERO <= self.lo <= self.hi <= ONE:
            raise ValueError(f"bad interval [{self.lo}, {self.hi}]")

    def __contains__(self, value) -> bool:
        return self.lo <= value <= self.hi

    def contains_interval(self, other: "ValueInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi


def evaluate(f: Formula, m: PresentedStructure, asg=None) -> Fraction:
    """Exact value of f with quantifiers ranging over the n prefix points."""
    return _eval(f, m, dict(asg) if asg else {})


def _eval(f, m, asg) -> Fraction:
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Atom):
        try:
            idx = tuple(asg[v] for v in f.args)
        except KeyError as exc:
            raise UnboundVariableError(f"unbound variable {exc.args[0]!r}") from None
        return m.value(f.relation, idx)
    if isinstance(f, Min):
        return min(_eval(f.left, m, asg), _eval(f.right, m, asg))
    if isinstance(f, Max):
        return max(_eval(f.left, m, asg), _eval(f.right, m, asg))
    if isinstance(f, ScaleQ):
        return f.factor * _eval(f.operand, m, asg)
    if isinstance(f, Neg):
        return ONE - _eval(f.operand, m, asg)
    if isinstance(f, DotMinus):
        return max(ZERO, _eval(f.left, m, asg) - _eval(f.right, m, asg))
    if isinstance(f, TruncPlus):
        return min(ONE, _eval(f.left, m, asg) + _eval(f.right, m, asg))
    if isinstance(f, AbsDiff):
        return abs(_eval(f.left, m, asg) - _eval(f.right, m, asg))
    if isinstance(f, (Inf, Sup)):
        shadowed = asg.get(f.var)
        best = None
        for p in range(m.n):
            asg[f.var] = p
            v = _eval(f.body, m, asg)
            if best is None:
                best = v
            elif isinstance(f, Inf):
                best = min(best, v)
            else:
                best = max(best, v)
        if shadowed is None:
            asg.pop(f.var, None)
        else:
            asg[f.var] = shadowed
        if best is None:
            # quantifier over an empty prefix: inf = 1, sup = 0 (lattice units)
            return ONE if isinstance(f, Inf) else ZERO
        return best
    raise TypeError(f"not a formula node: {f!r}")


# --------------------------------------------------------- prefix bounds


def evaluate_prefix_bounds(f: Formula, m: PresentedStructure, asg=None) -> ValueInterval:
    """Interval containing f's value in every valid extension of m's prefix."""
    if quantifier_class(f).kind == "NotPrenex":
        raise NotPrenexUnsupportedError(f"prefix bounds need a prenex formula: {f}")
    lo, hi = _bounds(f, m, dict(asg) if asg else {})
    return ValueInterval(lo, hi)


def _bounds(f, m, asg):
    if isinstance(f, (Inf, Sup)):
        shadowed = asg.get(f.var)
        lo, hi = ZERO, ONE
        for p in range(m.n):
            asg[f.var] = p
            l, h = _bounds(f.body, m, asg)
            if isinstance(f, Inf):
                # the true inf over the completion may undercut every prefix point
                hi = min(hi, h)
            else:
                lo = max(lo, l)
        if shadowed is None:
            asg.pop(f.var, None)
        else:
            asg[f.var] = shadowed
        return lo, hi
    # below the prenex prefix the formula is quantifier free: its value is
    # fixed by the prefix, so the interval is a single point
    v = _eval(f, m, asg)
    return v, v


# ------------------------------------------------------ condition checks


@dataclass(frozen=True)
class ConditionCheck:
    status: str  # "holds" | "fails" | "unknown"
    interval: ValueInterval | None = None

    def __bool__(self):
        return self.status == "holds"


def check_condition(c: Condition, m: PresentedStructure, mode="finite") -> ConditionCheck:
    """Decide a condition exactly (finite mode) or soundly (prefix mode).

    The verdict is taken over an interval of possible values: it holds when
    every value satisfies the relation, fails when none does, and is unknown
    otherwise.  Finite mode decides the single point [v, v].
    """
    if mode == "finite":
        iv = None
        lo = hi = evaluate(c.formula, m)
    elif mode == "prefix":
        iv = evaluate_prefix_bounds(c.formula, m)
        lo, hi = iv.lo, iv.hi
    else:
        raise ValueError(f"unknown mode: {mode}")
    if c.relation == "<=":
        holds, fails = hi <= c.bound, lo > c.bound
    elif c.relation == "<":
        holds, fails = hi < c.bound, lo >= c.bound
    else:
        holds, fails = lo == hi == c.bound, not lo <= c.bound <= hi
    status = "holds" if holds else "fails" if fails else "unknown"
    return ConditionCheck(status, iv)

"""Exact formula evaluation on finite prefixes.

Two semantics live here: ``evaluate`` treats the prefix as the whole
structure (quantifiers range over the n points, values are exact
rationals), while ``evaluate_prefix_bounds`` returns an interval that is
guaranteed to contain the formula's value in any structure whose dense
presentation extends the prefix.  That interval is read off the formula's
prenex class and its value v on the prefix: [v, v] for a quantifier-free
formula, [0, min(1, v)] for one inf block (an inf over the prefix only
upper-bounds the true inf), [max(0, v), 1] for one sup block, and [0, 1]
under an alternation, where the inner block's bound is lost.

A quantifier stops scanning points once its value reaches the lattice
bound: 0 for an inf, 1 for a sup.  That is exact only when no value can
undercut 0 or top 1, so it is guarded by
``PresentedStructure.unit_valued``: every table value in [0, 1].
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
        pick = min if isinstance(f, Inf) else max
        final = _final(f, m)
        shadowed = asg.get(f.var)
        best = None
        for p in range(m.n):
            asg[f.var] = p
            v = _eval(f.body, m, asg)
            best = v if best is None else pick(best, v)
            if best == final:
                break
        if shadowed is None:
            asg.pop(f.var, None)
        else:
            asg[f.var] = shadowed
        if best is None:
            # quantifier over an empty prefix: inf = 1, sup = 0 (lattice units)
            return ONE if isinstance(f, Inf) else ZERO
        return best
    raise TypeError(f"not a formula node: {f!r}")


def _final(q, m):
    """The value at which the quantifier q can stop scanning points: 0 for
    an inf and 1 for a sup, when every table value of m is in [0, 1].  Then
    so is every value (constants and scale factors are in [0, 1] and each
    connective maps [0, 1] into itself), and nothing undercuts 0 or tops 1.
    Otherwise None: the scan must see every point."""
    if not m.unit_valued():
        return None
    return ZERO if isinstance(q, Inf) else ONE


# --------------------------------------------------------- prefix bounds


def evaluate_prefix_bounds(f: Formula, m: PresentedStructure, asg=None) -> ValueInterval:
    """Interval containing f's value in every valid extension of m's prefix,
    read off f's prenex class and its value v on the prefix."""
    cls = quantifier_class(f)
    if cls.kind == "NotPrenex":
        raise NotPrenexUnsupportedError(f"prefix bounds need a prenex formula: {f}")
    v = evaluate(f, m, asg)
    if cls.kind == "QF":
        return ValueInterval(v, v)
    if cls.level > 1:
        # under an alternation the inner block's bound is lost: an inner inf
        # is bounded below only by 0, which an outer sup keeps, and dually
        return ValueInterval(ZERO, ONE)
    # an inf over more points can only fall, a sup only rise
    if cls.kind == "Sigma":
        return ValueInterval(ZERO, min(ONE, v))
    return ValueInterval(max(ZERO, v), ONE)


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

"""Exact formula evaluation on finite prefixes.

Two semantics live here: ``evaluate`` treats the prefix as the whole
structure (quantifiers range over the n points, values are exact
rationals), while ``evaluate_prefix_bounds`` returns an interval that is
guaranteed to contain the formula's value in any structure whose dense
presentation extends the prefix.  That interval is read off the formula's
prenex class and its value v on the prefix: [v, v] for a quantifier-free
formula, [0, min(1, v)] for one inf block (an inf over the prefix only
upper-bounds the true inf), [max(0, v), 1] for one sup block, and [0, 1]
under an alternation, where the inner block's bound is lost.  On a
nonempty prefix the class is read with every vacuous quantifier dropped.

Each formula is compiled once to an integer kernel.  A formula f gets one
denominator D, read off it bottom-up by ``denominator``: at an atom it is
the structure's lattice L, at a constant the constant's denominator, at a
binary connective the lcm of both sides' and under a scale by p/q the
operand's D times q.  Every value of every subformula is then an integer
over D, and each connective maps integers over D to integers over D:
``not`` is D - x, ``-.`` is max(0, x - y), ``+.`` is min(D, x + y),
``absdiff`` is |x - y|, and a scale by p/q is x * p // q.  That division
is exact: the operand's value is an integer over its own denominator D',
and q * D' divides D, so q divides x.
``evaluate`` fetches the kernel, runs it on the structure's rows over D
(its own rows when D == L) and returns x / D.

A quantifier stops scanning points once its value reaches the lattice
bound: 0 for an inf, D for a sup.  That is exact only when no value can
undercut 0 or top 1, so it is guarded by
``PresentedStructure.unit_valued``: every table value in [0, 1].  Over
the empty prefix an inf is 1 and a sup 0, the lattice units.  A
quantifier whose variable is not free in its body is that body on any
nonempty prefix, so the body is compiled once, without the variable, and
valued once rather than at every point.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import FormulaSyntaxError, NotPrenexUnsupportedError, UnboundVariableError
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
    drop_vacuous,
    quantifier_class,
)
from .rationals import ONE, ZERO
from .structures import PresentedStructure, point_range, scaled


@dataclass(frozen=True)
class ValueInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not ZERO <= self.lo <= self.hi <= ONE:
            raise ValueError(f"bad interval [{self.lo}, {self.hi}]")

    def __contains__(self, value) -> bool:
        return self.lo <= value <= self.hi


def evaluate(f: Formula, m: PresentedStructure, asg=None) -> Fraction:
    """Exact value of f with quantifiers ranging over the n prefix points.

    asg maps variable names to points of 0..n-1; a point outside raises
    ValueError, and an atom reached with a variable neither assigned nor
    bound raises ``UnboundVariableError``.  A formula nested deeper than
    the compiler and kernel can recurse raises ``FormulaSyntaxError``, as
    one nested too deeply for the parser does."""
    asg = dict(asg) if asg else {}
    for name, point in asg.items():
        if not 0 <= point < m.n:
            raise ValueError(f"{name}={point} is not a point of {point_range(m.n)}")
    with depth_guard():
        D = denominator(f, m.L)
        kernel = compile_formula(f, D, m.unit_valued(), tuple(asg))
        return Fraction(kernel(m.rows_over(D), asg.values()), D)


@contextmanager
def depth_guard():
    """Turn the RecursionError of a formula nested deeper than
    ``denominator``, the compiler or a kernel can recurse into a
    ``FormulaSyntaxError``, as the parser does for one too deep for it."""
    try:
        yield
    except RecursionError:
        raise FormulaSyntaxError("formula nested too deeply to evaluate") from None


def denominator(f: Formula, L: int) -> int:
    """The D over which every subformula of f is an integer on tables
    over L: L at an atom, a constant's denominator, the lcm of both sides
    at a binary connective, and the operand's D times q under a scale by
    p/q."""
    if isinstance(f, Atom):
        return L
    if isinstance(f, Const):
        return f.value.denominator
    if isinstance(f, ScaleQ):
        return denominator(f.operand, L) * f.factor.denominator
    if isinstance(f, Neg):
        return denominator(f.operand, L)
    if isinstance(f, (Inf, Sup)):
        return denominator(f.body, L)
    if isinstance(f, (Min, Max, DotMinus, TruncPlus, AbsDiff)):
        return lcm(denominator(f.left, L), denominator(f.right, L))
    raise TypeError(f"not a formula node: {f!r}")


@lru_cache(maxsize=256)
def compile_formula(f: Formula, D: int, unit_valued: bool, variables: tuple[str, ...]):
    """f's integer kernel over D, a multiple of ``denominator(f, L)``.

    ``kernel(tables, points)`` is D times f's value, where ``tables`` maps
    each relation name to its table over D as nested lists
    (``tables["d"][i][j]`` is d(i, j) * D; the rows of d are the points
    the quantifiers scan) and ``variables[k]`` names ``points[k]``.  With
    unit_valued (every table value in 0..D) a quantifier stops at the
    first 0 (inf) or D (sup)."""
    root = _node(f, D, unit_valued, {v: k for k, v in enumerate(variables)}, len(variables))
    return lambda tables, points: root(tables, list(points))


def _node(f, D, unit_valued, scope, slot):
    """The closure (tables, env) -> value * D of f, where scope maps the
    names in reach to their env positions and slot is the next free one."""
    if isinstance(f, Const):
        (c,) = scaled([f.value], D)
        return lambda T, e: c
    if isinstance(f, Atom):
        rel, at = f.relation, [scope.get(v) for v in f.args]
        if len(at) == 2 and None not in at:
            i, j = at
            return lambda T, e: T[rel][e[i]][e[j]]

        def atom(T, e):
            # an unbound variable raises only when the atom is reached
            for v, i in zip(f.args, at):
                if i is None:
                    raise UnboundVariableError(f"unbound variable {v!r}")
            row = T[rel]
            for i in at:
                row = row[e[i]]
            return row

        return atom
    if isinstance(f, (Inf, Sup)):
        return _quantifier(f, D, unit_valued, scope, slot)
    if isinstance(f, (Neg, ScaleQ)):
        g = _node(f.operand, D, unit_valued, scope, slot)
        if isinstance(f, Neg):
            return lambda T, e: D - g(T, e)
        p, q = f.factor.numerator, f.factor.denominator
        return lambda T, e: g(T, e) * p // q
    if not isinstance(f, (Min, Max, DotMinus, TruncPlus, AbsDiff)):
        raise TypeError(f"not a formula node: {f!r}")
    a = _node(f.left, D, unit_valued, scope, slot)
    b = _node(f.right, D, unit_valued, scope, slot)
    if isinstance(f, Min):
        def binary(T, e):
            x, y = a(T, e), b(T, e)
            return x if x <= y else y
    elif isinstance(f, Max):
        def binary(T, e):
            x, y = a(T, e), b(T, e)
            return x if x >= y else y
    elif isinstance(f, DotMinus):
        def binary(T, e):
            x = a(T, e) - b(T, e)
            return x if x > 0 else 0
    elif isinstance(f, TruncPlus):
        def binary(T, e):
            x = a(T, e) + b(T, e)
            return x if x < D else D
    else:
        def binary(T, e):
            return abs(a(T, e) - b(T, e))
    return binary


def _quantifier(f, D, unit_valued, scope, slot):
    """An inf or sup over the points, its variable at env[slot]: D (inf)
    or 0 (sup) over no points, and, with unit_valued, stopping at the
    first 0 (inf) or D (sup).  A body that never reads the variable is
    compiled once, under the outer scope, and valued once."""
    if f.var not in f.body.free_variables():
        body = _node(f.body, D, unit_valued, scope, slot)
        unit = D if isinstance(f, Inf) else 0
        return lambda T, e: body(T, e) if T["d"] else unit
    body = _node(f.body, D, unit_valued, {**scope, f.var: slot}, slot + 1)
    if isinstance(f, Inf):
        stop = 0 if unit_valued else None

        def inf(T, e):
            n = len(T["d"])
            if not n:
                return D
            e.append(0)
            best = body(T, e)
            for p in range(1, n):
                if best == stop:
                    break
                e[slot] = p
                v = body(T, e)
                if v < best:
                    best = v
            e.pop()
            return best

        return inf
    stop = D if unit_valued else None

    def sup(T, e):
        n = len(T["d"])
        if not n:
            return 0
        e.append(0)
        best = body(T, e)
        for p in range(1, n):
            if best == stop:
                break
            e[slot] = p
            v = body(T, e)
            if v > best:
                best = v
        e.pop()
        return best

    return sup


# --------------------------------------------------------- prefix bounds


def evaluate_prefix_bounds(f: Formula, m: PresentedStructure, asg=None) -> ValueInterval:
    """Interval containing f's value in every valid extension of m's prefix,
    read off f's prenex class and its value v on the prefix.  On a
    nonempty prefix, whose extensions are all nonempty, the class is read
    with every vacuous quantifier dropped: one whose variable is not free
    in its body is that body there."""
    with depth_guard():
        cls = quantifier_class(drop_vacuous(f) if m.n else f)
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

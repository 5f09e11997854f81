"""Syntax of continuous [0,1]-valued first-order logic.

Formulas denote values in [0,1], with 0 playing the role of "true".  The
connective set is fixed: rational constants, min, max, multiplication by a
rational in [0,1], negation (1-x), truncated minus/plus, |x-y|, and the
quantifiers inf/sup (one variable each; blocks are nested nodes).

Relation symbols carry a Lipschitz constant as their continuity modulus;
the metric symbol ``d`` (arity 2) is always present as relation index 0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ArityMismatchError,
    ConstantOutOfRangeError,
    FormulaSyntaxError,
    FreeVariableInConditionError,
    UnknownRelationError,
)
from .rationals import ONE, ZERO, format_rational, require_unit

_KEYWORDS = frozenset({"inf", "sup", "min", "max", "not", "absdiff"})


# ------------------------------------------------------------- signature


@dataclass(frozen=True)
class Relation:
    name: str
    arity: int
    lipschitz: Fraction


@dataclass(frozen=True)
class Signature:
    relations: tuple[Relation, ...]

    def __post_init__(self):
        names = [r.name for r in self.relations]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate relation names: {names}")
        if not self.relations or self.relations[0].name != "d":
            raise ValueError("relation index 0 must be the metric d")
        d = self.relations[0]
        if d.arity != 2 or d.lipschitz != ONE:
            raise ValueError("d must have arity 2 and lipschitz 1")
        for r in self.relations:
            if r.arity < 1:
                raise ValueError(f"relation {r.name} must have positive arity")
            if r.lipschitz < 0:
                raise ValueError(f"relation {r.name} has negative lipschitz")

    def relation(self, name: str) -> Relation:
        for r in self.relations:
            if r.name == name:
                return r
        raise UnknownRelationError(f"unknown relation: {name}")

    def __contains__(self, name: str) -> bool:
        return any(r.name == name for r in self.relations)


def metric_signature() -> Signature:
    """The empty vocabulary: just the metric."""
    return Signature((Relation("d", 2, ONE),))


def graph_signature() -> Signature:
    """Graphs over the discrete metric: edge predicate R, value 0 = edge."""
    return Signature((Relation("d", 2, ONE), Relation("R", 2, ONE)))


# -------------------------------------------------------------- formulas


class Formula:
    """Base class of all AST nodes."""

    __slots__ = ()

    def free_variables(self) -> tuple[str, ...]:
        """Free variables in order of first occurrence."""
        seen: list[str] = []
        _collect_free(self, (), seen)
        return tuple(seen)

    def pretty(self) -> str:
        return _pretty(self)

    def __str__(self) -> str:
        return _pretty(self)


@dataclass(frozen=True)
class Const(Formula):
    value: Fraction

    def __post_init__(self):
        require_unit(self.value)


@dataclass(frozen=True)
class Atom(Formula):
    relation: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Min(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Max(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class ScaleQ(Formula):
    factor: Fraction
    operand: Formula

    def __post_init__(self):
        require_unit(self.factor)


@dataclass(frozen=True)
class Neg(Formula):
    operand: Formula


@dataclass(frozen=True)
class DotMinus(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class TruncPlus(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class AbsDiff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Inf(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Sup(Formula):
    var: str
    body: Formula


_BINARY = (Min, Max, DotMinus, TruncPlus, AbsDiff)
_QUANT = (Inf, Sup)


def _collect_free(f: Formula, bound: tuple[str, ...], seen: list[str]) -> None:
    if isinstance(f, Atom):
        for v in f.args:
            if v not in bound and v not in seen:
                seen.append(v)
    elif isinstance(f, _BINARY):
        _collect_free(f.left, bound, seen)
        _collect_free(f.right, bound, seen)
    elif isinstance(f, (ScaleQ, Neg)):
        _collect_free(f.operand, bound, seen)
    elif isinstance(f, _QUANT):
        _collect_free(f.body, bound + (f.var,), seen)


def is_quantifier_free(f: Formula) -> bool:
    if isinstance(f, _QUANT):
        return False
    if isinstance(f, _BINARY):
        return is_quantifier_free(f.left) and is_quantifier_free(f.right)
    if isinstance(f, (ScaleQ, Neg)):
        return is_quantifier_free(f.operand)
    return True


def atom_of(sig: Signature, name: str, *args: str) -> Atom:
    """Checked Atom construction."""
    rel = sig.relation(name)
    if len(args) != rel.arity:
        raise ArityMismatchError(
            f"{name} has arity {rel.arity}, got {len(args)} arguments"
        )
    return Atom(name, tuple(args))


def max_of(parts, empty=None) -> Formula:
    parts = list(parts)
    if not parts:
        return Const(ZERO) if empty is None else empty
    out = parts[0]
    for p in parts[1:]:
        out = Max(out, p)
    return out


# --------------------------------------------------------------- pretty


def _pretty(f: Formula) -> str:
    if isinstance(f, Const):
        return format_rational(f.value)
    if isinstance(f, Atom):
        return f"{f.relation}({', '.join(f.args)})"
    if isinstance(f, Min):
        return f"min({_pretty(f.left)}, {_pretty(f.right)})"
    if isinstance(f, Max):
        return f"max({_pretty(f.left)}, {_pretty(f.right)})"
    if isinstance(f, Neg):
        return f"not({_pretty(f.operand)})"
    if isinstance(f, AbsDiff):
        return f"absdiff({_pretty(f.left)}, {_pretty(f.right)})"
    if isinstance(f, ScaleQ):
        return f"{format_rational(f.factor)} * ({_pretty(f.operand)})"
    if isinstance(f, DotMinus):
        return f"({_body_pos(f.left)} -. {_term_pos(f.right)})"
    if isinstance(f, TruncPlus):
        return f"({_body_pos(f.left)} +. {_term_pos(f.right)})"
    if isinstance(f, Inf):
        return f"inf {f.var}. {_pretty(f.body)}"
    if isinstance(f, Sup):
        return f"sup {f.var}. {_pretty(f.body)}"
    raise TypeError(f"not a formula node: {f!r}")


def _body_pos(f: Formula) -> str:
    # left operand of -./+. sits in body position: quantifiers need parens
    s = _pretty(f)
    return f"({s})" if isinstance(f, _QUANT) else s


def _term_pos(f: Formula) -> str:
    # right operand must be a single term
    s = _pretty(f)
    if isinstance(f, (Const, Atom, Min, Max, Neg, AbsDiff)):
        return s
    return f"({s})"


# ------------------------------------------------------------ conditions


@dataclass(frozen=True)
class Condition:
    """An open (phi < eps) or closed (phi <= eps, phi = eps) statement."""

    formula: Formula
    relation: str  # one of "<=", "<", "="
    bound: Fraction

    def __post_init__(self):
        if self.relation not in ("<=", "<", "="):
            raise ValueError(f"bad condition relation: {self.relation}")
        require_unit(self.bound)
        free = self.formula.free_variables()
        if free:
            raise FreeVariableInConditionError(
                f"condition formula has free variables: {', '.join(free)}"
            )

    @property
    def is_closed(self) -> bool:
        return self.relation in ("<=", "=")

    def pretty(self) -> str:
        return f"{_pretty(self.formula)} {self.relation} {format_rational(self.bound)}"

    def __str__(self) -> str:
        return self.pretty()


# --------------------------------------------------------------- parser

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<int>\d+)"
    r"|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<op>-\.|\+\.|<=|<|=|[()*,./])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        mo = _TOKEN_RE.match(text, pos)
        if mo is None:
            raise FormulaSyntaxError(f"bad character {text[pos]!r}", position=pos)
        if mo.lastgroup != "ws":
            tokens.append((mo.lastgroup, mo.group(), pos))
        pos = mo.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, sig: Signature):
        self.text = text
        self.sig = sig
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self, offset=0):
        return self.tokens[min(self.i + offset, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.i]
        if tok[0] != "eof":
            self.i += 1
        return tok

    def expect(self, value):
        kind, text, pos = self.peek()
        if text != value or kind == "eof":
            raise FormulaSyntaxError(
                f"got {text or 'end of input'!r}", position=pos, expected=repr(value)
            )
        return self.next()

    def fail(self, expected):
        kind, text, pos = self.peek()
        raise FormulaSyntaxError(
            f"got {text or 'end of input'!r}", position=pos, expected=expected
        )

    # formula := quant | body
    def formula(self) -> Formula:
        kind, text, _ = self.peek()
        if kind == "ident" and text in ("inf", "sup"):
            self.next()
            vkind, var, vpos = self.next()
            if vkind != "ident" or var in _KEYWORDS:
                raise FormulaSyntaxError(
                    f"got {var!r}", position=vpos, expected="variable name"
                )
            self.expect(".")
            body = self.formula()
            return Inf(var, body) if text == "inf" else Sup(var, body)
        return self.body()

    # body := term (("-." | "+.") term)*   left-assoc
    def body(self) -> Formula:
        left = self.term()
        while self.peek()[1] in ("-.", "+."):
            op = self.next()[1]
            right = self.term()
            left = DotMinus(left, right) if op == "-." else TruncPlus(left, right)
        return left

    # term := rational | rational "*" atomic | atomic
    def term(self) -> Formula:
        if self.peek()[0] == "int":
            q = self.rational()
            if self.peek()[1] == "*":
                self.next()
                return ScaleQ(q, self.atomic())
            return Const(q)
        return self.atomic()

    def atomic(self) -> Formula:
        kind, text, pos = self.peek()
        if text == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        if kind != "ident":
            self.fail("relation, connective, rational or '('")
        self.next()
        if text == "min" or text == "max":
            self.expect("(")
            a = self.formula()
            self.expect(",")
            b = self.formula()
            self.expect(")")
            return Min(a, b) if text == "min" else Max(a, b)
        if text == "not":
            self.expect("(")
            f = self.formula()
            self.expect(")")
            return Neg(f)
        if text == "absdiff":
            self.expect("(")
            a = self.formula()
            self.expect(",")
            b = self.formula()
            self.expect(")")
            return AbsDiff(a, b)
        if text in ("inf", "sup"):
            raise FormulaSyntaxError(
                "quantifier not allowed here", position=pos, expected="atomic formula"
            )
        # relation application
        self.expect("(")
        args = [self.variable()]
        while self.peek()[1] == ",":
            self.next()
            args.append(self.variable())
        self.expect(")")
        return atom_of(self.sig, text, *args)

    def variable(self) -> str:
        kind, text, pos = self.next()
        if kind != "ident" or text in _KEYWORDS:
            raise FormulaSyntaxError(
                f"got {text!r}", position=pos, expected="variable name"
            )
        return text

    def rational(self) -> Fraction:
        kind, text, pos = self.next()
        if kind != "int":
            raise FormulaSyntaxError(f"got {text!r}", position=pos, expected="integer")
        num = int(text)
        den = 1
        if self.peek()[1] == "/":
            self.next()
            dkind, dtext, dpos = self.next()
            if dkind != "int" or int(dtext) == 0:
                raise FormulaSyntaxError(
                    f"got {dtext!r}", position=dpos, expected="positive integer"
                )
            den = int(dtext)
        q = Fraction(num, den)
        if not ZERO <= q <= ONE:
            raise ConstantOutOfRangeError(
                f"rational {q} outside [0,1] (at position {pos})"
            )
        return q


def parse_formula(text: str, sig: Signature) -> Formula:
    p = _Parser(text, sig)
    f = p.formula()
    if p.peek()[0] != "eof":
        p.fail("end of input")
    return f


def parse_condition(text: str, sig: Signature) -> Condition:
    p = _Parser(text, sig)
    f = p.formula()
    kind, rel, pos = p.next()
    if rel not in ("<=", "<", "="):
        raise FormulaSyntaxError(f"got {rel!r}", position=pos, expected="'<=', '<' or '='")
    bound = p.rational()
    if p.peek()[0] != "eof":
        p.fail("end of input")
    return Condition(f, rel, bound)


# ------------------------------------------------------------- hierarchy


@dataclass(frozen=True)
class HierarchyClass:
    kind: str  # "QF" | "Sigma" | "Pi" | "NotPrenex"
    level: int | None = None

    def __str__(self):
        if self.kind in ("QF", "NotPrenex"):
            return self.kind
        return f"{self.kind}({self.level})"


QF = HierarchyClass("QF", 0)
NOT_PRENEX = HierarchyClass("NotPrenex")


def quantifier_class(f: Formula) -> HierarchyClass:
    """Least prenex class: QF, Sigma(n), Pi(n), or NotPrenex.

    A maximal block of like quantifiers counts as one alternation level;
    any quantifier under a connective makes the formula non-prenex.
    """
    blocks: list[str] = []
    node = f
    while isinstance(node, _QUANT):
        kind = "inf" if isinstance(node, Inf) else "sup"
        if not blocks or blocks[-1] != kind:
            blocks.append(kind)
        node = node.body
    if not is_quantifier_free(node):
        return NOT_PRENEX
    if not blocks:
        return QF
    head = "Sigma" if blocks[0] == "inf" else "Pi"
    return HierarchyClass(head, len(blocks))

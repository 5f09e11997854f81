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
from dataclasses import dataclass, fields, replace
from fractions import Fraction

from .errors import (
    ArityMismatchError,
    ConstantOutOfRangeError,
    FormulaSyntaxError,
    FreeVariableInConditionError,
    UnknownRelationError,
)
from .rationals import ONE, ZERO, require_unit


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
        for r in self.relations:
            # a name a formula can call: one identifier token, not a keyword
            mo = _TOKEN_RE.fullmatch(r.name) if isinstance(r.name, str) else None
            if mo is None or mo.lastgroup != "ident" or r.name in _KEYWORDS:
                raise ValueError(f"relation name {r.name!r} is not an identifier")
            if r.arity < 1:
                raise ValueError(f"relation {r.name} must have positive arity")
            if r.lipschitz < 0:
                raise ValueError(f"relation {r.name} has negative lipschitz")
        names = [r.name for r in self.relations]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate relation names: {names}")
        if not self.relations or self.relations[0].name != "d":
            raise ValueError("relation index 0 must be the metric d")
        d = self.relations[0]
        if d.arity != 2 or d.lipschitz != ONE:
            raise ValueError("d must have arity 2 and lipschitz 1")

    def relation(self, name: str) -> Relation:
        for r in self.relations:
            if r.name == name:
                return r
        raise UnknownRelationError(f"unknown relation: {name}")


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

# the one spelling of each connective: quantifiers prefix a bound variable,
# calls are written name(args), infix operators sit between two operands
_QUANTIFIERS = {"inf": Inf, "sup": Sup}
_CALLS = {"min": Min, "max": Max, "not": Neg, "absdiff": AbsDiff}
_INFIX = {"-.": DotMinus, "+.": TruncPlus}
_SPELLING = {node: text for t in (_QUANTIFIERS, _CALLS, _INFIX) for text, node in t.items()}
_KEYWORDS = frozenset({*_QUANTIFIERS, *_CALLS})


def _children(f: Formula) -> tuple[Formula, ...]:
    """The immediate subformulas of f, left to right."""
    if isinstance(f, _BINARY):
        return f.left, f.right
    if isinstance(f, (ScaleQ, Neg)):
        return (f.operand,)
    if isinstance(f, _QUANT):
        return (f.body,)
    return ()


def _collect_free(f: Formula, bound: tuple[str, ...], seen: list[str]) -> None:
    if isinstance(f, Atom):
        for v in f.args:
            if v not in bound and v not in seen:
                seen.append(v)
        return
    if isinstance(f, _QUANT):
        bound += (f.var,)
    for child in _children(f):
        _collect_free(child, bound, seen)


def is_quantifier_free(f: Formula) -> bool:
    return not isinstance(f, _QUANT) and all(map(is_quantifier_free, _children(f)))


def drop_vacuous(f: Formula) -> Formula:
    """f without every quantifier whose variable is not free in its body:
    on any nonempty structure Q x. phi is phi when x is not free in phi,
    so the result has f's value there."""
    if isinstance(f, _QUANT) and f.var not in f.body.free_variables():
        return drop_vacuous(f.body)
    subformulas = {fd.name: drop_vacuous(getattr(f, fd.name))
                   for fd in fields(f) if isinstance(getattr(f, fd.name), Formula)}
    return replace(f, **subformulas)


# --------------------------------------------------------------- pretty


def _pretty(f: Formula) -> str:
    if isinstance(f, Const):
        return str(f.value)
    if isinstance(f, Atom):
        return f"{f.relation}({', '.join(f.args)})"
    if isinstance(f, ScaleQ):
        return f"{f.factor} * ({_pretty(f.operand)})"
    text = _SPELLING.get(type(f))
    if text is None:
        raise TypeError(f"not a formula node: {f!r}")
    if isinstance(f, _QUANT):
        return f"{text} {f.var}. {_pretty(f.body)}"
    if text in _INFIX:
        return f"({_body_pos(f.left)} {text} {_term_pos(f.right)})"
    return f"{text}({', '.join(map(_pretty, _children(f)))})"


def _body_pos(f: Formula) -> str:
    # left operand of an infix operator sits in body position: quantifiers need parens
    s = _pretty(f)
    return f"({s})" if isinstance(f, _QUANT) else s


def _term_pos(f: Formula) -> str:
    # right operand must be a single term
    s = _pretty(f)
    return s if isinstance(f, (Const, Atom, *_CALLS.values())) else f"({s})"


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

    def pretty(self) -> str:
        return f"{_pretty(self.formula)} {self.relation} {self.bound}"

    def __str__(self) -> str:
        return self.pretty()


# --------------------------------------------------------------- parser

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<int>\d+)"
    r"|(?P<ident>[A-Za-z_]\w*)"
    rf"|(?P<op>{'|'.join(map(re.escape, _INFIX))}|<=|<|=|[()*,./])"
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

    def peek(self):
        return self.tokens[self.i]

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
        if kind == "ident" and text in _QUANTIFIERS:
            self.next()
            vkind, var, vpos = self.next()
            if vkind != "ident" or var in _KEYWORDS:
                raise FormulaSyntaxError(
                    f"got {var!r}", position=vpos, expected="variable name"
                )
            self.expect(".")
            body = self.formula()
            return _QUANTIFIERS[text](var, body)
        return self.body()

    # body := term (infix term)*   left-assoc
    def body(self) -> Formula:
        left = self.term()
        while self.peek()[1] in _INFIX:
            node = _INFIX[self.next()[1]]
            left = node(left, self.term())
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
        if text in _CALLS:
            node = _CALLS[text]
            self.expect("(")
            args = [self.formula()]
            for _ in fields(node)[1:]:
                self.expect(",")
                args.append(self.formula())
            self.expect(")")
            return node(*args)
        if text in _QUANTIFIERS:
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
        rel = self.sig.relation(text)
        if len(args) != rel.arity:
            raise ArityMismatchError(f"{text} has arity {rel.arity}, got {len(args)} arguments")
        return Atom(text, tuple(args))

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


def _parse(p: _Parser) -> Formula:
    """The formula at p's position, with a nesting too deep for the
    recursive descent reported as a syntax error."""
    try:
        return p.formula()
    except RecursionError:
        raise FormulaSyntaxError("formula nested too deeply") from None


def parse_formula(text: str, sig: Signature) -> Formula:
    p = _Parser(text, sig)
    f = _parse(p)
    if p.peek()[0] != "eof":
        p.fail("end of input")
    return f


def parse_condition(text: str, sig: Signature) -> Condition:
    p = _Parser(text, sig)
    f = _parse(p)
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
    blocks: list[type] = []
    node = f
    while isinstance(node, _QUANT):
        if not blocks or blocks[-1] is not type(node):
            blocks.append(type(node))
        node = node.body
    if not is_quantifier_free(node):
        return NOT_PRENEX
    if not blocks:
        return QF
    head = "Sigma" if blocks[0] is Inf else "Pi"
    return HierarchyClass(head, len(blocks))

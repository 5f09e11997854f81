"""Encoding presented structures as points of the product space [0,1]^I.

The index set I is the disjoint union, over relations R_i of arity k_i, of
all tuples in N^{k_i}.  A fixed dovetailed enumeration (by the largest
point named, then relation index, then lexicographic tuple order) makes
codes deterministic and prefix-stable: every coordinate naming only points
< p precedes every coordinate naming point p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .errors import (
    IndexOutOfPrefixError,
    LengthMismatchError,
    PointsOutOfPrefixError,
)
from .evaluation import bind, evaluate
from .logic import Formula, Inf, Signature, is_quantifier_free
from .rationals import ONE, ZERO, format_rational
from .structures import PresentedStructure, tuples_naming

INDEX_ORDER_VERSION = "maxpoint-lex-1"


@dataclass(frozen=True)
class IndexEntry:
    relation: str
    tup: tuple[int, ...]


def index_enumeration(sig: Signature, count: int) -> tuple[IndexEntry, ...]:
    """First `count` entries of the fixed dovetailed enumeration."""
    if count < 0:
        raise ValueError("count must be >= 0")
    out: list[IndexEntry] = []
    mx = 0
    while len(out) < count:
        for rel in sig.relations:
            for tup in tuples_naming(mx + 1, rel.arity, mx):
                out.append(IndexEntry(rel.name, tup))
        mx += 1
    return tuple(out[:count])


@dataclass(frozen=True)
class Code:
    entries: tuple[IndexEntry, ...]
    values: tuple[Fraction, ...]
    version: str = INDEX_ORDER_VERSION

    def to_json(self) -> dict:
        return {
            "index_order": self.version,
            "values": [format_rational(v) for v in self.values],
        }


def encode(m: PresentedStructure, count: int) -> Code:
    """The first `count` coordinates of the encoded structure."""
    if count < 0:
        raise ValueError("count must be >= 0")
    # the enumeration is prefix-stable, so past the sum of n^arity
    # coordinates inside the prefix the next one is the first outside it
    inside = sum(m.n**rel.arity for rel in m.sig.relations)
    entries = index_enumeration(m.sig, min(count, inside + 1))
    values = []
    for e in entries:
        if any(p >= m.n for p in e.tup):
            raise IndexOutOfPrefixError(
                f"coordinate {e.relation}{e.tup} names a point outside prefix 0..{m.n - 1}"
            )
        values.append(m.value(e.relation, e.tup))
    return Code(entries, tuple(values))


def encoded_distance(u: Code, v: Code) -> Fraction:
    """Weighted product metric: sum of 2^-(k+1) |u_k - v_k|."""
    if u.entries != v.entries:
        raise LengthMismatchError("codes use different index prefixes")
    total = ZERO
    w = Fraction(1, 2)
    for a, b in zip(u.values, v.values):
        total += w * abs(a - b)
        w /= 2
    return total


# ------------------------------------------------------------ basic opens


@dataclass(frozen=True)
class BasicOpen:
    """U_{phi(a),eps} = { M : phi^M(a) < eps }, phi quantifier free."""

    formula: Formula
    points: tuple[int, ...]
    eps: Fraction

    def __post_init__(self):
        if not is_quantifier_free(self.formula):
            raise ValueError("basic opens take quantifier-free formulas")
        if not ZERO < self.eps <= ONE:
            raise ValueError(f"eps must be in (0,1], got {self.eps}")
        if len(self.formula.free_variables()) != len(self.points):
            raise ValueError("point tuple must match the formula's free variables")


def basic_open_membership(m: PresentedStructure, u: BasicOpen) -> bool:
    if any(p >= m.n or p < 0 for p in u.points):
        raise PointsOutOfPrefixError(f"points {u.points} outside prefix 0..{m.n - 1}")
    asg = dict(zip(u.formula.free_variables(), u.points))
    return evaluate(u.formula, m, asg) < u.eps


# ---------------------------------------------------- Pi-2 open conditions


@dataclass(frozen=True)
class BorelPi2:
    """The condition [sup_xs inf_ys phi < eps] as an enumerable family.

    For each outer tuple (intersection) the witness tuples enumerate a
    union of basic opens; both enumerations are dovetailed fairly.
    """

    phi: Formula
    outer_vars: tuple[str, ...]
    inner_vars: tuple[str, ...]
    eps: Fraction

    def __post_init__(self):
        if not is_quantifier_free(self.phi):
            raise ValueError("the matrix of a Pi-2 condition must be quantifier free")
        if not ZERO < self.eps <= ONE:
            raise ValueError(f"eps must be in (0,1], got {self.eps}")
        stray = set(self.phi.free_variables()) - set(self.outer_vars + self.inner_vars)
        if stray:
            raise ValueError(f"free variables {sorted(stray)} are neither outer nor inner")


def fair_tuples(n: int, k: int):
    """All tuples over {0..n-1}^k ordered by max coordinate, then lex
    (for k = 0, the single empty tuple)."""
    if k == 0:
        yield ()
        return
    for mx in range(n):
        yield from tuples_naming(mx + 1, k, mx)


@dataclass(frozen=True)
class Pi2Result:
    status: str  # "consistent" | "refuted" | "unknown"
    outer: tuple[int, ...] | None = None


def pi2_depth_membership(
    m: PresentedStructure, b: BorelPi2, depth: int, mode: str = "prefix"
) -> Pi2Result:
    """Search the first `depth` outer tuples for prefix witnesses.

    Refutation is only ever claimed in finite mode (the caller asserting
    the prefix is closed under the relevant witnesses); a failed witness
    search in prefix mode yields "unknown", since the true inf ranges over
    the unseen completion.
    """
    if mode not in ("finite", "prefix"):
        raise ValueError(f"unknown mode: {mode}")
    witness_inf = b.phi
    for v in reversed(b.inner_vars):
        witness_inf = Inf(v, witness_inf)
    # one kernel and one scaling of the tables serve every outer tuple
    D, kernel, tables = bind(witness_inf, m, tuple(b.outer_vars))
    for outer in islice(fair_tuples(m.n, len(b.outer_vars)), depth):
        # an inf over no witnesses (empty prefix) is ONE, never below eps
        if not Fraction(kernel(tables, outer), D) < b.eps:
            return Pi2Result("refuted" if mode == "finite" else "unknown", outer)
    return Pi2Result("consistent")

"""Encoding presented structures as points of the product space [0,1]^I.

The index set I is the disjoint union, over relations R_i of arity k_i, of
all tuples in N^{k_i}.  A fixed dovetailed enumeration (by the largest
point named, then relation index, then lexicographic tuple order) makes
codes deterministic and prefix-stable: every coordinate naming only points
< p precedes every coordinate naming point p.

The topology's open sets need no code of their own here: a basic open
[phi(a) < eps], phi quantifier free, holds exactly when
``evaluation.evaluate(phi, m, a) < eps``, a value the prefix naming a
fixes, and a condition [sup xs inf ys phi < eps] is decided on a finite
structure by ``evaluation.check_condition``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import IndexOutOfPrefixError
from .logic import Signature
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
            "values": [*map(str, self.values)],
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
            where = (f" outside prefix 0..{m.n - 1}" if m.n
                     else ", but the structure has no points")
            raise IndexOutOfPrefixError(f"coordinate {e.relation}{e.tup} names a point{where}")
        values.append(m.value(e.relation, e.tup))
    return Code(entries, tuple(values))

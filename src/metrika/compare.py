"""Epsilon-approximate back-and-forth between two presentations.

A partial correspondence is a finite injective pairing of points; its
distortion is the sup-norm gap of relation values over matched tuples, so
distortion <= eps bounds every quantifier-free atom's value difference.

The search compares integers: both structures' tables are scaled by the
lcm L of all their denominators, and a gap |A - B| exceeds eps exactly
when the scaled gap exceeds floor(eps * L).  Only ``distortion`` and the
reported result use rationals.  The search holds the matched points once,
as two position-aligned lists that it appends to and pops from, and checks
a new pair against the tuples through it alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .rationals import ZERO
from .structures import PresentedStructure, scaled, scaled_tables, tuples_naming


@dataclass(frozen=True)
class PartialCorrespondence:
    pairs: tuple[tuple[int, int], ...]
    distortion: Fraction

    def to_json(self) -> dict:
        return {
            "pairs": [list(p) for p in self.pairs],
            "distortion": str(self.distortion),
        }


def distortion(pairs, m: PresentedStructure, n: PresentedStructure) -> Fraction:
    """Exact max deviation over all matched tuples and relations."""
    pairs = list(pairs)
    left = [p[0] for p in pairs]
    right = [p[1] for p in pairs]
    if len(set(left)) != len(left) or len(set(right)) != len(right):
        raise ValueError("pairs must be injective both ways")
    worst = ZERO
    for rel in m.sig.relations:
        arity = rel.arity
        for idx in product(range(len(pairs)), repeat=arity):
            a = tuple(left[i] for i in idx)
            b = tuple(right[i] for i in idx)
            worst = max(worst, abs(m.value(rel.name, a) - n.value(rel.name, b)))
    return worst


@dataclass(frozen=True)
class BackAndForthResult:
    status: str  # "success" | "failure" | "budget-exhausted"
    correspondence: PartialCorrespondence | None
    nodes_explored: int
    stuck_pairs: tuple[tuple[int, int], ...] = ()

    def to_json(self) -> dict:
        obj = {"status": self.status, "nodes_explored": self.nodes_explored}
        if self.correspondence is not None:
            obj["pairs"] = [list(p) for p in self.correspondence.pairs]
            obj["distortion"] = str(self.correspondence.distortion)
        else:
            obj["stuck_pairs"] = [list(p) for p in self.stuck_pairs]
        return obj


class _Budget(Exception):
    pass


def back_and_forth(
    m: PresentedStructure,
    n: PresentedStructure,
    eps: Fraction,
    depth: int,
    node_budget: int = 100_000,
) -> BackAndForthResult:
    """Alternating greedy matching with backtracking.

    Sides alternate by turn (even turns draw the source from m, odd turns
    from n); the least unmatched point is tried first, and each source is
    matched to any point on the other side keeping distortion <= eps.
    Backtracking covers the source choice as well, so every injective
    pairing of size `depth` is reachable: "failure" means the bounded
    search proved no correspondence of that size exists (and is therefore
    symmetric in m and n); "budget-exhausted" means it ran out of nodes
    first.
    """
    if m.sig != n.sig:
        raise ValueError("structures must share a signature")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > min(m.n, n.n):
        return BackAndForthResult("failure", None, 0)
    scale, (a_tables, b_tables) = scaled_tables(m, n)
    (threshold,) = scaled([Fraction(eps)], scale)
    # newest[k]: the tuples through the last of k matched points; over
    # every k <= depth there are depth**arity of them, no more than a table
    rels = [
        (a_tables[r.name], b_tables[r.name],
         [tuples_naming(k, r.arity, k - 1) for k in range(depth + 1)])
        for r in m.sig.relations
    ]
    sizes = (m.n, n.n)
    matched = ([], [])  # the points of m and of n, paired by position
    left, right = matched
    nodes = 0
    best_stuck = ()

    def extension_ok(k):
        # only tuples naming the newest pair can raise the distortion
        for a, b, newest in rels:
            for idx in newest[k]:
                a_idx = tuple(map(left.__getitem__, idx))
                b_idx = tuple(map(right.__getitem__, idx))
                if abs(a[a_idx] - b[b_idx]) > threshold:
                    return False
        return True

    def search():
        nonlocal nodes, best_stuck
        k = len(left)
        if k == depth:
            return True
        side = k % 2  # the side this turn draws its source from
        src, dst = matched[side], matched[1 - side]
        sources = [i for i in range(sizes[side]) if i not in src]
        candidates = [j for j in range(sizes[1 - side]) if j not in dst]
        for s in sources:
            src.append(s)
            for c in candidates:
                nodes += 1
                if nodes > node_budget:
                    raise _Budget()
                dst.append(c)
                if extension_ok(k + 1) and search():
                    return True
                dst.pop()
            src.pop()
        if k >= len(best_stuck):
            best_stuck = tuple(zip(left, right))
        return False

    try:
        found = search()
    except _Budget:
        return BackAndForthResult("budget-exhausted", None, nodes, best_stuck)
    if not found:
        return BackAndForthResult("failure", None, nodes, best_stuck)
    pairs = tuple(zip(left, right))
    pc = PartialCorrespondence(pairs, distortion(pairs, m, n))
    return BackAndForthResult("success", pc, nodes)

"""Epsilon-approximate back-and-forth between two presentations.

A partial correspondence is a finite injective pairing of points; its
distortion is the sup-norm gap of relation values over matched tuples, so
distortion <= eps bounds every quantifier-free atom's value difference.

The search compares integers: both structures' tables are scaled by the
lcm L of all their denominators, and a gap |A - B| exceeds eps exactly
when the scaled gap exceeds floor(eps * L).  Only ``distortion`` and the
reported result use rationals.
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
    rels = [(a_tables[r.name], b_tables[r.name], r.arity) for r in m.sig.relations]
    naming: dict[tuple[int, int], list] = {}
    nodes = 0
    best_stuck: list[tuple[int, int]] = []

    def extension_ok(pairs, cand):
        # only tuples naming the new pair can raise the distortion
        allp = pairs + [cand]
        k = len(allp)
        left = [p[0] for p in allp]
        right = [p[1] for p in allp]
        for a, b, arity in rels:
            idxs = naming.get((k, arity))
            if idxs is None:
                idxs = naming[(k, arity)] = tuples_naming(k, arity, k - 1)
            for idx in idxs:
                a_idx = tuple(map(left.__getitem__, idx))
                b_idx = tuple(map(right.__getitem__, idx))
                if abs(a[a_idx] - b[b_idx]) > threshold:
                    return False
        return True

    def search(pairs):
        nonlocal nodes, best_stuck
        if len(pairs) == depth:
            return list(pairs)
        turn = len(pairs)
        if turn % 2 == 0:
            used = {p[0] for p in pairs}
            sources = [i for i in range(m.n) if i not in used]
            taken = {p[1] for p in pairs}
            candidates = [j for j in range(n.n) if j not in taken]
            mk = lambda s, j: (s, j)
        else:
            used = {p[1] for p in pairs}
            sources = [j for j in range(n.n) if j not in used]
            taken = {p[0] for p in pairs}
            candidates = [i for i in range(m.n) if i not in taken]
            mk = lambda s, i: (i, s)
        for source in sources:
            for c in candidates:
                nodes += 1
                if nodes > node_budget:
                    raise _Budget()
                cand = mk(source, c)
                if extension_ok(pairs, cand):
                    found = search(pairs + [cand])
                    if found is not None:
                        return found
        if len(pairs) >= len(best_stuck):
            best_stuck = list(pairs)
        return None

    try:
        found = search([])
    except _Budget:
        return BackAndForthResult(
            "budget-exhausted", None, nodes, tuple(best_stuck)
        )
    if found is None:
        return BackAndForthResult("failure", None, nodes, tuple(best_stuck))
    pc = PartialCorrespondence(tuple(found), distortion(found, m, n))
    return BackAndForthResult("success", pc, nodes)

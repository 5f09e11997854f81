"""Epsilon-approximate back-and-forth between two presentations.

A partial correspondence is a finite injective pairing of points; its
distortion is the sup-norm gap of relation values over matched tuples, so
distortion <= eps bounds every quantifier-free atom's value difference.

The search compares integers: both structures' rows are read over the
lcm L of their lattices, and a gap |A - B| exceeds eps exactly when the
integer gap exceeds floor(eps * L).  ``distortion`` too takes its max on
integers, and makes one Fraction.  The search holds the matched points once,
as two position-aligned lists that it appends to and pops from.

A new pair can raise the distortion only through the tuples naming it.
For a source s, each such tuple fixes the source side's value v and, on
the candidate side, a pattern of matched points with the new position
left open; the candidates c keeping |T[pattern filled with c] - v| within
eps form one bitmask, built by one scan of the candidate side the first
time that (side, relation, pattern, v) comes up in a call.  The AND of a
source's masks is its set of passing candidates, found once per source
rather than once per candidate.  Nodes still count every candidate the
one-by-one search would have tried: each visited candidate charges the
run of unmatched points up to it, and a finished source the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm

from .structures import PresentedStructure, entry, scaled, tuples_naming


@dataclass(frozen=True)
class PartialCorrespondence:
    pairs: tuple[tuple[int, int], ...]
    distortion: Fraction


def distortion(pairs, m: PresentedStructure, n: PresentedStructure) -> Fraction:
    """Exact max deviation over all matched tuples and relations."""
    pairs = list(pairs)
    for i, j in pairs:
        if not (0 <= i < m.n and 0 <= j < n.n):
            raise ValueError(
                f"pair ({i}, {j}) names a point outside the structures "
                f"({m.n} and {n.n} points)"
            )
    left = [p[0] for p in pairs]
    right = [p[1] for p in pairs]
    if len(set(left)) != len(left) or len(set(right)) != len(right):
        raise ValueError("pairs must be injective both ways")
    L = lcm(m.L, n.L)
    ours, theirs = m.rows_over(L), n.rows_over(L)
    worst = 0
    for rel in m.sig.relations:
        a, b = ours[rel.name], theirs[rel.name]
        for idx in product(range(len(pairs)), repeat=rel.arity):
            gap = abs(entry(a, [left[i] for i in idx]) - entry(b, [right[i] for i in idx]))
            worst = max(worst, gap)
    return Fraction(worst, L)


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
    matched to any point on the other side keeping distortion <= eps,
    least first.  Backtracking covers the source choice as well, so every
    injective pairing of size `depth` is reachable: "failure" means the
    bounded search proved no correspondence of that size exists (and is
    therefore symmetric in m and n); "budget-exhausted" means it ran out
    of nodes first.

    Each source's passing candidates are one AND of memoised bitmasks
    (see the module docstring), but `nodes_explored` counts one node per
    candidate tried, passing or not, as a one-by-one search would, and a
    budget stop reports node_budget + 1 nodes.  Raises ValueError for
    structures of different signatures, depth < 1, eps < 0 or
    node_budget < 1.
    """
    if m.sig != n.sig:
        raise ValueError("structures must share a signature")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    if node_budget < 1:
        raise ValueError(f"node_budget must be >= 1, got {node_budget}")
    if depth > min(m.n, n.n):
        return BackAndForthResult("failure", None, 0)
    L = lcm(m.L, n.L)
    (threshold,) = scaled([eps], L)
    tables = (m.rows_over(L), n.rows_over(L))
    # newest[k]: the tuples through the last of k matched points; over
    # every k <= depth there are depth**arity of them, no more than a table
    rels = [
        (r.name, [t[r.name] for t in tables],
         [tuples_naming(k, r.arity, k - 1) for k in range(depth + 1)])
        for r in m.sig.relations
    ]
    sizes = (m.n, n.n)
    matched = ([], [])  # the points of m and of n, paired by position
    left, right = matched
    nodes = 0
    best_stuck = ()
    masks = {}  # (candidate side, relation, pattern, v) -> passing points

    def scan(table, size, pattern, v):
        # the points c with |table[pattern, c in its open positions] - v| <= eps
        bits = 0
        for c in range(size):
            x = table
            for p in pattern:
                x = x[c if p < 0 else p]
            if abs(x - v) <= threshold:
                bits |= 1 << c
        return bits

    def passing(k, side, src, dst, free):
        # the points of `free` that extend the k matched pairs plus source
        # src[k]; dst[k] is -1, the open position of every pattern
        other = 1 - side
        for name, tabs, newest in rels:
            table = tabs[side]
            for idx in newest[k + 1]:
                pattern = tuple(map(dst.__getitem__, idx))
                v = table
                for i in idx:
                    v = v[src[i]]
                key = (other, name, pattern, v)
                bits = masks.get(key)
                if bits is None:
                    bits = masks[key] = scan(tabs[other], sizes[other], pattern, v)
                free &= bits
                if not free:
                    return 0
        return free

    def charge(count):
        nonlocal nodes
        nodes += count
        if nodes > node_budget:
            nodes = node_budget + 1  # where counting one by one stops
            raise _Budget()

    def search():
        nonlocal best_stuck
        k = len(left)
        if k == depth:
            return True
        side = k % 2  # the side this turn draws its source from
        src, dst = matched[side], matched[1 - side]
        free = (1 << sizes[1 - side]) - 1
        for j in dst:
            free ^= 1 << j
        sources = [i for i in range(sizes[side]) if i not in src]
        for s in sources:
            src.append(s)
            dst.append(-1)
            ok = passing(k, side, src, dst, free)
            rest = free  # the candidates not yet charged
            while ok:
                low = ok & -ok
                run = rest & ((low << 1) - 1)
                rest ^= run
                charge(run.bit_count())
                dst[k] = low.bit_length() - 1
                if search():
                    return True
                ok ^= low
            charge(rest.bit_count())
            dst.pop()
            src.pop()
        if k >= len(best_stuck):
            best_stuck = tuple(zip(left, right))
        return False

    try:
        found = search()
    except _Budget:
        return BackAndForthResult("budget-exhausted", None, nodes, best_stuck)
    finally:
        # search reaches itself through its closure cell: clear the cell so
        # the function, its tables and the mask memo are freed on return,
        # not at the next full collection
        del search
    if not found:
        return BackAndForthResult("failure", None, nodes, best_stuck)
    pairs = tuple(zip(left, right))
    pc = PartialCorrespondence(pairs, distortion(pairs, m, n))
    return BackAndForthResult("success", pc, nodes)

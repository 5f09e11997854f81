"""Finite-budget existentially-closed chain construction.

The countable chain argument collapses to a budgeted search over extension
obligations, and each theory carries its own closure (`TheorySpec.close`),
with the parameters only that closure reads bound, and range-checked, by
the spec factory.  For the empty metric theory the obligations are
distance configurations to realize, and the whole closure runs on
integers over one denominator L.  The space grows on one
`structures.MetricBuilder`; one `urysohn.ObligationScan`, built over the
builder's L, scores the obligations on its `n` and `dist` and holds the
configuration rows the witnesses aim at, and the obligations drain as a
FIFO queue that only gains the tuples through each new point.  The
witness steers each new row, from the repaired Katetov row
(`urysohn.katetov_row`, also the fallback) off the task grid by
`urysohn.delta_for`'s delta, and hands it to the builder, which gives
every added point one range and Katetov check.  The structure is frozen
once, at the end.  For graphs the obligations are the classical (A, B)
extension axioms over the discrete metric encoding: a vertex adjacent to
all of A and to none of B.  The closure decides each in one loop over its
subset's positions on adjacency bitmasks, read off the seed once and
written back once over `metric_seed`'s discrete metric, rescanning every
subset pass by pass until a pass adds no vertex or the budget is spent;
`graph_tasks` streams the same axioms fairly as plain (A, B) pairs of
vertex tuples, built by the closure's `_split`.  Seeds are preserved as
bit-identical prefixes.  A seed must share its theory's signature.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, count, product

from .errors import NotAPrefixError, SeedViolatesTheoryError
from .evaluation import check_condition, evaluate
from .logic import (
    Condition,
    Formula,
    Inf,
    Signature,
    graph_signature,
    metric_signature,
    parse_condition,
)
from .rationals import ONE, ZERO
from .structures import MetricBuilder, PresentedStructure, admissible, scaled
from .urysohn import ObligationScan, all_configurations, delta_for, katetov_row

_METRIC_CONDITIONS = (
    "sup x. d(x,x) <= 0",
    "sup x. sup y. absdiff(d(x,y), d(y,x)) <= 0",
    "sup x. sup y. sup z. (d(x,z) -. (d(x,y) +. d(y,z))) <= 0",
)

_GRAPH_CONDITIONS = _METRIC_CONDITIONS + (
    "sup x. sup y. min(d(x,y), not(d(x,y))) <= 0",
    "sup x. sup y. min(R(x,y), not(R(x,y))) <= 0",
    "sup x. sup y. absdiff(R(x,y), R(y,x)) <= 0",
    "sup x. not(R(x,x)) <= 0",
)


# -------------------------------------------------------------- theories


@dataclass(frozen=True)
class TheorySpec:
    close: Callable[..., PresentedStructure]  # (seed, budget, rng_seed), parameters bound
    sig: Signature
    universal_conditions: tuple[Condition, ...]


def empty_metric_spec(
    config_sizes=(2, 3), config_grid=Fraction(1, 4), eps=Fraction(1, 8), grid=Fraction(1, 8)
) -> TheorySpec:
    """The empty metric theory: realize every configuration of the given
    sizes on config_grid within eps, placing new distances on grid."""
    config_sizes = tuple(config_sizes)
    config_grid, eps, grid = Fraction(config_grid), Fraction(eps), Fraction(grid)
    if not ZERO < grid <= ONE:
        raise ValueError(f"grid must be in (0,1], got {grid}")
    if config_grid.numerator != 1:
        raise ValueError(f"config_grid must be 1/q for an integer q >= 1, got {config_grid}")
    delta_for(eps)  # eps in (0, 1]
    if any(size < 1 for size in config_sizes):
        raise ValueError("configuration size must be >= 1")
    sig = metric_signature()
    conds = tuple(parse_condition(s, sig) for s in _METRIC_CONDITIONS)
    close = partial(
        _ec_close_metric,
        config_sizes=config_sizes,
        config_grid=config_grid,
        eps=eps,
        grid=grid,
    )
    return TheorySpec(close, sig, conds)


def graph_spec(max_size=3) -> TheorySpec:
    """Graphs: every (A, B) extension axiom with |A| + |B| <= max_size."""
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    sig = graph_signature()
    conds = tuple(parse_condition(s, sig) for s in _GRAPH_CONDITIONS)
    return TheorySpec(partial(_ec_close_graph, max_size=max_size), sig, conds)


# ----------------------------------------------------------- seed helpers


def metric_seed(n_points: int = 1) -> PresentedStructure:
    """n isolated points at mutual distance 1 (diameter-1 default seed)."""
    sig = metric_signature()
    table = {
        (i, j): (ZERO if i == j else ONE)
        for i in range(n_points)
        for j in range(n_points)
    }
    return PresentedStructure(sig, n_points, {"d": table})


def graph_seed(n_vertices: int = 1) -> PresentedStructure:
    """Edgeless graph on the discrete metric (R = 1 everywhere: no edges)."""
    return _graph_structure(graph_signature(), [0] * n_vertices, ())


# --------------------------------------------------------------- ec_close


def ec_close(
    seed: PresentedStructure,
    spec: TheorySpec,
    budget: int,
    rng_seed: int = 0,
) -> PresentedStructure:
    """Grow seed into a finite approximant of the e.c. model of spec.

    Deterministic given (seed, spec, budget, rng_seed).  `budget`
    caps the number of extension obligations dequeued; obligations beyond
    the budget are left unrealized.  The seed is a bit-identical prefix of
    the result.
    """
    if seed.sig != spec.sig:
        raise SeedViolatesTheoryError("seed and theory have different signatures")
    for cond in spec.universal_conditions:
        if not check_condition(cond, seed, mode="finite"):
            raise SeedViolatesTheoryError(f"seed violates: {cond.pretty()}")
    if budget <= 0:
        return seed
    return spec.close(seed, budget, rng_seed)


def _ec_close_metric(seed, budget, rng_seed, *, config_sizes, config_grid, eps, grid):
    rng = random.Random(f"metrika-ec-metric:{rng_seed}")
    configs = []
    for size in config_sizes:
        configs.extend(all_configurations(size, config_grid.denominator))

    # every witness distance lies on the lattice spanned by the seed's
    # distances, grid, config_grid (which the configurations lie on) and
    # eps (the Katetov slack), so the builder's L holds them all exactly
    # and is the scan's L too
    b = MetricBuilder(seed, grid, config_grid, eps)
    scan = ObligationScan(configs, eps, b.L)
    delta = delta_for(eps)
    grid_l, config_grid_l, eps_l, delta_l = scaled((grid, config_grid, eps, delta), b.L)
    queue = deque(scan.obligations(b.n, b.dist))
    dequeued = 0
    while queue and dequeued < budget:
        t_idx, pts = queue.popleft()
        dequeued += 1
        if scan.realized(t_idx, pts, b.n, b.dist):
            continue
        r, k = scan.rows[t_idx], len(pts)
        targets = [r[a][k] for a in range(k)]
        old_n = b.n
        note = {"task": t_idx, "tuple": pts}
        _add_metric_witness(b, targets, pts, grid_l, config_grid_l, eps_l, delta_l, rng, note)
        queue.extend(scan.obligations(b.n, b.dist, first_new=old_n))
    return b.freeze()


def _off_task_grid(v, config_grid, delta):
    """True when v is more than delta from every task-grid level, so no tuple
    using it can ever spawn a new extension obligation.  All are integers over
    L: an integer exceeds delta_for(eps) L exactly when it exceeds its floor."""
    below = v % config_grid  # v's distance to the level below it
    return below > delta and config_grid - below > delta


def _add_metric_witness(b, targets, pts, grid, config_grid, eps, delta, rng, note):
    """Add to the builder b a new point at distance targets[a] from each
    anchor pts[a], within eps; every length is an integer over b.L.

    An admissible vector is its own Katetov witness anchored at *every*
    point of b (with zero slack), so each steered candidate row goes to
    ``b.try_add`` as is, which gives it the one range and Katetov check.
    All distances are steered onto half-grid levels that sit more than
    delta away from the task grid: tuples through the new point then
    never re-trigger obligations, so the worklist provably drains and the
    closure is a finite fixpoint.  If no steered row is admissible (off
    the default grids) the repaired Katetov row is added instead, with
    slack 3 delta/2 = eps.
    """
    n = b.n
    cap = b.L - grid

    def anchor_candidates(t):
        cands = [
            c
            for c in (t - grid, t + grid, t)
            if 0 < c <= cap and abs(c - t) <= eps and _off_task_grid(c, config_grid, delta)
        ]
        rng.shuffle(cands)
        return cands

    def anchor_d(i, j):
        return b.dist(pts[i], pts[j])

    for combo in product(*map(anchor_candidates, targets)):
        if not admissible(anchor_d, combo):
            continue
        s = []
        for v in katetov_row(n, b.dist, pts, combo, 0, cap):
            while v > 0 and not _off_task_grid(v, config_grid, delta):
                v -= grid
            s.append(v)
        for p, c in zip(pts, combo):
            s[p] = c
        if any(v <= 0 for v in s):
            continue
        if any(abs(s[p] - t) > eps for p, t in zip(pts, targets)):
            continue
        if b.try_add(s, note):
            return
    b.add(katetov_row(n, b.dist, pts, targets, eps, b.L), note)


def _ec_close_graph(seed, budget, rng_seed, *, max_size):
    rng = random.Random(rng_seed)
    n = seed.n
    r = seed.tables["R"]
    # adjacency bitmasks; R value 0 means "edge present", and the seed has
    # no loop (ec_close checked R(x, x) = 1)
    adj = [sum(1 << j for j in range(n) if r[(i, j)] == 0) for i in range(n)]
    provenance = list(seed.provenance_log)
    dequeued = 0
    changed = True
    while changed:
        changed = False
        for size in range(1, max_size + 1):
            for subset in combinations(range(n), size):
                members = sum(1 << v for v in subset)
                for split in range(1 << size):
                    if dequeued >= budget:
                        return _graph_structure(seed.sig, adj, provenance)
                    dequeued += 1
                    # the vertices outside the subset joined to A, missing B
                    cand = (1 << n) - 1 & ~members
                    for pos, v in enumerate(subset):
                        cand &= adj[v] if split >> pos & 1 else ~adj[v]
                    if cand:
                        continue
                    # add a fresh vertex joined to A, missing B, random elsewhere
                    a, b = _split(subset, split)
                    mask = sum(1 << v for v in a) | rng.getrandbits(n) & ~members
                    for w in range(n):
                        if mask >> w & 1:
                            adj[w] |= 1 << n
                    adj.append(mask)
                    provenance.append({"vertex": n, "A": a, "B": b})
                    n += 1
                    changed = True
    return _graph_structure(seed.sig, adj, provenance)


def _split(subset, split):
    """(A, B): subset[pos] goes to A when bit pos of split is set, else to B."""
    a = tuple(v for pos, v in enumerate(subset) if split >> pos & 1)
    b = tuple(v for pos, v in enumerate(subset) if not split >> pos & 1)
    return a, b


def _graph_structure(sig, adj, provenance) -> PresentedStructure:
    """The graph of the adjacency bitmasks adj on metric_seed's discrete
    metric; no mask has its own bit, so R(x, x) = 1."""
    n = len(adj)
    r = {(i, j): ZERO if adj[i] >> j & 1 else ONE for i in range(n) for j in range(n)}
    return PresentedStructure(sig, n, {"d": metric_seed(n).tables["d"], "R": r}, provenance)


# ---------------------------------------------------------- graph tasks


def graph_tasks(max_size: int, vertices: int | None = None):
    """Fair, duplicate-free stream of (A, B) extension tasks: pairs of vertex
    tuples, each asking for a vertex adjacent to all of A and none of B.

    Dovetailed by the largest vertex named; restricting `vertices` gives
    the finite stream over a fixed vertex set.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    top = count() if vertices is None else range(vertices)
    for v in top:
        for size in range(1, max_size + 1):
            for rest in combinations(range(v), size - 1):
                for split in range(1 << size):
                    yield _split(rest + (v,), split)


# ----------------------------------------------------------- e.c. checks


@dataclass(frozen=True)
class WitnessCheck:
    passes: bool
    gap: Fraction


def is_prefix(m: PresentedStructure, n_ext: PresentedStructure) -> bool:
    if m.sig != n_ext.sig or m.n > n_ext.n:
        return False
    for rel in m.sig.relations:
        small = m.tables[rel.name]
        big = n_ext.tables[rel.name]
        for tup, v in small.items():
            if big[tup] != v:
                return False
    return True


def ec_witness_check(
    m: PresentedStructure,
    n_ext: PresentedStructure,
    phi: Formula,
    params,
    tol: Fraction,
) -> WitnessCheck:
    """Finite-scale falsifier of e.c.-ness: does inf_x phi(x, params) drop
    by more than tol when passing from m to the extension?

    The witness variable x is phi's first free variable; params bind the
    remaining free variables in order.
    """
    if not is_prefix(m, n_ext):
        raise NotAPrefixError("first structure is not a prefix of the second")
    free = phi.free_variables()
    witness_var, others = free[0], free[1:]
    params = tuple(params)
    if len(others) != len(params):
        raise ValueError(f"need {len(others)} parameters, got {len(params)}")
    if any(p >= m.n for p in params):
        raise ValueError("parameters must lie in the prefix")
    base = dict(zip(others, params))
    inf_phi = Inf(witness_var, phi)
    inf_m = min(ONE, evaluate(inf_phi, m, base))
    inf_n = min(ONE, evaluate(inf_phi, n_ext, base))
    gap = max(ZERO, inf_m - inf_n)
    return WitnessCheck(inf_m <= inf_n + Fraction(tol), gap)

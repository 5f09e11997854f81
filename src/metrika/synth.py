"""Finite-budget existentially-closed chain construction.

The countable chain argument collapses to a budgeted search over extension
obligations, and each theory carries its own closure (`TheorySpec.close`).
For the empty metric theory the obligations are distance configurations to
realize (via the Katetov witness); they come from
`urysohn.extension_obligations` and drain as a FIFO queue that only gains
the tuples through each new point.  For graphs they are the classical
(A, B) extension axioms over the discrete metric encoding, rescanned over
every subset pass by pass until a pass adds no vertex or the budget is
spent.  Seeds are preserved as bit-identical prefixes.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count, product

from .errors import NotAPrefixError, SeedViolatesTheoryError
from .evaluation import check_condition, evaluate
from .logic import (
    Atom,
    Condition,
    Formula,
    Inf,
    Neg,
    Signature,
    graph_signature,
    max_of,
    metric_signature,
    parse_condition,
)
from .rationals import ONE, ZERO
from .structures import PresentedStructure, admissible, extend_with_distances
from .urysohn import (
    all_configurations,
    delta_for,
    extension_obligations,
    katetov_witness,
    realized,
)

HALF = Fraction(1, 2)

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


# ----------------------------------------------------------------- tasks


@dataclass
class InfRealization:
    phi: Formula
    params: tuple[int, ...]
    eps: Fraction
    a: tuple[int, ...] = ()
    b: tuple[int, ...] = ()


@dataclass(frozen=True)
class TheorySpec:
    close: Callable[..., PresentedStructure]  # (seed, spec, budget, grid, rng_seed)
    sig: Signature
    universal_conditions: tuple[Condition, ...]
    config_sizes: tuple[int, ...] = ()
    config_grid: Fraction = Fraction(1, 4)
    eps: Fraction = Fraction(1, 8)
    max_size: int = 3


def empty_metric_spec(
    config_sizes=(2, 3), config_grid=Fraction(1, 4), eps=Fraction(1, 8)
) -> TheorySpec:
    sig = metric_signature()
    conds = tuple(parse_condition(s, sig) for s in _METRIC_CONDITIONS)
    return TheorySpec(
        _ec_close_metric,
        sig,
        conds,
        config_sizes=tuple(config_sizes),
        config_grid=Fraction(config_grid),
        eps=Fraction(eps),
    )


def graph_spec(max_size=3) -> TheorySpec:
    sig = graph_signature()
    conds = tuple(parse_condition(s, sig) for s in _GRAPH_CONDITIONS)
    return TheorySpec(_ec_close_graph, sig, conds, max_size=max_size)


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
    sig = graph_signature()
    d = {
        (i, j): (ZERO if i == j else ONE)
        for i in range(n_vertices)
        for j in range(n_vertices)
    }
    r = {(i, j): ONE for i in range(n_vertices) for j in range(n_vertices)}
    return PresentedStructure(sig, n_vertices, {"d": d, "R": r})


# --------------------------------------------------------------- ec_close


def ec_close(
    seed: PresentedStructure,
    spec: TheorySpec,
    budget: int,
    grid: Fraction = Fraction(1, 8),
    rng_seed: int = 0,
) -> PresentedStructure:
    """Grow seed into a finite approximant of the e.c. model of spec.

    Deterministic given (seed, spec, budget, grid, rng_seed).  `budget`
    caps the number of extension obligations dequeued; obligations beyond
    the budget are left unrealized.  The seed is a bit-identical prefix of
    the result.
    """
    for cond in spec.universal_conditions:
        if not check_condition(cond, seed, mode="finite"):
            raise SeedViolatesTheoryError(f"seed violates: {cond.pretty()}")
    if budget <= 0:
        return seed
    return spec.close(seed, spec, budget, Fraction(grid), rng_seed)


def _ec_close_metric(seed, spec, budget, grid, rng_seed):
    eps = spec.eps
    delta = delta_for(eps)
    rng = random.Random(f"metrika-ec-metric:{rng_seed}")
    denom = spec.config_grid.denominator
    configs = []
    for size in spec.config_sizes:
        configs.extend(all_configurations(size, denom))

    m = seed
    queue = deque(extension_obligations(m, configs, eps))
    dequeued = 0
    while queue and dequeued < budget:
        t_idx, pts = queue.popleft()
        dequeued += 1
        theta = configs[t_idx]
        if realized(theta, m, pts, eps):
            continue
        h = _metric_witness(m, theta, pts, eps, delta, spec.config_grid, grid, rng)
        old_n = m.n
        m = extend_with_distances(m, h, note={"task": t_idx, "tuple": pts})
        queue.extend(extension_obligations(m, configs, eps, first_new=old_n))
    return m


def _off_task_grid(value, config_grid, delta):
    """True when `value` is farther than delta from every task-grid level,
    so no tuple using it can ever spawn a new extension obligation."""
    lo = (value / config_grid).__floor__() * config_grid
    return abs(value - lo) > delta and abs(value - lo - config_grid) > delta


def _metric_witness(m, theta, pts, eps, delta, config_grid, grid, rng):
    """Distance vector for the new point realizing theta within eps.

    An admissible vector is its own Katetov witness anchored at *every*
    point of m (with zero slack), so it is returned as is.  All distances
    are steered onto half-grid levels that sit more than delta away from
    the task grid: tuples through the new point then never re-trigger
    obligations, so the worklist provably drains and the closure is a
    finite fixpoint.  If no steered vector is admissible (off the default
    grids) we fall back to the plain repaired witness.
    """
    k = theta.n - 1
    if m.n == 0:
        return ()
    targets = [theta.r[a][k] for a in range(k)]
    cap = ONE - grid

    def anchor_candidates(t):
        cands = [
            c
            for c in (t - grid, t + grid, t)
            if ZERO < c <= cap
            and abs(c - t) <= eps
            and _off_task_grid(c, config_grid, delta)
        ]
        rng.shuffle(cands)
        return cands

    def anchor_d(a, b):
        return m.d(pts[a], pts[b])

    for combo in product(*(anchor_candidates(t) for t in targets)):
        if not admissible(anchor_d, combo):
            continue
        s = []
        for x in range(m.n):
            v = min([cap] + [combo[a] + m.d(x, pts[a]) for a in range(k)])
            while v > ZERO and not _off_task_grid(v, config_grid, delta):
                v -= grid
            s.append(v)
        for a in range(k):
            s[pts[a]] = combo[a]
        if any(not ZERO < v <= ONE for v in s):
            continue
        if any(abs(s[pts[a]] - targets[a]) > eps for a in range(k)):
            continue
        if admissible(m.d, s):
            return tuple(s)
    return katetov_witness(m, theta, pts, delta)


def _ec_close_graph(seed, spec, budget, grid, rng_seed):
    rng = random.Random(rng_seed)
    n = seed.n
    r_table = seed.tables["R"]
    # adjacency bitmasks; R value 0 means "edge present"
    adj = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and r_table[(i, j)] == 0:
                adj[i] |= 1 << j
    provenance = list(seed.provenance_log)
    dequeued = 0
    changed = True
    while changed:
        changed = False
        for size in range(1, spec.max_size + 1):
            for subset in combinations(range(n), size):
                for split in range(1 << size):
                    if dequeued >= budget:
                        return _graph_structure(seed.sig, n, adj, provenance)
                    dequeued += 1
                    a_bits = 0
                    b_bits = 0
                    for pos, v in enumerate(subset):
                        if split >> pos & 1:
                            a_bits |= 1 << v
                        else:
                            b_bits |= 1 << v
                    if _graph_witness_exists(adj, n, a_bits, b_bits):
                        continue
                    # add a fresh vertex joined to A, missing B, random elsewhere
                    free = ((1 << n) - 1) & ~(a_bits | b_bits)
                    mask = a_bits | (rng.getrandbits(n) & free if n else 0)
                    for w in range(n):
                        if mask >> w & 1:
                            adj[w] |= 1 << n
                    adj.append(mask)
                    provenance.append(
                        {
                            "vertex": n,
                            "A": _bits_to_tuple(a_bits),
                            "B": _bits_to_tuple(b_bits),
                        }
                    )
                    n += 1
                    changed = True
    return _graph_structure(seed.sig, n, adj, provenance)


def _graph_witness_exists(adj, n, a_bits, b_bits) -> bool:
    members = a_bits | b_bits
    cand = (1 << n) - 1 & ~members
    bits = a_bits
    while bits:
        low = bits & -bits
        cand &= adj[low.bit_length() - 1]
        bits ^= low
    bits = b_bits
    while bits:
        low = bits & -bits
        cand &= ~adj[low.bit_length() - 1]
        bits ^= low
    return cand != 0


def _bits_to_tuple(bits) -> tuple[int, ...]:
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return tuple(out)


def _graph_structure(sig, n, adj, provenance) -> PresentedStructure:
    d = {}
    r = {}
    for i in range(n):
        for j in range(n):
            d[(i, j)] = ZERO if i == j else ONE
            if i == j:
                r[(i, j)] = ONE
            else:
                r[(i, j)] = ZERO if adj[i] >> j & 1 else ONE
    return PresentedStructure(sig, n, {"d": d, "R": r}, provenance)


# ---------------------------------------------------------- graph tasks


def graph_extension_formula(
    a_params: tuple[str, ...], b_params: tuple[str, ...], var: str = "z"
) -> Formula:
    """QF matrix of "find z adjacent to all of A, none of B, at distance 1"."""
    parts = []
    for p in a_params:
        parts.append(Atom("R", (var, p)))
    for p in b_params:
        parts.append(Neg(Atom("R", (var, p))))
    for p in a_params + b_params:
        parts.append(Neg(Atom("d", (var, p))))
    return max_of(parts)


def graph_tasks(max_size: int, vertices: int | None = None):
    """Fair, duplicate-free stream of (A, B) extension tasks.

    Dovetailed by the largest vertex named; restricting `vertices` gives
    the finite stream over a fixed vertex set.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    top = count() if vertices is None else range(vertices)
    for v in top:
        for size in range(1, max_size + 1):
            for rest in combinations(range(v), size - 1):
                subset = rest + (v,)
                for split in range(1 << size):
                    a = tuple(x for pos, x in enumerate(subset) if split >> pos & 1)
                    b = tuple(x for pos, x in enumerate(subset) if not split >> pos & 1)
                    names = tuple(f"p{i}" for i in range(size))
                    a_names = names[: len(a)]
                    b_names = names[len(a) :]
                    yield InfRealization(
                        phi=graph_extension_formula(a_names, b_names),
                        params=a + b,
                        eps=HALF,
                        a=a,
                        b=b,
                    )


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
    witness_var: str | None = None,
) -> WitnessCheck:
    """Finite-scale falsifier of e.c.-ness: does inf_x phi(x, params) drop
    by more than tol when passing from m to the extension?

    By default the witness variable is phi's first free variable; params
    bind the remaining free variables in order.
    """
    if not is_prefix(m, n_ext):
        raise NotAPrefixError("first structure is not a prefix of the second")
    free = phi.free_variables()
    if witness_var is None:
        witness_var = free[0]
    others = [v for v in free if v != witness_var]
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

"""Random finite metric spaces and statistical audits.

Two samplers: ``sequential`` draws each new distance uniformly from its
admissible interval (fast, full support on the grid, not obviously
exchangeable); ``rejection`` draws whole distance matrices uniformly and
keeps the metric ones (exchangeable by construction, exponential cost).
Distances live on a fine rational grid so every draw is exact.  Each law
is coded once, in ``_grow``, which grows a ``MetricBuilder`` (integers
over the lcm of the grid's and the prefix's denominators) by k points;
``sample_space`` freezes it to Fractions once, at the end, while the
invariance audit and the genericity curve score each sample on the
builder it was grown on, over its integers.  A rejection proposal is
drawn on the stream ``randint`` would consume and checked flat, beside
the prefix's distances, triple by triple; only an accepted one is added,
row by row, through the builder's ``try_add``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .errors import RejectionBudgetExceededError
from .evaluation import compile_formula, denominator, depth_guard
from .logic import Formula, metric_signature
from .rationals import ONE, ZERO
from .structures import MetricBuilder, PresentedStructure, admissible_interval, scaled
from .urysohn import DistanceConfiguration, ObligationScan

DEFAULT_GRID = Fraction(1, 2**16)

_POINT = PresentedStructure(metric_signature(), 1, {"d": {(0, 0): ZERO}})


@dataclass(frozen=True)
class MeasureSpec:
    kind: str  # "sequential" | "rejection"
    grid: Fraction = DEFAULT_GRID
    seed: int = 0
    max_tries: int = 10**6

    def __post_init__(self):
        if self.kind not in ("sequential", "rejection"):
            raise ValueError(f"unknown sampler kind: {self.kind}")
        if not ZERO < self.grid <= ONE:
            raise ValueError(f"grid step must be in (0,1], got {self.grid}")


def _grid_uniform(lo: int, hi: int, g: int, rng) -> int:
    """Uniform draw from the multiples of g in [lo, hi] (falls back to lo
    when the interval is shorter than the grid and holds none of them)."""
    lo_idx = -(-lo // g)
    hi_idx = hi // g
    if lo_idx > hi_idx:
        return lo
    return rng.randint(lo_idx, hi_idx) * g


def _sequential_row(b: MetricBuilder, g: int, rng) -> list[int]:
    """A new point's distances, each uniform on the grid points of its
    admissible interval given the ones drawn before it."""
    s: list[int] = []
    for _ in range(b.n):
        s.append(_grid_uniform(*admissible_interval(b.d, s, b.L), g, rng))
    return s


def _grow(b: MetricBuilder, k: int, spec: MeasureSpec, rng) -> MetricBuilder:
    """Add k points to b by spec's law, the one place each law is coded.

    The sequential law adds k rows of ``_sequential_row``.  The rejection
    law draws every new distance at once, for the pairs (i, j) with
    j >= b.n in row-major order, on the stream ``rng.randint(0, steps)``
    would consume, into a flat list beside the prefix's distances.  It
    checks the triangle inequality there on each triple naming a new
    point; only an accepted draw is split into rows, each still added by
    ``try_add``.  A draw's integers scale with b.L, so a larger L draws
    the same rationals."""
    (g,) = scaled([spec.grid], b.L)
    if spec.kind == "sequential":
        for _ in range(k):
            b.add(_sequential_row(b, g, rng), note={"sampler": "sequential"})
        return b
    base, end = b.n, b.n + k
    steps = int(ONE / spec.grid)
    bits = (steps + 1).bit_length()
    # flat[slot[i, j]] is d(i, j) over L, i < j: the prefix's pairs, then
    # the draw's, in the order they are drawn
    pairs = [(i, j) for j in range(base) for i in range(j)]
    start = len(pairs)
    pairs += [(i, j) for i in range(end) for j in range(max(i + 1, base), end)]
    slot = {p: x for x, p in enumerate(pairs)}
    flat = [b.d(i, j) for i, j in pairs[:start]] + [0] * (len(pairs) - start)
    drawn = range(start, len(pairs))
    # |d(i, j) - d(h, j)| <= d(i, h) <= d(i, j) + d(h, j) for i < h < j, j new
    triples = [(slot[i, j], slot[h, j], slot[i, h])
               for j in range(base, end) for h in range(j) for i in range(h)]
    note = {"sampler": "rejection"}
    getrandbits = rng.getrandbits
    for _ in range(spec.max_tries):
        # randint(0, steps) is getrandbits(bits), redrawn while above steps
        for x in drawn:
            r = getrandbits(bits)
            while r > steps:
                r = getrandbits(bits)
            flat[x] = r * g
        for a, c, e in triples:
            a, c, e = flat[a], flat[c], flat[e]
            if e > a + c or abs(a - c) > e:
                break
        else:
            for j in range(base, end):
                if not b.try_add([flat[slot[i, j]] for i in range(j)], note):
                    raise RuntimeError(f"try_add refused row {j} of a checked draw")
            return b
    raise RejectionBudgetExceededError(
        f"rejection sampler: no {end}-point metric space accepted "
        f"within {spec.max_tries} proposals"
    )


def _sample(n: int, spec: MeasureSpec, rng) -> MetricBuilder:
    """A random n-point space on a builder over the grid's denominator."""
    if n < 1:
        raise ValueError("need at least one point")
    return _grow(MetricBuilder(_POINT, spec.grid), n - 1, spec, rng)


def sample_space(n: int, spec: MeasureSpec, rng: random.Random | None = None):
    """A random n-point metric space of diameter <= 1.

    The rejection sampler draws the whole distance matrix jointly (uniform
    over metric matrices, hence exchangeable) and keeps no provenance; the
    sequential sampler builds the space one point at a time.
    """
    rng = rng if rng is not None else random.Random(spec.seed)
    return _sample(n, spec, rng).freeze(provenance=spec.kind == "sequential")


def trial_rng(master_seed, *labels) -> random.Random:
    """Deterministic per-trial stream split from the master seed."""
    return random.Random(":".join(str(x) for x in (master_seed,) + labels))


# -------------------------------------------------------------- audits


@dataclass(frozen=True)
class InvarianceReport:
    frequencies: dict[tuple[int, ...], float]
    max_gap: float
    sigma_bound: float
    flagged: bool
    trials: int

    def to_json(self) -> dict:
        return {
            "frequencies": {",".join(map(str, k)): v for k, v in self.frequencies.items()},
            "max_gap": self.max_gap,
            "sigma_bound": self.sigma_bound,
            "flagged": self.flagged,
            "trials": self.trials,
        }


def invariance_audit(
    spec: MeasureSpec,
    n: int,
    trials: int,
    phi: Formula,
    eps: Fraction,
    sigma: float = 3.0,
) -> InvarianceReport:
    """Estimate mu(U_{phi(a),eps}) for every injective tuple a and compare.

    Under an exchangeable sampler the frequencies agree up to noise; the
    flag trips when the largest pairwise gap exceeds `sigma` binomial
    standard deviations of the pooled estimate.  phi is compiled once, over
    the D its denominator rule gives the grid's lattice, and each sample is
    scored on the builder it was grown on: phi(a) < eps is
    v * eps.denominator < eps.numerator * D for the kernel's value v.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    # eps of the basic open [phi(a) < eps] whose measure this estimates
    if not ZERO < eps <= ONE:
        raise ValueError(f"eps must be in (0,1], got {eps}")
    free = phi.free_variables()
    k = len(free)
    if k > n:
        raise ValueError("formula arity exceeds point count")
    tuples = list(permutations(range(n), k))
    counts = {t: 0 for t in tuples}
    # every sample's builder is over L, its distances all in 0..L (unit valued)
    L = spec.grid.denominator
    with depth_guard():
        D = denominator(phi, L)
        kernel = compile_formula(phi, D, True, free)
        cut = eps.numerator * D
        for t_idx in range(trials):
            b = _sample(n, spec, trial_rng(spec.seed, "audit", n, t_idx))
            tables = {"d": b.matrix(D // L)}
            for t in tuples:
                if kernel(tables, t) * eps.denominator < cut:
                    counts[t] += 1
    freqs = {t: c / trials for t, c in counts.items()}
    values = list(freqs.values())
    max_gap = max(values) - min(values)
    pooled = sum(values) / len(values)
    # gap of two independent binomial proportions at the pooled rate
    sd = (2 * pooled * (1 - pooled) / trials) ** 0.5
    bound = sigma * sd
    return InvarianceReport(freqs, max_gap, bound, max_gap > bound, trials)


def genericity_frequency(
    spec: MeasureSpec,
    theta: DistanceConfiguration,
    eps: Fraction,
    n_values,
    trials: int,
):
    """Fraction of sampled n-point spaces in which every tuple realizing
    theta's restriction within delta_for(eps) admits a completing point
    within eps.  Returns the (n, frequency) curve."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    scan = ObligationScan([theta], eps, spec.grid.denominator)
    unit = Fraction(1, scan.L)
    curve = []
    for n in n_values:
        if theta.n > n:
            raise ValueError(f"theta needs {theta.n} points, n = {n}")
        good = 0
        for t_idx in range(trials):
            rng = trial_rng(spec.seed, "genericity", n, t_idx)
            # scored on the builder it was grown on, whose L is scan.L
            b = _grow(MetricBuilder(_POINT, spec.grid, unit), n - 1, spec, rng)
            obligations = scan.obligations(b.n, b.dist)
            good += all(scan.realized(0, pts, b.n, b.dist) for _, pts in obligations)
        curve.append((n, good / trials))
    return curve

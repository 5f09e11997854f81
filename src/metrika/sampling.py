"""Random finite metric spaces and statistical audits.

Two samplers: ``sequential`` draws each new distance uniformly from its
admissible interval (fast, full support on the grid, not obviously
exchangeable); ``rejection`` draws whole distance matrices uniformly and
keeps the metric ones (exchangeable by construction, exponential cost).
Distances live on a fine rational grid so every draw is exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .errors import RejectionBudgetExceededError
from .evaluation import evaluate
from .logic import Formula
from .rationals import ONE, ZERO
from .structures import (
    PresentedStructure,
    admissible,
    admissible_interval,
    extend_with_distances,
    from_distance_matrix,
)
from .urysohn import DistanceConfiguration, extension_obligations, realized

DEFAULT_GRID = Fraction(1, 2**16)


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


def _grid_uniform(lo: Fraction, hi: Fraction, step: Fraction, rng) -> Fraction:
    """Uniform draw from the grid points of [lo, hi] (falls back to lo when
    the interval is shorter than the grid and holds no lattice point)."""
    lo_idx = -((-lo.numerator * step.denominator) // (lo.denominator * step.numerator))
    hi_idx = (hi.numerator * step.denominator) // (hi.denominator * step.numerator)
    if lo_idx > hi_idx:
        return lo
    return rng.randint(lo_idx, hi_idx) * step


def sample_one_point(
    m: PresentedStructure, spec: MeasureSpec, rng: random.Random
) -> PresentedStructure:
    """Extend m by one point with random admissible distances."""
    n = m.n
    if spec.kind == "sequential":
        s: list[Fraction] = []
        for _ in range(n):
            s.append(_grid_uniform(*admissible_interval(m.d, s), spec.grid, rng))
        return extend_with_distances(m, s, note={"sampler": "sequential"})
    # rejection: uniform on the new point's admissible polytope
    steps = int(ONE / spec.grid)
    for _ in range(spec.max_tries):
        s = [rng.randint(0, steps) * spec.grid for _ in range(n)]
        if admissible(m.d, s):
            return extend_with_distances(m, s, note={"sampler": "rejection"})
    raise RejectionBudgetExceededError(
        f"no acceptance within {spec.max_tries} proposals"
    )


def sample_space(n: int, spec: MeasureSpec, rng: random.Random | None = None):
    """A random n-point metric space of diameter <= 1.

    The rejection sampler draws the whole distance matrix jointly (uniform
    over metric matrices, hence exchangeable); the sequential sampler
    builds the space one point at a time.
    """
    if n < 1:
        raise ValueError("need at least one point")
    rng = rng if rng is not None else random.Random(spec.seed)
    if spec.kind == "sequential":
        m = from_distance_matrix([[ZERO]])
        for _ in range(n - 1):
            m = sample_one_point(m, spec, rng)
        return m
    # joint rejection on integer grid coordinates, for speed
    steps = int(ONE / spec.grid)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for _ in range(spec.max_tries):
        draw = {p: rng.randint(0, steps) for p in pairs}
        if _is_metric_int(draw, n):
            rows = [[ZERO] * n for _ in range(n)]
            for (i, j), v in draw.items():
                rows[i][j] = rows[j][i] = v * spec.grid
            return from_distance_matrix(rows)
    raise RejectionBudgetExceededError(
        f"no acceptance within {spec.max_tries} proposals"
    )


def _is_metric_int(draw, n) -> bool:
    """Whether the draw (keyed by pairs i < j) is a metric: each point's
    row is admissible over the points before it."""

    def d(i, j):
        return draw[(i, j)]

    for k in range(2, n):
        if not admissible(d, [draw[(i, k)] for i in range(k)]):
            return False
    return True


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
    standard deviations of the pooled estimate.
    """
    free = phi.free_variables()
    k = len(free)
    if k > n:
        raise ValueError("formula arity exceeds point count")
    tuples = list(permutations(range(n), k))
    counts = {t: 0 for t in tuples}
    for t_idx in range(trials):
        rng = trial_rng(spec.seed, "audit", n, t_idx)
        m = sample_space(n, spec, rng)
        for t in tuples:
            if evaluate(phi, m, dict(zip(free, t))) < eps:
                counts[t] += 1
    freqs = {t: c / trials for t, c in counts.items()}
    values = list(freqs.values())
    max_gap = max(values) - min(values) if values else 0.0
    pooled = sum(values) / len(values) if values else 0.0
    # gap of two independent binomial proportions at the pooled rate
    sd = (2 * pooled * (1 - pooled) / trials) ** 0.5 if trials else 0.0
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
    eps = Fraction(eps)
    curve = []
    for n in n_values:
        if theta.n > n:
            raise ValueError(f"theta needs {theta.n} points, n = {n}")
        good = 0
        for t_idx in range(trials):
            rng = trial_rng(spec.seed, "genericity", n, t_idx)
            m = sample_space(n, spec, rng)
            obligations = extension_obligations(m, [theta], eps)
            good += all(realized(theta, m, pts, eps) for _, pts in obligations)
        curve.append((n, good / trials))
    return curve

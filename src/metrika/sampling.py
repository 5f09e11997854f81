"""Random finite metric spaces and statistical audits.

Two samplers: ``sequential`` draws each new distance uniformly from its
admissible interval (fast, full support on the grid, not obviously
exchangeable); ``rejection`` draws whole distance matrices uniformly and
keeps the metric ones (exchangeable by construction, exponential cost).
Distances live on a fine rational grid so every draw is exact.  Each law
is coded once, in ``_law``, which fixes once per campaign what does not
depend on the trial (the starting ``MetricBuilder``, square integer rows
over a lattice L the grid's denominator divides, and the rejection law's
slot layout) and returns the per-trial grow: it only draws, checks and
adds k points on a copy of that builder, drawing the same rationals
whatever L is.  ``sample_space`` freezes a sample once, at the end;
the invariance audit builds its law once per audit and the
genericity curve once per n, each over the lattice it scores on (the
kernel's D, the scan's L), so the builder's rows are what they read.  A
rejection proposal is drawn on the stream ``randint`` would consume and
checked flat, beside the prefix's distances, triple by triple; only an
accepted one is added, row by row, through the builder's ``add``, as the
sequential law adds its rows.
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
from .structures import MetricBuilder, PresentedStructure, admissible_interval, lattice, scaled
from .urysohn import DistanceConfiguration, ObligationScan

DEFAULT_GRID = Fraction(1, 2**16)

_POINT = PresentedStructure(metric_signature(), 1, 1, {"d": [[0]]})


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
        if self.max_tries < 1:
            raise ValueError(f"max_tries must be >= 1, got {self.max_tries}")


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
        s.append(_grid_uniform(*admissible_interval(b.rows, s, b.L), g, rng))
    return s


def _law(prefix: PresentedStructure, k: int, spec: MeasureSpec, *grids: Fraction):
    """spec's law for adding k points to prefix, the one place each law is
    coded, as grow(rng): a function that draws one sample and returns it
    on a ``MetricBuilder`` over the lattice of prefix, spec.grid and grids.

    What depends only on the law, the prefix, k and the lattice is fixed
    here, once per campaign: the starting builder, the grid step and the
    rejection law's slot layout.  A call of grow only draws, checks and
    adds, on a copy of the starting builder, so each sample owns its rows.

    The sequential law adds k rows of ``_sequential_row``.  The rejection
    law draws every new distance at once, for the pairs (i, j) with
    j >= prefix.n in row-major order, on the stream ``rng.randint(0,
    steps)`` would consume, into a flat list beside the prefix's
    distances.  It checks the triangle inequality there on each triple
    naming a new point; only an accepted draw is split into rows, each
    still added by ``add``.  A draw's integers scale with the
    lattice, so a larger one draws the same rationals."""
    start = MetricBuilder(prefix, spec.grid, *grids)
    (g,) = scaled([spec.grid], start.L)
    if spec.kind == "sequential":

        def grow(rng) -> MetricBuilder:
            b = start.copy()
            for _ in range(k):
                b.add(_sequential_row(b, g, rng), note={"sampler": "sequential"})
            return b

        return grow
    base, end = start.n, start.n + k
    steps = start.L // g
    bits = (steps + 1).bit_length()
    # flat[slot[i, j]] is d(i, j) over L, i < j: the prefix's pairs, then
    # the draw's, in the order they are drawn
    pairs = [(i, j) for j in range(base) for i in range(j)]
    known = len(pairs)
    pairs += [(i, j) for i in range(end) for j in range(max(i + 1, base), end)]
    slot = {p: x for x, p in enumerate(pairs)}
    blank = [start.rows[i][j] for i, j in pairs[:known]] + [0] * (len(pairs) - known)
    drawn = range(known, len(pairs))
    # |d(i, j) - d(h, j)| <= d(i, h) <= d(i, j) + d(h, j) for i < h < j, j new
    triples = [(slot[i, j], slot[h, j], slot[i, h])
               for j in range(base, end) for h in range(j) for i in range(h)]
    # the slots of each new row j's distances d(i, j), i < j
    new_rows = [[slot[i, j] for i in range(j)] for j in range(base, end)]

    def grow(rng) -> MetricBuilder:
        flat = blank[:]
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
                b = start.copy()
                for row in new_rows:
                    b.add([flat[x] for x in row], note={"sampler": "rejection"})
                return b
        raise RejectionBudgetExceededError(
            f"rejection sampler: no {end}-point metric space accepted "
            f"within {spec.max_tries} proposals"
        )

    return grow


def sample_space(n: int, spec: MeasureSpec, rng: random.Random | None = None):
    """A random n-point metric space of diameter <= 1.

    The rejection sampler draws the whole distance matrix jointly (uniform
    over metric matrices, hence exchangeable) and keeps no provenance; the
    sequential sampler builds the space one point at a time.
    """
    if n < 1:
        raise ValueError("need at least one point")
    b = _law(_POINT, n - 1, spec)(rng or random.Random(spec.seed))
    return b.freeze(provenance=spec.kind == "sequential")


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
    the lcm D of eps's denominator and the D its denominator rule gives
    the grid's lattice.  Each sample is grown on a builder over D, whose
    rows are then the kernel's table, and phi(a) < eps is v < eps * D for
    the kernel's value v.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    # eps of the basic open [phi(a) < eps] whose measure this estimates
    if not ZERO < eps <= ONE:
        raise ValueError(f"eps must be in (0,1], got {eps}")
    if n < 1:
        raise ValueError("need at least one point")
    free = phi.free_variables()
    k = len(free)
    if k > n:
        raise ValueError("formula arity exceeds point count")
    tuples = list(permutations(range(n), k))
    counts = {t: 0 for t in tuples}
    with depth_guard():
        D = lattice([eps, spec.grid], denominator(phi, spec.grid.denominator))
        # every sample's distances are in 0..D (unit valued)
        kernel = compile_formula(phi, D, True, free)
        (cut,) = scaled([eps], D)
        grow = _law(_POINT, n - 1, spec, Fraction(1, D))
        for t_idx in range(trials):
            tables = {"d": grow(trial_rng(spec.seed, "audit", n, t_idx)).rows}
            for t in tuples:
                if kernel(tables, t) < cut:
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
        # scored on the builder it was grown on, whose L is scan.L
        grow = _law(_POINT, n - 1, spec, unit)
        for t_idx in range(trials):
            b = grow(trial_rng(spec.seed, "genericity", n, t_idx))
            good += all(scan.realized(0, pts, b.rows) for _, pts in scan.obligations(b.rows))
        curve.append((n, good / trials))
    return curve

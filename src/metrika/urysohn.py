"""Distance configurations, one-point-extension polytopes, and the
Katetov repair witness for the bounded (diameter 1) Urysohn space.

A distance configuration of size n is the formula
max_{i<j} |d(x_i, x_j) - r_ij| for a rational distance matrix r; realizing
it within eps places n points at the prescribed mutual distances up to eps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import (
    PartialInfeasibleError,
    PreconditionViolatedError,
    SizeMismatchError,
)
from .logic import (
    AbsDiff,
    Atom,
    Condition,
    Const,
    Formula,
    Inf,
    Min,
    Neg,
    ScaleQ,
    Sup,
    max_of,
)
from .rationals import ONE, ZERO, format_rational, parse_rational
from .structures import PresentedStructure, admissible, admissible_interval


@dataclass(frozen=True)
class DistanceConfiguration:
    """Symmetric rational distance matrix of diameter <= 1, zero diagonal."""

    r: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.r)
        for row in self.r:
            if len(row) != n:
                raise ValueError("distance matrix must be square")
        for i in range(n):
            if self.r[i][i] != 0:
                raise ValueError(f"nonzero diagonal at {i}")
            for j in range(n):
                if not ZERO <= self.r[i][j] <= ONE:
                    raise ValueError(f"entry ({i},{j}) outside [0,1]")
                if self.r[i][j] != self.r[j][i]:
                    raise ValueError(f"asymmetric at ({i},{j})")
        # the triangle inequality: each row is admissible over its prefix
        for k in range(n):
            if not admissible(self.d, self.r[k][:k]):
                raise ValueError(f"triangle violated by point {k}")

    @property
    def n(self) -> int:
        return len(self.r)

    def d(self, i: int, j: int) -> Fraction:
        return self.r[i][j]

    @staticmethod
    def from_rows(rows) -> "DistanceConfiguration":
        return DistanceConfiguration(
            tuple(tuple(Fraction(v) for v in row) for row in rows)
        )

    def to_json(self):
        return [[format_rational(v) for v in row] for row in self.r]

    @staticmethod
    def from_json(rows) -> "DistanceConfiguration":
        if not all(isinstance(row, list) for row in rows):
            raise ValueError(f"a configuration is a list of rows, got {rows!r}")
        return DistanceConfiguration(
            tuple(tuple(parse_rational(v) for v in row) for row in rows)
        )


def restrict(theta: DistanceConfiguration) -> DistanceConfiguration:
    """Drop the last point: the top-left (n-1) x (n-1) submatrix."""
    if theta.n < 1:
        raise SizeMismatchError("cannot restrict an empty configuration")
    k = theta.n - 1
    return DistanceConfiguration(tuple(row[:k] for row in theta.r[:k]))


def config_error(
    theta: DistanceConfiguration, m: PresentedStructure, pts
) -> Fraction:
    """max_{i<j} |d(pts_i, pts_j) - r_ij|; zero for sizes < 2."""
    pts = tuple(pts)
    if len(pts) != theta.n:
        raise SizeMismatchError(f"expected {theta.n} points, got {len(pts)}")
    err = ZERO
    for i in range(theta.n):
        for j in range(i + 1, theta.n):
            err = max(err, abs(m.d(pts[i], pts[j]) - theta.r[i][j]))
    return err


def extension_obligations(m: PresentedStructure, configs, eps, first_new: int = 0):
    """Every (theta_index, pts) whose anchor tuple pts realizes theta's
    restriction within delta_for(eps), configuration-major with tuples in
    product order.  With first_new > 0, only the tuples naming a point
    >= first_new (so never the empty tuple).  Configurations that share a
    restriction share one scan of the tuples."""
    delta = delta_for(eps)
    anchors: dict = {}
    for t_idx, theta in enumerate(configs):
        k = theta.n - 1
        key = (k, tuple(row[:k] for row in theta.r[:k]))
        if key not in anchors:
            base = restrict(theta)
            anchors[key] = [
                pts
                for pts in product(range(m.n), repeat=k)
                if (not first_new or any(p >= first_new for p in pts))
                and config_error(base, m, pts) <= delta
            ]
        for pts in anchors[key]:
            yield t_idx, pts


def realized(theta: DistanceConfiguration, m: PresentedStructure, pts, eps) -> bool:
    """Whether some point of m completes the anchors pts to theta within eps."""
    return any(config_error(theta, m, (*pts, y)) <= eps for y in range(m.n))


def config_formula(theta: DistanceConfiguration, var_names=None) -> Formula:
    """The configuration as a formula (max of |d(x_i,x_j) - r_ij|)."""
    names = var_names or tuple(f"x{i + 1}" for i in range(theta.n))
    if len(names) != theta.n:
        raise SizeMismatchError("need one variable per configuration point")
    parts = [
        AbsDiff(Atom("d", (names[i], names[j])), Const(theta.r[i][j]))
        for i in range(theta.n)
        for j in range(i + 1, theta.n)
    ]
    return max_of(parts)


# ----------------------------------------------------- extension polytope


@dataclass(frozen=True)
class AdmissiblePolytope:
    """Distance vectors s for a new point over a base configuration:
    |s_i - s_j| <= r_ij <= s_i + s_j, all s_i in [0,1].  Never empty
    (s = all-ones works at diameter <= 1)."""

    base: DistanceConfiguration

    def contains(self, s) -> bool:
        s = tuple(s)
        if len(s) != self.base.n:
            return False
        if any(not ZERO <= v <= ONE for v in s):
            return False
        return admissible(self.base.d, s)


def admissible_bounds(base: DistanceConfiguration, partial) -> tuple[Fraction, Fraction]:
    """Interval for the next coordinate s_i given s_1..s_{i-1}.

    The interval is nonempty whenever the partial vector satisfies the
    polytope constraints among themselves (the classical Katetov argument).
    """
    partial = tuple(Fraction(v) for v in partial)
    i = len(partial)
    if i >= base.n:
        raise SizeMismatchError("partial vector already covers the base")
    for a in range(i):
        if not ZERO <= partial[a] <= ONE:
            raise PartialInfeasibleError(f"s_{a + 1} = {partial[a]} outside [0,1]")
    if not admissible(base.d, partial):
        raise PartialInfeasibleError("partial vector violates the polytope constraints")
    lo, hi = admissible_interval(base.d, partial)
    if lo > hi:
        raise PartialInfeasibleError("empty interval: partial vector infeasible")
    return lo, hi


# --------------------------------------------------------- Katetov repair


def delta_for(eps: Fraction) -> Fraction:
    """Tolerance policy: delta = 2 eps / 3, so witness error 3 delta/2 = eps."""
    eps = Fraction(eps)
    if not ZERO < eps <= ONE:
        raise ValueError(f"eps must be in (0,1], got {eps}")
    return 2 * eps / 3


def katetov_witness(
    m: PresentedStructure,
    theta: DistanceConfiguration,
    pts,
    delta: Fraction,
) -> tuple[Fraction, ...]:
    """Distances from a realizable new point to every point of m.

    Given anchors pts realizing theta's restriction within delta, the
    repaired Katetov function h(x) = min(1, min_k(s_k + 3 delta/2 + d(x, a_k)))
    always extends m validly and places the new point within 3 delta/2 of
    every prescribed distance s_k = r[k][n].
    """
    pts = tuple(pts)
    k = theta.n - 1
    if len(pts) != k:
        raise SizeMismatchError(f"expected {k} anchor points, got {len(pts)}")
    delta = Fraction(delta)
    err = config_error(restrict(theta), m, pts)
    if err > delta:
        raise PreconditionViolatedError(
            f"restriction error {err} exceeds delta {delta}"
        )
    s = [theta.r[a][k] for a in range(k)]
    slack = 3 * delta / 2
    h = []
    for x in range(m.n):
        if k == 0:
            h.append(ONE)
        else:
            h.append(min(ONE, min(s[a] + slack + m.d(x, pts[a]) for a in range(k))))
    return tuple(h)


# ----------------------------------------------------------- axiom schema


def axiom_instance(
    theta: DistanceConfiguration, eps: Fraction, delta: Fraction
) -> Condition:
    """The extension axiom for theta as a closed condition:
    roughly "wherever theta's restriction holds within delta, some y
    realizes theta within eps".

    When eps/(1-delta) exceeds 1 it is not a legal scale factor; the
    condition is then rescaled by (1-delta) on both sides, preserving its
    meaning while staying inside [0,1]-valued connectives.
    """
    eps, delta = Fraction(eps), Fraction(delta)
    if not (ZERO < eps < ONE and ZERO < delta < ONE):
        raise ValueError("need eps, delta in (0,1)")
    k = theta.n - 1
    xs = tuple(f"x{i + 1}" for i in range(k))
    rest = config_formula(restrict(theta), xs)
    full = config_formula(theta, xs + ("y",))
    coeff = eps / (ONE - delta)
    if coeff <= ONE:
        inner = Min(ScaleQ(coeff, Neg(rest)), full)
        bound = eps
    else:
        inner = Min(ScaleQ(eps, Neg(rest)), ScaleQ(ONE - delta, full))
        bound = eps * (ONE - delta)
    body: Formula = Inf("y", inner)
    for v in reversed(xs):
        body = Sup(v, body)
    return Condition(body, "<=", bound)


# ----------------------------------------------------------------- report


@dataclass(frozen=True)
class ExtensionFailure:
    theta_index: int
    pts: tuple[int, ...]


@dataclass(frozen=True)
class ExtensionReport:
    satisfied: int
    total: int
    failures: tuple[ExtensionFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "satisfied": self.satisfied,
            "total": self.total,
            "failures": [
                {"theta_id": f.theta_index, "tuple": list(f.pts)} for f in self.failures
            ],
        }


def extension_property_report(
    m: PresentedStructure, eps: Fraction, configs
) -> ExtensionReport:
    """For every configuration and every prefix tuple realizing its
    restriction within delta_for(eps): is some prefix point within eps of
    completing the configuration?"""
    eps = Fraction(eps)
    configs = list(configs)
    total = 0
    failures: list[ExtensionFailure] = []
    for t_idx, pts in extension_obligations(m, configs, eps):
        total += 1
        if not realized(configs[t_idx], m, pts, eps):
            failures.append(ExtensionFailure(t_idx, pts))
    return ExtensionReport(total - len(failures), total, tuple(failures))


# --------------------------------------------------------- config corpora


def all_configurations(n: int, denominator: int, include_zero=False):
    """Every valid distance configuration of size n with entries on the
    1/denominator grid (off-diagonal entries positive unless include_zero)."""
    if n < 1:
        raise ValueError("configuration size must be >= 1")
    start = 0 if include_zero else 1
    grid = [Fraction(k, denominator) for k in range(start, denominator + 1)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for values in product(grid, repeat=len(pairs)):
        rows = [[ZERO] * n for _ in range(n)]
        for (i, j), v in zip(pairs, values):
            rows[i][j] = rows[j][i] = v
        try:
            out.append(DistanceConfiguration(tuple(map(tuple, rows))))
        except ValueError:  # breaks the triangle inequality
            pass
    return out


def save_configurations(configs, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([c.to_json() for c in configs], fh, indent=2)


def load_configurations(path):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return [DistanceConfiguration.from_json(rows) for rows in data]

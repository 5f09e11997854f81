"""Distance configurations, their extension obligations, and the Katetov
repair witness for the bounded (diameter 1) Urysohn space.  The Katetov
condition itself, which distance rows extend a space by one point, is
coded once in `structures.admissible` and `structures.admissible_interval`.

A distance configuration of size n is the formula
max_{i<j} |d(x_i, x_j) - r_ij| for a rational distance matrix r; realizing
it within eps places n points at the prescribed mutual distances up to eps.
Both sides run on integers: ``ObligationScan`` scores configurations, and
``katetov_row`` builds the witness row that ``MetricBuilder.try_add`` checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product

from .errors import SizeMismatchError
from .rationals import ONE, ZERO, format_rational, parse_rational
from .structures import PresentedStructure, admissible, lattice, scaled, tuples_naming


@dataclass(frozen=True)
class DistanceConfiguration:
    """Symmetric rational distance matrix of diameter <= 1, zero diagonal."""

    r: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.r)
        for row in self.r:
            if len(row) != n:
                raise ValueError("distance matrix must be square")
        # the checks read the entries as integers over their lcm L
        L = lattice(chain.from_iterable(self.r))
        s = [scaled(row, L) for row in self.r]
        for i in range(n):
            if s[i][i] != 0:
                raise ValueError(f"nonzero diagonal at {i}")
            for j in range(n):
                if not 0 <= s[i][j] <= L:
                    raise ValueError(f"entry ({i},{j}) outside [0,1]")
                if s[i][j] != s[j][i]:
                    raise ValueError(f"asymmetric at ({i},{j})")
        # the triangle inequality: each row is admissible over its prefix
        for k in range(n):
            if not admissible(lambda i, j: s[i][j], s[k][:k]):
                raise ValueError(f"triangle violated by point {k}")

    @property
    def n(self) -> int:
        return len(self.r)

    def to_json(self):
        return [[format_rational(v) for v in row] for row in self.r]

    @staticmethod
    def from_json(rows, parse=parse_rational) -> "DistanceConfiguration":
        if not all(isinstance(row, list) for row in rows):
            raise ValueError(f"a configuration is a list of rows, got {rows!r}")
        if not rows:
            raise ValueError("a configuration needs at least one point")
        return DistanceConfiguration(tuple(tuple(parse(v) for v in row) for row in rows))


class ObligationScan:
    """The extension obligations of one configuration list at one eps,
    scored in integers over one denominator ``self.L``.

    The scan is built over the denominator L of the space it reads:
    ``self.L`` is the lcm of L and the configurations' denominators, and
    eps, delta and every configuration row (``rows``) are scaled to it
    once, here.  A space is a size ``n`` and ``dist(i, j)``, d(i, j) over
    ``self.L`` for every i and j, as on a ``MetricBuilder`` whose grids
    include the configurations'.  Each distance error is then an integer
    over ``self.L``, and it is within eps (or delta) exactly when it is at
    most floor(eps * L).  The configurations are grouped by restriction
    once, too.
    """

    def __init__(self, configs, eps, L: int):
        configs = list(configs)
        eps = Fraction(eps)
        delta = delta_for(eps)
        if any(theta.n < 1 for theta in configs):
            raise SizeMismatchError("an empty configuration has no restriction")
        self.L = L = lattice((v for theta in configs for row in theta.r for v in row), L)
        self._eps, self._delta = scaled((eps, delta), L)
        self.rows = [[scaled(row, L) for row in theta.r] for theta in configs]
        # per configuration its restriction (k, the k x k upper triangle);
        # per anchor count k the distinct restrictions, in first-seen order
        self._keys = []
        self._groups: dict[int, dict] = {}
        for r in self.rows:
            k = len(r) - 1
            key = tuple(r[i][j] for i, j in combinations(range(k), 2))
            self._keys.append((k, key))
            self._groups.setdefault(k, {})[key] = None

    def obligations(self, n: int, dist, first_new: int = 0):
        """Every (theta_index, pts) whose anchor tuple pts realizes theta's
        restriction within delta, configuration-major with tuples in
        product order.  With first_new > 0, only the tuples naming a point
        >= first_new (so never the empty tuple)."""
        delta = self._delta
        anchors = {}
        for k, keys in self._groups.items():
            pairs = list(combinations(range(k), 2))
            if first_new:
                tuples = tuples_naming(n, k, first_new)
            else:
                tuples = product(range(n), repeat=k)
            scored = [(pts, [dist(pts[i], pts[j]) for i, j in pairs]) for pts in tuples]
            for key in keys:
                anchors[k, key] = [
                    pts
                    for pts, got in scored
                    if all(abs(g - w) <= delta for g, w in zip(got, key))
                ]
        for t_idx, key in enumerate(self._keys):
            for pts in anchors[key]:
                yield t_idx, pts

    def realized(self, t_idx: int, pts, n: int, dist) -> bool:
        """Whether some point completes the anchors pts to configuration
        t_idx within eps."""
        r = self.rows[t_idx]
        k = len(r) - 1
        if len(pts) != k:
            raise SizeMismatchError(f"expected {k + 1} points, got {len(pts) + 1}")
        eps = self._eps
        for i, j in combinations(range(k), 2):
            if abs(dist(pts[i], pts[j]) - r[i][j]) > eps:
                return False
        col = [(p, r[a][k]) for a, p in enumerate(pts)]
        return any(all(abs(dist(p, y) - c) <= eps for p, c in col) for y in range(n))


# --------------------------------------------------------- Katetov repair


def delta_for(eps: Fraction) -> Fraction:
    """Tolerance policy: delta = 2 eps / 3, so witness error 3 delta/2 = eps."""
    eps = Fraction(eps)
    if not ZERO < eps <= ONE:
        raise ValueError(f"eps must be in (0,1], got {eps}")
    return 2 * eps / 3


def katetov_row(n, d, pts, s, slack, unit) -> list:
    """The repaired Katetov row h(x) = min(unit, min_a(s_a + slack + d(x, pts_a)))
    for x in 0..n-1: distances from a new point to every point of a space
    with lookup d(i, j), given its prescribed distance s_a to each anchor
    pts_a.  All are on one scale, integers over L in the package, and unit
    caps the row (L itself for diameter 1).  With slack
    3 delta / 2 over anchors that realize their restriction within delta,
    the row is admissible and within the slack of each s_a."""
    return [min([unit] + [sa + slack + d(x, p) for p, sa in zip(pts, s)]) for x in range(n)]


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
    table = m.tables["d"]
    scan = ObligationScan(configs, eps, lattice(table.values()))
    d = dict(zip(table, scaled(table.values(), scan.L)))

    def dist(i, j):
        return d[i, j]

    total = 0
    failures: list[ExtensionFailure] = []
    for t_idx, pts in scan.obligations(m.n, dist):
        total += 1
        if not scan.realized(t_idx, pts, m.n, dist):
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
    if not isinstance(data, list) or not data:
        raise ValueError("a configuration file is a nonempty list of configurations")
    memo: dict[str, Fraction] = {}

    def parse(text):
        # each distinct entry string is parsed once
        if isinstance(text, str) and text in memo:
            return memo[text]
        value = parse_rational(text)
        memo[text] = value
        return value

    return [DistanceConfiguration.from_json(rows, parse) for rows in data]

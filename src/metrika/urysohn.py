"""Distance configurations, their extension obligations, and the Katetov
repair witness for the bounded (diameter 1) Urysohn space.  The Katetov
condition itself, which distance rows extend a space by one point, is
coded once in `structures.admissible` and `structures.admissible_interval`.

A distance configuration of size n is the formula
max_{i<j} |d(x_i, x_j) - r_ij| for a rational distance matrix r; realizing
it within eps places n points at the prescribed mutual distances up to eps.
A configuration holds r as integer rows over its least lattice, and the
corpus ``all_configurations`` builds only valid ones.  Both sides run on
integers, on a space's square rows (``rows[i][j]`` is d(i, j) * L, a
structure's ``rows["d"]`` or a builder's rows): ``ObligationScan`` scores
configurations, and ``katetov_row`` builds the witness row that
``MetricBuilder.try_add`` checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, combinations
from math import gcd, lcm

from .errors import SizeMismatchError
from .rationals import ONE, ZERO, literal_parser, parse_rational
from .structures import (
    PresentedStructure,
    admissible,
    admissible_interval,
    json_text,
    lattice,
    scaled,
    tuples_naming,
)


class DistanceConfiguration:
    """Symmetric rational distance matrix of diameter <= 1, zero diagonal,
    held as its least lattice L and integer rows over L, as a structure
    holds its tables: ``rows[i][j]`` is r_ij * L.  Fractions appear only
    at the edges: the constructor and ``from_json`` read rationals, and
    ``r`` and ``to_json`` make one per distinct integer."""

    __slots__ = ("L", "rows", "_r")

    def __init__(self, r):
        """r: the matrix as rows of rationals."""
        L = lattice(chain.from_iterable(r))
        self._hold(L, tuple(tuple(scaled(row, L)) for row in r))

    @staticmethod
    def over(L: int, rows) -> "DistanceConfiguration":
        """The configuration whose rows, tuples of integers, are over L,
        held over its least lattice."""
        g = gcd(L, *chain.from_iterable(rows))
        if g > 1:
            L, rows = L // g, tuple(tuple(x // g for x in row) for row in rows)
        theta = object.__new__(DistanceConfiguration)
        theta._hold(L, rows)
        return theta

    def _hold(self, L: int, rows) -> None:
        self.L, self.rows, self._r = L, rows, None
        self.__post_init__()

    def __post_init__(self):
        """The checks, run once on every construction path, on the integers.
        It keeps the dataclass hook's name, which perfbench's tracer wraps."""
        L, s = self.L, self.rows
        n = len(s)
        for row in s:
            if len(row) != n:
                raise ValueError("distance matrix must be square")
        for i in range(n):
            if s[i][i] != 0:
                raise ValueError(f"nonzero diagonal at {i}")
            for j in range(n):
                if not 0 <= s[i][j] <= L:
                    raise ValueError(f"entry ({i},{j}) outside [0,1]")
                if s[i][j] != s[j][i]:
                    raise ValueError(f"asymmetric at ({i},{j})")
        # the triangle inequality: each row is admissible over its prefix,
        # as any row over fewer than two points is
        for k in range(2, n):
            if not admissible(s, s[k][:k]):
                raise ValueError(f"triangle violated by point {k}")

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def r(self) -> tuple[tuple[Fraction, ...], ...]:
        """The matrix as rows of Fractions, built on first read."""
        if self._r is None:
            L = self.L
            value = {x: Fraction(x, L) for x in set(chain.from_iterable(self.rows))}
            self._r = tuple(tuple(map(value.__getitem__, row)) for row in self.rows)
        return self._r

    def __eq__(self, other):
        # the least lattice makes (L, rows) one value per matrix r
        if not isinstance(other, DistanceConfiguration):
            return NotImplemented
        return self.L == other.L and self.rows == other.rows

    def __hash__(self):
        return hash((self.L, self.rows))

    def __repr__(self):
        return f"DistanceConfiguration(r={self.r!r})"

    def to_json(self, literal=None):
        """The rows as literals, each made once per distinct integer by
        literal, a memo of ``_literal`` that configurations may share."""
        literal = literal or cache(_literal)
        L = self.L
        return [[literal(x, L) for x in row] for row in self.rows]

    @staticmethod
    def from_json(rows, parse=parse_rational) -> "DistanceConfiguration":
        if not all(isinstance(row, list) for row in rows):
            raise ValueError(f"a configuration is a list of rows, got {rows!r}")
        if not rows:
            raise ValueError("a configuration needs at least one point")
        # parse raises on a non-string, so the keys are the distinct literals
        value = {v: parse(v) for row in rows for v in row}
        L = lattice(value.values())
        integer = dict(zip(value, scaled(value.values(), L)))
        return DistanceConfiguration.over(
            L, tuple(tuple(map(integer.__getitem__, row)) for row in rows)
        )


def _literal(x: int, L: int) -> str:
    """The literal of the rational x / L."""
    return str(Fraction(x, L))


class ObligationScan:
    """The extension obligations of one configuration list at one eps,
    scored in integers over one denominator ``self.L``.

    The scan is built over the denominator L of the space it reads:
    ``self.L`` is the lcm of L and the configurations' lattices, eps and
    delta are scaled to it, and each configuration's integer rows
    (``rows``) are multiplied up to it, or taken as they are when its
    lattice is ``self.L``, once, here.  A space is its square rows
    ``d``, ``d[i][j]`` the integer d(i, j) over ``self.L``, as
    ``m.rows_over(self.L)["d"]`` gives them or a ``MetricBuilder`` whose
    grids include the configurations' keeps them.  Each distance error
    is then an integer over ``self.L``, and it is within eps (or delta)
    exactly when it is at most floor(eps * L).  The configurations are
    grouped by restriction once, too.
    """

    def __init__(self, configs, eps, L: int):
        configs = list(configs)
        eps = Fraction(eps)
        delta = delta_for(eps)
        if any(theta.n < 1 for theta in configs):
            raise SizeMismatchError("an empty configuration has no restriction")
        self.L = L = lcm(L, *(theta.L for theta in configs))
        self._eps, self._delta = scaled((eps, delta), L)
        self.rows = [
            theta.rows if theta.L == L
            else tuple(tuple(map((L // theta.L).__mul__, row)) for row in theta.rows)
            for theta in configs
        ]
        # per configuration its restriction (k, the k x k upper triangle);
        # per anchor count k the distinct restrictions, in first-seen order
        self._keys = []
        self._groups: dict[int, dict] = {}
        for r in self.rows:
            k = len(r) - 1
            key = tuple(r[i][j] for i, j in combinations(range(k), 2))
            self._keys.append((k, key))
            self._groups.setdefault(k, {})[key] = None

    def obligations(self, d, first_new: int = 0):
        """Every (theta_index, pts) whose anchor tuple pts realizes theta's
        restriction within delta, configuration-major with tuples in
        lex order: those naming a point >= first_new, so the empty tuple
        only when first_new is 0."""
        delta, n = self._delta, len(d)
        anchors = {}
        for k, keys in self._groups.items():
            pairs = list(combinations(range(k), 2))
            scored = [(pts, [d[pts[i]][pts[j]] for i, j in pairs])
                      for pts in tuples_naming(n, k, first_new)]
            for key in keys:
                anchors[k, key] = [
                    pts
                    for pts, got in scored
                    if all(abs(g - w) <= delta for g, w in zip(got, key))
                ]
        for t_idx, key in enumerate(self._keys):
            for pts in anchors[key]:
                yield t_idx, pts

    def realized(self, t_idx: int, pts, d) -> bool:
        """Whether some point completes the anchors pts to configuration
        t_idx within eps."""
        r = self.rows[t_idx]
        k = len(r) - 1
        if len(pts) != k:
            raise SizeMismatchError(f"expected {k + 1} points, got {len(pts) + 1}")
        eps = self._eps
        for i, j in combinations(range(k), 2):
            if abs(d[pts[i]][pts[j]] - r[i][j]) > eps:
                return False
        col = [(d[p], r[a][k]) for a, p in enumerate(pts)]
        return any(all(abs(dp[y] - c) <= eps for dp, c in col) for y in range(len(d)))


# --------------------------------------------------------- Katetov repair


def delta_for(eps: Fraction) -> Fraction:
    """Tolerance policy: delta = 2 eps / 3, so witness error 3 delta/2 = eps."""
    eps = Fraction(eps)
    if not ZERO < eps <= ONE:
        raise ValueError(f"eps must be in (0,1], got {eps}")
    return 2 * eps / 3


def katetov_row(d, pts, s, slack, unit) -> list:
    """The repaired Katetov row h(x) = min(unit, min_a(s_a + slack + d[x][pts_a]))
    for every point x of the space with square rows d: distances from a
    new point, given its prescribed distance s_a to each anchor pts_a.
    All are on one scale, integers over L in the package, and unit caps
    the row (L itself for diameter 1).  With slack 3 delta / 2 over
    anchors that realize their restriction within delta, the row is
    admissible and within the slack of each s_a."""
    return [min([unit] + [sa + slack + dx[p] for p, sa in zip(pts, s)]) for dx in d]


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
    scan = ObligationScan(configs, eps, m.L)
    rows = m.rows_over(scan.L)["d"]
    total = 0
    failures: list[ExtensionFailure] = []
    for t_idx, pts in scan.obligations(rows):
        total += 1
        if not scan.realized(t_idx, pts, rows):
            failures.append(ExtensionFailure(t_idx, pts))
    return ExtensionReport(total - len(failures), total, tuple(failures))


# --------------------------------------------------------- config corpora


def all_configurations(n: int, denominator: int, include_zero=False):
    """Every valid distance configuration of size n with entries on the
    1/denominator grid (off-diagonal entries positive unless include_zero),
    in lex order of the entries above the diagonal, row by row.

    Only valid ones are built: the pairs are filled in that order, depth
    first, and pair (i, j) is the last pair of every triangle (h, i, j)
    with h < i, so its values that keep each of them a triangle are the
    one interval ``admissible_interval`` gives for d(i, j) over the
    distances d(h, j), h < i."""
    if n < 1:
        raise ValueError("configuration size must be >= 1")
    if denominator < 1:
        raise ValueError(f"grid denominator must be >= 1, got {denominator}")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    _fill([[0] * n for _ in range(n)], pairs, 0, 0 if include_zero else 1, denominator, out)
    return out


def _fill(d, pairs, p, start, q, out) -> None:
    """Append to out every valid completion of the integer rows d over q
    whose pairs before pairs[p] are set, each entry in start..q."""
    if p == len(pairs):
        out.append(DistanceConfiguration.over(q, tuple(map(tuple, d))))
        return
    i, j = pairs[p]
    lo, hi = admissible_interval(d, d[j][:i], q)
    row_i, row_j = d[i], d[j]
    for v in range(max(lo, start), hi + 1):
        row_i[j] = row_j[i] = v
        _fill(d, pairs, p + 1, start, q, out)


def save_configurations(configs, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        # one literal per distinct integer and lattice in the file
        literal = cache(_literal)
        fh.write(json_text([c.to_json(literal) for c in configs]))


def load_configurations(path):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list) or not data:
        raise ValueError("a configuration file is a nonempty list of configurations")
    parse = literal_parser()
    configs = []
    for k, rows in enumerate(data):
        try:
            configs.append(DistanceConfiguration.from_json(rows, parse))
        except (ValueError, TypeError) as exc:
            raise type(exc)(f"configuration {k}: {exc}") from None
    return configs

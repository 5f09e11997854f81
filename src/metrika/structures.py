"""Finite pre-structures with exact rational interpretation tables.

A ``PresentedStructure`` is the finite prefix 0..n-1 of a countable dense
presentation, checked by ``validate``; a metric-only one grows point by
point on a ``MetricBuilder``, which keeps the prefix bit-for-bit.  On
integers a metric has one form, the square rows ``distance_rows`` builds:
``rows[i][j]`` is d(i, j) * L.  The builder, ``validate``, the Katetov
tests here and the scans in ``urysohn`` all read it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from math import lcm
from operator import sub

from .errors import ExtensionViolatesAxiomsError
from .logic import Relation, Signature
from .rationals import ONE, ZERO, literal_parser, parse_rational

Tables = dict[str, dict[tuple[int, ...], Fraction]]

FILE_VERSION = "metrika-structure-1"


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple
    lhs: Fraction
    rhs: Fraction


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]
    is_metric: bool


class PresentedStructure:
    """n named points with total interpretation tables for every relation."""

    __slots__ = ("sig", "n", "tables", "provenance_log", "_unit")

    def __init__(self, sig: Signature, n: int, tables: Tables, provenance_log=()):
        self.sig = sig
        self.n = n
        self.tables = tables
        self.provenance_log = tuple(provenance_log)
        self._unit = None
        for rel in sig.relations:
            table = tables.get(rel.name)
            if table is None or len(table) != n**rel.arity:
                raise ValueError(f"table for {rel.name} is not total on {n} points")

    def value(self, relation: str, idx: tuple[int, ...]) -> Fraction:
        return self.tables[relation][idx]

    def tuples(self, arity: int):
        return product(range(self.n), repeat=arity)

    def unit_valued(self) -> bool:
        """Whether every table value lies in [0, 1]; scanned once, on the
        first call (a structure read by ``from_json`` is known to be)."""
        if self._unit is None:
            self._unit = all(
                0 <= v.numerator <= v.denominator
                for table in self.tables.values()
                for v in table.values()
            )
        return self._unit

    def __eq__(self, other):
        return (
            isinstance(other, PresentedStructure)
            and self.sig == other.sig
            and self.n == other.n
            and self.tables == other.tables
        )

    def __hash__(self):
        return hash((self.sig, self.n))

    def __repr__(self):
        return f"PresentedStructure(n={self.n}, sig={[r.name for r in self.sig.relations]})"


def point_range(n: int) -> str:
    """The points 0..n-1 as an error message names them: a structure with
    none is said to have no points, not to span 0..-1."""
    return f"0..{n - 1}" if n else "a structure with no points"


# ------------------------------------------------------------ validation


def validate(m: PresentedStructure) -> ValidationReport:
    """Exhaustively check the pre-structure axioms; never raises."""
    L, (ints,) = scaled_tables(m)
    rows = distance_rows(m, L)
    violations = tuple(_violations(m, L, ints, rows))
    is_metric = all(x > 0 for i, row in enumerate(rows) for j, x in enumerate(row) if i != j)
    return ValidationReport(not violations, violations, is_metric)


def distance_rows(m: PresentedStructure, L: int) -> list[list[int]]:
    """m's distances as square integer rows, rows[i][j] = d(i, j) * L: the
    one integer form of a metric, ``nested`` with each row ``scaled``.  L
    must be a multiple of every distance's denominator (``scaled`` floors
    otherwise)."""
    return nested(m.tables["d"], 2, m.n, lambda r: scaled(r, L))


def tuples_naming(n: int, arity: int, first_new: int) -> list[tuple[int, ...]]:
    """Tuples of `arity` points of 0..n-1 naming a point >= first_new, in
    lex order, built directly rather than by filtering every tuple."""
    if arity == 0:
        return []
    tail = tuples_naming(n, arity - 1, first_new)
    every = list(product(range(n), repeat=arity - 1))
    return [(i,) + t for i in range(n) for t in (every if i >= first_new else tail)]


def lattice(values, L: int = 1) -> int:
    """The lcm of L and the denominators of the rationals in values: the
    least denominator over which each of them is an integer."""
    return lcm(L, *{v.denominator for v in values})


def scaled(values, L: int) -> list[int]:
    """floor(q * L) for each rational q in values.  For q on the lattice
    (its denominator divides L) that is q exactly, as an integer over L;
    for a tolerance q off it, an integer x over L is at most q exactly
    when x <= floor(q * L)."""
    return [q.numerator * L // q.denominator for q in values]


def scaled_tables(*ms: PresentedStructure) -> tuple[int, list[dict]]:
    """Every table of every structure in ms as integers over one shared
    denominator L, the lcm of all their denominators.  Returns L and, per
    structure, relation name -> {tuple: value * L}."""
    tables = [m.tables for m in ms]
    L = lattice(v for t in tables for table in t.values() for v in table.values())
    return L, [
        {
            name: dict(zip(table, scaled(table.values(), L)))
            for name, table in t.items()
        }
        for t in tables
    ]


def _violations(m: PresentedStructure, L: int, ints: dict, rows: list[list[int]]):
    """Every axiom violation of m, in validate's order, found on m's tables
    scaled to integers over L (``ints``; ``rows[i][j]`` is d(i, j) * L).
    The Fractions are read only to build a reported violation.

    Triangle: d(i, k) > d(i, j) + d(j, k) is rows[i][k] - rows[j][k] >
    rows[i][j], so one C-level max over the row pair screens each (i, j),
    and only a pair that fails the screen walks k.

    Lipschitz: with the constant p/q, |A_u - A_v| > (p/q) * gap is
    |a_u - a_v| * q > p * gap.  Any v != u differs from u at some
    coordinate t, so gap(u, v) = max_t d(u_t, v_t) >= delta, the least
    distance between two distinct points.  A relation whose value spread
    max a - min a has spread * q <= p * delta therefore has no violating
    pair and is skipped whole; any other is tested pair by pair.  On a
    graph (the discrete metric, values in {0, 1}, constant 1) every
    relation is skipped."""
    n = m.n
    for rel in m.sig.relations:
        table, a = m.tables[rel.name], ints[rel.name]
        for tup in m.tuples(rel.arity):
            if not 0 <= a[tup] <= L:
                yield Violation("range", (rel.name,) + tup, table[tup], ONE)
    d = m.tables["d"]
    for i in range(n):
        if rows[i][i] != 0:
            yield Violation("reflexivity", (i,), d[(i, i)], ZERO)
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                yield Violation("symmetry", (i, j), d[(i, j)], d[(j, i)])
    for i, ri in enumerate(rows):
        for j, rj in enumerate(rows):
            dij = ri[j]
            if max(map(sub, ri, rj)) > dij:
                for k in range(n):
                    if ri[k] - rj[k] > dij:
                        yield Violation("triangle", (i, j, k), d[(i, k)], d[(i, j)] + d[(j, k)])
    # The metric's own continuity is exactly symmetry + triangle (a
    # 1-Lipschitz-in-max bound would wrongly reject valid metric spaces),
    # so d is skipped here.  With one point or none there is no pair.
    rels = m.sig.relations[1:]
    if not rels or n < 2:
        return
    delta = min(x for i, row in enumerate(rows) for j, x in enumerate(row) if i != j)
    for rel in rels:
        table, a = m.tables[rel.name], ints[rel.name]
        p, q = rel.lipschitz.numerator, rel.lipschitz.denominator
        if (max(a.values()) - min(a.values())) * q <= p * delta:
            continue
        every = list(m.tuples(rel.arity))
        for iu, u in enumerate(every):
            au = a[u]
            for v in every[iu + 1:]:
                if abs(au - a[v]) * q > p * max(rows[x][y] for x, y in zip(u, v)):
                    yield Violation(
                        "lipschitz",
                        (rel.name, u, v),
                        abs(table[u] - table[v]),
                        rel.lipschitz * max(map(d.__getitem__, zip(u, v))),
                    )


# ------------------------------------------------------- admissibility


def admissible(d, s) -> bool:
    """Whether s is an admissible distance row for a new point over the
    square rows d: |s_i - s_j| <= d[i][j] <= s_i + s_j for every i < j.
    This is the Katetov condition; with the s_i in [0, 1] it is exactly
    the triangle inequality on every triple naming the new point."""
    for j in range(1, len(s)):
        sj = s[j]
        for i in range(j):
            r = d[i][j]
            if abs(s[i] - sj) > r or r > s[i] + sj:
                return False
    return True


def admissible_interval(d, s, unit=ONE):
    """The values t in [0, unit] for which the row s + [t] stays admissible
    over the square rows d, given that s is: [max_j |s_j - d[j][i]|,
    min_j (s_j + d[j][i])] cut to [0, unit], where i = len(s) and j < i.
    Empty when lo > hi.  The unit is ONE for rational rows, or L for rows
    of integers over L."""
    i = len(s)
    lo, hi = unit * 0, unit
    for j in range(i):
        r = d[j][i]
        lo = max(lo, abs(s[j] - r))
        hi = min(hi, s[j] + r)
    return lo, hi


# -------------------------------------------------------------- extension


class MetricBuilder:
    """The one-point extension: a metric-only structure grown over integers.

    Every distance is held as an integer over one denominator L, the lcm
    of the `grids`' denominators and the prefix's, in the square rows of
    ``distance_rows``: ``rows[i][j]`` is d(i, j) * L.  The prefix is
    assumed valid, so a new row is checked only where it can break an
    axiom: every entry in 0..L, then the Katetov row test, at O(n^2)
    cost; only a row that passes is added, as one new column and one new
    row.  ``freeze`` builds the ``PresentedStructure`` once, at the end.
    """

    __slots__ = ("sig", "L", "rows", "_base", "_log", "_notes")

    def __init__(self, prefix: PresentedStructure, *grids: Fraction):
        if len(prefix.sig.relations) != 1:
            raise ValueError("MetricBuilder grows metric-only structures")
        self.sig = prefix.sig
        self.L = lattice(chain(grids, prefix.tables["d"].values()))
        self.rows = distance_rows(prefix, self.L)
        self._base = prefix.n
        self._log = prefix.provenance_log
        self._notes: list = []

    @property
    def n(self) -> int:
        return len(self.rows)

    def copy(self) -> MetricBuilder:
        """A builder at this one's state that grows on rows of its own."""
        b = object.__new__(MetricBuilder)
        b.sig, b.L, b._base, b._log = self.sig, self.L, self._base, self._log
        b.rows = [r[:] for r in self.rows]
        b._notes = self._notes[:]
        return b

    def try_add(self, row, note=None) -> bool:
        """Add a point with row[i] = d(i, new) over L, if that keeps the
        structure valid; False, and nothing added, if not."""
        rows = self.rows
        n = len(rows)
        if len(row) != n:
            raise ValueError(f"point {n} needs {n} distances, got {len(row)}")
        if row and (min(row) < 0 or max(row) > self.L or not admissible(rows, row)):
            return False
        for r, v in zip(rows, row):
            r.append(v)
        rows.append([*row, 0])
        self._notes.append(note)
        return True

    def add(self, row, note=None) -> None:
        """``try_add``; on a bad row, raise ExtensionViolatesAxiomsError
        carrying the ``validate`` report of the structure it would give."""
        if not self.try_add(row, note):
            n = len(row)
            table = self.freeze().tables["d"]
            table[(n, n)] = ZERO
            for i, v in enumerate(row):
                table[(i, n)] = table[(n, i)] = Fraction(v, self.L)
            raise ExtensionViolatesAxiomsError(
                validate(PresentedStructure(self.sig, n + 1, {"d": table}))
            )

    def freeze(self, provenance=True) -> PresentedStructure:
        """The structure built so far, with one Fraction per distinct
        distance.  Each added point leaves the record {"point": index,
        "note": note}; provenance=False keeps only the prefix's records."""
        rows, L = self.rows, self.L
        values = set(chain.from_iterable(rows))
        frac = {v: Fraction(v, L) for v in values}
        table = {(i, j): frac[v] for i, row in enumerate(rows) for j, v in enumerate(row)}
        log = self._log
        if provenance:
            log += tuple(
                {"point": self._base + k, "note": note} for k, note in enumerate(self._notes)
            )
        m = PresentedStructure(self.sig, len(rows), {"d": table}, log)
        m._unit = all(0 <= v <= L for v in values)
        return m


# --------------------------------------------------------------- file I/O


def nested(table, arity, n, row, prefix=()):
    """table as lists nested arity >= 1 deep, n entries at each level: at
    arity 2, nested(...)[i] is row([table[(i, j)] for j in range(n)])."""
    if arity == 1:
        return row([table[prefix + (i,)] for i in range(n)])
    return [nested(table, arity - 1, n, row, prefix + (i,)) for i in range(n)]


def _unnest(nested, arity, n, prefix, out, parse):
    """Read the entries under `prefix` into out, each leaf through parse,
    in lex order, so an error names the first bad entry."""
    if not isinstance(nested, list) or len(nested) != n:
        raise ValueError(f"entries at {prefix} are not a list of {n}")
    if arity > 1:
        for i, sub in enumerate(nested):
            _unnest(sub, arity - 1, n, prefix + (i,), out, parse)
        return
    for i, leaf in enumerate(nested):
        try:
            out[prefix + (i,)] = parse(leaf)
        except ValueError as exc:
            raise ValueError(f"entry {prefix + (i,)}: {exc}") from None


def _unit_entry(v: Fraction) -> None:
    if not 0 <= v.numerator <= v.denominator:
        raise ValueError(f"{v} is outside [0, 1]")


def to_json(m: PresentedStructure, include_provenance=False) -> dict:
    obj = {
        "version": FILE_VERSION,
        "signature": {
            "relations": [
                {
                    "name": r.name,
                    "arity": r.arity,
                    "lipschitz": str(r.lipschitz),
                }
                for r in m.sig.relations
            ]
        },
        "points": m.n,
        "tables": {
            r.name: nested(m.tables[r.name], r.arity, m.n, lambda vs: [*map(str, vs)])
            for r in m.sig.relations
        },
    }
    if include_provenance:
        obj["provenance"] = [_jsonable(rec) for rec in m.provenance_log]
    return obj


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _arity(rel: dict) -> int:
    arity = rel["arity"]
    if type(arity) is not int:
        raise ValueError(f"relation {rel['name']}: arity must be an integer, got {arity!r}")
    return arity


def from_json(obj: dict) -> PresentedStructure:
    version = obj.get("version") if isinstance(obj, dict) else None
    if version != FILE_VERSION:
        raise ValueError(f"version {version!r} is not {FILE_VERSION!r}")
    rels = tuple(
        Relation(r["name"], _arity(r), parse_rational(r["lipschitz"]))
        for r in obj["signature"]["relations"]
    )
    sig = Signature(rels)
    n = obj["points"]
    if type(n) is not int or n < 0:
        raise ValueError(f"points must be an integer >= 0, got {n!r}")
    extra = sorted(set(obj["tables"]) - {rel.name for rel in rels})
    if extra:
        raise ValueError(f"tables for relations not in the signature: {extra}")
    tables: Tables = {}
    # each distinct literal is parsed, and range-checked, once per file
    parse = literal_parser(_unit_entry)
    for rel in rels:
        out: dict[tuple[int, ...], Fraction] = {}
        try:
            _unnest(obj["tables"][rel.name], rel.arity, n, (), out, parse)
        except ValueError as exc:
            raise ValueError(f"table {rel.name}: {exc}") from None
        tables[rel.name] = out
    m = PresentedStructure(sig, n, tables)
    # _unit_entry checked that every entry is in [0, 1]; the other axioms are
    # left to the caller's validate
    m._unit = True
    return m


def save(m: PresentedStructure, path, include_provenance=False) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json(m, include_provenance), fh, indent=2)


def load(path) -> PresentedStructure:
    with open(path, encoding="utf-8") as fh:
        return from_json(json.load(fh))

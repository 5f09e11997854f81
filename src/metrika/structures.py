"""Finite pre-structures, each table held as integer lists over one lattice
L, nested arity deep: ``m.rows["d"][i][j]`` is d(i, j) * L.  Every verb
reads them, through ``rows_over`` for a multiple of L.  Fractions appear
only at the edges: ``from_tables`` and ``from_json`` share one conversion
to integers, and ``value``, the ``tables`` view, ``to_json`` and reported
violations make one Fraction per distinct integer.  A metric-only
structure grows point by point on a ``MetricBuilder``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, product
from json.encoder import encode_basestring_ascii
from math import gcd, lcm
from operator import sub
from types import MappingProxyType

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
    """n named points with a total table for every relation, each held as
    integer lists over the least lattice L, nested arity deep."""

    __slots__ = ("sig", "n", "L", "rows", "provenance_log", "_fraction", "_tables")

    def __init__(self, sig: Signature, n: int, L: int, rows: dict, provenance_log=()):
        """rows: each relation's table over L, as the edges that build it check it."""
        self.sig, self.n, self.L, self.rows = sig, n, L, rows
        self.provenance_log = tuple(provenance_log)
        # x -> x / L, made once per distinct integer
        self._fraction = cache(lambda x: Fraction(x, L))
        self._tables = None

    def value(self, relation: str, idx: tuple[int, ...]) -> Fraction:
        return self._fraction(entry(self.rows[relation], idx))

    @property
    def tables(self) -> Tables:
        """Each table as a read-only map tuple -> Fraction, built on first read."""
        if self._tables is None:
            self._tables = MappingProxyType({r.name: MappingProxyType(dict(zip(
                self.tuples(r.arity), map(self._fraction, self._entries(r)))))
                for r in self.sig.relations})
        return self._tables

    def rows_over(self, D: int) -> dict:
        """The tables over D, a multiple of L; ``rows`` itself (read only) if D == L."""
        return self.rows if D == self.L else self._remap((D // self.L).__mul__)

    def _remap(self, f) -> dict:
        """Each table with f applied to every entry."""
        return {r.name: _shape([*map(f, self._entries(r))], r.arity, self.n)
                for r in self.sig.relations}

    def _entries(self, rel: Relation):
        """rel's entries in lex order of their tuples."""
        entries = self.rows[rel.name]
        for _ in range(rel.arity - 1):
            entries = chain.from_iterable(entries)
        return entries

    def tuples(self, arity: int):
        return product(range(self.n), repeat=arity)

    def unit_valued(self) -> bool:
        """Whether every table value lies in [0, 1]."""
        return all(0 <= x <= self.L for r in self.sig.relations for x in self._entries(r))

    def __eq__(self, other):
        if not (isinstance(other, PresentedStructure) and self.sig == other.sig):
            return False
        L = lcm(self.L, other.L)
        return self.n == other.n and self.rows_over(L) == other.rows_over(L)

    def __hash__(self):
        return hash((self.sig, self.n))

    def __repr__(self):
        return f"PresentedStructure(n={self.n}, sig={[r.name for r in self.sig.relations]})"


def entry(nested, idx):
    """The entry of nested lists at the tuple idx: nested[i][j] at (i, j)."""
    for i in idx:
        nested = nested[i]
    return nested


def _shape(flat: list, arity: int, n: int) -> list:
    """flat, entries in lex order of their tuples, as lists nested arity deep."""
    for _ in range(arity - 1):
        flat = [flat[i:i + n] for i in range(0, len(flat), n or 1)]
    return flat


def _integers(sig: Signature, n: int, tables, read, value) -> tuple[int, dict]:
    """The one conversion from rational tables: their least lattice L and each
    table as nested integers over L.  read(rel, tables) lists rel's entries in
    lex order, or raises ValueError; value gives each distinct entry's rational."""
    extra = sorted(set(tables) - {rel.name for rel in sig.relations})
    if extra:
        raise ValueError(f"tables for relations not in the signature: {extra}")
    flat = {rel: read(rel, tables) for rel in sig.relations}
    distinct = {x: value(x) for entries in flat.values() for x in set(entries)}
    L = lcm(*{q.denominator for q in distinct.values()})
    over = dict(zip(distinct, scaled(distinct.values(), L)))
    return L, {r.name: _shape([*map(over.__getitem__, entries)], r.arity, n)
               for r, entries in flat.items()}


def from_tables(sig: Signature, n: int, tables: Tables, log=()) -> PresentedStructure:
    """A structure from rational tables, maps tuple -> value, as seeds and
    tests write them; a table not keyed by exactly 0..n-1's tuples raises."""

    def read(rel, tables):
        table, keys = tables.get(rel.name, {}), list(product(range(n), repeat=rel.arity))
        if table.keys() != set(keys):
            raise ValueError(f"table for {rel.name} is not total on {n} points")
        return [table[t] for t in keys]

    return PresentedStructure(sig, n, *_integers(sig, n, tables, read, Fraction), log)


def point_range(n: int) -> str:
    """The points 0..n-1 as an error message names them: a structure with
    none is said to have no points, not to span 0..-1."""
    return f"0..{n - 1}" if n else "a structure with no points"


# ------------------------------------------------------------ validation


def validate(m: PresentedStructure) -> ValidationReport:
    """Exhaustively check the pre-structure axioms; never raises."""
    violations = tuple(_violations(m))
    rows = m.rows["d"]
    is_metric = all(x > 0 for i, row in enumerate(rows) for j, x in enumerate(row) if i != j)
    return ValidationReport(not violations, violations, is_metric)


def tuples_naming(n: int, arity: int, first_new: int) -> list[tuple[int, ...]]:
    """Tuples of `arity` points of 0..n-1 naming a point >= first_new, in
    lex order, built directly rather than by filtering every tuple: all of
    them, the empty tuple at arity 0, when first_new <= 0."""
    if first_new <= 0:
        return list(product(range(n), repeat=arity))
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


def _violations(m: PresentedStructure):
    """Every axiom violation of m, in validate's order, found on its rows
    over L (``rows[i][j]`` is d(i, j) * L).  A Fraction is made only for
    a reported violation.

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
    n, L, frac = m.n, m.L, m._fraction
    for rel in m.sig.relations:
        for tup, x in zip(m.tuples(rel.arity), m._entries(rel)):
            if not 0 <= x <= L:
                yield Violation("range", (rel.name,) + tup, frac(x), ONE)
    rows = m.rows["d"]
    for i in range(n):
        if rows[i][i] != 0:
            yield Violation("reflexivity", (i,), frac(rows[i][i]), ZERO)
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                yield Violation("symmetry", (i, j), frac(rows[i][j]), frac(rows[j][i]))
    for i, ri in enumerate(rows):
        for j, rj in enumerate(rows):
            dij = ri[j]
            if max(map(sub, ri, rj)) > dij:
                for k in range(n):
                    if ri[k] - rj[k] > dij:
                        yield Violation("triangle", (i, j, k), frac(ri[k]), frac(dij + rj[k]))
    # The metric's own continuity is exactly symmetry + triangle (a
    # 1-Lipschitz-in-max bound would wrongly reject valid metric spaces),
    # so d is skipped here.  With one point or none there is no pair.
    rels = m.sig.relations[1:]
    if not rels or n < 2:
        return
    delta = min(x for i, row in enumerate(rows) for j, x in enumerate(row) if i != j)
    for rel in rels:
        a = list(m._entries(rel))
        p, q = rel.lipschitz.numerator, rel.lipschitz.denominator
        if (max(a) - min(a)) * q <= p * delta:
            continue
        every = list(m.tuples(rel.arity))
        for iu, u in enumerate(every):
            au = a[iu]
            for av, v in zip(a[iu + 1:], every[iu + 1:]):
                gap = max(rows[x][y] for x, y in zip(u, v))
                if abs(au - av) * q > p * gap:
                    yield Violation(
                        "lipschitz", (rel.name, u, v), frac(abs(au - av)),
                        rel.lipschitz * frac(gap),
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
    of the `grids`' denominators and the prefix's lattice, in square rows
    of the prefix's ``rows["d"]`` shape: ``rows[i][j]`` is d(i, j) * L.
    The prefix is assumed valid, so a new row is checked only where it
    can break an axiom: every entry in 0..L, then the Katetov row test, at
    O(n^2) cost; only a row that passes is added, as one new column and
    one new row.  ``freeze`` hands a copy of the rows to a structure.
    """

    __slots__ = ("sig", "L", "rows", "_base", "_log", "_notes")

    def __init__(self, prefix: PresentedStructure, *grids: Fraction):
        if len(prefix.sig.relations) != 1:
            raise ValueError("MetricBuilder grows metric-only structures")
        self.sig = prefix.sig
        self.L = lattice(grids, prefix.L)
        self.rows = [row[:] for row in prefix.rows_over(self.L)["d"]]
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
            rows = [r + [v] for r, v in zip(self.rows, row)] + [[*row, 0]]
            m = PresentedStructure(self.sig, len(rows), self.L, {"d": rows})
            raise ExtensionViolatesAxiomsError(validate(m))

    def freeze(self, provenance=True) -> PresentedStructure:
        """The structure built so far, on a copy of the rows reduced to
        their least lattice.  Each added point leaves the record {"point":
        index, "note": note}; provenance=False keeps only the prefix's."""
        log = self._log
        if provenance:
            log += tuple(
                {"point": self._base + k, "note": note} for k, note in enumerate(self._notes)
            )
        g = gcd(self.L, *set(chain.from_iterable(self.rows)))
        rows = [[x // g for x in r] for r in self.rows]
        return PresentedStructure(self.sig, len(rows), self.L // g, {"d": rows}, log)


# --------------------------------------------------------------- file I/O


def _unnest(nested, arity, n, prefix, out, parse):
    """Append the leaves under `prefix` to out, in lex order, each checked
    by parse, so an error names the first bad entry."""
    if not isinstance(nested, list) or len(nested) != n:
        raise ValueError(f"entries at {prefix} are not a list of {n}")
    if arity > 1:
        for i, sub in enumerate(nested):
            _unnest(sub, arity - 1, n, prefix + (i,), out, parse)
        return
    for i, leaf in enumerate(nested):
        try:
            parse(leaf)
        except ValueError as exc:
            raise ValueError(f"entry {prefix + (i,)}: {exc}") from None
    out += nested


def _unit_entry(v: Fraction) -> None:
    if not 0 <= v.numerator <= v.denominator:
        raise ValueError(f"{v} is outside [0, 1]")


def to_json(m: PresentedStructure, include_provenance=False) -> dict:
    # each distinct integer's literal is written once
    literal = cache(lambda x: str(m._fraction(x)))
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
        "tables": m._remap(literal),
    }
    if include_provenance:
        # records are JSON values; json writes their tuples as lists
        obj["provenance"] = list(m.provenance_log)
    return obj


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
    # each distinct literal is parsed, and range-checked, once per file
    parse = literal_parser(_unit_entry)

    def read(rel, tables):
        out = []
        try:
            _unnest(tables[rel.name], rel.arity, n, (), out, parse)
        except ValueError as exc:
            raise ValueError(f"table {rel.name}: {exc}") from None
        return out

    # every entry is in [0, 1]; the other axioms are left to the caller's validate
    return PresentedStructure(sig, n, *_integers(sig, n, obj["tables"], read, parse))


def json_text(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for a JSON value whose
    dict keys are strings; tuples are written as lists.  The standard
    library indents in pure Python, with closures that refer to each other,
    so each call there leaves cyclic garbage; this writer leaves none."""
    parts = []
    _json_parts(obj, "\n", parts)
    return "".join(parts)


def _json_parts(obj, newline, parts) -> None:
    if isinstance(obj, str):
        parts.append(encode_basestring_ascii(obj))
    elif isinstance(obj, (list, tuple)) and obj:
        inner = newline + "  "
        if all(isinstance(x, str) for x in obj):  # a row of literals, in one join
            parts.append("[" + inner + ("," + inner).join(map(encode_basestring_ascii, obj)))
        else:
            sep = "[" + inner
            for x in obj:
                parts.append(sep)
                _json_parts(x, inner, parts)
                sep = "," + inner
        parts.append(newline + "]")
    elif isinstance(obj, dict) and obj:
        inner = newline + "  "
        sep = "{" + inner
        for key, x in obj.items():
            parts.append(sep + encode_basestring_ascii(key) + ": ")
            _json_parts(x, inner, parts)
            sep = "," + inner
        parts.append(newline + "}")
    else:  # a number, true, false, null, [] or {}
        parts.append(json.dumps(obj))


def save(m: PresentedStructure, path, include_provenance=False) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(to_json(m, include_provenance)))


def load(path) -> PresentedStructure:
    with open(path, encoding="utf-8") as fh:
        return from_json(json.load(fh))

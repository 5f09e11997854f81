import gc
import json
from collections import Counter
from fractions import Fraction as F
from itertools import product
from math import ceil, floor, lcm

import pytest
from hypothesis import given, settings, strategies as st

from metrika import cli, rationals
from metrika.errors import ExtensionViolatesAxiomsError
from metrika.logic import Relation, Signature, graph_signature, metric_signature, parse_formula
from metrika.rationals import literal_parser, parse_rational
from metrika.synth import ec_close, graph_seed, graph_spec, is_prefix
from metrika.urysohn import DistanceConfiguration
from metrika.evaluation import evaluate
from metrika.structures import (
    MetricBuilder,
    PresentedStructure,
    ValidationReport,
    Violation,
    admissible,
    admissible_interval,
    entry,
    from_json,
    from_tables,
    json_text,
    load,
    save,
    to_json,
    tuples_naming,
    validate,
)

from references import (
    empty_structure,
    extend_with_distances,
    fraction_rows,
    from_distance_matrix,
    metric_quotient,
)


def _graph(n, edges):
    sig = graph_signature()
    d = {(i, j): (F(0) if i == j else F(1)) for i in range(n) for j in range(n)}
    r = {(i, j): F(1) for i in range(n) for j in range(n)}
    for a, b in edges:
        r[(a, b)] = r[(b, a)] = F(0)
    return from_tables(sig, n, {"d": d, "R": r})


class TestValidate:
    def test_uniform_half_is_metric(self):
        m = from_distance_matrix([[0, F(1, 2), F(1, 2)], [F(1, 2), 0, F(1, 2)], [F(1, 2), F(1, 2), 0]])
        report = validate(m)
        assert report.ok and report.is_metric

    def test_triangle_violation_witnessed(self):
        m = from_distance_matrix([[0, 1, F(1, 2)], [1, 0, F(1, 4)], [F(1, 2), F(1, 4), 0]])
        report = validate(m)
        assert not report.ok
        tri = [v for v in report.violations if v.axiom == "triangle"]
        assert tri
        assert tri[0].lhs == 1 and tri[0].rhs == F(3, 4)

    def test_graph_encoding_is_lipschitz(self):
        m = _graph(2, [(0, 1)])
        assert validate(m).ok

    def test_pseudometric_flagged_not_metric(self):
        m = from_distance_matrix([[0, 0], [0, 0]])
        report = validate(m)
        assert report.ok and not report.is_metric


class TestExtend:
    def test_one_point_plus_third(self):
        m = from_distance_matrix([[0]])
        m2 = extend_with_distances(m, [F(1, 3)])
        assert m2.n == 2 and m2.value("d", (0, 1)) == F(1, 3)
        assert validate(m2).ok

    def test_extension_violating_triangle(self):
        m = from_distance_matrix([[0, 1], [1, 0]])
        with pytest.raises(ExtensionViolatesAxiomsError) as exc:
            extend_with_distances(m, [F(0), F(0)])
        assert not exc.value.report.ok

    def test_all_ones_always_valid(self):
        m = from_distance_matrix([[0, F(5, 8)], [F(5, 8), 0]])
        m2 = extend_with_distances(m, [F(1), F(1)])
        assert validate(m2).ok

    def test_prefix_bit_identical(self):
        m = from_distance_matrix([[0, F(1, 2)], [F(1, 2), 0]])
        m2 = extend_with_distances(m, [F(1, 4), F(1, 2)])
        for tup, v in m.tables["d"].items():
            assert m2.tables["d"][tup] == v
        assert len(m2.provenance_log) == 1

    def test_missing_row_rejected(self):
        m = from_distance_matrix([[0]])
        with pytest.raises(ValueError):
            extend_with_distances(m, [])


class TestQuotient:
    def test_merge_zero_pair(self):
        m = from_distance_matrix([[0, 0], [0, 0]])
        q = metric_quotient(m)
        assert q.n == 1

    def test_metric_input_identity(self):
        m = from_distance_matrix([[0, F(1, 2)], [F(1, 2), 0]])
        q = metric_quotient(m)
        assert q.n == 2 and q.value("d", (0, 1)) == F(1, 2)

    def test_three_points_collapse(self):
        m = from_distance_matrix(
            [[0, 0, F(1, 2)], [0, 0, F(1, 2)], [F(1, 2), F(1, 2), 0]]
        )
        q = metric_quotient(m)
        assert q.n == 2 and q.value("d", (0, 1)) == F(1, 2)
        assert validate(q).is_metric

    def test_idempotent(self):
        m = from_distance_matrix(
            [[0, 0, F(1, 2)], [0, 0, F(1, 2)], [F(1, 2), F(1, 2), 0]]
        )
        q = metric_quotient(m)
        assert metric_quotient(q) == q

    def test_ill_defined_relation(self):
        sig = graph_signature()
        # zero-distance pair with different R values: Lipschitz already broken
        d = {(i, j): F(0) for i in range(2) for j in range(2)}
        r = {(0, 0): F(0), (0, 1): F(0), (1, 0): F(1), (1, 1): F(1)}
        m = from_tables(sig, 2, {"d": d, "R": r})
        with pytest.raises(ValueError, match=r"R\(1, 0\) = 1 but R\(0, 0\) = 0"):
            metric_quotient(m)

    def test_quotient_preserves_sentences(self):
        # pseudometric identification is elementary on finite prefixes
        sig = from_distance_matrix([[0]]).sig
        m = from_distance_matrix(
            [[0, 0, F(1, 2)], [0, 0, F(1, 2)], [F(1, 2), F(1, 2), 0]]
        )
        q = metric_quotient(m)
        for text in (
            "inf x. inf y. d(x,y)",
            "sup x. inf y. not(d(x,y))",
            "sup x. sup y. d(x,y)",
            "inf x. sup y. (d(x,y) -. 1/4)",
        ):
            f = parse_formula(text, sig)
            assert evaluate(f, m) == evaluate(f, q)


class TestJson:
    def test_round_trip(self):
        m = _graph(3, [(0, 1), (1, 2)])
        assert from_json(to_json(m)) == m

    def test_rationals_as_strings(self):
        m = from_distance_matrix([[0, F(1, 3)], [F(1, 3), 0]])
        obj = to_json(m)
        assert obj["tables"]["d"][0][1] == "1/3"

    def test_load_parses_each_distinct_literal_once(self, tmp_path, monkeypatch):
        # a graph-pipeline a.json: 39 vertices, 2 * 39**2 literals, 2 distinct
        m = ec_close(graph_seed(1), graph_spec(3), 3000, rng_seed=0)
        assert m.n == 39
        path = tmp_path / "a.json"
        save(m, path)
        parsed = Counter()

        def counting(text):
            parsed[text] += 1
            return parse_rational(text)

        monkeypatch.setattr(rationals, "parse_rational", counting)
        assert load(path) == m
        assert parsed == Counter({"0": 1, "1": 1})

    def test_repeated_out_of_range_literal_names_its_first_entry(self, tmp_path, capsys):
        m = _graph(3, [(0, 1)])
        obj = to_json(m)
        for i, j in ((1, 2), (2, 0), (0, 2)):
            obj["tables"]["R"][i][j] = "3/2"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert cli.main(["validate", "--structure", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.rstrip().endswith("table R: entry (0, 2): 3/2 is outside [0, 1]")

    @pytest.mark.parametrize("leaf, shown", [(0.5, "0.5"), (["1/2"], "['1/2']")])
    def test_non_string_leaf_is_never_remembered(self, leaf, shown):
        # after "1/2" has been read as a string; a memo keyed on the leaf
        # would fail to hash the list
        obj = to_json(from_distance_matrix([[0, F(1, 2)], [F(1, 2), 0]]))
        obj["tables"]["d"][1][0] = leaf
        with pytest.raises(ValueError) as exc:
            from_json(obj)
        assert str(exc.value) == (
            f"table d: entry (1, 0): not a rational literal: {shown} is not a string")

    def test_literal_parser_remembers_only_checked_values(self):
        checked = []

        def unit(v):
            checked.append(v)
            if v > 1:
                raise ValueError(f"{v} is outside [0, 1]")

        parse = literal_parser(unit)
        assert [parse(t) for t in ("1/2", "1/2", "2/4", "1/2")] == [F(1, 2)] * 4
        for _ in range(2):
            with pytest.raises(ValueError, match="3/2 is outside"):
                parse("3/2")
        assert checked == [F(1, 2), F(1, 2), F(3, 2), F(3, 2)]
        with pytest.raises(ValueError, match="is not a string"):
            parse(1)


def _spellings(q):
    """Literals of q that parse_rational reads: its own, p*k/q*k, and
    either padded with spaces."""
    k = 1 + q.numerator % 3
    return st.sampled_from([str(q), f"{q.numerator * k}/{q.denominator * k}",
                            f" {q} ", f"{q.numerator * k}/{q.denominator * k} "])


def _reference_tables(obj):
    """Each table of a structure file with every entry parsed on its own."""
    out = {}
    for rel in obj["signature"]["relations"]:
        table = {}
        for idx in product(range(obj["points"]), repeat=rel["arity"]):
            leaf = obj["tables"][rel["name"]]
            for i in idx:
                leaf = leaf[i]
            table[idx] = parse_rational(leaf)
        out[rel["name"]] = table
    return out


def _assert_holds_its_fractions(m, tables):
    """m, built from the rational tables, holds each value as an integer
    over their least lattice, and every edge gives the Fractions back."""
    values = [v for table in tables.values() for v in table.values()]
    assert m.L == lcm(*(v.denominator for v in values))
    for rel in m.sig.relations:
        for t, v in tables[rel.name].items():
            assert entry(m.rows[rel.name], t) == v * m.L
            assert entry(m.rows_over(3 * m.L)[rel.name], t) == 3 * v * m.L
            assert m.value(rel.name, t) == v
    assert m.tables == tables
    assert m.unit_valued() == all(0 <= v <= 1 for v in values)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_json_round_trip_matches_parsing_every_entry(data):
    """Mixed denominators, values off [0, 1] (which a file refuses), 0 to 6
    points and arities 1-3, through the integer form and back."""
    sig, n, tables = data.draw(_lipschitz_tables())
    m = from_tables(sig, n, tables)
    _assert_holds_its_fractions(m, tables)
    if not m.unit_valued():
        with pytest.raises(ValueError, match=r"is outside \[0, 1\]"):
            from_json(to_json(m))
        tables = {name: {t: min(abs(v), F(1)) for t, v in table.items()}
                  for name, table in tables.items()}
        m = from_tables(sig, n, tables)
        _assert_holds_its_fractions(m, tables)
    obj = to_json(m)

    def respell(nested):
        if isinstance(nested, str):
            return data.draw(_spellings(parse_rational(nested)))
        return [respell(sub) for sub in nested]

    obj["tables"] = {name: respell(t) for name, t in obj["tables"].items()}
    got = from_json(obj)
    _assert_holds_its_fractions(got, tables)
    assert got.tables == _reference_tables(obj) == m.tables
    assert got == m and to_json(got) == to_json(m)


def _literal(q):
    """The literal rule every written rational follows, the oracle that
    pins ``str``: "p" when the denominator is 1, else "p/q"."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


@given(st.fractions())
def test_str_writes_each_fraction_by_the_literal_rule(q):
    assert str(q) == _literal(q)
    assert parse_rational(str(q)) == q


# ------------------------------------------------------ admissibility kernel

QUARTERS = st.integers(0, 4).map(lambda k: F(k, 4))


@st.composite
def symmetric_matrices(draw, max_n=5):
    """Symmetric, zero-diagonal matrices on the 1/4 grid; often not metric."""
    n = draw(st.integers(1, max_n))
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(QUARTERS)
    return rows


def _metric_closure(rows):
    n = len(rows)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                rows[i][j] = min(rows[i][j], rows[i][k] + rows[k][j])
    return rows


def _all_triples_ok(rows):
    n = len(rows)
    return all(
        rows[i][k] <= rows[i][j] + rows[j][k]
        for i in range(n)
        for j in range(n)
        for k in range(n)
    )


@given(symmetric_matrices())
@settings(max_examples=300)
def test_configuration_accepts_exactly_the_metric_matrices(rows):
    try:
        DistanceConfiguration(tuple(tuple(F(v) for v in row) for row in rows))
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == _all_triples_ok(rows)


@given(symmetric_matrices(), st.lists(QUARTERS, min_size=5, max_size=5))
@settings(max_examples=300)
def test_extension_checks_agree_with_full_validation(rows, row):
    rows = _metric_closure(rows)
    n = len(rows)
    s = row[:n]
    m = from_distance_matrix(rows)
    out = from_distance_matrix(
        [rows[i] + [s[i]] for i in range(n)] + [s + [F(0)]]
    )
    expected = validate(out)
    assert admissible(rows, s) == expected.ok
    try:
        extend_with_distances(m, s)
    except ExtensionViolatesAxiomsError as exc:
        assert not expected.ok
        assert exc.report == expected
    else:
        assert expected.ok


@given(symmetric_matrices(), st.lists(QUARTERS, min_size=5, max_size=5))
@settings(max_examples=200)
def test_interval_is_the_set_of_admissible_next_values(rows, row):
    rows = _metric_closure(rows)
    s = []
    for i in range(len(rows)):
        lo, hi = admissible_interval(rows, s)
        for k in range(5):
            t = F(k, 4)
            assert (lo <= t <= hi) == admissible(rows, s + [t])
        s.append(min(max(row[i], lo), hi))


def _is_metric_by_triples(draw, n):
    def g(i, j):
        return draw[(i, j)] if i < j else draw[(j, i)]

    return all(
        g(i, j) <= g(i, k) + g(j, k)
        for i in range(n)
        for j in range(i + 1, n)
        for k in range(n)
        if k not in (i, j)
    )


@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, 4), min_size=n * (n - 1) // 2,
                 max_size=n * (n - 1) // 2),
    )
))
@settings(max_examples=300)
def test_integer_metric_check_agrees_with_triple_scan(case):
    # the rejection sampler's check: the rows of a joint draw, added in order
    n, values = case
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    draw = dict(zip(pairs, values))
    b = MetricBuilder(from_distance_matrix([[0]]), F(1, 4))
    accepted = all(b.try_add([draw[(i, k)] for i in range(k)]) for k in range(1, n))
    assert accepted == _is_metric_by_triples(draw, n)


# ------------------------------------------ integer builder vs validate


@st.composite
def _valid_prefixes(draw):
    """A metric prefix of 0..5 points on a grid of denominator 2, 3, 4 or
    6, grown by extend_with_distances so that it carries provenance."""
    q = draw(st.sampled_from([2, 3, 4, 6]))
    m = empty_structure(from_distance_matrix([[0]]).sig)
    for _ in range(draw(st.integers(0, 5))):
        s, rows = [], fraction_rows(m)
        for _ in range(m.n):
            lo, hi = admissible_interval(rows, s)
            s.append(F(draw(st.integers(ceil(lo * q), floor(hi * q))), q))
        m = extend_with_distances(m, s, note={"q": q})
    return m


@settings(max_examples=300, deadline=None)
@given(_valid_prefixes(), st.sampled_from([F(1, 2), F(1, 3), F(1, 4), F(2, 5)]),
       st.data())
def test_builder_agrees_with_validate(prefix, grid, data):
    """Each row the builder takes or refuses, against ``validate`` of the
    full matrix the row would give; after each, the builder's rows are
    those of the structure it freezes to, a refused row leaving them as
    they were."""
    b = MetricBuilder(prefix, grid)
    m = prefix
    for _ in range(data.draw(st.integers(1, 4))):
        assert b.rows == b.freeze().rows_over(b.L)["d"] == m.rows_over(b.L)["d"]
        L, n = b.L, b.n
        length = data.draw(st.sampled_from([n, n, n, n + 1] + ([n - 1] if n else [])))
        if data.draw(st.booleans()) and length == n:
            # an admissible row, often on the interval's edge
            row = []
            for _ in range(n):
                lo, hi = admissible_interval(b.rows, row, L)
                row.append(data.draw(st.sampled_from([lo, hi]) | st.integers(lo, hi)))
        else:
            row = data.draw(st.lists(st.integers(-1, L + 1), min_size=length,
                                     max_size=length))
        note = data.draw(st.sampled_from([None, "x", {"sampler": "t"}]))
        if length != n:
            with pytest.raises(ValueError):
                b.add(row, note)
            continue
        full = from_distance_matrix(
            [[m.value("d", (i, j)) for j in range(n)] + [F(row[i], L)] for i in range(n)]
            + [[F(v, L) for v in row] + [F(0)]]
        )
        expected = validate(full)
        if not expected.ok:
            with pytest.raises(ExtensionViolatesAxiomsError) as got:
                b.add(row, note)
            assert got.value.report == expected
            continue
        b.add(row, note)
        record = {"point": n, "note": note}
        m = from_tables(m.sig, n + 1, full.tables, m.provenance_log + (record,))
    assert b.rows == b.freeze().rows_over(b.L)["d"] == m.rows_over(b.L)["d"]
    frozen = b.freeze()
    assert frozen == m
    assert frozen.provenance_log == m.provenance_log
    assert frozen.unit_valued()


# ------------------------------------------ Lipschitz scan vs a rational reference

MIXED = [F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1)]


def _reference_validate(m):
    """validate with rational arithmetic throughout, in its order."""
    n, d = m.n, m.tables["d"]
    out = []
    for rel in m.sig.relations:
        for t in product(range(n), repeat=rel.arity):
            v = m.tables[rel.name][t]
            if not 0 <= v <= 1:
                out.append(Violation("range", (rel.name,) + t, v, F(1)))
    out += [
        Violation("reflexivity", (i,), d[(i, i)], F(0)) for i in range(n) if d[(i, i)] != 0
    ]
    out += [
        Violation("symmetry", (i, j), d[(i, j)], d[(j, i)])
        for i in range(n)
        for j in range(i + 1, n)
        if d[(i, j)] != d[(j, i)]
    ]
    out += [
        Violation("triangle", (i, j, k), d[(i, k)], d[(i, j)] + d[(j, k)])
        for i, j, k in product(range(n), repeat=3)
        if d[(i, k)] > d[(i, j)] + d[(j, k)]
    ]
    for rel in m.sig.relations[1:]:
        table = m.tables[rel.name]
        for u, v in product(product(range(n), repeat=rel.arity), repeat=2):
            if u < v:
                diff = abs(table[u] - table[v])
                bound = rel.lipschitz * max(d[(a, b)] for a, b in zip(u, v))
                if diff > bound:
                    out.append(Violation("lipschitz", (rel.name, u, v), diff, bound))
    is_metric = all(d[(i, j)] > 0 for i in range(n) for j in range(n) if i != j)
    return ValidationReport(not out, tuple(out), is_metric)


CONSTANTS = [F(1, 5), F(2, 3), F(1), F(3, 2)]
OFF_RANGE = [F(-1, 2), F(-1, 6), F(5, 4), F(3, 2)]
BITS = [F(0), F(1)]


@st.composite
def _lipschitz_tables(draw):
    """(sig, n, tables) with d and up to two relations of arity 1-3, each
    with Lipschitz constant 1/5, 2/3, 1 or 3/2, on 0-6 points.  Either a graph table (the discrete
    metric, relations valued in {0, 1}), on which validate skips a relation
    of constant 1 or 3/2 whole and scans one of 1/5 or 2/3 pair by pair, or
    d drawn from mixed denominators, often not a metric: asymmetric, with a
    nonzero diagonal or with values below 0 and above 1.  So the axioms,
    the relations' bounds among them, often fail."""
    n = draw(st.integers(0, 6))
    rels = tuple(
        Relation(name, draw(st.integers(1, 3)), draw(st.sampled_from(CONSTANTS)))
        for name in ("P", "Q")[: draw(st.integers(0, 2))]
    )
    sig = Signature((Relation("d", 2, F(1)),) + rels)
    if draw(st.booleans()):
        d = {(i, j): F(i != j) for i in range(n) for j in range(n)}
        values = st.sampled_from(BITS)
    else:
        values = st.sampled_from(MIXED + OFF_RANGE if draw(st.booleans()) else MIXED)
        asymmetric, diagonal = draw(st.booleans()), draw(st.booleans())
        d = {}
        for i, j in product(range(n), repeat=2):
            if i == j:
                d[(i, i)] = draw(values) if diagonal else F(0)
            elif i < j or asymmetric:
                d[(i, j)] = draw(values)
            else:
                d[(i, j)] = d[(j, i)]
    tables = {"d": d}
    for rel in rels:
        tables[rel.name] = {t: draw(values) for t in product(range(n), repeat=rel.arity)}
    return sig, n, tables


def _lipschitz_structures():
    return _lipschitz_tables().map(lambda args: from_tables(*args))


@settings(max_examples=400, deadline=None)
@given(_lipschitz_structures())
def test_lipschitz_scan_matches_rational_reference(m):
    expected = _reference_validate(m)
    assert validate(m) == expected


def test_graph_closure_with_planted_defects_matches_reference():
    # the graph-pipeline's validate, at its size, with defects planted:
    # d(3, 11) and d(11, 12) lowered to 1/4 (so d(3, 12) = 1 breaks the
    # triangle, and R may differ by more than 1/4 across either pair) and
    # R(3, 7) set to 1/2, where R(11, 7) is 0
    m = ec_close(graph_seed(1), graph_spec(3), 60, rng_seed=2)
    assert m.n == 18
    assert validate(m) == _reference_validate(m) == ValidationReport(True, (), True)
    d, r = dict(m.tables["d"]), dict(m.tables["R"])
    assert r[(3, 7)] == r[(11, 7)] == 0
    d[(3, 11)] = d[(11, 3)] = d[(11, 12)] = d[(12, 11)] = F(1, 4)
    r[(3, 7)] = F(1, 2)
    m = from_tables(m.sig, m.n, {"d": d, "R": r})
    expected = _reference_validate(m)
    assert {v.axiom for v in expected.violations} == {"triangle", "lipschitz"}
    assert Violation("lipschitz", ("R", (3, 7), (11, 7)), F(1, 2), F(1, 4)) in expected.violations
    assert validate(m) == expected


# ------------------------------------------ the integer form and its edges


class TestConstructor:
    def test_table_off_the_points_is_refused(self):
        # a table of the right size keyed off 0..n-1 would leave validate,
        # which never raises, to raise KeyError (0, 0)
        with pytest.raises(ValueError, match="table for d is not total on 1 points"):
            from_tables(metric_signature(), 1, {"d": {(5, 5): F(0)}})
        with pytest.raises(ValueError, match="not total"):
            from_tables(metric_signature(), 2, {"d": {(0, 0): F(0), (1, 1): F(0)}})

    def test_table_outside_the_signature_is_refused(self):
        # kept, it would make == false between structures equal on the
        # signature
        d = {(0, 0): F(0)}
        with pytest.raises(ValueError, match=r"relations not in the signature: \['R'\]"):
            from_tables(metric_signature(), 1, {"d": d, "R": d})
        obj = to_json(from_tables(metric_signature(), 1, {"d": d}))
        obj["tables"]["R"] = [["0"]]
        with pytest.raises(ValueError, match=r"relations not in the signature: \['R'\]"):
            from_json(obj)


def test_structures_equal_over_different_lattices_are_equal():
    # a builder over 1/16 whose distances all lie on 1/2
    b = MetricBuilder(from_distance_matrix([[0]]), F(1, 16))
    b.add([8])
    b.add([8, 16])
    frozen = b.freeze(provenance=False)
    want = from_distance_matrix(
        [[0, F(1, 2), F(1, 2)], [F(1, 2), 0, 1], [F(1, 2), 1, 0]])
    assert (b.L, frozen.L, want.L) == (16, 2, 2)
    assert frozen == want and frozen.rows == want.rows == {"d": [[0, 1, 1], [1, 0, 2], [1, 2, 0]]}
    # the builder keeps its own rows, and == reads integers over both lattices
    assert b.rows == [[0, 8, 8], [8, 0, 16], [8, 16, 0]]
    assert PresentedStructure(want.sig, 3, 16, {"d": b.rows}) == want
    assert from_json(to_json(frozen)) == want
    assert is_prefix(from_distance_matrix([[0, F(1, 2)], [F(1, 2), 0]]), frozen)
    assert not is_prefix(from_distance_matrix([[0, F(1, 4)], [F(1, 4), 0]]), frozen)


# ------------------------------------------------------------ tuples_naming


def test_tuples_naming_at_arity_0_is_the_empty_tuple_only_when_every_tuple_counts():
    for n in range(3):
        for first_new in (-1, 0):
            assert tuples_naming(n, 0, first_new) == [()]
        for first_new in range(1, n + 2):
            assert tuples_naming(n, 0, first_new) == []


@pytest.mark.parametrize("n", range(4))
def test_tuples_naming_is_the_filtered_product(n):
    for arity in range(4):
        for first_new in range(-1, n + 2):
            every = product(range(n), repeat=arity)
            assert tuples_naming(n, arity, first_new) == [
                t for t in every if first_new <= 0 or any(p >= first_new for p in t)
            ]


# ---------------------------------------------------------------- json_text

JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
    # escapes, and text outside ASCII and the basic plane
    st.sampled_from(["", "\"\\/\b\f\n\r\t", "\x00\x1f\x7f", "é", "\u2028", "\U0001f600"]),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(st.text(max_size=3), max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=30,
)


@given(JSON_VALUES)
def test_json_text_is_json_dumps_indented(obj):
    assert json_text(obj) == json.dumps(obj, indent=2)


def test_json_text_refuses_what_json_refuses():
    for obj in (F(1, 2), [1, {2, 3}], {"a": object()}):
        with pytest.raises(TypeError):
            json_text(obj)


def test_save_leaves_no_cyclic_garbage(tmp_path):
    # with the collector off, a cycle the call leaves behind is still there
    # for the second collect to find
    g = ec_close(graph_seed(1), graph_spec(3), 200, rng_seed=0)
    path = tmp_path / "g.json"
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        save(g, path, include_provenance=True)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert path.read_text(encoding="utf-8") == json.dumps(to_json(g, True), indent=2)

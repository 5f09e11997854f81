import operator
from dataclasses import fields, replace
from fractions import Fraction as F
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metrika.errors import NotPrenexUnsupportedError, UnboundVariableError
from metrika.evaluation import (
    ValueInterval,
    check_condition,
    denominator,
    evaluate,
    evaluate_prefix_bounds,
)
from metrika.logic import (
    AbsDiff,
    Atom,
    Condition,
    Const,
    DotMinus,
    Formula,
    Inf,
    Max,
    Min,
    Neg,
    ScaleQ,
    Sup,
    Relation,
    Signature,
    TruncPlus,
    metric_signature,
    parse_condition,
    parse_formula,
)
from metrika.sampling import MeasureSpec, invariance_audit, sample_space, trial_rng
from metrika.structures import admissible, from_tables

from references import (
    extend_with_distances,
    fraction_rows,
    fraction_value,
    from_distance_matrix,
    metric_quotient,
)

SIG = metric_signature()


TRIANGLE = "sup x. sup y. sup z. (d(x,z) -. (d(x,y) +. d(y,z)))"


class TestEvaluate:
    def test_triangle_sentence_zero(self, tri_space):
        f = parse_formula(TRIANGLE, SIG)
        assert evaluate(f, tri_space) == 0

    def test_inf_self_pair(self, tri_space):
        f = parse_formula("inf x. inf y. d(x,y)", SIG)
        assert evaluate(f, tri_space) == 0

    def test_sup_inf_neg(self, tri_space):
        # per x, inf_y (1 - d(x,y)) = 1 - max_y d(x,y): (1/2, 0, 0)
        f = parse_formula("sup x. inf y. not(d(x,y))", SIG)
        assert evaluate(f, tri_space) == F(1, 2)

    def test_unbound_variable(self, tri_space):
        f = parse_formula("d(x,y)", SIG)
        with pytest.raises(UnboundVariableError):
            evaluate(f, tri_space, {"x": 0})

    def test_assignment(self, tri_space):
        f = parse_formula("d(x,y)", SIG)
        assert evaluate(f, tri_space, {"x": 1, "y": 2}) == 1

    @pytest.mark.parametrize("point", [-1, 3])
    def test_assignment_outside_prefix_rejected(self, tri_space, point):
        f = parse_formula("d(x,y)", SIG)
        with pytest.raises(ValueError, match=rf"^y={point} is not a point of 0\.\.2$"):
            evaluate(f, tri_space, {"x": 0, "y": point})

    def test_assignment_into_no_points_says_so(self):
        f = parse_formula("d(x,x)", SIG)
        with pytest.raises(ValueError, match=r"^x=0 is not a point of a structure with no points$"):
            evaluate(f, from_distance_matrix([]), {"x": 0})

    def test_unbound_variable_raises_only_when_an_atom_is_reached(self):
        f = parse_formula("sup x. d(x,y)", SIG)
        # over no points the sup is 0 and its body is never valued
        assert evaluate(f, from_distance_matrix([])) == 0
        with pytest.raises(UnboundVariableError, match="unbound variable 'y'"):
            evaluate(f, from_distance_matrix([[0]]))


class TestPrefixBounds:
    def test_qf_degenerate(self, tri_space):
        f = parse_formula("d(x,y) -. 1/4", SIG)
        iv = evaluate_prefix_bounds(f, tri_space, {"x": 0, "y": 1})
        v = evaluate(f, tri_space, {"x": 0, "y": 1})
        assert iv.lo == iv.hi == v

    def test_inf_witnessed_at_zero(self, tri_space):
        f = parse_formula("inf x. d(x,y)", SIG)
        iv = evaluate_prefix_bounds(f, tri_space, {"y": 0})
        assert (iv.lo, iv.hi) == (0, 0)

    def test_sup_bounded_by_observation(self, tri_space):
        f = parse_formula("sup x. d(x,y)", SIG)
        iv = evaluate_prefix_bounds(f, tri_space, {"y": 0})
        assert (iv.lo, iv.hi) == (F(1, 2), 1)

    def test_vacuous_quantifiers_are_dropped(self, tri_space):
        # each is its body on every nonempty extension
        f = parse_formula("sup y. inf z. 1/2", SIG)
        iv = evaluate_prefix_bounds(f, tri_space)
        assert (iv.lo, iv.hi) == (F(1, 2), F(1, 2))
        c = parse_condition("sup y. inf z. 1/2 <= 1/2", SIG)
        assert check_condition(c, tri_space, mode="prefix").status == "holds"
        # the outer sup is vacuous, the inner inf is not: one inf block
        f = parse_formula("sup x. inf x. d(x,x)", SIG)
        iv = evaluate_prefix_bounds(f, tri_space)
        assert (iv.lo, iv.hi) == (0, 0)
        # over no points sup is 0 and inf 1: the empty prefix keeps them
        f = parse_formula("sup y. inf z. 1/2", SIG)
        iv = evaluate_prefix_bounds(f, from_distance_matrix([]))
        assert (iv.lo, iv.hi) == (0, 1)

    def test_not_prenex_rejected(self, tri_space):
        f = parse_formula("min(inf x. d(x,y), sup z. d(z,y))", SIG)
        with pytest.raises(NotPrenexUnsupportedError):
            evaluate_prefix_bounds(f, tri_space, {"y": 0})

    def test_soundness_on_grid_extensions(self, two_point_half):
        formulas = [
            parse_formula(t, SIG)
            for t in (
                "inf x. d(x,y)",
                "sup x. d(x,y)",
                "sup x. inf y. absdiff(d(x,y), 1/2)",
                "inf x. inf y. (1/2 -. d(x,y))",
                "sup x. not(d(x,p))",
            )
        ]
        base = two_point_half
        grid = [F(k, 4) for k in range(5)]
        extensions = []
        for s in product(grid, repeat=base.n):
            try:
                extensions.append(extend_with_distances(base, list(s)))
            except Exception:
                continue
        assert extensions
        for f in formulas:
            free = f.free_variables()
            asg = {v: 0 for v in free}
            iv = evaluate_prefix_bounds(f, base, asg)
            for ext in extensions:
                assert evaluate(f, ext, asg) in iv
                # intervals nest as the prefix grows
                iv_ext = evaluate_prefix_bounds(f, ext, asg)
                assert iv.lo <= iv_ext.lo and iv_ext.hi <= iv.hi


# ------------------------------------------- random prenex formulas

QUARTERS = [F(k, 4) for k in range(5)]
VARS = ("x", "y", "z")

_leaves = st.one_of(
    st.builds(lambda v, w: Atom("d", (v, w)), st.sampled_from(VARS), st.sampled_from(VARS)),
    st.sampled_from(QUARTERS).map(Const),
)


def _connectives(sub):
    return st.one_of(
        st.builds(Min, sub, sub),
        st.builds(Max, sub, sub),
        st.builds(Neg, sub),
        st.builds(DotMinus, sub, sub),
        st.builds(TruncPlus, sub, sub),
        st.builds(AbsDiff, sub, sub),
        st.builds(ScaleQ, st.sampled_from(QUARTERS), sub),
    )


_matrices = st.recursive(_leaves, _connectives, max_leaves=6)
_prefixes = st.lists(st.tuples(st.sampled_from((Inf, Sup)), st.sampled_from(VARS)), max_size=3)


def _quantify(prefix, body):
    for quantifier, var in reversed(prefix):
        body = quantifier(var, body)
    return body


def _grid_extensions(m):
    """Every one-point extension of m with distances on the 1/4 grid."""
    rows = fraction_rows(m)
    return [
        extend_with_distances(m, list(s))
        for s in product(QUARTERS, repeat=m.n)
        if admissible(rows, s)
    ]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(0, 2**16),
    _prefixes,
    _matrices,
    st.lists(st.integers(0, 2), min_size=3, max_size=3),
)
def test_prefix_bounds_on_random_prenex_formulas(n, seed, prefix, matrix, points):
    m = sample_space(n, MeasureSpec("sequential", grid=F(1, 4), seed=seed))
    asg = {v: p % n for v, p in zip(VARS, points)}
    # the quantifier-free matrix is valued exactly: a single point
    v = evaluate(matrix, m, asg)
    iv = evaluate_prefix_bounds(matrix, m, asg)
    assert (iv.lo, iv.hi) == (v, v)

    f = _quantify(prefix, matrix)
    iv = evaluate_prefix_bounds(f, m, asg)
    for ext in _grid_extensions(m):
        assert evaluate(f, ext, asg) in iv
        # intervals nest as the prefix grows
        iv_ext = evaluate_prefix_bounds(f, ext, asg)
        assert iv.lo <= iv_ext.lo and iv_ext.hi <= iv.hi


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**16), _prefixes, _matrices)
def test_condition_verdicts_on_random_prenex_sentences(n, seed, prefix, matrix):
    m = sample_space(n, MeasureSpec("sequential", grid=F(1, 4), seed=seed))
    # close the formula under sup so the condition is a sentence
    f = _quantify(prefix, matrix)
    f = _quantify([(Sup, v) for v in f.free_variables()], f)
    value = evaluate(f, m)
    ext_values = [evaluate(f, ext) for ext in _grid_extensions(m)]
    satisfies = {"<=": operator.le, "<": operator.lt, "=": operator.eq}
    for relation, sat in satisfies.items():
        for bound in QUARTERS:
            c = Condition(f, relation, bound)
            finite = check_condition(c, m, mode="finite")
            assert finite.status == ("holds" if sat(value, bound) else "fails")
            assert finite.interval is None
            prefix_check = check_condition(c, m, mode="prefix")
            if prefix_check.status == "holds":
                assert all(sat(v, bound) for v in ext_values)
            elif prefix_check.status == "fails":
                assert not any(sat(v, bound) for v in ext_values)


# ------------------------------------- early exit vs quantifiers that scan

MIXED = [F(0), F(1, 3), F(1, 2), F(2, 3), F(1)]

_quantified = st.recursive(
    _leaves,
    lambda sub: st.one_of(
        _connectives(sub),
        st.builds(Inf, st.sampled_from(VARS), sub),
        st.builds(Sup, st.sampled_from(VARS), sub),
    ),
    max_leaves=8,
)

# unit-valued d tables with mixed denominators, not necessarily metric
_unit_rows = st.integers(1, 3).flatmap(
    lambda n: st.lists(
        st.lists(st.sampled_from(MIXED), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


def _full_scan_eval(f, m, asg):
    """evaluate with every quantifier scanning every point."""
    if isinstance(f, (Inf, Sup)):
        values = [_full_scan_eval(f.body, m, {**asg, f.var: p}) for p in range(m.n)]
        if not values:
            return F(1) if isinstance(f, Inf) else F(0)
        return min(values) if isinstance(f, Inf) else max(values)
    if isinstance(f, (Const, Atom)):
        return evaluate(f, m, asg)
    # a connective: value its subformulas here, then apply it to constants
    children = {
        fd.name: Const(_full_scan_eval(getattr(f, fd.name), m, asg))
        for fd in fields(f)
        if isinstance(getattr(f, fd.name), Formula)
    }
    return evaluate(replace(f, **children), m, asg)


def _full_scan_bounds(f, m, asg):
    """evaluate_prefix_bounds of a prenex f with every quantifier scanning
    every point, as (lo, hi); on a nonempty m a vacuous quantifier is its
    body."""
    if isinstance(f, (Inf, Sup)) and m.n and f.var not in f.body.free_variables():
        return _full_scan_bounds(f.body, m, asg)
    if isinstance(f, (Inf, Sup)):
        below = [_full_scan_bounds(f.body, m, {**asg, f.var: p}) for p in range(m.n)]
        if isinstance(f, Inf):
            return F(0), min([F(1)] + [hi for _, hi in below])
        return max([F(0)] + [lo for lo, _ in below]), F(1)
    v = evaluate(f, m, asg)
    return v, v


@settings(max_examples=300)
@given(_unit_rows, _quantified, st.lists(st.integers(0, 2), min_size=3, max_size=3))
def test_early_exit_matches_full_scans(rows, f, points):
    m = from_distance_matrix(rows)
    asg = {v: p % m.n for v, p in zip(VARS, points)}
    assert evaluate(f, m, asg) == _full_scan_eval(f, m, asg)


@settings(max_examples=300)
@given(_unit_rows, _prefixes, _matrices, st.lists(st.integers(0, 2), min_size=3, max_size=3))
def test_bounds_early_exit_matches_full_scans(rows, prefix, matrix, points):
    m = from_distance_matrix(rows)
    asg = {v: p % m.n for v, p in zip(VARS, points)}
    f = _quantify(prefix, matrix)
    iv = evaluate_prefix_bounds(f, m, asg)
    assert (iv.lo, iv.hi) == _full_scan_bounds(f, m, asg)


# tables with entries outside [0, 1], including the empty structure
WILD = MIXED + [F(-1, 2), F(3, 2), F(2)]
_wild_rows = st.integers(0, 3).flatmap(
    lambda n: st.lists(
        st.lists(st.sampled_from(WILD), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


def _interval_or_error(bounds):
    try:
        iv = bounds()
    except (UnboundVariableError, ValueError) as exc:
        return type(exc), str(exc)
    return iv.lo, iv.hi


@settings(max_examples=300)
@given(_wild_rows, _prefixes, _matrices, st.lists(st.integers(-1, 2), min_size=3, max_size=3))
# one-block values off [0, 1] on the side the interval clamps
@example([[F(-1, 2)]], [(Sup, "x")], Atom("d", ("x", "x")), [0, 0, 0])
@example([[F(2)]], [(Inf, "x")], Atom("d", ("x", "x")), [0, 0, 0])
def test_bounds_match_full_scans_off_unit_tables(rows, prefix, matrix, points):
    # a point of -1 leaves its variable unassigned
    m = from_distance_matrix(rows)
    asg = {v: p % m.n for v, p in zip(VARS, points) if p >= 0 and m.n}
    f = _quantify(prefix, matrix)
    ours = _interval_or_error(lambda: evaluate_prefix_bounds(f, m, asg))
    reference = _interval_or_error(lambda: ValueInterval(*_full_scan_bounds(f, m, asg)))
    assert ours == reference


def test_early_exit_needs_unit_tables():
    # d(0,1) = -1/2 undercuts the 0 at which an inf over unit values stops
    m = from_distance_matrix([[0, F(-1, 2)], [F(-1, 2), 0]])
    f = parse_formula("inf y. d(x,y)", SIG)
    assert evaluate(f, m, {"x": 0}) == F(-1, 2)
    with pytest.raises(ValueError):
        evaluate_prefix_bounds(f, m, {"x": 0})


class TestCheckCondition:
    def test_reflexive_sup(self, tri_space):
        c = parse_condition("sup x. d(x,x) <= 0", SIG)
        assert check_condition(c, tri_space).status == "holds"

    def test_derived_two_point(self, two_point_half):
        c = parse_condition("inf x. inf y. (1/2 -. d(x,y)) = 0", SIG)
        assert check_condition(c, two_point_half, mode="finite").status == "holds"

    def test_prefix_unknown_straddle(self, two_point_half):
        c = parse_condition("sup x. d(x,x) < 3/4", SIG)
        # sup upper bound defaults to 1 in prefix mode: straddles 3/4
        res = check_condition(c, two_point_half, mode="prefix")
        assert res.status == "unknown"
        assert (res.interval.lo, res.interval.hi) == (0, 1)

    def test_prefix_holds_when_interval_clears(self, two_point_half):
        c = parse_condition("inf x. inf y. d(x,y) <= 1/4", SIG)
        res = check_condition(c, two_point_half, mode="prefix")
        assert res.status == "holds"

    def test_prefix_fails_when_floor_exceeds(self, two_point_half):
        c = parse_condition("sup x. sup y. d(x,y) < 1/4", SIG)
        res = check_condition(c, two_point_half, mode="prefix")
        assert res.status == "fails"

    @pytest.mark.parametrize("text, status", [
        # on d(0,1) = 1/2: inf-inf bounds [0, 0], sup-sup bounds [1/2, 1]
        ("inf x. inf y. d(x,y) = 0", "holds"),
        ("inf x. inf y. d(x,y) = 1/4", "fails"),
        ("sup x. sup y. d(x,y) = 1/4", "fails"),
        ("sup x. sup y. d(x,y) = 1/2", "unknown"),
        ("sup x. sup y. d(x,y) = 1", "unknown"),
        ("sup x. sup y. d(x,y) <= 3/4", "unknown"),
        ("sup x. sup y. d(x,y) <= 1/4", "fails"),
        ("inf x. inf y. d(x,y) <= 0", "holds"),
        ("sup x. sup y. d(x,y) < 1/2", "fails"),
    ])
    def test_prefix_verdicts(self, text, status, two_point_half):
        c = parse_condition(text, SIG)
        res = check_condition(c, two_point_half, mode="prefix")
        assert res.status == status
        assert res.interval is not None

    def test_closed_conditions_survive_quotient(self):
        m = from_distance_matrix(
            [[0, 0, F(1, 2)], [0, 0, F(1, 2)], [F(1, 2), F(1, 2), 0]]
        )
        q = metric_quotient(m)
        for text in (
            "sup x. sup y. d(x,y) <= 1/2",
            "inf x. inf y. (1/2 -. d(x,y)) <= 0",
        ):
            c = parse_condition(text, SIG)
            assert check_condition(c, m).status == "holds"
            assert check_condition(c, q).status == "holds"


def test_exactness_denominators(tri_space):
    # connective outputs stay rational with controlled denominators
    f = parse_formula("sup x. inf y. max(1/3 * (d(x,y)), absdiff(d(x,y), 1/5))", SIG)
    v = evaluate(f, tri_space)
    assert isinstance(v, F)
    assert 30 % v.denominator == 0


# ------------------------------------ the integer kernel against the oracle

ODD = [F(1, 3), F(2, 5), F(3, 7), F(5, 9)]
# d beside relations of arity 1 and 3
SIG13 = Signature((Relation("d", 2, F(1)), Relation("P", 1, F(1)), Relation("T", 3, F(1))))
# w is never assigned, so an atom naming it outside a quantifier is unbound
NAMES = VARS + ("w",)
_names = st.sampled_from(NAMES)


@st.composite
def _structures(draw):
    """A SIG13 structure of 0 to 3 points, not necessarily metric: its d
    rows from ``_wild_rows`` or ``_unit_rows``, P and T from the same
    range, with denominators 3, 5, 7 and 9 among the values."""
    wild = draw(st.booleans())
    rows = draw(_wild_rows if wild else _unit_rows)
    n = len(rows)
    values = st.sampled_from((WILD if wild else MIXED) + ODD)
    tables = {"d": from_distance_matrix(rows).tables["d"]}
    for rel in SIG13.relations[1:]:
        tables[rel.name] = {t: draw(values) for t in product(range(n), repeat=rel.arity)}
    return from_tables(SIG13, n, tables)


_atoms = st.one_of(
    st.builds(lambda v, w: Atom("d", (v, w)), _names, _names),
    st.builds(lambda v: Atom("P", (v,)), _names),
    st.builds(lambda u, v, w: Atom("T", (u, v, w)), _names, _names, _names),
    st.sampled_from(QUARTERS + ODD).map(Const),
)


def _vacuous(quantifier, var, body):
    """quantifier over var, or over u (which no atom names) when var is
    free in body: a quantifier whose variable the body never reads."""
    return quantifier(var if var not in body.free_variables() else "u", body)


_kernel_formulas = st.recursive(
    _atoms,
    lambda sub: st.one_of(
        _connectives(sub),
        st.builds(ScaleQ, st.sampled_from(ODD[:3]), sub),
        st.builds(Inf, _names, sub),
        st.builds(Sup, _names, sub),
        st.builds(_vacuous, st.sampled_from((Inf, Sup)), _names, sub),
    ),
    max_leaves=8,
)


def _value_or_error(value):
    try:
        return value()
    except UnboundVariableError as exc:
        return type(exc), str(exc)


NESTED_SCALES = ScaleQ(F(1, 3), ScaleQ(F(2, 5), ScaleQ(F(3, 7), Atom("d", ("x", "y")))))


def test_denominator_rule():
    # a scale by p/q multiplies its operand's D by q, so D exceeds L here
    assert denominator(NESTED_SCALES, 4) == 4 * 3 * 5 * 7
    f = parse_formula("sup x. max(2/5 * (d(x,y)), absdiff(d(x,y), 1/6))", SIG)
    assert denominator(f, 4) == 60
    assert denominator(Const(F(0)), 4) == 1


@settings(max_examples=400)
@given(_structures(), _kernel_formulas, st.lists(st.integers(-1, 2), min_size=3, max_size=3))
@example(
    from_tables(SIG13, 0, {"d": {}, "P": {}, "T": {}}),
    Sup("x", Atom("d", ("x", "w"))),
    [0, 0, 0],
)
@example(
    from_tables(
        SIG13,
        2,
        {
            "d": {(i, j): F(i != j, 2) for i in range(2) for j in range(2)},
            "P": {(0,): F(3, 2), (1,): F(1, 3)},
            "T": {t: F(sum(t), 7) for t in product(range(2), repeat=3)},
        },
    ),
    Inf("x", TruncPlus(NESTED_SCALES, Neg(Atom("T", ("x", "y", "x"))))),
    [1, 0, -1],
)
def test_kernel_matches_fraction_oracle(m, f, points):
    # a point of -1 leaves its variable unassigned
    asg = {v: p % m.n for v, p in zip(VARS, points) if p >= 0 and m.n}
    ours = _value_or_error(lambda: evaluate(f, m, asg))
    reference = _value_or_error(lambda: fraction_value(f, m, dict(asg)))
    assert ours == reference
    assert type(ours) is type(reference)


def test_nested_vacuous_quantifiers_value_the_body_once():
    # 3**200 body calls if each sup scanned its points
    m = from_distance_matrix([[0, F(1, 2), F(1, 3)], [F(1, 2), 0, F(1, 4)], [F(1, 3), F(1, 4), 0]])
    f = parse_formula("sup y. " * 200 + "d(x,x)", SIG)
    # only the innermost sup reads y: the outer 199 are vacuous
    g = parse_formula("sup y. " * 200 + "d(x,y)", SIG)
    for x in range(3):
        assert evaluate(f, m, {"x": x}) == evaluate(parse_formula("d(x,x)", SIG), m, {"x": x})
        assert evaluate(g, m, {"x": x}) == max(m.value("d", (x, y)) for y in range(3))
    # over no points the lattice units stand: inf is 1, sup is 0
    empty = from_distance_matrix([])
    assert evaluate(parse_formula("inf z. sup z. d(x,x)", SIG), empty) == 1
    assert evaluate(parse_formula("sup z. inf z. d(x,x)", SIG), empty) == 0


def _reference_audit(spec, n, trials, phi, eps):
    """The audit's frequencies from samples frozen to Fractions, each
    tuple valued by the oracle."""
    free = phi.free_variables()
    counts = dict.fromkeys(permutations(range(n), len(free)), 0)
    for t_idx in range(trials):
        m = sample_space(n, spec, trial_rng(spec.seed, "audit", n, t_idx))
        for t in counts:
            counts[t] += fraction_value(phi, m, dict(zip(free, t))) < eps
    return {t: c / trials for t, c in counts.items()}


@pytest.mark.parametrize("kind", ["sequential", "rejection"])
@pytest.mark.parametrize("text, eps", [
    ("d(x,y)", F(1, 2)),
    # D = 12 on the grid's L = 4
    ("1/3 * d(x,y)", F(1, 7)),
    ("sup z. min(d(x,z), d(y,z))", F(1, 2)),
])
def test_audit_matches_frozen_oracle(kind, text, eps):
    spec = MeasureSpec(kind, grid=F(1, 4), seed=11)
    phi = parse_formula(text, SIG)
    report = invariance_audit(spec, n=3, trials=60, phi=phi, eps=eps)
    reference = _reference_audit(spec, 3, 60, phi, eps)
    assert report.frequencies == reference
    # neither always nor never: the comparison is not vacuous
    assert 0 < sum(reference.values()) < len(reference)

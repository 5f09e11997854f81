import operator
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metrika.errors import NotPrenexUnsupportedError, UnboundVariableError
from metrika.evaluation import (
    check_condition,
    evaluate,
    evaluate_prefix_bounds,
)
from metrika.logic import (
    AbsDiff,
    Atom,
    Condition,
    Const,
    DotMinus,
    Inf,
    Max,
    Min,
    Neg,
    ScaleQ,
    Sup,
    TruncPlus,
    metric_signature,
    parse_condition,
    parse_formula,
)
from metrika.sampling import MeasureSpec, sample_space
from metrika.structures import admissible, extend_with_distances, from_distance_matrix

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
                assert iv.contains_interval(iv_ext)


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
    return [
        extend_with_distances(m, list(s))
        for s in product(QUARTERS, repeat=m.n)
        if admissible(m.d, s)
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
        assert iv.contains_interval(evaluate_prefix_bounds(f, ext, asg))


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
        from metrika.structures import metric_quotient

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

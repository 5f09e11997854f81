from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metrika.errors import (
    ArityMismatchError,
    ConstantOutOfRangeError,
    FormulaSyntaxError,
    FreeVariableInConditionError,
    UnknownRelationError,
)
from metrika.logic import (
    AbsDiff,
    Atom,
    Const,
    DotMinus,
    Inf,
    Max,
    Min,
    Neg,
    ScaleQ,
    Sup,
    TruncPlus,
    graph_signature,
    metric_signature,
    parse_condition,
    parse_formula,
    quantifier_class,
)

SIG = metric_signature()


class TestParser:
    def test_triangle_sentence(self):
        f = parse_formula(
            "sup x. sup y. sup z. (d(x,z) -. (d(x,y) +. d(y,z)))", SIG
        )
        assert isinstance(f, Sup)
        assert f.free_variables() == ()
        inner = f.body.body.body
        assert isinstance(inner, DotMinus)
        assert isinstance(inner.right, TruncPlus)

    def test_atom_free_vars(self):
        f = parse_formula("d(x,y)", SIG)
        assert f == Atom("d", ("x", "y"))
        assert f.free_variables() == ("x", "y")

    def test_dotminus_of_atoms(self):
        f = parse_formula("d(x,y) -. d(y,x)", SIG)
        assert f == DotMinus(Atom("d", ("x", "y")), Atom("d", ("y", "x")))

    def test_constant_out_of_range(self):
        with pytest.raises(ConstantOutOfRangeError):
            parse_formula("min(d(x,y), 3/2)", SIG)

    def test_unknown_relation(self):
        with pytest.raises(UnknownRelationError):
            parse_formula("R(x,y)", SIG)

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            parse_formula("d(x,y,z)", SIG)

    def test_syntax_error_carries_position(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula("min(d(x,y)", SIG)
        assert exc.value.position is not None

    def test_scale(self):
        f = parse_formula("1/2 * d(x,y)", SIG)
        assert f == ScaleQ(F(1, 2), Atom("d", ("x", "y")))

    def test_left_assoc_body(self):
        f = parse_formula("d(x,y) -. d(y,z) +. d(x,z)", SIG)
        assert isinstance(f, TruncPlus)
        assert isinstance(f.left, DotMinus)

    def test_connective_forms(self):
        sig = graph_signature()
        f = parse_formula("max(not(R(x,y)), absdiff(d(x,y), 1/4))", sig)
        assert f == Max(
            Neg(Atom("R", ("x", "y"))),
            AbsDiff(Atom("d", ("x", "y")), Const(F(1, 4))),
        )


# every node kind: both infix operators in body and in term position, a
# quantifier in body position and nested quantifiers
EVERY_NODE = (
    "sup x. inf y. (inf z. max(min(d(x,z), 1/2 * R(x,y)), not(absdiff(d(y,z), 1/3))))"
    " -. (R(y,x) +. d(y,y)) +. (d(x,y) -. 1/4)"
)


def test_pretty_spelling_is_pinned():
    f = parse_formula(EVERY_NODE, graph_signature())
    assert f.pretty() == str(f) == (
        "sup x. inf y. (((inf z. max(min(d(x, z), 1/2 * (R(x, y))), "
        "not(absdiff(d(y, z), 1/3)))) -. ((R(y, x) +. d(y, y)))) +. ((d(x, y) -. 1/4)))"
    )


@pytest.mark.parametrize("text, pinned", [
    ("sup x. d(x,x) <= 0", "sup x. d(x, x) <= 0"),
    ("inf x. inf y. (1/2 -. d(x,y)) < 1/2", "inf x. inf y. (1/2 -. d(x, y)) < 1/2"),
    ("sup x. sup y. absdiff(d(x,y), R(x,y)) = 1",
     "sup x. sup y. absdiff(d(x, y), R(x, y)) = 1"),
])
def test_condition_spelling_is_pinned(text, pinned):
    c = parse_condition(text, graph_signature())
    assert c.pretty() == str(c) == pinned


class TestConditions:
    def test_closed_inf(self):
        c = parse_condition("inf x. inf y. d(x,y) = 0", SIG)
        assert c.relation in ("<=", "=")
        assert c.bound == 0

    def test_free_variable_rejected(self):
        with pytest.raises(FreeVariableInConditionError):
            parse_condition("d(x,y) < 1/2", SIG)

    def test_closed_le(self):
        c = parse_condition("sup x. d(x,x) <= 0", SIG)
        assert c.relation in ("<=", "=")
        assert c.bound == 0

    def test_open(self):
        c = parse_condition("inf x. d(x,x) < 1/2", SIG)
        assert c.relation not in ("<=", "=")


class TestHierarchy:
    def test_qf(self):
        assert quantifier_class(parse_formula("d(x,y)", SIG)).kind == "QF"

    def test_sigma_one(self):
        h = quantifier_class(parse_formula("inf x. d(x,y)", SIG))
        assert (h.kind, h.level) == ("Sigma", 1)

    def test_pi_two(self):
        h = quantifier_class(parse_formula("sup x. inf y. (d(x,y) -. 1/2)", SIG))
        assert (h.kind, h.level) == ("Pi", 2)

    def test_not_prenex(self):
        f = parse_formula("min(inf x. d(x,y), sup z. d(z,y))", SIG)
        assert quantifier_class(f).kind == "NotPrenex"

    def test_block_merging(self):
        h = quantifier_class(parse_formula("inf x. inf y. d(x,y)", SIG))
        assert (h.kind, h.level) == ("Sigma", 1)

    def test_wrap_monotone(self):
        pi2 = parse_formula("sup x. inf y. d(x,y)", SIG)
        assert quantifier_class(Inf("w", pi2)) == quantifier_class(
            parse_formula("inf w. sup x. inf y. d(x,y)", SIG)
        )
        h = quantifier_class(Inf("w", pi2))
        assert (h.kind, h.level) == ("Sigma", 3)
        sig1 = parse_formula("inf x. d(x,y)", SIG)
        h2 = quantifier_class(Sup("w", sig1))
        assert (h2.kind, h2.level) == ("Pi", 2)


# ------------------------------------------------- generated round trips

_vars = st.sampled_from(["x", "y", "z", "w"])
_consts = st.builds(
    Const, st.integers(0, 8).map(lambda k: F(k, 8))
)
_atoms = st.builds(lambda a, b: Atom("d", (a, b)), _vars, _vars)


def _formulas(depth):
    if depth == 0:
        return st.one_of(_consts, _atoms)
    sub = _formulas(depth - 1)
    return st.one_of(
        _consts,
        _atoms,
        st.builds(Min, sub, sub),
        st.builds(Max, sub, sub),
        st.builds(Neg, sub),
        st.builds(DotMinus, sub, sub),
        st.builds(TruncPlus, sub, sub),
        st.builds(AbsDiff, sub, sub),
        st.builds(ScaleQ, st.integers(0, 4).map(lambda k: F(k, 4)), sub),
        st.builds(Inf, _vars, sub),
        st.builds(Sup, _vars, sub),
    )


@settings(max_examples=300, deadline=None)
@given(_formulas(3))
def test_pretty_parse_round_trip(f):
    assert parse_formula(f.pretty(), SIG) == f


@settings(max_examples=200, deadline=None)
@given(_formulas(3))
def test_pretty_idempotent(f):
    once = f.pretty()
    assert parse_formula(once, SIG).pretty() == once


# --------------------------------------------------- truncation algebra

_grid = st.integers(0, 12).map(lambda k: F(k, 12))


@given(_grid, _grid)
def test_truncation_algebra(a, b):
    dot = max(F(0), a - b)
    plus = min(F(1), dot + b)
    assert plus >= min(F(1), a)
    assert (dot == 0) == (a <= b)
    assert abs(a - b) == max(max(F(0), a - b), max(F(0), b - a))
    for value in (dot, plus, abs(a - b), F(1) - a, min(a, b), max(a, b)):
        assert F(0) <= value <= F(1)

"""Tests for the product-space encoding and its open sets."""

from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from metrika import (
    FreeVariableInConditionError,
    IndexOutOfPrefixError,
    check_condition,
    encode,
    evaluate,
    graph_seed,
    index_enumeration,
    metric_signature,
    parse_condition,
    parse_formula,
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
    Relation,
    ScaleQ,
    Signature,
    Sup,
    TruncPlus,
)
from metrika import polish

from references import extend_with_distances, from_distance_matrix


SIG = metric_signature()


def space(rows):
    return from_distance_matrix([[F(v) for v in row] for row in rows])


# ------------------------------------------------------------ enumeration


def test_index_enumeration_maxpoint_then_lex():
    entries = index_enumeration(SIG, 6)
    got = [(e.relation, e.tup) for e in entries]
    assert got == [
        ("d", (0, 0)),
        ("d", (0, 1)),
        ("d", (1, 0)),
        ("d", (1, 1)),
        ("d", (0, 2)),
        ("d", (1, 2)),
    ]


def test_index_enumeration_deterministic_prefix():
    long = index_enumeration(SIG, 40)
    short = index_enumeration(SIG, 7)
    assert long[:7] == short


def reference_tuples_with_max(k, mx):
    """The tuples over 0..mx whose max is mx, filtered from the full
    product (an empty tuple has max 0)."""
    for tup in product(range(mx + 1), repeat=k):
        if (max(tup) if tup else 0) == mx:
            yield tup


def test_index_enumeration_matches_product_filter_reference():
    sig = Signature((Relation("d", 2, F(1)), Relation("R", 2, F(1)),
                     Relation("T", 3, F(1, 2))))
    count = 200
    want, mx = [], 0
    while len(want) < count:
        for rel in sig.relations:
            want += [(rel.name, t) for t in reference_tuples_with_max(rel.arity, mx)]
        mx += 1
    got = [(e.relation, e.tup) for e in index_enumeration(sig, count)]
    assert got == want[:count]


# ----------------------------------------------------------------- encode


def test_encode_two_point_third():
    m = space([[0, "1/3"], ["1/3", 0]])
    code = encode(m, 4)
    assert code.values == (F(0), F(1, 3), F(1, 3), F(0))


def test_encode_empty():
    m = space([[0]])
    code = encode(m, 0)
    assert code.values == ()
    assert code.entries == ()


def test_negative_count_rejected():
    m = space([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="count must be >= 0"):
        index_enumeration(SIG, -3)
    with pytest.raises(ValueError, match="count must be >= 0"):
        encode(m, -3)


def test_encode_out_of_prefix():
    m = space([[0]])
    with pytest.raises(IndexOutOfPrefixError):
        encode(m, 2)  # coordinate 1 is d(0,1), naming the unseen point 1


@pytest.mark.parametrize("m", [space([[0, "1/3"], ["1/3", 0]]), graph_seed(2)])
def test_encode_enumerates_one_coordinate_past_the_prefix(m, monkeypatch):
    # a count far past the prefix enumerates only the coordinates inside
    # it and the first one outside, which the error names
    counts = []

    def spy(sig, count):
        counts.append(count)
        return index_enumeration(sig, count)

    monkeypatch.setattr(polish, "index_enumeration", spy)
    inside = sum(m.n**rel.arity for rel in m.sig.relations)
    first_out = next(
        e for e in index_enumeration(m.sig, 100) if any(p >= m.n for p in e.tup)
    )
    with pytest.raises(IndexOutOfPrefixError) as exc:
        encode(m, 10**5)
    assert str(exc.value) == (
        f"coordinate {first_out.relation}{first_out.tup} names a point outside prefix 0..1"
    )
    assert counts == [inside + 1]
    assert len(encode(m, inside).values) == inside
    assert counts[-1] == inside


def test_encode_prefix_stable_under_extension():
    m = space([[0, "1/2"], ["1/2", 0]])
    ext = extend_with_distances(m, [F(1, 2), F(3, 4)])
    assert encode(ext, 4) == encode(m, 4)


def test_encode_json_versioned():
    m = space([[0, "1/3"], ["1/3", 0]])
    obj = encode(m, 2).to_json()
    assert obj["index_order"] == "maxpoint-lex-1"
    assert obj["values"] == ["0", "1/3"]


# ------------------------------------------------------------ basic opens
#
# The basic open [phi(a) < eps], phi quantifier free, holds exactly when
# evaluate(phi, m, a) < eps.


def test_basic_open_membership_true():
    m = space([[0, "1/3"], ["1/3", 0]])
    assert evaluate(parse_formula("d(x,y)", SIG), m, {"x": 0, "y": 1}) < F(1, 2)


def test_basic_open_membership_strict():
    m = space([[0, "1/3"], ["1/3", 0]])
    assert not evaluate(parse_formula("d(x,y)", SIG), m, {"x": 0, "y": 1}) < F(1, 3)


def test_basic_open_value_one_never_member():
    m = space([[0, "1/3"], ["1/3", 0]])
    assert not evaluate(parse_formula("not(d(x,y))", SIG), m, {"x": 0, "y": 0}) < F(1)


def test_basic_open_points_out_of_prefix():
    m = space([[0, "1/3"], ["1/3", 0]])
    with pytest.raises(ValueError, match="not a point of 0..1"):
        evaluate(parse_formula("d(x,y)", SIG), m, {"x": 0, "y": 5})


def test_encode_of_no_points_says_so():
    with pytest.raises(IndexOutOfPrefixError) as exc:
        encode(from_distance_matrix([]), 3)
    assert str(exc.value) == "coordinate d(0, 0) names a point, but the structure has no points"


def test_basic_open_stable_under_extension():
    m = space([[0, "1/2", "3/4"], ["1/2", 0, "1/2"], ["3/4", "1/2", 0]])
    phi = parse_formula("d(x,y) -. 1/4", SIG)
    opens = [({"x": i, "y": j}, F(e, 8)) for i in range(3) for j in range(3)
             for e in (1, 3, 8)]
    before = [evaluate(phi, m, asg) < eps for asg, eps in opens]
    ext = extend_with_distances(m, [F(1, 2), F(1, 2), F(1, 2)])
    after = [evaluate(phi, ext, asg) < eps for asg, eps in opens]
    assert before == after


# ------------------------------------------------------------- Pi-2 opens
#
# The condition [sup xs inf ys phi < eps] is decided by check_condition.


def test_pi2_self_witness_consistent():
    m = space([[0, "1/2"], ["1/2", 0]])
    c = parse_condition("sup x. inf y. d(x,y) < 1/4", SIG)
    assert check_condition(c, m).status == "holds"


def test_pi2_refuted_in_finite_mode():
    m = space([[0, 1], [1, 0]])  # discrete 2-point space
    c = parse_condition("sup x. inf y. absdiff(d(x,y), 1/2) < 1/8", SIG)
    assert check_condition(c, m, mode="finite").status == "fails"
    # the first outer point already refutes it
    inner = parse_formula("inf y. absdiff(d(x,y), 1/2)", SIG)
    assert not evaluate(inner, m, {"x": 0}) < F(1, 8)


def test_pi2_prefix_mode_never_refutes():
    # under the alternation the prefix bounds the value only by [0, 1]
    m = space([[0, 1], [1, 0]])
    c = parse_condition("sup x. inf y. absdiff(d(x,y), 1/2) < 1/8", SIG)
    assert check_condition(c, m, mode="prefix").status == "unknown"


def test_pi2_free_variable_outside_both_blocks_rejected():
    # z is neither outer nor inner, so no prefix could decide the condition
    with pytest.raises(FreeVariableInConditionError, match="free variables: z"):
        parse_condition("sup x. inf y. d(x,z) < 1/4", SIG)


VARS = ("x", "y", "z")


def _matrices(n):
    # entries off [0, 1] too, so that the kernel's early stop is off
    entry = st.sampled_from([F(k, 4) for k in range(-2, 7)])
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)


_qf_formulas = st.recursive(
    st.one_of(
        st.builds(Atom, st.just("d"), st.tuples(st.sampled_from(VARS), st.sampled_from(VARS))),
        st.sampled_from([Const(F(0)), Const(F(1, 3)), Const(F(1))]),
    ),
    lambda sub: st.one_of(
        st.builds(Neg, sub),
        st.builds(ScaleQ, st.sampled_from([F(1, 2), F(2, 3)]), sub),
        *(st.builds(c, sub, sub) for c in (Min, Max, DotMinus, TruncPlus, AbsDiff)),
    ),
    max_leaves=6,
)


@settings(max_examples=150)
@given(
    rows=st.integers(0, 4).flatmap(_matrices),
    phi=_qf_formulas,
    split=st.integers(0, 3),
    eps=st.sampled_from([F(1, 8), F(1, 3), F(1, 2), F(1)]),
)
def test_pi2_matches_per_tuple_evaluate(rows, phi, split, eps):
    """check_condition on [sup outer inf inner phi < eps] holds in finite
    mode exactly when ``evaluate`` puts inf inner phi below eps at every
    outer tuple."""
    m = from_distance_matrix(rows)
    outer, inner = VARS[:split], VARS[split:]
    witness_inf = phi
    for v in reversed(inner):
        witness_inf = Inf(v, witness_inf)
    condition = witness_inf
    for v in reversed(outer):
        condition = Sup(v, condition)
    got = check_condition(Condition(condition, "<", eps), m, mode="finite")
    want = all(evaluate(witness_inf, m, dict(zip(outer, tup))) < eps
               for tup in product(range(m.n), repeat=len(outer)))
    assert got.status == ("holds" if want else "fails")

"""Tests for the product-space encoding and its open sets."""

from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, strategies as st

from metrika import (
    BasicOpen,
    BorelPi2,
    IndexOutOfPrefixError,
    LengthMismatchError,
    PointsOutOfPrefixError,
        basic_open_membership,
    encode,
    encoded_distance,
    extend_with_distances,
    from_distance_matrix,
    graph_seed,
    index_enumeration,
    metric_signature,
    parse_formula,
    pi2_depth_membership,
)
from metrika.logic import Relation, Signature
from metrika import polish
from metrika.polish import Code, fair_tuples


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


# ------------------------------------------------------- encoded distance


def test_distance_identity():
    m = space([[0, "1/2"], ["1/2", 0]])
    u = encode(m, 4)
    assert encoded_distance(u, u) == 0


def test_distance_first_coordinate():
    entries = index_enumeration(SIG, 1)
    u = Code(entries, (F(0),))
    v = Code(entries, (F(1),))
    assert encoded_distance(u, v) == F(1, 2)


def test_distance_two_coordinates():
    entries = index_enumeration(SIG, 2)
    u = Code(entries, (F(0), F(0)))
    v = Code(entries, (F(1, 2), F(1, 2)))
    assert encoded_distance(u, v) == F(3, 8)


def test_distance_length_mismatch():
    m = space([[0, "1/2"], ["1/2", 0]])
    with pytest.raises(LengthMismatchError):
        encoded_distance(encode(m, 2), encode(m, 3))


@given(
    st.lists(
        st.tuples(
            st.integers(0, 8).map(lambda k: F(k, 8)),
            st.integers(0, 8).map(lambda k: F(k, 8)),
            st.integers(0, 8).map(lambda k: F(k, 8)),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_distance_is_metric(cols):
    entries = index_enumeration(SIG, len(cols))
    u = Code(entries, tuple(c[0] for c in cols))
    v = Code(entries, tuple(c[1] for c in cols))
    w = Code(entries, tuple(c[2] for c in cols))
    duv = encoded_distance(u, v)
    assert duv == encoded_distance(v, u)
    assert (duv == 0) == (u.values == v.values)
    assert encoded_distance(u, w) <= duv + encoded_distance(v, w)


# ------------------------------------------------------------ basic opens


def test_basic_open_membership_true():
    m = space([[0, "1/3"], ["1/3", 0]])
    u = BasicOpen(parse_formula("d(x,y)", SIG), (0, 1), F(1, 2))
    assert basic_open_membership(m, u)


def test_basic_open_membership_strict():
    m = space([[0, "1/3"], ["1/3", 0]])
    u = BasicOpen(parse_formula("d(x,y)", SIG), (0, 1), F(1, 3))
    assert not basic_open_membership(m, u)


def test_basic_open_value_one_never_member():
    m = space([[0, "1/3"], ["1/3", 0]])
    u = BasicOpen(parse_formula("not(d(x,y))", SIG), (0, 0), F(1))
    assert not basic_open_membership(m, u)


def test_basic_open_requires_qf():
    with pytest.raises(ValueError):
        BasicOpen(parse_formula("inf x. d(x,y)", SIG), (0,), F(1, 2))


def test_basic_open_points_out_of_prefix():
    m = space([[0, "1/3"], ["1/3", 0]])
    u = BasicOpen(parse_formula("d(x,y)", SIG), (0, 5), F(1, 2))
    with pytest.raises(PointsOutOfPrefixError):
        basic_open_membership(m, u)


def test_basic_open_stable_under_extension():
    m = space([[0, "1/2", "3/4"], ["1/2", 0, "1/2"], ["3/4", "1/2", 0]])
    phi = parse_formula("d(x,y) -. 1/4", SIG)
    opens = [
        BasicOpen(phi, (i, j), F(e, 8))
        for i in range(3)
        for j in range(3)
        for e in (1, 3, 8)
    ]
    before = [basic_open_membership(m, u) for u in opens]
    ext = extend_with_distances(m, [F(1, 2), F(1, 2), F(1, 2)])
    after = [basic_open_membership(ext, u) for u in opens]
    assert before == after


# ------------------------------------------------------------- Pi-2 opens


def test_fair_tuples_order():
    got = list(fair_tuples(3, 2))
    assert got[:4] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(got) == 9
    assert len(set(got)) == 9


def reference_tuples_with_max(k, mx):
    """The tuples over 0..mx whose max is mx, filtered from the full
    product (an empty tuple has max 0)."""
    for tup in product(range(mx + 1), repeat=k):
        if (max(tup) if tup else 0) == mx:
            yield tup


def test_fair_tuples_match_product_filter_reference():
    for n in range(7):
        for k in range(4):
            want = [t for mx in range(n if k else 1)
                    for t in reference_tuples_with_max(k, mx)]
            assert list(fair_tuples(n, k)) == want, (n, k)


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


def test_pi2_self_witness_consistent():
    m = space([[0, "1/2"], ["1/2", 0]])
    b = BorelPi2(parse_formula("d(x,y)", SIG), ("x",), ("y",), F(1, 4))
    assert pi2_depth_membership(m, b, depth=10).status == "consistent"


def test_pi2_refuted_in_finite_mode():
    m = space([[0, 1], [1, 0]])  # discrete 2-point space
    phi = parse_formula("absdiff(d(x,y), 1/2)", SIG)
    b = BorelPi2(phi, ("x",), ("y",), F(1, 8))
    res = pi2_depth_membership(m, b, depth=2, mode="finite")
    assert res.status == "refuted"
    assert res.outer == (0,)


def test_pi2_prefix_mode_never_refutes():
    m = space([[0, 1], [1, 0]])
    phi = parse_formula("absdiff(d(x,y), 1/2)", SIG)
    b = BorelPi2(phi, ("x",), ("y",), F(1, 8))
    res = pi2_depth_membership(m, b, depth=2, mode="prefix")
    assert res.status == "unknown"


def test_pi2_depth_zero_vacuous():
    m = space([[0, 1], [1, 0]])
    phi = parse_formula("absdiff(d(x,y), 1/2)", SIG)
    b = BorelPi2(phi, ("x",), ("y",), F(1, 8))
    assert pi2_depth_membership(m, b, depth=0).status == "consistent"

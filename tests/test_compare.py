"""Tests for distortion and the approximate back-and-forth search."""

import gc
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from metrika import (
    MeasureSpec,
    back_and_forth,
    distortion,
    sample_space,
)
from metrika.compare import BackAndForthResult, PartialCorrespondence, _Budget
from metrika.sampling import trial_rng
from metrika.structures import from_tables
from metrika.logic import Relation, Signature, metric_signature

from references import from_distance_matrix

ZERO = F(0)
ONE = F(1)
HALF = F(1, 2)


def space(rows):
    return from_distance_matrix([[F(v) for v in row] for row in rows])


THREE = space([
    [0, HALF, ONE],
    [HALF, 0, HALF],
    [ONE, HALF, 0],
])


class TestDistortion:
    def test_identity_is_zero(self):
        pairs = [(i, i) for i in range(THREE.n)]
        assert distortion(pairs, THREE, THREE) == ZERO

    def test_swap_gives_exact_gap(self):
        # matching 0<->1 and 1<->0 against itself distorts by |d(0,2)-d(1,2)|
        pairs = [(0, 1), (1, 0), (2, 2)]
        assert distortion(pairs, THREE, THREE) == HALF

    def test_point_outside_either_structure_rejected(self):
        for pairs in ([(0, 0), (999, 999)], [(3, 0)], [(0, -1)]):
            with pytest.raises(ValueError, match=r"pair \(\d+, -?\d+\)"):
                distortion(pairs, THREE, THREE)

    def test_non_injective_rejected(self):
        with pytest.raises(ValueError):
            distortion([(0, 0), (1, 0)], THREE, THREE)
        with pytest.raises(ValueError):
            distortion([(0, 0), (0, 1)], THREE, THREE)

    def test_matches_brute_force_on_random_spaces(self):
        spec = MeasureSpec(kind="sequential", grid=F(1, 8), seed=0)
        for t in range(50):
            rng = trial_rng(0, "distortion", t)
            m = sample_space(4, spec, rng)
            n = sample_space(4, spec, rng)
            k = rng.randint(1, 4)
            left = rng.sample(range(4), k)
            right = rng.sample(range(4), k)
            pairs = list(zip(left, right))
            worst = max(
                abs(m.value("d", (left[i], left[j])) - n.value("d", (right[i], right[j])))
                for i in range(k)
                for j in range(k)
            )
            assert distortion(pairs, m, n) == worst


class TestBackAndForth:
    def test_identity_succeeds_with_zero_distortion(self):
        res = back_and_forth(THREE, THREE, eps=ZERO, depth=3)
        assert res.status == "success"
        assert res.correspondence.distortion == ZERO
        assert res.correspondence.pairs == ((0, 0), (1, 1), (2, 2))

    def test_distance_gap_forces_failure(self):
        m = space([[0, 1], [1, 0]])
        sig = metric_signature()
        d = {(i, j): ZERO for i in range(2) for j in range(2)}
        n = from_tables(sig, 2, {"d": d})  # pseudometric, d(0,1) = 0
        res = back_and_forth(m, n, eps=HALF, depth=2)
        assert res.status == "failure"
        assert res.correspondence is None
        assert len(res.stuck_pairs) >= 1

    def test_success_is_sound(self):
        spec = MeasureSpec(kind="sequential", grid=F(1, 8), seed=0)
        hits = 0
        for t in range(30):
            m = sample_space(4, spec, trial_rng(0, "bf", t, "m"))
            n = sample_space(4, spec, trial_rng(0, "bf", t, "n"))
            res = back_and_forth(m, n, eps=F(3, 8), depth=3)
            if res.status == "success":
                hits += 1
                assert distortion(res.correspondence.pairs, m, n) <= F(3, 8)
        assert hits > 0

    def test_depth_exceeding_size_fails(self):
        res = back_and_forth(THREE, THREE, eps=ONE, depth=5)
        assert res.status == "failure"

    def test_signature_mismatch_rejected(self):
        from metrika import graph_seed

        with pytest.raises(ValueError):
            back_and_forth(THREE, graph_seed(3), eps=ONE, depth=1)

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError):
            back_and_forth(THREE, THREE, eps=ONE, depth=0)

    def test_negative_eps_rejected(self):
        # no correspondence keeps a gap below 0, so a "failure" would be
        # a vacuous proof
        with pytest.raises(ValueError, match="eps"):
            back_and_forth(THREE, THREE, eps=-HALF, depth=2)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match="node_budget"):
            back_and_forth(THREE, THREE, eps=ONE, depth=1, node_budget=budget)

    def test_budget_exhaustion_reported(self):
        spec = MeasureSpec(kind="sequential", grid=F(1, 8), seed=3)
        m = sample_space(5, spec, trial_rng(1, "budget", "m"))
        n = sample_space(5, spec, trial_rng(1, "budget", "n"))
        res = back_and_forth(m, n, eps=ZERO, depth=5, node_budget=2)
        assert res.status in ("budget-exhausted", "failure", "success")
        full = back_and_forth(m, n, eps=ZERO, depth=5)
        if res.status == "budget-exhausted":
            assert res.nodes_explored > 2 - 1
            assert full.status in ("success", "failure")

    def test_symmetry_on_small_pairs(self):
        spec = MeasureSpec(kind="sequential", grid=F(1, 4), seed=0)
        for t in range(30):
            m = sample_space(4, spec, trial_rng(0, "sym", t, "m"))
            n = sample_space(5, spec, trial_rng(0, "sym", t, "n"))
            a = back_and_forth(m, n, eps=F(1, 4), depth=3)
            b = back_and_forth(n, m, eps=F(1, 4), depth=3)
            assert (a.status == "success") == (b.status == "success")

    def test_json_round_shapes(self):
        ok = back_and_forth(THREE, THREE, eps=ZERO, depth=2).to_json()
        assert ok["status"] == "success" and "pairs" in ok
        m = space([[0, 1], [1, 0]])
        sig = metric_signature()
        d = {(i, j): ZERO for i in range(2) for j in range(2)}
        n = from_tables(sig, 2, {"d": d})
        bad = back_and_forth(m, n, eps=HALF, depth=2).to_json()
        assert bad["status"] == "failure" and "stuck_pairs" in bad


class TestGraphExactness:
    def test_success_below_one_is_partial_isomorphism(self):
        # discrete-metric graphs: any eps < 1 forces exact R agreement
        from metrika import ec_close, graph_seed, graph_spec

        g1 = ec_close(graph_seed(1), graph_spec(3), budget=500_000, rng_seed=0)
        g2 = ec_close(graph_seed(1), graph_spec(3), budget=500_000, rng_seed=1)
        res = back_and_forth(g1, g2, eps=HALF, depth=4)
        assert res.status == "success"
        assert res.correspondence.distortion == ZERO


# ------------------------------------- integer search vs a rational reference

MIXED = [F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(5, 6), F(1)]
# on the 1/12 grid of the table values, and off it
EPSILONS = [F(0), F(1, 4), F(1, 3), F(1, 2), F(1, 5), F(2, 7), F(3, 10), F(1)]


def _reference_back_and_forth(m, n, eps, depth, node_budget):
    """back_and_forth as it reads with rational arithmetic throughout: every
    extension re-checks every index tuple naming the new pair, |A - B| > eps
    on Fractions."""
    if depth > min(m.n, n.n):
        return BackAndForthResult("failure", None, 0)
    nodes = 0
    best_stuck = []

    def extension_ok(pairs):
        new = len(pairs) - 1
        for rel in m.sig.relations:
            for idx in product(range(len(pairs)), repeat=rel.arity):
                if new in idx:
                    a = tuple(pairs[i][0] for i in idx)
                    b = tuple(pairs[i][1] for i in idx)
                    if abs(m.value(rel.name, a) - n.value(rel.name, b)) > eps:
                        return False
        return True

    def search(pairs):
        nonlocal nodes, best_stuck
        if len(pairs) == depth:
            return pairs
        side = len(pairs) % 2
        used = {p[side] for p in pairs}
        taken = {p[1 - side] for p in pairs}
        sizes = (m.n, n.n) if side == 0 else (n.n, m.n)
        for s in (i for i in range(sizes[0]) if i not in used):
            for c in (j for j in range(sizes[1]) if j not in taken):
                nodes += 1
                if nodes > node_budget:
                    raise _Budget()
                cand = (s, c) if side == 0 else (c, s)
                if extension_ok(pairs + [cand]):
                    found = search(pairs + [cand])
                    if found is not None:
                        return found
        if len(pairs) >= len(best_stuck):
            best_stuck = list(pairs)
        return None

    try:
        found = search([])
    except _Budget:
        return BackAndForthResult("budget-exhausted", None, nodes, tuple(best_stuck))
    if found is None:
        return BackAndForthResult("failure", None, nodes, tuple(best_stuck))
    pc = PartialCorrespondence(tuple(found), distortion(found, m, n))
    return BackAndForthResult("success", pc, nodes)


@st.composite
def _structure_pairs(draw):
    """Two structures of 1-7 points over d and a second relation P of arity
    1, 2 or 3, with table values of mixed denominators (not necessarily
    metric)."""
    arity = draw(st.integers(1, 3))
    sig = Signature((Relation("d", 2, ONE), Relation("P", arity, ONE)))

    def structure():
        size = draw(st.integers(1, 7))
        tables = {
            rel.name: {
                t: draw(st.sampled_from(MIXED))
                for t in product(range(size), repeat=rel.arity)
            }
            for rel in sig.relations
        }
        return from_tables(sig, size, tables)

    return structure(), structure()


@settings(max_examples=400)
@given(
    _structure_pairs(),
    st.sampled_from(EPSILONS),
    st.integers(1, 5),
    # small budgets stop inside a run of rejected candidates
    st.one_of(st.integers(1, 120), st.just(100_000)),
)
def test_integer_search_matches_rational_reference(pair, eps, depth, node_budget):
    m, n = pair
    got = back_and_forth(m, n, eps, depth, node_budget=node_budget)
    assert got == _reference_back_and_forth(m, n, eps, depth, node_budget)


def test_graph_closures_match_reference_at_workload_size():
    # the graph-pipeline's compare: 39 against 35 vertices, stopped by its
    # budget deep inside runs of rejected candidates
    from metrika import ec_close, graph_seed, graph_spec

    a = ec_close(graph_seed(1), graph_spec(3), 3000, rng_seed=0)
    b = ec_close(graph_seed(1), graph_spec(3), 3000, rng_seed=1)
    assert (a.n, b.n) == (39, 35)
    got = back_and_forth(a, b, HALF, 12, node_budget=10_000)
    assert got.status == "budget-exhausted"
    assert got.nodes_explored == 10_001
    assert got == _reference_back_and_forth(a, b, HALF, 12, 10_000)


# ------------------------------------------------------ no cyclic garbage

UNIFORM = space([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
SEARCHES = {
    "success": lambda: back_and_forth(THREE, THREE, eps=ZERO, depth=3),
    "failure": lambda: back_and_forth(THREE, UNIFORM, eps=ZERO, depth=3),
    "budget-exhausted": lambda: back_and_forth(THREE, UNIFORM, eps=ZERO, depth=3,
                                               node_budget=2),
}


@pytest.mark.parametrize("status", SEARCHES)
def test_search_leaves_no_cyclic_garbage(status):
    # with the collector off, a cycle the call leaves behind is still there
    # for the second collect to find
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = SEARCHES[status]()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert result.status == status

"""Tests for the existentially-closed chain builder."""

import random
from collections import deque
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from metrika import (
    SeedViolatesTheoryError,
    check_condition,
    ec_close,
    empty_metric_spec,
    encode,
    extension_property_report,
    graph_seed,
    graph_spec,
    is_prefix,
    metric_seed,
    metric_signature,
    parse_formula,
    validate,
)
from metrika.logic import AbsDiff, Atom, Const
from metrika.structures import PresentedStructure, admissible
from metrika.urysohn import all_configurations, delta_for, katetov_row

from references import (
    config_error,
    ec_witness_check,
    extend_with_distances,
    katetov_extension,
    max_of,
    restrict,
)

ZERO = F(0)
ONE = F(1)


def metric_configs(denominator=4):
    return all_configurations(2, denominator) + all_configurations(3, denominator)


# --------------------------------------------------------------- metric path


class TestEcCloseMetric:
    def test_report_fully_satisfied(self):
        spec = empty_metric_spec(grid=F(1, 8))
        out = ec_close(metric_seed(1), spec, budget=10_000, rng_seed=0)
        validate(out)
        rep = extension_property_report(out, F(1, 8), metric_configs())
        assert rep.satisfied == rep.total
        assert rep.total > 0

    def test_seed_is_bit_identical_prefix(self):
        seed = metric_seed(2)
        out = ec_close(seed, empty_metric_spec(), budget=10_000, rng_seed=1)
        assert is_prefix(seed, out)
        k = seed.n * seed.n
        assert encode(seed, k).values == encode(out, k).values

    def test_universal_conditions_preserved(self):
        spec = empty_metric_spec()
        out = ec_close(metric_seed(1), spec, budget=10_000, rng_seed=2)
        for cond in spec.universal_conditions:
            assert check_condition(cond, out, mode="finite")

    def test_budget_zero_returns_seed(self):
        seed = metric_seed(3)
        assert ec_close(seed, empty_metric_spec(), budget=0) is seed

    def test_deterministic(self):
        spec = empty_metric_spec()
        a = ec_close(metric_seed(1), spec, budget=10_000, rng_seed=7)
        b = ec_close(metric_seed(1), spec, budget=10_000, rng_seed=7)
        assert a.n == b.n and a.tables == b.tables

    def test_rng_seed_changes_output(self):
        spec = empty_metric_spec()
        a = ec_close(metric_seed(1), spec, budget=10_000, rng_seed=0)
        b = ec_close(metric_seed(1), spec, budget=10_000, rng_seed=1)
        assert a.tables != b.tables

    def test_idempotent_at_saturation(self):
        spec = empty_metric_spec()
        out = ec_close(metric_seed(1), spec, budget=10_000, rng_seed=0)
        again = ec_close(out, spec, budget=10_000, rng_seed=0)
        assert again.n == out.n

    def test_seed_violating_triangle_rejected(self):
        sig = metric_signature()
        d = {
            (0, 0): ZERO, (1, 1): ZERO, (2, 2): ZERO,
            (0, 1): F(1, 8), (1, 0): F(1, 8),
            (1, 2): F(1, 8), (2, 1): F(1, 8),
            (0, 2): ONE, (2, 0): ONE,
        }
        bad = PresentedStructure(sig, 3, {"d": d})
        with pytest.raises(SeedViolatesTheoryError):
            ec_close(bad, empty_metric_spec(), budget=10)

    def test_nontrivial_seed_saturates(self):
        sig = metric_signature()
        d = {
            (0, 0): ZERO, (1, 1): ZERO,
            (0, 1): F(1, 2), (1, 0): F(1, 2),
        }
        seed = PresentedStructure(sig, 2, {"d": d})
        out = ec_close(seed, empty_metric_spec(), budget=50_000, rng_seed=0)
        validate(out)
        assert is_prefix(seed, out)
        rep = extension_property_report(out, F(1, 8), metric_configs())
        assert rep.satisfied == rep.total


# ------------------------------------------- metric closure, Fraction reference


@pytest.mark.parametrize(
    "params",
    [
        {"grid": F(0)},
        {"grid": F(-1, 8)},
        {"config_grid": F(3, 2)},
        {"config_grid": F(2, 5)},
        {"config_grid": F(0)},
        {"eps": F(0)},
        {"eps": F(9, 8)},
        {"config_sizes": (2, 0)},
    ],
    ids=[
        "grid-0",
        "grid-negative",
        "config-grid-3/2",
        "config-grid-2/5",
        "config-grid-0",
        "eps-0",
        "eps-9/8",
        "config-size-0",
    ],
)
def test_empty_metric_spec_rejects_bad_parameters(params):
    # checked when the spec is built, so even a budget-0 closure never runs
    with pytest.raises(ValueError, match="must be"):
        empty_metric_spec(**params)


@pytest.mark.parametrize("max_size", [0, -2])
def test_graph_spec_rejects_max_size_below_one(max_size):
    with pytest.raises(ValueError, match="max_size must be >= 1"):
        graph_spec(max_size)


def test_spec_factories_accept_their_bounds():
    one = F(1)
    spec = empty_metric_spec(config_sizes=(1,), config_grid=one, eps=one, grid=one)
    assert ec_close(metric_seed(1), spec, 5).n >= 1
    assert ec_close(graph_seed(1), graph_spec(1), 5).n >= 1


def reference_obligations(m, configs, eps, first_new=0):
    """Extension obligations scored in Fractions: every restriction's
    tuples filtered from the full product by config_error."""
    delta = delta_for(eps)
    anchors = {}
    for t_idx, theta in enumerate(configs):
        k = theta.n - 1
        key = (k, tuple(row[:k] for row in theta.r[:k]))
        if key not in anchors:
            base = restrict(theta)
            anchors[key] = [
                pts
                for pts in product(range(m.n), repeat=k)
                if (not first_new or any(p >= first_new for p in pts))
                and config_error(base, m, pts) <= delta
            ]
        for pts in anchors[key]:
            yield t_idx, pts


def reference_off_task_grid(value, config_grid, delta):
    lo = (value / config_grid).__floor__() * config_grid
    return abs(value - lo) > delta and abs(value - lo - config_grid) > delta


def reference_witness(m, theta, pts, eps, delta, config_grid, grid, rng):
    """The steered witness on a Fraction structure."""
    k = theta.n - 1
    if m.n == 0:
        return ()
    targets = [theta.r[a][k] for a in range(k)]
    cap = ONE - grid

    def anchor_candidates(t):
        cands = [
            c
            for c in (t - grid, t + grid, t)
            if ZERO < c <= cap
            and abs(c - t) <= eps
            and reference_off_task_grid(c, config_grid, delta)
        ]
        rng.shuffle(cands)
        return cands

    def anchor_d(a, b):
        return m.d(pts[a], pts[b])

    for combo in product(*(anchor_candidates(t) for t in targets)):
        if not admissible(anchor_d, combo):
            continue
        s = []
        for x in range(m.n):
            v = min([cap] + [combo[a] + m.d(x, pts[a]) for a in range(k)])
            while v > ZERO and not reference_off_task_grid(v, config_grid, delta):
                v -= grid
            s.append(v)
        for a in range(k):
            s[pts[a]] = combo[a]
        if any(not ZERO < v <= ONE for v in s):
            continue
        if any(abs(s[pts[a]] - targets[a]) > eps for a in range(k)):
            continue
        if admissible(m.d, s):
            return tuple(s)
    return tuple(katetov_row(m.n, m.d, pts, targets, 3 * delta / 2, ONE))


def reference_ec_close_metric(seed, config_sizes, config_grid, eps, grid, budget, rng_seed):
    """The metric closure grown by extend_with_distances, in Fractions."""
    delta = delta_for(eps)
    rng = random.Random(f"metrika-ec-metric:{rng_seed}")
    configs = []
    for size in config_sizes:
        configs.extend(all_configurations(size, config_grid.denominator))
    m = seed
    queue = deque(reference_obligations(m, configs, eps))
    dequeued = 0
    while queue and dequeued < budget:
        t_idx, pts = queue.popleft()
        dequeued += 1
        theta = configs[t_idx]
        if any(config_error(theta, m, (*pts, y)) <= eps for y in range(m.n)):
            continue
        h = reference_witness(m, theta, pts, eps, delta, config_grid, grid, rng)
        old_n = m.n
        m = extend_with_distances(m, h, note={"task": t_idx, "tuple": pts})
        queue.extend(reference_obligations(m, configs, eps, first_new=old_n))
    return m


@pytest.mark.parametrize("config_grid", [F(1, 3), F(1, 4), F(1, 8)])
@pytest.mark.parametrize("grid", [F(1, 16), F(2, 5), F(1, 6)])
@pytest.mark.parametrize("eps", [F(1, 5), F(1, 8), F(1, 16)])
def test_integer_closure_matches_fraction_reference(config_grid, grid, eps):
    spec = empty_metric_spec(config_grid=config_grid, eps=eps, grid=grid)
    seed = PresentedStructure(
        metric_signature(), 2, {"d": {(0, 0): ZERO, (1, 1): ZERO,
                                      (0, 1): F(1, 2), (1, 0): F(1, 2)}},
        ({"seed": "two points"},),
    )
    for rng_seed, start in ((0, metric_seed(1)), (1, metric_seed(1)), (2, seed)):
        got = ec_close(start, spec, 40, rng_seed)
        want = reference_ec_close_metric(start, (2, 3), config_grid, eps, grid, 40, rng_seed)
        assert got.n == want.n
        assert got.tables == want.tables
        assert got.provenance_log == want.provenance_log


# ---------------------------------------------------------------- graph path


def graph_axiom_holds(g, a, b):
    r = g.tables["R"]
    members = set(a) | set(b)
    for z in range(g.n):
        if z in members:
            continue
        if all(r[(z, x)] == 0 for x in a) and all(r[(z, y)] == 1 for y in b):
            return True
    return False


@pytest.fixture(scope="module")
def closed():
    return ec_close(graph_seed(1), graph_spec(max_size=3), budget=2_000_000,
                    rng_seed=0)


class TestEcCloseGraph:

    def test_all_extension_axioms_hold(self, closed):
        for size in range(1, 4):
            for sub in combinations(range(closed.n), size):
                for split in range(1 << size):
                    a = tuple(v for k, v in enumerate(sub) if split >> k & 1)
                    b = tuple(v for k, v in enumerate(sub) if not split >> k & 1)
                    assert graph_axiom_holds(closed, a, b), (a, b)

    def test_prefix_and_tables_wellformed(self, closed):
        assert is_prefix(graph_seed(1), closed)
        r = closed.tables["R"]
        for i in range(closed.n):
            assert r[(i, i)] == ONE
            for j in range(closed.n):
                assert r[(i, j)] in (ZERO, ONE)
                assert r[(i, j)] == r[(j, i)]

    def test_conditions_preserved(self, closed):
        for cond in graph_spec().universal_conditions:
            assert check_condition(cond, closed, mode="finite")

    def test_deterministic(self, closed):
        again = ec_close(graph_seed(1), graph_spec(max_size=3), budget=2_000_000,
                         rng_seed=0)
        assert again.n == closed.n and again.tables == closed.tables

    def test_budget_zero_returns_seed(self):
        seed = graph_seed(2)
        assert ec_close(seed, graph_spec(), budget=0) is seed

    def test_self_loop_seed_rejected(self):
        seed = graph_seed(1)
        tables = {k: dict(v) for k, v in seed.tables.items()}
        tables["R"][(0, 0)] = ZERO
        bad = PresentedStructure(seed.sig, 1, tables)
        with pytest.raises(SeedViolatesTheoryError):
            ec_close(bad, graph_spec(), budget=10)


def reference_ec_close_graph(seed, max_size, budget, rng_seed):
    """The graph closure grown on neighbour sets: pass after pass over
    every (A, B) split of every subset of the vertices present when the
    subset size is reached, with the same rng.getrandbits(n) draw for each
    added vertex, until a pass adds none or `budget` checks are spent."""
    rng = random.Random(rng_seed)
    r = seed.tables["R"]
    nbrs = [{j for j in range(seed.n) if j != i and r[(i, j)] == 0} for i in range(seed.n)]
    log = list(seed.provenance_log)

    def grown():
        n = len(nbrs)
        d = {(i, j): ZERO if i == j else ONE for i in range(n) for j in range(n)}
        rr = {(i, j): ZERO if j in nbrs[i] else ONE for i in range(n) for j in range(n)}
        return PresentedStructure(seed.sig, n, {"d": d, "R": rr}, log)

    checks, changed = 0, True
    while changed:
        changed = False
        for size in range(1, max_size + 1):
            for subset in combinations(range(len(nbrs)), size):
                for split in range(1 << size):
                    if checks == budget:
                        return grown()
                    checks += 1
                    a = {v for pos, v in enumerate(subset) if split >> pos & 1}
                    b = set(subset) - a
                    if any(a <= nbrs[z] and not b & nbrs[z]
                           for z in range(len(nbrs)) if z not in subset):
                        continue
                    n = len(nbrs)
                    bits = rng.getrandbits(n)
                    new = a | {w for w in range(n) if bits >> w & 1 and w not in subset}
                    for w in new:
                        nbrs[w].add(n)
                    nbrs.append(new)
                    log.append({"vertex": n, "A": tuple(sorted(a)), "B": tuple(sorted(b))})
                    changed = True
    return grown()


def test_seed_of_another_signature_rejected():
    with pytest.raises(SeedViolatesTheoryError):
        ec_close(metric_seed(2), graph_spec(), 10)
    with pytest.raises(SeedViolatesTheoryError):
        ec_close(graph_seed(2), empty_metric_spec(), 10)


@pytest.mark.parametrize("max_size", [1, 2, 3])
@pytest.mark.parametrize("rng_seed", [0, 1, 2])
def test_graph_closure_matches_set_reference(max_size, rng_seed):
    # every budget cut, from the seed itself to a few passes deep, then
    # several full passes (3000 is the graph-pipeline budget)
    one_edge = graph_seed(3)
    tables = {k: dict(v) for k, v in one_edge.tables.items()}
    tables["R"][(0, 1)] = tables["R"][(1, 0)] = ZERO
    one_edge = PresentedStructure(one_edge.sig, 3, tables)
    for seed in (graph_seed(1), one_edge):
        for budget in [*range(301), 1000, 3000]:
            got = ec_close(seed, graph_spec(max_size), budget, rng_seed=rng_seed)
            want = reference_ec_close_graph(seed, max_size, budget, rng_seed)
            assert got.n == want.n
            assert got.tables == want.tables
            assert got.provenance_log == want.provenance_log


# ------------------------------------------------------------ witness checks


class TestEcWitnessCheck:
    def test_identity_passes_gap_zero(self):
        m = graph_seed(2)
        phi = parse_formula("R(x,b)", m.sig)
        res = ec_witness_check(m, m, phi, (0,), tol=ZERO)
        assert res.passes and res.gap == ZERO

    def test_adding_neighbor_drops_inf_by_one(self):
        m = graph_seed(1)
        sig = m.sig
        d = {(0, 0): ZERO, (1, 1): ZERO, (0, 1): ONE, (1, 0): ONE}
        r = {(0, 0): ONE, (1, 1): ONE, (0, 1): ZERO, (1, 0): ZERO}
        n_ext = PresentedStructure(sig, 2, {"d": d, "R": r})
        phi = parse_formula("R(x,b)", sig)
        res = ec_witness_check(m, n_ext, phi, (0,), tol=ZERO)
        assert not res.passes
        assert res.gap == ONE

    def test_not_a_prefix_raises(self):
        m = graph_seed(2)
        other = graph_seed(1)
        phi = parse_formula("R(x,b)", m.sig)
        with pytest.raises(ValueError, match="not a prefix"):
            ec_witness_check(m, other, phi, (0,), tol=ZERO)

    def test_saturated_metric_output_passes_config_corpus(self):
        eps = F(1, 8)
        m = ec_close(metric_seed(1), empty_metric_spec(eps=eps), budget=10_000, rng_seed=0)
        # the Katetov point for d(0, new) = 1/2, with slack 3 delta / 2 at
        # delta = 1/12, as the challenger
        n_ext = katetov_extension(m, [F(1, 2)], (0,), F(1, 8))
        for theta in metric_configs():
            k = theta.n - 1
            pts = tuple(range(k))
            phi = max_of([
                AbsDiff(Atom("d", ("z", f"p{a}")), Const(theta.r[a][k]))
                for a in range(k)
            ])
            res = ec_witness_check(m, n_ext, phi, pts, tol=eps)
            assert res.passes, (theta.r, res.gap)


# -------------------------------------------------------------------- prefix


class TestIsPrefix:
    def test_reflexive(self):
        m = metric_seed(2)
        assert is_prefix(m, m)

    def test_signature_mismatch(self):
        assert not is_prefix(metric_seed(1), graph_seed(2))

    def test_larger_not_prefix_of_smaller(self):
        assert not is_prefix(metric_seed(3), metric_seed(2))

    def test_changed_entry_not_prefix(self):
        sig = metric_signature()
        d = {(0, 0): ZERO, (1, 1): ZERO, (0, 1): F(1, 2), (1, 0): F(1, 2)}
        m = PresentedStructure(sig, 2, {"d": d})
        assert not is_prefix(metric_seed(2), m)

"""Acceptance campaigns.

Ten end-to-end criteria covering the whole workbench: exact evaluation,
interval soundness, one-point extension witnesses, existentially-closed
synthesis for the empty metric theory and for graphs, approximate
back-and-forth, the randomness campaigns, encoding stability, and oracle
equivalences.  Each test prints a single PASS/FAIL line.  The campaigns
carry the `slow` marker: `pytest -m "not slow"` leaves them out.
"""

import random
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from metrika import (
    MeasureSpec,
    all_configurations,
    back_and_forth,
    distortion,
    ec_close,
    empty_metric_spec,
    encode,
    evaluate,
    evaluate_prefix_bounds,
    extension_property_report,
    genericity_frequency,
    graph_seed,
    graph_spec,
    invariance_audit,
    metric_seed,
    parse_formula,
    sample_space,
    validate,
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
    Sup,
    TruncPlus,
    metric_signature,
)
from metrika.sampling import trial_rng
from metrika.urysohn import DistanceConfiguration, delta_for

from references import (
    config_error,
    config_formula,
    extend_with_distances,
    katetov_extension,
    restrict,
    sample_one_point,
)

ZERO = F(0)
ONE = F(1)
SIG = metric_signature()
GRID_EIGHTHS = MeasureSpec(kind="sequential", grid=F(1, 8), seed=0)
GRID_QUARTERS = MeasureSpec(kind="sequential", grid=F(1, 4), seed=0)

pytestmark = pytest.mark.slow


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def random_qf_body(rng, variables):
    """Random quantifier-free formula whose atoms range over `variables`."""

    def go(depth):
        if depth == 0 or rng.random() < 0.3:
            if rng.random() < 0.2:
                return Const(F(rng.randint(0, 8), 8))
            return Atom("d", (rng.choice(variables), rng.choice(variables)))
        op = rng.choice([Min, Max, DotMinus, TruncPlus, AbsDiff, Neg])
        if op is Neg:
            return Neg(go(depth - 1))
        return op(go(depth - 1), go(depth - 1))

    return go(2)


def random_prenex(rng, n_quantifiers):
    names = [f"v{i}" for i in range(n_quantifiers)]
    body = random_qf_body(rng, names)
    f = body
    for name in reversed(names):
        f = Inf(name, f) if rng.random() < 0.5 else Sup(name, f)
    return f


def one_point_grid_extensions(m, step):
    """Every valid one-point extension of m with distances on the grid."""
    levels = [k * step for k in range(int(ONE / step) + 1)]
    for s in product(levels, repeat=m.n):
        if all(
            abs(s[i] - s[j]) <= m.value("d", (i, j)) <= s[i] + s[j]
            for i in range(m.n)
            for j in range(i + 1, m.n)
        ):
            yield extend_with_distances(m, s)


# --------------------------------------------------------------- criteria


def test_c01_connective_evaluator_exactness():
    with criterion("C1 connective/evaluator exactness (10^4 spaces)"):
        tri = parse_formula(
            "sup x. sup y. sup z. (d(x,z) -. (d(x,y) +. d(y,z)))", SIG
        )
        rng = random.Random("acceptance-c1")
        for t in range(10_000):
            n = rng.randint(1, 6)
            m = sample_space(n, GRID_EIGHTHS, trial_rng(0, "c1", t))
            assert evaluate(tri, m) == ZERO
            phi = random_prenex(rng, rng.randint(1, 2))
            v = evaluate(phi, m)
            assert isinstance(v, F) and ZERO <= v <= ONE


def test_c02_interval_soundness():
    with criterion("C2 interval soundness (10^3 prenex formulas)"):
        rng = random.Random("acceptance-c2")
        for t in range(1_000):
            n = rng.randint(2, 3)
            base = sample_space(n, GRID_QUARTERS, trial_rng(0, "c2", t))
            phi = random_prenex(rng, rng.randint(1, 2))
            bounds = evaluate_prefix_bounds(phi, base)
            # every grid one-point extension's exact value lies inside
            for ext in one_point_grid_extensions(base, F(1, 4)):
                assert evaluate(phi, ext) in bounds
            # intervals nest as the prefix grows
            longer = sample_one_point(base, GRID_QUARTERS, trial_rng(0, "c2x", t))
            nested = evaluate_prefix_bounds(phi, longer)
            assert bounds.lo <= nested.lo and nested.hi <= bounds.hi


def test_c03_katetov_witness_campaign():
    with criterion("C3 one-point witness theorem-as-test (10^4 instances)"):
        pool = all_configurations(2, 4) + all_configurations(3, 4)
        rng = random.Random("acceptance-c3")
        for t in range(10_000):
            m = sample_space(rng.randint(2, 5), GRID_EIGHTHS, trial_rng(0, "c3", t))
            theta = rng.choice(pool)
            k = theta.n - 1
            pts = tuple(rng.randrange(m.n) for _ in range(k))
            err = config_error(restrict(theta), m, pts)
            delta = err + rng.choice((ZERO, F(1, 8), F(1, 4)))
            # the witness as the closure builds it: katetov_row on a
            # builder's integers, accepted by its try_add
            slack = F(3, 2) * delta
            ext = katetov_extension(m, [theta.r[a][k] for a in range(k)], pts, slack)
            assert not validate(ext).violations
            realized = config_error(theta, ext, pts + (m.n,))
            assert realized <= slack


def test_c04_urysohn_approximant_fully_saturated():
    with criterion("C4 synthesized approximant: extension report 100%"):
        spec = empty_metric_spec(grid=F(1, 8))
        out = ec_close(metric_seed(1), spec, budget=10_000, rng_seed=0)
        assert not validate(out).violations
        by_size = {size: all_configurations(size, 4) for size in (2, 3)}
        configs = by_size[2] + by_size[3]
        eps, delta = F(1, 8), delta_for(F(1, 8))
        reports = {size: extension_property_report(out, eps, c) for size, c in by_size.items()}
        # size-2 instances on their own: a report over none proves nothing
        assert reports[2].total > 0
        assert all(r.satisfied == r.total for r in reports.values())
        print(
            f"[acceptance] C4 size-3 instances {reports[3].total} "
            f"(size 2: {reports[2].total}, informational)"
        )
        # independent exhaustive re-check, written out longhand
        for theta in configs:
            k = theta.n - 1
            for pts in product(range(out.n), repeat=k):
                if config_error(restrict(theta), out, pts) > delta:
                    continue
                assert any(
                    config_error(theta, out, pts + (y,)) <= eps
                    for y in range(out.n)
                ), (theta.r, pts)


def test_c05_random_graph_special_case():
    with criterion("C5 random-graph axioms + depth-6 back-and-forth"):
        outs = [
            ec_close(graph_seed(1), graph_spec(max_size=3), budget=2_000_000,
                     rng_seed=s)
            for s in (0, 1)
        ]
        for g in outs:
            r = g.tables["R"]
            adj = [
                {j for j in range(g.n) if j != i and r[(i, j)] == ZERO}
                for i in range(g.n)
            ]
            for size in range(1, 4):
                for sub in combinations(range(g.n), size):
                    for split in range(1 << size):
                        a = {v for k, v in enumerate(sub) if split >> k & 1}
                        b = set(sub) - a
                        assert any(
                            a <= adj[z] and not (b & adj[z])
                            for z in range(g.n)
                            if z not in sub
                        ), (a, b)
        res = back_and_forth(outs[0], outs[1], eps=F(1, 2), depth=6)
        assert res.status == "success"
        assert res.correspondence.distortion < ONE


def test_c06_approximate_categoricity_shadow():
    with criterion("C6 two approximants: back-and-forth depth 5, eps 1/4"):
        spec = empty_metric_spec(grid=F(1, 8))
        a = ec_close(metric_seed(1), spec, budget=10_000, rng_seed=0)
        b = ec_close(metric_seed(1), spec, budget=10_000, rng_seed=1)
        res = back_and_forth(a, b, eps=F(1, 4), depth=5)
        assert res.status == "success"
        assert res.correspondence.distortion <= F(1, 4)


def test_c07_randomness_shadow_genericity_curve():
    with criterion("C7 genericity curve non-decreasing, > 0.9 at n = 12"):
        theta = DistanceConfiguration(((ZERO, F(1, 2)), (F(1, 2), ZERO)))
        trials = 2_000
        curve = genericity_frequency(GRID_EIGHTHS, theta, F(1, 4),
                                     [3, 5, 8, 12], trials)
        freqs = [f for _, f in curve]
        for prev, nxt in zip(freqs, freqs[1:]):
            band = 3 * (
                (prev * (1 - prev) + nxt * (1 - nxt)) / trials
            ) ** 0.5
            assert nxt >= prev - band, curve
        assert freqs[-1] > 0.9, curve


def test_c08_invariance_audit():
    with criterion("C8 invariance audit: rejection gaps within 3 sigma"):
        phi = parse_formula("d(x,y)", SIG)
        rej = MeasureSpec(kind="rejection", grid=F(1, 16), seed=0)
        rep = invariance_audit(rej, n=4, trials=100_000, phi=phi, eps=F(1, 2))
        assert not rep.flagged, (rep.max_gap, rep.sigma_bound)
        seq = MeasureSpec(kind="sequential", grid=F(1, 16), seed=0)
        seq_rep = invariance_audit(seq, n=4, trials=20_000, phi=phi,
                                   eps=F(1, 2))
        # reported alongside, no pass bar
        print(
            f"[acceptance] C8 sequential sampler gap {seq_rep.max_gap:.4f} "
            f"(3-sigma bound {seq_rep.sigma_bound:.4f}, informational)"
        )


def test_c09_prefix_encoding_stability():
    with criterion("C9 encoding stability over 10^3 extension chains"):
        rng = random.Random("acceptance-c9")
        for t in range(1_000):
            base = sample_space(rng.randint(1, 2), GRID_QUARTERS,
                                trial_rng(0, "c9", t))
            chain = [base]
            for step in range(3):
                chain.append(
                    sample_one_point(chain[-1], GRID_QUARTERS,
                                     trial_rng(0, "c9", t, step))
                )
            k = base.n * base.n
            code = encode(base, k).to_json()
            # the basic open [phi(0, 1) < eps] is decided by the prefix
            opens = []
            if base.n >= 2:
                phi = AbsDiff(Atom("d", ("x", "y")), Const(F(1, 4)))
                opens.append((phi, F(rng.randint(1, 4), 4)))
            asg = {"x": 0, "y": 1}
            memberships = [evaluate(phi, base, asg) < eps for phi, eps in opens]
            for m in chain[1:]:
                assert encode(m, k).to_json() == code
                assert [evaluate(phi, m, asg) < eps for phi, eps in opens] == memberships


def test_c10_oracle_equivalences():
    with criterion("C10 oracle equivalences (formula / brute force)"):
        rng = random.Random("acceptance-c10")
        pool = all_configurations(2, 4) + all_configurations(3, 4)
        # config_error against the parsed-formula evaluation, bit exact
        for t in range(10_000):
            m = sample_space(rng.randint(2, 4), GRID_EIGHTHS,
                             trial_rng(0, "c10a", t))
            theta = rng.choice(pool)
            pts = tuple(rng.randrange(m.n) for _ in range(theta.n))
            phi = config_formula(theta)
            asg = {f"x{i + 1}": p for i, p in enumerate(pts)}
            assert evaluate(phi, m, asg) == config_error(theta, m, pts)
        # distortion against an independent double loop, bit exact
        for t in range(200):
            r = trial_rng(0, "c10b", t)
            m = sample_space(4, GRID_EIGHTHS, r)
            n = sample_space(4, GRID_EIGHTHS, r)
            k = r.randint(1, 4)
            left = r.sample(range(4), k)
            right = r.sample(range(4), k)
            worst = ZERO
            for i in range(k):
                for j in range(k):
                    worst = max(
                        worst,
                        abs(m.value("d", (left[i], left[j]))
                            - n.value("d", (right[i], right[j]))),
                    )
            assert distortion(list(zip(left, right)), m, n) == worst

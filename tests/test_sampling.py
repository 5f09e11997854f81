"""Tests for the random-space samplers and statistical audits."""

import random
from fractions import Fraction as F
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from metrika import (
    MeasureSpec,
    RejectionBudgetExceededError,
    genericity_frequency,
    invariance_audit,
    parse_formula,
    sample_space,
    validate,
)
from metrika import sampling
from metrika.logic import metric_signature
from metrika.sampling import InvarianceReport, trial_rng
from metrika.structures import (
    MetricBuilder,
    admissible,
    admissible_interval,
)
from metrika.urysohn import DistanceConfiguration, all_configurations, delta_for

from references import (
    config_error,
    extend_with_distances,
    fraction_rows,
    fraction_value,
    from_distance_matrix,
    restrict,
    sample_one_point,
)

ZERO = F(0)
ONE = F(1)
SEQ = MeasureSpec(kind="sequential", grid=F(1, 8), seed=0)
REJ = MeasureSpec(kind="rejection", grid=F(1, 4), seed=0)


class TestMeasureSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            MeasureSpec(kind="gaussian")

    def test_bad_grid_rejected(self):
        with pytest.raises(ValueError):
            MeasureSpec(kind="sequential", grid=ZERO)
        with pytest.raises(ValueError):
            MeasureSpec(kind="sequential", grid=F(3, 2))

    @pytest.mark.parametrize("max_tries", [0, -3])
    def test_nonpositive_max_tries_rejected(self, max_tries):
        with pytest.raises(ValueError, match=f"max_tries must be >= 1, got {max_tries}"):
            MeasureSpec(kind="rejection", max_tries=max_tries)


class TestSampleOnePoint:
    @pytest.mark.parametrize("spec", [SEQ, REJ], ids=["sequential", "rejection"])
    def test_single_base_is_uniform(self, spec):
        rng = random.Random(1)
        base = from_distance_matrix([[ZERO]])
        trials = 4000
        total = ZERO
        for _ in range(trials):
            m = sample_one_point(base, spec, rng)
            s = m.value("d", (0, 1))
            assert ZERO <= s <= ONE
            total += s
        mean = float(total) / trials
        # Uniform[0,1]: sd of the mean is sqrt(1/12/trials) ~ 0.0046
        assert abs(mean - 0.5) < 3 * (1 / 12 / trials) ** 0.5 + 1 / 16

    @pytest.mark.parametrize("spec", [SEQ, REJ], ids=["sequential", "rejection"])
    def test_distance_one_pair_forces_complement(self, spec):
        # every draw obeys |s0 - s1| <= 1 <= s0 + s1; in particular s0 = 0
        # forces s1 = 1
        rng = random.Random(2)
        base = from_distance_matrix([[ZERO, ONE], [ONE, ZERO]])
        for _ in range(300):
            m = sample_one_point(base, spec, rng)
            s0, s1 = m.value("d", (0, 2)), m.value("d", (1, 2))
            assert abs(s0 - s1) <= ONE <= s0 + s1
            if s0 == ZERO:
                assert s1 == ONE

    def test_rejection_budget_exceeded(self):
        # twelve points pairwise at distance 1: a proposal is kept only if
        # no two of its twelve distances sum below 1, and this one is not
        spec = MeasureSpec(kind="rejection", grid=F(1, 8), seed=0, max_tries=1)
        base = from_distance_matrix([[ZERO if i == j else ONE for j in range(12)]
                                     for i in range(12)])
        with pytest.raises(RejectionBudgetExceededError,
                           match="no 13-point metric space accepted within 1 proposals"):
            sample_one_point(base, spec, random.Random(0))


class TestSampleSpace:
    def test_n_one_is_single_point(self):
        m = sample_space(1, SEQ)
        assert m.n == 1 and m.sig == metric_signature()

    def test_needs_a_point(self):
        with pytest.raises(ValueError):
            sample_space(0, SEQ)

    @pytest.mark.parametrize("spec", [SEQ, REJ], ids=["sequential", "rejection"])
    def test_deterministic_given_seed(self, spec):
        a = sample_space(4, spec)
        b = sample_space(4, spec)
        assert a.tables == b.tables

    def test_sampled_spaces_validate(self):
        for t in range(100):
            m = sample_space(8, SEQ, trial_rng(0, "valid", t))
            assert not validate(m).violations

    def test_rejection_spaces_validate(self):
        for t in range(50):
            m = sample_space(4, REJ, trial_rng(0, "valid-rej", t))
            assert not validate(m).violations

    def test_rejection_budget_exceeded(self):
        # one proposal of 66 distances, whose 220 triangles do not all hold
        spec = MeasureSpec(kind="rejection", grid=F(1, 4), seed=0, max_tries=1)
        with pytest.raises(RejectionBudgetExceededError,
                           match="no 12-point metric space accepted within 1 proposals"):
            sample_space(12, spec)

    def test_checked_draw_refused_by_the_builder_is_an_error(self, monkeypatch):
        # a draw the flat check accepted is added, never redrawn behind
        # try_add's back
        monkeypatch.setattr(MetricBuilder, "try_add", lambda self, row, note: False)
        with pytest.raises(RuntimeError, match="try_add refused row 1"):
            sample_space(3, REJ)

    def test_full_support_on_coarse_grid(self):
        # every 1/2-grid value of d(0,1) shows up among 2-point samples
        seen = set()
        spec = MeasureSpec(kind="sequential", grid=F(1, 2), seed=0)
        for t in range(200):
            seen.add(sample_space(2, spec, trial_rng(0, "support", t)).value("d", (0, 1)))
        assert seen == {ZERO, F(1, 2), ONE}


class TestTrialRng:
    def test_same_labels_same_stream(self):
        a = trial_rng(7, "x", 3)
        b = trial_rng(7, "x", 3)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_labels_differ(self):
        assert trial_rng(7, "x", 3).random() != trial_rng(7, "x", 4).random()


class TestInvarianceAudit:
    def test_rejection_sampler_not_flagged(self):
        sig = metric_signature()
        phi = parse_formula("d(x,y)", sig)
        rep = invariance_audit(REJ, n=3, trials=1500, phi=phi, eps=F(1, 2))
        assert set(rep.frequencies) == set(permutations(range(3), 2))
        assert rep.trials == 1500
        assert not rep.flagged

    def test_arity_exceeding_points_rejected(self):
        sig = metric_signature()
        phi = parse_formula("d(x,y)", sig)
        with pytest.raises(ValueError):
            invariance_audit(SEQ, n=1, trials=10, phi=phi, eps=F(1, 2))

    def test_zero_trials_rejected(self):
        phi = parse_formula("d(x,y)", metric_signature())
        with pytest.raises(ValueError, match="trials must be >= 1"):
            invariance_audit(SEQ, n=3, trials=0, phi=phi, eps=F(1, 2))

    def test_no_points_rejected(self):
        # checked before the formula's arity
        phi = parse_formula("d(x,y)", metric_signature())
        with pytest.raises(ValueError, match="need at least one point"):
            invariance_audit(SEQ, n=0, trials=10, phi=phi, eps=F(1, 2))

    @pytest.mark.parametrize("eps", [F(-1, 2), ZERO, F(3)])
    def test_eps_outside_unit_interval_rejected(self, eps):
        phi = parse_formula("d(x,y)", metric_signature())
        with pytest.raises(ValueError, match=r"eps must be in \(0,1\]"):
            invariance_audit(SEQ, n=3, trials=10, phi=phi, eps=eps)

    def test_json_shape(self):
        sig = metric_signature()
        phi = parse_formula("d(x,y)", sig)
        rep = invariance_audit(SEQ, n=3, trials=50, phi=phi, eps=F(1, 2))
        obj = rep.to_json()
        assert set(obj) == {"frequencies", "max_gap", "sigma_bound", "flagged",
                            "trials"}
        assert all(isinstance(k, str) for k in obj["frequencies"])


class TestGenericityFrequency:
    def test_size_one_config_always_holds(self):
        theta = DistanceConfiguration(((ZERO,),))
        curve = genericity_frequency(SEQ, theta, F(1, 4), [2, 4], trials=20)
        assert curve == [(2, 1.0), (4, 1.0)]

    def test_eps_one_always_holds(self):
        theta = DistanceConfiguration(
            ((ZERO, F(1, 2)), (F(1, 2), ZERO))
        )
        curve = genericity_frequency(SEQ, theta, ONE, [3], trials=20)
        assert curve == [(3, 1.0)]

    def test_config_too_large_rejected(self):
        theta = DistanceConfiguration(
            ((ZERO, F(1, 2)), (F(1, 2), ZERO))
        )
        with pytest.raises(ValueError):
            genericity_frequency(SEQ, theta, F(1, 4), [1], trials=5)

    def test_zero_trials_rejected(self):
        theta = DistanceConfiguration(((ZERO,),))
        with pytest.raises(ValueError, match="trials must be >= 1"):
            genericity_frequency(SEQ, theta, F(1, 4), [2], trials=0)

    def test_half_config_trend(self):
        theta = DistanceConfiguration(
            ((ZERO, F(1, 2)), (F(1, 2), ZERO))
        )
        curve = genericity_frequency(SEQ, theta, F(1, 4), [3, 8], trials=300)
        freqs = dict(curve)
        assert freqs[8] >= freqs[3] - 0.1
        assert freqs[8] > 0.6


# ------------------------------------------- the samplers vs a rational reference
#
# The reference is the Fraction form of both samplers: every point added by
# extend_with_distances, each distance drawn by a Fraction grid draw, and a
# joint rejection draw rebuilt by from_distance_matrix.


def _ref_grid_uniform(lo, hi, step, rng):
    lo_idx = -((-lo.numerator * step.denominator) // (lo.denominator * step.numerator))
    hi_idx = (hi.numerator * step.denominator) // (hi.denominator * step.numerator)
    if lo_idx > hi_idx:
        return lo
    return rng.randint(lo_idx, hi_idx) * step


def _ref_sample_one_point(m, spec, rng):
    n, rows = m.n, fraction_rows(m)
    if spec.kind == "sequential":
        s = []
        for _ in range(n):
            s.append(_ref_grid_uniform(*admissible_interval(rows, s), spec.grid, rng))
        return extend_with_distances(m, s, note={"sampler": "sequential"})
    steps = int(ONE / spec.grid)
    for _ in range(spec.max_tries):
        s = [rng.randint(0, steps) * spec.grid for _ in range(n)]
        if admissible(rows, s):
            return extend_with_distances(m, s, note={"sampler": "rejection"})
    raise RejectionBudgetExceededError("budget")


def _ref_sample_space(n, spec, rng):
    if spec.kind == "sequential":
        m = from_distance_matrix([[ZERO]])
        for _ in range(n - 1):
            m = _ref_sample_one_point(m, spec, rng)
        return m
    steps = int(ONE / spec.grid)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for _ in range(spec.max_tries):
        draw = {p: rng.randint(0, steps) for p in pairs}
        d = [[0] * n for _ in range(n)]
        for (i, j), v in draw.items():
            d[i][j] = d[j][i] = v
        if all(admissible(d, [draw[(i, k)] for i in range(k)]) for k in range(2, n)):
            rows = [[ZERO] * n for _ in range(n)]
            for (i, j), v in draw.items():
                rows[i][j] = rows[j][i] = v * spec.grid
            return from_distance_matrix(rows)
    raise RejectionBudgetExceededError("budget")


def _outcome(sampler, *args, rng):
    """What a sampler returns (tables and provenance) or that it ran out of
    proposals, with the state its random stream is left in."""
    try:
        m = sampler(*args, rng)
        result = (m.n, m.tables, m.provenance_log)
    except RejectionBudgetExceededError:
        result = "budget"
    return result, rng.getstate()


KINDS = st.sampled_from(["sequential", "rejection"])
GRIDS = st.sampled_from([F(1, 4), F(1, 8), F(1, 16), F(2, 5), F(3, 7), F(1, 2**16)])


@settings(max_examples=200, deadline=None)
@given(KINDS, GRIDS, st.integers(1, 9), st.integers(0, 2**32))
def test_sample_space_matches_rational_reference(kind, grid, n, seed):
    spec = MeasureSpec(kind=kind, grid=grid, seed=seed, max_tries=40)
    got = _outcome(sample_space, n, spec, rng=random.Random(seed))
    assert got == _outcome(_ref_sample_space, n, spec, rng=random.Random(seed))


@settings(max_examples=200, deadline=None)
@given(KINDS, GRIDS, st.sampled_from([F(1, 3), F(1, 4), F(2, 5), F(1, 8)]),
       st.integers(1, 8), st.integers(0, 2**32))
def test_sample_one_point_matches_rational_reference(kind, grid, prefix_grid, n, seed):
    # a prefix off the sampling grid (1/3 against 1/8, say) can leave an
    # interval holding no grid point, where the draw falls back to lo
    prefix = _ref_sample_space(n, MeasureSpec("sequential", grid=prefix_grid), random.Random(seed))
    spec = MeasureSpec(kind=kind, grid=grid, seed=seed, max_tries=40)
    got = _outcome(sample_one_point, prefix, spec, rng=random.Random(seed + 1))
    assert got == _outcome(_ref_sample_one_point, prefix, spec, rng=random.Random(seed + 1))


def test_off_grid_prefix_takes_the_lo_fallback():
    # d(0,1) = 1/3: a draw of s0 = 0 leaves s1 in [1/3, 1/3], off the 1/8 grid
    prefix = from_distance_matrix([[ZERO, F(1, 3)], [F(1, 3), ZERO]])
    spec = MeasureSpec(kind="sequential", grid=F(1, 8))
    off_grid = 0
    for seed in range(60):
        m = sample_one_point(prefix, spec, random.Random(seed))
        ref = _ref_sample_one_point(prefix, spec, random.Random(seed))
        assert m.tables == ref.tables and m.provenance_log == ref.provenance_log
        off_grid += any(8 % m.value("d", (i, 2)).denominator for i in range(2))
    assert off_grid > 0


# --------------------------------------- the invariance audit vs a rational reference


def _ref_invariance_audit(spec, n, trials, phi, eps, sigma):
    """The report over _ref_sample_space draws, each tuple valued by the
    Fraction oracle."""
    free = phi.free_variables()
    counts = dict.fromkeys(permutations(range(n), len(free)), 0)
    for t_idx in range(trials):
        m = _ref_sample_space(n, spec, trial_rng(spec.seed, "audit", n, t_idx))
        for t in counts:
            counts[t] += fraction_value(phi, m, dict(zip(free, t))) < eps
    freqs = {t: c / trials for t, c in counts.items()}
    values = list(freqs.values())
    gap = max(values) - min(values)
    pooled = sum(values) / len(values)
    bound = sigma * (2 * pooled * (1 - pooled) / trials) ** 0.5
    return InvarianceReport(freqs, gap, bound, gap > bound, trials)


# arity 0 to 3, with a scale that puts the kernel's D above the grid's L
AUDITED = [
    "sup x. inf y. max(d(x,y), 1/3)",
    "inf y. absdiff(d(x,y), 1/2)",
    "d(x,y)",
    "1/3 * d(x,y)",
    "d(x,z) -. (d(x,y) +. d(y,z))",
    "min(d(x,y), absdiff(d(y,z), d(x,z)))",
]


@settings(max_examples=80, deadline=None)
@given(KINDS, st.sampled_from([F(1, 4), F(1, 8), F(2, 5), F(3, 7)]), st.sampled_from(AUDITED),
       st.sampled_from([F(1, 3), F(1, 2), F(2, 7), ONE]), st.integers(0, 2),
       st.sampled_from([0.5, 3.0]), st.integers(0, 2**32))
@example("rejection", F(2, 5), "d(x,y)", F(1, 2), 1, 0.5, 3)
def test_invariance_audit_matches_rational_reference(kind, grid, text, eps, extra, sigma, seed):
    phi = parse_formula(text, metric_signature())
    n = max(1, len(phi.free_variables())) + extra
    spec = MeasureSpec(kind=kind, grid=grid, seed=seed)
    got = invariance_audit(spec, n, 20, phi, eps, sigma)
    assert got == _ref_invariance_audit(spec, n, 20, phi, eps, sigma)


# --------------------------------------- the genericity curve vs a rational reference


def _ref_genericity_frequency(spec, theta, eps, n_values, trials):
    """The curve over _ref_sample_space draws, each anchor tuple within delta
    of theta's restriction checked for a completing point by brute force."""
    delta, k = delta_for(eps), theta.n - 1
    curve = []
    for n in n_values:
        good = 0
        for t_idx in range(trials):
            m = _ref_sample_space(n, spec, trial_rng(spec.seed, "genericity", n, t_idx))
            good += all(
                any(config_error(theta, m, pts + (y,)) <= eps for y in range(n))
                for pts in product(range(n), repeat=k)
                if config_error(restrict(theta), m, pts) <= delta
            )
        curve.append((n, good / trials))
    return curve


@st.composite
def lattice_configs(draw):
    """A configuration of 1 to 3 points, every entry on the lattice 1/2,
    1/3 or 2/5."""
    step = draw(st.sampled_from([F(1, 2), F(1, 3), F(2, 5)]))
    size = draw(st.integers(1, 3))
    configs = [theta for theta in all_configurations(size, step.denominator, include_zero=True)
               if all(v % step == 0 for row in theta.r for v in row)]
    return draw(st.sampled_from(configs))


def _curve(frequency, *args):
    try:
        return frequency(*args)
    except RejectionBudgetExceededError:
        return "budget"


@settings(max_examples=120, deadline=None)
@given(KINDS, st.sampled_from([F(1, 8), F(2, 5), F(1, 16)]), lattice_configs(),
       st.sampled_from([F(1, 4), F(1, 3)]), st.integers(0, 2**32))
def test_genericity_frequency_matches_rational_reference(kind, grid, theta, eps, seed):
    spec = MeasureSpec(kind=kind, grid=grid, seed=seed, max_tries=2000)
    n_values = [n for n in range(2, 6) if n >= theta.n]
    args = (spec, theta, eps, n_values, 4)
    assert _curve(genericity_frequency, *args) == _curve(_ref_genericity_frequency, *args)


# ------------------------------------------ one law per campaign, one set of rows per trial


def test_campaigns_share_no_state_between_calls():
    # each campaign builds its law once and every trial grows on rows of its
    # own: an audit repeated after other campaigns in the same process, on
    # other kinds, sizes, grids and lattices, gives the same report, and
    # every call matches its rational reference, random stream included
    phi = parse_formula("min(d(x,y), absdiff(d(y,z), d(x,z)))", metric_signature())
    audit = MeasureSpec(kind="rejection", grid=F(1, 4), seed=5)
    first = invariance_audit(audit, 4, 60, phi, F(1, 2))
    assert first == _ref_invariance_audit(audit, 4, 60, phi, F(1, 2), 3.0)
    theta = DistanceConfiguration(((ZERO, F(1, 2)), (F(1, 2), ZERO)))
    for kind, grid, n in [("sequential", F(1, 16), 6), ("rejection", F(2, 5), 5),
                          ("rejection", F(3, 7), 3), ("sequential", F(1, 4), 4)]:
        spec = MeasureSpec(kind=kind, grid=grid, seed=n, max_tries=2000)
        for t in range(3):
            got = _outcome(sample_space, n, spec, rng=trial_rng(1, kind, t))
            assert got == _outcome(_ref_sample_space, n, spec, rng=trial_rng(1, kind, t))
        args = (spec, theta, F(1, 4), [2, n], 6)
        assert genericity_frequency(*args) == _ref_genericity_frequency(*args)
    assert invariance_audit(audit, 4, 60, phi, F(1, 2)) == first
    # two prefixes of one size, at different distances, grown one after
    # the other
    for rows in ([[0, F(1, 3)], [F(1, 3), 0]], [[0, 1], [1, 0]]):
        prefix = from_distance_matrix(rows)
        for spec in (SEQ, REJ):
            got = _outcome(sample_one_point, prefix, spec, rng=random.Random(9))
            assert got == _outcome(_ref_sample_one_point, prefix, spec, rng=random.Random(9))


def test_law_is_built_once_per_campaign(monkeypatch):
    # the starting builder and the rejection law's layout are fixed once
    # per audit and once per n of a genericity curve, not once per trial
    built, builders = [], []
    law, init = sampling._law, MetricBuilder.__init__

    def counting_law(prefix, k, *args):
        built.append(k)
        return law(prefix, k, *args)

    def counting_init(self, *args):
        builders.append(args)
        init(self, *args)

    monkeypatch.setattr(sampling, "_law", counting_law)
    monkeypatch.setattr(MetricBuilder, "__init__", counting_init)
    phi = parse_formula("d(x,y)", metric_signature())
    invariance_audit(REJ, 4, 200, phi, F(1, 2))
    assert built == [3] and len(builders) == 1
    built.clear()
    builders.clear()
    theta = DistanceConfiguration(((ZERO, F(1, 2)), (F(1, 2), ZERO)))
    genericity_frequency(SEQ, theta, F(1, 4), [3, 5, 8], 30)
    assert built == [2, 4, 7] and len(builders) == 3

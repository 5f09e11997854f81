"""Tests for distance configurations and the Katetov repair witness."""

from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from metrika import (
    DistanceConfiguration,
    PartialInfeasibleError,
    PreconditionViolatedError,
        SizeMismatchError,
    admissible_bounds,
    all_configurations,
    axiom_instance,
    check_condition,
    config_error,
    delta_for,
    evaluate,
    extension_property_report,
    extend_with_distances,
    from_distance_matrix,
    katetov_witness,
    restrict,
    validate,
)
from metrika.urysohn import (
    AdmissiblePolytope,
    config_formula,
    extension_obligations,
    load_configurations,
    realized,
    save_configurations,
)


def config(rows):
    return DistanceConfiguration.from_rows(rows)


def space(rows):
    return from_distance_matrix([[F(v) for v in row] for row in rows])


# ----------------------------------------------------------- configurations


def test_configuration_rejects_triangle_violation():
    with pytest.raises(ValueError):
        config([[0, "1/4", 1], ["1/4", 0, "1/4"], [1, "1/4", 0]])


def test_configuration_rejects_asymmetry():
    with pytest.raises(ValueError):
        DistanceConfiguration(((F(0), F(1, 2)), (F(1, 4), F(0))))


def test_configuration_rejects_diameter():
    with pytest.raises(ValueError):
        DistanceConfiguration(((F(0), F(2)), (F(2), F(0))))


def test_configuration_json_round_trip():
    theta = config([[0, "1/2", "3/4"], ["1/2", 0, "1/2"], ["3/4", "1/2", 0]])
    assert DistanceConfiguration.from_json(theta.to_json()) == theta


def test_restrict_drops_last_point():
    theta = config([[0, "1/2", "3/4"], ["1/2", 0, "1/2"], ["3/4", "1/2", 0]])
    assert restrict(theta) == config([[0, "1/2"], ["1/2", 0]])
    assert restrict(restrict(theta)) == config([[0]])


def test_restrict_empty_raises():
    with pytest.raises(SizeMismatchError):
        restrict(DistanceConfiguration(()))


# ------------------------------------------------------------- config error


def test_config_error_exact_match():
    theta = config([[0, "1/2"], ["1/2", 0]])
    m = space([[0, "1/2"], ["1/2", 0]])
    assert config_error(theta, m, (0, 1)) == 0


def test_config_error_two_fifths():
    theta = config([[0, "2/5"], ["2/5", 0]])
    m = space([[0, "1/2"], ["1/2", 0]])
    assert config_error(theta, m, (0, 1)) == F(1, 10)


def test_config_error_single_point():
    theta = config([[0]])
    m = space([[0, "1/2"], ["1/2", 0]])
    assert config_error(theta, m, (1,)) == 0


def test_config_error_matches_formula_evaluation():
    theta = config([[0, "1/2", "3/4"], ["1/2", 0, "1/2"], ["3/4", "1/2", 0]])
    m = space([[0, "1/4", "5/8"], ["1/4", 0, "1/2"], ["5/8", "1/2", 0]])
    phi = config_formula(theta)
    for pts in [(0, 1, 2), (2, 1, 0), (0, 0, 1)]:
        asg = dict(zip(("x1", "x2", "x3"), pts))
        assert evaluate(phi, m, asg) == config_error(theta, m, pts)


# ---------------------------------------------------------------- polytope


def test_polytope_all_ones_always_admissible():
    theta = config([[0, "1/2", 1], ["1/2", 0, "3/4"], [1, "3/4", 0]])
    assert AdmissiblePolytope(theta).contains((1, 1, 1))


def test_admissible_bounds_first_coordinate():
    theta = config([[0, "1/2"], ["1/2", 0]])
    assert admissible_bounds(theta, ()) == (F(0), F(1))


def test_admissible_bounds_forced():
    theta = config([[0, 1], [1, 0]])
    assert admissible_bounds(theta, (F(0),)) == (F(1), F(1))


def test_admissible_bounds_quarter():
    theta = config([[0, "1/2"], ["1/2", 0]])
    assert admissible_bounds(theta, (F(1, 4),)) == (F(1, 4), F(3, 4))


def test_admissible_bounds_infeasible_partial():
    theta = config([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    with pytest.raises(PartialInfeasibleError):
        admissible_bounds(theta, (F(2),))


@st.composite
def grid_configs(draw, max_n=4, denom=4):
    n = draw(st.integers(1, max_n))
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lo = max(abs(rows[i][k] - rows[j][k]) for k in range(j)) if j else F(0)
            hi = min(
                (rows[i][k] + rows[j][k] for k in range(j) if k != i), default=F(1)
            )
            lo = max(lo, F(1, denom))
            hi = min(hi, F(1))
            if lo > hi:
                lo = hi
            kk = draw(
                st.integers(int(lo * denom), int(hi * denom))
            )
            rows[i][j] = rows[j][i] = F(kk, denom)
    # the draw above may still breach a triangle; repair by metric closure
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if rows[i][j] > rows[i][k] + rows[k][j]:
                    rows[i][j] = rows[j][i] = rows[i][k] + rows[k][j]
    return DistanceConfiguration.from_rows(rows)


@given(grid_configs())
@settings(max_examples=200)
def test_sequential_bounds_never_empty(theta):
    partial = []
    for _ in range(theta.n):
        lo, hi = admissible_bounds(theta, partial)
        assert lo <= hi
        partial.append(lo)
    assert AdmissiblePolytope(theta).contains(partial)


# ----------------------------------------------------------- delta policy


def test_delta_for_values():
    assert delta_for(F(1)) == F(2, 3)
    assert delta_for(F(3, 10)) == F(1, 5)
    assert delta_for(F(1, 8)) == F(1, 12)


def test_delta_for_rejects_zero():
    with pytest.raises(ValueError):
        delta_for(F(0))


# ---------------------------------------------------------- Katetov repair


def test_katetov_exact_match():
    theta = config([[0, "1/2", "1/4"], ["1/2", 0, "3/4"], ["1/4", "3/4", 0]])
    m = space([[0, "1/2"], ["1/2", 0]])
    h = katetov_witness(m, theta, (0, 1), F(0))
    assert h == (F(1, 4), F(3, 4))


def test_katetov_repair_example():
    theta = config([[0, "3/5", "3/10"], ["3/5", 0, "3/10"], ["3/10", "3/10", 0]])
    m = space([[0, "1/2"], ["1/2", 0]])
    h = katetov_witness(m, theta, (0, 1), F(1, 10))
    assert h == (F(9, 20), F(9, 20))
    err = max(abs(h[a] - theta.r[a][2]) for a in range(2))
    assert err == F(3, 20)  # exactly 3 delta / 2


def test_katetov_empty_anchor_tuple():
    theta = config([[0]])
    m = space([[0, "1/2"], ["1/2", 0]])
    assert katetov_witness(m, theta, (), F(1, 10)) == (F(1), F(1))


def test_katetov_precondition():
    theta = config([[0, 1, "1/2"], [1, 0, "1/2"], ["1/2", "1/2", 0]])
    m = space([[0, "1/4"], ["1/4", 0]])
    with pytest.raises(PreconditionViolatedError):
        katetov_witness(m, theta, (0, 1), F(1, 10))


@st.composite
def witness_instances(draw):
    theta = draw(grid_configs(max_n=4, denom=4))
    k = theta.n - 1
    # build a structure whose first k points realize the restriction
    # within delta, by perturbing on a finer grid
    base = restrict(theta)
    delta = draw(st.sampled_from([F(0), F(1, 16), F(1, 8), F(1, 4)]))
    rows = [list(row) for row in base.r]
    for i in range(k):
        for j in range(i + 1, k):
            bump = draw(st.sampled_from([-delta, F(0), delta]))
            v = rows[i][j] + bump
            rows[i][j] = rows[j][i] = min(F(1), max(F(0), v))
    # metric repair after perturbation
    for c in range(k):
        for a in range(k):
            for b in range(k):
                if rows[a][b] > rows[a][c] + rows[c][b]:
                    rows[a][b] = rows[b][a] = rows[a][c] + rows[c][b]
    m = from_distance_matrix(rows) if k else space([[0]])
    err = config_error(base, m, tuple(range(k)))
    return m, theta, tuple(range(k)), max(delta, err)


@given(witness_instances())
@settings(max_examples=300, deadline=None)
def test_katetov_soundness(inst):
    m, theta, pts, delta = inst
    h = katetov_witness(m, theta, pts, delta)
    ext = extend_with_distances(m, h)
    assert validate(ext).ok
    k = theta.n - 1
    slack = 3 * delta / 2
    assert config_error(theta, ext, pts + (m.n,)) <= max(
        slack, config_error(restrict(theta), m, pts)
    )
    for a in range(k):
        assert abs(ext.d(pts[a], m.n) - theta.r[a][k]) <= slack


# ------------------------------------------------------------ axiom schema


def test_axiom_instance_small_coefficient():
    # eps/(1-delta) <= 1: plain ScaleQ form
    theta = config([[0, "1/2", "1/2"], ["1/2", 0, "1/2"], ["1/2", "1/2", 0]])
    cond = axiom_instance(theta, F(1, 4), F(1, 6))
    assert cond.relation == "<="
    assert cond.bound == F(1, 4)
    m = space([[0, "1/2", "1/2"], ["1/2", 0, "1/2"], ["1/2", "1/2", 0]])
    assert check_condition(cond, m, mode="finite").status == "holds"


def test_axiom_instance_rescaled():
    # eps/(1-delta) > 1 forces the rescaled variant
    theta = config([[0, "1/2", "1/2"], ["1/2", 0, "1/2"], ["1/2", "1/2", 0]])
    cond = axiom_instance(theta, F(3, 4), F(1, 2))
    assert cond.bound == F(3, 4) * F(1, 2)
    m = space([[0, "1/2", "1/2"], ["1/2", 0, "1/2"], ["1/2", "1/2", 0]])
    assert check_condition(cond, m, mode="finite").status == "holds"


def test_axiom_instance_fails_without_witness():
    # the 2-point space at distance 1/2 realizes the restriction but has no
    # third point at distance 1/2 from both
    theta = config([[0, "1/2", "1/2"], ["1/2", 0, "1/2"], ["1/2", "1/2", 0]])
    cond = axiom_instance(theta, F(1, 4), F(1, 6))
    m = space([[0, "1/2"], ["1/2", 0]])
    assert check_condition(cond, m, mode="finite").status == "fails"


def test_axiom_instance_size_one_holds_anywhere():
    theta = config([[0, "1/2"], ["1/2", 0]])
    cond = axiom_instance(theta, F(1, 4), F(1, 6))
    m = space([[0, "1/2"], ["1/2", 0]])
    assert check_condition(cond, m, mode="finite").status == "holds"


# ----------------------------------------------------------------- report


def test_report_discrete_space_missing_midpoints():
    m = space([[0, 1], [1, 0]])
    theta = config([[0, 1, "1/2"], [1, 0, "1/2"], ["1/2", "1/2", 0]])
    rep = extension_property_report(m, F(1, 8), [theta])
    assert not rep.ok
    assert rep.total == 2  # ordered tuples (0,1) and (1,0)
    assert rep.satisfied == 0


def test_report_vacuous():
    m = space([[0, 1], [1, 0]])
    rep = extension_property_report(m, F(1, 8), [])
    assert rep.ok and rep.total == 0


def test_report_satisfied_after_witness():
    m = space([[0, 1], [1, 0]])
    theta = config([[0, 1, "1/2"], [1, 0, "1/2"], ["1/2", "1/2", 0]])
    h = katetov_witness(m, theta, (0, 1), F(0))
    ext = extend_with_distances(m, h)
    rep = extension_property_report(ext, F(1, 8), [theta])
    assert rep.ok and rep.total == rep.satisfied > 0


def test_report_json_shape():
    m = space([[0, 1], [1, 0]])
    theta = config([[0, 1, "1/2"], [1, 0, "1/2"], ["1/2", "1/2", 0]])
    obj = extension_property_report(m, F(1, 8), [theta]).to_json()
    assert obj["satisfied"] == 0 and obj["total"] == 2
    assert obj["failures"][0] == {"theta_id": 0, "tuple": [0, 1]}


@st.composite
def obligation_instances(draw):
    """A grid metric space, configurations of sizes 1-3 on the same grid
    (so that restrictions often match), and a tolerance."""
    denom = draw(st.sampled_from([2, 4]))
    m = from_distance_matrix(draw(grid_configs(max_n=5, denom=denom)).r)
    configs = draw(st.lists(grid_configs(max_n=3, denom=denom), max_size=6))
    eps = draw(st.sampled_from([F(1, 8), F(1, 4), F(1, 2)]))
    return m, configs, eps


def brute_force_obligations(m, configs, eps, first_new):
    delta = delta_for(eps)
    out = []
    for t_idx, theta in enumerate(configs):
        for pts in product(range(m.n), repeat=theta.n - 1):
            if first_new > 0 and all(p < first_new for p in pts):
                continue
            if config_error(restrict(theta), m, pts) <= delta:
                out.append((t_idx, pts))
    return out


@given(obligation_instances())
@settings(max_examples=300)
def test_obligations_match_brute_force_scan(inst):
    m, configs, eps = inst
    for first_new in range(m.n + 1):
        assert list(extension_obligations(m, configs, eps, first_new)) == (
            brute_force_obligations(m, configs, eps, first_new)
        )
    for theta in configs:
        for pts in product(range(m.n), repeat=theta.n - 1):
            assert realized(theta, m, pts, eps) == any(
                config_error(theta, m, pts + (y,)) <= eps for y in range(m.n)
            )


# ----------------------------------------------------------------- corpora


def test_all_configurations_size_two():
    got = all_configurations(2, 4)
    assert [c.r[0][1] for c in got] == [F(1, 4), F(1, 2), F(3, 4), F(1)]


def test_all_configurations_triangle_filter():
    got = all_configurations(3, 2)
    # entries in {1/2, 1}: (1/2,1/2,1/2), (1/2,1/2,1)... exactly the
    # triangle-valid among 8 combinations: sums of two must cover the third
    for theta in got:
        a, b, c = theta.r[0][1], theta.r[0][2], theta.r[1][2]
        assert a <= b + c and b <= a + c and c <= a + b
    assert len(got) == 8  # every {1/2,1} combination satisfies the triangle


def test_configurations_file_round_trip(tmp_path):
    configs = all_configurations(3, 2)
    path = tmp_path / "configs.json"
    save_configurations(configs, path)
    assert load_configurations(path) == configs

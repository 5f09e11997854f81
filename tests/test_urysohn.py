"""Tests for distance configurations and the Katetov repair witness."""

from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from metrika import (
    DistanceConfiguration,
    SizeMismatchError,
    all_configurations,
    check_condition,
    delta_for,
    evaluate,
    extension_property_report,
    validate,
)
from metrika.structures import MetricBuilder, admissible, admissible_interval, lattice, scaled
from metrika.urysohn import (
    ObligationScan,
    load_configurations,
    save_configurations,
)

from references import (
    axiom_instance,
    config_error,
    config_formula,
    from_distance_matrix,
    katetov_extension,
    restrict,
)


def config(rows):
    return DistanceConfiguration(tuple(tuple(F(v) for v in row) for row in rows))


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


# ------------------------------------------------------- Katetov intervals


def lookup(theta):
    return lambda i, j: theta.r[i][j]


def test_polytope_all_ones_always_admissible():
    theta = config([[0, "1/2", 1], ["1/2", 0, "3/4"], [1, "3/4", 0]])
    assert admissible(lookup(theta), [F(1)] * 3)


def test_admissible_bounds_first_coordinate():
    theta = config([[0, "1/2"], ["1/2", 0]])
    assert admissible_interval(lookup(theta), []) == (F(0), F(1))


def test_admissible_bounds_forced():
    theta = config([[0, 1], [1, 0]])
    assert admissible_interval(lookup(theta), [F(0)]) == (F(1), F(1))


def test_admissible_bounds_quarter():
    theta = config([[0, "1/2"], ["1/2", 0]])
    assert admissible_interval(lookup(theta), [F(1, 4)]) == (F(1, 4), F(3, 4))


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
    return DistanceConfiguration(tuple(tuple(F(v) for v in row) for row in rows))


@given(grid_configs())
@settings(max_examples=200)
def test_sequential_bounds_never_empty(theta):
    d = lookup(theta)
    partial = []
    for _ in range(theta.n):
        lo, hi = admissible_interval(d, partial)
        assert lo <= hi
        partial.append(lo)
    assert admissible(d, partial)
    # the all-ones row is admissible over every configuration of diameter <= 1
    assert admissible(d, [F(1)] * theta.n)


# ----------------------------------------------------------- delta policy


def test_delta_for_values():
    assert delta_for(F(1)) == F(2, 3)
    assert delta_for(F(3, 10)) == F(1, 5)
    assert delta_for(F(1, 8)) == F(1, 12)


def test_delta_for_rejects_zero():
    with pytest.raises(ValueError):
        delta_for(F(0))


# ---------------------------------------------------------- Katetov repair


def katetov_point(m, theta, pts, delta):
    """m extended by the repaired Katetov point for theta over the anchors
    pts, with slack 3 delta / 2, and that point's distances to m."""
    k = theta.n - 1
    ext = katetov_extension(m, [theta.r[a][k] for a in range(k)], pts, 3 * delta / 2)
    return ext, tuple(ext.d(x, m.n) for x in range(m.n))


def test_katetov_exact_match():
    theta = config([[0, "1/2", "1/4"], ["1/2", 0, "3/4"], ["1/4", "3/4", 0]])
    m = space([[0, "1/2"], ["1/2", 0]])
    _, h = katetov_point(m, theta, (0, 1), F(0))
    assert h == (F(1, 4), F(3, 4))


def test_katetov_repair_example():
    theta = config([[0, "3/5", "3/10"], ["3/5", 0, "3/10"], ["3/10", "3/10", 0]])
    m = space([[0, "1/2"], ["1/2", 0]])
    _, h = katetov_point(m, theta, (0, 1), F(1, 10))
    assert h == (F(9, 20), F(9, 20))
    err = max(abs(h[a] - theta.r[a][2]) for a in range(2))
    assert err == F(3, 20)  # exactly 3 delta / 2


def test_katetov_empty_anchor_tuple():
    theta = config([[0]])
    m = space([[0, "1/2"], ["1/2", 0]])
    assert katetov_point(m, theta, (), F(1, 10))[1] == (F(1), F(1))


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
    ext, _ = katetov_point(m, theta, pts, delta)
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
    ext, _ = katetov_point(m, theta, (0, 1), F(0))
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


def scan_over(m, configs, eps):
    """An ObligationScan over m's denominator, and m as the integer space
    (n, dist) it reads: m's distances over the scan's L."""
    table = m.tables["d"]
    scan = ObligationScan(configs, eps, lattice(table.values()))
    d = {ij: v * scan.L for ij, v in table.items()}
    return scan, (m.n, lambda i, j: int(d[i, j]))


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
    scan, space = scan_over(m, configs, eps)
    for first_new in range(m.n + 1):
        assert list(scan.obligations(*space, first_new)) == (
            brute_force_obligations(m, configs, eps, first_new)
        )
    for t_idx, theta in enumerate(configs):
        for pts in product(range(m.n), repeat=theta.n - 1):
            assert scan.realized(t_idx, pts, *space) == any(
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


# ----------------------------------------- integer paths vs Fraction references


def reference_config_check(r):
    """The checks of a distance matrix in Fraction arithmetic: the message
    of the first that fails, in DistanceConfiguration's order, or None."""
    n = len(r)
    for row in r:
        if len(row) != n:
            return "distance matrix must be square"
    for i in range(n):
        if r[i][i] != 0:
            return f"nonzero diagonal at {i}"
        for j in range(n):
            if not F(0) <= r[i][j] <= F(1):
                return f"entry ({i},{j}) outside [0,1]"
            if r[i][j] != r[j][i]:
                return f"asymmetric at ({i},{j})"
    for k in range(n):
        for j in range(k):
            for i in range(j):
                if not abs(r[k][i] - r[k][j]) <= r[i][j] <= r[k][i] + r[k][j]:
                    return f"triangle violated by point {k}"
    return None


def entries():
    """Ints and Fractions of mixed denominators, a few outside [0, 1]."""
    return st.one_of(
        st.integers(-1, 2),
        st.builds(F, st.integers(-1, 9), st.integers(1, 8)),
    )


@st.composite
def candidate_matrices(draw):
    """Mostly symmetric matrices with a mostly zero diagonal, so that every
    check, the triangle test included, is reached; sometimes ragged."""
    n = draw(st.integers(0, 4))
    rows = [[draw(entries()) for _ in range(n)] for _ in range(n)]
    if draw(st.integers(0, 9)):
        for i in range(n):
            rows[i][i] = 0 if draw(st.integers(0, 9)) else rows[i][i]
            for j in range(i):
                if draw(st.integers(0, 9)):
                    rows[i][j] = rows[j][i]
    if n and not draw(st.integers(0, 9)):
        rows[draw(st.integers(0, n - 1))].append(F(0))
    return tuple(tuple(row) for row in rows)


@given(candidate_matrices())
@settings(max_examples=600)
def test_configuration_checks_match_fraction_reference(r):
    try:
        DistanceConfiguration(r)
        got = None
    except ValueError as exc:
        got = str(exc)
    assert got == reference_config_check(r)


def reference_all_configurations(n, denominator, include_zero):
    start = 0 if include_zero else 1
    grid = [F(k, denominator) for k in range(start, denominator + 1)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for values in product(grid, repeat=len(pairs)):
        rows = [[F(0)] * n for _ in range(n)]
        for (i, j), v in zip(pairs, values):
            rows[i][j] = rows[j][i] = v
        if reference_config_check(rows) is None:
            out.append(tuple(map(tuple, rows)))
    return out


@pytest.mark.parametrize("include_zero", [False, True])
def test_all_configurations_match_fraction_reference(include_zero):
    for n in (1, 2, 3):
        for denominator in range(1, 9):
            got = all_configurations(n, denominator, include_zero)
            assert [c.r for c in got] == (
                reference_all_configurations(n, denominator, include_zero)
            )
            assert all(type(v) is F for c in got for row in c.r for v in row)


@st.composite
def mixed_grid_instances(draw):
    """A space and configurations on different grids, and an eps whose
    delta is rarely a multiple of the common denominator's step."""
    m = from_distance_matrix(
        draw(grid_configs(max_n=6, denom=draw(st.sampled_from([2, 3, 4, 6, 8])))).r
    )
    configs = draw(
        st.lists(
            grid_configs(max_n=3, denom=draw(st.sampled_from([2, 3, 4, 5, 8]))),
            max_size=6,
        )
    )
    eps = draw(st.sampled_from([F(1, 5), F(1, 8), F(1, 16), F(1, 4), F(1, 3), F(2, 7)]))
    return m, configs, eps


@given(mixed_grid_instances())
@settings(max_examples=300)
def test_integer_scan_matches_fraction_reference(inst):
    m, configs, eps = inst
    scan, space = scan_over(m, configs, eps)
    for first_new in range(m.n + 1):
        assert list(scan.obligations(*space, first_new)) == (
            brute_force_obligations(m, configs, eps, first_new)
        )
    for t_idx, theta in enumerate(configs):
        for pts in product(range(m.n), repeat=theta.n - 1):
            assert scan.realized(t_idx, pts, *space) == any(
                config_error(theta, m, pts + (y,)) <= eps for y in range(m.n)
            )
    report = extension_property_report(m, eps, configs)
    failures = [
        (t_idx, pts)
        for t_idx, pts in brute_force_obligations(m, configs, eps, 0)
        if not any(config_error(configs[t_idx], m, pts + (y,)) <= eps for y in range(m.n))
    ]
    assert [(f.theta_index, f.pts) for f in report.failures] == failures


# ------------------------------------------- the scan and the axiom formula


@st.composite
def axiom_instances(draw):
    """A grid space of at most 6 points, one configuration of size 2 or 3
    on a grid of its own, and an eps whose axiom is a legal condition."""
    m = from_distance_matrix(
        draw(grid_configs(max_n=6, denom=draw(st.sampled_from([2, 3, 4, 6, 8])))).r
    )
    denom = draw(st.sampled_from([2, 3, 4, 6, 8]))
    theta = draw(grid_configs(max_n=3, denom=denom).filter(lambda t: t.n >= 2))
    eps = draw(st.sampled_from([F(1, 8), F(1, 4), F(1, 2), F(3, 4)]))
    return m, theta, eps


@given(axiom_instances())
@settings(max_examples=300)
def test_integer_scan_agrees_with_axiom_formula(inst):
    # the report asks for a completion wherever the restriction error is at
    # most delta, the axiom only where it is below delta
    m, theta, eps = inst
    delta = delta_for(eps)
    holds = check_condition(axiom_instance(theta, eps, delta), m, "finite").status == "holds"
    if extension_property_report(m, eps, [theta]).ok:
        assert holds
    if holds:
        scan, space = scan_over(m, [theta], eps)
        for _, pts in scan.obligations(*space):
            if config_error(restrict(theta), m, pts) < delta:
                assert scan.realized(0, pts, *space)


# ------------------------------------------ the scan's two integer readers


@st.composite
def builder_instances(draw):
    """A space grown on a MetricBuilder over mixed grids, configurations on
    other grids, an eps whose floor(eps * L) is never exact (no L here is
    a multiple of 9, 11, 13 or 49), and the scan over the builder's L."""
    grids = draw(
        st.lists(
            st.sampled_from([F(1, 3), F(1, 4), F(2, 5), F(1, 8)]),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    configs = draw(
        st.lists(
            grid_configs(max_n=3, denom=draw(st.sampled_from([2, 5, 6, 7]))),
            max_size=5,
        )
    )
    eps = draw(st.sampled_from([F(2, 9), F(3, 11), F(5, 13), F(10, 49), F(7, 9)]))
    scan = ObligationScan(configs, eps, lattice(grids))
    b = MetricBuilder(from_distance_matrix([[0]]), *grids, F(1, scan.L))
    assert b.L == scan.L
    for _ in range(draw(st.integers(0, 5))):
        row = []
        for _ in range(b.n):
            lo, hi = admissible_interval(b.d, row, b.L)
            (g,) = scaled([draw(st.sampled_from(grids))], b.L)
            lo_idx, hi_idx = -(-lo // g), hi // g
            row.append(lo if lo_idx > hi_idx else draw(st.integers(lo_idx, hi_idx)) * g)
        b.add(row)
    return b, scan, configs, eps


@given(builder_instances())
@settings(max_examples=200)
def test_builder_and_table_readers_agree(inst):
    # the scan reads a MetricBuilder's integers and a frozen structure's
    # table alike, and its verdicts do not depend on the L it is built over
    b, scan, configs, eps = inst
    m = b.freeze()
    table_scan, table = scan_over(m, configs, eps)
    tripled = ObligationScan(configs, eps, 3 * scan.L)
    assert tripled.L == 3 * scan.L

    def dist3(i, j):
        return 3 * b.dist(i, j)

    for first_new in range(b.n + 1):
        got = list(scan.obligations(b.n, b.dist, first_new))
        assert got == list(table_scan.obligations(*table, first_new))
        assert got == list(tripled.obligations(b.n, dist3, first_new))
    for t_idx, theta in enumerate(configs):
        for pts in product(range(b.n), repeat=theta.n - 1):
            got = scan.realized(t_idx, pts, b.n, b.dist)
            assert got == table_scan.realized(t_idx, pts, *table)
            assert got == tripled.realized(t_idx, pts, b.n, dist3)
    obligations = list(scan.obligations(b.n, b.dist))
    failures = [
        (t_idx, pts)
        for t_idx, pts in obligations
        if not scan.realized(t_idx, pts, b.n, b.dist)
    ]
    report = extension_property_report(m, eps, configs)
    assert report.total == len(obligations)
    assert [(f.theta_index, f.pts) for f in report.failures] == failures

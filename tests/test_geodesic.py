import numpy as np
import pytest
from numpy.testing import assert_allclose

from finslergo import (FinslerMetric, LFunction, LieAlgebra, MetricFamily,
                       ReductiveSpace, assemble, check_equivariance_batch,
                       closed_form_xi, criterion_residuals, geodesic_residual,
                       go_property_scan, k_coefficients, matrix_exponential,
                       orbit_curve, riemannian_metric, solve_batch,
                       solve_geodesic_graph)
from conftest import (embed, geodesic_bound, mixed_block_space,
                      non_lie_document, unit_m_samples)


@pytest.fixture
def finsler(s7):
    family = MetricFamily(s7.space, [[1.0, 1.0, 1.0], [2.0, 1.0, 4.0]])
    return FinslerMetric(family, LFunction.squared_sum([1.0, 3.0]))


# -- residual -----------------------------------------------------------------

def test_residual_zero_at_pure_x_vector(round_metric):
    y = np.zeros(7)
    y[0] = 1.0
    res = geodesic_residual(round_metric, y, np.zeros(4))
    assert_allclose(res, 0.0, atol=0.0)


def test_residual_vanishes_on_closed_form(s7, finsler):
    for y in unit_m_samples(s7.space, 50, seed=101):
        c = finsler.c_coefficients(y)
        xi = closed_form_xi(y, c)
        res = geodesic_residual(finsler, y, xi)
        assert np.abs(res).max() < 1e-10


def test_residual_detects_perturbation(s7, finsler):
    for y in unit_m_samples(s7.space, 10, seed=103):
        xi = closed_form_xi(y, finsler.c_coefficients(y))
        bad = xi.copy()
        bad[s7.algebra.index("H1")] += 0.1
        assert np.abs(geodesic_residual(finsler, y, bad)).max() > 1e-4


def test_residual_rejects_zero_base(round_metric):
    with pytest.raises(ValueError, match="zero"):
        geodesic_residual(round_metric, np.zeros(7), np.zeros(4))


# -- system assembly ------------------------------------------------------------

def one_system(metric, y):
    """A and b at one base vector, as a batch of one."""
    y = np.asarray(y, dtype=float)[None]
    a_mat, b_vec = assemble(metric.space, y, metric.c_coefficients(y))
    return a_mat[0], b_vec[0]


def test_system_reproduces_residual(s7, finsler):
    rng = np.random.default_rng(107)
    for y in unit_m_samples(s7.space, 20, seed=109):
        a_mat, b_vec = one_system(finsler, y)
        xi = rng.standard_normal(4)
        assert_allclose(a_mat @ xi - b_vec,
                        geodesic_residual(finsler, y, xi), atol=1e-13)


def test_system_rhs_zero_without_z_part(finsler):
    y = np.zeros(7)
    y[:4] = [0.3, -1.2, 0.5, 2.0]
    _, b_vec = one_system(finsler, y)
    # X rows vanish structurally; Z rows cancel a skew quadratic form and
    # leave only summation roundoff
    assert_allclose(b_vec[:4], 0.0, atol=0.0)
    assert_allclose(b_vec, 0.0, atol=1e-13)


def test_system_scaling_in_base_vector(finsler):
    y = np.random.default_rng(113).standard_normal(7)
    a1, b1 = one_system(finsler, y)
    a2, b2 = one_system(finsler, 2.0 * y)
    # induced weights are scale invariant, so A is linear and b quadratic
    assert_allclose(a2, 2.0 * a1, rtol=1e-12)
    assert_allclose(b2, 4.0 * b1, rtol=1e-12)


# -- solver --------------------------------------------------------------------

def test_solver_pure_x_vector_is_degenerate(round_metric):
    y = np.zeros(7)
    y[0] = 1.0
    result = solve_geodesic_graph(round_metric, y)
    assert_allclose(result.xi, 0.0, atol=0.0)
    assert result.residual_norm == 0.0
    assert result.rank == 3
    assert not result.unique


def test_solver_matches_closed_form_generically(s7, finsler):
    for y in unit_m_samples(s7.space, 100, seed=127):
        result = solve_geodesic_graph(finsler, y)
        assert result.unique
        xi = closed_form_xi(y, finsler.c_coefficients(y))
        assert np.abs(result.xi - xi).max() < 1e-8
        assert result.residual_norm < 1e-12


def test_solver_riemannian_family_matches_closed_form(s7):
    for c in ([1.0, 1.0, 1.0], [2.0, 3.0, 5.0], [0.5, 2.0, 9.0]):
        metric = riemannian_metric(s7.space, c)
        for y in unit_m_samples(s7.space, 30, seed=131):
            result = solve_geodesic_graph(metric, y)
            assert result.unique
            assert np.abs(result.xi - closed_form_xi(y, c)).max() < 1e-8


def test_solver_scale_equivariance(s7, finsler):
    for y in unit_m_samples(s7.space, 20, seed=137):
        base = solve_geodesic_graph(finsler, y)
        for lam in (0.5, 3.0):
            scaled = solve_geodesic_graph(finsler, lam * y)
            assert np.abs(scaled.xi - lam * base.xi).max() \
                < 1e-9 * max(1.0, np.abs(base.xi).max())


def test_solver_frozen_weights_bridge(s7, finsler):
    # solving the composite metric equals solving the single metric whose
    # block weights are frozen at the evaluation point
    for y in unit_m_samples(s7.space, 20, seed=139):
        c = finsler.c_coefficients(y)
        frozen = riemannian_metric(s7.space, c)
        a = solve_geodesic_graph(finsler, y)
        b = solve_geodesic_graph(frozen, y)
        assert np.abs(a.xi - b.xi).max() < 1e-10


def test_result_json_shape(round_metric):
    y = np.zeros(7)
    y[0] = 1.0
    y[4] = 1.0
    doc = solve_geodesic_graph(round_metric, y).to_json_dict()
    assert set(doc) == {"y", "xi", "residual", "rank", "unique"}
    assert len(doc["y"]) == 7
    assert len(doc["xi"]) == 4


# -- geodesic vector check ---------------------------------------------------------

def _max_residual(metric, y, xi_h):
    return np.abs(geodesic_residual(metric, y, xi_h)).max()


def test_solved_vector_is_geodesic(s7, finsler):
    for y in unit_m_samples(s7.space, 20, seed=149):
        result = solve_geodesic_graph(finsler, y)
        assert _max_residual(finsler, y, result.xi_h) <= geodesic_bound(
            finsler, y)


def test_offset_vector_is_not_geodesic(s7, finsler):
    h1 = s7.algebra.basis_vector("H1")[s7.space.h_indices]
    for y in unit_m_samples(s7.space, 10, seed=151):
        result = solve_geodesic_graph(finsler, y)
        assert _max_residual(finsler, y, result.xi_h + h1) > geodesic_bound(
            finsler, y)


def test_z1_with_w_multiple_is_geodesic(s7, round_metric):
    alg, space = s7.algebra, s7.space
    c = round_metric.c_coefficients(alg.basis_vector("Z1")[:7])
    k3 = k_coefficients(c)[2]
    w = alg.basis_vector("Z1") + k3 * alg.basis_vector("W")
    y = w[space.m_indices]
    assert _max_residual(round_metric, y, w[space.h_indices]) \
        <= geodesic_bound(round_metric, y)


# -- equivariance ---------------------------------------------------------------

def test_equivariance_at_zero_time(s7, finsler):
    y = unit_m_samples(s7.space, 1, seed=157)[0]
    dev, _, _ = check_equivariance_batch(finsler, y[None], [[1.0, 0, 0, 0]],
                                         [0.0])
    assert dev[0] == 0.0


@pytest.mark.parametrize("h_label,t", [("H1", 0.3), ("W", 0.7)])
def test_equivariance_along_named_generators(s7, finsler, h_label, t):
    h = s7.space.coerce_h(s7.algebra.basis_vector(h_label))
    y = unit_m_samples(s7.space, 10, seed=163)
    dev, unique_src, unique_dst = check_equivariance_batch(
        finsler, y, np.tile(h, (10, 1)), np.full(10, t))
    assert unique_src.all() and unique_dst.all()
    assert np.all(dev < 1e-8)


def test_equivariance_reports_degenerate_points(round_metric):
    y = np.zeros(7)
    y[0] = 1.0  # no Z-part: the solved correction is 0 on both sides
    dev, unique_src, _ = check_equivariance_batch(
        round_metric, y[None], [[1.0, 0, 0, 0]], [0.4])
    assert not unique_src[0]
    assert dev[0] < 1e-12


def test_equivariance_rejects_a_split_h_does_not_preserve():
    # [e1, e2] = e1: ad(e1) sends e2 in m to e1 in h
    alg = LieAlgebra(["e1", "e2"], {("e1", "e2"): {"e1": 1.0}})
    space = ReductiveSpace(alg, h=["e1"], blocks=[["e2"]])
    with pytest.raises(ValueError,
                       match=r"the space fails checks \['reductivity'\]"):
        check_equivariance_batch(riemannian_metric(space, [1.0]), [[1.0]],
                                 [[1.0]], [0.5])


def _split_calls(space):
    """Every entry point that takes a space and assumes h acts on m."""
    ones = np.ones((1, space.dim_m))
    c = np.ones((1, space.n_blocks))
    return {
        "MetricFamily": lambda: MetricFamily(space, c),
        "riemannian_metric": lambda: riemannian_metric(space, c[0]),
        "solve_batch": lambda: solve_batch(space, ones, c),
        "assemble": lambda: assemble(space, ones, c),
        "criterion_residuals": lambda: criterion_residuals(
            space, ones, c, np.zeros((1, space.dim_h))),
    }


def test_a_split_that_fails_its_structural_checks_is_not_solved(s7):
    # [e1, e2] = e1 leaves m (reductivity); [X1, X2] leaves h (subalgebra);
    # H2 carries the block [X1, X2] into [X3, X4] (invariance); a Z1 form
    # of -1 is indefinite; [Z1, Z2] = 3 Z3 breaks the Jacobi identity
    alg = LieAlgebra(["e1", "e2"], {("e1", "e2"): {"e1": 1.0}})
    rest = ["X3", "X4", "Z1", "Z2", "Z3", "H1", "H2", "H3", "W"]
    spaces = {"reductivity": ReductiveSpace(alg, h=["e1"], blocks=[["e2"]]),
              "subalgebra": ReductiveSpace(s7.algebra, h=["X1", "X2"],
                                           blocks=[rest]),
              "invariance": mixed_block_space(s7),
              "alpha_positive_definite": ReductiveSpace(
                  s7.algebra, h=s7.space.h_labels(),
                  blocks=[b.tolist() for b in s7.space.blocks],
                  alpha=[np.eye(4), [[-1.0]], np.eye(2)]),
              "jacobi": ReductiveSpace.from_json_dict(non_lie_document(s7))}
    for failed, space in spaces.items():
        assert failed in space.validate().failed()  # still reported
        for name, call in _split_calls(space).items():
            with pytest.raises(ValueError, match=(
                    rf"^the space fails checks \[.*'{failed}'.*\]$")):
                call()
    for call in _split_calls(s7.space).values():
        call()


def test_validate_is_computed_once_per_space(s7, monkeypatch):
    # the report is computed on first use, then every metric, solve and
    # further validate() reads it; the catalog build computes none of it
    expect, calls = s7.space.validate(), []
    jacobi = LieAlgebra.check_jacobi
    monkeypatch.setattr(LieAlgebra, "check_jacobi",
                        lambda alg, tol: calls.append(tol) or jacobi(alg, tol))
    space = ReductiveSpace(s7.algebra, h=s7.space.h_labels(),
                           blocks=[b.tolist() for b in s7.space.blocks])
    assert calls == []
    report = space.validate()
    for call in _split_calls(space).values():
        call()
    metric = riemannian_metric(space, [1.0, 2.0, 4.0])
    solve_geodesic_graph(metric, [0.3, -0.9, 0.4, 1.1, 0.6, -0.2, 0.8])
    go_property_scan(metric, 5, 0)
    assert space.validate() is report and report.passed
    assert report == expect and len(calls) == 1


def test_equivariance_with_trivial_isotropy_is_exact():
    space = ReductiveSpace(so3_algebra(), h=[],
                           blocks=[["e1"], ["e2"], ["e3"]])
    metric = riemannian_metric(space, [1.0, 2.0, 4.0])
    y = np.random.default_rng(181).standard_normal((5, 3))
    dev, unique_src, unique_dst = check_equivariance_batch(
        metric, y, np.zeros((5, 0)), np.linspace(-1.0, 1.0, 5))
    assert np.array_equal(dev, np.zeros(5))
    assert unique_src.all() and unique_dst.all()


def test_isotropy_exponential_is_block_diagonal(s7):
    # on the draws of acceptance criterion 7, exp(t ad(H)) of the whole
    # algebra keeps m and h apart exactly, and its blocks are the
    # exponentials of ad(H) restricted to m and to h
    c, m, h = s7.algebra.structure, s7.space.m_indices, s7.space.h_indices
    rng = np.random.default_rng(239)
    for _ in range(100):
        rng.standard_normal(7)
        hv, t = rng.standard_normal(4), float(rng.uniform(-1.0, 1.0))
        full = matrix_exponential(s7.algebra.ad_operator(
            embed(s7.space, hv, h)), t)
        assert not full[np.ix_(m, h)].any() and not full[np.ix_(h, m)].any()
        for part in (m, h):
            block = matrix_exponential(
                np.einsum("i,ijk->kj", hv, c[np.ix_(h, part, part)]), t)
            assert np.abs(full[np.ix_(part, part)] - block).max() <= 1e-14


# -- scans -------------------------------------------------------------------------

def test_scan_catalog_residuals_tiny(finsler):
    report = go_property_scan(finsler, 200, seed=5)
    assert report.max_residual < 1e-9
    assert report.n_samples == 200


def test_scan_riemannian_family_member(s7):
    metric = riemannian_metric(s7.space, [1.0, 7.0, 0.3])
    report = go_property_scan(metric, 200, seed=7)
    assert report.max_residual < 1e-9


def test_scan_is_deterministic(finsler):
    r1 = go_property_scan(finsler, 50, seed=9)
    r2 = go_property_scan(finsler, 50, seed=9)
    assert list(r1.to_csv_lines()) == list(r2.to_csv_lines())
    header = next(r1.to_csv_lines())
    assert header == "X1,X2,X3,X4,Z1,Z2,Z3,residual"


def test_scan_rejects_zero_samples(finsler):
    with pytest.raises(ValueError):
        go_property_scan(finsler, 0, seed=1)


def test_scan_abelian_algebra_trivial():
    alg = LieAlgebra(["a", "b", "c"], {})
    space = ReductiveSpace(alg, h=[], blocks=[["a", "b", "c"]])
    metric = riemannian_metric(space, [1.0])
    report = go_property_scan(metric, 25, seed=3)
    assert report.max_residual == 0.0
    result = solve_geodesic_graph(metric, np.array([1.0, 2.0, 3.0]))
    assert result.xi.shape == (3,)
    assert_allclose(result.xi, 0.0, atol=0.0)
    assert result.unique


def so3_algebra():
    return LieAlgebra(
        ["e1", "e2", "e3"],
        {("e1", "e2"): {"e3": 1.0},
         ("e2", "e3"): {"e1": 1.0},
         ("e1", "e3"): {"e2": -1.0}},
    )


def test_symmetric_space_has_zero_correction():
    # two-sphere: brackets of complement vectors land in the isotropy line,
    # so the solved correction vanishes for every base vector
    space = ReductiveSpace(so3_algebra(), h=["e3"], blocks=[["e1", "e2"]])
    assert space.validate().passed
    metric = riemannian_metric(space, [2.5])
    rng = np.random.default_rng(173)
    for _ in range(20):
        y = rng.standard_normal(2)
        result = solve_geodesic_graph(metric, y)
        assert result.residual_norm < 1e-14
        assert np.abs(result.xi).max() < 1e-14


def test_non_geodesic_orbit_metric_is_reported_not_raised():
    # anisotropic left-invariant metric with trivial isotropy: nothing can
    # compensate the criterion, so residuals are genuinely nonzero
    space = ReductiveSpace(so3_algebra(), h=[],
                           blocks=[["e1"], ["e2"], ["e3"]])
    metric = riemannian_metric(space, [1.0, 1.0, 4.0])
    y = np.array([0.5, 1.0, 1.0])
    result = solve_geodesic_graph(metric, y)
    # first criterion component is (1 - 4) * y2 * y3
    assert_allclose(geodesic_residual(metric, y, result.xi_h)[0], -3.0,
                    rtol=1e-12)
    assert result.residual_norm > 1.0
    report = go_property_scan(metric, 50, seed=19)
    assert report.max_residual > 0.1
    assert _max_residual(metric, y, result.xi_h) > geodesic_bound(metric, y)


def test_isotropic_metric_on_group_is_bi_invariant():
    space = ReductiveSpace(so3_algebra(), h=[],
                           blocks=[["e1"], ["e2"], ["e3"]])
    metric = riemannian_metric(space, [2.0, 2.0, 2.0])
    report = go_property_scan(metric, 50, seed=23)
    assert report.max_residual < 1e-14


def test_solver_residual_invariant_across_scales(s7, finsler):
    # relative form: residual below 1e-9 * F(y)^2 * (largest bracket entry)
    b_max = np.abs(s7.algebra.structure).max()
    base = unit_m_samples(s7.space, 10, seed=179)
    for scale in (0.01, 1.0, 100.0):
        for y in scale * base:
            result = solve_geodesic_graph(finsler, y)
            bound = 1e-9 * finsler.f_value(y) ** 2 * b_max
            assert result.residual_norm < bound


# -- orbit curves --------------------------------------------------------------------

def test_an_infinite_time_is_refused_without_a_warning(s7, round_metric):
    # exp(inf * 0) used to warn "invalid value encountered in multiply"
    # before its ValueError; the tests turn a RuntimeWarning into an error
    with pytest.raises(ValueError, match="finite"):
        orbit_curve(s7.realization, np.zeros(11), [np.inf])
    y = np.ones((1, 7))
    with pytest.raises(ValueError, match="finite"):
        check_equivariance_batch(round_metric, y, np.zeros((1, 4)), [np.inf])


def test_orbit_starts_at_base_point(s7):
    w = np.zeros(11)
    w[0] = 1.0
    pts = orbit_curve(s7.realization, w, [0.0])
    assert_allclose(pts[0], s7.realization.base_point, atol=0.0)


def test_orbit_stays_on_sphere(s7, finsler):
    rng = np.random.default_rng(167)
    for _ in range(5):
        y = rng.standard_normal(7)
        result = solve_geodesic_graph(finsler, y)
        pts = orbit_curve(s7.realization, result.y + result.xi,
                          np.linspace(0.0, 7.0, 60))
        assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-10


def test_orbit_isotropy_vector_fixes_base_point(s7):
    w = s7.algebra.basis_vector("H2") + 0.5 * s7.algebra.basis_vector("W")
    pts = orbit_curve(s7.realization, w, np.linspace(0.0, 3.0, 10))
    assert np.abs(pts - s7.realization.base_point).max() < 1e-12


def test_orbit_unit_x_vector_has_period_two_pi(s7, round_metric):
    y = np.zeros(7)
    y[0] = 1.0
    result = solve_geodesic_graph(round_metric, y)
    assert_allclose(result.xi, 0.0, atol=0.0)
    pts = orbit_curve(s7.realization, result.y, [2.0 * np.pi])
    assert np.abs(pts[0] - s7.realization.base_point).max() < 1e-9


def test_orbit_equals_the_per_t_stack_bit_for_bit(s7, finsler):
    result = solve_geodesic_graph(finsler, unit_m_samples(s7.space, 1, 173)[0])
    w = result.y + result.xi
    t_values = np.linspace(0.0, 2.0 * np.pi, 50)
    gen = s7.realization.generator(w)
    expect = np.stack([matrix_exponential(gen, t) @ s7.realization.base_point
                       for t in t_values])
    assert np.array_equal(orbit_curve(s7.realization, w, t_values), expect)


def test_orbit_rejects_t_values_of_more_than_one_axis(s7):
    w = s7.algebra.basis_vector("X1")
    assert orbit_curve(s7.realization, w, 0.5).shape == (1, 8)
    for t_values in ([[0.1, 0.2]], np.zeros((3, 1))):
        with pytest.raises(ValueError, match="t_values must be a scalar or "
                                             "1-D, got shape"):
            orbit_curve(s7.realization, w, t_values)


def test_orbit_rejects_wrong_length(s7):
    with pytest.raises(ValueError, match="coordinates"):
        orbit_curve(s7.realization, np.ones(7), [0.0])

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from finslergo import (L_CONDITIONS, FinslerMetric, LFunction, MetricFamily,
                       degree_one_sum, l_function_from_spec, riemannian_metric,
                       validate_l)
from conftest import (SCALE_SPECS, alpha_gram, family_product,
                      fd_fundamental, weighted_gram)


def fd_partials(lf, u, step=1e-6):
    """Independent central-difference oracle for the combiner gradient."""
    out = np.empty(lf.arity)
    for i in range(lf.arity):
        up, um = u.copy(), u.copy()
        up[i] += step
        um[i] -= step
        out[i] = (lf.value(up) - lf.value(um)) / (2.0 * step)
    return out


@pytest.fixture
def two_metric(s7):
    family = MetricFamily(s7.space, [[1.0, 1.0, 1.0], [2.0, 1.0, 4.0]])
    return FinslerMetric(family, LFunction.squared_sum([1.0, 3.0]))


# -- combiner validation ----------------------------------------------------------

def test_sum_of_squares_passes_all_conditions():
    report = validate_l(LFunction.sum_of_squares([1.0, 1.0]),
                        sample_count=200, seed=0)
    assert report.passed


def test_squared_sum_passes_with_rank_one_hessian():
    lf = LFunction.squared_sum([1.0, 2.0])
    report = validate_l(lf, sample_count=200, seed=0)
    assert report.passed
    # Hessian is constant 2*w*w^T: [[2, 4], [4, 8]] with eigenvalues {0, 10}
    from finslergo.finsler_metric import _fd_hessian
    hess = _fd_hessian(lf, np.array([0.7, 1.3]))
    assert_allclose(hess, [[2.0, 4.0], [4.0, 8.0]], atol=1e-8)
    assert_allclose(np.linalg.eigvalsh(hess), [0.0, 10.0], atol=1e-7)


def test_degree_one_sum_fails_exactly_homogeneity():
    report = validate_l(degree_one_sum([1.0, 1.0]), sample_count=200, seed=0)
    assert report.failed() == ["ii"]


def documented_draws(k, n, seed):
    """The samples of validate_l, then its boundary points: the first 16
    samples, each with one coordinate, drawn after all samples, zeroed."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.05, 3.0, size=(n, k))
    faces = points[:min(16, n) if k > 1 else 0].copy()
    for u in faces:
        u[rng.integers(k)] = 0.0
    return points, faces


@pytest.mark.parametrize("spec", ["sum_sq:1", "sum_sq:1,2,3", "sq_sum:1,3",
                                  "sum:1,1"])
@pytest.mark.parametrize("n", [1, 20, 64])
def test_validate_l_witnesses_are_rows_of_the_draws(spec, n):
    lf = l_function_from_spec(spec)
    for seed in range(3):
        points, faces = documented_draws(lf.arity, n, seed)
        report = validate_l(lf, sample_count=n, seed=seed)
        rows = [tuple(u) for u in points]
        wit = {name: np.array(report[name].witness)
               for name in ("i", "iii", "iv", "v")}
        assert report["i"].witness in rows + [tuple(u) for u in faces]
        assert lf.value(wit["i"]) == report["i"].worst
        for name in ("iii", "iv", "v"):
            assert report[name].witness in rows
        assert lf.grad(wit["iii"]).min() == report["iii"].worst
        assert lf.grad(wit["v"]).sum() == report["v"].worst
        assert report["i"].worst == min(lf.value(np.concatenate([points,
                                                                 faces])))
        hom = report["ii"]
        if hom.worst == 0.0:
            assert hom.witness == ()
        else:
            assert hom.witness in rows


def loop_validate(lf, n, seed):
    """Per-sample reference loop: (worst, witness) of conditions i..v."""
    points, faces = documented_draws(lf.arity, n, seed)
    worst = {"i": (np.inf, ()), "ii": (0.0, ()), "iii": (np.inf, ()),
             "iv": (np.inf, ()), "v": (np.inf, ())}

    def lower(key, value, u):
        if value < worst[key][0]:
            worst[key] = (float(value), tuple(float(x) for x in u))

    for u in points:
        val = lf.value(u)
        lower("i", val, u)
        for t in (0.5, 2.0, 10.0):
            dev = abs(lf.value(t * u) - t * t * val) / max(t * t * val, 1e-300)
            lower("ii", -dev, u)
        lower("iii", lf.grad(u).min(), u)
        lower("v", lf.grad(u).sum(), u)
        hess = np.empty((lf.arity, lf.arity))
        for i in range(lf.arity):
            up, um = u.copy(), u.copy()
            up[i] += 1e-4
            um[i] -= 1e-4
            hess[:, i] = (lf.grad(up) - lf.grad(um)) / 2e-4
        lower("iv", np.linalg.eigvalsh(0.5 * (hess + hess.T)).min(), u)
    for u in faces:
        lower("i", lf.value(u), u)
    worst["ii"] = (-worst["ii"][0], worst["ii"][1])
    return worst


@pytest.mark.parametrize("n", [1, 17, 200])
def test_validate_l_equals_the_per_sample_loop(n):
    custom = LFunction.custom(lambda u: float(u @ u + u[0] * u[1]),
                              lambda u: 2.0 * u + u[::-1], arity=2)
    for lf in (LFunction.sum_of_squares([1.0]),
               LFunction.sum_of_squares([1.0, 2.0, 3.0]),
               LFunction.squared_sum([1.0, 3.0]), degree_one_sum([1.0, 1.0]),
               custom):
        for seed in range(3):
            report = validate_l(lf, sample_count=n, seed=seed)
            got = {c.name: (c.worst, c.witness) for c in report.checks}
            assert got == loop_validate(lf, n, seed)


def test_zero_deviation_condition_has_empty_witness():
    # L(u) = u^2 at these two samples scales exactly by 0.25, 4 and 100
    report = validate_l(LFunction.sum_of_squares([1.0]), sample_count=2,
                        seed=0)
    assert report.passed
    assert report["ii"].worst == 0.0 and report["ii"].witness == ()
    assert all(len(report[name].witness) == 1
               for name in ("i", "iii", "iv", "v"))


def test_validate_l_report_names_and_tolerances():
    report = validate_l(degree_one_sum([1.0, 1.0]), sample_count=50, seed=3)
    assert [c.name for c in report.checks] == ["i", "ii", "iii", "iv", "v"]
    assert list(L_CONDITIONS) == ["i", "ii", "iii", "iv", "v"]
    assert not report.passed and report.failed() == ["ii"]
    assert report["ii"].tol == 1e-10 and report["iv"].tol == 1e-8
    assert all(type(c.passed) is bool for c in report.checks)
    with pytest.raises(KeyError):
        report["vi"]


def test_validate_l_rejects_zero_samples():
    with pytest.raises(ValueError):
        validate_l(LFunction.sum_of_squares([1.0]), sample_count=0)


def test_custom_combiner_gradient_checked():
    good = LFunction.custom(lambda u: float(u[0] ** 2 + 2 * u[1] ** 2),
                            lambda u: np.array([2 * u[0], 4 * u[1]]), arity=2)
    assert validate_l(good, sample_count=50, seed=1).passed
    with pytest.raises(ValueError, match="finite differences"):
        LFunction.custom(lambda u: float(u[0] ** 2),
                         lambda u: np.array([7.0]), arity=1)


def test_weights_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        LFunction.sum_of_squares([1.0, 0.0])
    with pytest.raises(ValueError, match="positive"):
        LFunction.squared_sum([-1.0])


# -- norm values -----------------------------------------------------------------

def test_f_zero_vector_is_zero(round_metric):
    assert round_metric.f_value(np.zeros(7)) == 0.0


def test_f_riemannian_recovers_norm(s7):
    metric = riemannian_metric(s7.space, [1.0, 2.0, 3.0])
    family = metric.family
    rng = np.random.default_rng(2)
    for _ in range(10):
        y = rng.standard_normal(7)
        assert_allclose(metric.f_value(y),
                        np.sqrt(family_product(family, 0, y, y)), rtol=1e-14)


def test_f_two_copies_squared_sum_example(s7):
    family = MetricFamily(s7.space, [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    metric = FinslerMetric(family, LFunction.squared_sum([1.0, 1.0]))
    y = np.zeros(7)
    y[0] = 1.0  # X1
    assert_allclose(metric.f_value(y), 2.0, rtol=1e-14)


def test_f_rejects_isotropy_components(round_metric):
    y = np.zeros(11)
    y[0] = 1.0
    y[7] = 0.5  # H1 component
    with pytest.raises(ValueError, match="project"):
        round_metric.f_value(y)


@settings(max_examples=20, deadline=None)
@given(scale=st.sampled_from([0.5, 2.0, 10.0]), seed=st.integers(0, 1000))
def test_f_positively_homogeneous(scale, seed):
    from finslergo import build_s7_space
    s7 = build_s7_space()
    family = MetricFamily(s7.space, [[1.0, 1.0, 1.0], [2.0, 1.0, 4.0]])
    metric = FinslerMetric(family, LFunction.squared_sum([1.0, 3.0]))
    y = np.random.default_rng(seed).standard_normal(7)
    assert_allclose(metric.f_value(scale * y), scale * metric.f_value(y),
                    rtol=1e-12)


QUICK_Y = np.array([0.3, -0.9, 0.4, 1.1, 0.6, -0.2, 0.8])


def _quick_start_metric(s7, spec):
    family = MetricFamily(s7.space, [[1.0, 1.0, 1.0], [2.0, 1.0, 4.0]])
    return FinslerMetric(family, l_function_from_spec(spec))


@pytest.mark.parametrize("spec", SCALE_SPECS)
def test_f_is_the_unscaled_formula_where_that_is_finite(s7, spec):
    metric = _quick_start_metric(s7, spec)
    rng = np.random.default_rng(21)
    ys = (rng.standard_normal((1000, 7))
          * 10.0 ** rng.uniform(-100, 100, (1000, 1)))
    direct = [float(np.sqrt(metric.lf.value(metric._norms(y)))) for y in ys]
    assert [metric.f_value(y) for y in ys] == direct


@pytest.mark.parametrize("spec", SCALE_SPECS)
def test_f_scales_exactly_by_powers_of_two(s7, spec):
    metric = _quick_start_metric(s7, spec)
    f = metric.f_value(QUICK_Y)
    for k in range(-900, 900):
        assert metric.f_value(np.ldexp(QUICK_Y, k)) == np.ldexp(f, k)
    for scale in (1e300, 1e-300):
        value = metric.f_value(scale * QUICK_Y)
        assert np.isfinite(value) and value > 0.0
        assert_allclose(value, scale * f, rtol=1e-14)


@pytest.mark.parametrize("spec, exact", [
    ("sq_sum:1e160,1", lambda u: 1e160 * u[0] + u[1]),
    ("sq_sum:1e-300,1e-300", lambda u: 1e-300 * (u[0] + u[1])),
    ("sum_sq:1e300,1", lambda u: np.sqrt(1e300) * u[0]),
    ("sum_sq:1e-300,1", lambda u: u[1])])
def test_f_is_finite_for_extreme_weights(s7, spec, exact):
    metric = _quick_start_metric(s7, spec)
    u = metric._norms(QUICK_Y)
    assert_allclose(metric.f_value(QUICK_Y), exact(u), rtol=1e-15)


# -- expansion coefficients ----------------------------------------------------------

def test_b_constant_for_sum_of_squares(s7):
    weights = [1.0, 2.5]
    family = MetricFamily(s7.space, [[1.0, 1.0, 1.0], [2.0, 1.0, 4.0]])
    metric = FinslerMetric(family, LFunction.sum_of_squares(weights))
    rng = np.random.default_rng(3)
    for _ in range(10):
        assert_allclose(metric.b_coefficients(rng.standard_normal(7)),
                        weights, rtol=1e-14)


def test_b_matches_fd_partials_for_squared_sum(two_metric):
    rng = np.random.default_rng(5)
    for _ in range(10):
        y = rng.standard_normal(7)
        u = two_metric._norms(y)
        expect = fd_partials(two_metric.lf, u) / (2.0 * u)
        assert_allclose(two_metric.b_coefficients(y), expect, rtol=1e-8)


def test_b_squared_sum_ratio_form(s7):
    # unit weights: B_1 = (F_1 + F_2) / F_1 evaluated at the two norms
    family = MetricFamily(s7.space, [[1.0, 1.0, 1.0], [2.0, 1.0, 4.0]])
    metric = FinslerMetric(family, LFunction.squared_sum([1.0, 1.0]))
    rng = np.random.default_rng(6)
    for _ in range(10):
        y = rng.standard_normal(7)
        f1 = np.sqrt(family_product(family, 0, y, y))
        f2 = np.sqrt(family_product(family, 1, y, y))
        assert_allclose(metric.b_coefficients(y)[0], (f1 + f2) / f1,
                        rtol=1e-13)


def test_b_is_one_for_riemannian(s7):
    metric = riemannian_metric(s7.space, [2.0, 3.0, 5.0])
    y = np.random.default_rng(7).standard_normal(7)
    assert_allclose(metric.b_coefficients(y), [1.0], rtol=1e-14)


def test_b_rejects_zero_vector(round_metric):
    with pytest.raises(ValueError, match="zero vector"):
        round_metric.b_coefficients(np.zeros(7))


def test_euler_identity(two_metric):
    family = two_metric.family
    rng = np.random.default_rng(8)
    for _ in range(200):
        y = rng.standard_normal(7)
        b = two_metric.b_coefficients(y)
        total = sum(b[j] * family_product(family, j, y, y) for j in range(2))
        fsq = two_metric.f_value(y) ** 2
        assert abs(total - fsq) <= 1e-10 * fsq


def test_c_equals_row_for_riemannian(s7):
    row = [0.7, 2.0, 9.0]
    metric = riemannian_metric(s7.space, row)
    y = np.random.default_rng(9).standard_normal(7)
    assert_allclose(metric.c_coefficients(y), row, rtol=1e-14)


def test_c_scale_invariant(two_metric):
    y = np.random.default_rng(10).standard_normal(7)
    for lam in (0.5, 2.0, 10.0):
        assert_allclose(two_metric.c_coefficients(lam * y),
                        two_metric.c_coefficients(y), rtol=1e-12)


def test_c_from_equal_rows_two_readings(s7):
    # a = [(1,1,1), (2,2,2)]: the weights of the combiner set B, then
    # C_i = B_1 * 1 + B_2 * 2 for every block
    family = MetricFamily(s7.space, [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    y = np.random.default_rng(11).standard_normal(7)
    metric_a = FinslerMetric(family, LFunction.sum_of_squares([1.0, 1.0]))
    assert_allclose(metric_a.c_coefficients(y), [3.0, 3.0, 3.0], rtol=1e-13)
    metric_b = FinslerMetric(family, LFunction.sum_of_squares([1.0, 2.0]))
    assert_allclose(metric_b.c_coefficients(y), [5.0, 5.0, 5.0], rtol=1e-13)


def test_c_positive_for_all_builtin_kinds(s7):
    family = MetricFamily(s7.space, [[1.0, 0.3, 2.0], [2.0, 1.0, 0.4]])
    rng = np.random.default_rng(12)
    for lf in (LFunction.sum_of_squares([1.0, 2.0]),
               LFunction.squared_sum([1.0, 3.0])):
        metric = FinslerMetric(family, lf)
        for _ in range(50):
            assert np.all(metric.c_coefficients(rng.standard_normal(7)) > 0)


# -- fundamental tensor --------------------------------------------------------------

def test_contraction_with_base_vector_is_f_squared(two_metric):
    rng = np.random.default_rng(13)
    for _ in range(20):
        y = rng.standard_normal(7)
        assert_allclose(two_metric.fundamental_contraction(y, y),
                        two_metric.f_value(y) ** 2, rtol=1e-12)


def test_contraction_riemannian_case(s7):
    metric = riemannian_metric(s7.space, [1.0, 2.0, 3.0])
    rng = np.random.default_rng(14)
    for _ in range(10):
        y, v = rng.standard_normal((2, 7))
        assert_allclose(metric.fundamental_contraction(y, v),
                        family_product(metric.family, 0, y, v), rtol=1e-12)


def test_contraction_linear_in_second_slot(two_metric):
    rng = np.random.default_rng(15)
    y, v, w = rng.standard_normal((3, 7))
    lhs = two_metric.fundamental_contraction(y, v + 3.0 * w)
    rhs = (two_metric.fundamental_contraction(y, v)
           + 3.0 * two_metric.fundamental_contraction(y, w))
    assert_allclose(lhs, rhs, rtol=1e-11)


def test_contraction_forms_agree(two_metric):
    # the per-metric and per-block expansions are rearrangements
    rng = np.random.default_rng(16)
    space = two_metric.space
    for _ in range(100):
        y, v = rng.standard_normal((2, 7))
        b = two_metric.b_coefficients(y)
        metric_form = sum(
            b[j] * family_product(two_metric.family, j, y, v) for j in range(2))
        c = two_metric.c_coefficients(y)
        block_form = float(y @ weighted_gram(space, c) @ v)
        scale = max(abs(metric_form), abs(block_form), 1e-30)
        assert abs(metric_form - block_form) <= 1e-12 * max(scale, 1.0)
        assert_allclose(two_metric.fundamental_contraction(y, v), metric_form,
                        rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("spec", SCALE_SPECS)
def test_contraction_scales_exactly_by_powers_of_two(s7, spec):
    # C has degree 0, so the scale of y alone never breaks the contraction
    metric = _quick_start_metric(s7, spec)
    v = np.ones(7)
    g = metric.fundamental_contraction(QUICK_Y, v)
    for k in range(-500, 501, 100):
        assert (metric.fundamental_contraction(2.0 ** k * QUICK_Y, v)
                == 2.0 ** k * g)


def test_contraction_is_finite_where_the_squared_norm_overflows(s7):
    metric = _quick_start_metric(s7, "sq_sum:1,3")
    v = np.ones(7)
    value = metric.fundamental_contraction(1e155 * QUICK_Y, v)
    assert_allclose(value, 1e155 * metric.fundamental_contraction(QUICK_Y, v),
                    rtol=1e-14)
    assert 6.4e156 < value < 6.5e156


@pytest.mark.parametrize("v, value", [(QUICK_Y, "inf"), (np.ones(7), "nan")],
                         ids=["same-sign", "mixed-sign"])
def test_a_contraction_that_overflows_raises_without_a_warning(s7, v, value):
    # C ~ 1e300 is finite, but C alpha(y, .) at y ~ 1e120 is not; it used to
    # return inf, or nan where terms of both signs overflow, with a warning
    metric = _quick_start_metric(s7, "sum_sq:1e300,1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"g_y\(y, v\) is not finite: the "
                                 "contraction overflows"):
            metric.fundamental_contraction(1e120 * QUICK_Y, v)
    c = metric.c_coefficients(QUICK_Y)  # of degree 0 in y
    with np.errstate(all="ignore"):  # the product the check refuses
        raw = metric.space.weighted_apply(1e120 * QUICK_Y, c) @ v
    assert repr(float(raw)) == value


def test_fd_oracle_riemannian(s7):
    metric = riemannian_metric(s7.space, [1.0, 2.0, 3.0])
    rng = np.random.default_rng(17)
    for _ in range(20):
        y, v = rng.standard_normal((2, 7))
        assert_allclose(fd_fundamental(metric, y, v, step=1e-4),
                        family_product(metric.family, 0, y, v), atol=1e-8)


def test_fd_oracle_agreement_sweep(two_metric):
    rng = np.random.default_rng(18)
    gram = alpha_gram(two_metric.space)
    for _ in range(200):
        y, v = rng.standard_normal((2, 7))
        y /= np.sqrt(y @ gram @ y)
        v /= np.sqrt(v @ gram @ v)
        exact = two_metric.fundamental_contraction(y, v)
        fd = fd_fundamental(two_metric, y, v, step=1e-4)
        scale = two_metric.f_value(y) * two_metric.f_value(v)
        assert abs(exact - fd) / scale < 1e-6


def test_fd_oracle_zero_direction(two_metric):
    y = np.random.default_rng(19).standard_normal(7)
    assert fd_fundamental(two_metric, y, np.zeros(7)) == 0.0


# -- construction contracts -----------------------------------------------------------

@pytest.mark.parametrize("arity, message", [
    (2.7, "arity must be an integer, not 2.7"),
    (True, "arity must be an integer, not True"),
    (2.0, "arity must be an integer, not 2.0"),
    (0, "arity must be at least 1")])
def test_a_combiner_arity_that_is_no_positive_integer_is_refused(arity,
                                                                 message):
    # 2.7 used to give arity 2, and True arity 1
    with pytest.raises(ValueError, match=message):
        LFunction.custom(lambda u: float(u @ u), lambda u: 2.0 * u, arity)


def test_numpy_integer_arities_are_taken_as_ints():
    for arity in (2, np.int64(2), np.uint8(2)):
        lf = LFunction("custom", arity, lambda u: (u * u).sum(axis=-1),
                       lambda u: 2.0 * u)
        assert lf.arity == 2 and type(lf.arity) is int


def test_metric_arity_must_match_family(s7):
    family = MetricFamily(s7.space, [[1.0, 1.0, 1.0]])
    with pytest.raises(ValueError, match="arity"):
        FinslerMetric(family, LFunction.sum_of_squares([1.0, 1.0]))


def test_metric_rejects_invalid_combiner_unless_unchecked(s7):
    family = MetricFamily(s7.space, [[1.0, 1.0, 1.0], [2.0, 1.0, 4.0]])
    bad = degree_one_sum([1.0, 1.0])
    with pytest.raises(ValueError, match=r"^combiner fails Minkowski-norm "
                       r"conditions \['ii'\]$"):
        FinslerMetric(family, bad)
    with pytest.raises(TypeError, match="unchecked"):  # no way around it
        FinslerMetric(family, bad, unchecked=True)


def _root_sum_fourth(u):
    return (np.sqrt(u[..., 0]) + np.sqrt(u[..., 1])) ** 4


def _root_sum_fourth_grad(u):
    s = np.sqrt(u[..., 0]) + np.sqrt(u[..., 1])
    return 2.0 * (s ** 3)[..., None] / np.sqrt(u)


@pytest.mark.parametrize("kind, verdict", [("sum_sq", ()), ("sq_sum", ()),
                                           ("sum", ("ii",))])
def test_built_in_verdicts_agree_with_sampling(kind, verdict):
    rng = np.random.default_rng(421)
    for k in (1, 2, 3):
        for seed in range(4):
            weights = list(rng.uniform(0.1, 10.0, k))
            lf = l_function_from_spec({"kind": kind, "weights": weights})
            assert lf.form_failures == verdict
            assert list(verdict) == validate_l(lf, 64, seed=seed).failed()


def test_a_direct_combiner_is_refused_when_its_gradient_disagrees(s7):
    # the value of sum_sq:1,1 with the gradient of sum_sq:1,2: the block
    # weights B_j = L_j / (2 u_j) would belong to another metric
    def value(u):
        return (u * u).sum(-1)

    with pytest.raises(ValueError, match="custom gradient disagrees with "
                                         "finite differences"):
        LFunction("mine", 2, value,
                  lambda u: np.stack([2 * u[..., 0], 4 * u[..., 1]], -1))
    # the right gradient is accepted, and solves as the built-in form does
    family = MetricFamily(s7.space, [[1.0, 1.0, 1.0], [2.0, 1.0, 4.0]])
    direct = FinslerMetric(family, LFunction("mine", 2, value,
                                             lambda u: 2.0 * u))
    built_in = _quick_start_metric(s7, "sum_sq:1,1")
    for y in (QUICK_Y, 1e-120 * QUICK_Y, np.ones(7)):
        assert np.array_equal(direct.c_coefficients(y),
                              built_in.c_coefficients(y))


@pytest.mark.parametrize("kind, build", [
    ("sum_sq", LFunction.sum_of_squares), ("sq_sum", LFunction.squared_sum),
    ("sum", degree_one_sum)])
def test_a_spec_and_its_constructor_build_the_same_combiner(kind, build):
    u = np.array([[0.5, 2.0], [1.5, 0.25]])
    by_spec, by_call = l_function_from_spec(f"{kind}:2,3"), build([2.0, 3.0])
    assert (by_spec.kind, by_spec.arity, by_spec.form_failures) == (
        by_call.kind, by_call.arity, by_call.form_failures)
    assert np.array_equal(by_spec.value(u), by_call.value(u))
    assert np.array_equal(by_spec.grad(u), by_call.grad(u))


def test_combiners_without_a_verdict_are_sampled_at_construction(
        s7, monkeypatch):
    # (sqrt u1 + sqrt u2)^4 has degree 2 but is not convex; a combiner built
    # directly gets no verdict, whatever its kind string says
    family = MetricFamily(s7.space, [[1.0, 1.0, 1.0], [2.0, 1.0, 4.0]])
    direct = LFunction("sum_sq", 2, _root_sum_fourth, _root_sum_fourth_grad)
    custom = LFunction.custom(_root_sum_fourth, _root_sum_fourth_grad, 2)
    assert direct.form_failures is None and custom.form_failures is None
    for lf in (direct, custom):
        with pytest.raises(ValueError, match=r"conditions \['iv'\]"):
            FinslerMetric(family, lf)
    from finslergo import finsler_metric
    calls = []
    monkeypatch.setattr(finsler_metric, "validate_l",
                        lambda *args, **kwargs: calls.append(args))
    FinslerMetric(family, LFunction.squared_sum([1.0, 3.0]))
    riemannian_metric(s7.space, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match=r"conditions \['ii'\]"):
        FinslerMetric(family, degree_one_sum([1.0, 1.0]))
    assert calls == []


@pytest.mark.parametrize("spec", ["sq_sum:400,80", "sq_sum:962.19,767.38",
                                  "sum_sq:5000,3000"])
def test_large_weight_combiners_pass_the_hessian_check(spec):
    # the difference quotient's roundoff grows with |grad L|; the (iv) tol
    # grows with it, and stays 1e-8 where the roundoff is below that
    report = validate_l(l_function_from_spec(spec), 200, seed=0)
    assert report.passed
    assert report["iv"].tol > 1e-8
    assert report["iv"].worst >= -report["iv"].tol


def test_a_non_convex_degree_two_combiner_still_fails_the_hessian_check():
    lf = LFunction.custom(_root_sum_fourth, _root_sum_fourth_grad, 2)
    report = validate_l(lf, 200, seed=0)
    assert report.failed() == ["iv"]
    assert report["iv"].tol == 1e-8
    assert -257.0 < report["iv"].worst < -255.0


def test_l_spec_parsing():
    assert l_function_from_spec("sum_sq:1,2").kind == "sum_sq"
    assert l_function_from_spec({"kind": "sq_sum", "weights": [1, 3]}).arity == 2
    assert l_function_from_spec("sum:1,1").kind == "sum"
    with pytest.raises(ValueError, match="library API"):
        l_function_from_spec({"kind": "custom"})
    with pytest.raises(ValueError, match="unknown combiner"):
        l_function_from_spec("what:1")

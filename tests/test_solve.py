"""The QR-first minimal-norm solve: rows certified full rank are solved by
QR, every other row by the stacked SVD that is kept here as the reference."""

import json
import warnings

import numpy as np
import pytest

from finslergo import (FinslerMetric, LFunction, LieAlgebra, MetricFamily,
                       ReductiveSpace, assemble, check_equivariance_batch,
                       closed_form_xi, criterion_residuals, geodesic,
                       go_property_scan, l_function_from_spec,
                       riemannian_metric, solve_batch, solve_geodesic_graph)
from finslergo.geodesic import RANK_RCOND
from conftest import SCALE_SPECS, embed


def _svd_reference(a_mat, b_vec):
    """The stacked-SVD solve the library used before the QR path."""
    u, sigma, vt = np.linalg.svd(a_mat, full_matrices=False)
    kept = sigma > RANK_RCOND * sigma[:, :1]
    coef = (b_vec[:, None, :] @ u) / np.where(kept, sigma, np.inf)[:, None, :]
    return (coef @ vt)[:, 0], kept.sum(axis=1)


def _metrics(s7):
    family = MetricFamily(s7.space, [[1.0, 1.0, 1.0], [2.0, 1.0, 4.0]])
    return {
        "round": riemannian_metric(s7.space, [1.0, 1.0, 1.0]),
        "sq_sum": FinslerMetric(family, LFunction.squared_sum([1.0, 3.0])),
        "sum_sq": FinslerMetric(family, LFunction.sum_of_squares([1.0, 2.0])),
    }


_QUICK_Y = np.array([0.3, -0.9, 0.4, 1.1, 0.6, -0.2, 0.8])
_BANDS = {"near": (-6.0, -2.0), "close": (-10.0, -9.0), "edge": (-12.0, -8.0)}


def _draw(rng, n, kind):
    """Unit directions scaled over 1e-150..1e150; near-stratum rows have
    |x|/|y| log-uniform in [1e-6, 1e-2], close rows in [1e-10, 1e-9] (the
    certificate fails, the rank is mostly full), edge rows in [1e-12, 1e-8]
    (where the rank rule flips), on-stratum rows x = 0."""
    y = rng.standard_normal((n, 7))
    if kind in _BANDS:
        lo, hi = _BANDS[kind]
        ratio = 10.0 ** rng.uniform(lo, hi, n)
        y[:, :4] *= (ratio * np.linalg.norm(y[:, 4:], axis=1)
                     / np.linalg.norm(y[:, :4], axis=1))[:, None]
    elif kind == "on":
        y[:, :4] = 0.0
    norm = np.linalg.norm(y, axis=1)[:, None]
    return y / norm * 10.0 ** rng.uniform(-150.0, 150.0, (n, 1))


def _sphere_quotient(n=5):
    """S^(n-1) = SO(n)/SO(n-1): dim_m = n - 1 < dim_h for n >= 5."""
    def unit(i, j):
        e = np.zeros((n, n))
        e[i, j], e[j, i] = 1.0, -1.0
        return e
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    labels = [f"E{i}{j}" for i, j in pairs]
    brackets = {}
    for p, (i, j) in enumerate(pairs):
        for q in range(p + 1, len(pairs)):
            k, l = pairs[q]
            br = unit(i, j) @ unit(k, l) - unit(k, l) @ unit(i, j)
            coeffs = {labels[s]: br[a, b] for s, (a, b) in enumerate(pairs)
                      if br[a, b] != 0.0}
            if coeffs:
                brackets[(labels[p], labels[q])] = coeffs
    h = [lab for (i, j), lab in zip(pairs, labels) if j < n - 1]
    m = [lab for (i, j), lab in zip(pairs, labels) if j == n - 1]
    space = ReductiveSpace(LieAlgebra(labels, brackets), h=h, blocks=[m])
    return riemannian_metric(space, [1.0])


def _counting(monkeypatch, name):
    calls = []
    original = getattr(np.linalg, name)

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


# -- the solve against the SVD reference --------------------------------------

@pytest.mark.parametrize("name", ["round", "sq_sum", "sum_sq"])
def test_rank_and_xi_match_the_svd_reference(s7, name):
    metric = _metrics(s7)[name]
    h = s7.space.h_indices
    rng = np.random.default_rng(401)
    for kind in ("generic", "near", "edge", "on"):
        y = _draw(rng, 400, kind)
        c = metric.c_coefficients(y)
        batch = solve_batch(s7.space, y, c)
        ref_xi, ref_rank = _svd_reference(*assemble(s7.space, y, c))
        norm = np.linalg.norm(y, axis=1)
        assert np.array_equal(batch.rank, ref_rank)
        assert np.array_equal(batch.unique, ref_rank == 4)
        if kind in ("edge", "on"):
            assert set(ref_rank) == ({1, 4} if kind == "edge" else {1})
            deficient = ref_rank < 4
            assert np.array_equal(batch.xi[deficient], ref_xi[deficient])
            continue
        assert np.all(ref_rank == 4)
        exact = closed_form_xi(y / norm[:, None], c)[:, h] * norm[:, None]
        assert np.all(np.abs(batch.xi - exact).max(axis=1) <= 1e-12 * norm)
        if kind == "generic":
            assert np.all(np.abs(batch.xi - ref_xi).max(axis=1)
                          <= 1e-12 * norm)


def test_qr_is_closer_to_the_closed_form_than_the_svd_near_the_stratum(s7):
    # why near-stratum rows are held to the closed form and not the SVD
    metric = _metrics(s7)["sq_sum"]
    y = _draw(np.random.default_rng(403), 2000, "near")
    c = metric.c_coefficients(y)
    norm = np.linalg.norm(y, axis=1)
    exact = closed_form_xi(y / norm[:, None], c)[:, s7.space.h_indices]
    qr = solve_batch(s7.space, y, c).xi / norm[:, None]
    svd = _svd_reference(*assemble(s7.space, y, c))[0] / norm[:, None]
    assert np.abs(qr - exact).max() <= 1e-14
    assert np.abs(svd - exact).max() > 1e-12


@pytest.mark.parametrize("name", ["sq_sum", "sum_sq"])
def test_full_rank_rows_just_off_the_stratum_keep_the_qr_solution(s7, name):
    # uncertified rows that the SVD still counts full rank: the SVD's xi is
    # up to ~1e-6 |y| from the closed form there, R^-1 Q^T b is not
    metric = _metrics(s7)[name]
    y = _draw(np.random.default_rng(419), 3000, "close")
    c = metric.c_coefficients(y)
    batch = solve_batch(s7.space, y, c)
    norm = np.linalg.norm(y, axis=1)
    exact = closed_form_xi(y / norm[:, None], c)[:, s7.space.h_indices]
    unique = batch.unique
    assert 0 < np.count_nonzero(unique) < len(y)
    assert np.abs(batch.xi[unique] / norm[unique, None]
                  - exact[unique]).max() <= 1e-12


def test_mixed_batches_equal_batches_of_one_bit_for_bit(s7):
    rng = np.random.default_rng(405)
    y = np.concatenate([_draw(rng, 6, kind) for kind in ("generic", "near",
                                                          "on")])
    y = y[rng.permutation(len(y))]
    for metric in _metrics(s7).values():
        c = metric.c_coefficients(y)
        batch = solve_batch(s7.space, y, c)
        assert set(batch.rank) == {1, 4}
        for i in range(len(y)):
            one = solve_batch(s7.space, y[i:i + 1], c[i:i + 1])
            assert np.array_equal(batch.xi[i], one.xi[0])
            assert batch.rank[i] == one.rank[0]
            assert batch.residual[i] == one.residual[0]
            res = solve_geodesic_graph(metric, y[i])
            assert np.array_equal(res.xi_h, batch.xi[i])


# -- the zero-pivot retry and the SVD fallback --------------------------------

def test_zero_pivots_next_to_a_non_finite_system_raise_not_finite(s7, capfd):
    # the retry after a zero pivot must also pass over the non-finite row
    rng = np.random.default_rng(407)
    rows = np.vstack([_draw(rng, 2, "generic"), _draw(rng, 2, "on"),
                      np.full(7, 1e200)])
    with pytest.raises(np.linalg.LinAlgError, match="not finite"):
        solve_batch(s7.space, rows, np.ones((5, 3)))
    out, err = capfd.readouterr()
    assert out + err == ""


def test_an_on_stratum_stack_goes_straight_to_the_svd(s7, round_metric,
                                                      monkeypatch):
    for n in (1, 5):
        y = _draw(np.random.default_rng(409), n, "on")
        c = round_metric.c_coefficients(y)
        a_mat, b_vec = assemble(s7.space, y, c)
        inverses = _counting(monkeypatch, "inv")
        svds = _counting(monkeypatch, "svd")
        batch = solve_batch(s7.space, y, c)
        assert len(inverses) == 1 and svds == [(n, 7, 4)]
        ref_xi, ref_rank = _svd_reference(a_mat, b_vec)
        assert np.array_equal(batch.xi, ref_xi)
        assert np.array_equal(batch.rank, ref_rank)
        monkeypatch.undo()


def test_on_stratum_rows_take_the_retry_and_the_svd(s7, round_metric,
                                                    monkeypatch):
    # in a mixed stack only the on-stratum rows reach the SVD
    rng = np.random.default_rng(409)
    y = np.vstack([_draw(rng, 3, "generic"), _draw(rng, 5, "on"),
                   _draw(rng, 2, "near")])
    c = round_metric.c_coefficients(y)
    a_mat, b_vec = assemble(s7.space, y, c)
    inverses = _counting(monkeypatch, "inv")
    svds = _counting(monkeypatch, "svd")
    batch = solve_batch(s7.space, y, c)
    assert len(inverses) == 2 and svds == [(5, 7, 4)]
    on = slice(3, 8)
    ref_xi, ref_rank = _svd_reference(a_mat[on], b_vec[on])
    assert np.array_equal(batch.xi[on], ref_xi)
    assert np.array_equal(batch.rank[on], ref_rank)
    assert np.all(np.delete(batch.rank, on) == 4)


def test_the_stratum_edge_case_is_pinned(s7):
    # x = (1e-8, 0, 0, 0): full rank, with three singular values at |x|
    y = np.array([[1e-8, 0.0, 0.0, 0.0, 0.3, 0.5, 0.7]])
    c = np.array([[1.0, 2.0, 3.0]])
    batch = solve_batch(s7.space, y, c)
    assert batch.rank[0] == 4 and batch.unique[0]
    assert batch.residual[0] <= 5e-16
    exact = closed_form_xi(y, c)[:, s7.space.h_indices]
    assert np.abs(batch.xi - exact).max() <= 1e-15
    assert abs(batch.sigma[0, -1] - 1e-8) <= 1e-14


def test_full_rank_batches_never_call_the_svd(s7, monkeypatch):
    rng = np.random.default_rng(411)
    svds = _counting(monkeypatch, "svd")
    for metric in _metrics(s7).values():
        for kind in ("generic", "near"):
            y = _draw(rng, 200, kind)
            c = metric.c_coefficients(y)
            assert solve_batch(s7.space, y, c).unique.all()
            assert solve_geodesic_graph(metric, y[0]).unique
    go_property_scan(_metrics(s7)["sq_sum"], 500, seed=0)
    assert svds == []


def test_a_space_with_dim_m_below_dim_h_takes_the_svd(monkeypatch):
    metric = _sphere_quotient()
    space = metric.space
    assert (space.dim_m, space.dim_h) == (4, 6)
    y = np.random.default_rng(413).standard_normal((20, 4))
    c = metric.c_coefficients(y)
    a_mat, b_vec = assemble(space, y, c)
    qrs = _counting(monkeypatch, "qr")
    batch = solve_batch(space, y, c)
    assert qrs == []
    ref_xi, ref_rank = _svd_reference(a_mat, b_vec)
    assert np.array_equal(batch.xi, ref_xi)
    assert np.array_equal(batch.rank, ref_rank)
    assert np.all(batch.rank == 3) and not batch.unique.any()
    assert batch.sigma.shape == (20, 6) and np.all(batch.sigma[:, 4:] == 0.0)
    assert np.abs(criterion_residuals(space, y, c, batch.xi)).max() <= 1e-14


# -- the lazy singular values -------------------------------------------------

def test_sigma_is_computed_on_first_access(s7, monkeypatch):
    metric = _metrics(s7)["sq_sum"]
    y = _draw(np.random.default_rng(415), 30, "generic")
    y[::7, :4] = 0.0
    c = metric.c_coefficients(y)
    a_mat, _ = assemble(s7.space, y, c)
    ref = np.linalg.svd(a_mat, compute_uv=False)
    svds = _counting(monkeypatch, "svd")
    batch = solve_batch(s7.space, y, c)
    res = solve_geodesic_graph(metric, y[1])
    assert len(svds) == 1  # the on-stratum rows of the batch
    assert np.array_equal(batch.sigma, ref) and batch.sigma is batch.sigma
    assert res.sigma_min == ref[1].min()
    assert len(svds) == 3  # one more for each of sigma and sigma_min
    assert "a_mat" not in repr(batch) and "batch=" not in repr(res)


# -- one base vector: row 0 of a batch of one ---------------------------------

def _float_list_json(y_m, xi_h, residual, rank, unique):
    """The JSON text of a result as element-wise float() lists render it."""
    return json.dumps({"y": [float(v) for v in y_m],
                       "xi": [float(v) for v in xi_h],
                       "residual": float(residual), "rank": int(rank),
                       "unique": bool(unique)}, indent=2)


def _assert_rows_are_one_vector_results(metric, y):
    space = metric.space
    batch = solve_batch(space, y, metric.c_coefficients(y))
    for i, row in enumerate(y):
        res = solve_geodesic_graph(metric, row)
        assert res.y_m.tobytes() == batch.y[i].tobytes()
        assert res.xi_h.tobytes() == batch.xi[i].tobytes()
        assert res.y.tobytes() == embed(space, batch.y[i],
                                        space.m_indices).tobytes()
        assert res.xi.tobytes() == embed(space, batch.xi[i],
                                         space.h_indices).tobytes()
        assert np.float64(res.residual_norm).tobytes() == \
            batch.residual[i].tobytes()
        assert (res.rank, res.unique) == (batch.rank[i], batch.unique[i])
        assert res.a_mat.tobytes() == batch.a_mat[i].tobytes()
        if space.dim_h:
            assert np.float64(res.sigma_min).tobytes() == \
                batch.sigma[i, -1].tobytes()
        else:
            assert res.sigma_min == np.inf
        assert json.dumps(res.to_json_dict(), indent=2) == _float_list_json(
            batch.y[i], batch.xi[i], batch.residual[i], batch.rank[i],
            batch.unique[i])


@pytest.mark.parametrize("spec", SCALE_SPECS)
def test_one_vector_result_is_its_row_of_a_batch_bit_for_bit(s7, spec):
    # the graph-workload kinds: generic, near the x = 0 stratum, on it, and
    # the extreme scales 1e+-150
    family = MetricFamily(s7.space, [[1.0, 1.0, 1.0], [2.0, 1.0, 4.0]])
    metric = FinslerMetric(family, l_function_from_spec(spec))
    rng = np.random.default_rng(421)
    for kind in ("generic", "near", "on"):
        _assert_rows_are_one_vector_results(metric, _draw(rng, 40, kind))
    unit = _draw(rng, 6, "generic")
    unit[3:, :4] *= 1e-4
    unit /= np.linalg.norm(unit, axis=1)[:, None]
    for scale in (1e150, 1e-150):
        _assert_rows_are_one_vector_results(metric, scale * unit)


def test_one_vector_result_is_its_row_below_and_without_isotropy():
    sphere = _sphere_quotient()  # dim_m = 4 < dim_h = 6: sigma_min is 0
    y = np.random.default_rng(423).standard_normal((10, 4))
    _assert_rows_are_one_vector_results(sphere, y)
    assert solve_geodesic_graph(sphere, y[0]).sigma_min == 0.0
    alg = LieAlgebra(["e1", "e2", "e3"],
                     {("e1", "e2"): {"e3": 1.0}, ("e2", "e3"): {"e1": 1.0},
                      ("e1", "e3"): {"e2": -1.0}})
    group = riemannian_metric(
        ReductiveSpace(alg, h=[], blocks=[["e1"], ["e2"], ["e3"]]),
        [1.0, 2.0, 4.0])
    _assert_rows_are_one_vector_results(
        group, np.random.default_rng(425).standard_normal((10, 3)))


def test_a_one_vector_solve_coerces_once_and_builds_no_batch(s7, monkeypatch):
    metric = _metrics(s7)["sq_sum"]
    coerced, built = [], []
    coerce_m, graph_batch = type(s7.space).coerce_m, geodesic.GraphBatch

    def counted_coerce(self, *args):
        coerced.append(args)
        return coerce_m(self, *args)

    def counted_batch(**fields):
        built.append(fields)
        return graph_batch(**fields)

    monkeypatch.setattr(type(s7.space), "coerce_m", counted_coerce)
    monkeypatch.setattr(geodesic, "GraphBatch", counted_batch)
    res = solve_geodesic_graph(metric, [0.3, -0.9, 0.4, 1.1, 0.6, -0.2, 0.8])
    assert res.unique and len(coerced) == 1 and built == []
    solve_batch(s7.space, np.ones((2, 7)), np.ones((2, 3)))  # the patches bite
    assert len(coerced) == 2 and len(built) == 1


def test_a_one_vector_solve_applies_the_gram_and_the_gradient_once(
        s7, monkeypatch):
    # G y serves both the norms and the weighted vector, and the gradient
    # of a built-in combiner is called on the norms without a second check
    metric = _metrics(s7)["sq_sum"]
    grams, grads = [], []
    apply_gram, grad = type(s7.space)._apply_gram, metric.lf._grad

    def counted_gram(self, rows):
        grams.append(rows.shape)
        return apply_gram(self, rows)

    def counted_grad(u):
        grads.append(u.shape)
        return grad(u)

    monkeypatch.setattr(type(s7.space), "_apply_gram", counted_gram)
    monkeypatch.setattr(metric.lf, "_grad", counted_grad)
    monkeypatch.setattr(metric.lf, "_check_args", None)  # never called
    assert solve_geodesic_graph(metric, _QUICK_Y).unique
    assert grams == [(1, 1, 7)] and grads == [(1, 2)]
    go_property_scan(metric, 5, seed=0)  # a batch takes the same one pass
    assert grams == [(1, 1, 7), (5, 1, 7)] and grads == [(1, 2), (5, 2)]


def test_a_custom_gradient_of_the_wrong_shape_still_raises(s7):
    # right where the combiner is checked (u < 10), one value too many above
    def grad(u):
        return 2.0 * u if u.max() < 10.0 else np.append(2.0 * u, 0.0)

    family = MetricFamily(s7.space, [[1.0, 1.0, 1.0], [2.0, 1.0, 4.0]])
    metric = FinslerMetric(family, LFunction.custom(
        lambda u: float(u @ u), grad, 2))
    assert solve_geodesic_graph(metric, _QUICK_Y).unique
    for call in (metric.c_coefficients, lambda y: solve_geodesic_graph(
            metric, y)):
        with pytest.raises(ValueError,
                           match="gradient callable returned a wrong shape"):
            call(100.0 * _QUICK_Y)


# -- input that cannot be solved ----------------------------------------------

@pytest.mark.parametrize("spec, scale, cause", [
    ("sq_sum:1,3", 1e200, "the squared norm of y overflows or underflows"),
    ("sq_sum:1,3", 1e-200, "the squared norm of y overflows or underflows"),
    ("sq_sum:1e160,1", 1.0, "the combiner's gradient overflows")])
def test_each_failure_cause_is_named_without_a_warning(s7, capfd, spec, scale,
                                                        cause):
    family = MetricFamily(s7.space, [[1.0, 1.0, 1.0], [2.0, 1.0, 4.0]])
    metric = FinslerMetric(family, l_function_from_spec(spec))
    y = scale * _QUICK_Y
    calls = (lambda: solve_geodesic_graph(metric, y),
             lambda: metric.c_coefficients(y),
             lambda: check_equivariance_batch(metric, y[None], np.ones((1, 4)),
                                              [0.5]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(np.linalg.LinAlgError) as info:
                call()
            assert str(info.value) == \
                f"the criterion system is not finite: {cause}"
    out, err = capfd.readouterr()
    assert out + err == ""


def test_a_system_that_overflows_with_finite_weights_names_the_norm(s7,
                                                                    capfd):
    # weights from the metric (finite B at 1e153) and given weights C
    metric = _metrics(s7)["sq_sum"]
    y = np.full(7, 1e153)
    assert np.isfinite(metric.c_coefficients(y)).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: solve_geodesic_graph(metric, y),
                     lambda: solve_batch(s7.space, 1e200 * _QUICK_Y[None],
                                         np.ones((1, 3)))):
            with pytest.raises(np.linalg.LinAlgError) as info:
                call()
            assert str(info.value) == ("the criterion system is not finite: "
                                       "the squared norm of y overflows or "
                                       "underflows")
    out, err = capfd.readouterr()
    assert out + err == ""


def test_overflowing_systems_raise_before_the_svd_without_output(s7, capfd):
    metric = _metrics(s7)["sq_sum"]
    generic = _draw(np.random.default_rng(417), 3, "generic")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for big in (np.full(7, 1e153), np.full(7, 1e200),
                    [1e200, 1, 1, 1, 1, 1, 1], [1e-200, 0, 0, 0, 0, 0, 0]):
            with pytest.raises(np.linalg.LinAlgError, match="not finite"):
                solve_geodesic_graph(metric, big)
        # finite weights, so the system reaches the QR and overflows there
        rows = np.vstack([generic, np.full(7, 1e200)])
        with pytest.raises(np.linalg.LinAlgError, match="not finite"):
            solve_batch(s7.space, rows, np.ones((4, 3)))
    assert [str(w.message) for w in caught] == []
    out, err = capfd.readouterr()
    assert out + err == ""


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_block_weights_are_rejected(s7, bad):
    y = np.ones((3, 7))
    c = np.ones((3, 3))
    c[1, 2] = bad
    for call in (lambda: solve_batch(s7.space, y, c),
                 lambda: assemble(s7.space, y, c),
                 lambda: criterion_residuals(s7.space, y, c,
                                             np.zeros((3, 4)))):
        with pytest.raises(ValueError, match="block weights C must be finite"):
            call()


# -- the scan draws -----------------------------------------------------------

@pytest.mark.parametrize("n", [1, 7, 300])
def test_scan_draws_equal_a_per_row_loop(s7, round_metric, n):
    for seed in range(20):
        rng = np.random.default_rng(seed)
        rows = np.array([rng.standard_normal(7) for _ in range(n)])
        rows /= s7.space.alpha_norm(rows)[:, None]
        report = go_property_scan(round_metric, n, seed)
        assert np.array_equal(report.samples, rows)

"""The batched criterion path: rows agree with batches of one, and input is
checked where it arrives."""

import os
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import finslergo
from finslergo import (FinslerMetric, LFunction, LieAlgebra, MetricFamily,
                       ReductiveSpace, assemble, check_equivariance_batch,
                       closed_form_xi, criterion_residuals, extended_matrix,
                       geodesic_residual, go_property_scan, riemannian_metric,
                       solve_batch, solve_geodesic_graph, verify_closed_form)
from finslergo.cli import main
from conftest import unit_m_samples


def _s7_metrics(s7):
    family = MetricFamily(s7.space, [[1.0, 1.0, 1.0], [2.0, 1.0, 4.0]])
    custom = LFunction.custom(lambda u: float(u @ u), lambda u: 2.0 * u,
                              arity=2)
    return {
        "sum_sq": FinslerMetric(family, LFunction.sum_of_squares([1.0, 2.0])),
        "sq_sum": FinslerMetric(family, LFunction.squared_sum([1.0, 3.0])),
        "custom": FinslerMetric(family, custom),
    }


def _group_metric():
    """so(3) with trivial isotropy: dim_h == 0."""
    alg = LieAlgebra(["e1", "e2", "e3"],
                     {("e1", "e2"): {"e3": 1.0}, ("e2", "e3"): {"e1": 1.0},
                      ("e1", "e3"): {"e2": -1.0}})
    space = ReductiveSpace(alg, h=[], blocks=[["e1"], ["e2"], ["e3"]])
    return riemannian_metric(space, [1.0, 2.0, 4.0])


def _rows(rng, n, dim, on_stratum):
    """Rows over six decades of scale; flagged rows get a zero X-part."""
    y = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
    if dim == 7:
        y[on_stratum[:n], :4] = 0.0
    return y


# -- batched rows equal batches of one ----------------------------------------

@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["sum_sq", "sq_sum", "custom", "dim_h_0"]),
       seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9),
       on_stratum=st.lists(st.booleans(), min_size=9, max_size=9))
def test_batched_rows_agree_with_single_solves(s7, kind, seed, n, on_stratum):
    metric = _group_metric() if kind == "dim_h_0" else _s7_metrics(s7)[kind]
    space = metric.space
    y = _rows(np.random.default_rng(seed), n, space.dim_m,
              np.array(on_stratum))
    batch = solve_batch(space, y, metric.c_coefficients(y))
    assert batch.xi.shape == (n, space.dim_h)
    assert batch.sigma.shape == (n, space.dim_h)
    for i in range(n):
        one = solve_geodesic_graph(metric, y[i])
        scale = max(np.abs(one.xi_h).max(initial=0.0), 1e-300)
        assert np.abs(batch.xi[i] - one.xi_h).max(initial=0.0) <= 1e-13 * scale
        assert batch.rank[i] == one.rank
        assert batch.residual[i] == one.residual_norm
        assert batch.unique[i] == one.unique


def test_assemble_and_residuals_agree_with_single_calls(s7):
    metric = _s7_metrics(s7)["sq_sum"]
    y = unit_m_samples(s7.space, 12, seed=301)
    c = metric.c_coefficients(y)
    xi = np.random.default_rng(303).standard_normal((12, 4))
    a_mat, b_vec = assemble(s7.space, y, c)
    res = criterion_residuals(s7.space, y, c, xi)
    for i in range(12):
        a1, b1 = assemble(s7.space, y[i:i + 1], c[i:i + 1])
        assert np.array_equal(a_mat[i], a1[0]) and np.array_equal(b_vec[i], b1[0])
        assert np.array_equal(res[i], geodesic_residual(metric, y[i], xi[i]))


def test_scan_worst_residual_is_reproducible(s7):
    metric = _s7_metrics(s7)["sq_sum"]
    report = go_property_scan(metric, 200, seed=17)
    again = solve_geodesic_graph(metric, report.worst_y)
    assert again.residual_norm == report.max_residual
    assert report.max_residual == report.residuals.max()


def test_equivariance_batch_agrees_with_single_checks(s7):
    metric = _s7_metrics(s7)["sq_sum"]
    rng = np.random.default_rng(307)
    y = unit_m_samples(s7.space, 6, seed=309)
    h = rng.standard_normal((6, 4))
    t = rng.uniform(-1.0, 1.0, 6)
    batch = check_equivariance_batch(metric, y, h, t)
    for i in range(6):
        one = check_equivariance_batch(metric, y[i:i + 1], h[i:i + 1],
                                       t[i:i + 1])
        assert_allclose(batch.deviation[i], one.deviation[0], rtol=1e-12,
                        atol=1e-15)
        assert batch.unique_source[i] == one.unique_source[0]
        assert batch.unique_transported[i] == one.unique_transported[0]


def test_equivariance_rows_equal_batches_of_one_bit_for_bit(s7):
    # the 100 draws of acceptance criterion 7; the transported rows must be
    # solved as the batch of one solves them, not at a strided view
    metric = _s7_metrics(s7)["sq_sum"]
    rng = np.random.default_rng(239)
    y, h, t = np.empty((100, 7)), np.empty((100, 4)), np.empty(100)
    for i in range(100):
        v = rng.standard_normal(7)
        y[i] = v / s7.space.alpha_norm(v)
        h[i] = rng.standard_normal(4)
        t[i] = rng.uniform(-1.0, 1.0)
    batch = check_equivariance_batch(metric, y, h, t)
    ones = [check_equivariance_batch(metric, y[i:i + 1], h[i:i + 1],
                                     t[i:i + 1]) for i in range(100)]
    for field in ("deviation", "unique_source", "unique_transported"):
        one = np.concatenate([getattr(o, field) for o in ones])
        assert np.array_equal(getattr(batch, field), one), field


# -- the closed form over rows -------------------------------------------------

def test_closed_form_rows_equal_single_calls_including_x_zero(s7):
    rng = np.random.default_rng(311)
    y = rng.standard_normal((30, 7))
    y[::4, :4] = 0.0  # on the x = 0 stratum
    c = rng.uniform(0.25, 4.0, (30, 3))
    rows = closed_form_xi(y, c)
    assert rows.shape == (30, 11)
    for i in range(30):
        assert np.array_equal(rows[i], closed_form_xi(y[i], c[i]))
    # one weight triple for every row, and one row for many triples
    assert np.array_equal(closed_form_xi(y, c[0]),
                          np.stack([closed_form_xi(v, c[0]) for v in y]))
    assert np.array_equal(closed_form_xi(y[0], c),
                          np.stack([closed_form_xi(y[0], w) for w in c]))
    ext = extended_matrix(y[1:], c[1:])
    for i in range(29):
        assert np.array_equal(ext[i], extended_matrix(y[i + 1], c[i + 1]))


def test_riemannian_weights_are_exactly_the_block_weights(s7):
    # why verify_closed_form may pass the drawn triples straight through
    rng = np.random.default_rng(313)
    y = rng.standard_normal((50, 7)) * 10.0 ** rng.uniform(-5, 5, (50, 1))
    for c in rng.uniform(0.25, 4.0, (20, 3)):
        metric = riemannian_metric(s7.space, c)
        assert np.array_equal(metric.c_coefficients(y), np.tile(c, (50, 1)))
        assert np.array_equal(metric.c_coefficients(y[0]), c)


def test_verify_witnesses_are_rows_of_the_documented_draws(s7):
    seed, n = 23, 200
    report = verify_closed_form(n_samples=n, seed=seed)
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(n):  # per sample: a base vector, then a weight triple
        v = rng.standard_normal(7)
        draws.append((v / np.sqrt(v @ v), rng.uniform(0.25, 4.0, size=3)))
    ys = np.array([y for y, _ in draws])
    cs = np.array([c for _, c in draws])
    i = np.flatnonzero((ys == report.worst_residual_y).all(axis=1))
    j = np.flatnonzero((ys == report.worst_mismatch_y).all(axis=1))
    assert len(i) == 1 and np.array_equal(cs[i[0]], report.worst_residual_c)
    assert len(j) == 1 and np.array_equal(cs[j[0]], report.worst_mismatch_c)
    y, c = draws[i[0]]
    metric = riemannian_metric(s7.space, c)
    assert report.max_residual == np.abs(
        geodesic_residual(metric, y, closed_form_xi(y, c))).max()


# -- conditioning ----------------------------------------------------------------

def test_sigma_min_is_the_smallest_singular_value(s7, round_metric):
    for y in unit_m_samples(s7.space, 10, seed=317):
        res = solve_geodesic_graph(round_metric, y)
        a_mat, _ = assemble(s7.space, y[None],
                            round_metric.c_coefficients(y[None]))
        assert_allclose(res.sigma_min,
                        np.linalg.svd(a_mat[0], compute_uv=False).min(),
                        rtol=1e-12)
    pure_x = np.zeros(7)
    pure_x[0] = 1.0
    res = solve_geodesic_graph(round_metric, pure_x)
    assert res.rank == 3 and res.sigma_min <= 1e-10
    assert "sigma_min" not in res.to_json_dict()
    assert solve_geodesic_graph(_group_metric(),
                                np.ones(3)).sigma_min == np.inf


# -- input checks at the boundary -------------------------------------------------

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinates_are_rejected(s7, round_metric, bad):
    y = np.ones(7)
    y[2] = bad
    with pytest.raises(ValueError, match="finite"):
        s7.space.coerce_m(y)
    with pytest.raises(ValueError, match="finite"):
        s7.space.coerce_h([0.0, bad, 0.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        solve_geodesic_graph(round_metric, y)
    with pytest.raises(ValueError, match="finite"):
        geodesic_residual(round_metric, np.ones(7), [0.0, bad, 0.0, 0.0])
    rows = np.ones((4, 7))
    rows[3] = y
    with pytest.raises(ValueError, match="finite"):
        solve_batch(s7.space, rows, np.ones((4, 3)))


def test_non_finite_graph_input_exits_2_without_lapack_noise(capfd):
    code = main(["graph", "--y", "nan,1,1,1,1,1,1"])
    out, err = capfd.readouterr()
    assert code == 2
    assert "finite" in err and "On entry to" not in out + err


def test_overflowing_scale_raises_before_lapack(s7, round_metric, capfd):
    metrics = [round_metric, *_s7_metrics(s7).values()]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for metric in metrics:
            for y in (np.full(7, 1e200), np.full(7, 1e-200),
                      [1e200, 1, 1, 1, 1, 1, 1], [1e-200, 0, 0, 0, 0, 0, 0]):
                with pytest.raises(np.linalg.LinAlgError, match="not finite"):
                    solve_geodesic_graph(metric, y)
    assert [str(w.message) for w in caught] == []
    out, err = capfd.readouterr()
    assert "On entry to" not in out + err


def test_overflowing_system_raises_without_a_warning(s7):
    # finite norms and weights, but the products of the system overflow
    metric = _s7_metrics(s7)["sq_sum"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(np.linalg.LinAlgError, match="not finite"):
            solve_geodesic_graph(metric, np.full(7, 1e153))
        with pytest.raises(np.linalg.LinAlgError, match="not finite"):
            solve_batch(s7.space, np.full((3, 7), 1e200), np.ones((3, 3)))
    assert [str(w.message) for w in caught] == []


def test_solver_residual_matches_the_bracket_oracle(s7):
    rng = np.random.default_rng(331)
    for metric in _s7_metrics(s7).values():
        y = _rows(rng, 60, 7, np.arange(60) % 5 == 0)
        c = metric.c_coefficients(y)
        batch = solve_batch(s7.space, y, c)
        oracle = np.abs(criterion_residuals(s7.space, y, c, batch.xi)).max(
            axis=1)
        bound = 1e-12 * np.einsum("ij,ij->i", y, y)
        assert np.all(np.abs(batch.residual - oracle) <= bound)


def test_overflowing_graph_input_prints_only_the_error():
    src = os.path.dirname(os.path.dirname(finslergo.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "finslergo", "graph",
                           "--y=1e200,1,1,1,1,1,1"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_zero_rows_are_rejected_in_a_batch(s7):
    rows = np.ones((3, 7))
    rows[1] = 0.0
    with pytest.raises(ValueError, match="zero"):
        solve_batch(s7.space, rows, np.ones((3, 3)))


# -- import cost --------------------------------------------------------------------

def test_import_leaves_scipy_unloaded():
    code = """import contextlib, io, sys, finslergo
from finslergo.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["verify-s7", "--samples", "50"]),
             main(["orbit", "--y=1,0,0,0,0.5,0,0", "--steps", "20"])]
print(codes, 'scipy' in sys.modules)"""
    src = os.path.dirname(os.path.dirname(finslergo.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env)
    assert proc.stdout.strip() == "[0, 0] False"


# -- the public names ---------------------------------------------------------------

def test_all_lists_exactly_the_public_names():
    namespace = {}
    exec("from finslergo import *", namespace)
    public = {name for name, obj in vars(finslergo).items()
              if not name.startswith("_")
              and not isinstance(obj, types.ModuleType)}
    assert sorted(finslergo.__all__) == sorted(public)
    assert set(namespace) - {"__builtins__"} == public
    assert not public & {"adjoint_group_element", "assemble_system",
                         "check_equivariance"}

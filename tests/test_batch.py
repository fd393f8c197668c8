"""The batched criterion path: rows agree with batches of one, and input is
checked where it arrives."""

import os
import re
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
                       geodesic_residual, go_property_scan,
                       l_function_from_spec, riemannian_metric, solve_batch,
                       solve_geodesic_graph, verify_closed_form)
from finslergo.cli import main
from conftest import embed, unit_m_samples


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
    assert batch.cond.shape == (n,)
    for i in range(n):
        one = solve_geodesic_graph(metric, y[i])
        scale = max(np.abs(one.xi_h).max(initial=0.0), 1e-300)
        assert np.abs(batch.xi[i] - one.xi_h).max(initial=0.0) <= 1e-13 * scale
        assert batch.rank[i] == one.rank
        assert batch.residual[i] == one.residual_norm
        assert batch.unique[i] == one.unique
        assert batch.cond[i] == one.cond


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
    dev, unique_src, unique_dst = check_equivariance_batch(metric, y, h, t)
    for i in range(6):
        one = check_equivariance_batch(metric, y[i:i + 1], h[i:i + 1],
                                       t[i:i + 1])
        assert_allclose(dev[i], one[0][0], rtol=1e-12, atol=1e-15)
        assert unique_src[i] == one[1][0]
        assert unique_dst[i] == one[2][0]


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
    for j, field in enumerate(("deviation", "unique_source",
                               "unique_transported")):
        one = np.concatenate([o[j] for o in ones])
        assert np.array_equal(batch[j], one), field


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
    # one call per array: the base vectors, then the weight triples
    v = rng.standard_normal((n, 7))
    cs = rng.uniform(0.25, 4.0, (n, 3))
    ys = np.array([u / np.sqrt(u @ u) for u in v])
    i = np.flatnonzero((ys == report.worst_residual_y).all(axis=1))
    j = np.flatnonzero((ys == report.worst_mismatch_y).all(axis=1))
    assert len(i) == 1 and np.array_equal(cs[i[0]], report.worst_residual_c)
    assert len(j) == 1 and np.array_equal(cs[j[0]], report.worst_mismatch_c)
    y, c = ys[i[0]], cs[i[0]]
    metric = riemannian_metric(s7.space, c)
    assert report.max_residual == np.abs(
        geodesic_residual(metric, y, closed_form_xi(y, c))).max()


# -- conditioning ----------------------------------------------------------------

def test_cond_is_within_dim_h_squared_of_the_condition_number(s7,
                                                              round_metric):
    for y in unit_m_samples(s7.space, 10, seed=317):
        res = solve_geodesic_graph(round_metric, y)
        a_mat, _ = assemble(s7.space, y[None],
                            round_metric.c_coefficients(y[None]))
        kappa = np.linalg.cond(a_mat[0])
        assert kappa / 16 <= res.cond <= kappa * (1 + 1e-12)
    pure_x = np.zeros(7)
    pure_x[0] = 1.0  # on the z2 = z3 = 0 stratum
    res = solve_geodesic_graph(round_metric, pure_x)
    assert res.rank == 3 and res.cond == np.inf
    assert "cond" not in res.to_json_dict()
    assert solve_geodesic_graph(_group_metric(), np.ones(3)).cond == 1.0


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


def test_complex_coordinates_are_rejected_without_a_warning(s7,
                                                           round_metric):
    y = np.ones(7) + 5j
    calls = {
        "solve_geodesic_graph": lambda: solve_geodesic_graph(round_metric, y),
        "a list": lambda: solve_geodesic_graph(round_metric,
                                               [1.0, 2j, 0, 0, 0, 0, 0]),
        "zero imaginary part": lambda: s7.space.coerce_m(y.real + 0j),
        "geodesic_residual xi": lambda: geodesic_residual(
            round_metric, y.real, np.zeros(4) + 1j),
        "a batch": lambda: solve_batch(s7.space, np.tile(y, (3, 1)),
                                       np.ones((3, 3))),
        "c_coefficients": lambda: round_metric.c_coefficients(
            np.tile(y, (3, 1))),
        "coerce_h": lambda: s7.space.coerce_h(np.ones((2, 4)) * 1j),
        "vector": lambda: s7.algebra.vector(np.ones(11) + 1j),
        "bracket": lambda: s7.algebra.bracket(np.ones(11),
                                              [1j] + [0.0] * 10),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, call in calls.items():
            with pytest.raises(ValueError, match="coordinates must be real"):
                call()


def test_complex_arrays_are_rejected_by_name_without_a_warning(s7,
                                                              round_metric):
    space, rho = s7.space, s7.realization
    rows, ones = np.ones((2, 7)), np.ones((2, 3))
    blocks = [[space.alg.basis_labels[i] for i in b] for b in space.blocks]
    calls = {
        "block weights C": [
            lambda: solve_batch(space, rows, ones + 0j),
            lambda: assemble(space, rows, ones * 1j),
            lambda: criterion_residuals(space, rows, ones + 0j,
                                        np.zeros((2, 4)))],
        "family coefficients": [
            lambda: MetricFamily(space, [[1.0, 1.0, 1j]]),
            lambda: riemannian_metric(space, [1.0, 1.0, 1.0 + 0j])],
        "T": [lambda: check_equivariance_batch(round_metric, rows,
                                               np.ones((2, 4)),
                                               np.ones(2) + 0j)],
        "t_values": [lambda: finslergo.orbit_curve(rho, np.ones(11), [1j])],
        "matrix entries": [lambda: finslergo.matrix_exponential(
            np.eye(2) + 0j)],
        "t": [lambda: finslergo.matrix_exponential(np.eye(2), 1j)],
        "matrices": [lambda: finslergo.MatrixRealization(
            rho.matrices + 0j, rho.base_point)],
        "base point": [lambda: finslergo.MatrixRealization(
            rho.matrices, rho.base_point * 1j)],
        "weights": [lambda: LFunction.squared_sum([1.0 + 0j, 3.0]),
                    lambda: LFunction.sum_of_squares([1j])],
        "block weights": [lambda: closed_form_xi(np.ones(7), [1.0, 1.0, 1j])],
        "arguments": [lambda: LFunction.sum_of_squares([1.0]).value([1j])],
        "Gram matrices": [lambda: ReductiveSpace(
            space.alg, space.h_labels(), blocks,
            [a + 0j for a in space.alpha])],
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for what, group in calls.items():
            for call in group:
                with pytest.raises(ValueError, match=f"^{what} must be real$"):
                    call()


@pytest.mark.parametrize("bad, dtype", [
    ("0.3", "<U3"), (True, "bool"), (b"1", "|S1"), (None, "object")])
def test_numbers_are_refused_not_converted(s7, round_metric, bad, dtype):
    # each of these used to be converted: "0.3" to 0.3 and True to 1.0
    space = s7.space
    calls = {
        "coordinates": lambda: solve_geodesic_graph(round_metric, [bad] * 7),
        "family coefficients": lambda: MetricFamily(space, [[bad] * 3]),
        "weights": lambda: LFunction.sum_of_squares([bad, bad]),
        "block weights C": lambda: solve_batch(space, np.ones((1, 7)),
                                               [[bad] * 3]),
        "block weights": lambda: closed_form_xi(np.ones(7), [bad] * 3),
        "t": lambda: finslergo.matrix_exponential(np.eye(2), bad),
    }
    for what, call in calls.items():
        with pytest.raises(ValueError, match=re.escape(
                f"{what} must be real numbers, not {dtype}")):
            call()


def test_integer_and_float_inputs_are_taken_as_floats(round_metric):
    y = [3, 9, 4, 11, 6, 2, 8]
    expect = solve_geodesic_graph(round_metric, np.array(y, dtype=float))
    for rows in (y, np.array(y, dtype=np.int32), np.array(y, dtype=np.uint8),
                 np.array(y, dtype=np.float32)):
        got = solve_geodesic_graph(round_metric, rows)
        assert got.y_m.dtype == float
        assert np.array_equal(got.y_m, expect.y_m)
        assert np.array_equal(got.xi_h, expect.xi_h)


def test_coerce_h_rows_equal_per_row_calls(s7):
    space = s7.space
    h_rows = np.random.default_rng(17).standard_normal((6, 4))
    full = embed(space, h_rows, space.h_indices)
    for rows in (h_rows, full):
        got = space.coerce_h(rows)
        each = np.stack([space.coerce_h(row) for row in rows])
        assert got.shape == (6, 4) and got.tobytes() == each.tobytes()
        assert got.tobytes() == h_rows.tobytes()
    full[3, space.m_indices[0]] = 1e-300
    with pytest.raises(ValueError, match="complement"):
        space.coerce_h(full)


def test_criterion_residuals_take_h_rows_or_full_rows(s7):
    rng = np.random.default_rng(23)
    y, xi = rng.standard_normal((8, 7)), rng.standard_normal((8, 4))
    for metric in _s7_metrics(s7).values():
        c = metric.c_coefficients(y)
        by_h = criterion_residuals(s7.space, y, c, xi)
        by_full = criterion_residuals(s7.space, y, c,
                                      embed(s7.space, xi, s7.space.h_indices))
        assert by_h.tobytes() == by_full.tobytes()
    with pytest.raises(ValueError, match=r"Xi\[8, 4\]"):
        criterion_residuals(s7.space, y, c, xi[0])  # would broadcast
    with pytest.raises(ValueError, match="complement"):
        criterion_residuals(s7.space, y, c, np.ones((8, 11)))


_ROWS = np.ones((2, 7))
_ONE_VECTOR_CALLS = {
    "solve_geodesic_graph": lambda m: solve_geodesic_graph(m, _ROWS),
    "geodesic_residual y": lambda m: geodesic_residual(m, _ROWS, np.zeros(4)),
    "geodesic_residual xi": lambda m: geodesic_residual(m, np.ones(7),
                                                        np.zeros((2, 4))),
    "f_value": lambda m: m.f_value(_ROWS),
    "fundamental_contraction y": lambda m: m.fundamental_contraction(
        _ROWS, np.ones(7)),
    "fundamental_contraction v": lambda m: m.fundamental_contraction(
        np.ones(7), _ROWS),
}


@pytest.mark.parametrize("name", _ONE_VECTOR_CALLS)
def test_one_vector_entry_points_reject_rows(round_metric, name):
    shape = r"\[4\] or \[11\], got shape \(2, 4\)" if name.endswith(" xi") \
        else r"\[7\] or \[11\], got shape \(2, 7\)"
    with pytest.raises(ValueError, match="expected one vector " + shape):
        _ONE_VECTOR_CALLS[name](round_metric)


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


def test_overflowing_criterion_raises_without_a_warning(s7):
    # the weights of sum_sq:1e300,1 stay finite at 1e5 y, but the products
    # of the bracket oracle overflow
    family = MetricFamily(s7.space, [[1.0, 1.0, 1.0], [2.0, 1.0, 4.0]])
    metric = FinslerMetric(family, l_function_from_spec("sum_sq:1e300,1"))
    y = 1e5 * np.array([0.3, -0.9, 0.4, 1.1, 0.6, -0.2, 0.8])
    c = metric.c_coefficients(y[None])
    assert np.isfinite(c).all()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(np.linalg.LinAlgError, match="not finite"):
            geodesic_residual(metric, y, np.zeros(4))
        with pytest.raises(np.linalg.LinAlgError, match="not finite"):
            criterion_residuals(s7.space, y[None], c, np.zeros((1, 4)))
        # at unit scale the same metric gives a finite residual
        assert np.isfinite(geodesic_residual(metric, y / 1e5,
                                             np.zeros(4))).all()
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


def test_empty_batches_give_empty_results(s7, round_metric):
    # criterion_residuals used to fail in numpy's reshape of size 0
    y, c, xi = np.zeros((0, 7)), np.zeros((0, 3)), np.zeros((0, 4))
    assert criterion_residuals(s7.space, y, c, xi).shape == (0, 7)
    a_mat, b_vec = assemble(s7.space, y, c)
    assert a_mat.shape == (0, 7, 4) and b_vec.shape == (0, 7)
    assert solve_batch(s7.space, y, c).xi.shape == (0, 4)
    assert round_metric.c_coefficients(y).shape == (0, 3)
    dev = check_equivariance_batch(round_metric, y, xi, np.zeros(0))[0]
    assert dev.shape == (0,)


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


def test_a_built_in_metric_solves_without_numpy_random():
    # built-in combiners are judged by their form, so nothing is sampled
    code = """import sys, finslergo as fg
s7 = fg.build_s7_space()
family = fg.MetricFamily(s7.space, [[1.0, 1.0, 1.0], [2.0, 1.0, 4.0]])
metric = fg.FinslerMetric(family, fg.l_function_from_spec("sq_sum:1,3"))
res = fg.solve_geodesic_graph(metric, [0.3, -0.9, 0.4, 1.1, 0.6, -0.2, 0.8])
print(res.unique, 'numpy.random' in sys.modules)"""
    src = os.path.dirname(os.path.dirname(finslergo.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env)
    assert proc.stdout.strip() == "True False"


def test_only_a_sharded_solve_imports_concurrent_futures():
    # the import, the README graph solve and a 511-row batch leave it
    # unloaded; a 512-row batch with two CPUs in the mask solves in shards
    code = """import contextlib, io, os, sys, finslergo
import numpy as np
from finslergo.cli import main
seen = ['concurrent.futures' in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    main(["graph", "--y", "0.3,-0.9,0.4,1.1,0.6,-0.2,0.8", "--l",
          "sq_sum:1,3", "--family", "1,1,1;2,1,4"])
seen.append('concurrent.futures' in sys.modules)
os.sched_getaffinity = lambda pid: {0, 1}
space = finslergo.build_s7_space().space
y = np.random.default_rng(0).standard_normal((512, 7))
for n in (511, 512):
    finslergo.solve_batch(space, y[:n], np.ones((n, 3)))
    seen.append('concurrent.futures' in sys.modules)
print(seen)"""
    src = os.path.dirname(os.path.dirname(finslergo.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env)
    assert proc.stdout.strip() == "[False, False, False, True]"


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
                         "check_equivariance", "KCoefficients",
                         "EquivarianceCheck"}

import ast
import hashlib
import inspect
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from finslergo import (FinslerMetric, LFunction, LieAlgebra, MetricFamily,
                       ReductiveSpace, assemble, build_s7_space,
                       closed_form_xi, criterion_residuals, extended_matrix,
                       geodesic_residual, go_property_scan, k_coefficients,
                       load_space_document, riemannian_metric, solve_batch,
                       solve_geodesic_graph, validate_l, verify_closed_form)
from finslergo.s7_catalog import (_complex_basis, ad_pattern_deviation,
                                  check_equivariance_sweep,
                                  extended_matrix_deviation,
                                  extended_matrix_sweep,
                                  isotropy_operator_patterns, verify_s7)
from finslergo.cli import main
from conftest import unit_m_samples


# -- construction fidelity ---------------------------------------------------------

def test_jacobi_exact(s7):
    assert s7.algebra.check_jacobi(tol=1e-12).max_violation == 0.0


def test_catalog_is_pinned_bit_for_bit(s7):
    # SHA-256 prefixes and nonzero counts of the catalog as the per-pair
    # derivation built it; the stacked derivation must reproduce every bit
    for array, digest, nonzero in (
            (s7.algebra.structure, "9fb2d2362bc83606", 96),
            (s7.realization.matrices, "ad64cd8a24378de2", 62),
            (s7.realization.base_point, "367d0297986cd0ee", 1)):
        assert array.dtype == np.float64
        data = np.ascontiguousarray(array).tobytes()
        assert hashlib.sha256(data).hexdigest()[:16] == digest
        assert np.count_nonzero(array) == nonzero


@pytest.fixture
def fresh_build():
    """Clear the catalog cache around a test, so it builds its own."""
    build_s7_space.cache_clear()
    yield build_s7_space
    build_s7_space.cache_clear()


def test_build_only_derives(fresh_build, monkeypatch):
    # the checks live in the tests and verify-s7; the build calls none
    from finslergo import s7_catalog

    def refuse(*args, **kwargs):
        raise AssertionError("the build must not run this check")

    monkeypatch.setattr(LieAlgebra, "check_jacobi", refuse)
    monkeypatch.setattr(ReductiveSpace, "validate", refuse)
    monkeypatch.setattr(s7_catalog, "ad_pattern_deviation", refuse)
    # W's constants come from its matrix, not from the pattern they are
    # checked against
    monkeypatch.setattr(s7_catalog, "isotropy_operator_patterns", refuse)
    test_catalog_is_pinned_bit_for_bit(fresh_build())


def test_matrix_model_is_skew_hermitian_and_quaternionic():
    sp2 = _complex_basis()
    conj_swap = np.zeros((4, 4), dtype=complex)
    conj_swap[0, 1] = conj_swap[2, 3] = -1.0
    conj_swap[1, 0] = conj_swap[3, 2] = 1.0
    assert np.array_equal(sp2.conj().transpose(0, 2, 1), -sp2)
    assert np.array_equal(sp2 @ conj_swap, conj_swap @ sp2.conj())


def test_ad_patterns_exact(s7):
    assert ad_pattern_deviation(s7) == 0.0
    alg = s7.algebra
    for lab, pattern in isotropy_operator_patterns().items():
        ad = alg.ad_operator(alg.basis_vector(lab))
        assert np.array_equal(ad[:7, :7], pattern)


def test_w_action_examples(s7):
    alg = s7.algebra
    w = alg.basis_vector("W")
    assert np.array_equal(alg.bracket(w, alg.basis_vector("Z2")),
                          2.0 * alg.basis_vector("Z3"))
    assert np.array_equal(alg.bracket(w, alg.basis_vector("X1")),
                          -alg.basis_vector("X2"))
    for lab in ("H1", "H2", "H3", "Z1"):
        assert_allclose(alg.bracket(w, alg.basis_vector(lab)), 0.0, atol=0.0)


def test_w_acts_like_z1_on_m(s7):
    alg = s7.algebra
    ad_w = alg.ad_operator(alg.basis_vector("W"))
    ad_z1 = alg.ad_operator(alg.basis_vector("Z1"))
    assert np.array_equal(ad_w[:7, :7], ad_z1[:7, :7])


def test_mixed_bracket_example(s7):
    # [X1, X2] = 2 H1 - 2 Z1: the isotropy and Z parts both appear
    alg = s7.algebra
    br = alg.bracket(alg.basis_vector("X1"), alg.basis_vector("X2"))
    expect = 2.0 * alg.basis_vector("H1") - 2.0 * alg.basis_vector("Z1")
    assert np.array_equal(br, expect)


def test_realization_is_homomorphism(s7):
    alg = s7.algebra
    mats = s7.realization.matrices
    rng = np.random.default_rng(21)
    for _ in range(20):
        a, b = rng.standard_normal((2, 11))
        lhs = (s7.realization.generator(a) @ s7.realization.generator(b)
               - s7.realization.generator(b) @ s7.realization.generator(a))
        rhs = s7.realization.generator(alg.bracket(a, b))
        assert np.abs(lhs - rhs).max() < 1e-12
    assert mats.shape == (11, 8, 8)


def test_realization_generators_are_skew(s7):
    for m in s7.realization.matrices:
        assert np.abs(m + m.T).max() == 0.0


def test_isotropy_annihilates_base_point(s7):
    p = s7.realization.base_point
    for idx in (7, 8, 9, 10):
        assert np.abs(s7.realization.matrices[idx] @ p).max() == 0.0


# -- ratio coefficients ------------------------------------------------------------

def test_k_unit_weights():
    assert k_coefficients([1.0, 1.0, 1.0]) == (-1.0, -1.0, 0.0)


def test_k_two_one_one():
    assert k_coefficients([2.0, 1.0, 1.0]) == (0.0, 0.0, 0.0)


def test_k3_zero_iff_equal_last_weights():
    rng = np.random.default_rng(29)
    for _ in range(20):
        c = rng.uniform(0.2, 5.0, size=3)
        k3 = k_coefficients(c)[2]
        assert (k3 == 0.0) == (c[1] == c[2])
        c[2] = c[1]
        assert k_coefficients(c)[2] == 0.0


def test_k_rejects_nonpositive():
    with pytest.raises(ValueError, match="positive"):
        k_coefficients([1.0, -1.0, 1.0])
    with pytest.raises(ValueError, match="positive"):
        k_coefficients([1.0, 0.0, 1.0])


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_weights_are_named_as_such(bad):
    with pytest.raises(ValueError,
                       match="^block weights must be finite and positive$"):
        closed_form_xi(np.ones(7), [bad, 1.0, 1.0])


# -- closed form --------------------------------------------------------------------

def test_closed_form_first_substitution(s7):
    c = [1.7, 0.6, 2.2]
    k1, _, k3 = k_coefficients(c)
    y = np.array([1.0, 0, 0, 0, 1.0, 0, 0])
    xi = closed_form_xi(y, c)
    assert_allclose(xi[s7.space.h_indices], [k1, 0.0, 0.0, k3], atol=0.0)


def test_closed_form_second_substitution(s7):
    c = [1.7, 0.6, 2.2]
    _, k2, _ = k_coefficients(c)
    y = np.array([1.0, 0, 0, 0, 0, 1.0, 0])
    xi = closed_form_xi(y, c)
    assert_allclose(xi[s7.space.h_indices], [0.0, k2, 0.0, 0.0], atol=0.0)


def test_closed_form_zero_z_part_gives_zero(s7):
    rng = np.random.default_rng(31)
    y = np.zeros(7)
    y[:4] = rng.standard_normal(4)
    assert_allclose(closed_form_xi(y, [1.3, 0.7, 2.0]), 0.0, atol=0.0)


def test_closed_form_x_zero_convention(s7):
    c = [1.3, 0.7, 2.0]
    k3 = k_coefficients(c)[2]
    y = np.array([0, 0, 0, 0, 1.5, -0.3, 0.8])
    xi = closed_form_xi(y, c)
    assert_allclose(xi[s7.space.h_indices], [0.0, 0.0, 0.0, k3 * 1.5],
                    atol=0.0)
    metric = riemannian_metric(s7.space, c)
    assert np.abs(geodesic_residual(metric, y, xi)).max() < 1e-12


def test_closed_form_scales_linearly(s7):
    c = [0.9, 1.8, 0.4]
    for y in unit_m_samples(s7.space, 20, seed=37):
        xi = closed_form_xi(y, c)
        for lam in (0.5, 2.0, 7.0):
            assert_allclose(closed_form_xi(lam * y, c), lam * xi, rtol=1e-12)


def test_closed_form_z2_z3_zero_stratum(s7):
    # system is rank deficient there, but the closed form still solves it
    c = [1.1, 0.5, 2.5]
    metric = riemannian_metric(s7.space, c)
    rng = np.random.default_rng(41)
    for _ in range(10):
        y = np.zeros(7)
        y[:4] = rng.standard_normal(4)
        y[4] = rng.standard_normal()
        xi = closed_form_xi(y, c)
        assert np.abs(geodesic_residual(metric, y, xi)).max() < 1e-12
        assert not solve_geodesic_graph(metric, y).unique


# -- displayed system ------------------------------------------------------------------

def test_extended_matrix_row_five(s7):
    rng = np.random.default_rng(43)
    y = rng.standard_normal(7)
    c = rng.uniform(0.3, 3.0, size=3)
    x1, x2, x3, x4, z1, z2, z3 = y
    row = extended_matrix(y, c)[4]
    assert_allclose(row, [0.0, 0.0, 0.0, 2.0 * z3,
                          2.0 * z1 * z3 * (c[1] / c[2] - 1.0)], rtol=1e-14)


def test_extended_matrix_rhs_vanishes_without_z(s7):
    y = np.zeros(7)
    y[:4] = [1.0, -2.0, 0.5, 0.3]
    ext = extended_matrix(y, [1.0, 2.0, 3.0])
    assert_allclose(ext[:, 4], 0.0, atol=0.0)


def test_extended_matrix_agrees_with_assembly(s7):
    rng = np.random.default_rng(47)
    y = rng.standard_normal((100, 7))
    c = rng.uniform(0.25, 4.0, size=(100, 3))
    dev = extended_matrix_deviation(y, c)
    assert dev.shape == (100,) and dev.max() < 1e-12


def _gram_det(y, c):
    """det(E^T E) of the displayed 6 x 4 coefficient part E, as the squared
    product of the diagonal of its R factor (no E^T E is formed)."""
    r = np.linalg.qr(extended_matrix(y, c)[..., :4], mode="r")
    return np.prod(np.diagonal(r, axis1=-2, axis2=-1), axis=-1) ** 2


def test_displayed_system_is_singular_exactly_on_two_strata(s7):
    # det(E^T E) = 4 (z2^2 + z3^2) |x|^6: full rank off {x = 0} and
    # {z2 = z3 = 0}
    rng = np.random.default_rng(53)
    y = rng.standard_normal((400, 7))
    c = rng.uniform(0.25, 4.0, (400, 3))
    nx = (y[:, :4] ** 2).sum(axis=1)
    closed = 4.0 * (y[:, 5] ** 2 + y[:, 6] ** 2) * nx ** 3
    assert np.abs(_gram_det(y, c) / closed - 1.0).max() <= 1e-12
    on_x = y.copy()
    on_x[:, :4] = 0.0
    assert np.all(_gram_det(on_x, c) == 0.0)
    on_z = y.copy()
    on_z[:, 5:] = 0.0  # rank 3: the last pivot is roundoff, eps |x|
    assert np.all(_gram_det(on_z, c) <= 1e-24 * nx ** 4)
    assert solve_batch(s7.space, y, c).unique.all()
    for on_stratum in (on_x, on_z):
        batch = solve_batch(s7.space, on_stratum, c)
        assert not batch.unique.any()
        # the rank rule drops sigma_min at RANK_RCOND sigma_max or below
        assert np.all(batch.cond >= 1e10)


def test_extended_matrix_rejects_bad_weights():
    with pytest.raises(ValueError, match="positive"):
        extended_matrix(np.ones(7), [1.0, 1.0, -1.0])
    with pytest.raises(ValueError, match="positive"):
        extended_matrix_deviation(np.ones((1, 7)), [[1.0, 1.0, -1.0]])


# -- oracle equivalence -----------------------------------------------------------------

def test_verify_closed_form_passes(s7):
    report = verify_closed_form(n_samples=300, seed=11, tol=1e-8)
    assert report.max_residual < 1e-9
    assert report.max_mismatch < 1e-8
    assert report.n_unique == 300


def test_verify_closed_form_rejects_zero_samples():
    with pytest.raises(ValueError):
        verify_closed_form(n_samples=0)


@pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan"), True, "a", None])
@pytest.mark.parametrize("check", [verify_closed_form, extended_matrix_sweep,
                                   check_equivariance_sweep])
def test_oracle_checks_reject_a_nan_or_non_positive_tol(check, tol):
    # a NaN tol used to fail every comparison and report passed: False;
    # True passed as a tol, and "a" failed in a TypeError that named no tol
    with pytest.raises(ValueError, match="tol must be positive"):
        check(20, 0, tol)


def test_a_numpy_tol_is_reported_as_a_python_float():
    # a float32 tol used to be kept, and json.dumps of the document failed
    doc = verify_s7(20, 0, np.float32(0.5))
    assert {type(c["tol"]) for c in doc["checks"]} == {float}
    assert json.loads(json.dumps(doc)) == verify_s7(20, 0, 0.5)
    for check in (extended_matrix_sweep, check_equivariance_sweep):
        assert type(check(20, 0, np.float32(0.5))["tol"]) is float
    assert type(verify_closed_form(20, 0, np.float32(0.5)).tol) is float


@pytest.mark.parametrize("check", [verify_closed_form, extended_matrix_sweep,
                                   check_equivariance_sweep])
def test_oracle_checks_reject_zero_samples_by_name(check):
    # the sweeps used to end in numpy's argmax of an empty sequence
    with pytest.raises(ValueError, match="n_samples must be at least 1"):
        check(0, 0, 1e-8)


# every entry point that draws samples, called with a sample count n
COUNTED = {
    "go_property_scan": lambda m, n: go_property_scan(m, n, 0),
    "validate_l": lambda m, n: validate_l(LFunction.squared_sum([1.0, 3.0]),
                                          n),
    "verify_closed_form": lambda m, n: verify_closed_form(n, 0),
    "extended_matrix_sweep": lambda m, n: extended_matrix_sweep(n, 0, 1e-12),
    "check_equivariance_sweep":
        lambda m, n: check_equivariance_sweep(n, 0, 1e-8),
}
COUNT_NAMES = {"validate_l": "sample_count"}


@pytest.mark.parametrize("bad", [True, False, 10.5, 3.0, "3", None])
@pytest.mark.parametrize("entry", sorted(COUNTED))
def test_a_sample_count_that_is_no_integer_is_refused_by_name(
        round_metric, entry, bad):
    # these used to run (True), fail inside numpy with a TypeError (10.5,
    # "3", None) or say "at least 1" (False)
    name = COUNT_NAMES.get(entry, "n_samples")
    with pytest.raises(ValueError, match=f"{name} must be an integer, not"):
        COUNTED[entry](round_metric, bad)


@pytest.mark.parametrize("entry", sorted(COUNTED))
def test_numpy_integer_sample_counts_are_taken_as_ints(round_metric, entry):
    expect = COUNTED[entry](round_metric, 5)
    for n in (np.int64(5), np.int32(5), np.uint8(5)):
        got = COUNTED[entry](round_metric, n)
        assert repr(got) == repr(expect)


# every entry point that takes a seed, called with a seed s
SEEDED = {
    "go_property_scan": lambda m, s: go_property_scan(m, 5, s),
    "validate_l": lambda m, s: validate_l(LFunction.squared_sum([1.0, 3.0]),
                                          10, s),
    "verify_closed_form": lambda m, s: verify_closed_form(20, s),
    "extended_matrix_sweep": lambda m, s: extended_matrix_sweep(20, s, 1e-12),
    "check_equivariance_sweep":
        lambda m, s: check_equivariance_sweep(20, s, 1e-8),
    "verify_s7": lambda m, s: verify_s7(20, s),
}


@pytest.mark.parametrize("bad, message", [
    (None, "seed must be an integer, not None"),
    (True, "seed must be an integer, not True"),
    (1.5, "seed must be an integer, not 1.5"),
    ("3", "seed must be an integer, not '3'"),
    (-1, "seed must be at least 0"),
])
@pytest.mark.parametrize("entry", sorted(SEEDED))
def test_a_seed_that_is_no_non_negative_integer_is_refused_by_name(
        round_metric, entry, bad, message):
    # None used to draw fresh entropy (or, in the scan, fail in int(None)
    # after solving), True ran as seed 1, and -1 and 1.5 failed inside numpy
    with pytest.raises(ValueError, match=message):
        SEEDED[entry](round_metric, bad)


@pytest.mark.parametrize("entry", sorted(SEEDED))
def test_numpy_integer_seeds_are_taken_as_ints(round_metric, entry):
    expect = SEEDED[entry](round_metric, 0)
    for s in (np.int64(0), np.int32(0), np.uint8(0)):
        assert repr(SEEDED[entry](round_metric, s)) == repr(expect)


def test_closed_form_solves_finsler_systems_too(s7):
    # weights induced by a genuinely composite norm, not constants
    family = MetricFamily(s7.space, [[1.0, 1.0, 1.0], [0.5, 2.0, 1.0]])
    metric = FinslerMetric(family, LFunction.sum_of_squares([1.0, 2.0]))
    for y in unit_m_samples(s7.space, 50, seed=53):
        xi = closed_form_xi(y, metric.c_coefficients(y))
        assert np.abs(geodesic_residual(metric, y, xi)).max() < 1e-10


def test_equivariance_sweep_validates_its_metric_once(monkeypatch):
    # built once, and accepted by its combiner's form without sampling
    from finslergo import finsler_metric, s7_catalog
    calls, built = [], []
    real_init = finsler_metric.FinslerMetric.__init__

    def counted_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(finsler_metric, "validate_l",
                        lambda *args, **kwargs: calls.append(args))
    monkeypatch.setattr(finsler_metric.FinslerMetric, "__init__",
                        counted_init)
    s7_catalog._equivariance_metric.cache_clear()
    first = s7_catalog.check_equivariance_sweep(20, 0, 1e-8)
    for seed in (1, 2, 0):
        last = s7_catalog.check_equivariance_sweep(20, seed, 1e-8)
    assert len(calls) == 0 and len(built) == 1
    assert last == first


# -- the documented draws ---------------------------------------------------------------

def _reference_y_c(seed, n):
    """One array per call: the base vectors, then the weight triples."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 7)), rng.uniform(0.25, 4.0, (n, 3))


def _reference_v_h_t(seed, n):
    """One array per call: base vectors, isotropy vectors, then times."""
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, 7)), rng.standard_normal((n, 4)),
            rng.uniform(-1.0, 1.0, n))


def test_draws_equal_the_documented_bulk_calls(s7, monkeypatch):
    from finslergo import s7_catalog
    seen = {}

    def record(name):
        real = getattr(s7_catalog, name)

        def recorded(*args):
            seen[name] = args
            return real(*args)
        monkeypatch.setattr(s7_catalog, name, recorded)

    for name in ("extended_matrix_deviation", "solve_batch",
                 "check_equivariance_batch"):
        record(name)
    for seed in range(100):
        s7_catalog.extended_matrix_sweep(50, seed, 1e-12)
        s7_catalog.verify_closed_form(30, seed)
        s7_catalog.check_equivariance_sweep(20, seed, 1e-8)
        y, c = _reference_y_c(seed, 50)
        u, c_cf = _reference_y_c(seed, 30)
        v, h, t = _reference_v_h_t(seed, 20)
        for got, expect in [
                *zip(seen["extended_matrix_deviation"], (y, c)),
                *zip(seen["solve_batch"][1:],
                     (u / s7.space.alpha_norm(u)[:, None], c_cf)),
                *zip(seen["check_equivariance_batch"][1:],
                     (v / s7.space.alpha_norm(v)[:, None], h, t))]:
            assert got.shape == expect.shape
            assert np.array_equal(got, expect)


def test_equivariance_witness_is_a_row_of_the_documented_draws(s7):
    from finslergo import s7_catalog
    v, h, t = _reference_v_h_t(31, 60)
    out = s7_catalog.check_equivariance_sweep(60, 31, 1e-8)
    y = v / s7.space.alpha_norm(v)[:, None]
    i = np.flatnonzero((h == out["witness_h"]).all(axis=1))
    assert len(i) == 1 and t[i[0]] == out["witness_t"]
    assert np.array_equal(out["witness_y"], y[i[0]])


# -- the verify-s7 suite ----------------------------------------------------------

@pytest.mark.parametrize("n, seed, tol", [(1000, 0, None), (100, 5, None),
                                          (100, 5, 1e-15)])
def test_verify_s7_is_the_document_the_command_prints(capsys, n, seed, tol):
    argv = ["verify-s7", "--samples", str(n), "--seed", str(seed)]
    code = main(argv + ([] if tol is None else ["--tol", repr(tol)]))
    doc = verify_s7(n, seed, tol)
    assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"
    assert code == (0 if doc["passed"] else 1)
    assert doc["passed"] is (tol is None)


def test_verify_s7_holds_each_check_to_its_default_or_to_tol():
    names = ["jacobi", "ad_patterns", "extended_matrix",
             "closed_form_residual", "closed_form_vs_solver", "equivariance"]
    for tol, expect in ((None, [1e-12, 1e-12, 1e-12, 1e-9, 1e-8, 1e-8]),
                        (1e-3, [1e-3] * 6)):
        checks = verify_s7(40, 2, tol)["checks"]
        assert [c["name"] for c in checks] == names
        assert [c["tol"] for c in checks] == expect
        # the sweeps take max(20, n // 10) draws: 20 here, as at n = 200
        assert checks[2] == verify_s7(200, 2, tol)["checks"][2]


@pytest.mark.parametrize("kwargs, message", [
    ({"n_samples": 0}, "n_samples must be at least 1"),
    ({"n_samples": True}, "n_samples must be an integer, not True"),
    ({"n_samples": 10.5}, "n_samples must be an integer, not 10.5"),
    ({"tol": float("nan")}, "tol must be positive, not nan"),
    ({"tol": 0.0}, "tol must be positive, not 0.0"),
    ({"tol": -1e-8}, "tol must be positive, not -1e-08"),
    ({"tol": True}, "tol must be positive, not True"),
    ({"tol": "1e-8"}, "tol must be positive, not '1e-8'"),
])
def test_verify_s7_refuses_a_bad_count_or_tol_by_name(kwargs, message):
    with pytest.raises(ValueError, match=message):
        verify_s7(**{"n_samples": 20, **kwargs})


# -- the sweeps equal the composition of their public steps -------------------------
#
# verify_closed_form and extended_matrix_sweep are compositions of public
# functions; the references below write the same sweeps out again from those
# functions (and the stacked display, for extended_matrix), and every field
# must be equal, witnesses included.  The catalog reaches the solver through
# its public names only, so a change to the solver's private core cannot
# leave a second, stale copy of the batch path behind in the catalog.

def test_the_catalog_imports_no_private_solver_name():
    from finslergo import s7_catalog
    tree = ast.parse(inspect.getsource(s7_catalog))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "geodesic"
             for alias in node.names]
    assert "solve_batch" in names
    assert [n for n in names if n.startswith("_")] == []


def _reference_display(y, c):
    """extended_matrix as 30 broadcast entries stacked row by row."""
    x1, x2, x3, x4, z1, z2, z3 = y.T
    c1, c2, c3 = c.T
    r21, r31, r23 = c2 / c1, c3 / c1, c2 / c3
    p = 1.0 - 2.0 * r21
    q = 1.0 - 2.0 * r31
    zero = np.zeros_like(z1)
    rows = [
        [x2, x3, x4, -x2, p * z1 * x2 + q * (z2 * x3 + z3 * x4)],
        [-x1, -x4, x3, x1, -p * z1 * x1 + q * (z2 * x4 - z3 * x3)],
        [x4, -x1, -x2, x4, -p * z1 * x4 + q * (-z2 * x1 + z3 * x2)],
        [-x3, x2, -x1, -x3, p * z1 * x3 - q * (z2 * x2 + z3 * x1)],
        [zero, zero, zero, 2.0 * z3, 2.0 * z1 * z3 * (r23 - 1.0)],
        [zero, zero, zero, -2.0 * z2, 2.0 * z1 * z2 * (1.0 - r23)],
    ]
    return np.stack([np.stack(np.broadcast_arrays(*row), axis=-1)
                     for row in rows], axis=-2)


def _reference_extended_sweep(s7, n, seed, tol):
    y, c = _reference_y_c(seed, n)
    a_mat, b_vec = assemble(s7.space, y, c)
    full = np.concatenate([a_mat, b_vec[..., None]], axis=-1)
    scaled = full[:, [0, 1, 2, 3, 5, 6]] / c[:, [0, 0, 0, 0, 2, 2], None]
    display = _reference_display(y, c)
    dev = np.maximum(np.abs(full[:, 4]).max(axis=1),
                     np.abs(scaled - display).max(axis=(1, 2)))
    i = int(np.argmax(dev))
    return {"passed": bool(dev[i] <= tol), "worst": float(dev[i]), "tol": tol,
            "witness_y": y[i].tolist(), "witness_c": c[i].tolist()}


def _reference_verify(s7, n, seed, tol):
    space = s7.space
    v, c = _reference_y_c(seed, n)
    y = v / space.alpha_norm(v)[:, None]
    xi = closed_form_xi(y, c)[:, space.h_indices]
    residual = np.abs(criterion_residuals(space, y, c, xi)).max(axis=1)
    sol = solve_batch(space, y, c)
    mismatch = np.where(sol.unique, np.abs(sol.xi - xi).max(axis=1), -1.0)
    i_res, i_mis = int(np.argmax(residual)), int(np.argmax(mismatch))
    found = bool(sol.unique[i_mis])
    return dict(
        n_samples=n, tol=tol, max_residual=float(residual[i_res]),
        worst_residual_y=y[i_res], worst_residual_c=c[i_res],
        max_mismatch=max(float(mismatch[i_mis]), 0.0),
        worst_mismatch_y=y[i_mis] if found else np.zeros(7),
        worst_mismatch_c=c[i_mis] if found else np.ones(3),
        n_unique=int(sol.unique.sum()))


@pytest.mark.parametrize("n", [1, 7, 1000])
def test_sweeps_equal_their_public_composition(s7, n):
    for seed in range(100):
        assert (extended_matrix_sweep(n, seed, 1e-12)
                == _reference_extended_sweep(s7, n, seed, 1e-12))
        report = verify_closed_form(n, seed, 1e-8)
        for field, expect in _reference_verify(s7, n, seed, 1e-8).items():
            got = getattr(report, field)
            assert type(got) is type(expect) and np.array_equal(got, expect)


def test_display_equals_the_stacked_entries_bit_for_bit(s7):
    y, c = _reference_y_c(61, 50)
    y[:5, :4] = 0.0  # on the x = 0 stratum
    y[5:10, 5:] = 0.0  # on z2 = z3 = 0
    for yy, cc in ((y, c), (y[0], c), (y, c[0]), (y[7], c[7])):
        got = extended_matrix(yy, cc)
        expect = _reference_display(yy, np.asarray(cc))
        assert got.shape == expect.shape and got.tobytes() == expect.tobytes()


# -- export round trip --------------------------------------------------------------------

def test_catalog_exports_and_reloads(s7):
    family = MetricFamily(s7.space, [[1.0, 2.0, 0.5]])
    space2, family2 = load_space_document(s7.space.to_json_dict(family))
    assert np.array_equal(space2.alg.structure, s7.algebra.structure)
    metric = FinslerMetric(family2, LFunction.sum_of_squares([1.0]))
    for y in unit_m_samples(s7.space, 10, seed=59):
        a = solve_geodesic_graph(metric, y)
        b = solve_geodesic_graph(
            riemannian_metric(s7.space, [1.0, 2.0, 0.5]), y)
        assert_allclose(a.xi, b.xi, atol=1e-14)

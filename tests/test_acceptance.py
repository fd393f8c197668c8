"""Acceptance gate: every criterion at its stated tolerance, one line each."""

import time

import numpy as np
import pytest

from finslergo import (FinslerMetric, LFunction, MetricFamily, degree_one_sum,
                       check_equivariance_batch, closed_form_xi,
                       geodesic_residual, go_property_scan,
                       riemannian_metric, solve_geodesic_graph, validate_l)
from finslergo.cli import main
from finslergo.s7_catalog import (ad_pattern_deviation,
                                  extended_matrix_deviation,
                                  isotropy_operator_patterns)
from conftest import (alpha_gram, family_product, fd_fundamental,
                      unit_m_samples)


def report(number, passed, detail):
    line = f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def test_criterion_1_closed_form_oracle(s7):
    """1000 unit base vectors x 20 positive weight triples: the closed form
    satisfies the criterion to 1e-9 and matches the solver to 1e-8
    wherever the solution is unique; runtime under 30 s."""
    t0 = time.perf_counter()
    ys = unit_m_samples(s7.space, 1000, seed=202)
    rng = np.random.default_rng(404)
    triples = rng.uniform(0.25, 4.0, size=(20, 3))
    max_residual = 0.0
    max_mismatch = 0.0
    n_unique = 0
    for c in triples:
        metric = riemannian_metric(s7.space, c)
        for y in ys:
            xi = closed_form_xi(y, c)
            max_residual = max(max_residual, float(
                np.abs(geodesic_residual(metric, y, xi)).max()))
            sol = solve_geodesic_graph(metric, y)
            if sol.unique:
                n_unique += 1
                max_mismatch = max(max_mismatch, float(
                    np.abs(sol.xi - xi).max()))
    elapsed = time.perf_counter() - t0
    report(1, max_residual < 1e-9 and max_mismatch < 1e-8 and elapsed < 30.0,
           f"residual {max_residual:.2e}, mismatch {max_mismatch:.2e}, "
           f"unique {n_unique}/20000, {elapsed:.1f}s")


def test_criterion_2_riemannian_specialization(s7):
    """Constant weight triples: the single-metric pipeline reproduces the
    closed form within 1e-8 on 200 random base vectors each."""
    worst = 0.0
    for c in ([1.0, 1.0, 1.0], [2.0, 3.0, 5.0], [0.5, 2.0, 9.0]):
        metric = riemannian_metric(s7.space, c)
        for y in unit_m_samples(s7.space, 200, seed=211):
            sol = solve_geodesic_graph(metric, y)
            assert sol.unique
            worst = max(worst, float(
                np.abs(sol.xi - closed_form_xi(y, c)).max()))
    report(2, worst < 1e-8, f"worst deviation {worst:.2e}")


def test_criterion_3_composite_family_scan(s7):
    """Composite norms over two positively related metrics keep every
    sampled residual below 1e-9."""
    family = MetricFamily(s7.space, [[1.0, 1.0, 1.0], [2.0, 1.0, 4.0]])
    combiners = (LFunction.sum_of_squares([1.0, 1.0]),
                 LFunction.squared_sum([1.0, 1.0]),
                 LFunction.squared_sum([1.0, 3.0]))
    worst = 0.0
    for lf in combiners:
        metric = FinslerMetric(family, lf)
        scan = go_property_scan(metric, 1000, seed=223)
        worst = max(worst, scan.max_residual)
    report(3, worst < 1e-9, f"max residual {worst:.2e} over 3x1000 samples")


def test_criterion_4_fundamental_tensor_oracle(s7):
    """Central finite differences of 0.5*F^2 reproduce the contraction to
    1e-6 relative (scaled by F(y) F(v)) on 1000 pairs per built-in kind."""
    family = MetricFamily(s7.space, [[1.0, 1.0, 1.0], [2.0, 1.0, 4.0]])
    gram = alpha_gram(s7.space)
    worst = 0.0
    for lf in (LFunction.sum_of_squares([1.0, 2.0]),
               LFunction.squared_sum([1.0, 3.0])):
        metric = FinslerMetric(family, lf)
        rng = np.random.default_rng(227)
        for _ in range(1000):
            y, v = rng.standard_normal((2, 7))
            y /= np.sqrt(y @ gram @ y)
            v /= np.sqrt(v @ gram @ v)
            exact = metric.fundamental_contraction(y, v)
            fd = fd_fundamental(metric, y, v, step=1e-4)
            scale = metric.f_value(y) * metric.f_value(v)
            worst = max(worst, abs(exact - fd) / scale)
    report(4, worst < 1e-6, f"worst relative deviation {worst:.2e}")


def test_criterion_5_euler_identity(s7):
    """sum_j B_j g_j(y,y) equals F(y)^2 to 1e-10 relative on 1000 samples."""
    family = MetricFamily(s7.space, [[1.0, 1.0, 1.0], [2.0, 1.0, 4.0]])
    metric = FinslerMetric(family, LFunction.squared_sum([1.0, 3.0]))
    worst = 0.0
    rng = np.random.default_rng(229)
    for _ in range(1000):
        y = rng.standard_normal(7)
        b = metric.b_coefficients(y)
        total = sum(b[j] * family_product(family, j, y, y) for j in range(2))
        fsq = metric.f_value(y) ** 2
        worst = max(worst, abs(total - fsq) / fsq)
    report(5, worst <= 1e-10, f"worst relative deviation {worst:.2e}")


def test_criterion_6_structure_fidelity(s7):
    """Exact bracket catalog: Jacobi below 1e-12, restricted adjoints equal
    their plane-rotation patterns exactly, and the displayed augmented
    system matches the row-scaled assembly to 1e-12 on 100 draws."""
    jacobi = s7.algebra.check_jacobi(tol=1e-12)
    patterns_exact = ad_pattern_deviation(s7) == 0.0
    alg = s7.algebra
    named = isotropy_operator_patterns()
    for lab in ("H1", "H2", "H3", "W"):
        ad = alg.ad_operator(alg.basis_vector(lab))
        patterns_exact &= bool(np.array_equal(ad[:7, :7], named[lab]))
    rng = np.random.default_rng(233)
    ys, cs = np.empty((100, 7)), np.empty((100, 3))
    for i in range(100):
        ys[i] = rng.standard_normal(7)
        cs[i] = rng.uniform(0.25, 4.0, size=3)
    worst_ext = float(extended_matrix_deviation(ys, cs).max())
    report(6, jacobi.passed and patterns_exact and worst_ext < 1e-12,
           f"jacobi {jacobi.max_violation:.2e}, patterns exact: "
           f"{patterns_exact}, extended matrix {worst_ext:.2e}")


def test_criterion_7_equivariance(s7):
    """Transport commutes with solving to 1e-8 over 100 random triples."""
    family = MetricFamily(s7.space, [[1.0, 1.0, 1.0], [2.0, 1.0, 4.0]])
    metric = FinslerMetric(family, LFunction.squared_sum([1.0, 3.0]))
    rng = np.random.default_rng(239)
    gram = alpha_gram(s7.space)
    worst = 0.0
    for _ in range(100):
        v = rng.standard_normal(7)
        y = v / np.sqrt(v @ gram @ v)
        h = rng.standard_normal(4)
        t = float(rng.uniform(-1.0, 1.0))
        dev, unique_src, unique_dst = check_equivariance_batch(
            metric, y[None], h[None], [t])
        assert unique_src[0] and unique_dst[0]
        worst = max(worst, float(dev[0]))
    report(7, worst < 1e-8, f"worst deviation {worst:.2e}")


def test_criterion_8_combiner_validation():
    """Both degree-2 built-ins pass all five conditions on 1000 orthant
    samples; the literal degree-1 sum fails exactly homogeneity."""
    ok = validate_l(LFunction.sum_of_squares([1.0, 1.0]),
                    sample_count=1000, seed=241).passed
    ok &= validate_l(LFunction.squared_sum([1.0, 1.0]),
                     sample_count=1000, seed=251).passed
    failed = validate_l(degree_one_sum([1.0, 1.0]),
                        sample_count=1000, seed=257).failed()
    report(8, ok and failed == ["ii"],
           f"builtins pass: {ok}, degree-1 failures: {failed}")


def test_criterion_9_orbit_sanity(tmp_path, capsys):
    """Curve points from the orbit command stay on the unit sphere to 1e-9
    for 10 random initial vectors, 200 steps each."""
    rng = np.random.default_rng(263)
    worst = 0.0
    for i in range(10):
        y = rng.standard_normal(7)
        out = tmp_path / f"orbit{i}.csv"
        coords = ",".join(repr(float(v)) for v in y)
        code = main(["orbit", f"--y={coords}",
                     "--steps", "200", "--t-max", "6.283185307179586",
                     "--l", "sq_sum:1,3", "--family", "1,1,1;2,1,4",
                     "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 200
        for row in rows:
            point = np.array([float(x) for x in row.split(",")[1:]])
            worst = max(worst, abs(np.linalg.norm(point) - 1.0))
    report(9, worst < 1e-9, f"worst unit-norm deviation {worst:.2e}")

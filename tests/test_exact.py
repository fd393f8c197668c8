"""The float solve of the S^7 catalog against an exact rational oracle.

``exact.ExactSystem`` assembles each row's system over the rationals and
solves it by a full-rank factorization, so these tests need no closed
form: the float rank must be the exact rank, the float xi must be within
a stated multiple of ``cond * eps * max|xi|`` of the exact one, and on
rank-deficient rows it must be the exact minimal-norm solution.  The
block weights are the quick-start metric's, each float taken exactly.
"""

import numpy as np
import pytest

from finslergo import (FinslerMetric, LFunction, MetricFamily, assemble,
                       solve_batch)
from exact import ExactSystem

EPS = np.finfo(float).eps
ROWS = 100
# Largest forward error over cond * eps * max|xi_exact| allowed on
# full-rank rows; the rows below reach 2.04 (generic, a margin of 3.9)
# and 5.7e-6 (near).
FULL_RANK_MULTIPLE = 8.0
# On rank-deficient rows the float xi is the minimal-norm solution to this
# multiple of kappa_r * eps * max|xi_exact|, where kappa_r = sigma_1 /
# sigma_r over the kept singular values; the rows below reach 5.5 (a
# margin of 2.9).
DEFICIENT_MULTIPLE = 16.0


@pytest.fixture(scope="module")
def exact(s7):
    return ExactSystem(s7.space)


@pytest.fixture(scope="module")
def quick_start(s7):
    return FinslerMetric(MetricFamily(s7.space, [[1, 1, 1], [2, 1, 4]]),
                         LFunction.squared_sum([1.0, 3.0]))


def _draw(kind, seed, n=ROWS):
    """Gaussian rows; "near" and "close" rows have |x|/|y| log-uniform
    within a factor 10^0.5 of 1e-6 and 1e-10, "z0" rows z2 = z3 = 0."""
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((n, 7))
    if kind in ("near", "close"):
        ratio = 10.0 ** (rng.uniform(-0.5, 0.5, n)
                         + (-6.0 if kind == "near" else -10.0))
        y[:, :4] *= (ratio * np.linalg.norm(y[:, 4:], axis=1)
                     / np.linalg.norm(y[:, :4], axis=1))[:, None]
    elif kind == "z0":
        y[:, 5:] = 0.0
    return y


def _compare(s7, exact, metric, y):
    """The float batch, and the exact ranks and xi as float arrays."""
    c = metric.c_coefficients(y)
    batch = solve_batch(s7.space, y, c)
    solved = [exact.solve(row, w) for row, w in zip(y, c)]
    rank = np.array([r for r, _ in solved])
    xi = np.array([[float(v) for v in x] for _, x in solved])
    return batch, rank, xi


def test_the_exact_system_is_the_assembled_one(s7, exact, quick_start):
    y = _draw("generic", 501, 10)
    c = quick_start.c_coefficients(y)
    a_mat, b_vec = assemble(s7.space, y, c)
    for n in range(len(y)):
        a_ex, b_ex = exact.assemble(y[n], c[n])
        a_ex, b_ex = np.array(a_ex, dtype=float), np.array(b_ex, dtype=float)
        scale = np.abs(np.concatenate([a_ex.ravel(), b_ex])).max()
        assert np.abs(a_mat[n] - a_ex).max() <= 8 * EPS * scale
        assert np.abs(b_vec[n] - b_ex).max() <= 8 * EPS * scale


@pytest.mark.parametrize("kind, seed", [("generic", 503), ("near", 505)])
def test_full_rank_rows_meet_the_forward_error_bound(s7, exact, quick_start,
                                                     kind, seed):
    batch, rank, xi = _compare(s7, exact, quick_start, _draw(kind, seed))
    assert np.all(rank == 4)
    assert np.array_equal(batch.rank, rank)
    err = np.abs(batch.xi - xi).max(axis=1)
    bound = batch.cond * EPS * np.abs(xi).max(axis=1)
    assert np.all(err <= FULL_RANK_MULTIPLE * bound)


def test_rank_deficient_rows_get_the_exact_minimal_norm(s7, exact,
                                                        quick_start):
    # z2 = z3 = 0 with x != 0: the graph is not unique, and of the solution
    # line the solve must return the point of least norm
    y = _draw("z0", 507)
    batch, rank, xi = _compare(s7, exact, quick_start, y)
    assert np.all(rank == 3)
    assert np.array_equal(batch.rank, rank)
    sigma = np.linalg.svd(assemble(s7.space, y, quick_start.c_coefficients(
        y))[0], compute_uv=False)
    kappa_r = sigma[:, 0] / sigma[:, 2]
    err = np.abs(batch.xi - xi).max(axis=1)
    assert np.all(err <= DEFICIENT_MULTIPLE * kappa_r * EPS
                  * np.abs(xi).max(axis=1))


@pytest.fixture(scope="module")
def close_rows(s7, exact, quick_start):
    return _compare(s7, exact, quick_start, _draw("close", 509))


def test_rows_next_to_the_x_stratum_have_exact_rank_four(close_rows):
    assert np.all(close_rows[1] == 4)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the rank rule truncates rows at |x|/|y| ~ 1e-10 to rank 1 where the "
    "exact rank is 4 (CHANGES.md FOUND line 16, ROADMAP item 2)"))
def test_rows_next_to_the_x_stratum_keep_their_exact_rank(close_rows):
    batch, rank, _ = close_rows
    assert np.array_equal(batch.rank, rank)

"""Geodesic-vector criterion, geodesic-graph solver, and sampling checks.

A vector y + xi (y in m nonzero, xi in the isotropy algebra) generates a
homogeneous geodesic exactly when

    sum_i C_i(y) * alpha_i(y, [y + xi, U]_m) = 0   for every U in m.

Expanding xi over the isotropy basis turns this into the linear system
A(y) xi = b(y).  :func:`assemble`, :func:`solve_batch` and
:func:`criterion_residuals` work on a batch of base vectors ``Y[N, dim_m]``
with per-row block weights ``C[N, s]``; the one-vector entry points solve
a batch of one by the same core and build their result from its row.
Every solve assembles its system in one pass, ``_pass``.  The solver
returns the minimal-norm least-squares solution together with rank,
uniqueness and a condition estimate, by QR where full rank is certified
and by SVD elsewhere.  Sampling utilities verify the geodesic-orbit
property and the equivariance of the solved map over random draws.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
# numpy's LAPACK gufuncs, without np.linalg's copies, checks and errstate
from numpy.linalg._umath_linalg import inv as _inv, qr_r_raw as _qr_r_raw

from .finsler_metric import _NORM_OVERFLOW, FinslerMetric
from .lie_algebra import (Vector, _abs_row_max, _all, _count, _real,
                          _Record, matrix_exponential)

RANK_RCOND = 1e-10
# Fewest rows a shard of a large batch takes (the rule is in :func:`_solve`).
# On a 2-vCPU VM an idle pool thread starts a task 0.16 ms after it is
# submitted (median; 0.31 ms at p99), and 100 rows solve in about 0.11 ms,
# so the 200-row batches of verify-s7's equivariance sweep stay on one thread.
_SHARD_ROWS = 256
_pool = None  # (pid, executor) of this process, built on first use


def float_repr(x) -> str:
    """Shortest round-trip decimal form, used for deterministic CSV output."""
    return repr(float(x))


# -- the batched criterion ------------------------------------------------------
#
# Row n of every array below belongs to base vector Y[n].  Each contraction
# is evaluated item by item (stacked matrix products, einsum over the batch
# axis), so a row's result is bit-for-bit the same in a batch of one and in
# a batch of any size.  Shared operands stay stacked per row too: w @ M
# would run as gemv for one row and gemm for many, which round differently.


def _rows(space, Y, C):
    """Validated m-coordinates ``[N, dim_m]`` and block weights ``[N, s]``
    on a space that passes its checks."""
    space._require_valid()
    Y = space.coerce_m(Y)
    C = _real(C, "block weights C")
    if Y.ndim != 2 or C.shape != (len(Y), space.n_blocks):
        raise ValueError(f"expected Y[N, {space.dim_m}] and C[N, "
                         f"{space.n_blocks}], got {Y.shape} and {C.shape}")
    if not _all(np.isfinite(C)):
        raise ValueError("block weights C must be finite")
    return Y, C


def _criterion(space, Y, C, Xi) -> np.ndarray:
    """The bracket oracle: component a is sum_i C_i alpha_i(y, [w, U_a]_m)
    with w = y + xi, from the structure constants by one product per row.
    A result that overflows raises ``LinAlgError``, with no numpy warning."""
    w = np.zeros((len(Y), space.dim))
    w[:, space.m_indices] = Y
    w[:, space.h_indices] = Xi
    with np.errstate(over="ignore", invalid="ignore"):
        brackets = (w[:, None, :] @ space.c_gmm).reshape(
            len(Y), space.dim_m, space.dim_m)
        out = (brackets @ space.weighted_apply(Y, C)[..., None])[..., 0]
    if not _all(np.isfinite(out)):
        raise np.linalg.LinAlgError(_NORM_OVERFLOW)
    return out


def _pass(space, Y, C=None, metric=None):
    """A[N, dim_m, dim_h] and b[N, dim_m], the criterion being A xi - b, of
    checked m-rows Y with C from ``metric`` or given, in one pass under the
    caller's ``np.errstate``: G y serves the norms and (sum_i C_i alpha_i) y,
    whose product with c_system is p[n, k, a] = sum_i C_i alpha_i(y, [e_k,
    U_a]_m), isotropy e_k first; A is its isotropy part and b its complement
    part times y.  One test finds A and b finite or raises LinAlgError."""
    n, h = len(Y), space.dim_h
    y = Y[:, None, :]  # each row as a 1 x dim_m matrix
    gy = space._apply_gram(y)
    C = C[:, None, :] if metric is None else metric._weights(y, gy)[1]
    p = ((C.take(space._block_of, axis=-1) * gy) @ space.c_system).reshape(
        n, space.dim, space.dim_m)
    a_mat, b_vec = p[:, :h].transpose(0, 2, 1), -(y @ p[:, h:])[:, 0]
    if not (_all(np.isfinite(a_mat)) and _all(np.isfinite(b_vec))):
        raise np.linalg.LinAlgError(_NORM_OVERFLOW)
    return a_mat, b_vec


@lru_cache(maxsize=None)
def _upper(h):
    return np.triu(np.ones((h, h), dtype=bool))


def _svd_solve(a_mat, b_vec):
    """Stacked SVD of finite systems, rank by the ``lstsq`` rule: singular
    values above RANK_RCOND times the largest count.  The condition number
    is the largest over the smallest of all dim_h singular values, inf where
    the smallest is 0: on A = 0, and always when dim_m < dim_h."""
    u, sigma, vt = np.linalg.svd(a_mat, full_matrices=False)
    kept = sigma > RANK_RCOND * sigma[:, :1]
    coef = (b_vec[:, None, :] @ u) / np.where(kept, sigma, np.inf)[:, None, :]
    low = sigma[:, -1] if sigma.shape[1] == a_mat.shape[2] else 0.0
    return (coef @ vt)[:, 0], kept.sum(axis=1), np.where(
        low > 0, sigma[:, 0] / low, np.inf)


def _min_norm_solve(a_mat, b_vec):
    """Minimal-norm least squares, QR first; returns xi, rank and cond.

    One in-place QR of [A | b] gives R and Q^T b for every row.  A row is
    certified full rank when h^2 max|R| max|R^-1| < 1e-2 / RANK_RCOND,
    which bounds the 2-norm condition number of A a hundredfold inside the
    SVD rank rule; it gets xi = R^-1 Q^T b, and cond = max|R| max|R^-1|,
    which lies in [kappa_2(A) / h^2, kappa_2(A)].  Every other row takes its
    rank and cond from :func:`_svd_solve`, and keeps the QR xi where that
    rank is full and the QR cond and xi are finite (a zero pivot makes its
    row of R^-1 NaN under the caller's ignored floating-point errors): just
    off the x = 0 stratum R^-1 Q^T b is far closer to the solution than the
    SVD's xi.  When dim_m < dim_h every row takes :func:`_svd_solve`.  With
    dim_h = 0, cond is 1.
    """
    n, m, h = a_mat.shape
    if h == 0:
        return np.zeros((n, 0)), np.zeros(n, dtype=int), np.ones(n)
    if m < h:
        return _svd_solve(a_mat, b_vec)
    qr = np.concatenate([a_mat, b_vec[..., None]], 2)
    _qr_r_raw(qr, signature="d->d")  # R on and above the diagonal
    r = np.where(_upper(h), qr[:, :h, :h], 0.0)
    r_inv = _inv(r, signature="d->d")
    cond = _abs_row_max(r) * _abs_row_max(r_inv)
    certified = cond < 1e-2 / RANK_RCOND / (h * h)
    xi, rank = (r_inv @ qr[:, :h, h, None])[..., 0], np.full(n, h)
    if not _all(certified):
        doubt = ~certified
        finite = np.isfinite(cond[doubt]) & np.isfinite(xi[doubt]).all(axis=1)
        svd_xi, rank[doubt], cond[doubt] = _svd_solve(a_mat[doubt],
                                                      b_vec[doubt])
        keep = finite & (rank[doubt] == h)
        xi[doubt] = np.where(keep[:, None], xi[doubt], svd_xi)
    return xi, rank, cond


class GraphBatch(_Record):
    """Solved isotropy corrections, one row per base vector.

    ``residual`` is max |A xi - b| of each row's system, which equals the
    bracket oracle :func:`criterion_residuals` up to rounding.  ``cond``
    estimates each system's condition number kappa_2: max|R| max|R^-1|,
    in [kappa_2 / dim_h^2, kappa_2], on rows certified full rank, and
    the ratio of the extreme singular values elsewhere, inf where the
    smallest is 0; 1 when dim_h = 0.
    """

    y: np.ndarray
    xi: np.ndarray
    residual: np.ndarray
    rank: np.ndarray
    cond: np.ndarray

    @property
    def unique(self) -> np.ndarray:
        return self.rank == self.xi.shape[1]


def assemble(space, Y, C):
    """A[N, dim_m, dim_h] and b[N, dim_m] for rows Y with block weights C.

    Row a, column c of A holds sum_i C_i alpha_i(y, [e_c, U_a]_m) over the
    isotropy basis e_c; b_a = -sum_i C_i alpha_i(y, [y, U_a]_m).
    """
    Y, C = _rows(space, Y, C)
    with np.errstate(all="ignore"):
        return _pass(space, Y, C)


def criterion_residuals(space, Y, C, Xi) -> np.ndarray:
    """Criterion residual vectors ``[N, dim_m]`` of y + xi, per row; Xi
    holds h-coordinates or full-length rows, as :meth:`coerce_h` takes."""
    Y, C = _rows(space, Y, C)
    Xi = space.coerce_h(Xi)
    if Xi.shape != (len(Y), space.dim_h):
        raise ValueError(f"expected Xi[{len(Y)}, {space.dim_h}]")
    return _criterion(space, Y, C, Xi)


def solve_batch(space, Y, C) -> GraphBatch:
    """Minimal-norm least-squares solution at every row of Y.

    C holds the per-row block weights, e.g. ``metric.c_coefficients(Y)``.
    Rows certified full rank are solved by QR; the rest get the SVD rank,
    and the SVD xi where that rank is not full.  The residual is
    max |A xi - b| per row; :func:`criterion_residuals` is the independent
    oracle.  A system, solution or residual that overflows raises
    ``LinAlgError``, with no numpy warning.
    """
    Y, C = _rows(space, Y, C)
    xi, rank, residual, cond = _solve(space, Y, C)
    return GraphBatch(y=Y, xi=xi, residual=residual, rank=rank, cond=cond)


def _solve(space, Y, C=None, metric=None):
    """The numerical core: ``(xi, rank, residual, cond)`` of checked rows,
    with C from ``metric`` or as given, under one ``np.errstate``.

    The pass, and so the combiner, runs on the calling thread.  The systems
    are then solved in k = min(CPUs in the affinity mask, or all CPUs where
    the platform has none, N // _SHARD_ROWS) contiguous shards, serially
    when k < 2: the caller solves the first shard and every shard that no
    pool thread has started by then.  Every row gives the same bits alone
    as in any batch, so the joined shards give the bits of a serial solve."""
    n, k = len(Y), 1
    if n >= 2 * _SHARD_ROWS:  # a batch of one never reads the mask
        mask = getattr(os, "sched_getaffinity", None)
        k = min(len(mask(0)) if mask else os.cpu_count() or 1,
                n // _SHARD_ROWS)
    with np.errstate(all="ignore"):
        a_mat, b_vec = _pass(space, Y, C, metric)
        if k < 2:
            xi, rank, residual, cond = _solve_rows(a_mat, b_vec)
        else:
            cut = [n * i // k for i in range(k + 1)]
            shards = [(a_mat[lo:hi], b_vec[lo:hi])
                      for lo, hi in zip(cut, cut[1:])]
            pool = _executor()
            rest = [(s, pool.submit(_solve_rows, *s)) for s in shards[1:]]
            parts = [_solve_rows(*shards[0])] + [
                _solve_rows(*s) if f.cancel() else f.result() for s, f in rest]
            xi, rank, residual, cond = map(np.concatenate, zip(*parts))
    if not _all(np.isfinite(residual)):
        raise np.linalg.LinAlgError(_NORM_OVERFLOW)
    return xi, rank, residual, cond


def _solve_rows(a_mat, b_vec):
    """xi, rank, the residual max |A xi - b| and cond of finite systems."""
    xi, rank, cond = _min_norm_solve(a_mat, b_vec)
    return (xi, rank, _abs_row_max((a_mat @ xi[..., None])[..., 0] - b_vec),
            cond)


def _executor():
    """The thread pool of this process, built again in a forked child: a
    pool inherited through fork has no threads, so no work given to it
    would ever start.  Each pool thread ignores floating-point errors, as
    the caller does under :func:`_solve`'s ``np.errstate``.  A process that
    solves no batch of 2 * _SHARD_ROWS rows never imports
    ``concurrent.futures`` (3.7 ms on a 2-vCPU VM)."""
    global _pool
    if _pool is None or _pool[0] != os.getpid():
        from concurrent.futures import ThreadPoolExecutor
        _pool = os.getpid(), ThreadPoolExecutor(
            initializer=partial(np.seterr, all="ignore"))
    return _pool[1]


# -- one base vector -----------------------------------------------------------


@dataclass(frozen=True)
class GeodesicGraphResult:
    """Solved isotropy correction for one base vector; ``cond`` is as in
    :class:`GraphBatch`, and not in the JSON."""

    y: Vector
    xi: Vector
    residual_norm: float
    rank: int
    unique: bool
    y_m: Vector
    xi_h: Vector
    cond: float

    def to_json_dict(self) -> dict:
        return {"y": self.y_m.tolist(), "xi": self.xi_h.tolist(),
                "residual": float(self.residual_norm), "rank": int(self.rank),
                "unique": bool(self.unique)}


def geodesic_residual(metric: FinslerMetric, y, xi) -> Vector:
    """Left side of the geodesic-vector criterion; zero iff y + xi qualifies."""
    ym = metric.space._coerce_one(y)[None]
    c = metric._coefficients(ym)[1]
    xi = metric.space._coerce_one(xi, "h")[None]
    return _criterion(metric.space, ym, c, xi)[0]


def solve_geodesic_graph(metric: FinslerMetric, y) -> GeodesicGraphResult:
    """Minimal-norm least-squares solution of the geodesic-graph system.

    Row 0 of a batch of one, solved by the core of :func:`solve_batch`
    without building a :class:`GraphBatch`; the rank is the SVD count at the
    relative threshold 1e-10, and ``unique`` means it equals the isotropy
    dimension.  A residual above tolerance signals that no isotropy
    correction makes y a geodesic vector; it is reported, not raised.
    """
    space = metric.space
    ym = space._coerce_one(y)[None]
    xi, rank, residual, cond = _solve(space, ym, metric=metric)
    full = np.zeros((2, space.dim))  # y and xi in full coordinates
    full[0, space.m_indices], full[1, space.h_indices] = ym[0], xi[0]
    rank = int(rank[0])
    return GeodesicGraphResult(
        y=full[0], xi=full[1], residual_norm=float(residual[0]), rank=rank,
        unique=rank == space.dim_h, y_m=ym[0], xi_h=xi[0], cond=float(cond[0]))


def check_equivariance_batch(metric: FinslerMetric, Y, H, T):
    """Compare solving after transport with transporting the solution.

    Row n transports ``Y[n]`` by exp(T[n] ad(H[n])) for an isotropy vector
    ``H[n]``, exponentiated on m and on h apart, and solves at both points
    in one batch.  Returns ``(deviation, unique_source,
    unique_transported)``, arrays over the rows: the norm of
    xi(transported y) - transported xi(y), and whether each side has a
    unique solution.
    """
    space = metric.space
    Y, H, T = space.coerce_m(Y), space.coerce_h(H), _real(T, "T")
    if Y.ndim != 2 or H.shape != (len(Y), space.dim_h) or T.shape != (len(Y),):
        raise ValueError(f"expected Y[N, {space.dim_m}], H[N, {space.dim_h}] "
                         f"and T[N], got {Y.shape}, {H.shape} and {T.shape}")
    c, m, h = space.alg.structure, space.m_indices, space.h_indices
    # with [h, m] in m and [h, h] in h, exp(t ad(H)) is block diagonal
    exp_m, exp_h = (matrix_exponential(np.einsum(
        "ni,ijk->nkj", H, c[np.ix_(h, part, part)]), T) for part in (m, h))
    # the concatenation is C-contiguous, so each row rounds as it does alone
    rows = space.coerce_m(np.concatenate([Y, (exp_m @ Y[..., None])[..., 0]]))
    xi, rank = _solve(space, rows, metric=metric)[:2]
    xi_src, xi_dst = np.split(xi, 2)
    diff = xi_dst - (exp_h @ xi_src[..., None])[..., 0]
    deviation = np.sqrt((diff[:, None, :] @ diff[..., None])[:, 0, 0])
    return deviation, *np.split(rank == space.dim_h, 2)


class ScanReport(_Record):
    """Residuals of the solved graph over random unit-sphere samples."""

    max_residual: float
    worst_y: Vector
    samples: np.ndarray
    residuals: np.ndarray
    labels: tuple
    seed: int

    @property
    def n_samples(self) -> int:
        return len(self.residuals)

    def to_csv_lines(self):
        yield ",".join([*self.labels, "residual"])
        for row, res in zip(self.samples, self.residuals):
            yield ",".join([*(float_repr(v) for v in row), float_repr(res)])

    def to_json_dict(self) -> dict:
        return {"max_residual": float(self.max_residual),
                "worst_y": [float(v) for v in self.worst_y],
                "n_samples": self.n_samples, "seed": self.seed}


def go_property_scan(metric: FinslerMetric, n_samples: int,
                     seed: int) -> ScanReport:
    """Solve at random unit-norm base vectors and record the worst residual.

    Samples are uniform on the unit sphere of m in the unweighted block
    norm (normalized Gaussian draws); the induced weights are scale
    invariant, so the sphere is a complete test set.
    """
    n_samples = _count(n_samples, "n_samples")
    seed = _count(seed, "seed", 0)
    space = metric.space
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((n_samples, space.dim_m))
    samples /= space.alpha_norm(samples)[:, None]
    residuals = _solve(space, samples, metric=metric)[2]
    worst = int(np.argmax(residuals))
    return ScanReport(max_residual=float(residuals[worst]),
                      worst_y=samples[worst], samples=samples,
                      residuals=residuals, labels=tuple(space.m_labels()),
                      seed=seed)


class MatrixRealization(_Record):
    """Faithful matrix model of the algebra plus a base point it acts on."""

    matrices: np.ndarray
    base_point: np.ndarray

    def __init__(self, matrices, base_point):
        m = _real(matrices, "matrices")
        p = _real(base_point, "base point")
        if m.ndim != 3 or m.shape[1] != m.shape[2]:
            raise ValueError("matrices must be a (dim, N, N) stack")
        if p.shape != (m.shape[1],):
            raise ValueError("base point length must match the matrix size")
        if not (np.isfinite(m).all() and np.isfinite(p).all()):
            raise ValueError("matrices and base point must be finite")
        super().__init__(m, p)

    @property
    def dim(self) -> int:
        return self.matrices.shape[0]

    def generator(self, w) -> np.ndarray:
        w = _real(w, "coordinates")
        if w.shape != (self.dim,):
            raise ValueError(
                f"expected {self.dim} coordinates, got shape {w.shape}")
        return np.einsum("i,iab->ab", w, self.matrices)


def orbit_curve(realization: MatrixRealization, w, t_values) -> np.ndarray:
    """Points exp(t * rho(w)) applied to the base point, one row per t."""
    gen = realization.generator(w)
    t_values = np.atleast_1d(_real(t_values, "t_values"))
    if t_values.ndim != 1:
        raise ValueError(f"t_values must be a scalar or 1-D, got shape "
                         f"{t_values.shape}")
    return matrix_exponential(gen, t_values) @ realization.base_point

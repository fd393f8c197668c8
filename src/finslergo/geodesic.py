"""Geodesic-vector criterion, geodesic-graph solver, and sampling checks.

A vector y + xi (y in m nonzero, xi in the isotropy algebra) generates a
homogeneous geodesic exactly when

    sum_i C_i(y) * alpha_i(y, [y + xi, U]_m) = 0   for every U in m.

Expanding xi over the isotropy basis turns this into the linear system
A(y) xi = b(y).  :func:`assemble`, :func:`solve_batch` and
:func:`criterion_residuals` work on a batch of base vectors ``Y[N, dim_m]``
with per-row block weights ``C[N, s]``; the one-vector entry points are
batches of one.  The solver returns the minimal-norm least-squares solution
together with rank and uniqueness diagnostics, by QR where full rank is
certified and by SVD elsewhere.  Sampling utilities verify the
geodesic-orbit property and the equivariance of the solved map over random
draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .finsler_metric import FinslerMetric
from .lie_algebra import Check, Vector, matrix_exponential

RANK_RCOND = 1e-10
GEODESIC_VECTOR_TOL = 1e-9


def float_repr(x) -> str:
    """Shortest round-trip decimal form, used for deterministic CSV output."""
    return repr(float(x))


# -- the batched criterion ------------------------------------------------------
#
# Row n of every array below belongs to base vector Y[n].  Each contraction
# is evaluated item by item (stacked matrix products, einsum over the batch
# axis), so a row's result is bit-for-bit the same in a batch of one and in
# a batch of any size.


def _rows(space, Y, C):
    """Validated m-coordinates ``[N, dim_m]`` and block weights ``[N, s]``."""
    Y = space.coerce_m(Y)
    C = np.asarray(C, dtype=float)
    if Y.ndim != 2 or C.shape != (len(Y), space.n_blocks):
        raise ValueError(
            f"expected Y[N, {space.dim_m}] and C[N, {space.n_blocks}], got "
            f"{Y.shape} and {C.shape}")
    if not np.isfinite(C).all():
        raise ValueError("block weights C must be finite")
    return Y, C


def _criterion(space, Y, Xi, weighted) -> np.ndarray:
    """The bracket oracle: component a is sum_i C_i alpha_i(y, [w, U_a]_m)
    with w = y + xi, computed from the structure constants directly."""
    w = np.zeros((len(Y), space.dim))
    w[:, space.m_indices] = Y
    w[:, space.h_indices] = Xi
    brackets = np.einsum("ni,iak->nak", w, space.c_gmm)
    return (brackets @ weighted[..., None])[..., 0]


def _system(space, Y, C):
    """A[N, dim_m, dim_h] and b[N, dim_m]: the criterion is A xi - b.

    p[n, k, a] = sum_i C_i alpha_i(y, [e_k, U_a]_m), isotropy e_k first, is
    one product; A is its isotropy part and b its complement part times y.
    Callers run it under ``np.errstate`` and check that it is finite.
    """
    n, h = len(Y), space.dim_h
    p = (space.weighted_apply(Y, C)[:, None, :] @ space.c_system).reshape(
        n, space.dim, space.dim_m)
    b_vec = -(Y[:, None, :] @ p[:, h:])[:, 0]
    return p[:, :h].transpose(0, 2, 1), b_vec


def _require_finite(*arrays):
    if not all(np.isfinite(a).all() for a in arrays):
        raise np.linalg.LinAlgError(
            "the criterion system is not finite: the squared norm of y "
            "overflows or underflows")


@lru_cache(maxsize=None)
def _upper(h):
    return np.triu(np.ones((h, h), dtype=bool))


def _svd_solve(a_mat, b_vec):
    """Stacked SVD, rank by the ``lstsq`` rule: singular values above
    RANK_RCOND times the largest count.  Checks finiteness before LAPACK."""
    _require_finite(a_mat, b_vec)
    u, sigma, vt = np.linalg.svd(a_mat, full_matrices=False)
    kept = sigma > RANK_RCOND * sigma[:, :1]
    coef = (b_vec[:, None, :] @ u) / np.where(kept, sigma, np.inf)[:, None, :]
    return (coef @ vt)[:, 0], kept.sum(axis=1)


def _min_norm_solve(a_mat, b_vec):
    """Minimal-norm least squares, QR first; returns xi and rank.

    One QR of [A | b] gives R and Q^T b for every row.  A row is certified
    full rank when h^2 max|R| max|R^-1| < 1e-2 / RANK_RCOND, which bounds
    the 2-norm condition number of A a hundredfold inside the SVD rank rule;
    it gets xi = R^-1 Q^T b.  Every other row takes its rank from
    :func:`_svd_solve`, and keeps the QR xi when that rank is full and the
    QR xi is finite: just off the x = 0 stratum R^-1 Q^T b is far closer
    to the solution than the SVD's xi.  When dim_m < dim_h, every row
    takes :func:`_svd_solve`.
    """
    n, m, h = a_mat.shape
    if h == 0:
        return np.zeros((n, 0)), np.zeros(n, dtype=int)
    if m < h:
        return _svd_solve(a_mat, b_vec)
    raw = np.linalg.qr(np.concatenate([a_mat, b_vec[..., None]], 2),
                       mode="raw")[0]
    r = np.where(_upper(h), raw[:, :h, :h].transpose(0, 2, 1), 0.0)
    try:
        r_inv = np.linalg.inv(r)
    except np.linalg.LinAlgError:  # an exactly zero pivot, as at x = 0
        bad = ~((np.abs(np.diagonal(r, axis1=1, axis2=2)).min(axis=1) > 0)
                & np.isfinite(r).all(axis=(1, 2)))
        # the other rows get the same inputs again, and so the same bits
        r_inv = np.linalg.inv(np.where(bad[:, None, None], np.eye(h), r))
        r_inv[bad] = np.nan  # fails the certificate
    certified = (np.abs(r).max(axis=(1, 2)) * np.abs(r_inv).max(axis=(1, 2))
                 < 1e-2 / RANK_RCOND / (h * h))
    xi, rank = (r_inv @ raw[:, h, :h, None])[..., 0], np.full(n, h)
    if np.count_nonzero(certified) < n:
        doubt = ~certified
        svd_xi, rank[doubt] = _svd_solve(a_mat[doubt], b_vec[doubt])
        qr_xi = xi[doubt]
        keep = (rank[doubt] == h) & np.isfinite(qr_xi).all(axis=1)
        xi[doubt] = np.where(keep[:, None], qr_xi, svd_xi)
    return xi, rank


@dataclass(frozen=True)
class GraphBatch:
    """Solved isotropy corrections, one row per base vector.

    ``residual`` is max |A xi - b| of each row's system, which equals the
    bracket oracle :func:`criterion_residuals` up to rounding; ``sigma``
    holds the singular values of the systems ``a_mat``, descending, and is
    computed on first access (the solve does not need it).
    """

    y: np.ndarray
    xi: np.ndarray
    residual: np.ndarray
    rank: np.ndarray
    a_mat: np.ndarray = field(repr=False, compare=False)

    @property
    def unique(self) -> np.ndarray:
        return self.rank == self.xi.shape[1]

    @cached_property
    def sigma(self) -> np.ndarray:
        sigma = np.linalg.svd(self.a_mat, compute_uv=False)
        return np.pad(sigma, ((0, 0), (0, self.xi.shape[1] - sigma.shape[1])))


def assemble(space, Y, C):
    """A[N, dim_m, dim_h] and b[N, dim_m] for rows Y with block weights C.

    Row a, column c of A holds sum_i C_i alpha_i(y, [e_c, U_a]_m) over the
    isotropy basis e_c; b_a = -sum_i C_i alpha_i(y, [y, U_a]_m).
    """
    Y, C = _rows(space, Y, C)
    with np.errstate(over="ignore", invalid="ignore"):
        a_mat, b_vec = _system(space, Y, C)
    _require_finite(a_mat, b_vec)
    return a_mat, b_vec


def criterion_residuals(space, Y, C, Xi) -> np.ndarray:
    """Criterion residual vectors ``[N, dim_m]`` of y + xi, per row."""
    Y, C = _rows(space, Y, C)
    Xi = np.asarray(Xi, dtype=float)
    if Xi.shape != (len(Y), space.dim_h) or not np.isfinite(Xi).all():
        raise ValueError(f"expected finite Xi[{len(Y)}, {space.dim_h}]")
    return _criterion(space, Y, Xi, space.weighted_apply(Y, C))


def solve_batch(space, Y, C) -> GraphBatch:
    """Minimal-norm least-squares solution at every row of Y.

    C holds the per-row block weights, e.g. ``metric.c_coefficients(Y)``.
    Rows certified full rank are solved by QR; the rest get the SVD rank,
    and the SVD xi where that rank is not full.  The residual is
    max |A xi - b| per row; :func:`criterion_residuals` is the independent
    oracle.  A system, solution or residual that overflows raises
    ``LinAlgError``, with no numpy warning.
    """
    return _solve(space, *_rows(space, Y, C))


def _solve(space, Y, C) -> GraphBatch:
    with np.errstate(over="ignore", invalid="ignore"):
        a_mat, b_vec = _system(space, Y, C)
        xi, rank = _min_norm_solve(a_mat, b_vec)
        residual = np.abs((a_mat @ xi[..., None])[..., 0] - b_vec).max(
            axis=1, initial=0.0)
    _require_finite(residual)
    return GraphBatch(y=Y, xi=xi, residual=residual, rank=rank, a_mat=a_mat)


# -- one base vector -----------------------------------------------------------


@dataclass(frozen=True)
class GeodesicGraphResult:
    """Solved isotropy correction for one base vector.

    ``sigma_min``, the smallest singular value of the system (infinite when
    the isotropy is trivial), is computed on first access; not in the JSON.
    """

    y: Vector
    xi: Vector
    residual_norm: float
    rank: int
    unique: bool
    y_m: Vector
    xi_h: Vector
    batch: GraphBatch = field(repr=False, compare=False)

    @cached_property
    def sigma_min(self) -> float:
        return float(self.batch.sigma[0, -1]) if self.xi_h.size else np.inf

    def to_json_dict(self) -> dict:
        return {
            "y": [float(v) for v in self.y_m],
            "xi": [float(v) for v in self.xi_h],
            "residual": float(self.residual_norm),
            "rank": int(self.rank),
            "unique": bool(self.unique),
        }


def _one(metric: FinslerMetric, y):
    """One base vector as a batch of one, with its block weights."""
    ym = metric.space.coerce_m(y)[None]
    return ym, metric._c(ym)


def geodesic_residual(metric: FinslerMetric, y, xi) -> Vector:
    """Left side of the geodesic-vector criterion; zero iff y + xi qualifies."""
    ym, c = _one(metric, y)
    xih = metric.space.coerce_h(xi)[None]
    return _criterion(metric.space, ym, xih, metric.space.weighted_apply(ym, c))[0]


def solve_geodesic_graph(metric: FinslerMetric, y) -> GeodesicGraphResult:
    """Minimal-norm least-squares solution of the geodesic-graph system.

    A batch of one in :func:`solve_batch`; the rank is the SVD count at the
    relative threshold 1e-10, and ``unique`` means it equals the isotropy
    dimension.  A residual above tolerance signals that no isotropy
    correction makes y a geodesic vector; it is reported, not raised.
    """
    space = metric.space
    batch = _solve(space, *_one(metric, y))
    rank = int(batch.rank[0])
    return GeodesicGraphResult(
        y=space.embed_m(batch.y[0]),
        xi=space.embed_h(batch.xi[0]),
        residual_norm=float(batch.residual[0]),
        rank=rank,
        unique=rank == space.dim_h,
        y_m=batch.y[0],
        xi_h=batch.xi[0],
        batch=batch,
    )


def is_geodesic_vector(metric: FinslerMetric, w) -> Check:
    """Test the criterion for a full algebra vector w with nonzero m-part.

    The tolerance is relative: the criterion is quadratic in y, so the
    residual is compared against F(y_m)^2 times the largest structure
    constant magnitude.  The ``geodesic_vector`` check holds the max-abs
    residual as ``worst``, and ``GEODESIC_VECTOR_TOL`` times that scale as
    ``tol``.
    """
    space = metric.space
    w = space.alg.vector(w)
    ym = w[space.m_indices]
    if not np.any(ym):
        raise ValueError("vector has zero m-part; the criterion degenerates")
    residual = geodesic_residual(metric, ym, w[space.h_indices])
    residual_max = float(np.abs(residual).max(initial=0.0))
    scale = (metric.f_value(ym) ** 2
             * float(np.abs(space.alg.structure).max(initial=0.0)))
    tol = GEODESIC_VECTOR_TOL * scale
    return Check("geodesic_vector", residual_max <= tol, residual_max, tol)


@dataclass(frozen=True)
class EquivarianceCheck:
    """Transport deviation and uniqueness flags, one entry per row."""

    deviation: np.ndarray
    unique_source: np.ndarray
    unique_transported: np.ndarray


def check_equivariance_batch(metric: FinslerMetric, Y, H, T) -> EquivarianceCheck:
    """Compare solving after transport with transporting the solution.

    Row n transports ``Y[n]`` by exp(T[n] ad(H[n])) for an isotropy vector
    ``H[n]``, solves at both points, and gives the norm of xi(transported
    y) - transported xi(y); rank deficiency on either side is reported
    through the unique flags.  The fields of the result are arrays over the
    rows.
    """
    space = metric.space
    Y = space.coerce_m(Y)
    H = np.asarray(H, dtype=float)
    T = np.asarray(T, dtype=float)
    if Y.ndim != 2 or H.shape != (len(Y), space.dim_h) or T.shape != (len(Y),):
        raise ValueError(f"expected Y[N, {space.dim_m}], H[N, {space.dim_h}] "
                         f"and T[N], got {Y.shape}, {H.shape} and {T.shape}")
    m, h = space.m_indices, space.h_indices
    ad = np.einsum("ni,ijk->nkj", space.embed_h(H), space.alg.structure)
    ad_exp = matrix_exponential(ad, T)
    y_moved = (ad_exp @ space.embed_m(Y)[..., None])[..., 0]
    stray = np.abs(y_moved[:, h]).max(axis=1, initial=0.0)
    if np.any(stray > 1e-8 * np.maximum(1.0, np.abs(y_moved).max(axis=1))):
        raise ValueError(
            "transport does not preserve m; h does not act invariantly")
    src = _solve(space, Y, metric.c_coefficients(Y))
    # coerce_m's contiguous copy makes each row round as it does alone
    y_dst = space.coerce_m(y_moved[:, m])
    dst = _solve(space, y_dst, metric.c_coefficients(y_dst))
    xi_moved = (ad_exp @ space.embed_h(src.xi)[..., None])[..., 0]
    xi_moved[:, m] = 0.0
    diff = space.embed_h(dst.xi) - xi_moved
    return EquivarianceCheck(
        deviation=np.sqrt((diff[:, None, :] @ diff[..., None])[:, 0, 0]),
        unique_source=src.unique,
        unique_transported=dst.unique,
    )


@dataclass(frozen=True)
class ScanReport:
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
        return {
            "max_residual": float(self.max_residual),
            "worst_y": [float(v) for v in self.worst_y],
            "n_samples": self.n_samples,
            "seed": self.seed,
        }


def go_property_scan(metric: FinslerMetric, n_samples: int,
                     seed: int) -> ScanReport:
    """Solve at random unit-norm base vectors and record the worst residual.

    Samples are uniform on the unit sphere of m in the unweighted block
    norm (normalized Gaussian draws); the induced weights are scale
    invariant, so the sphere is a complete test set.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    space = metric.space
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((n_samples, space.dim_m))
    samples /= space.alpha_norm(samples)[:, None]
    residuals = solve_batch(space, samples,
                            metric.c_coefficients(samples)).residual
    worst = int(np.argmax(residuals))
    return ScanReport(
        max_residual=float(residuals[worst]),
        worst_y=samples[worst],
        samples=samples,
        residuals=residuals,
        labels=tuple(space.m_labels()),
        seed=int(seed),
    )


@dataclass(frozen=True)
class MatrixRealization:
    """Faithful matrix model of the algebra plus a base point it acts on."""

    matrices: np.ndarray
    base_point: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrices, dtype=float)
        p = np.asarray(self.base_point, dtype=float)
        if m.ndim != 3 or m.shape[1] != m.shape[2]:
            raise ValueError("matrices must be a (dim, N, N) stack")
        if p.shape != (m.shape[1],):
            raise ValueError("base point length must match the matrix size")
        object.__setattr__(self, "matrices", m)
        object.__setattr__(self, "base_point", p)

    @property
    def dim(self) -> int:
        return self.matrices.shape[0]

    def generator(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        if w.shape != (self.dim,):
            raise ValueError(
                f"expected {self.dim} coordinates, got shape {w.shape}")
        return np.einsum("i,iab->ab", w, self.matrices)


def orbit_curve(realization: MatrixRealization, w, t_values) -> np.ndarray:
    """Points exp(t * rho(w)) applied to the base point, one row per t."""
    gen = realization.generator(w)
    t_values = np.atleast_1d(np.asarray(t_values, dtype=float))
    return matrix_exponential(gen, t_values) @ realization.base_point

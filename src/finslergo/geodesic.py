"""Geodesic-vector criterion, geodesic-graph solver, and sampling checks.

A vector y + xi (y in m nonzero, xi in the isotropy algebra) generates a
homogeneous geodesic exactly when

    sum_i C_i(y) * alpha_i(y, [y + xi, U]_m) = 0   for every U in m.

Expanding xi over the isotropy basis turns this into the linear system
A(y) xi = b(y).  :func:`assemble`, :func:`solve_batch` and
:func:`criterion_residuals` work on a batch of base vectors ``Y[N, dim_m]``
with per-row block weights ``C[N, s]``; the one-vector entry points are
batches of one.  The solver returns the minimal-norm least-squares solution
together with rank, singular values and uniqueness diagnostics.  Sampling
utilities verify the geodesic-orbit property and the equivariance of the
solved map over random draws.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    return Y, C


def _criterion(space, Y, Xi, weighted) -> np.ndarray:
    """The bracket oracle: component a is sum_i C_i alpha_i(y, [w, U_a]_m)
    with w = y + xi, computed from the structure constants directly."""
    w = np.zeros((len(Y), space.dim))
    w[:, space.m_indices] = Y
    w[:, space.h_indices] = Xi
    brackets = np.einsum("ni,iak->nak", w, space.c_gmm)
    return (brackets @ weighted[..., None])[..., 0]


def _system(space, Y, weighted):
    """A[N, dim_m, dim_h] and b[N, dim_m]: the criterion is A xi - b."""
    m, h = space.dim_m, space.dim_h
    a_mat = space.c_hmm.reshape(-1, m) @ weighted[..., None]
    a_mat = a_mat.reshape(len(Y), h, m)
    return a_mat.transpose(0, 2, 1), -_criterion(space, Y, 0.0, weighted)


def _min_norm_solve(a_mat, b_vec):
    """Minimal-norm least squares by stacked SVD.

    Singular values at or below RANK_RCOND times the largest count as zero,
    the rule ``numpy.linalg.lstsq`` applies.  Returns xi, rank and the
    singular values padded with zeros to ``[N, dim_h]``.
    """
    n, m, h = a_mat.shape
    if h == 0:
        return np.zeros((n, 0)), np.zeros(n, dtype=int), np.zeros((n, 0))
    if not (np.isfinite(a_mat).all() and np.isfinite(b_vec).all()):
        raise np.linalg.LinAlgError(
            "the criterion system is not finite: the squared norm of y "
            "overflows or underflows")
    u, sigma, vt = np.linalg.svd(a_mat, full_matrices=False)
    kept = sigma > RANK_RCOND * sigma[:, :1]
    coef = (b_vec[:, None, :] @ u) / np.where(kept, sigma, np.inf)[:, None, :]
    xi = (coef @ vt)[:, 0]
    if sigma.shape[1] < h:
        sigma = np.pad(sigma, ((0, 0), (0, h - sigma.shape[1])))
    return xi, kept.sum(axis=1), sigma


@dataclass(frozen=True)
class GraphBatch:
    """Solved isotropy corrections, one row per base vector.

    ``residual`` is the max-abs criterion residual from the bracket oracle;
    ``sigma`` holds the singular values of each system, descending.
    """

    y: np.ndarray
    xi: np.ndarray
    residual: np.ndarray
    rank: np.ndarray
    sigma: np.ndarray

    @property
    def unique(self) -> np.ndarray:
        return self.rank == self.xi.shape[1]


def assemble(space, Y, C):
    """A[N, dim_m, dim_h] and b[N, dim_m] for rows Y with block weights C.

    Row a, column c of A holds sum_i C_i alpha_i(y, [e_c, U_a]_m) over the
    isotropy basis e_c; b_a = -sum_i C_i alpha_i(y, [y, U_a]_m).
    """
    Y, C = _rows(space, Y, C)
    return _system(space, Y, space.weighted_apply(Y, C))


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
    The residual comes from the bracket oracle, not from A xi - b.  A
    non-finite system raises ``numpy.linalg.LinAlgError``.
    """
    return _solve(space, *_rows(space, Y, C))


def _solve(space, Y, C) -> GraphBatch:
    weighted = space.weighted_apply(Y, C)
    xi, rank, sigma = _min_norm_solve(*_system(space, Y, weighted))
    residual = np.abs(_criterion(space, Y, xi, weighted)).max(
        axis=1, initial=0.0)
    return GraphBatch(y=Y, xi=xi, residual=residual, rank=rank, sigma=sigma)


# -- one base vector -----------------------------------------------------------


@dataclass(frozen=True)
class GeodesicGraphResult:
    """Solved isotropy correction for one base vector.

    ``sigma_min`` is the smallest singular value of the system (infinite
    when the isotropy is trivial); it is not part of the JSON form.
    """

    y: Vector
    xi: Vector
    residual_norm: float
    rank: int
    unique: bool
    y_m: Vector
    xi_h: Vector
    sigma_min: float

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


def assemble_system(metric: FinslerMetric, y):
    """Matrix and right-hand side of the criterion at one base vector.

    By construction ``geodesic_residual(metric, y, xi) == A @ xi - b``.
    """
    ym, c = _one(metric, y)
    a_mat, b_vec = _system(metric.space, ym, metric.space.weighted_apply(ym, c))
    return a_mat[0], b_vec[0]


def solve_geodesic_graph(metric: FinslerMetric, y) -> GeodesicGraphResult:
    """Minimal-norm least-squares solution of the geodesic-graph system.

    The rank is computed from the singular values at the relative threshold
    1e-10; ``unique`` means the rank equals the isotropy dimension.  A
    residual above tolerance signals that no isotropy correction makes y a
    geodesic vector; it is reported, not raised.
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
        sigma_min=float(batch.sigma[0, -1]) if space.dim_h else np.inf,
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
    """Transport deviation and uniqueness flags; arrays for a batch."""

    deviation: float
    unique_source: bool
    unique_transported: bool


def check_equivariance_batch(metric: FinslerMetric, Y, H, T) -> EquivarianceCheck:
    """:func:`check_equivariance` for each row of ``Y[N, n]``, ``H[N, dim_h]``
    and ``T[N]``; the fields of the result are arrays over the rows."""
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
    dst = _solve(space, y_moved[:, m], metric.c_coefficients(y_moved[:, m]))
    xi_moved = (ad_exp @ space.embed_h(src.xi)[..., None])[..., 0]
    xi_moved[:, m] = 0.0
    diff = space.embed_h(dst.xi) - xi_moved
    return EquivarianceCheck(
        deviation=np.sqrt((diff[:, None, :] @ diff[..., None])[:, 0, 0]),
        unique_source=src.unique,
        unique_transported=dst.unique,
    )


def check_equivariance(metric: FinslerMetric, y, h, t: float) -> EquivarianceCheck:
    """Compare solving after transport with transporting the solution.

    Transports y by exp(t*ad(h)) for an isotropy vector h, solves at both
    points, and returns the norm of xi(transported y) - transported xi(y).
    Rank deficiency on either side is reported through the unique flags.
    """
    space = metric.space
    chk = check_equivariance_batch(metric, space.coerce_m(y)[None],
                                   space.coerce_h(h)[None], [float(t)])
    return EquivarianceCheck(
        deviation=float(chk.deviation[0]),
        unique_source=bool(chk.unique_source[0]),
        unique_transported=bool(chk.unique_transported[0]),
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

    def write_csv(self, stream) -> None:
        for line in self.to_csv_lines():
            stream.write(line + "\n")

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
    samples = np.array([rng.standard_normal(space.dim_m)
                        for _ in range(n_samples)])
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
    return np.stack([matrix_exponential(gen, t) @ realization.base_point
                     for t in t_values])

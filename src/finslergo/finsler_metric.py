"""Composite Minkowski norms F = sqrt(L(sqrt(g_1), ..., sqrt(g_k))).

The combiner L takes the k norms of a metric family and must satisfy five
conditions to produce a Minkowski norm: positivity away from zero, positive
homogeneity of degree 2, nonnegative partials, a positive semi-definite
Hessian, and a positive sum of partials.  :func:`validate_l` samples all five
and reports the worst witness per condition; :data:`L_CONDITIONS` describes
them.

The fundamental tensor of F contracts against the base vector as
``g_y(y, v) = sum_j B_j(y) g_j(y, v) = sum_i C_i(y) alpha_i(y, v)`` with
``B_j = L_j / (2 sqrt(g_j(y, y)))`` and ``C_i = sum_j B_j a[j, i]``; an
independent finite-difference oracle is provided by :func:`FinslerMetric.fd_fundamental`.
"""

from __future__ import annotations

import numpy as np

from .homogeneous_space import MetricFamily
from .lie_algebra import Check, Report, Vector

GRAD_CHECK_TOL = 1e-6
HOMOGENEITY_TOL = 1e-10
PARTIAL_TOL = 1e-12
HESSIAN_TOL = 1e-8

L_CONDITIONS = {
    "i": "positive away from zero",
    "ii": "positively homogeneous of degree 2",
    "iii": "partial derivatives nonnegative",
    "iv": "Hessian positive semi-definite",
    "v": "sum of partials positive",
}


def _rowdot(u, w) -> np.ndarray:
    """u @ w for each row of u, rounded the same way for every batch size."""
    return (u[..., None, :] @ w)[..., 0]


class LFunction:
    """A combiner L with value and gradient on the positive orthant.

    Built-in kinds evaluate a batch ``u[N, k]`` row by row in one array
    expression; custom callables are called once per row.
    """

    def __init__(self, kind: str, arity: int, value, grad, weights=None):
        self.kind = kind
        self.arity = int(arity)
        if self.arity < 1:
            raise ValueError("arity must be at least 1")
        self._value = value
        self._grad = grad
        self.weights = None if weights is None else np.asarray(weights, float)

    # -- built-in kinds ------------------------------------------------------

    @classmethod
    def sum_of_squares(cls, weights) -> "LFunction":
        """L(u) = sum_j w_j u_j^2 with positive weights."""
        w = _positive_weights(weights)
        return cls("sum_sq", len(w),
                   lambda u: _rowdot(u * u, w),
                   lambda u: 2.0 * w * u,
                   weights=w)

    @classmethod
    def squared_sum(cls, weights) -> "LFunction":
        """L(u) = (sum_j w_j u_j)^2 with positive weights."""
        w = _positive_weights(weights)
        return cls("sq_sum", len(w),
                   lambda u: _rowdot(u, w) ** 2,
                   lambda u: 2.0 * _rowdot(u, w)[..., None] * w,
                   weights=w)

    @classmethod
    def custom(cls, value, grad, arity: int) -> "LFunction":
        """Wrap user callables; the gradient is cross-checked against finite
        differences at construction.

        The callables must be safe for concurrent invocation if the metric
        is evaluated from multiple threads; everything else here is pure.
        """
        lf = cls("custom", arity, _per_row(value), _per_row(grad))
        rng = np.random.default_rng(12345)
        for u in rng.uniform(0.3, 2.0, size=(4, arity)):
            err = _grad_deviation(lf, u)
            if err > GRAD_CHECK_TOL:
                raise ValueError(
                    "custom gradient disagrees with finite differences "
                    f"(relative deviation {err:.3e} at u={u})")
        return lf

    # -- evaluation ----------------------------------------------------------

    def _check_args(self, u) -> Vector:
        u = np.asarray(u, dtype=float)
        if u.ndim not in (1, 2) or u.shape[-1] != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {u.shape}")
        return u

    def value(self, u):
        u = self._check_args(u)
        v = np.asarray(self._value(u), dtype=float)
        return float(v) if u.ndim == 1 else v

    def grad(self, u) -> Vector:
        u = self._check_args(u)
        g = np.asarray(self._grad(u), dtype=float)
        if g.shape != u.shape:
            raise ValueError("gradient callable returned a wrong shape")
        return g

    def to_json_dict(self) -> dict:
        if self.weights is None:
            return {"kind": self.kind}
        return {"kind": self.kind, "weights": [float(w) for w in self.weights]}

    def __repr__(self) -> str:
        return f"LFunction(kind={self.kind!r}, arity={self.arity})"


def degree_one_sum(weights) -> LFunction:
    """L(u) = sum_j w_j u_j: a plain weighted sum, degree 1, not degree 2.

    Useful as a falsifier: it breaks the homogeneity condition of
    :func:`validate_l` while the remaining conditions hold.
    """
    w = _positive_weights(weights)
    return LFunction("sum", len(w),
                     lambda u: _rowdot(u, w),
                     lambda u: np.broadcast_to(w, u.shape).copy(),
                     weights=w)


def _per_row(fn):
    """Lift a callable on one argument vector to batches, row by row."""
    def lifted(u):
        if u.ndim == 1:
            return fn(u)
        return np.array([fn(row) for row in u], dtype=float)
    return lifted


def _positive_weights(weights) -> Vector:
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    if w.ndim != 1 or w.size < 1:
        raise ValueError("weights must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise ValueError("weights must be positive")
    return w


def _grad_deviation(lf: LFunction, u, step: float = 1e-6) -> float:
    """Relative deviation between lf.grad and a central finite difference."""
    g = lf.grad(u)
    fd = np.array([lf.value(u + e) - lf.value(u - e)
                   for e in step * np.eye(lf.arity)]) / (2.0 * step)
    return float(np.abs(fd - g).max() / max(1.0, np.abs(g).max()))


def _fd_hessian(lf: LFunction, u, step: float = 1e-4) -> np.ndarray:
    """Symmetrised central-difference Hessian at u, or at each row of u."""
    h = np.empty(u.shape + (lf.arity,))
    for i, e in enumerate(step * np.eye(lf.arity)):
        h[..., i] = (lf.grad(u + e) - lf.grad(u - e)) / (2.0 * step)
    return 0.5 * (h + np.swapaxes(h, -1, -2))


def _worst_row(values, rows, take):
    """The value that ``take`` (argmin or argmax) picks, first on ties, and
    its row as a tuple of floats."""
    i = int(take(values))
    return float(values[i]), tuple(float(x) for x in rows[i])


def validate_l(lf: LFunction, sample_count: int = 200,
               seed: int = 0) -> Report:
    """Sample the five Minkowski-norm conditions on the positive orthant.

    Checks, at pseudo-random sample points u (and rescalings of them):
    (i) L(u) > 0 away from 0, including orthant-boundary points;
    (ii) L(t*u) = t^2 L(u) for t in {0.5, 2, 10}, relative tol 1e-10;
    (iii) every partial derivative >= -1e-12;
    (iv) min eigenvalue of the Hessian >= -1e-8;
    (v) the sum of partials > 0.
    Boundary points are the first 16 samples with one coordinate, drawn
    after all samples, set to zero.  A witness is the first sample at the
    worst value; (ii) has none when no sample deviates at all.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    rng = np.random.default_rng(seed)
    k = lf.arity
    points = rng.uniform(0.05, 3.0, size=(sample_count, k))
    faces = points[:min(16, sample_count) if k > 1 else 0].copy()
    for u in faces:
        u[rng.integers(k)] = 0.0

    values = lf.value(points)
    scaled = np.stack([lf.value(t * points) for t in (0.5, 2.0, 10.0)], axis=1)
    target = np.array([0.25, 4.0, 100.0]) * values[:, None]
    deviation = np.abs(scaled - target) / np.maximum(np.abs(target), 1e-300)
    grads = lf.grad(points)
    hessian_eig = np.linalg.eigvalsh(_fd_hessian(lf, points)).min(axis=1)

    pos, pos_wit = _worst_row(np.concatenate([values, lf.value(faces)]),
                              np.concatenate([points, faces]), np.argmin)
    hom, hom_wit = _worst_row(deviation.max(axis=1), points, np.argmax)
    par, par_wit = _worst_row(grads.min(axis=1), points, np.argmin)
    hes, hes_wit = _worst_row(hessian_eig, points, np.argmin)
    total, sum_wit = _worst_row(grads.sum(axis=1), points, np.argmin)
    return Report((
        Check("i", pos > 0.0, pos, 0.0, pos_wit),
        Check("ii", hom <= HOMOGENEITY_TOL, hom, HOMOGENEITY_TOL,
              hom_wit if hom > 0.0 else ()),
        Check("iii", par >= -PARTIAL_TOL, par, PARTIAL_TOL, par_wit),
        Check("iv", hes >= -HESSIAN_TOL, hes, HESSIAN_TOL, hes_wit),
        Check("v", total > 0.0, total, 0.0, sum_wit),
    ))


class FinslerMetric:
    """F(y) = sqrt(L(sqrt(g_1(y,y)), ..., sqrt(g_k(y,y)))) on m."""

    def __init__(self, family: MetricFamily, lf: LFunction,
                 unchecked: bool = False):
        if lf.arity != family.k:
            raise ValueError(
                f"combiner arity {lf.arity} does not match family size "
                f"{family.k}")
        self.family = family
        self.lf = lf
        self.l_report = None
        self.validated = False
        if not unchecked:
            self.l_report = validate_l(lf, sample_count=64, seed=0)
            if not self.l_report.passed:
                raise ValueError(
                    "combiner fails Minkowski-norm conditions "
                    f"{self.l_report.failed()}; pass unchecked=True "
                    "to construct anyway")
            self.validated = True

    @property
    def space(self):
        return self.family.space

    @property
    def k(self) -> int:
        return self.family.k

    # -- internal helpers ------------------------------------------------------

    def _require_m(self, y, allow_zero: bool = False) -> Vector:
        return self.space.coerce_m(y, allow_zero=allow_zero)

    def _norms(self, ym: Vector) -> Vector:
        """The k norms (sqrt(g_j(y, y)))_j of m-coordinates ``[..., dim_m]``."""
        q = self.space.block_quadratics(ym)
        return np.sqrt((q[..., None, :] @ self.family.a.T)[..., 0, :])

    def _b(self, ym: Vector) -> Vector:
        with np.errstate(over="ignore", invalid="ignore"):
            u = self._norms(ym)
        if not np.all((u > 0.0) & (u < np.inf)):
            raise np.linalg.LinAlgError(
                "the criterion system is not finite: the squared norm of y "
                "overflows or underflows")
        return self.lf.grad(u) / (2.0 * u)

    def _c(self, ym: Vector) -> Vector:
        """C of m-coordinates that :meth:`ReductiveSpace.coerce_m` returned."""
        return (self._b(ym)[..., None, :] @ self.family.a)[..., 0, :]

    # -- evaluation ---------------------------------------------------------------

    def f_value(self, y) -> float:
        """The norm F(y); positive for y != 0, positively 1-homogeneous."""
        ym = self._require_m(y, allow_zero=True)
        if not np.any(ym):
            return 0.0
        return float(np.sqrt(self.lf.value(self._norms(ym))))

    def b_coefficients(self, y) -> Vector:
        """Per-metric weights L_j(u)/(2 u_j) at u = (sqrt(g_j(y,y)))_j.

        A batch ``y[N, n]`` gives ``[N, k]``, one row per base vector.
        """
        return self._b(self._require_m(y))

    def c_coefficients(self, y) -> Vector:
        """Per-block weights C_i = sum_j B_j a[j, i]; positive for y != 0.

        A batch ``y[N, n]`` gives ``[N, s]``, one row per base vector.
        """
        return self._c(self._require_m(y))

    def fundamental_contraction(self, y, v) -> float:
        """g_y(y, v): the fundamental tensor contracted with the base vector,
        in the block form sum_i C_i alpha_i(y, v)."""
        ym = self._require_m(y)
        vm = self._require_m(v, allow_zero=True)
        return float(self.space.weighted_apply(ym, self._c(ym)) @ vm)

    def fd_fundamental(self, y, v, step: float = 1e-4) -> float:
        """Independent oracle: central difference of 0.5*F^2(y + t v) at 0."""
        if step <= 0:
            raise ValueError("step must be positive")
        ym = self._require_m(y)
        vm = self._require_m(v, allow_zero=True)
        fp = self.f_value(ym + step * vm) ** 2
        fm = self.f_value(ym - step * vm) ** 2
        return (fp - fm) / (4.0 * step)

    def __repr__(self) -> str:
        return f"FinslerMetric(k={self.k}, L={self.lf.kind!r})"


def riemannian_metric(space, block_weights) -> FinslerMetric:
    """Single-metric family with L = u^2: F is the norm of sum_i w_i alpha_i."""
    family = MetricFamily(space, np.atleast_2d(np.asarray(block_weights,
                                                          dtype=float)))
    return FinslerMetric(family, LFunction.sum_of_squares([1.0]),
                         unchecked=True)


def l_function_from_spec(doc) -> LFunction:
    """Build a combiner from {"kind": ..., "weights": [...]} or "kind:w1,w2"."""
    if isinstance(doc, str):
        kind, _, tail = doc.partition(":")
        weights = [float(x) for x in tail.split(",")] if tail else []
        doc = {"kind": kind.strip(), "weights": weights}
    kind = doc.get("kind")
    weights = doc.get("weights", [])
    if kind == "sum_sq":
        return LFunction.sum_of_squares(weights)
    if kind == "sq_sum":
        return LFunction.squared_sum(weights)
    if kind == "sum":
        return degree_one_sum(weights)
    if kind == "custom":
        raise ValueError("custom combiners are available via the library API only")
    raise ValueError(f"unknown combiner kind {kind!r}")

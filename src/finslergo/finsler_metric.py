"""Composite Minkowski norms F = sqrt(L(sqrt(g_1), ..., sqrt(g_k))).

The combiner L takes the k norms of a metric family and must satisfy five
conditions to produce a Minkowski norm: positivity away from zero, positive
homogeneity of degree 2, nonnegative partials, a positive semi-definite
Hessian, and a positive sum of partials.  :data:`L_CONDITIONS` describes
them.  The built-in kinds (:meth:`LFunction.sum_of_squares`,
:meth:`LFunction.squared_sum`, :func:`degree_one_sum` and the spec strings)
come from one table that records the verdict each form proves, and a metric
accepts or rejects them by it.  A combiner of callables (``LFunction(...)``
or its row-by-row lift :meth:`LFunction.custom`) has its gradient checked
against its value at construction, and a metric samples it with
:func:`validate_l`, which reports the worst witness per condition.

The fundamental tensor of F contracts against the base vector as
``g_y(y, v) = sum_j B_j(y) g_j(y, v) = sum_i C_i(y) alpha_i(y, v)`` with
``B_j = L_j / (2 sqrt(g_j(y, y)))`` and ``C_i = sum_j B_j a[j, i]``;
:meth:`FinslerMetric.fundamental_contraction` evaluates it exactly.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .homogeneous_space import MetricFamily
from .lie_algebra import (Check, Report, Vector, _all, _count, _json_array,
                          _real)

GRAD_CHECK_TOL = 1e-6
HOMOGENEITY_TOL = 1e-10
PARTIAL_TOL = 1e-12
HESSIAN_TOL = 1e-8
HESSIAN_STEP = 1e-4
_TINY = np.finfo(float).tiny
_NORM_OVERFLOW = ("the criterion system is not finite: the squared norm of "
                  "y overflows or underflows")
_GRADIENT_OVERFLOW = ("the criterion system is not finite: the combiner's "
                      "gradient overflows")

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


# The built-in kinds: kind -> (value, gradient, failed conditions), the
# value and gradient as functions of the weights w > 0 and the arguments
# u[..., k].  Each form proves its verdict:
# - sum_sq, L = sum_j w_j u_j^2: the gradient 2 w u is nonnegative and the
#   Hessian diag(2 w) is positive definite, so it fails no condition;
# - sq_sum, L = (sum_j w_j u_j)^2: the gradient 2 (w.u) w is nonnegative
#   and the Hessian 2 w w^T is positive semi-definite, so it fails none;
# - sum, L = sum_j w_j u_j: degree 1, not 2, so it fails exactly (ii),
#   while the gradient w is positive and the Hessian is zero.
_FORMS = {
    "sum_sq": (lambda w, u: _rowdot(u * u, w), lambda w, u: 2.0 * w * u, ()),
    "sq_sum": (lambda w, u: _rowdot(u, w) ** 2,
               lambda w, u: 2.0 * (u[..., None, :] @ w) * w, ()),
    "sum": (lambda w, u: _rowdot(u, w),
            lambda w, u: np.broadcast_to(w, u.shape).copy(), ("ii",)),
}


class LFunction:
    """A combiner L with value and gradient on the positive orthant.

    ``LFunction(kind, arity, value, grad)`` takes callables on an argument
    vector ``u[k]`` or a batch ``u[N, k]``; the gradient is checked against
    central differences of the value at construction, and its shape at
    every call.  The built-in kinds evaluate a batch in one expression.

    ``form_failures`` holds the names of the conditions a built-in form
    fails, as the table of forms records them, or None for a combiner of
    callables, which only :func:`validate_l` can judge.
    """

    def __init__(self, kind: str, arity: int, value, grad):
        self.kind, self.form_failures = kind, None
        self.arity = _count(arity, "arity")

        def checked(u):  # the gradient as floats, of the shape of u
            g = np.asarray(grad(u), dtype=float)
            if g.shape != u.shape:
                raise ValueError("gradient callable returned a wrong shape")
            return g
        self._value, self._grad = value, checked
        rng = np.random.default_rng(12345)
        for u in rng.uniform(0.3, 2.0, size=(4, self.arity)):
            g = self.grad(u)
            fd = np.array([self.value(u + e) - self.value(u - e)
                           for e in 1e-6 * np.eye(self.arity)]) / 2e-6
            err = float(np.abs(fd - g).max() / max(1.0, np.abs(g).max()))
            if err > GRAD_CHECK_TOL:
                raise ValueError(
                    "custom gradient disagrees with finite differences "
                    f"(relative deviation {err:.3e} at u={u})")

    @classmethod
    def sum_of_squares(cls, weights) -> "LFunction":
        """L(u) = sum_j w_j u_j^2 with positive weights; fails no condition."""
        return _built_in("sum_sq", weights)

    @classmethod
    def squared_sum(cls, weights) -> "LFunction":
        """L(u) = (sum_j w_j u_j)^2 with positive weights; fails none."""
        return _built_in("sq_sum", weights)

    @classmethod
    def custom(cls, value, grad, arity: int) -> "LFunction":
        """``LFunction("custom", ...)`` of callables on one argument vector,
        called once per row of a batch.  They must be safe for concurrent
        invocation if the metric is evaluated from multiple threads."""
        return cls("custom", arity, _per_row(value), _per_row(grad))

    def _check_args(self, u) -> Vector:
        u = _real(u, "arguments")
        if u.ndim not in (1, 2) or u.shape[-1] != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {u.shape}")
        return u

    def value(self, u):
        u = self._check_args(u)
        v = np.asarray(self._value(u), dtype=float)
        return float(v) if u.ndim == 1 else v

    def grad(self, u) -> Vector:
        return self._grad(self._check_args(u))

    def __repr__(self) -> str:
        return f"LFunction(kind={self.kind!r}, arity={self.arity})"


def degree_one_sum(weights) -> LFunction:
    """L(u) = sum_j w_j u_j: degree 1, not 2, so a falsifier that fails
    exactly the homogeneity condition (ii)."""
    return _built_in("sum", weights)


def _built_in(kind: str, weights) -> LFunction:
    """The combiner of a :data:`_FORMS` kind with its recorded verdict; its
    gradient is the form's, so it is neither checked nor wrapped."""
    value, grad, failures = _FORMS[kind]
    w = _positive_weights(weights)
    lf = object.__new__(LFunction)
    lf.kind, lf.arity, lf.form_failures = kind, len(w), failures
    lf._value, lf._grad = partial(value, w), partial(grad, w)
    return lf


def _per_row(fn):
    """Lift a callable on one argument vector to batches, row by row."""
    return lambda u: (fn(u) if u.ndim == 1
                      else np.array([fn(row) for row in u], dtype=float))


def _positive_weights(weights) -> Vector:
    w = np.atleast_1d(_real(weights, "weights"))
    if w.ndim != 1 or w.size < 1:
        raise ValueError("weights must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise ValueError("weights must be finite and positive")
    return w


def _fd_hessian(lf: LFunction, u, step: float = HESSIAN_STEP) -> np.ndarray:
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
    (iv) min eigenvalue of the central-difference Hessian >= -tol, with
    tol = max(1e-8, k (k + 2) eps max|grad L(u)| / step) per sample: the
    second term bounds the roundoff of the difference quotient, about
    eps |grad L| / step per entry, which exceeds 1e-8 at large gradients;
    (v) the sum of partials > 0.
    Boundary points are the first 16 samples with one coordinate, drawn
    after all samples, set to zero.  A witness is the first sample at the
    worst value; (ii) has none when no sample deviates at all.  The worst
    value of (iv) is the smallest eigenvalue among the samples that fail
    their tol, or among all samples when none fails, and its tol is that
    sample's.
    """
    sample_count = _count(sample_count, "sample_count")
    rng = np.random.default_rng(_count(seed, "seed", 0))
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
    hessian_tol = np.fmax(HESSIAN_TOL, k * (k + 2) * np.finfo(float).eps
                          * np.abs(grads).max(axis=1) / HESSIAN_STEP)
    hessian_fails = ~(hessian_eig >= -hessian_tol)
    if hessian_fails.any():  # the worst among the failing samples
        hessian_eig = np.where(hessian_fails, hessian_eig, np.inf)
    hes, hes_wit = _worst_row(hessian_eig, points, np.argmin)
    hes_tol = float(hessian_tol[np.argmin(hessian_eig)])

    pos, pos_wit = _worst_row(np.concatenate([values, lf.value(faces)]),
                              np.concatenate([points, faces]), np.argmin)
    hom, hom_wit = _worst_row(deviation.max(axis=1), points, np.argmax)
    par, par_wit = _worst_row(grads.min(axis=1), points, np.argmin)
    total, sum_wit = _worst_row(grads.sum(axis=1), points, np.argmin)
    return Report((
        Check("i", pos > 0.0, pos, 0.0, pos_wit),
        Check("ii", hom <= HOMOGENEITY_TOL, hom, HOMOGENEITY_TOL,
              hom_wit if hom > 0.0 else ()),
        Check("iii", par >= -PARTIAL_TOL, par, PARTIAL_TOL, par_wit),
        Check("iv", not hessian_fails.any(), hes, hes_tol, hes_wit),
        Check("v", total > 0.0, total, 0.0, sum_wit),
    ))


class FinslerMetric:
    """F(y) = sqrt(L(sqrt(g_1(y,y)), ..., sqrt(g_k(y,y)))) on m.

    A combiner that fails a Minkowski-norm condition raises ``ValueError``.
    A built-in combiner is judged by the verdict its form records
    (``lf.form_failures``); any other is sampled by
    ``validate_l(lf, 64, seed=0)``.
    """

    def __init__(self, family: MetricFamily, lf: LFunction):
        if lf.arity != family.k:
            raise ValueError(f"combiner arity {lf.arity} does not match "
                             f"family size {family.k}")
        self.family = family
        self.lf = lf
        failed = lf.form_failures
        if failed is None:
            failed = validate_l(lf, sample_count=64, seed=0).failed()
        if failed:
            raise ValueError(
                f"combiner fails Minkowski-norm conditions {list(failed)}")

    @property
    def space(self):
        return self.family.space

    @property
    def k(self) -> int:
        return self.family.k

    # -- internal helpers ------------------------------------------------------

    def _row_norms(self, y, gy) -> np.ndarray:
        """The k norms ``[..., 1, k]`` of rows ``y[..., 1, dim_m]``, G y = gy."""
        return np.sqrt(((y * gy) @ self.space._block_sums) @ self.family.a.T)

    def _norms(self, ym: Vector) -> Vector:
        """The k norms of m-coordinates ``[..., dim_m]``."""
        y = ym[..., None, :]
        return self._row_norms(y, self.space._apply_gram(y))[..., 0, :]

    def _weights(self, y, gy) -> tuple:
        """B ``[..., k]`` and C ``[..., 1, s]`` of checked rows, under the
        caller's ``np.errstate``; norms outside (0, inf) raise before the
        gradient is called, and a B that is not finite raises after it."""
        u = self._row_norms(y, gy)[..., 0, :]
        if not (_all(np.isfinite(u)) and _all(u)):  # a root is never < 0
            raise np.linalg.LinAlgError(_NORM_OVERFLOW)
        b = self.lf._grad(u) / (2.0 * u)  # u needs no argument check
        if not _all(np.isfinite(b)):
            raise np.linalg.LinAlgError(_GRADIENT_OVERFLOW)
        return b, b[..., None, :] @ self.family.a

    def _coefficients(self, ym: Vector) -> tuple:
        """Checked (B, C) of m-coordinates that :meth:`coerce_m` returned."""
        y = ym[..., None, :]
        with np.errstate(all="ignore"):
            b, c = self._weights(y, self.space._apply_gram(y))
        return b, c[..., 0, :]

    # -- evaluation ---------------------------------------------------------------

    def f_value(self, y) -> float:
        """The norm F(y); positive for y != 0, positively 1-homogeneous.

        F(2^s y) = 2^s F(y) holds exactly: F is evaluated at y / 2^e with
        max|y / 2^e| in [0.5, 1) and scaled back.  Where L still leaves the
        normal range there (weights near 1e160 or 1e-300), its arguments
        are scaled by 2^-512 or 2^512 first, as L(2^s u) = 4^s L(u).  So
        F(y) overflows or underflows only where its own value does, and
        numpy warns of neither.
        """
        ym = self.space._coerce_one(y, allow_zero=True)
        if not np.any(ym):
            return 0.0
        e = int(np.frexp(np.abs(ym).max())[1])
        with np.errstate(over="ignore", under="ignore"):
            u = self._norms(np.ldexp(ym, -e))
            sq = self.lf.value(u)
            if not _TINY <= sq < np.inf:
                shift = -512 if sq > 1.0 else 512
                sq = self.lf.value(np.ldexp(u, shift))
                e -= shift
            return float(np.ldexp(np.sqrt(sq), e))

    def b_coefficients(self, y) -> Vector:
        """Per-metric weights L_j(u)/(2 u_j) at u = (sqrt(g_j(y,y)))_j.

        A batch ``y[N, n]`` gives ``[N, k]``, one row per base vector.
        """
        return self._coefficients(self.space.coerce_m(y))[0]

    def c_coefficients(self, y) -> Vector:
        """Per-block weights C_i = sum_j B_j a[j, i]; positive for y != 0.

        A batch ``y[N, n]`` gives ``[N, s]``, one row per base vector.
        """
        return self._coefficients(self.space.coerce_m(y))[1]

    def fundamental_contraction(self, y, v) -> float:
        """g_y(y, v) = sum_i C_i alpha_i(y, v), with C (of degree 0) taken at
        y / 2^e as in :meth:`f_value`; so g_y(2^s y, v) = 2^s g_y(y, v).
        A contraction that is not finite raises ``LinAlgError``."""
        ym = self.space._coerce_one(y)
        vm = self.space._coerce_one(v, allow_zero=True)
        c = self._coefficients(
            np.ldexp(ym, -int(np.frexp(np.abs(ym).max())[1])))[1]
        with np.errstate(all="ignore"):
            g = float(self.space.weighted_apply(ym, c) @ vm)
        if not np.isfinite(g):
            raise np.linalg.LinAlgError(
                "g_y(y, v) is not finite: the contraction overflows")
        return g

    def __repr__(self) -> str:
        return f"FinslerMetric(k={self.k}, L={self.lf.kind!r})"


def riemannian_metric(space, block_weights) -> FinslerMetric:
    """Single-metric family with L = u^2: F is the norm of sum_i w_i alpha_i."""
    family = MetricFamily(space, np.atleast_2d(block_weights))
    return FinslerMetric(family, LFunction.sum_of_squares([1.0]))


def l_function_from_spec(doc) -> LFunction:
    """Build a combiner from {"kind": ..., "weights": [...]} or "kind:w1,w2"."""
    if isinstance(doc, str):
        kind, _, tail = doc.partition(":")
        weights = [float(x) for x in tail.split(",")] if tail else []
        doc = {"kind": kind.strip(), "weights": weights}
    if not isinstance(doc, dict):
        raise ValueError(f"expected 'kind:w1,w2,...' or a dict, got {doc!r}")
    kind = doc.get("kind")
    if kind == "custom":
        raise ValueError("custom combiners are available via the library API only")
    if not isinstance(kind, str) or kind not in _FORMS:
        raise ValueError(f"unknown combiner kind {kind!r}")
    extra = set(doc) - {"kind", "weights"}
    if extra:
        raise ValueError(f"unknown combiner keys {sorted(extra)}")
    return _built_in(kind, _json_array(doc.get("weights", []), "weights"))

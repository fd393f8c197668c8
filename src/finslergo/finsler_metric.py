"""Composite Minkowski norms F = sqrt(L(sqrt(g_1), ..., sqrt(g_k))).

The combiner L takes the k norms of a metric family and must satisfy five
conditions to produce a Minkowski norm: positivity away from zero, positive
homogeneity of degree 2, nonnegative partials, a positive semi-definite
Hessian, and a positive sum of partials.  :func:`validate_l` samples all five
and reports the worst witness per condition.

The fundamental tensor of F contracts against the base vector as
``g_y(y, v) = sum_j B_j(y) g_j(y, v) = sum_i C_i(y) alpha_i(y, v)`` with
``B_j = L_j / (2 sqrt(g_j(y, y)))`` and ``C_i = sum_j B_j a[j, i]``; an
independent finite-difference oracle is provided by :func:`FinslerMetric.fd_fundamental`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .homogeneous_space import MetricFamily
from .lie_algebra import Vector

GRAD_CHECK_TOL = 1e-6
HOMOGENEITY_TOL = 1e-10
PARTIAL_TOL = 1e-12
HESSIAN_TOL = 1e-8
FORM_AGREEMENT_TOL = 1e-12


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
    def custom(cls, value, grad, arity: int, check: bool = True) -> "LFunction":
        """Wrap user callables; the gradient is cross-checked against finite
        differences at construction unless ``check`` is disabled.

        The callables must be safe for concurrent invocation if the metric
        is evaluated from multiple threads; everything else here is pure.
        """
        lf = cls("custom", arity, _per_row(value), _per_row(grad))
        if check:
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
    fd = np.empty_like(g)
    for i in range(lf.arity):
        up = u.copy()
        um = u.copy()
        up[i] += step
        um[i] -= step
        fd[i] = (lf.value(up) - lf.value(um)) / (2.0 * step)
    return float(np.abs(fd - g).max() / max(1.0, np.abs(g).max()))


def _fd_hessian(lf: LFunction, u, step: float = 1e-4) -> np.ndarray:
    h = np.empty((lf.arity, lf.arity))
    for i in range(lf.arity):
        up = u.copy()
        um = u.copy()
        up[i] += step
        um[i] -= step
        h[:, i] = (lf.grad(up) - lf.grad(um)) / (2.0 * step)
    return 0.5 * (h + h.T)


@dataclass(frozen=True)
class ConditionCheck:
    key: str
    description: str
    passed: bool
    worst: float
    witness: tuple


@dataclass(frozen=True)
class LValidationReport:
    conditions: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def __getitem__(self, key: str) -> ConditionCheck:
        for c in self.conditions:
            if c.key == key:
                return c
        raise KeyError(key)

    def failed_keys(self):
        return [c.key for c in self.conditions if not c.passed]


def validate_l(lf: LFunction, sample_count: int = 200,
               seed: int = 0) -> LValidationReport:
    """Sample the five Minkowski-norm conditions on the positive orthant.

    Checks, per pseudo-random sample point u (and rescalings of it):
    (i) L(u) > 0 away from 0, including orthant-boundary points;
    (ii) L(t*u) = t^2 L(u) for t in {0.5, 2, 10}, relative tol 1e-10;
    (iii) every partial derivative >= -1e-12;
    (iv) min eigenvalue of the Hessian >= -1e-8;
    (v) the sum of partials > 0.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    rng = np.random.default_rng(seed)
    k = lf.arity
    points = rng.uniform(0.05, 3.0, size=(sample_count, k))

    pos_worst, pos_wit = np.inf, None
    hom_worst, hom_wit = 0.0, None
    par_worst, par_wit = np.inf, None
    hes_worst, hes_wit = np.inf, None
    sum_worst, sum_wit = np.inf, None

    for u in points:
        val = lf.value(u)
        if val < pos_worst:
            pos_worst, pos_wit = val, u
        for scale in (0.5, 2.0, 10.0):
            target = scale ** 2 * val
            dev = abs(lf.value(scale * u) - target) / max(abs(target), 1e-300)
            if dev > hom_worst:
                hom_worst, hom_wit = dev, u
        g = lf.grad(u)
        if g.min() < par_worst:
            par_worst, par_wit = float(g.min()), u
        s = float(g.sum())
        if s < sum_worst:
            sum_worst, sum_wit = s, u
        eig = float(np.linalg.eigvalsh(_fd_hessian(lf, u)).min())
        if eig < hes_worst:
            hes_worst, hes_wit = eig, u

    # boundary points exercise positivity on orthant faces
    if k > 1:
        for u in points[: min(16, sample_count)]:
            ub = u.copy()
            ub[rng.integers(k)] = 0.0
            val = lf.value(ub)
            if val < pos_worst:
                pos_worst, pos_wit = val, ub

    def wit(u):
        return tuple(float(x) for x in u) if u is not None else ()

    conditions = (
        ConditionCheck("i", "positive away from zero",
                       pos_worst > 0.0, pos_worst, wit(pos_wit)),
        ConditionCheck("ii", "positively homogeneous of degree 2",
                       hom_worst <= HOMOGENEITY_TOL, hom_worst, wit(hom_wit)),
        ConditionCheck("iii", "partial derivatives nonnegative",
                       par_worst >= -PARTIAL_TOL, par_worst, wit(par_wit)),
        ConditionCheck("iv", "Hessian positive semi-definite",
                       hes_worst >= -HESSIAN_TOL, hes_worst, wit(hes_wit)),
        ConditionCheck("v", "sum of partials positive",
                       sum_worst > 0.0, sum_worst, wit(sum_wit)),
    )
    return LValidationReport(conditions=conditions)


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
            if not self.l_report.all_passed:
                raise ValueError(
                    "combiner fails Minkowski-norm conditions "
                    f"{self.l_report.failed_keys()}; pass unchecked=True "
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
        u = self._norms(ym)
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
        """g_y(y, v): the fundamental tensor contracted with the base vector.

        Computed as sum_j B_j g_j(y, v) and cross-checked against the
        block form sum_i C_i alpha_i(y, v); the two are algebraic
        rearrangements and must agree to 1e-12 relative.
        """
        ym = self._require_m(y)
        vm = self._require_m(v, allow_zero=True)
        b = self.b_coefficients(ym)
        g_vals = np.array([self.family.evaluate(j, ym, vm)
                           for j in range(self.k)])
        metric_form = float(b @ g_vals)
        c = self.family.a.T @ b
        block_form = float(ym @ self.space.weighted_alpha_gram(c) @ vm)
        bound = float(b @ np.array(
            [np.sqrt(self.family.evaluate(j, ym, ym)
                     * self.family.evaluate(j, vm, vm))
             for j in range(self.k)]))
        if abs(metric_form - block_form) > FORM_AGREEMENT_TOL * max(bound, 1e-300):
            raise ArithmeticError(
                "fundamental tensor forms disagree beyond roundoff: "
                f"{metric_form!r} vs {block_form!r}")
        return metric_form

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

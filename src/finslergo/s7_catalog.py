"""Built-in model: the 7-sphere as Sp(2)U(1)/Sp(1)diag(U(1)).

The 11-dimensional algebra sp(2) + u(1) is constructed from an explicit
4 x 4 complex (quaternionic 2 x 2) matrix model: structure constants are
derived from commutators at build time rather than typed by hand.  The
build only derives: the tests check the result (Jacobi, the prescribed
plane-rotation patterns of the isotropy operators, the realization's
brackets), and ``verify-s7`` checks Jacobi and the patterns.  Basis order
is X1..X4, Z1, Z2, Z3 | H1, H2, H3, W with invariant blocks
m1 = span(X1..X4), m2 = span(Z1), m3 = span(Z2, Z3) and identity base
products.

The closed-form geodesic graph for positive block weights (c1, c2, c3) is
shipped as the oracle against which the generic solver is verified.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .finsler_metric import FinslerMetric, LFunction
from .geodesic import (MatrixRealization, assemble, check_equivariance_batch,
                       criterion_residuals, solve_batch,
                       solve_geodesic_graph)  # noqa: F401  (re-exported)
from .homogeneous_space import MetricFamily, ReductiveSpace
from .lie_algebra import LieAlgebra, Vector, _positive_tol, _real, _Record

M_LABELS = ("X1", "X2", "X3", "X4", "Z1", "Z2", "Z3")
H_LABELS = ("H1", "H2", "H3", "W")
LABELS = M_LABELS + H_LABELS


def _complex_basis() -> np.ndarray:
    """The ten sp(2) basis elements as a [10, 4, 4] complex stack, in LABELS
    order.

    Rows/columns 0-1 carry the isotropy sp(1) block, rows/columns 2-3 the
    Z block; the off-diagonal blocks carry X1..X4.  Every matrix is
    skew-Hermitian and quaternionic (M J = J conj(M)), which pins all signs,
    including the (2, 3) entry of the Z block.
    """
    i = 1j
    mats = {
        "H1": {(0, 0): i, (1, 1): -i},
        "H2": {(0, 1): -1, (1, 0): 1},
        "H3": {(0, 1): -i, (1, 0): -i},
        "X1": {(0, 2): 1, (1, 3): 1, (2, 0): -1, (3, 1): -1},
        "X2": {(0, 2): i, (1, 3): -i, (2, 0): i, (3, 1): -i},
        "X3": {(0, 3): -1, (1, 2): 1, (2, 1): -1, (3, 0): 1},
        "X4": {(0, 3): -i, (1, 2): -i, (2, 1): -i, (3, 0): -i},
        "Z1": {(2, 2): i, (3, 3): -i},
        "Z2": {(2, 3): -1, (3, 2): 1},
        "Z3": {(2, 3): -i, (3, 2): -i},
    }
    out = np.zeros((10, 4, 4), dtype=complex)
    for lab, entries in mats.items():
        for (a, b), v in entries.items():
            out[LABELS.index(lab), a, b] = v
    return out


def _plane_op(src: int, dst: int) -> np.ndarray:
    """Rotation generator on m sending e_src -> e_dst and e_dst -> -e_src."""
    op = np.zeros((7, 7))
    op[dst, src] = 1.0
    op[src, dst] = -1.0
    return op


def isotropy_operator_patterns() -> dict:
    """Prescribed action of each isotropy generator on m, as 7 x 7 matrices."""
    a12, a34 = _plane_op(0, 1), _plane_op(2, 3)
    a13, a24 = _plane_op(0, 2), _plane_op(1, 3)
    a14, a23 = _plane_op(0, 3), _plane_op(1, 2)
    b23 = _plane_op(5, 6)
    return {
        "H1": a12 + a34,
        "H2": a13 - a24,
        "H3": a14 + a23,
        "W": 2.0 * b23 - a12 + a34,
    }


def _realify(m: np.ndarray) -> np.ndarray:
    """Complex N x N matrix as a real 2N x 2N matrix on (Re v, Im v)."""
    return np.block([[m.real, -m.imag], [m.imag, m.real]])


class S7Space(_Record):
    """The built-in reductive space together with its sphere realization."""

    space: ReductiveSpace
    realization: MatrixRealization

    @property
    def algebra(self) -> LieAlgebra:
        return self.space.alg


@lru_cache(maxsize=1)
def build_s7_space() -> S7Space:
    """Derive the catalog space and its sphere realization.

    Only the derivation is guarded: a commutator that leaves the span of the
    basis or has non-integer coefficients raises ``RuntimeError``, since
    rounding is what makes the structure constants exact.  The derived
    catalog is checked by the tests and by ``verify-s7``, not here.  The
    returned object is cached and must be treated as immutable.
    """
    sp2 = _complex_basis()

    def flat(m):
        return np.concatenate([m.real, m.imag], axis=-2).reshape(-1, 32).T

    # all commutators [e_i, e_j] at once, expanded over the basis by one
    # least-squares solve; column 10 i + j belongs to the pair (i, j)
    comm = sp2[:, None] @ sp2[None] - sp2[None] @ sp2[:, None]
    span, rhs = flat(sp2), flat(comm)
    coeffs = np.linalg.lstsq(span, rhs, rcond=None)[0]
    snapped = np.round(coeffs)
    for bad, what in (
            (np.linalg.norm(span @ coeffs - rhs, axis=0) > 1e-10,
             "leaves the span"),
            (np.abs(coeffs - snapped).max(axis=0) > 1e-9,
             "has non-integer structure constants")):
        if bad.any():
            i, j = divmod(int(np.argmax(bad)), 10)
            raise RuntimeError(f"commutator [{LABELS[i]}, {LABELS[j]}] {what}")

    c = np.zeros((11, 11, 11))
    c[:10, :10, :10] = snapped.T.reshape(10, 10, 10)
    # W acts on m exactly as the prescribed operator and commutes with h;
    # [e_j, W] = -[W, e_j]
    c[:7, 10, :7] = -isotropy_operator_patterns()["W"].T
    brackets = {}
    for i, j, k in np.argwhere(c):
        if i < j:
            brackets.setdefault((i, j), {})[k] = c[i, j, k]
    alg = LieAlgebra(LABELS, brackets)
    space = ReductiveSpace(alg, h=list(H_LABELS), blocks=[
        ["X1", "X2", "X3", "X4"], ["Z1"], ["Z2", "Z3"]])

    # 8 x 8 real realization; the extra u(1) direction realizes W as the
    # Z1 matrix shifted by -i * identity so that it annihilates the base point
    reals = _realify(np.concatenate([sp2, sp2[4:5] - 1j * np.eye(4)]))
    base_point = np.zeros(8)
    base_point[2] = 1.0
    return S7Space(space=space,
                   realization=MatrixRealization(reals, base_point))


def ad_pattern_deviation(s7: S7Space | None = None) -> float:
    """Worst entry deviation of the restricted adjoints of h from their
    patterns, and of their components leaving m."""
    alg = (s7 or build_s7_space()).algebra
    patterns = isotropy_operator_patterns()
    ad = alg.structure[[alg.index(lab) for lab in patterns]].transpose(0, 2, 1)
    pattern_off = np.abs(ad[:, :7, :7] - np.stack(list(patterns.values())))
    return float(max(pattern_off.max(), np.abs(ad[:, 7:, :7]).max()))


def k_coefficients(c):
    """The weight ratios (k1, k2, k3) = (c2/c3 - 2 c2/c1, 1 - 2 c3/c1,
    c2/c3 - 1) of the closed-form geodesic graph.

    A batch ``c[N, 3]`` gives arrays over the rows.
    """
    c1, c2, c3 = _positive_triple(c).T
    return c2 / c3 - 2.0 * c2 / c1, 1.0 - 2.0 * c3 / c1, c2 / c3 - 1.0


def _positive_triple(c) -> Vector:
    c = _real(c, "block weights")
    if c.ndim not in (1, 2) or c.shape[-1] != 3:
        raise ValueError("expected three block weights")
    if not np.isfinite(c).all() or (c <= 0.0).any():
        raise ValueError("block weights must be finite and positive")
    return c


def _components(y):
    """The seven m-coordinates x1..x4, z1..z3 of y or of each row of y."""
    return build_s7_space().space.coerce_m(y, allow_zero=True).T


def closed_form_xi(y, c) -> Vector:
    """Closed-form isotropy correction for the catalog space.

    Rational in the X-part and linear in the Z-part; at x = 0, where the
    generic formulas are 0/0, the minimal-norm convention (0, 0, 0, k3*z1)
    applies.  Returns the full 11-vector supported on the isotropy basis;
    rows ``y[N, n]`` and/or weights ``c[N, 3]`` give ``[N, 11]``.
    """
    x1, x2, x3, x4, z1, z2, z3 = _components(y)
    k1, k2, k3 = k_coefficients(c)
    nx = x1 * x1 + x2 * x2 + x3 * x3 + x4 * x4
    on_stratum = nx == 0.0
    nx = np.where(on_stratum, 1.0, nx)
    xi1 = (k1 * z1 * (x1 * x1 + x2 * x2 - x3 * x3 - x4 * x4)
           + 2.0 * k2 * (z2 * (x2 * x3 - x1 * x4)
                         + z3 * (x1 * x3 + x2 * x4))) / nx
    xi2 = (2.0 * k1 * z1 * (x2 * x3 + x1 * x4)
           + k2 * (z2 * (x1 * x1 - x2 * x2 + x3 * x3 - x4 * x4)
                   + 2.0 * z3 * (x3 * x4 - x1 * x2))) / nx
    xi3 = (2.0 * k1 * z1 * (x2 * x4 - x1 * x3)
           + k2 * (2.0 * z2 * (x1 * x2 + x3 * x4)
                   + z3 * (x1 * x1 - x2 * x2 - x3 * x3 + x4 * x4))) / nx
    out = np.zeros(np.shape(xi1) + (len(LABELS),))  # H1, H2, H3, W: 7..10
    out[..., 7], out[..., 8], out[..., 9] = xi1, xi2, xi3
    out[..., 7:10][on_stratum] = 0.0
    out[..., 10] = k3 * z1
    return out


def extended_matrix(y, c) -> np.ndarray:
    """The displayed 6 x 5 augmented system for weights c at base vector y.

    Rows correspond to the X1..X4, Z2, Z3 equations (the Z1 equation is
    identically zero); the X rows are normalized by c1 and the Z rows by c3.
    Columns are the four isotropy components followed by the right-hand side.
    Rows ``y[N, n]`` and/or weights ``c[N, 3]`` give ``[N, 6, 5]``.
    """
    x1, x2, x3, x4, z1, z2, z3 = _components(y)
    c1, c2, c3 = _positive_triple(c).T
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


def extended_matrix_deviation(Y, C) -> np.ndarray:
    """Max abs difference between the display and the row-scaled assembly,
    one value per row of ``Y[N, n]`` and ``C[N, 3]``.

    Also includes the magnitude of the assembled Z1 row, which the display
    omits because it vanishes identically.
    """
    C = _positive_triple(C)
    a_mat, b_vec = assemble(build_s7_space().space, Y, C)
    full = np.concatenate([a_mat, b_vec[..., None]], axis=-1)
    scale = C[:, [0, 0, 0, 0, 2, 2], None]
    scaled = full[:, [0, 1, 2, 3, 5, 6]] / scale
    return np.maximum(np.abs(full[:, 4]).max(axis=-1),
                      np.abs(scaled - extended_matrix(Y, C)).max(axis=(1, 2)))


def _check_entry(worst, tol, **witness) -> dict:
    """One ``verify-s7`` check: passed, worst and tol, then the witnesses,
    with arrays as lists of floats."""
    return {"passed": bool(worst <= tol), "worst": float(worst), "tol": tol,
            **{k: np.asarray(v).tolist() for k, v in witness.items()}}


def extended_matrix_sweep(n_samples: int, seed: int, tol: float) -> dict:
    """Worst display-vs-assembly deviation over the base vectors
    ``y = rng.standard_normal((n, 7))`` and then the weights
    ``c = rng.uniform(0.25, 4.0, (n, 3))`` of ``rng = default_rng(seed)``."""
    _positive_tol(tol)
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((n_samples, 7))
    c = rng.uniform(0.25, 4.0, (n_samples, 3))
    dev = extended_matrix_deviation(y, c)
    i = int(np.argmax(dev))
    return _check_entry(dev[i], tol, witness_y=y[i], witness_c=c[i])


@lru_cache(maxsize=1)
def _equivariance_metric() -> FinslerMetric:
    """The sq_sum:1,3 metric of the equivariance sweep, built once; its
    built-in combiner is accepted by its form, without sampling."""
    family = MetricFamily(build_s7_space().space,
                          [[1.0, 1.0, 1.0], [2.0, 1.0, 4.0]])
    return FinslerMetric(family, LFunction.squared_sum([1.0, 3.0]))


def check_equivariance_sweep(n_samples: int, seed: int, tol: float) -> dict:
    """Worst transport deviation of the solved graph over random triples.

    Uses a genuinely two-metric combiner so the induced weights vary with
    the base vector.  ``rng = default_rng(seed)`` draws
    ``v = rng.standard_normal((n, 7))``, ``h = rng.standard_normal((n, 4))``
    and ``t = rng.uniform(-1.0, 1.0, n)``, in that order; y is v at unit norm.
    """
    _positive_tol(tol)
    metric = _equivariance_metric()
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n_samples, 7))
    h = rng.standard_normal((n_samples, 4))
    t = rng.uniform(-1.0, 1.0, n_samples)
    y = v / metric.space.alpha_norm(v)[:, None]
    dev = check_equivariance_batch(metric, y, h, t)[0]
    i = int(np.argmax(dev))
    return _check_entry(dev[i], tol, witness_y=y[i], witness_h=h[i],
                        witness_t=t[i])


class ClosedFormReport(_Record):
    """Oracle equivalence of the closed form against the numeric solver."""

    n_samples: int
    tol: float
    max_residual: float
    worst_residual_y: Vector
    worst_residual_c: Vector
    max_mismatch: float
    worst_mismatch_y: Vector
    worst_mismatch_c: Vector
    n_unique: int

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol and self.max_mismatch <= self.tol


def verify_closed_form(n_samples: int = 1000, seed: int = 0,
                       tol: float = 1e-8) -> ClosedFormReport:
    """Check the closed form against the criterion and the numeric solver.

    ``rng = default_rng(seed)`` draws ``v = rng.standard_normal((n, 7))``
    and then ``c = rng.uniform(0.25, 4.0, (n, 3))``; y is v at unit norm.
    For each pair the closed form must satisfy the criterion within tol,
    and match the minimal-norm solver wherever it reports a unique solution.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    _positive_tol(tol)
    space = build_s7_space().space
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n_samples, 7))
    c = rng.uniform(0.25, 4.0, (n_samples, 3))
    y = v / space.alpha_norm(v)[:, None]
    # riemannian_metric(space, c).c_coefficients(y) == c exactly, so the
    # weights go straight into the batched criterion
    xi = closed_form_xi(y, c)[:, space.h_indices]
    residual = np.abs(criterion_residuals(space, y, c, xi)).max(axis=1)
    sol = solve_batch(space, y, c)
    mismatch = np.where(sol.unique, np.abs(sol.xi - xi).max(axis=1), -1.0)
    i_res, i_mis = int(np.argmax(residual)), int(np.argmax(mismatch))
    found = bool(sol.unique[i_mis])
    return ClosedFormReport(
        n_samples=n_samples, tol=tol, max_residual=float(residual[i_res]),
        worst_residual_y=y[i_res], worst_residual_c=c[i_res],
        max_mismatch=max(float(mismatch[i_mis]), 0.0),
        worst_mismatch_y=y[i_mis] if found else np.zeros(7),
        worst_mismatch_c=c[i_mis] if found else np.ones(3),
        n_unique=int(sol.unique.sum()))

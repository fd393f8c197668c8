"""Reductive decompositions g = h + m with invariant block scalar products.

A :class:`ReductiveSpace` splits a Lie algebra into an isotropy part h and a
complement m, partitions m into declared invariant blocks m_1, ..., m_s, and
carries one symmetric positive-definite Gram matrix per block.  A
:class:`MetricFamily` is a k x s matrix of positive coefficients; row j
defines the scalar product g_j = sum_i a[j, i] * alpha_i on m.

Blocks are user-declared, not computed.  The m-coordinate order is the
concatenation of the blocks, so every family Gram matrix is block diagonal.
"""

from __future__ import annotations

import numpy as np

from .lie_algebra import (Check, LieAlgebra, Report, Vector, _all,
                          _json_array, _json_keys, _json_list, _real)

STRUCTURAL_TOL = 1e-12
INVARIANCE_TOL = 1e-10


def _bounded(name, entries, tol) -> Check:
    """The check that max |entries| is at most tol."""
    worst = float(np.abs(entries).max(initial=0.0))
    return Check(name, worst <= tol, worst, tol)


class ReductiveSpace:
    """Reductive split of an algebra with an invariant block decomposition."""

    def __init__(self, alg: LieAlgebra, h, blocks, alpha=None):
        """
        Args:
            alg: the underlying Lie algebra.
            h: basis labels or indices spanning the isotropy subalgebra.
            blocks: list of lists of labels/indices; their concatenation is
                the complement m, in m-coordinate order.
            alpha: one symmetric positive-definite Gram matrix per block, in
                block coordinates.  Defaults to identity blocks.
        """
        self.alg = alg
        self.h_indices = np.array([alg.index(k) for k in h], dtype=int)
        self.blocks = [np.array([alg.index(k) for k in blk], dtype=int)
                       for blk in blocks]
        for i, blk in enumerate(self.blocks):
            if not len(blk):
                raise ValueError(f"m block {i} is empty")
        self.m_indices = (np.concatenate(self.blocks)
                          if self.blocks else np.array([], dtype=int))
        # per part: its indices, the other part's, and the other part's name
        self._parts = {"m": (self.m_indices, self.h_indices, "isotropy"),
                       "h": (self.h_indices, self.m_indices, "complement")}

        used = list(self.h_indices) + list(self.m_indices)
        if sorted(used) != list(range(alg.dim)):
            raise ValueError("h and the blocks must partition the basis")

        if alpha is None:
            alpha = [np.eye(len(blk)) for blk in self.blocks]
        alpha = [_real(a, "Gram matrices", copy=True) for a in alpha]
        if len(alpha) != len(self.blocks):
            raise ValueError("need exactly one Gram matrix per block")
        for a, blk in zip(alpha, self.blocks):
            if a.shape != (len(blk), len(blk)):
                raise ValueError(f"Gram matrix shape {a.shape} does not "
                                 f"match block size {len(blk)}")
            if not np.all(np.isfinite(a)):
                raise ValueError("Gram matrices must be finite")
        self.alpha = alpha

        # Per-space tensors of the batched criterion: block i's Gram placed
        # in its m-slice, the block of each m-coordinate, the structure
        # constants c[i, (a, k)] of [e_i, U_a]_m for all i, and
        # c[h + m, m, m] as one matrix, which gives A and b in one product.
        m, h, c = self.m_indices, self.h_indices, alg.structure
        self.block_grams = np.zeros((self.n_blocks, self.dim_m, self.dim_m))
        off = 0
        for grams, a in zip(self.block_grams, alpha):
            grams[off:off + len(a), off:off + len(a)] = a
            off += len(a)
        self._gram = self.block_grams.sum(axis=0)
        self._block_of = np.repeat(np.arange(self.n_blocks),
                                   [len(blk) for blk in self.blocks])
        self._block_sums = np.equal.outer(
            self._block_of, np.arange(self.n_blocks)).astype(float)
        self.c_gmm = c[:, m][:, :, m].reshape(self.dim, self.dim_m ** 2)
        self.c_system = c[np.ix_(np.concatenate([h, m]), m, m)].transpose(
            2, 0, 1).reshape(self.dim_m, self.dim * self.dim_m)
        self._report = None  # validate()'s, computed on first use

    # -- shape helpers -------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.alg.dim

    @property
    def dim_m(self) -> int:
        return len(self.m_indices)

    @property
    def dim_h(self) -> int:
        return len(self.h_indices)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def m_labels(self):
        return [self.alg.basis_labels[i] for i in self.m_indices]

    def h_labels(self):
        return [self.alg.basis_labels[i] for i in self.h_indices]

    # -- coordinates ---------------------------------------------------------

    def _require_valid(self):
        failed = self.validate().failed()
        if failed:
            raise ValueError(f"the space fails checks {failed}")

    def _coerce(self, v, part: str, allow_zero: bool) -> Vector:
        own, other, other_name = self._parts[part]
        v = _real(v, "coordinates", copy=True)
        n = v.shape[-1] if v.ndim in (1, 2) else None
        if n == self.dim and self.dim != len(own):
            if v[..., other].any():
                raise ValueError(f"vector has {other_name} components; "
                                 f"project it onto {part} first")
            v = v[..., own]
        elif n != len(own):
            raise ValueError(f"expected {len(own)} {part}-coordinates or "
                             f"{self.dim} full coordinates, got shape {v.shape}")
        if not _all(np.isfinite(v)):
            raise ValueError("coordinates must be finite")
        # count_nonzero is the cheap test of one vector, any() that of rows
        if not allow_zero and not (np.count_nonzero(v) if v.ndim == 1
                                   else _all(v.any(axis=-1))):
            raise ValueError("the zero vector is not allowed here")
        return v

    def coerce_m(self, v, allow_zero: bool = False) -> Vector:
        """m-coordinates of a vector, or of each row of a batch ``[N, n]``,
        given in full or m-coordinates.

        Full-length input must have exactly zero h-coordinates; membership
        in m is the caller's responsibility, enforced, not assumed.  NaN and
        infinite entries are rejected.
        """
        return self._coerce(v, "m", allow_zero)

    def coerce_h(self, v) -> Vector:
        """h-coordinates of a vector or of rows ``[N, n]``, as
        :meth:`coerce_m` gives m-coordinates, with the zero vector allowed."""
        return self._coerce(v, "h", True)

    def _coerce_one(self, v, part: str = "m", allow_zero: bool = False):
        """:meth:`coerce_m` or :meth:`coerce_h` of one vector, not rows."""
        if np.ndim(v) != 1:
            n = len(self._parts[part][0])
            raise ValueError(f"expected one vector [{n}] or [{self.dim}], "
                             f"got shape {np.shape(v)}")
        return self.coerce_m(v, allow_zero) if part == "m" else self.coerce_h(v)

    # -- block scalar products -------------------------------------------------

    def _apply_gram(self, rows) -> np.ndarray:
        """The unweighted block Gram applied to m-coordinates held as
        1 x dim_m matrices ``[..., 1, dim_m]``: one product per row."""
        return rows @ self._gram

    def weighted_apply(self, vm, weights) -> np.ndarray:
        """Rows of (sum_i weights[..., i] * alpha_i) applied to vm[..., dim_m]."""
        return (weights.take(self._block_of, axis=-1)
                * self._apply_gram(vm[..., None, :])[..., 0, :])

    def alpha_norm(self, v):
        """Norm of the m-part of v in the unweighted block products.

        A batch ``[N, n]`` gives one norm per row; input is checked as by
        :meth:`coerce_m`, with the zero vector allowed.
        """
        vm = self.coerce_m(v, allow_zero=True)
        quad = (vm[..., None, :] @ self._gram) @ vm[..., :, None]
        return np.sqrt(quad[..., 0, 0])

    # -- validation -------------------------------------------------------------

    def validate(self) -> Report:
        """The space's six checks with their worst violations, computed on
        first use and kept; every metric and solve refuses a failure.

        Tolerances are fixed: 1e-12 for the structural bracket conditions,
        1e-10 for the metric-invariance condition, and 1e-12 max(1, max|c|)^2
        for the Jacobi identity, which is quadratic in the constants c.
        """
        if self._report is None:
            c, h, m = self.alg.structure, self.h_indices, self.m_indices
            # alpha_i(ad(e)u, v) + alpha_i(u, ad(e)v) on m, ad(e_n) being
            # the transpose of c[n, m, m]
            c_hmm, grams = c[np.ix_(h, m, m)][:, None], self.block_grams
            moved = c_hmm @ grams + grams @ c_hmm.transpose(0, 1, 3, 2)
            min_eig = min((float(np.linalg.eigvalsh(a).min())
                           for a in self.alpha), default=np.inf)
            scale = max(1.0, float(np.abs(c).max(initial=0.0)))
            jac = self.alg.check_jacobi(STRUCTURAL_TOL * scale ** 2)
            self._report = Report((
                _bounded("subalgebra", c[np.ix_(h, h, m)], STRUCTURAL_TOL),
                _bounded("reductivity", c[np.ix_(h, m, h)], STRUCTURAL_TOL),
                _bounded("alpha_symmetry", self._gram - self._gram.T,
                         STRUCTURAL_TOL),
                Check("alpha_positive_definite", min_eig > 0.0, min_eig, 0.0),
                _bounded("invariance", moved, INVARIANCE_TOL),
                Check("jacobi", jac.passed, jac.max_violation, jac.tol),
            ))
        return self._report

    # -- serialization -----------------------------------------------------------

    def to_json_dict(self, family: "MetricFamily | None" = None) -> dict:
        doc = {"algebra": self.alg.to_json_dict(), "h": self.h_labels(),
               "m_blocks": [[self.alg.basis_labels[i] for i in blk]
                            for blk in self.blocks],
               "alpha": [[float(x) for x in a.ravel()] for a in self.alpha]}
        if family is not None:
            doc["family_a"] = [[float(x) for x in row] for row in family.a]
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ReductiveSpace":
        alg = LieAlgebra.from_json_dict(doc["algebra"])
        blocks = [_json_keys(blk, "m_blocks")
                  for blk in _json_list(doc["m_blocks"], "m_blocks")]
        alpha = [_json_array(flat, "alpha")
                 for flat in _json_list(doc["alpha"], "alpha")]
        if len(alpha) != len(blocks):
            raise ValueError("alpha must hold one Gram matrix per block")
        for a, n in zip(alpha, map(len, blocks)):
            if a.size != n * n:
                raise ValueError(f"alpha entry for a block of {n} needs "
                                 f"{n * n} numbers, not {a.size}")
        alpha = [a.reshape(len(b), len(b)) for a, b in zip(alpha, blocks)]
        return cls(alg, _json_keys(doc["h"], "h"), blocks, alpha)

    def __repr__(self) -> str:
        return (f"ReductiveSpace(dim={self.dim}, h={self.h_labels()}, "
                f"blocks={[len(b) for b in self.blocks]})")


class MetricFamily:
    """Positively related scalar products g_j = sum_i a[j, i] * alpha_i."""

    def __init__(self, space: ReductiveSpace, a):
        a = _real(a, "family coefficients")
        if a.ndim != 2:
            raise ValueError("coefficient matrix must be 2-D (k x s)")
        if a.shape[0] < 1 or a.shape[1] != space.n_blocks:
            raise ValueError(f"coefficient matrix must be k x {space.n_blocks}"
                             f" with k >= 1, got {a.shape}")
        if not np.all(np.isfinite(a)) or np.any(a <= 0.0):
            raise ValueError("family coefficients must be finite and positive")
        space._require_valid()
        self.space = space
        self.a = a
        self.a.flags.writeable = False

    @property
    def k(self) -> int:
        return self.a.shape[0]

    def __repr__(self) -> str:
        return f"MetricFamily(k={self.k}, s={self.space.n_blocks})"


def load_space_document(doc: dict):
    """Read a combined space document; returns (space, family or None).

    The space must pass :meth:`ReductiveSpace.validate`; a ``ValueError``
    names the checks it fails.
    """
    space = ReductiveSpace.from_json_dict(doc)
    space._require_valid()
    family = None
    if "family_a" in doc:
        family = MetricFamily(space, _json_array(doc["family_a"], "family_a"))
    return space, family

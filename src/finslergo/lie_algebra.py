"""Finite-dimensional real Lie algebras encoded by structure constants.

A :class:`LieAlgebra` stores the rank-3 array ``c`` with
``[e_i, e_j] = sum_k c[i, j, k] e_k`` over a named basis.  Brackets are
supplied for pairs ``i < j`` only; the antisymmetric completion is automatic,
so antisymmetry of ``c`` is exact by construction.  Vectors are plain 1-D
float arrays of coordinates in the declared basis order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

Vector = np.ndarray

JACOBI_TOL = 1e-12


@dataclass(frozen=True)
class JacobiReport:
    """Worst violation of the Jacobi identity over all basis triples."""

    max_violation: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tol


class LieAlgebra:
    """A real Lie algebra given by structure constants over a named basis."""

    def __init__(self, basis_labels, brackets):
        """Build the algebra from bracket data on pairs i < j.

        Args:
            basis_labels: sequence of distinct basis names, e.g.
                ``["X1", "X2", "H1"]``.
            brackets: mapping ``(i, j) -> {k: coeff}`` giving
                ``[e_i, e_j] = sum_k coeff * e_k``.  Indices may be integers
                or basis labels; only pairs with i < j are accepted, the
                completion ``[e_j, e_i] = -[e_i, e_j]`` is implied.
        """
        labels = list(basis_labels)
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be distinct")
        self.basis_labels = labels
        self.dim = len(labels)
        self._label_index = {lab: i for i, lab in enumerate(labels)}

        c = np.zeros((self.dim, self.dim, self.dim))
        for (i, j), coeffs in brackets.items():
            i = self.index(i)
            j = self.index(j)
            if i >= j:
                raise ValueError(
                    f"bracket pairs must satisfy i < j, got ({i}, {j})")
            for k, v in coeffs.items():
                k = self.index(k)
                v = float(v)
                if not np.isfinite(v):
                    raise ValueError("structure constants must be finite")
                c[i, j, k] = v
                c[j, i, k] = -v
        c.flags.writeable = False
        self.structure = c

    # -- basis bookkeeping -------------------------------------------------

    def index(self, key) -> int:
        """Resolve a basis label or integer index to an integer index."""
        if isinstance(key, str):
            try:
                return self._label_index[key]
            except KeyError:
                raise ValueError(f"unknown basis label {key!r}") from None
        i = int(key)
        if not 0 <= i < self.dim:
            raise ValueError(f"basis index {i} out of range for dim {self.dim}")
        return i

    def basis_vector(self, key) -> Vector:
        e = np.zeros(self.dim)
        e[self.index(key)] = 1.0
        return e

    def vector(self, coords) -> Vector:
        """Coerce coordinates to a validated member vector."""
        v = np.asarray(coords, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(
                f"expected a vector of length {self.dim}, got shape {v.shape}")
        return v

    # -- algebra operations ------------------------------------------------

    def bracket(self, a, b) -> Vector:
        """Lie bracket [a, b] of two member vectors."""
        a = self.vector(a)
        b = self.vector(b)
        return np.einsum("i,j,ijk->k", a, b, self.structure)

    def ad_operator(self, x) -> np.ndarray:
        """Matrix of ad(x) = [x, .]; column j is bracket(x, e_j)."""
        x = self.vector(x)
        return np.einsum("i,ijk->kj", x, self.structure)

    def check_jacobi(self, tol: float = JACOBI_TOL) -> JacobiReport:
        """Evaluate the Jacobi identity over all basis triples."""
        if tol <= 0:
            raise ValueError("tol must be positive")
        c = self.structure
        term = np.einsum("ijm,mkl->ijkl", c, c)
        total = (term
                 + np.einsum("jkm,mil->ijkl", c, c)
                 + np.einsum("kim,mjl->ijkl", c, c))
        return JacobiReport(max_violation=float(np.abs(total).max()), tol=tol)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        entries = []
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                coeffs = {
                    str(k): float(v)
                    for k, v in enumerate(self.structure[i, j])
                    if v != 0.0
                }
                if coeffs:
                    entries.append({"i": i, "j": j, "coeffs": coeffs})
        return {"dim": self.dim, "basis": list(self.basis_labels),
                "brackets": entries}

    def to_json(self, indent=None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "LieAlgebra":
        labels = doc["basis"]
        if doc.get("dim", len(labels)) != len(labels):
            raise ValueError("dim does not match the number of basis labels")
        brackets = {}
        for entry in doc.get("brackets", []):
            key = (int(entry["i"]), int(entry["j"]))
            brackets[key] = {int(k): float(v)
                             for k, v in entry["coeffs"].items()}
        return cls(labels, brackets)

    @classmethod
    def from_json(cls, text: str) -> "LieAlgebra":
        return cls.from_json_dict(json.loads(text))

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, basis={self.basis_labels})"


def matrix_exponential(m, t=1.0) -> np.ndarray:
    """exp(t*m) for a square real matrix, via scaling-and-squaring.

    A stack ``m[..., n, n]`` gives one exponential per matrix; t is a scalar
    or broadcasts over the stack.
    """
    import scipy.linalg  # about 0.3 s: loaded on first use, not on import

    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return scipy.linalg.expm(np.asarray(t, dtype=float)[..., None, None] * m)


def adjoint_group_element(alg: LieAlgebra, h, t: float) -> np.ndarray:
    """Adjoint action exp(t*ad(h)) of the one-parameter subgroup of h."""
    return matrix_exponential(alg.ad_operator(h), t)

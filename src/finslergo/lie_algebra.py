"""Finite-dimensional real Lie algebras encoded by structure constants.

A :class:`LieAlgebra` stores the rank-3 array ``c`` with
``[e_i, e_j] = sum_k c[i, j, k] e_k`` over a named basis.  Brackets are
supplied for pairs ``i < j`` only; the antisymmetric completion is automatic,
so antisymmetry of ``c`` is exact by construction.  Vectors are plain 1-D
float arrays of coordinates in the declared basis order.  The
:class:`Check` and :class:`Report` records that every validator returns are
defined here, in the module all others import.

Every result type of the library except ``GeodesicGraphResult`` derives
from the private base ``_Record``, an immutable record without generated
code.  A subclass declares its fields as class annotations, in order, and
a default as a class attribute.  Every construction binds the arguments
through the class's ``inspect.Signature`` of its fields, by position or
keyword, with Python's ``TypeError`` on a missing or unknown one.  A
subclass that converts or checks its arguments defines its own
``__init__`` and passes the results on to ``_Record.__init__``.
``repr``, ``==`` (arrays by ``np.array_equal``) and ``hash`` cover every field.
Assigning or deleting an attribute raises ``AttributeError``.  Records are
not dataclasses: ``dataclasses.fields``, ``asdict`` and ``replace`` do not
apply to them.
"""

from __future__ import annotations

import inspect
from numbers import Real

import numpy as np

Vector = np.ndarray

JACOBI_TOL = 1e-12


def _real(x, what: str, copy: bool = False) -> np.ndarray:
    """x as a float array, copied if asked, of integer or float input only:
    complex input raises, also with a zero imaginary part, and bool, str,
    bytes and object input raises instead of being converted."""
    a = np.asarray(x)
    if a.dtype.kind not in "iuf":
        raise ValueError(f"{what} must be real" + (
            "" if a.dtype.kind == "c" else f" numbers, not {a.dtype}"))
    return np.array(a, dtype=float) if copy else a.astype(float, copy=False)


def _json_number(value, key: str, kind=float):
    """A number of a JSON document as ``kind``; bool, str and, for ``int``,
    a fraction, inf or nan raise ``ValueError`` instead of being converted."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or kind is int and value % 1):
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{key} must be {noun}, not {value!r}")
    return kind(value)


def _json_array(value, key: str) -> np.ndarray:
    """Float array of a JSON number or of nested lists of numbers; ragged
    lists raise ``ValueError`` naming ``key``."""
    if not isinstance(value, (list, tuple)):
        return np.asarray(_json_number(value, key))
    items = [_json_array(v, key) for v in value]
    if len({item.shape for item in items}) > 1:
        raise ValueError(f"{key} is ragged: its lists differ in length")
    return np.array(items, dtype=float)


def _json_list(value, key: str):
    """A JSON list; anything else raises ``ValueError`` naming ``key``."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{key} must be a list, not {value!r}")
    return value


def _json_object(value, key: str):
    """A JSON object; anything else raises ``ValueError`` naming ``key``."""
    if not isinstance(value, dict):
        raise ValueError(f"{key} must be an object, not {value!r}")
    return value


def _json_keys(value, key: str) -> list:
    """A JSON list of basis labels and integer indices; a list that is not
    one, or an index that is a bool or a fraction, raises ``ValueError``."""
    return [k if isinstance(k, str) else _json_number(k, f"{key} index", int)
            for k in _json_list(value, key)]


def _count(value, key: str, least: int = 1) -> int:
    """An integer argument (a count or an arity, or a seed or a basis index
    with ``least=0``): a Python or numpy integer of at least ``least``, else
    ``ValueError`` naming ``key``; a bool, float, str or None is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{key} must be an integer, not {value!r}")
    if value < least:
        raise ValueError(f"{key} must be at least {least}")
    return int(value)


def _positive_tol(tol) -> float:
    """tol as a Python float, or ``ValueError`` where it is a bool, not a
    real number, NaN or not above zero."""
    if isinstance(tol, bool) or not isinstance(tol, Real) or not tol > 0:
        raise ValueError(f"tol must be positive, not {tol!r}")
    return float(tol)


def _all(mask) -> bool:
    """``mask.all()`` at a third of its call overhead on small arrays."""
    return np.count_nonzero(mask) == mask.size


def _abs_row_max(x) -> np.ndarray:
    """max |x[n]| of each row n of x[N, a] or x[N, a, b].

    numpy reduces a short trailing axis row by row, so 16 or more rows are
    reduced along the batch axis of a transposed copy: 6 us in place of
    43 us for [1000, 7] on a 2-vCPU VM.  A max is exact, so the bits are
    the same."""
    n = len(x)
    if n < 16:
        return np.maximum.reduce(np.abs(x), axis=1 if x.ndim == 2 else (1, 2))
    return np.maximum.reduce(np.abs(x.reshape(n, -1).T, order="C"))


class _Record:
    """Immutable record over the annotated fields of a subclass."""

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__dict__.get("__annotations__",
                                                           ()))
        cls.__signature__ = inspect.Signature([inspect.Parameter(
            f, inspect.Parameter.POSITIONAL_OR_KEYWORD,
            default=getattr(cls, f, inspect.Parameter.empty))
            for f in cls._fields])

    def __init__(self, *args, **kwargs):
        bound = self.__signature__.bind(*args, **kwargs)
        bound.apply_defaults()
        object.__setattr__(self, "__dict__", bound.arguments)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
                + ")")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(a is b or (np.array_equal(a, b) if isinstance(a, np.ndarray)
                              or isinstance(b, np.ndarray) else a == b)
                   for a, b in zip(self._values(), other._values()))

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Check(_Record):
    """One named check: the worst value met, the tolerance it was held to,
    and the input where that value occurred (empty when there is none)."""

    name: str
    passed: bool
    worst: float
    tol: float
    witness: tuple = ()


class Report(_Record):
    """Named checks in a fixed order; passes when every check passes."""

    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def failed(self) -> list:
        """Names of the checks that did not pass, in order."""
        return [c.name for c in self.checks if not c.passed]


class JacobiReport(_Record):
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
                v = float(_real(v, "structure constants"))
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
        i = _count(key, "basis index", 0)
        if i >= self.dim:
            raise ValueError(f"basis index {i} out of range for dim {self.dim}")
        return i

    def basis_vector(self, key) -> Vector:
        e = np.zeros(self.dim)
        e[self.index(key)] = 1.0
        return e

    def vector(self, coords) -> Vector:
        """Coerce real coordinates to a validated member vector."""
        v = _real(coords, "coordinates")
        if v.shape != (self.dim,):
            raise ValueError(
                f"expected a vector of length {self.dim}, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("coordinates must be finite")
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
        """Evaluate the Jacobi identity over all basis triples, from one
        contraction t[i, j, k] = [[e_i, e_j], e_k] in its cyclic orders."""
        tol = _positive_tol(tol)
        t = np.einsum("ijm,mkl->ijkl", self.structure, self.structure)
        total = t + t.transpose(2, 0, 1, 3) + t.transpose(1, 2, 0, 3)
        return JacobiReport(max_violation=float(np.abs(total).max(initial=0.0)),
                            tol=tol)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        entries = []
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                coeffs = {str(k): float(v) for k, v
                          in enumerate(self.structure[i, j]) if v != 0.0}
                if coeffs:
                    entries.append({"i": i, "j": j, "coeffs": coeffs})
        return {"dim": self.dim, "basis": list(self.basis_labels),
                "brackets": entries}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "LieAlgebra":
        labels = _json_object(doc, "algebra")["basis"]
        if not (isinstance(labels, (list, tuple))
                and all(isinstance(k, str) for k in labels)):
            raise ValueError(f"basis must be a list of label strings, not "
                             f"{labels!r}")
        if doc.get("dim", len(labels)) != len(labels):
            raise ValueError("dim does not match the number of basis labels")
        brackets = {}
        for entry in _json_list(doc.get("brackets", []), "brackets"):
            entry = _json_object(entry, "bracket")
            key = tuple(_json_number(entry[k], f"bracket {k}", int)
                        for k in "ij")
            coeffs = brackets[key] = {}
            for k, v in _json_object(entry["coeffs"], "bracket coeffs").items():
                # JSON writes the index k as the key "k"
                if isinstance(k, str) and k.removeprefix("-").isdecimal():
                    k = int(k)
                coeffs[_json_number(k, "bracket coeffs key", int)] = \
                    _json_number(v, "bracket coefficient")
        return cls(labels, brackets)

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, basis={self.basis_labels})"


# Degree-13 Pade coefficients b_k / b_0 and the 1-norm below which the
# approximant meets double precision without squaring (Higham 2005, table
# 2.3); with b_0 = 1 the approximant of the zero matrix is the identity.
_PADE13 = np.array([
    64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
    129060195264000, 10559470521600, 670442572800, 33522128640, 1323241920,
    40840800, 960960, 16380, 182, 1]) / 64764752532480000
_THETA13 = 5.371920351148152


def matrix_exponential(m, t=1.0) -> np.ndarray:
    """exp(t*m) for a square real matrix, via scaling-and-squaring.

    A stack ``m[..., n, n]`` gives one exponential per matrix; t is a scalar
    or broadcasts over the stack.  Each matrix is scaled by its own power of
    two, so a matrix of a stack gives the same result, bit for bit, as when
    it is exponentiated alone.
    """
    m = _real(m, "matrix entries")
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        a = _real(t, "t")[..., None, None] * m
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    # squarings per matrix: the fewest that bring the 1-norm below theta_13
    norm = np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)
    squarings = np.maximum(np.frexp(norm / _THETA13)[1], 0)
    a = np.ldexp(a, -squarings[..., None, None])
    b = _PADE13
    ident = np.eye(m.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(squarings.max(initial=0))):
        more = squarings > k
        r[more] = r[more] @ r[more]
    return r

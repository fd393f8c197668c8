"""Exact rational solve of the geodesic-graph system, an oracle for tests.

``A(y) xi = b(y)`` is assembled over the rationals from a space's integer
structure constants, its identity Gram matrices and rational block weights
C, each float of y and C taken as the rational it is.  The exact rank and
the minimal-norm least-squares solution come from the full-rank
factorization ``A = F G`` of the reduced row echelon form: G holds its
nonzero rows, F the pivot columns of A, and
``A+ = G^T (G G^T)^-1 (F^T F)^-1 F^T``.  All arithmetic is exact, on
Python integers and ``fractions.Fraction``; no float enters after the
inputs are read.
"""

from fractions import Fraction

import numpy as np


class ExactSystem:
    """The nonzero integer constants of a space, ordered for assembly."""

    def __init__(self, space):
        c = space.alg.structure
        if (c != c.round()).any():
            raise ValueError("the structure constants are not integers")
        if any((gram != np.eye(len(gram))).any() for gram in space.alpha):
            raise ValueError("the Gram matrices are not the identity")
        m, h = list(space.m_indices), list(space.h_indices)
        block = {int(j): i for i, blk in enumerate(space.blocks) for j in blk}
        self.block = [block[int(j)] for j in m]
        self.dim_h = len(h)
        # A[a][k] = sum_j w_j c[h_k, m_a, m_j], with w_j = C_block(j) y_j
        self.a_terms = [[[(j, int(c[hk, ma, mj])) for j, mj in enumerate(m)
                          if c[hk, ma, mj]] for hk in h] for ma in m]
        # b[a] = -sum_l,j y_l w_j c[m_l, m_a, m_j]
        self.b_terms = [[(l, j, int(c[ml, ma, mj]))
                         for l, ml in enumerate(m) for j, mj in enumerate(m)
                         if c[ml, ma, mj]] for ma in m]

    def assemble(self, y, c):
        """A as a list of rows and b as a list, in Fractions."""
        a_int, b_int, dy, dc = self._integer_system(y, c)
        return ([[Fraction(v, dy * dc) for v in row] for row in a_int],
                [Fraction(v, dy * dy * dc) for v in b_int])

    def _integer_system(self, y, c):
        """Integer A and b of y * dy and c * dc, with dy and dc the least
        common denominators (powers of two) of the floats of y and of c:
        A = A_int / (dy dc) and b = b_int / (dy^2 dc)."""
        y, dy = _integers(y)
        c, dc = _integers(c)
        w = [c[i] * v for i, v in zip(self.block, y)]
        a_int = [[sum(w[j] * k for j, k in col) for col in row]
                 for row in self.a_terms]
        b_int = [-sum(y[l] * w[j] * k for l, j, k in terms)
                 for terms in self.b_terms]
        return a_int, b_int, dy, dc

    def solve(self, y, c):
        """The exact rank and minimal-norm xi of the system at y with C.
        The integer system has the rank of A, and its solution is dy xi."""
        a_int, b_int, dy, _ = self._integer_system(y, c)
        a_mat = [[Fraction(v) for v in row] for row in a_int]
        g, pivots = _rref(a_mat)
        if not pivots:
            return 0, [Fraction(0)] * self.dim_h
        f = [[row[p] for p in pivots] for row in a_mat]
        ftb = [sum(f[a][s] * b_int[a] for a in range(len(f)))
               for s in range(len(pivots))]
        v = _solve_spd(_gram(list(zip(*f))), ftb)
        t = _solve_spd(_gram(g), v)
        return len(pivots), [sum(g[s][k] * t[s] for s in range(len(g))) / dy
                             for k in range(self.dim_h)]


def _integers(values):
    """Python ints v * d for the floats v and their least common
    denominator d, a power of two."""
    exact = [Fraction(float(v)) for v in values]
    d = max(x.denominator for x in exact)
    return [int(x * d) for x in exact], d


def _gram(rows):
    """rows times its transpose."""
    return [[sum(x * y for x, y in zip(r, s)) for s in rows] for r in rows]


def _rref(rows):
    """The nonzero rows of the reduced row echelon form and the pivot
    columns."""
    rows = [list(r) for r in rows]
    pivots, top = [], 0
    for col in range(len(rows[0]) if rows else 0):
        pick = next((i for i in range(top, len(rows)) if rows[i][col]), None)
        if pick is None:
            continue
        rows[top], rows[pick] = rows[pick], rows[top]
        lead = rows[top][col]
        rows[top] = [v / lead for v in rows[top]]
        for i, row in enumerate(rows):
            if i != top and row[col]:
                factor = row[col]
                rows[i] = [v - factor * p for v, p in zip(row, rows[top])]
        pivots.append(col)
        top += 1
    return rows[:top], pivots


def _solve_spd(mat, rhs):
    """x with mat x = rhs for a nonsingular mat (here a Gram matrix of
    independent rows), by Gauss-Jordan."""
    rows = [list(r) + [v] for r, v in zip(mat, rhs)]
    reduced, pivots = _rref(rows)
    assert pivots == list(range(len(mat))), "singular system"
    return [row[-1] for row in reduced]

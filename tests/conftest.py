import numpy as np
import pytest

from finslergo import ReductiveSpace, build_s7_space, riemannian_metric

# combiner specs for the quick-start family: two with unit weights, two
# whose weights move the scale of L
SCALE_SPECS = ["sq_sum:1,3", "sum_sq:1,1", "sq_sum:962.19,767.38",
               "sum_sq:0.3,7"]


@pytest.fixture(scope="session")
def s7():
    return build_s7_space()


@pytest.fixture(scope="session")
def round_metric(s7):
    """The unit-weight single-metric pipeline on the catalog space."""
    return riemannian_metric(s7.space, [1.0, 1.0, 1.0])


def weighted_gram(space, weights):
    """Block-diagonal Gram sum_i weights[i] * alpha_i in m-coordinates."""
    return np.tensordot(np.asarray(weights, dtype=float), space.block_grams, 1)


def alpha_gram(space):
    """Block-diagonal Gram of the base products (all weights one)."""
    return weighted_gram(space, np.ones(space.n_blocks))


def family_gram(family, j):
    """Gram matrix of the family's metric g_j on m."""
    return weighted_gram(family.space, family.a[j])


def family_product(family, j, u, v):
    """g_j(u, v) for m-coordinates u and v."""
    return float(u @ family_gram(family, j) @ v)


def fd_fundamental(metric, y, v, step=1e-4):
    """Central difference of 0.5 F^2(y + t v) at t = 0: an oracle for
    ``metric.fundamental_contraction(y, v)`` at |y| and |v| near 1."""
    y, v = np.asarray(y, dtype=float), np.asarray(v, dtype=float)
    return (metric.f_value(y + step * v) ** 2
            - metric.f_value(y - step * v) ** 2) / (4.0 * step)


def geodesic_bound(metric, y):
    """Largest max|geodesic_residual| that counts as zero at m-part y:
    1e-9 F(y)^2 times the largest structure constant, since the criterion
    is quadratic in y."""
    f = metric.f_value(y)
    return 1e-9 * f * f * np.abs(metric.space.alg.structure).max()


def embed(space, v, indices):
    """Full coordinates of m- or h-coordinates v[..., n], placed at the
    space's ``m_indices`` or ``h_indices``."""
    full = np.zeros(np.shape(v)[:-1] + (space.dim,))
    full[..., indices] = v
    return full


def unit_m_samples(space, n, seed):
    """Unit-norm vectors on m in the unweighted block products."""
    rng = np.random.default_rng(seed)
    gram = alpha_gram(space)
    out = np.empty((n, space.dim_m))
    for i in range(n):
        v = rng.standard_normal(space.dim_m)
        out[i] = v / np.sqrt(v @ gram @ v)
    return out


def non_lie_document(s7):
    """The catalog document with [Z1, Z2] = 3 Z3 instead of 2 Z3: every
    other check still passes, but the bracket violates Jacobi."""
    doc = s7.space.to_json_dict()
    z1, z2, z3 = (s7.algebra.index(lab) for lab in ("Z1", "Z2", "Z3"))
    for entry in doc["algebra"]["brackets"]:
        if (entry["i"], entry["j"]) == (z1, z2):
            assert entry["coeffs"] == {str(z3): 2.0}
            entry["coeffs"] = {str(z3): 3.0}
    return doc


def mixed_block_space(s7):
    """The catalog split with m1 cut into [X1, X2] and [X3, X4]: H2 carries
    X1 into X3, so alpha_1 and alpha_2 are each invariant within their own
    block but not on m, and a family that weights them apart is not
    Ad(H)-invariant."""
    return ReductiveSpace(s7.algebra, h=["H1", "H2", "H3", "W"],
                          blocks=[["X1", "X2"], ["X3", "X4"], ["Z1"],
                                  ["Z2", "Z3"]])

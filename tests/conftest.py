import numpy as np
import pytest

from finslergo import build_s7_space, riemannian_metric


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

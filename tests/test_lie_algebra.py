import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from finslergo import LieAlgebra, ReductiveSpace, matrix_exponential
from conftest import embed


@pytest.fixture(scope="module")
def so3():
    # [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e2
    return LieAlgebra(
        ["e1", "e2", "e3"],
        {("e1", "e2"): {"e3": 1.0},
         ("e2", "e3"): {"e1": 1.0},
         ("e1", "e3"): {"e2": -1.0}},
    )


def coords(alg, seed):
    return np.random.default_rng(seed).standard_normal(alg.dim)


# -- construction -------------------------------------------------------------

def test_antisymmetry_is_exact(s7):
    c = s7.algebra.structure
    assert np.array_equal(c, -np.swapaxes(c, 0, 1))


def test_rejects_lower_triangle_input():
    with pytest.raises(ValueError, match="i < j"):
        LieAlgebra(["a", "b"], {(1, 0): {0: 1.0}})


def test_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        LieAlgebra(["a", "a"], {})


def test_rejects_unknown_label(so3):
    with pytest.raises(ValueError, match="unknown basis label"):
        so3.index("nope")


@pytest.mark.parametrize("key", [1.7, 1.0, True, None, b"1"])
def test_an_index_that_is_no_integer_is_refused(so3, key):
    # 1.7 and True used to resolve to 1, by int()
    with pytest.raises(ValueError, match=r"basis index must be an integer"):
        so3.index(key)


def test_integer_indices_of_python_and_numpy_are_taken(s7, so3):
    for key in (1, np.int64(1), np.uint8(1), "e2"):
        assert so3.index(key) == 1
    with pytest.raises(ValueError, match="out of range"):
        so3.index(3)
    with pytest.raises(ValueError, match="basis index must be at least 0"):
        so3.index(-1)
    # a fractional index used to truncate: h = [7.9, ...] built with H1 and
    # the pair (0, 1.5) set the (0, 1) bracket
    with pytest.raises(ValueError, match="basis index must be an integer"):
        ReductiveSpace(s7.algebra, h=[7.9, 8, 9, 10],
                       blocks=[b.tolist() for b in s7.space.blocks])
    with pytest.raises(ValueError, match="basis index must be an integer"):
        LieAlgebra(["a", "b"], {(0, 1.5): {0: 1.0}})


@pytest.mark.parametrize("coeff", ["2", True, b"2", None, 2j],
                         ids=["str", "bool", "bytes", "None", "complex"])
def test_a_bracket_coefficient_that_is_no_number_is_refused(coeff):
    # "2" and True used to be read by float() as the constants 2.0 and 1.0
    with pytest.raises(ValueError, match="structure constants must be real"):
        LieAlgebra(["a", "b"], {(0, 1): {0: coeff}})


def test_integer_and_float_bracket_coefficients_are_taken():
    for coeff in (2, 2.0, np.int64(2), np.float32(2.0)):
        alg = LieAlgebra(["a", "b"], {(0, 1): {0: coeff}})
        assert alg.structure[0, 1, 0] == 2.0 and alg.structure[1, 0, 0] == -2.0


# -- bracket -------------------------------------------------------------------

def test_bracket_of_vector_with_itself_vanishes(s7):
    x1 = s7.algebra.basis_vector("X1")
    assert_allclose(s7.algebra.bracket(x1, x1), 0.0, atol=0.0)


def test_bracket_h1_x1_gives_x2(s7):
    alg = s7.algebra
    got = alg.bracket(alg.basis_vector("H1"), alg.basis_vector("X1"))
    assert np.array_equal(got, alg.basis_vector("X2"))


def test_bracket_z1_z2_gives_twice_z3(s7):
    alg = s7.algebra
    got = alg.bracket(alg.basis_vector("Z1"), alg.basis_vector("Z2"))
    assert np.array_equal(got, 2.0 * alg.basis_vector("Z3"))


def test_bracket_dimension_mismatch(so3):
    with pytest.raises(ValueError, match="length 3"):
        so3.bracket([1.0, 0.0], [0.0, 1.0, 0.0])


def test_non_finite_coordinates_are_rejected_on_arrival(s7):
    alg = s7.algebra
    with pytest.raises(ValueError, match="coordinates must be finite"):
        alg.bracket(np.full(11, np.nan), alg.basis_vector(0))
    with pytest.raises(ValueError, match="coordinates must be finite"):
        alg.ad_operator([np.inf] + [0.0] * 10)
    with pytest.raises(ValueError, match="coordinates must be finite"):
        alg.vector([0.0] * 10 + [-np.inf])


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_bracket_antisymmetric_and_bilinear(data):
    from finslergo import build_s7_space
    alg = build_s7_space().algebra
    elems = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
    vec = st.lists(elems, min_size=alg.dim, max_size=alg.dim).map(np.array)
    a = data.draw(vec)
    b = data.draw(vec)
    c = data.draw(vec)
    lam = data.draw(elems)
    assert_allclose(alg.bracket(a, b), -alg.bracket(b, a), atol=1e-9)
    assert_allclose(alg.bracket(lam * a + b, c),
                    lam * alg.bracket(a, c) + alg.bracket(b, c),
                    atol=1e-7)


# -- adjoint operators -----------------------------------------------------------

def test_ad_of_zero_is_zero(s7):
    assert_allclose(s7.algebra.ad_operator(np.zeros(11)), 0.0, atol=0.0)


def test_ad_columns_are_brackets(s7, so3):
    for alg, seed in ((s7.algebra, 1), (so3, 2)):
        x = coords(alg, seed)
        ad = alg.ad_operator(x)
        for j in range(alg.dim):
            assert_allclose(ad[:, j], alg.bracket(x, alg.basis_vector(j)),
                            atol=0.0)


def test_ad_antisymmetric_in_argument(s7):
    alg = s7.algebra
    x = coords(alg, 3)
    y = coords(alg, 4)
    assert_allclose(alg.ad_operator(x) @ y + alg.ad_operator(y) @ x, 0.0,
                    atol=1e-12)


def test_ad_h1_restricted_pattern(s7):
    from finslergo.s7_catalog import isotropy_operator_patterns
    ad = s7.algebra.ad_operator(s7.algebra.basis_vector("H1"))
    assert np.array_equal(ad[:7, :7], isotropy_operator_patterns()["H1"])


# -- jacobi ---------------------------------------------------------------------

def test_jacobi_passes_on_catalog(s7):
    report = s7.algebra.check_jacobi(tol=1e-12)
    assert report.passed
    assert report.max_violation < 1e-12


def test_jacobi_abelian_exactly_zero():
    abelian = LieAlgebra(["a", "b", "c"], {})
    report = abelian.check_jacobi(tol=1e-12)
    assert report.passed
    assert report.max_violation == 0.0


def test_jacobi_detects_perturbed_constant(s7):
    # bump one structure constant of the catalog algebra by 0.1
    alg = s7.algebra
    brackets = {}
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            entry = {k: float(v) for k, v in enumerate(alg.structure[i, j])
                     if v != 0.0}
            if entry:
                brackets[(i, j)] = entry
    i, j, k = alg.index("X1"), alg.index("X2"), alg.index("H1")
    brackets[(i, j)][k] += 0.1
    report = LieAlgebra(alg.basis_labels, brackets).check_jacobi(tol=1e-12)
    assert not report.passed
    assert report.max_violation > 0.05


@pytest.mark.parametrize("seed", range(5))
def test_jacobi_equals_the_three_term_contraction_bit_for_bit(seed):
    # dense random antisymmetric constants on 11 generators
    values = np.random.default_rng(seed).standard_normal((11, 11, 11))
    alg = LieAlgebra([f"e{i}" for i in range(11)],
                     {(i, j): dict(enumerate(values[i, j]))
                      for i in range(11) for j in range(i + 1, 11)})
    c = alg.structure
    total = (np.einsum("ijm,mkl->ijkl", c, c)
             + np.einsum("jkm,mil->ijkl", c, c)
             + np.einsum("kim,mjl->ijkl", c, c))
    report = alg.check_jacobi(tol=1e-12)
    assert report.max_violation == float(np.abs(total).max())
    assert not report.passed


def test_jacobi_rejects_bad_tol(so3):
    with pytest.raises(ValueError):
        so3.check_jacobi(tol=0.0)


@pytest.mark.parametrize("tol", [-1e-12, float("nan"), float("-inf"), True,
                                 "1", None, 1e-12 + 0j])
def test_jacobi_rejects_a_nan_or_negative_tol(so3, tol):
    # True used to pass as tol=True, and "1" failed in a bare TypeError
    with pytest.raises(ValueError, match="tol must be positive"):
        so3.check_jacobi(tol=tol)


# -- matrix exponential ------------------------------------------------------------

def test_expm_zero_is_identity():
    assert_allclose(matrix_exponential(np.zeros((4, 4))), np.eye(4), atol=0.0)
    m = np.random.default_rng(3).standard_normal((5, 6, 6))
    zero = matrix_exponential(m, np.zeros(5))
    assert np.array_equal(zero, np.broadcast_to(np.eye(6), (5, 6, 6)))


def _s7_ad_stack(s7, n, seed):
    """ad(h) of n random isotropy vectors and n times in [-1, 1]."""
    rng = np.random.default_rng(seed)
    h = embed(s7.space, rng.standard_normal((n, 4)), s7.space.h_indices)
    return (np.einsum("ni,ijk->nkj", h, s7.algebra.structure),
            rng.uniform(-1.0, 1.0, n))


def test_expm_stack_equals_single_calls_bit_for_bit(s7):
    ad, t = _s7_ad_stack(s7, 40, seed=11)
    ad[::5] *= 50.0  # squaring counts differ within the stack
    stack = matrix_exponential(ad, t)
    for i in range(40):
        assert np.array_equal(stack[i], matrix_exponential(ad[i], t[i]))


def test_expm_matches_scipy_on_s7_adjoints(s7):
    linalg = pytest.importorskip("scipy.linalg")
    ad, t = _s7_ad_stack(s7, 100, seed=13)
    expect = linalg.expm(t[:, None, None] * ad)
    assert np.abs(matrix_exponential(ad, t) - expect).max() <= 1e-13


@pytest.mark.parametrize("norm", [1e-3, 1e-2, 0.1, 1.0, 5.0, 20.0, 100.0])
def test_expm_matches_scipy_on_random_matrices(norm):
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(int(norm * 1000))
    for _ in range(10):
        m = rng.standard_normal((6, 6))
        m *= norm / np.abs(m).sum(axis=0).max()
        expect = linalg.expm(m)
        err = np.abs(matrix_exponential(m) - expect).max()
        assert err <= 1e-11 * np.abs(expect).max()


def test_expm_rotation_generator():
    gen = np.array([[0.0, -1.0], [1.0, 0.0]])
    for t in (0.3, -1.2, 2.0):
        expect = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        assert_allclose(matrix_exponential(gen, t), expect, atol=1e-12)


def test_expm_inverse_pairs():
    rng = np.random.default_rng(7)
    for _ in range(5):
        m = rng.standard_normal((6, 6))
        prod = matrix_exponential(m) @ matrix_exponential(-m)
        assert_allclose(prod, np.eye(6), atol=1e-10)


def test_expm_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        matrix_exponential(np.zeros((2, 3)))


def test_expm_rejects_non_finite():
    bad = np.zeros((2, 2))
    bad[0, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        matrix_exponential(bad)


@pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan, [0.5, np.inf], 1e308])
def test_expm_refuses_a_non_finite_t_times_m_without_a_warning(t):
    # inf * 0 used to warn "invalid value encountered in multiply", and
    # 1e308 * 10 "overflow", first; the tests turn either into an error
    with pytest.raises(ValueError, match="finite"):
        matrix_exponential(10.0 * np.eye(2), t)


# -- adjoint group element exp(t ad(h)) ---------------------------------------------

def test_adjoint_at_zero_time(s7):
    h = s7.algebra.basis_vector("H1")
    assert_allclose(matrix_exponential(s7.algebra.ad_operator(h), 0.0),
                    np.eye(11), atol=0.0)


def test_adjoint_is_automorphism(s7):
    alg = s7.algebra
    rng = np.random.default_rng(11)
    for _ in range(5):
        h = alg.basis_vector("H1") * rng.uniform(0.5, 2.0)
        ad_exp = matrix_exponential(alg.ad_operator(h), rng.uniform(-1, 1))
        x = rng.standard_normal(11)
        y = rng.standard_normal(11)
        lhs = ad_exp @ alg.bracket(x, y)
        rhs = alg.bracket(ad_exp @ x, ad_exp @ y)
        assert np.abs(lhs - rhs).max() < 1e-9


def test_adjoint_h1_rotates_x_planes(s7):
    alg = s7.algebra
    t = 0.8
    ad_exp = matrix_exponential(alg.ad_operator(alg.basis_vector("H1")), t)
    rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    ix1, ix2 = alg.index("X1"), alg.index("X2")
    ix3, ix4 = alg.index("X3"), alg.index("X4")
    assert_allclose(ad_exp[np.ix_([ix1, ix2], [ix1, ix2])], rot, atol=1e-12)
    assert_allclose(ad_exp[np.ix_([ix3, ix4], [ix3, ix4])], rot, atol=1e-12)


def test_adjoint_orthogonal_on_m(s7):
    # all catalog block products are identities, so transport is orthogonal
    alg = s7.algebra
    rng = np.random.default_rng(13)
    for lab in ("H1", "H2", "H3", "W"):
        ad_exp = matrix_exponential(alg.ad_operator(alg.basis_vector(lab)),
                                    rng.uniform(-2, 2))
        block = ad_exp[:7, :7]
        assert np.abs(block.T @ block - np.eye(7)).max() < 1e-9


def test_adjoint_preserves_m(s7):
    alg = s7.algebra
    rng = np.random.default_rng(17)
    h = rng.standard_normal(4)
    h_full = np.zeros(11)
    h_full[7:] = h
    ad_exp = matrix_exponential(alg.ad_operator(h_full), 0.6)
    v = np.zeros(11)
    v[:7] = rng.standard_normal(7)
    moved = ad_exp @ v
    assert np.abs(moved[7:]).max() < 1e-10


# -- serialization ----------------------------------------------------------------

def test_json_round_trip(s7, so3):
    for alg in (s7.algebra, so3):
        again = LieAlgebra.from_json_dict(
            json.loads(json.dumps(alg.to_json_dict())))
        assert again.basis_labels == alg.basis_labels
        assert np.array_equal(again.structure, alg.structure)


def test_json_dict_stores_upper_triangle_only(so3):
    doc = so3.to_json_dict()
    assert all(e["i"] < e["j"] for e in doc["brackets"])
    assert doc["dim"] == 3

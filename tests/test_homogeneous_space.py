import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from finslergo import (Check, LieAlgebra, MetricFamily, ReductiveSpace, Report,
                       load_space_document)
from conftest import (family_gram, family_product, mixed_block_space,
                      non_lie_document, weighted_gram)


def loop_worst(space):
    """Per-basis reference loops for the worst values of validate()."""
    c, h, m = space.alg.structure, space.h_indices, space.m_indices
    sub = max((np.abs(c[i, j, m]).max(initial=0.0) for i in h for j in h),
              default=0.0)
    red = max((np.abs(c[i, j, h]).max(initial=0.0) for i in h for j in m),
              default=0.0)
    inv = 0.0
    for i in h:
        ad = space.alg.ad_operator(space.alg.basis_vector(int(i)))
        s = ad[np.ix_(m, m)]
        for a, blk in zip(space.alpha, space.blocks):
            # alpha_i on all of m, so entries across blocks count too
            pos = [list(m).index(k) for k in blk]
            g = np.zeros((len(m), len(m)))
            g[np.ix_(pos, pos)] = a
            inv = max(inv, np.abs(s.T @ g + g @ s).max())
    sym = max(np.abs(a - a.T).max() for a in space.alpha)
    return {"subalgebra": sub, "reductivity": red, "invariance": inv,
            "alpha_symmetry": sym}


def test_catalog_space_validates(s7):
    report = s7.space.validate()
    assert report.passed
    for name in ("subalgebra", "reductivity", "alpha_symmetry",
                 "alpha_positive_definite", "invariance"):
        assert report[name].passed, name


def test_merged_z_blocks_still_validate(s7):
    # a coarser invariant decomposition is allowed
    merged = ReductiveSpace(
        s7.algebra,
        h=["H1", "H2", "H3", "W"],
        blocks=[["X1", "X2", "X3", "X4"], ["Z1", "Z2", "Z3"]],
    )
    assert merged.validate().passed


def test_blocks_that_h_mixes_fail_invariance(s7):
    # each alpha_i is invariant within its block, but H2 carries X1 into X3,
    # so a family weighting the two X blocks apart is not Ad(H)-invariant
    space = mixed_block_space(s7)
    report = space.validate()
    assert report.failed() == ["invariance"]
    assert report["invariance"].worst == 1.0
    with pytest.raises(ValueError, match="invariance"):
        load_space_document(space.to_json_dict())
    assert s7.space.validate()["invariance"].worst == 0.0


def test_x_pair_as_isotropy_fails_subalgebra(s7):
    # [X1, X2] has components outside span(X1, X2)
    rest = ["X3", "X4", "Z1", "Z2", "Z3", "H1", "H2", "H3", "W"]
    space = ReductiveSpace(s7.algebra, h=["X1", "X2"], blocks=[rest])
    report = space.validate()
    assert not report["subalgebra"].passed
    assert not report.passed


def test_single_x_as_isotropy_fails_invariance(s7):
    # span(X1) is trivially a subalgebra, but ad(X1) is not skew on the rest
    rest = ["X2", "X3", "X4", "Z1", "Z2", "Z3", "H1", "H2", "H3", "W"]
    space = ReductiveSpace(s7.algebra, h=["X1"], blocks=[rest])
    report = space.validate()
    assert report["subalgebra"].passed
    assert not report["invariance"].passed
    assert not report.passed


def skewed_alpha(s7):
    """The catalog split with alpha_1 = diag(1, 2, 3, 4): symmetric and
    positive definite, but not invariant under the isotropy."""
    return [np.diag([1.0, 2.0, 3.0, 4.0]), np.eye(1), np.eye(2)]


def test_validate_worst_values_match_reference_loops(s7):
    rest = ["X2", "X3", "X4", "Z1", "Z2", "Z3", "H1", "H2", "H3", "W"]
    spaces = [
        s7.space,
        mixed_block_space(s7),
        ReductiveSpace(s7.algebra, h=["X1"], blocks=[rest]),
        ReductiveSpace(s7.algebra, h=["X1", "X2"], blocks=[rest[1:]]),
        ReductiveSpace(s7.algebra, h=["H1", "H2", "H3", "W"],
                       blocks=[["X1", "X2", "X3", "X4"], ["Z1"], ["Z2", "Z3"]],
                       alpha=skewed_alpha(s7)),
        ReductiveSpace(s7.algebra, h=["H1", "H2", "H3", "W"],
                       blocks=[["X1", "X2", "X3", "X4"], ["Z1"], ["Z2", "Z3"]],
                       alpha=[np.eye(4), [[2.0]], [[1.0, 0.5], [0.0, 1.0]]]),
    ]
    for space in spaces:
        report = space.validate()
        for name, worst in loop_worst(space).items():
            assert_allclose(report[name].worst, worst, rtol=1e-12, atol=0.0)
            assert report[name].passed == (worst <= report[name].tol)
    assert [c.name for c in report.checks] == [
        "subalgebra", "reductivity", "alpha_symmetry",
        "alpha_positive_definite", "invariance", "jacobi"]
    assert report.failed() == ["alpha_symmetry", "invariance"]


def test_report_collects_named_checks():
    report = Report((Check("a", True, 0.0, 1.0),
                     Check("b", False, 2.0, 1.0, witness=(0.5,)),
                     Check("c", False, -1.0, 0.0)))
    assert not report.passed
    assert report.failed() == ["b", "c"]
    assert report["b"].witness == (0.5,) and report["a"].witness == ()
    with pytest.raises(KeyError):
        report["d"]
    assert Report(()).passed and Report(()).failed() == []


def test_load_space_document_validates(s7):
    doc = s7.space.to_json_dict()
    doc["alpha"][0] = [float(x) for x in np.diag([1.0, 2.0, 3.0, 4.0]).ravel()]
    with pytest.raises(ValueError, match="invariance"):
        load_space_document(doc)
    doc["alpha"][0] = [float(x) for x in np.eye(4).ravel()]
    doc["alpha"][2] = [1.0, 0.5, 0.0, 1.0]
    with pytest.raises(ValueError, match="alpha_symmetry"):
        load_space_document(doc)


def _set_bracket(doc, **fields):
    doc["algebra"]["brackets"][0].update(fields)


@pytest.mark.parametrize("edit, message", [
    (lambda doc: _set_bracket(doc, i=0.9, j=1.2),
     "bracket i must be an integer, not 0.9"),
    (lambda doc: doc["alpha"].__setitem__(1, ["1"]),
     "alpha must be a number, not '1'"),
    (lambda doc: doc.__setitem__("family_a", [[True, "2", 1]]),
     "family_a must be a number, not True"),
    (lambda doc: _set_bracket(doc, coeffs={"4": True}),
     "bracket coefficient must be a number, not True"),
    (lambda doc: doc["alpha"].append([1.0]),
     "alpha must hold one Gram matrix per block"),
    (lambda doc: doc.__setitem__("family_a", [[1.0, 1.0, 1.0], [2.0, 1.0]]),
     "family_a is ragged: its lists differ in length"),
    (lambda doc: doc["alpha"].__setitem__(2, [1.0, [0.0], 0.0, 1.0]),
     "alpha is ragged: its lists differ in length"),
    (lambda doc: _set_bracket(doc, coeffs={"1.0": 2.0}),
     "bracket coeffs key must be an integer, not '1.0'"),
    (lambda doc: doc["algebra"].__setitem__("basis", "XZHW123abcd"),
     "basis must be a list of label strings, not 'XZHW123abcd'"),
    (lambda doc: doc["algebra"]["basis"].__setitem__(10, 10),
     "basis must be a list of label strings"),
    (lambda doc: doc.__setitem__("h", "W"), "h must be a list, not 'W'"),
    (lambda doc: doc["h"].__setitem__(3, 10.5),
     "h index must be an integer, not 10.5"),
    (lambda doc: doc["h"].__setitem__(3, True),
     "h index must be an integer, not True"),
    (lambda doc: doc["m_blocks"].__setitem__(1, "Z1"),
     "m_blocks must be a list, not 'Z1'"),
    (lambda doc: doc["m_blocks"][1].__setitem__(0, 4.5),
     "m_blocks index must be an integer, not 4.5"),
    (lambda doc: doc.__setitem__("m_blocks", 5),
     "m_blocks must be a list, not 5"),
    (lambda doc: doc.__setitem__("alpha", 5), "alpha must be a list, not 5"),
    (lambda doc: _set_bracket(doc, coeffs=[1]),
     "bracket coeffs must be an object, not [1]"),
    (lambda doc: doc.__setitem__("algebra", [1]),
     "algebra must be an object, not [1]"),
    (lambda doc: doc["algebra"].__setitem__("brackets", None),
     "brackets must be a list, not None"),
    (lambda doc: doc["algebra"]["brackets"].__setitem__(0, [0, 1]),
     "bracket must be an object, not [0, 1]"),
    (lambda doc: doc["alpha"].__setitem__(2, [1.0, 0.0, 1.0]),
     "alpha entry for a block of 2 needs 4 numbers, not 3"),
    (lambda doc: doc["alpha"].__setitem__(0, 5),
     "alpha entry for a block of 4 needs 16 numbers, not 1"),
    (lambda doc: (doc["m_blocks"].insert(1, []), doc["alpha"].insert(1, [])),
     "m block 1 is empty")],
    ids=["fractional index", "string alpha", "family types", "bool coefficient",
         "extra alpha", "ragged family", "ragged alpha", "fractional key",
         "string basis", "integer label", "string h", "fractional h index",
         "bool h index", "string block", "fractional block index",
         "number blocks", "number alpha", "list coeffs", "list algebra",
         "null brackets", "list bracket", "short alpha", "number alpha entry",
         "empty block"])
def test_space_document_refuses_wrong_types(s7, edit, message):
    doc = s7.space.to_json_dict(MetricFamily(s7.space, [[1.0, 1.0, 1.0]]))
    edit(doc)
    with pytest.raises(ValueError, match=re.escape(message)):
        load_space_document(doc)


def test_integer_h_and_block_entries_are_indices(s7):
    # JSON integers (2.0 included) name basis vectors by index, as bracket
    # i and j do; the document boundary checks them, not LieAlgebra.index
    doc = s7.space.to_json_dict()
    doc["h"] = [7, 8.0, "H3", 10]
    doc["m_blocks"][1] = [4]
    space = ReductiveSpace.from_json_dict(doc)
    assert space.h_labels() == s7.space.h_labels()
    assert space.m_labels() == s7.space.m_labels()
    with pytest.raises(ValueError, match="basis must be a list of label"):
        LieAlgebra.from_json_dict({"basis": "abc"})


def test_validate_checks_jacobi(s7):
    assert s7.space.validate()["jacobi"].worst == 0.0
    doc = non_lie_document(s7)
    report = ReductiveSpace.from_json_dict(doc).validate()
    assert report.failed() == ["jacobi"]
    assert report["jacobi"].worst == 2.0
    with pytest.raises(ValueError, match="jacobi"):
        load_space_document(doc)
    # the zero algebra has no basis triple and passes
    assert ReductiveSpace(LieAlgebra([], {}), h=[], blocks=[]).validate().passed


def test_jacobi_tolerance_scales_with_the_constants(s7):
    # scaling every constant by 1e3 scales the Jacobi sums by 1e6, and the
    # tolerance with them; the scaled catalog is still exactly Lie
    doc = s7.space.to_json_dict()
    for entry in doc["algebra"]["brackets"]:
        entry["coeffs"] = {k: 1e3 * v for k, v in entry["coeffs"].items()}
    check = ReductiveSpace.from_json_dict(doc).validate()["jacobi"]
    assert check.passed and check.tol == 1e-12 * 4e6


def test_alpha_norm_validates_its_input(s7):
    space = s7.space
    assert space.alpha_norm(np.zeros(7)) == 0.0
    assert_allclose(space.alpha_norm(np.ones((3, 11)) * (np.arange(11) < 7)),
                    np.sqrt(7.0), rtol=1e-15)
    full = np.ones(11)
    with pytest.raises(ValueError, match="isotropy"):
        space.alpha_norm(full)
    with pytest.raises(ValueError, match="finite"):
        space.alpha_norm(np.full(7, np.nan))
    with pytest.raises(ValueError, match="coordinates"):
        space.alpha_norm(np.ones(5))


def test_partition_enforced(s7):
    with pytest.raises(ValueError, match="partition"):
        ReductiveSpace(s7.algebra, h=["H1"], blocks=[["X1", "X2"]])


@pytest.mark.parametrize("at", [0, 1, 3])
def test_an_empty_block_is_refused_by_name(s7, at):
    # it used to fail inside validate(), with numpy's "zero-size array to
    # reduction operation minimum which has no identity"
    blocks = [b.tolist() for b in s7.space.blocks]
    alpha = list(s7.space.alpha)
    blocks.insert(at, [])
    alpha.insert(at, np.eye(0))
    with pytest.raises(ValueError, match=f"^m block {at} is empty$"):
        ReductiveSpace(s7.algebra, h=s7.space.h_labels(), blocks=blocks,
                       alpha=alpha)
    with pytest.raises(ValueError, match=f"^m block {at} is empty$"):
        ReductiveSpace(s7.algebra, h=s7.space.h_labels(), blocks=blocks)


def test_alpha_shape_enforced(s7):
    with pytest.raises(ValueError, match="does not match block"):
        ReductiveSpace(
            s7.algebra,
            h=["H1", "H2", "H3", "W"],
            blocks=[["X1", "X2", "X3", "X4"], ["Z1"], ["Z2", "Z3"]],
            alpha=[np.eye(4), np.eye(2), np.eye(2)],
        )


# -- family grams ------------------------------------------------------------------

def test_gram_all_ones_is_identity(s7):
    family = MetricFamily(s7.space, [[1.0, 1.0, 1.0]])
    assert np.array_equal(family_gram(family, 0), np.eye(7))


def test_gram_block_diagonal_example(s7):
    family = MetricFamily(s7.space, [[2.0, 3.0, 5.0]])
    expect = np.diag([2.0, 2.0, 2.0, 2.0, 3.0, 5.0, 5.0])
    assert np.array_equal(family_gram(family, 0), expect)


def test_gram_min_eigenvalue_is_blockwise(s7):
    # non-identity SPD products; compare against a direct eigensolve
    rng = np.random.default_rng(23)
    alphas = []
    for blk in s7.space.blocks:
        n = len(blk)
        m = rng.standard_normal((n, n))
        alphas.append(m @ m.T + n * np.eye(n))
    space = ReductiveSpace(
        s7.algebra, h=["H1", "H2", "H3", "W"],
        blocks=[["X1", "X2", "X3", "X4"], ["Z1"], ["Z2", "Z3"]],
        alpha=alphas)
    a_row = np.array([0.7, 2.0, 1.3])
    # random forms are not invariant, so no MetricFamily takes this space
    direct = np.linalg.eigvalsh(weighted_gram(space, a_row)).min()
    blockwise = min(a * np.linalg.eigvalsh(al).min()
                    for a, al in zip(a_row, alphas))
    assert_allclose(direct, blockwise, rtol=1e-12)


def test_gram_linear_in_coefficients(s7):
    f1 = MetricFamily(s7.space, [[1.0, 2.0, 3.0]])
    f2 = MetricFamily(s7.space, [[0.5, 1.0, 4.0]])
    fsum = MetricFamily(s7.space, [[1.5, 3.0, 7.0]])
    assert_allclose(family_gram(f1, 0) + family_gram(f2, 0),
                    family_gram(fsum, 0), atol=0.0)


# -- evaluation -----------------------------------------------------------------

def test_evaluate_positive_definite(s7):
    family = MetricFamily(s7.space, [[1.0, 2.0, 0.5], [3.0, 1.0, 1.0]])
    rng = np.random.default_rng(31)
    for j in range(2):
        for _ in range(20):
            y = rng.standard_normal(7)
            assert family_product(family, j, y, y) > 0.0


def test_evaluate_cross_block_zero(s7):
    family = MetricFamily(s7.space, [[1.0, 2.0, 0.5]])
    alg, space = s7.algebra, s7.space
    x1 = space.coerce_m(alg.basis_vector("X1"))
    z1 = space.coerce_m(alg.basis_vector("Z1"))
    assert family_product(family, 0, x1, z1) == 0.0


def test_evaluate_weighted_example(s7):
    family = MetricFamily(s7.space, [[2.0, 3.0, 5.0]])
    alg = s7.algebra
    y = s7.space.coerce_m(alg.basis_vector("X1") + alg.basis_vector("Z1"))
    assert family_product(family, 0, y, y) == 5.0


def test_evaluate_symmetric_bilinear(s7):
    family = MetricFamily(s7.space, [[1.3, 0.4, 2.0]])
    rng = np.random.default_rng(37)
    u, v, w = rng.standard_normal((3, 7))
    assert_allclose(family_product(family, 0, u, v),
                    family_product(family, 0, v, u), rtol=1e-14)
    assert_allclose(family_product(family, 0, u + 2.0 * w, v),
                    family_product(family, 0, u, v)
                    + 2.0 * family_product(family, 0, w, v), rtol=1e-12)


def test_isotropy_skew_adjoint_for_every_family_gram(s7):
    rng = np.random.default_rng(41)
    family = MetricFamily(s7.space, rng.uniform(0.2, 5.0, size=(3, 3)))
    for j in range(family.k):
        g = family_gram(family, j)
        for lab in ("H1", "H2", "H3", "W"):
            ad = s7.algebra.ad_operator(s7.algebra.basis_vector(lab))[:7, :7]
            assert np.abs(ad.T @ g + g @ ad).max() < 1e-10


# -- family validation ---------------------------------------------------------------

def test_family_rejects_nonpositive(s7):
    with pytest.raises(ValueError, match="positive"):
        MetricFamily(s7.space, [[1.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="positive"):
        MetricFamily(s7.space, [[1.0, -2.0, 1.0]])


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_family_rejects_a_non_finite_coefficient_by_name(s7, bad):
    with pytest.raises(ValueError, match="^family coefficients must be "
                                         "finite and positive$"):
        MetricFamily(s7.space, [[bad, 1.0, 1.0]])


def test_family_rejects_bad_shape(s7):
    with pytest.raises(ValueError):
        MetricFamily(s7.space, [[1.0, 2.0]])


# -- serialization ------------------------------------------------------------------

def test_space_json_round_trip(s7):
    family = MetricFamily(s7.space, [[1.0, 2.0, 3.0], [2.0, 2.0, 0.5]])
    doc = s7.space.to_json_dict(family)
    space2, family2 = load_space_document(doc)
    assert space2.h_labels() == s7.space.h_labels()
    assert space2.m_labels() == s7.space.m_labels()
    assert np.array_equal(space2.alg.structure, s7.algebra.structure)
    assert np.array_equal(family2.a, family.a)
    for a, b in zip(space2.alpha, s7.space.alpha):
        assert np.array_equal(a, b)
    assert space2.validate().passed


def test_abelian_space_with_empty_isotropy():
    alg = LieAlgebra(["a", "b", "c"], {})
    space = ReductiveSpace(alg, h=[], blocks=[["a", "b", "c"]])
    assert space.dim_h == 0
    assert space.validate().passed

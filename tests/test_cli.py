import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from finslergo import MetricFamily, geodesic_residual, riemannian_metric
from finslergo.cli import main
from conftest import non_lie_document


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- validate-l ---------------------------------------------------------------

def test_validate_l_passes_builtins(capsys):
    code, out, _ = run(capsys, "validate-l", "--l", "sum_sq:1,1",
                       "--samples", "100")
    assert code == 0
    assert "all conditions passed" in out


def test_validate_l_flags_degree_one_sum(capsys):
    code, out, _ = run(capsys, "validate-l", "--l", "sum:1,1",
                       "--samples", "100")
    assert code == 1
    assert "(ii) positively homogeneous of degree 2: FAIL" in out


def test_validate_l_sq_sum_weighted(capsys):
    code, out, _ = run(capsys, "validate-l", "--l", "sq_sum:1,2",
                       "--samples", "100")
    assert code == 0


def test_validate_l_malformed_spec(capsys):
    code, _, err = run(capsys, "validate-l", "--l", "nope:1")
    assert code == 2
    assert "error" in err


def test_validate_l_json_format(capsys):
    code, out, _ = run(capsys, "validate-l", "--l", "sum_sq:2",
                       "--samples", "50", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert len(doc["conditions"]) == 5


# -- graph -----------------------------------------------------------------------

def test_graph_on_degenerate_stratum(s7, capsys):
    # x=(1,0,0,0), z=(1,0,0) is rank deficient: the minimal-norm answer and
    # the closed form both satisfy the criterion exactly
    code, out, _ = run(capsys, "graph", "--y", "1,0,0,0,1,0,0",
                       "--l", "sum_sq:1", "--family", "1,1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 3
    assert doc["unique"] is False
    assert doc["residual"] < 1e-12
    metric = riemannian_metric(s7.space, [1.0, 1.0, 1.0])
    y = np.array(doc["y"])
    printed = np.abs(geodesic_residual(metric, y, np.array(doc["xi"])))
    assert printed.max() < 1e-12
    display = np.abs(geodesic_residual(metric, y, np.array([-1.0, 0, 0, 0])))
    assert display.max() < 1e-12


def test_graph_generic_vector_unique(capsys):
    code, out, _ = run(capsys, "graph", "--y",
                       "0.3,-0.9,0.4,1.1,0.6,-0.2,0.8",
                       "--l", "sq_sum:1,3", "--family", "1,1,1;2,1,4",
                       "--tol", "1e-9")
    assert code == 0
    doc = json.loads(out)
    assert doc["unique"] is True
    assert doc["residual"] < 1e-9


def test_graph_zero_z_gives_zero_correction(capsys):
    code, out, _ = run(capsys, "graph", "--y", "0.5,-1.0,2.0,0.25,0,0,0")
    assert code == 0
    assert_allclose(json.loads(out)["xi"], 0.0, atol=1e-12)


def test_graph_zero_vector_rejected(capsys):
    code, _, err = run(capsys, "graph", "--y", "0,0,0,0,0,0,0")
    assert code == 2
    assert "zero" in err


def test_graph_requires_y(capsys):
    code, _, err = run(capsys, "graph")
    assert code == 2


def test_graph_csv_format(capsys):
    code, out, _ = run(capsys, "graph", "--y", "1,0,0,0,1,0,0",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("X1,X2,X3,X4,Z1,Z2,Z3,xi_H1")
    assert len(lines) == 2


# -- scan -------------------------------------------------------------------------

def test_scan_round_metric(tmp_path, capsys):
    out_file = tmp_path / "scan.csv"
    code, _, _ = run(capsys, "scan", "--samples", "150", "--seed", "2",
                     "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "X1,X2,X3,X4,Z1,Z2,Z3,residual"
    assert len(lines) == 151
    assert all(float(line.rsplit(",", 1)[1]) < 1e-9 for line in lines[1:])


def test_scan_identical_seeds_are_byte_identical(tmp_path, capsys):
    files = []
    for name in ("a.csv", "b.csv"):
        f = tmp_path / name
        code, _, _ = run(capsys, "scan", "--samples", "60", "--seed", "5",
                         "--l", "sq_sum:1,3", "--family", "1,1,1;2,1,4",
                         "--out", str(f))
        assert code == 0
        files.append(f.read_bytes())
    assert files[0] == files[1]


def test_scan_riemannian_family_member(capsys, tmp_path):
    code, _, _ = run(capsys, "scan", "--family", "0.5,2,9",
                     "--samples", "200", "--seed", "3",
                     "--out", str(tmp_path / "r.csv"))
    assert code == 0


def test_scan_zero_samples_rejected(capsys):
    code, _, err = run(capsys, "scan", "--samples", "0")
    assert code == 2


def test_scan_unwritable_output(capsys):
    code, _, err = run(capsys, "scan", "--samples", "5",
                       "--out", "/nonexistent-dir/scan.csv")
    assert code == 3
    assert "i/o error" in err


def test_scan_json_format(capsys):
    code, out, _ = run(capsys, "scan", "--samples", "30", "--seed", "4",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["max_residual"] < 1e-9


def test_scan_flags_non_geodesic_orbit_metric(tmp_path, capsys):
    from finslergo import LieAlgebra, ReductiveSpace
    alg = LieAlgebra(
        ["e1", "e2", "e3"],
        {("e1", "e2"): {"e3": 1.0},
         ("e2", "e3"): {"e1": 1.0},
         ("e1", "e3"): {"e2": -1.0}},
    )
    space = ReductiveSpace(alg, h=[], blocks=[["e1"], ["e2"], ["e3"]])
    space_file = tmp_path / "group.json"
    space_file.write_text(json.dumps(space.to_json_dict()))
    code, out, _ = run(capsys, "scan", "--space", str(space_file),
                       "--family", "1,1,4", "--samples", "40", "--seed", "6",
                       "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["max_residual"] > 0.1


# -- verify-s7 -----------------------------------------------------------------------

def test_verify_s7_default_passes(capsys):
    code, out, _ = run(capsys, "verify-s7", "--samples", "200")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert names == {"jacobi", "ad_patterns", "extended_matrix",
                     "closed_form_residual", "closed_form_vs_solver",
                     "equivariance"}
    for check in doc["checks"]:
        if check["name"] == "closed_form_residual":
            assert len(check["witness_y"]) == 7


def test_verify_s7_impossible_tolerance_fails(capsys):
    code, out, _ = run(capsys, "verify-s7", "--samples", "100",
                       "--tol", "1e-15")
    assert code == 1
    assert json.loads(out)["passed"] is False


# -- orbit -------------------------------------------------------------------------------

def test_orbit_starts_at_base_point_and_stays_unit(capsys):
    code, out, _ = run(capsys, "orbit", "--y", "0.4,-0.6,0.8,0.1,0.5,-0.3,0.7",
                       "--steps", "100", "--t-max", "6.283185307179586")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,p0,p1,p2,p3,p4,p5,p6,p7"
    assert len(lines) == 101
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0
    assert_allclose(first[1:], [0, 0, 1, 0, 0, 0, 0, 0], atol=0.0)
    for line in lines[1:]:
        point = np.array([float(x) for x in line.split(",")[1:]])
        assert abs(np.linalg.norm(point) - 1.0) < 1e-9


def test_orbit_rejects_too_few_steps(capsys):
    code, _, err = run(capsys, "orbit", "--y", "1,0,0,0,0,0,0", "--steps", "1")
    assert code == 2


def test_orbit_requires_realization(s7, tmp_path, capsys):
    space_file = tmp_path / "space.json"
    family = MetricFamily(s7.space, [[1.0, 1.0, 1.0]])
    space_file.write_text(json.dumps(s7.space.to_json_dict(family)))
    code, _, err = run(capsys, "orbit", "--space", str(space_file),
                       "--y", "1,0,0,0,0,0,0")
    assert code == 2
    assert "realization" in err


# -- config file and space loading -----------------------------------------------------

def test_config_file_supplies_flags(s7, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "l": "sq_sum:1,3",
        "family": [[1, 1, 1], [2, 1, 4]],
        "samples": 40,
        "seed": 8,
        "format": "json",
    }))
    code, out, _ = run(capsys, "scan", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["n_samples"] == 40
    # explicit flags win over the config file
    code, out, _ = run(capsys, "scan", "--config", str(cfg),
                       "--samples", "25")
    assert json.loads(out)["n_samples"] == 25


def test_loaded_space_runs_generic_pipeline(s7, tmp_path, capsys):
    space_file = tmp_path / "space.json"
    family = MetricFamily(s7.space, [[1.0, 2.0, 0.5]])
    space_file.write_text(json.dumps(s7.space.to_json_dict(family)))
    code, out, _ = run(capsys, "graph", "--space", str(space_file),
                       "--y", "0.3,-0.9,0.4,1.1,0.6,-0.2,0.8")
    assert code == 0
    doc = json.loads(out)
    metric = riemannian_metric(s7.space, [1.0, 2.0, 0.5])
    expect = __import__("finslergo").solve_geodesic_graph(
        metric, np.array([0.3, -0.9, 0.4, 1.1, 0.6, -0.2, 0.8])).xi_h
    assert_allclose(doc["xi"], expect, atol=1e-12)


def test_space_document_breaking_invariance_exits_2(s7, tmp_path, capsys):
    doc = s7.space.to_json_dict(MetricFamily(s7.space, [[1.0, 1.0, 1.0]]))
    doc["alpha"][0] = [1.0, 0, 0, 0, 0, 2.0, 0, 0, 0, 0, 3.0, 0, 0, 0, 0, 4.0]
    space_file = tmp_path / "bad.json"
    space_file.write_text(json.dumps(doc))
    code, out, err = run(capsys, "graph", "--space", str(space_file),
                         "--y", "0.3,-0.9,0.4,1.1,0.6,-0.2,0.8")
    assert code == 2
    assert out == ""
    assert "invariance" in err


def test_space_document_breaking_jacobi_exits_2(s7, tmp_path, capsys):
    doc = non_lie_document(s7)
    doc["family_a"] = [[1.0, 1.0, 1.0], [2.0, 1.0, 4.0]]
    space_file = tmp_path / "non_lie.json"
    space_file.write_text(json.dumps(doc))
    code, out, err = run(capsys, "graph", "--space", str(space_file),
                         "--l", "sq_sum:1,3",
                         "--y", "0.3,-0.9,0.4,1.1,0.6,-0.2,0.8")
    assert code == 2
    assert out == ""
    assert "jacobi" in err


def test_missing_space_file(capsys):
    code, _, err = run(capsys, "graph", "--space", "/no/such/file.json",
                       "--y", "1,0,0,0,0,0,0")
    assert code == 3


def test_family_arity_mismatch(capsys):
    code, _, err = run(capsys, "scan", "--l", "sum_sq:1,1",
                       "--family", "1,1,1", "--samples", "5")
    assert code == 2
    assert "arity" in err

import json
import re

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


def test_graph_accepts_large_weight_combiners_by_their_form(capsys):
    code, out, _ = run(capsys, "graph", "--y",
                       "0.3,-0.9,0.4,1.1,0.6,-0.2,0.8",
                       "--l", "sq_sum:400,80", "--family", "1,1,1;2,1,4")
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 4 and doc["unique"] is True
    code, out, err = run(capsys, "graph", "--y",
                         "0.3,-0.9,0.4,1.1,0.6,-0.2,0.8",
                         "--l", "sum:1,1", "--family", "1,1,1;2,1,4")
    assert code == 2 and out == ""
    assert err == "error: combiner fails Minkowski-norm conditions ['ii']\n"
    # a valid form whose gradient overflows fails at the solve, without
    # numpy warnings
    code, out, err = run(capsys, "graph", "--y",
                         "0.3,-0.9,0.4,1.1,0.6,-0.2,0.8",
                         "--l", "sq_sum:1e160,1", "--family", "1,1,1;2,1,4")
    assert code == 2 and out == ""
    assert err == ("error: the criterion system is not finite: the "
                   "combiner's gradient overflows\n")


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


@pytest.mark.parametrize("flags", [[], ["--tol", "1e-15"]])
def test_verify_s7_entries_share_one_shape(capsys, flags):
    code, out, _ = run(capsys, "verify-s7", "--samples", "100", *flags)
    assert code == (1 if flags else 0)
    # witness name -> list length, or the type of a scalar witness
    witnesses = {
        "jacobi": {},
        "ad_patterns": {},
        "extended_matrix": {"witness_y": 7, "witness_c": 3},
        "closed_form_residual": {"witness_y": 7, "witness_c": 3},
        "closed_form_vs_solver": {"witness_y": 7, "witness_c": 3,
                                  "n_unique": int},
        "equivariance": {"witness_y": 7, "witness_h": 4, "witness_t": float},
    }
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks] == list(witnesses)
    for check in checks:
        expect = witnesses[check["name"]]
        assert list(check) == ["name", "passed", "worst", "tol", *expect]
        assert type(check["worst"]) is float and type(check["tol"]) is float
        assert check["passed"] is (check["worst"] <= check["tol"])
        for key, shape in expect.items():
            if isinstance(shape, int):
                assert len(check[key]) == shape
                assert all(type(v) is float for v in check[key])
            else:
                assert type(check[key]) is shape


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


@pytest.mark.parametrize("family", ["1,1,1;2,1", "1,x,1"])
def test_malformed_family_names_the_flag(capsys, family):
    code, out, err = run(capsys, "graph", "--y", "1,0,0,0,0,0,0",
                         "--family", family)
    assert code == 2 and out == ""
    assert err.startswith("error: --family") and "inhomogeneous" not in err


def test_malformed_family_in_a_config_file_names_the_flag(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": [[1, 1, 1], [2, 1]]}))
    code, _, err = run(capsys, "scan", "--config", str(cfg), "--samples", "5")
    assert code == 2 and err.startswith("error: --family")


def test_negative_seed_names_the_flag(capsys, tmp_path):
    code, out, err = run(capsys, "verify-s7", "--seed", "-1")
    assert (code, out, err) == (2, "", "error: --seed must be non-negative\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -3}))
    code, out, err = run(capsys, "scan", "--config", str(cfg))
    assert (code, out, err) == (2, "", "error: --seed must be non-negative\n")


@pytest.mark.parametrize("key, value, kind", [
    ("samples", 150.9, "an integer"), ("seed", 2.5, "an integer"),
    ("steps", 2.5, "an integer"), ("steps", float("inf"), "an integer"),
    ("samples", True, "an integer"), ("seed", False, "an integer"),
    ("steps", True, "an integer"),
    ("samples", "many", "an integer"), ("seed", "7", "an integer"),
    ("steps", [200], "an integer"), ("t_max", "6.28", "a number"),
    ("t_max", True, "a number"), ("tol", "1e-3", "a number"),
    ("tol", {"v": 1}, "a number")])
def test_bad_config_value_names_the_key(capsys, monkeypatch, tmp_path, key,
                                         value, kind):
    import finslergo.cli as cli
    monkeypatch.setattr(cli, "build_s7_space", None)  # never reached
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    command = "orbit" if key in ("steps", "t_max") else "verify-s7"
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"error: {key} must be {kind}, not {value!r}\n"


@pytest.mark.parametrize("command, key, value", [
    ("validate-l", "out", 1), ("graph", "out", 2.5), ("scan", "out", False),
    ("graph", "space", 0), ("orbit", "space", ["s7"]),
    ("scan", "space", None)])
def test_a_config_path_that_is_not_a_string_names_the_key(
        capfd, monkeypatch, tmp_path, command, key, value):
    # open() would take an integer as a file descriptor: {"out": 1} wrote to
    # and closed stdout, {"space": 0} read the space document from stdin
    import finslergo.cli as cli
    monkeypatch.setattr(cli, "build_s7_space", None)  # never reached
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert main([command, "--config", str(cfg)]) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert err == f"error: {key} must be a path string, not {value!r}\n"


def test_whole_float_config_values_are_integers(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 20.0, "seed": 3.0}))
    code, out, _ = run(capsys, "scan", "--config", str(cfg), "--format",
                       "json")
    assert code == 0 and json.loads(out)["n_samples"] == 20


@pytest.mark.parametrize("doc", [[1, 2], "scan", 3, None])
def test_config_that_is_not_an_object_names_the_flag(capsys, tmp_path, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify-s7", "--config", str(cfg))
    assert code == 2 and out == "" and err.startswith("error: --config ")


@pytest.mark.parametrize("t_max", ["nan", "inf", "-inf"])
def test_non_finite_t_max_is_rejected_before_the_solve(capsys, monkeypatch,
                                                       t_max):
    import finslergo.cli as cli
    monkeypatch.setattr(cli, "solve_geodesic_graph", None)  # never reached
    code, out, err = run(capsys, "orbit", "--y", "1,0,0,0,0,0,0",
                         f"--t-max={t_max}")
    assert code == 2 and out == ""
    assert err == "error: --t-max must be finite\n"


@pytest.mark.parametrize("flags, flag", [
    (["--y", "1,a,0,0,0,0,0"], "--y"), (["--tol", "nan"], "--tol")])
def test_malformed_numbers_name_the_flag(capsys, flags, flag):
    code, _, err = run(capsys, "graph", "--y", "1,0,0,0,0,0,0", *flags)
    assert code == 2 and err.startswith(f"error: {flag} ")


@pytest.mark.parametrize("spec, detail", [
    ("sq_sum:1,x", "could not convert string to float: 'x'"),
    ("sq_sum:1e400,1", "weights must be finite and positive"),
    ("nope:1", "unknown combiner kind 'nope'"), (3, "expected 'kind:")])
def test_bad_combiner_spec_names_the_flag(capsys, tmp_path, spec, detail):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"l": spec}))
    runs = [run(capsys, "graph", "--y", "1,0,0,0,0,0,0", "--config",
                str(cfg))]
    if isinstance(spec, str):
        runs.append(run(capsys, "graph", "--y", "1,0,0,0,0,0,0", "--l", spec))
    for code, out, err in runs:
        assert (code, out) == (2, "")
        assert err.startswith(f"error: --l {spec!r}: ") and detail in err


_Y = "0.3,-0.9,0.4,1.1,0.6,-0.2,0.8"


# every (command, flag) pair the parser accepts, but --out, --space and
# --config, which have tests of their own
_FLAG_CASES = [
    ("graph", "y", _Y, []),
    ("graph", "l", "sq_sum:1,3", ["--y", _Y]),
    ("graph", "family", "1,1,1;2,1,4", ["--y", _Y, "--l", "sq_sum:1,3"]),
    ("graph", "format", "csv", ["--y", _Y]),
    ("graph", "tol", 1e-20, ["--y", _Y]),
    ("scan", "samples", 30, []),
    ("scan", "seed", 5, ["--samples", "30"]),
    ("orbit", "t_max", 1.5, ["--y", _Y, "--steps", "5"]),
    ("orbit", "steps", 7, ["--y", _Y]),
    ("validate-l", "l", "sq_sum:1,2", ["--samples", "50"]),
    ("validate-l", "samples", 50, []),
    ("validate-l", "seed", 3, ["--samples", "50"]),
    ("validate-l", "format", "json", ["--samples", "50"]),
    ("scan", "l", "sq_sum:1,3", ["--samples", "30"]),
    ("scan", "family", "1,1,1;2,1,4", ["--samples", "30", "--l", "sq_sum:1,3"]),
    ("scan", "tol", 1e-20, ["--samples", "30"]),
    ("scan", "format", "json", ["--samples", "30"]),
    ("verify-s7", "samples", 30, []),
    ("verify-s7", "seed", 5, ["--samples", "30"]),
    ("verify-s7", "tol", 1e-15, ["--samples", "30"]),
    ("orbit", "l", "sq_sum:1,3",
     ["--y", _Y, "--steps", "5", "--family", "1,1,1;2,1,4"]),
    ("orbit", "family", "1,1,1;2,1,4",
     ["--y", _Y, "--steps", "5", "--l", "sq_sum:1,3"]),
    ("orbit", "tol", 1e-20, ["--y", _Y, "--steps", "5"]),
    ("orbit", "format", "json", ["--y", _Y, "--steps", "5"]),
    ("orbit", "y", _Y, ["--steps", "5"])]


@pytest.mark.parametrize("command, key, value, base", _FLAG_CASES)
def test_config_key_gives_the_output_of_its_flag(capsys, tmp_path, command,
                                                 key, value, base):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    flag = "--" + key.replace("_", "-")
    by_flag = run(capsys, command, *base, flag, str(value))
    assert by_flag[0] in (0, 1) and by_flag[1] and not by_flag[2]
    assert run(capsys, command, *base, "--config", str(cfg)) == by_flag
    assert run(capsys, command, *base) != by_flag  # the key takes effect


@pytest.mark.parametrize("fmt", ["xml", 3, ["json"]])
def test_config_format_outside_the_choices_names_the_flag(capsys, tmp_path,
                                                          fmt):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": fmt}))
    code, out, err = run(capsys, "graph", "--config", str(cfg), "--y", _Y)
    assert (code, out) == (2, "")
    assert err == f"error: --format must be 'json' or 'csv', not {fmt!r}\n"


def test_help_lists_exactly_the_flags_a_command_reads(capsys):
    # the flags of _FLAG_CASES, --out and --config everywhere, and --space
    # where a space is built
    for command in ("validate-l", "graph", "scan", "verify-s7", "orbit"):
        expect = {"--out", "--config"} | {
            "--" + key.replace("_", "-") for cmd, key, *_ in _FLAG_CASES
            if cmd == command}
        if command in ("graph", "scan", "orbit"):
            expect.add("--space")
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        assert set(re.findall(r"--[a-z][a-z-]*", out)) - {"--help"} == expect


@pytest.mark.parametrize("command, flag", [
    ("validate-l", "--space"), ("validate-l", "--family"),
    ("validate-l", "--tol"), ("graph", "--samples"), ("graph", "--seed"),
    ("verify-s7", "--space"), ("verify-s7", "--l"), ("verify-s7", "--family"),
    ("verify-s7", "--format"), ("orbit", "--samples"), ("orbit", "--seed"),
    ("scan", "--colour")])
def test_a_flag_or_key_the_command_does_not_read_exits_2(capsys, tmp_path,
                                                         command, flag):
    code, out, err = run(capsys, command, flag, "nope:1")
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {flag} nope:1" in err
    key = flag[2:]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 1}))
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"error: --config key {key!r} is not a flag of {command}\n"


@pytest.mark.parametrize("flag, text, detail", [
    ("--space", "{}", "'algebra'"),
    ("--space", "[1, 2]", "list indices must be integers or slices, not str"),
    ("--space", "x", "Expecting value: line 1 column 1 (char 0)"),
    ("--config", "x", "Expecting value: line 1 column 1 (char 0)")])
def test_a_bad_json_file_names_its_flag_and_path(capsys, tmp_path, flag, text,
                                                 detail):
    path = tmp_path / "f.json"
    path.write_text(text)
    code, out, err = run(capsys, "graph", "--y", _Y, flag, str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {flag} {str(path)!r}: {detail}\n"
    code, _, err = run(capsys, "graph", "--y", _Y, flag, str(tmp_path))
    assert code == 3 and err.startswith("i/o error: ")

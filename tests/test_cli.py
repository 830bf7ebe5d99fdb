import json
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    import tomli as tomllib

import holotree
from holotree import ConditioningWarning
from holotree.cli import main

THETA_TEXT = """\
vertex u
vertex v
edge a u v phase 0.0 resistance 1
edge b u v phase 2.0943951023931953 resistance 1
edge c u v phase 4.1887902047863905 resistance 1
"""

TWOLOOP_TEXT = """\
vertex v
edge b1 v v phase 1.5707963267948966 resistance 1
edge b2 v v phase 3.141592653589793 resistance 2
"""


@pytest.fixture
def theta_file(tmp_path):
    p = tmp_path / "theta.graph"
    p.write_text(THETA_TEXT)
    return str(p)


@pytest.fixture
def twoloop_file(tmp_path):
    p = tmp_path / "twoloop.graph"
    p.write_text(TWOLOOP_TEXT)
    return str(p)


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_validate_reports_homology(theta_file, capsys):
    rc, out, err = run_cli(capsys, ["validate", theta_file])
    assert rc == 0 and err == ""
    rep = json.loads(out)
    assert rep["command"] == "validate"
    assert rep["vertices"] == 2 and rep["edges"] == 3
    assert rep["connected"] is True
    assert rep["h0_trivial"] is True
    assert rep["boundary_rank"] == 2
    assert rep["dim_h0"] == 0 and rep["dim_h1"] == 1


def test_output_is_byte_stable(theta_file, capsys):
    _, out1, _ = run_cli(capsys, ["matrix-tree", theta_file])
    _, out2, _ = run_cli(capsys, ["matrix-tree", theta_file])
    assert out1 == out2
    _, out3, _ = run_cli(capsys, ["gauge-check", theta_file, "--seed", "3", "--gauges", "4"])
    _, out4, _ = run_cli(capsys, ["gauge-check", theta_file, "--seed", "3", "--gauges", "4"])
    assert out3 == out4


def test_matrix_tree_passes(theta_file, capsys):
    rc, out, _ = run_cli(capsys, ["matrix-tree", theta_file])
    assert rc == 0
    rep = json.loads(out)
    assert rep["det_laplacian"] == pytest.approx(9.0)
    assert rep["sum_weights"] == pytest.approx(9.0)
    assert rep["forest_count"] == 3
    assert rep["degenerate"] is False
    assert rep["passed"] is True


def test_matrix_tree_zero_tolerance_fails(theta_file, capsys):
    rc, out, _ = run_cli(capsys, ["matrix-tree", theta_file, "--tol", "0"])
    assert rc == 1
    assert json.loads(out)["passed"] is False


def test_matrix_tree_empty_census_compares_det_to_zero(theta_file, capsys):
    with pytest.warns(ConditioningWarning):
        rc, out, _ = run_cli(capsys, ["matrix-tree", theta_file, "--eps-hol", "2.0"])
    assert rc == 1
    rep = json.loads(out)
    assert rep["degenerate"] is True
    assert rep["forest_count"] == 0
    assert rep["relative_error"] is None


def test_forests_census(theta_file, capsys):
    rc, out, _ = run_cli(capsys, ["forests", theta_file])
    assert rc == 0
    rep = json.loads(out)
    assert rep["forest_count"] == 3
    assert rep["delta"] == pytest.approx(9.0)
    rows = rep["forests"]
    assert [r["edges"] for r in rows] == [["a", "b"], ["a", "c"], ["b", "c"]]
    for r in rows:
        assert r["rho_hat"] == pytest.approx(3.0)
        assert r["weight"] == pytest.approx(3.0)
        (circ,) = r["circuits"]
        assert isinstance(circ["walk"], list) and len(circ["walk"]) == 2
        assert set(circ["holonomy"]) == {"re", "im"}


def test_project_passes(twoloop_file, capsys):
    rc, out, _ = run_cli(capsys, ["project", twoloop_file])
    assert rc == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    for key in ("max_entry_discrepancy", "idempotency_defect",
                "self_adjointness_defect", "boundary_defect", "kernel_fix_defect"):
        assert rep[key] <= 1e-12


def test_solve_currents(twoloop_file, capsys):
    rc, out, _ = run_cli(capsys, ["solve", twoloop_file, "--voltage", "b1=1"])
    assert rc == 0
    rep = json.loads(out)
    by_edge = {row["edge"]: complex(row["re"], row["im"]) for row in rep["currents"]}
    assert by_edge["b1"] == pytest.approx(0.5)
    assert by_edge["b2"] == pytest.approx(-0.25 + 0.25j)
    assert rep["route_discrepancy"] <= 1e-12
    assert rep["residual_orthogonality"] <= 1e-12
    assert rep["passed"] is True


def test_solve_requires_voltage(twoloop_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", twoloop_file])
    assert exc.value.code == 2


def test_solve_rejects_bad_chain_literal(twoloop_file, capsys):
    rc, out, err = run_cli(capsys, ["solve", twoloop_file, "--voltage", "b1=oops"])
    assert rc == 2 and out == ""
    diag = json.loads(err)["error"]
    assert diag["type"] == "GraphSyntaxError"


def test_missing_file_is_input_error(capsys):
    rc, out, err = run_cli(capsys, ["validate", "/nonexistent/g.graph"])
    assert rc == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "FileNotFoundError"


def test_syntax_error_reports_location(tmp_path, capsys):
    p = tmp_path / "broken.graph"
    p.write_text("vertex u\nedge a u u phase oops resistance 1\n")
    rc, out, err = run_cli(capsys, ["validate", str(p)])
    assert rc == 2
    diag = json.loads(err)["error"]
    assert diag["type"] == "GraphSyntaxError"
    assert diag["line"] == 2
    assert diag["column"] == 18


def test_lowtemp_accepts_explicit_tree_and_weights(twoloop_file, capsys):
    rc, out, _ = run_cli(capsys, [
        "lowtemp", twoloop_file, "--tree", "b2", "--w", "b1=4,b2=1", "--beta", "1,5,40",
    ])
    assert rc == 0
    rep = json.loads(out)
    assert rep["tree"] == ["b2"]
    assert rep["weight_exponents"] == {"b1": 4.0, "b2": 1.0}
    assert len(rep["ratios"]) == 3
    assert rep["monotone"] is True
    assert rep["passed"] is True


def test_lowtemp_rejects_inadmissible_weights(theta_file, capsys):
    rc, out, err = run_cli(capsys, [
        "lowtemp", theta_file, "--tree", "a,b", "--w", "a=5,b=1,c=2",
    ])
    assert rc == 2
    assert json.loads(err)["error"]["type"] == "InvalidWError"


def test_lowtemp_rejects_unknown_weight_edge(theta_file, capsys):
    rc, out, err = run_cli(capsys, [
        "lowtemp", theta_file, "--tree", "a,b", "--w", "a=1,zz=3,b=1,c=9",
    ])
    assert rc == 2 and out == ""
    diag = json.loads(err)["error"]
    assert diag["type"] == "UnknownEdgeError" and "'zz'" in diag["message"]


@pytest.mark.parametrize("beta", [",", "1,nan", "1,inf"])
def test_lowtemp_rejects_empty_or_nonfinite_beta(twoloop_file, capsys, beta):
    rc, out, err = run_cli(capsys, ["lowtemp", twoloop_file, "--beta", beta])
    assert rc == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "ValueError"


@pytest.mark.parametrize(
    "argv",
    [["forests"], ["matrix-tree"], ["project"], ["solve", "--voltage", "a=1"], ["gauge-check"]],
    ids=["forests", "matrix-tree", "project", "solve", "gauge-check"],
)
def test_numerical_failure_exits_3(tmp_path, capsys, argv):
    # weights 3e-400 underflow to 0: no verdict may read the zero forest total
    p = tmp_path / "theta_huge_r.graph"
    p.write_text(THETA_TEXT.replace("resistance 1\n", "resistance 1e+200\n"))
    rc, out, err = run_cli(capsys, [argv[0], str(p), *argv[1:]])
    assert rc == 3 and out == ""
    assert json.loads(err)["error"]["type"] == "FloatingPointError"


def test_singular_tree_system_exits_3(theta_file, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise holotree.SingularTreeSystemError("restricted boundary is singular")

    monkeypatch.setattr(holotree.cli, "kirchhoff_projection", fail)
    rc, out, err = run_cli(capsys, ["project", theta_file])
    assert rc == 3 and out == ""
    assert json.loads(err)["error"]["type"] == "SingularTreeSystemError"


def test_project_self_adjointness_is_relative_to_the_resistances(tmp_path, capsys):
    # R P grows with R: at r = 1e+60 an absolute defect would read about 1e+44
    p = tmp_path / "theta_big_r.graph"
    p.write_text(THETA_TEXT.replace("resistance 1\n", "resistance 1e+60\n"))
    rc, out, _ = run_cli(capsys, ["project", str(p)])
    rep = json.loads(out)
    assert rc == 0 and rep["passed"] is True
    assert rep["self_adjointness_defect"] <= 1e-15


NEAR_TRIVIAL_TEXT = THETA_TEXT.replace("phase 2.0943951023931953", "phase 1e-12")


def test_warnings_are_json_lines_without_source_paths(tmp_path):
    p = tmp_path / "near_trivial.graph"
    p.write_text(NEAR_TRIVIAL_TEXT)
    src = str(Path(holotree.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "holotree", "matrix-tree", str(p)],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["forest_count"] == 2
    assert '"ConditioningWarning"' in proc.stderr and ".py:" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    warning = json.loads(lines[0])["warning"]
    assert warning["type"] == "ConditioningWarning"
    assert warning["message"].startswith("1 spanning unicyclic subgraph(s) excluded")


def test_warning_format_is_scoped_to_main(tmp_path, capsys):
    p = tmp_path / "near_trivial.graph"
    p.write_text(NEAR_TRIVIAL_TEXT)
    original = warnings.formatwarning
    with pytest.warns(ConditioningWarning):
        rc, _, _ = run_cli(capsys, ["forests", str(p)])
    assert rc == 0 and warnings.formatwarning is original
    rc, _, _ = run_cli(capsys, ["forests", str(tmp_path / "missing.graph")])
    assert rc == 2 and warnings.formatwarning is original


@pytest.mark.parametrize(
    "argv",
    [["matrix-tree", "--tol", "nan"], ["matrix-tree", "--tol", "-1"], ["project", "--tol", "inf"],
     ["matrix-tree", "--eps-hol", "nan"], ["validate", "--eps-hol", "nan"],
     ["forests", "--eps-hol", "inf"], ["gauge-check", "--eps-hol", "-0.001"]],
    ids=["tol-nan", "tol-negative", "tol-inf", "eps-hol-nan", "validate-eps-hol-nan",
         "eps-hol-inf", "eps-hol-negative"],
)
def test_thresholds_must_be_finite_and_nonnegative(theta_file, capsys, argv):
    rc, out, err = run_cli(capsys, [argv[0], theta_file, *argv[1:]])
    assert rc == 2 and out == "" and err.count("\n") == 1
    diag = json.loads(err)["error"]
    assert diag["type"] == "ValueError" and diag["message"].startswith(argv[1])


def test_solve_rejects_an_overflowing_voltage(theta_file, capsys):
    rc, out, err = run_cli(capsys, ["solve", theta_file, "--voltage", "a=1e999"])
    assert rc == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "GraphSyntaxError"


def test_lowtemp_rejects_an_infinite_weight_exponent(theta_file, capsys):
    rc, out, err = run_cli(capsys, ["lowtemp", theta_file, "--w", "a=1,b=1,c=1e999"])
    assert rc == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "InvalidWError"


TRIVIAL_THETA_TEXT = """\
vertex u
vertex v
edge a u v phase 0 resistance 1
edge b u v phase 0 resistance 1
edge c u v phase 0 resistance 1
"""

DISCONNECTED_TEXT = """\
vertex u
vertex v
vertex w
edge a u v phase 0 resistance 1
edge b u v phase 1 resistance 2
edge c w w phase 0 resistance 1
"""


@pytest.mark.parametrize(
    "text,connected,dims",
    [(TRIVIAL_THETA_TEXT, True, (1, 2)), (DISCONNECTED_TEXT, False, (1, 1))],
    ids=["theta-trivial", "disconnected"],
)
def test_validate_dims(tmp_path, capsys, text, connected, dims):
    p = tmp_path / "g.graph"
    p.write_text(text)
    rc, out, err = run_cli(capsys, ["validate", str(p)])
    assert rc == 0 and err == ""
    rep = json.loads(out)
    assert rep["connected"] is connected
    assert (rep["dim_h0"], rep["dim_h1"]) == dims
    assert list(rep)[-2:] == ["dim_h0", "dim_h1"]


@pytest.mark.parametrize("count", ["0", "-3"])
def test_gauge_check_rejects_count_below_one(theta_file, capsys, count):
    rc, out, err = run_cli(capsys, ["gauge-check", theta_file, "--gauges", count])
    assert rc == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "ValueError"


def test_gauge_check_reports_seed(theta_file, capsys):
    rc, out, _ = run_cli(capsys, ["gauge-check", theta_file, "--seed", "7", "--gauges", "5"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["seed"] == 7 and rep["gauges"] == 5
    assert rep["census_equal"] is True and rep["dims_equal"] is True
    assert rep["det_relative_error_max"] <= 1e-10
    assert rep["passed"] is True


def test_gauge_check_reports_a_nan_and_fails(theta_file, capsys, monkeypatch):
    # Python's max(x, nan) is x: the nan of the second gauge must not vanish
    calls = []
    check = holotree.cli.gauge_invariance_check

    def second_is_nan(*args, **kwargs):
        rep = check(*args, **kwargs)
        calls.append(rep)
        return replace(rep, det_relative_error=float("nan")) if len(calls) == 2 else rep

    monkeypatch.setattr(holotree.cli, "gauge_invariance_check", second_is_nan)
    rc, out, _ = run_cli(capsys, ["gauge-check", theta_file, "--gauges", "3"])
    assert rc == 1 and len(calls) == 3
    assert '"det_relative_error_max": "nan"' in out
    assert json.loads(out)["passed"] is False


def test_table_format(theta_file, capsys):
    rc, out, _ = run_cli(capsys, ["validate", theta_file, "--format", "table"])
    assert rc == 0
    assert "{" not in out
    assert "vertices" in out and "dim_h1" in out
    rc, out, _ = run_cli(capsys, ["forests", theta_file, "--format", "table"])
    assert rc == 0
    assert "rho_hat" in out


# The same launcher that pip writes for a console script.
SCRIPT_TEMPLATE = """\
import re
import sys
from {module} import {import_name}
if __name__ == "__main__":
    sys.argv[0] = re.sub(r"(-script\\.pyw|\\.exe)?$", "", sys.argv[0])
    sys.exit({func}())
"""


def declared_console_script(name):
    """The console-script entry point `name` from the repo's pyproject.toml."""
    pyproject = Path(holotree.__file__).resolve().parents[2] / "pyproject.toml"
    with pyproject.open("rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    return EntryPoint(name=name, value=scripts[name], group="console_scripts")


def test_module_and_script_entry_points(theta_file, tmp_path):
    # Run the children on the code this process imported, whatever the cwd.
    src = str(Path(holotree.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(cmd):
        return subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=tmp_path)

    proc = run([sys.executable, "-m", "holotree", "validate", theta_file])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "validate"

    ep = declared_console_script("holotree")
    assert callable(ep.load())
    script = tmp_path / "holotree"
    script.write_text(SCRIPT_TEMPLATE.format(
        module=ep.module, import_name=ep.attr.split(".")[0], func=ep.attr,
    ))
    launchers = [[sys.executable, str(script)]]
    installed = shutil.which("holotree")
    if installed is not None:
        launchers.append([installed])
    for launcher in launchers:
        proc = run(launcher + ["matrix-tree", theta_file])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["passed"] is True
        proc = run(launcher + ["matrix-tree", theta_file, "--tol", "0"])
        assert proc.returncode == 1, proc.stderr
        assert json.loads(proc.stdout)["passed"] is False

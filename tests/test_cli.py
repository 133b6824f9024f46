import json
import shutil
import subprocess
import sys

import mpmath
import numpy as np
import pytest

from bsq import __version__
from bsq.cli import main
from bsq.jsontext import dumps
from bsq.theta import bpu_matrix
from bsq.trigraph import DUMBBELL_GRAPH, generate_trivalent, graph_to_text, parse_graph_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_verlinde_document(capsys):
    doc = run_json(capsys, "verlinde", "--genus", "2", "--level", "2")
    assert doc["dim"] == 10
    assert doc["tool_version"] == __version__
    assert doc["subcommand"] == "verlinde"
    assert doc["parameters"] == {"genus": 2, "level": 2, "precision": 96}
    assert doc["error_bound"] < 1e-20
    assert doc["raw_sum"].startswith("10.0")


def test_output_is_byte_identical_across_runs(capsys):
    args = ("verlinde", "--genus", "3", "--level", "4")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_precision_env_override(capsys, monkeypatch):
    monkeypatch.setenv("BSQ_PRECISION", "192")
    doc = run_json(capsys, "verlinde", "--genus", "2", "--level", "3")
    assert doc["parameters"]["precision"] == 192
    assert doc["dim"] == 20


@pytest.mark.parametrize("value", ["abc", "32", "0"])
def test_precision_env_rejected(capsys, monkeypatch, value):
    monkeypatch.setenv("BSQ_PRECISION", value)
    code, out, err = run_cli(capsys, "verlinde", "--genus", "2", "--level", "1")
    assert code == 2
    assert out == ""
    assert "BSQ_PRECISION" in err


def test_verlinde_chooses_the_precision_its_certificate_needs(capsys):
    doc = run_json(capsys, "verlinde", "--genus", "10", "--level", "50")
    assert doc["parameters"] == {"genus": 10, "level": 50, "precision": 124}
    assert doc["dim"] == 95479563093686283347680341252594176
    assert doc["error_bound"] < 0.5


def test_verlinde_integrality_failure_is_a_domain_error(capsys, monkeypatch):
    monkeypatch.setenv("BSQ_PRECISION", "64")
    code, out, err = run_cli(capsys, "verlinde", "--genus", "50", "--level", "24")
    assert code == 1
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "IntegralityFailure"
    assert error["subcommand"] == "verlinde"


def test_graphs_document(capsys):
    doc = run_json(capsys, "graphs", "--genus", "2")
    assert doc["count"] == 2
    assert len(doc["graphs"]) == 2
    assert sorted(tuple(g["bridges"]) for g in doc["graphs"]) == [(), (1,)]
    for g in doc["graphs"]:
        parsed = parse_graph_text(g["text"])
        assert [list(e) for e in parsed.edges] == g["edges"]
        assert parsed.vertex_count == g["vertex_count"]


def test_graphs_rejects_low_genus(capsys):
    code, out, err = run_cli(capsys, "graphs", "--genus", "1")
    assert code == 2
    assert out == ""


def test_weights_builtin_graph(capsys):
    doc = run_json(capsys, "weights", "--graph", "theta2", "--level", "1")
    assert doc["count"] == 4
    assert doc["weights"] == [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert doc["level"] == 1


def test_weights_count_only(capsys):
    doc = run_json(capsys, "weights", "--graph", "dumbbell2", "--level", "3", "--count-only")
    assert doc["count"] == 20  # dim at genus 2, level 3
    assert "weights" not in doc


def test_weights_from_graph_file(capsys, tmp_path):
    path = tmp_path / "dumbbell.graph"
    path.write_text(graph_to_text(DUMBBELL_GRAPH))
    doc = run_json(capsys, "weights", "--graph", str(path), "--level", "1")
    assert doc["count"] == 4
    assert doc["weights"] == [[0, 0, 0], [0, 0, 1], [1, 0, 0], [1, 0, 1]]


def test_weights_unknown_graph_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "weights", "--graph", "nope", "--level", "1")
    assert code == 2
    assert out == ""
    assert "nope" in err


def test_weights_level_zero_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "weights", "--graph", "theta2", "--level", "0")
    assert code == 2
    assert out == ""


def test_theta_basis_document(capsys):
    doc = run_json(capsys, "theta-basis", "--level", "2")
    assert doc["parameters"]["tau"] == [0.0, 1.0]
    entries = doc["entries"]
    assert len(entries) == 2 and all(len(row) == 2 for row in entries)
    assert all(len(cell) == 2 for row in entries for cell in row)
    assert doc["smallest_singular_value"] > 1e-9
    assert doc["det_modulus"] > 0


def test_theta_basis_bad_tau_is_usage_error(capsys):
    for tau in ("0,-1", "garbage", "1,2,3"):
        code, out, err = run_cli(capsys, "theta-basis", "--level", "2", "--tau", tau)
        assert code == 2, tau
        assert out == ""


def test_theta_basis_truncation_failure_is_a_domain_error(capsys):
    code, out, err = run_cli(capsys, "theta-basis", "--level", "2", "--tau", "0,1e-18")
    assert code == 1
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "TruncationFailure"


def test_ucurve_zero_u_gives_the_fiber(capsys):
    doc = run_json(capsys, "ucurve", "--level", "4", "--u", "0")
    assert doc["count"] == 4
    assert [p["b"] for p in doc["points"]] == [0.0, 0.25, 0.5, 0.75]
    assert [p["b_exact"] for p in doc["points"]] == ["0", "1/4", "1/2", "3/4"]
    assert all(p["s"] == [0.0, 0.0] for p in doc["points"])
    assert [p["m"] for p in doc["points"]] == [0, 1, 2, 3]


def test_ucurve_csv_format(capsys):
    code, out, err = run_cli(
        capsys, "ucurve", "--level", "1", "--u", "1", "--grid", "8", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "b,re_s,im_s,m"
    assert len(lines) > 1
    rows = []
    for line in lines[1:]:
        b, re_s, im_s, m = line.split(",")
        rows.append((int(m), float(b), float(re_s), float(im_s)))
        assert float(im_s) == 0.0
    assert rows == sorted(rows)


def test_ucurve_json_points_satisfy_the_branch_equation(capsys):
    doc = run_json(
        capsys, "ucurve", "--level", "2", "--u", "1,0", "--grid", "50", "--tol", "1e-9"
    )
    for p in doc["points"]:
        s = complex(*p["s"])
        residual = abs(2 * p["b"] + (1 + 0j) * s - p["m"])
        assert residual < 1e-8


@pytest.mark.parametrize(
    "argv",
    [
        ("ucurve", "--level", "1", "--u", "1", "--grid", "1"),
        ("ucurve", "--level", "1", "--u", "1", "--tol", "0"),
        ("ucurve", "--level", "1", "--u", "1", "--s-min", "2", "--s-max", "-2"),
        ("ucurve", "--level", "1", "--u", "x"),
        ("ucurve", "--level", "0", "--u", "1"),
    ],
)
def test_ucurve_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""


def test_verify_jw_passes_at_closed_range(capsys):
    doc = run_json(capsys, "verify-jw", "--genus", "2", "--max-level", "2")
    assert doc["all_match"] is True
    assert len(doc["rows"]) == 4  # 2 graphs x 2 levels
    assert all(row["match"] for row in doc["rows"])


def test_verify_jw_negative_control_fails(capsys):
    code, out, err = run_cli(
        capsys, "verify-jw", "--genus", "2", "--max-level", "1", "--open-weight-range"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["all_match"] is False
    assert {(row["weight_count"], row["verlinde_dim"]) for row in doc["rows"]} == {(1, 4)}
    error = json.loads(err)
    assert error["error"] == "VerificationMismatch"


def test_verify_jw_rejects_other_genera(capsys):
    code, out, err = run_cli(capsys, "verify-jw", "--genus", "4", "--max-level", "1")
    assert code == 2
    assert out == ""


def test_output_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "doc.json"
    code, out, err = run_cli(
        capsys, "verlinde", "--genus", "2", "--level", "5", "--output", str(path)
    )
    assert code == 0
    assert out == ""
    code2, out2, _ = run_cli(capsys, "verlinde", "--genus", "2", "--level", "5")
    assert path.read_text() == out2


def test_usage_exit_codes_from_argparse(capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["verlinde"]) == 2  # missing required arguments
    assert main(["--version"]) == 0
    out = capsys.readouterr().out
    assert __version__ in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bsq", "verlinde", "--genus", "2", "--level", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dim"] == 20


def test_console_script():
    exe = shutil.which("bsq")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "graphs", "--genus", "3"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 5


def test_theta_basis_smallest_singular_value_beyond_the_double_range(capsys):
    code, out, err = run_cli(capsys, "theta-basis", "--level", "8", "--tau", "0.3,0.1", "--norm", "1e308")
    assert code == 0, err
    assert "Infinity" not in out
    doc = json.loads(out)
    nulls = bpu_matrix(8, tau=0.3 + 0.1j).nulls
    with mpmath.workprec(80):
        expected = mpmath.sqrt(8) * mpmath.mpf(1e308) * min(mpmath.mpf(abs(c)) for c in nulls.tolist())
        assert isinstance(doc["smallest_singular_value"], str)
        assert abs(mpmath.mpf(doc["smallest_singular_value"]) / expected - 1) < 1e-13


def test_theta_basis_det_modulus_stays_finite_for_a_huge_norm(capsys):
    code, out, err = run_cli(capsys, "theta-basis", "--level", "8", "--tau", "0.3,0.1", "--norm", "1.7e308")
    assert code == 0, err
    assert "Infinity" not in out
    doc = json.loads(out)
    log_det = bpu_matrix(8, tau=0.3 + 0.1j).log_abs_determinant()
    with mpmath.workprec(80):
        expected = mpmath.mpf(1.7e308) ** 8 * mpmath.exp(log_det)
        assert isinstance(doc["det_modulus"], str)
        assert abs(mpmath.mpf(doc["det_modulus"]) / expected - 1) < 1e-12


def test_theta_basis_entries_beyond_the_double_range_are_a_domain_error(capsys):
    code, out, err = run_cli(capsys, "theta-basis", "--level", "8", "--tau", "0.3,0.1", "--norm", "1.79e308")
    assert code == 1
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "ValueError"
    assert "beyond the double range" in error["message"]


@pytest.mark.parametrize("norm", ["inf", "nan", "0", "-1"])
def test_theta_basis_norm_must_be_positive_and_finite(capsys, norm):
    code, out, err = run_cli(capsys, "theta-basis", "--level", "2", "--norm", norm)
    assert code == 2
    assert out == ""
    assert "--norm" in err


def _genus3_graph_file(tmp_path):
    path = tmp_path / "g3.graph"
    path.write_text(graph_to_text(generate_trivalent(3)[0]))
    return str(path)


ROUND_TRIP = {
    **{
        f"theta k={k} tau={tau}": ("theta-basis", "--level", str(k), "--tau", tau)
        for k in (1, 8, 200)
        for tau in ("0,1", "0.3,0.1")
    },
    "ucurve": ("ucurve", "--level", "3", "--u", "0.7"),
    "ucurve complex u": ("ucurve", "--level", "4", "--u", "0.5,0.5", "--grid", "200"),
    "ucurve empty": ("ucurve", "--level", "1", "--u", "5", "--s-min", "0.1", "--s-max", "0.11", "--grid", "3"),
    "ucurve zero fiber": ("ucurve", "--level", "6", "--u", "0"),
    "weights theta2": ("weights", "--graph", "theta2", "--level", "4"),
    "weights genus 3": ("weights", "--graph", _genus3_graph_file, "--level", "3"),
    "weights count": ("weights", "--graph", "dumbbell2", "--level", "3", "--count-only"),
    "graphs": ("graphs", "--genus", "3"),
    "verify-jw": ("verify-jw", "--genus", "2", "--max-level", "3"),
    "verify-jw negative control": ("verify-jw", "--genus", "2", "--max-level", "1", "--open-weight-range"),
    "verlinde": ("verlinde", "--genus", "3", "--level", "100"),
}


@pytest.mark.parametrize("name", ROUND_TRIP)
def test_every_document_is_json_dumps_with_sorted_keys_and_indent_2(capsys, tmp_path, name):
    argv = [a(tmp_path) if callable(a) else a for a in ROUND_TRIP[name]]
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 1) and out, err
    assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out
    if name == "ucurve empty":
        assert json.loads(out)["points"] == []


EDGE_BODIES = [
    {"nan": float("nan"), "inf": float("inf"), "-inf": -float("inf"), "zero": -0.0, "tiny": 5e-324},
    {"flags": [True, False, None], "big": [10**40, -(10**25)], "empty": [[], {}, ""]},
    {"text": "é ☃ \U0001f600 \"quoted\" \\ \n %s %d", "keys": {"é": 1, "%r": 2, "a b": [0.1, 2]}},
    {"rows": [[1, 2, 3], [4, 5, 6], [7, 8], [True, 1, 2], [1.5, float("nan"), 2.0], [], [9, 10, 11]]},
    {"rows": [[0.1, -0.0], [1e308, 5e-324], [float("inf"), 1.0], [2.0, 3.0]]},
    {"rows": [[], [], [1]]},
    {"rows": [[True, 1], [False, 0]], "points": [{"ok": True, "m": 1}, {"ok": False, "m": 2}]},
    {"rows": [{"%d": 1, "é": [0.5], "k": "%s"}, {"%d": 2, "é": [1.5], "k": "\u00e9"}]},
    {"points": [
        {"b": 0.5, "b_exact": "1/2", "s": [0.25, -0.0], "m": 1},
        {"b": 0.75, "b_exact": "3/4", "s": [float("nan"), 0.0], "m": 2},
        {"b": 1.0, "b_exact": "é%", "s": [0.0, 0.0], "m": True},
        {"b": 1.0, "b_exact": "1", "s": [0.0], "m": 3},
        {"b": 1.0, "b_exact": "1", "s": [0.0, 0.0], "m": 3, "extra": []},
        {"b": 2.0, "b_exact": "2", "s": [1.0, 2.0], "m": 4},
    ]},
    {"nested": [{"a": [[1, 2], [3, 4]]}, {"a": {}}, [[[]]], {}, 1, "x", 2.5]},
    [],
    {},
    "plain",
    3.25,
]


@pytest.mark.parametrize("body", EDGE_BODIES)
def test_dumps_matches_json_on_edge_values(body):
    assert dumps(body) == json.dumps(body, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "matrix",
    [
        np.array([[1 + 2j, -0.0 - 0.0j], [5e-324 + 1e308j, 0.1 - 0.2j]]),
        np.array([[complex("nan+1j"), 1j], [complex("inf-1j"), -1.0 + 0j]]),
        np.array([[3 + 4j]]),
    ],
)
def test_dumps_writes_a_complex_matrix_as_rows_of_pairs(matrix):
    pairs = [[[z.real, z.imag] for z in row] for row in matrix.tolist()]
    assert dumps({"entries": matrix}) == json.dumps({"entries": pairs}, sort_keys=True, indent=2)

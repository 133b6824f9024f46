import enum
import errno
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest

import bsq.cli
import bsq.verlinde
import bsq.weights
from bsq import __version__
from bsq.cli import main
from bsq.jsontext import _BLOCK_ROWS, dump
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


def test_verlinde_chooses_the_precision_its_certificate_needs(capsys):
    doc = run_json(capsys, "verlinde", "--genus", "10", "--level", "50")
    assert doc["parameters"] == {"genus": 10, "level": 50, "precision": 124}
    assert doc["dim"] == 95479563093686283347680341252594176
    assert doc["error_bound"] < 0.5


def test_verlinde_integrality_failure_is_a_domain_error(capsys, monkeypatch):
    # 64 bits cannot certify this sum, so a default precision that chose them is a defect
    monkeypatch.setattr(bsq.verlinde, "working_precision", lambda g, k: 64)
    code, out, err = run_cli(capsys, "verlinde", "--genus", "50", "--level", "24")
    assert code == 1
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "IntegralityFailure"
    assert error["subcommand"] == "verlinde"
    assert "working_precision chose too few bits for g=50, k=24" in error["message"]


@pytest.mark.parametrize("genus, max_level", [(2, 12), (3, 10), (4, 6)])
def test_verify_jw_records_the_precision_of_its_top_level(capsys, genus, max_level):
    doc = run_json(capsys, "verify-jw", "--genus", str(genus), "--max-level", str(max_level))
    top = run_json(capsys, "verlinde", "--genus", str(genus), "--level", str(max_level))
    assert doc["parameters"]["precision"] == top["parameters"]["precision"]


def test_verify_jw_records_the_precision_its_top_level_ran_at(capsys, monkeypatch):
    # the precision is the one the top level's certificate reports, not chosen again
    monkeypatch.setattr(bsq.verlinde, "working_precision", lambda g, k: 100 + k)
    rows, ok, precision = bsq.cli.verify_jw(3, 6)
    assert ok and precision == 106
    doc = run_json(capsys, "verify-jw", "--genus", "3", "--max-level", "6")
    assert doc["parameters"]["precision"] == 106


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("v 2\ne 0 1\n", "not trivalent"),
        ("v x\n", "line 1: expected integers"),
        ("v 2\ne 0 1\ne 0 1.5\n", "line 3: expected integers"),
        ("v 2\ne 0 0\ne 0 1_0\ne 1 1\n", "line 3: expected integers"),
        ("v 2\ne 0 1 1\n", "line 2: cannot parse"),
        ("e 0 1\n", "line 1: edge before vertex count"),
        ("# nothing\n", "missing 'v <count>' line"),
        # rejected by the edge count before a degree list of that length is allocated
        ("v 100000000000000000000\ne 0 1\n", "not trivalent"),
    ],
)
def test_weights_malformed_graph_file_is_usage_error(capsys, tmp_path, text, message):
    path = tmp_path / "bad.graph"
    path.write_text(text)
    code, out, err = run_cli(capsys, "weights", "--graph", str(path), "--level", "2")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: ") and message in err


def test_weights_graph_name_too_long_for_a_path_is_usage_error(capsys):
    name = "a" * 5000  # beyond NAME_MAX, so even asking whether the file exists fails
    code, out, err = run_cli(capsys, "weights", "--graph", name, "--level", "1")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {name}: ")


def test_weights_unreadable_graph_file_is_usage_error(capsys, tmp_path, monkeypatch):
    path = tmp_path / "locked.graph"
    path.write_text(graph_to_text(DUMBBELL_GRAPH))

    def refuse(self, *args, **kwargs):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))

    # chmod cannot stop a superuser from reading, so the read itself is refused
    monkeypatch.setattr(type(path), "read_text", refuse)
    code, out, err = run_cli(capsys, "weights", "--graph", str(path), "--level", "1")
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: {os.strerror(errno.EACCES)}\n"


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


def test_theta_basis_nulls_lost_to_cancellation_are_a_domain_error(capsys):
    # the sums of four nulls cancel below one rounding; the document would carry
    # a smallest singular value 28 orders of magnitude too large
    code, out, err = run_cli(capsys, "theta-basis", "--level", "8", "--tau", "0.5,0.001")
    assert code == 1
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "CancellationFailure"
    assert "S_1" in error["message"] and "rounding bound" in error["message"]


def test_ucurve_zero_u_gives_the_fiber(capsys):
    doc = run_json(capsys, "ucurve", "--level", "4", "--u", "0")
    assert doc["count"] == 4
    assert [p["b"] for p in doc["points"]] == [0.0, 0.25, 0.5, 0.75]
    assert [p["b_exact"] for p in doc["points"]] == ["0", "1/4", "1/2", "3/4"]
    assert all(p["s"] == [0.0, 0.0] for p in doc["points"])
    assert [p["m"] for p in doc["points"]] == [0, 1, 2, 3]


class _Writes(io.StringIO):
    """A stdout that keeps the size, in lines, of each write."""

    def __init__(self):
        super().__init__()
        self.lines = []

    def write(self, text):
        self.lines.append(text.count("\n"))
        return super().write(text)


def test_ucurve_csv_writes_a_block_of_lines_at_a_time(monkeypatch):
    stdout = _Writes()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["ucurve", "--level", "4", "--u", "-1.3", "--grid", "5000", "--format", "csv"]) == 0
    text = stdout.getvalue()
    points = text.count("\n") - 1
    assert text.startswith("b,re_s,im_s,m\n") and points > 20 * _BLOCK_ROWS
    # the header, then one write per block of lines
    assert stdout.lines == [1] + [_BLOCK_ROWS] * (points // _BLOCK_ROWS) + [points % _BLOCK_ROWS] * bool(
        points % _BLOCK_ROWS
    )


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


@pytest.mark.parametrize(
    "argv",
    [
        ("ucurve", "--level", "3", "--u", "0.7", "--s-max", "inf"),
        ("ucurve", "--level", "3", "--u", "0.7", "--s-min=-inf"),
        ("ucurve", "--level", "3", "--u", "0.7", "--s-min", "nan"),
        ("ucurve", "--level", "3", "--u", "0.7", "--tol", "inf"),
        ("ucurve", "--level", "3", "--u", "nan"),
        ("ucurve", "--level", "3", "--u", "0.5,inf"),
        ("theta-basis", "--level", "3", "--tau", "nan,1"),
        ("theta-basis", "--level", "3", "--tau", "0,inf"),
        ("theta-basis", "--level", "3", "--eps", "inf"),
    ],
)
def test_non_finite_numbers_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "finite" in err


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
    # the rule of graphs: genus 1 has no trivalent graph
    code, out, err = run_cli(capsys, "verify-jw", "--genus", "1", "--max-level", "1")
    assert code == 2
    assert out == ""


def test_verify_jw_holds_on_every_genus_4_class():
    rows, ok, _ = bsq.cli.verify_jw(4, 2)
    assert ok is True
    assert len(rows) == 17 * 2
    assert {row["graph_index"] for row in rows} == set(range(17))


@pytest.mark.parametrize("open_range", [False, True])
@pytest.mark.parametrize("g, max_k", [(2, 10), (3, 7), (4, 5)])
def test_verify_jw_rows_equal_the_counts_of_each_level(g, max_k, open_range):
    # one plan per class, grown level by level, counts what count_admissible
    # counts at each level, with labels up to k and up to k - 1
    rows, _, _ = bsq.cli.verify_jw(g, max_k, open_range=open_range)
    graphs = generate_trivalent(g)
    assert [(row["graph_index"], row["level"]) for row in rows] == [
        (index, k) for index in range(len(graphs)) for k in range(1, max_k + 1)
    ]
    for row in rows:
        k = row["level"]
        max_numerator = k - 1 if open_range else k
        assert row["weight_count"] == bsq.weights.count_admissible(graphs[row["graph_index"]], k, max_numerator)


def test_verify_jw_orders_the_vertices_of_each_class_once(monkeypatch):
    # the vertex order and its canonical search do not depend on the level
    searches = []
    least_key = bsq.weights._least_key

    def counted(*args):
        searches.append(args)
        return least_key(*args)

    monkeypatch.setattr(bsq.weights, "_least_key", counted)
    rows, ok, _ = bsq.cli.verify_jw(3, 8)
    assert ok is True
    assert len(rows) == 5 * 8
    assert len(searches) == 5


# sha256 of the stdout of `bsq verify-jw --open-weight-range` on these flags,
# taken when its tables still grew level by level under a moving label cap
PINNED_OPEN_RANGE = {
    ("--genus", "2", "--max-level", "12"): "7dd8a07611ad33cec57a455f8c162ac9d39711782b6667d6bb5e4e2f9dd5b34e",
    ("--genus", "3", "--max-level", "8"): "00d55a10d88bb3b1479d6977536a1f3a59e07319a3082500017791a45a7a8536",
    ("--genus", "4", "--max-level", "5"): "8be243a413cfd6d5841fe467d8753c9a90aa088faed27c22fdfd702dffb23441",
}


@pytest.mark.parametrize("flags", PINNED_OPEN_RANGE, ids=" ".join)
def test_open_range_documents_are_pinned_bit_for_bit(capsys, flags):
    code, out, err = run_cli(capsys, "verify-jw", *flags, "--open-weight-range")
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_OPEN_RANGE[flags]
    assert json.loads(err)["error"] == "VerificationMismatch"


# every usage check, with its exact text; where a command line fails several,
# the check that runs first
USAGE_ERRORS = {
    "verlinde level": (("verlinde", "--genus", "0", "--level", "0"), "--level must be >= 1, got 0"),
    "verlinde genus": (("verlinde", "--genus", "0", "--level", "3"), "--genus must be >= 1, got 0"),
    "graphs genus": (("graphs", "--genus", "1"), "--genus must be >= 2 for graph generation, got 1"),
    "weights level": (("weights", "--graph", "nope", "--level", "0"), "--level must be >= 1, got 0"),
    "weights unknown graph": (("weights", "--graph", "nope", "--level", "1"),
                              "graph 'nope' is neither a readable file nor one of ['dumbbell2', 'theta2']"),
    "weights malformed graph": (("weights", "--graph", "{tmp}/bad.graph", "--level", "1"),
                                "{tmp}/bad.graph: not trivalent: 1 edges on 2 vertices, need 2|E| = 3|V|"),
    "theta level": (("theta-basis", "--level", "0", "--tau", "garbage"), "--level must be >= 1, got 0"),
    "theta tau": (("theta-basis", "--level", "2", "--tau", "garbage", "--eps", "0"),
                  "--tau must look like 'RE,IM' or 'RE' with finite parts, got 'garbage'"),
    "theta tau half-plane": (("theta-basis", "--level", "2", "--tau", "0,-1", "--eps", "0"),
                             "--tau must have positive imaginary part, got 0,-1"),
    "theta eps": (("theta-basis", "--level", "2", "--eps", "0", "--norm", "0"),
                  "--eps must be positive and finite, got 0.0"),
    "theta norm": (("theta-basis", "--level", "2", "--norm", "-1"), "--norm must be positive and finite, got -1.0"),
    "ucurve level": (("ucurve", "--level", "0", "--u", "x"), "--level must be >= 1, got 0"),
    "ucurve u": (("ucurve", "--level", "1", "--u", "x", "--s-max", "inf"),
                 "--u must look like 'RE,IM' or 'RE' with finite parts, got 'x'"),
    "ucurve window finite": (("ucurve", "--level", "1", "--u", "1", "--s-max", "inf", "--grid", "1"),
                             "--s-min and --s-max must be finite, got -2.0, inf"),
    "ucurve window order": (("ucurve", "--level", "1", "--u", "1", "--s-min", "2", "--s-max", "-2", "--grid", "1"),
                            "--s-min must be below --s-max, got 2.0, -2.0"),
    "ucurve grid": (("ucurve", "--level", "1", "--u", "1", "--grid", "1", "--tol", "0"),
                    "--grid must be >= 2, got 1"),
    "ucurve tol": (("ucurve", "--level", "1", "--u", "1", "--tol", "inf"), "--tol must be positive and finite, got inf"),
    "verify-jw genus": (("verify-jw", "--genus", "1", "--max-level", "0"),
                        "--genus must be >= 2 for graph generation, got 1"),
    "verify-jw max level": (("verify-jw", "--genus", "2", "--max-level", "0"), "--max-level must be >= 1, got 0"),
    "output": (("verlinde", "--genus", "2", "--level", "1", "--output", "{tmp}/missing/x.json"),
               f"{{tmp}}/missing/x.json: {os.strerror(errno.ENOENT)}"),
}


@pytest.mark.parametrize("name", USAGE_ERRORS)
def test_usage_error_text(capsys, tmp_path, name):
    argv, message = USAGE_ERRORS[name]
    (tmp_path / "bad.graph").write_text("v 2\ne 0 1\n")
    code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert (code, out, err) == (2, "", f"error: {message.format(tmp=tmp_path)}\n")


# every integer flag, each in a command line whose other flags are valid
INTEGER_FLAGS = {
    "verlinde --genus": ("verlinde", "--genus", "{}", "--level", "3"),
    "verlinde --level": ("verlinde", "--genus", "2", "--level", "{}"),
    "graphs --genus": ("graphs", "--genus", "{}"),
    "weights --level": ("weights", "--graph", "theta2", "--level", "{}"),
    "theta-basis --level": ("theta-basis", "--level", "{}"),
    "ucurve --level": ("ucurve", "--level", "{}", "--u", "0.7"),
    "ucurve --grid": ("ucurve", "--level", "3", "--u", "0.7", "--grid", "{}"),
    "verify-jw --genus": ("verify-jw", "--genus", "{}", "--max-level", "2"),
    "verify-jw --max-level": ("verify-jw", "--genus", "2", "--max-level", "{}"),
}


@pytest.mark.parametrize("text", ["1_0", "\u0663", "+3", " 3", "3 ", "", "-", "3.0", "\u00b3"])
@pytest.mark.parametrize("name", INTEGER_FLAGS)
def test_integer_flags_take_an_optional_minus_and_ascii_digits_only(capsys, name, text):
    # int() would read '1_0' as 10, the Arabic-Indic three as 3, and take '+' and
    # spaces; the command line is only parsed, so a value let through does not run
    with pytest.raises(SystemExit) as exit_:
        bsq.cli._build_parser().parse_args([a.format(text) for a in INTEGER_FLAGS[name]])
    captured = capsys.readouterr()
    assert (exit_.value.code, captured.out) == (2, "")
    assert captured.err.endswith(f"error: argument {name.split()[1]}: invalid int value: {text!r}\n"), captured.err


@pytest.mark.parametrize("name", INTEGER_FLAGS)
def test_a_negative_integer_flag_reaches_its_range_check(capsys, name):
    code, out, err = run_cli(capsys, *(a.format("-1") for a in INTEGER_FLAGS[name]))
    flag = name.split()[1]
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {flag} must be >= ") and err.endswith(", got -1\n"), err


def test_integer_flags_read_leading_zeros_as_decimals(capsys):
    _, padded, _ = run_cli(capsys, "verlinde", "--genus", "02", "--level", "010")
    _, plain, _ = run_cli(capsys, "verlinde", "--genus", "2", "--level", "10")
    assert padded == plain and json.loads(plain)["parameters"]["level"] == 10


@pytest.mark.parametrize("eps", ["1e-320", "5e-324"])
def test_theta_basis_takes_a_subnormal_eps(capsys, eps):
    doc = run_json(capsys, "theta-basis", "--level", "3", "--eps", eps)
    assert doc["parameters"]["eps"] == float(eps)
    assert len(doc["entries"]) == 3


@pytest.mark.parametrize("u", ["1e-300", "1e160", "1e-160,1e-160"])
def test_ucurve_u_whose_squared_modulus_is_not_a_normal_double_is_a_domain_error(capsys, u):
    code, out, err = run_cli(capsys, "ucurve", "--level", "3", "--u", u)
    assert code == 1
    assert out == ""
    error = json.loads(err)
    assert (error["error"], error["subcommand"]) == ("ValueError", "ucurve")
    assert "normal double range" in error["message"]


def test_output_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "doc.json"
    code, out, err = run_cli(
        capsys, "verlinde", "--genus", "2", "--level", "5", "--output", str(path)
    )
    assert code == 0
    assert out == ""
    code2, out2, _ = run_cli(capsys, "verlinde", "--genus", "2", "--level", "5")
    assert path.read_text() == out2


@pytest.mark.parametrize(
    "target, reason",
    [(os.path.join("missing-dir", "x.json"), errno.ENOENT), (".", errno.EISDIR)],
)
def test_unopenable_output_is_usage_error(capsys, tmp_path, target, reason):
    path = tmp_path / target
    before = sorted(tmp_path.rglob("*"))
    code, out, err = run_cli(capsys, "verlinde", "--genus", "2", "--level", "2", "--output", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {path}: {os.strerror(reason)}\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_a_failed_write_to_output_is_a_usage_error(capsys):
    # /dev/full opens, then fails every write with ENOSPC
    code, out, err = run_cli(capsys, "verlinde", "--genus", "2", "--level", "2", "--output", "/dev/full")
    assert (code, out, err) == (2, "", f"error: /dev/full: {os.strerror(errno.ENOSPC)}\n")


def test_a_stdout_closed_early_is_a_usage_error_without_a_traceback():
    # the document, about 370 KB, outgrows the pipe's buffer, so a write meets the closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "bsq", "ucurve", "--level", "3", "--u", "0.7"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(10) == b'{\n  "count'
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 2
    assert err == f"error: stdout: {os.strerror(errno.EPIPE)}\n"


def test_running_out_of_memory_on_valid_parameters_is_a_domain_error(capsys, monkeypatch):
    class ArrayMemoryError(MemoryError):  # numpy raises its own subclass
        pass

    message = "Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000) and data type int64"

    def bpu_matrix(*args, **kwargs):
        raise ArrayMemoryError(message)

    monkeypatch.setattr(bsq.cli, "bpu_matrix", bpu_matrix)
    code, out, err = run_cli(capsys, "theta-basis", "--level", "1000000")
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "MemoryError", "message": message, "subcommand": "theta-basis", "tool_version": __version__,
    }


@pytest.mark.parametrize(
    "argv",
    [
        ("theta-basis", "--level", "2", "--tau", "0,1e-18"),
        ("theta-basis", "--level", "8", "--tau", "0.3,0.1", "--norm", "1.79e308"),
        ("verify-jw", "--genus", "2", "--max-level", "1", "--open-weight-range"),
    ],
)
def test_output_file_only_for_a_document(capsys, tmp_path, argv):
    path = tmp_path / "doc.json"
    code, out, err = run_cli(capsys, *argv, "--output", str(path))
    assert code == 1
    assert out == ""
    # a domain error writes no file; a verification mismatch still writes its document
    assert path.exists() == (json.loads(err)["error"] == "VerificationMismatch")


def test_writing_a_theta_document_holds_about_one_row(tmp_path):
    entries = bpu_matrix(300, tau=0.1 + 0.7j).entries
    path = tmp_path / "doc.json"
    tracemalloc.start()
    try:
        with open(path, "w") as fh:
            dump({"entries": entries, "level": 300}, fh.write)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 2 * entries.nbytes
    assert peak < entries.nbytes / 4


def test_usage_exit_codes_from_argparse(capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["verlinde"]) == 2  # missing required arguments
    assert main(["--version"]) == 0
    out = capsys.readouterr().out
    assert __version__ in out


def test_one_process_answers_each_call_as_a_fresh_one(capsys):
    # the parser is built once per process; calls after a usage error, --version
    # and a domain error must not see anything an earlier call left behind
    sequence = [
        ["verlinde"],
        ["--version"],
        ["theta-basis", "--level", "8", "--tau", "0.3,0.1", "--norm", "1.79e308"],
        ["ucurve", "--level", "3", "--u", "0.7", "--grid", "20"],
        ["ucurve", "--level", "3", "--u", "0.7", "--grid", "1"],
        ["verlinde"],
        ["ucurve", "--level", "3", "--u", "0.7", "--grid", "20"],
    ]
    for argv in sequence:
        code, out, err = run_cli(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "bsq", *argv], capture_output=True, text=True)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert bsq.cli._build_parser() is bsq.cli._build_parser()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bsq", "verlinde", "--genus", "2", "--level", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dim"] == 20


BOTH = ("numpy", "mpmath")


@pytest.mark.parametrize(
    "argv, unused",
    [
        pytest.param((), BOTH, id="import"),
        pytest.param(("graphs", "--genus", "3"), BOTH, id="graphs"),
        pytest.param(("weights", "--graph", "theta2", "--level", "3"), BOTH, id="weights"),
        pytest.param(("weights", "--graph", "dumbbell2", "--level", "3", "--count-only"), BOTH, id="weights count"),
        pytest.param(("ucurve", "--level", "3", "--u", "0.7", "--grid", "50"), BOTH, id="ucurve"),
        pytest.param(("ucurve", "--level", "3", "--u", "0.5,0.5", "--grid", "50", "--format", "csv"), BOTH,
                     id="ucurve csv"),
        pytest.param(("ucurve", "--level", "3", "--u", "0"), BOTH, id="ucurve zero fiber"),
        pytest.param(("verify-jw", "--genus", "2", "--max-level", "3"), ("numpy",), id="verify-jw"),
        pytest.param(("verlinde", "--genus", "3", "--level", "50"), ("numpy",), id="verlinde"),
    ],
)
def test_lean_runs_leave_numpy_and_mpmath_unloaded(argv, unused):
    # numpy and mpmath cost most of the start-up, so they load only where they are used
    code = (
        "import contextlib, io, sys\n"
        "import bsq, bsq.cli\n"
        f"argv = {list(argv)!r}\n"
        "if argv:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert bsq.cli.main(argv) == 0\n"
        f"print(sorted(set({list(unused)!r}) & sys.modules.keys()))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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
    {"rows": [[1, 2, 3], [4, 5, 6], [7, 8], [True, 1, 2], [1.5, float("nan"), 2.0], [], [9, 10, 11], [-5, 10**30, 0]]},
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
    {"points": [
        {"%d": "%s", "b": -0.0, "s": [5e-324, 10**30], "\u00e9": "\u2603 \"q\" \\"},
        {"%d": "%%", "b": 1e308, "s": [1.5, -7], "\u00e9": ""},
    ]},
    {"points": [{"b": 1e308, "m": 1}, {"b": 1e308, "m": 2}], "rows": [{"a": [1.0]}, {"a": [1.0, 2.0]}]},
    {"nested": [{"a": [[1, 2], [3, 4]]}, {"a": {}}, [[[]]], {}, 1, "x", 2.5]},
    [],
    {},
    "plain",
    3.25,
]


def _dumped(body) -> str:
    buf = io.StringIO()
    dump(body, buf.write)
    return buf.getvalue()


@pytest.mark.parametrize("body", EDGE_BODIES)
def test_dumps_matches_json_on_edge_values(body):
    assert _dumped(body) == json.dumps(body, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "rows",
    [
        pytest.param([(1, 2, 3), (4, 5, 6), (-7, 10**30, 0)], id="ints"),
        # repr((5,)) is "(5,)", so its inside is not a json row
        pytest.param([(5,), (0,), (-3,)], id="one-tuples"),
        pytest.param([(), (), (1,), ()], id="empty-tuples"),
        pytest.param([(True, 1), (1, False), (True,)], id="bools"),
        pytest.param([(1.5, 2), (2, float("nan")), (0.1,)], id="floats"),
        pytest.param([((1, 2), (3,)), ((),), (((4,),),), ([5], (6, 7))], id="nested"),
        pytest.param([(1, 2), [3, 4], (5,), [6], []], id="beside-lists"),
    ],
)
def test_dumps_writes_tuple_rows_as_json_does(rows):
    assert _dumped({"weights": rows}) == json.dumps({"weights": rows}, sort_keys=True, indent=2)
    assert _dumped(rows) == json.dumps(rows, sort_keys=True, indent=2)


class _Level(enum.IntEnum):
    ONE = 1


def _int_rows(count: int, width: int) -> list:
    # lists beside tuples, with big and negative ints
    return [
        (list if i % 3 else tuple)((-1) ** (i + j) * (i + j) * 10 ** (j * 9) for j in range(width))
        for i in range(count)
    ]


@pytest.mark.parametrize("width", [1, 2, 6])
@pytest.mark.parametrize("count", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1])
def test_dumps_writes_int_rows_a_block_at_a_time_as_json_does(count, width):
    rows = _int_rows(count, width)
    assert _dumped({"weights": rows}) == json.dumps({"weights": rows}, sort_keys=True, indent=2)
    assert _dumped(rows) == json.dumps(rows, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "trap",
    [
        pytest.param((1, True), id="bool"),
        pytest.param([1.0, 2], id="float"),
        pytest.param((_Level.ONE, 2), id="int-enum"),
        pytest.param((), id="empty"),
        pytest.param([1, 2, 3], id="wider"),
        pytest.param((1,), id="narrower"),
        pytest.param([[1], 2], id="nested"),
        pytest.param(7, id="bare-int"),
    ],
)
@pytest.mark.parametrize("at", [_BLOCK_ROWS, 2 * _BLOCK_ROWS - 1, 2 * _BLOCK_ROWS])
def test_dumps_writes_a_block_with_an_odd_row_item_by_item(trap, at):
    # the first block qualifies for the %-template; the odd row sends only its own block item by item
    rows = _int_rows(2 * _BLOCK_ROWS + 1, 2)
    rows[at] = trap
    assert _dumped({"weights": rows}) == json.dumps({"weights": rows}, sort_keys=True, indent=2)
    assert _dumped(rows) == json.dumps(rows, sort_keys=True, indent=2)


def test_writing_a_long_listing_holds_about_one_block(tmp_path):
    rows = [(i, i % 7, 2 * i, 1, 0, i % 3) for i in range(100_000)]
    document = {"count": len(rows), "weights": rows}
    # the rows with the largest ints make the longest block of text
    block_text = len(json.dumps({"weights": rows[-_BLOCK_ROWS:]}, indent=2))
    path = tmp_path / "doc.json"
    longest = 0
    with open(path, "w") as fh:

        def write(text):
            nonlocal longest
            longest = max(longest, len(text))
            fh.write(text)

        tracemalloc.start()
        try:
            dump(document, write)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    size = path.stat().st_size
    assert path.read_text() == json.dumps(document, sort_keys=True, indent=2)
    assert longest <= block_text < size / 100
    assert peak < size / 20


def _records(count: int) -> list:
    # like records, as a u-curve slice's points: keys out of order, a % in the text, -0.0 and big ints
    return [
        {"s": [i / 7, -0.0 if i % 2 else 1e-300], "m": (i - 3) * 10 ** (i % 25), "b_exact": f"{i}/%d", "b": i * 0.1}
        for i in range(count)
    ]


@pytest.mark.parametrize("count", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1])
def test_dumps_writes_like_records_a_block_at_a_time_as_json_does(count):
    records = _records(count)
    assert _dumped({"points": records}) == json.dumps({"points": records}, sort_keys=True, indent=2)
    writes = []
    dump(records, writes.append)
    assert "".join(writes) == json.dumps(records, sort_keys=True, indent=2)
    # one write per block of records, then the closing bracket
    assert len(writes) == -(-count // _BLOCK_ROWS) + 1


def test_writing_a_long_list_of_records_holds_about_one_block():
    records = _records(20_000)
    text = json.dumps(records, sort_keys=True, indent=2)
    block_text = max(
        len(json.dumps(records[start : start + _BLOCK_ROWS], sort_keys=True, indent=2))
        for start in range(0, len(records), _BLOCK_ROWS)
    )
    writes = []
    dump(records, writes.append)
    assert "".join(writes) == text
    assert max(map(len, writes)) <= block_text < len(text) / 20


@pytest.mark.parametrize(
    "matrix",
    [
        np.array([[1 + 2j, -0.0 - 0.0j], [5e-324 + 1e308j, 0.1 - 0.2j]]),
        np.array([[complex("nan+1j"), 1j], [complex("inf-1j"), -1.0 + 0j]]),
        np.array([[3 + 4j]]),
        # row j repeats every k/gcd(j, k) entries; the writer formats each repeating block once
        *(
            pytest.param(bpu_matrix(k, tau=tau, norm=norm).entries, id=f"theta-k{k}-tau{tau}-norm{norm}")
            for k in (1, 2, 3, 64, 96, 97, 128, 200)
            for tau in (1j, 0.3 + 0.1j)
            for norm in (1.0, 2.5)
        ),
        # equal as values, not as bits: period 2, not 1
        pytest.param(
            np.array([[0.0, -0.0, 0.0, -0.0], [0j, complex(0.0, -0.0), 0j, complex(0.0, -0.0)]]), id="signed-zeros"
        ),
        pytest.param(np.array([[1 + 1j, 2 + 2j, 1 + 1j, 2 + 2j, 1 + 1j, 3 + 2j]]), id="periodic-but-the-last"),
        # repeat lengths 2 and 4 that do not divide the widths 5 and 6
        pytest.param(np.array([[1 + 1j, 2 - 2j, 1 + 1j, 2 - 2j, 1 + 1j]]), id="period-2-in-width-5"),
        pytest.param(np.array([[1j, 2j, 3j, 4j, 1j, 2j]]), id="period-4-in-width-6"),
        pytest.param(np.array([[5e-324 + 0.1j] * 6, [-5e-324 - 0.1j, 5e-324 + 0.1j] * 3]), id="subnormal-rows"),
        pytest.param(np.array([[complex("nan+nanj")] * 4, [complex("inf+0j")] * 4, [1 + 0j] * 4]), id="non-finite-rows"),
        pytest.param(np.full((2, 4), 0.1 + 0.2j, dtype=np.complex64), id="complex64"),
        pytest.param(bpu_matrix(12, tau=0.3 + 0.1j).entries.T, id="theta-k12-transposed"),
    ],
)
def test_dumps_writes_a_complex_matrix_as_rows_of_pairs(matrix):
    pairs = [[[z.real, z.imag] for z in row] for row in matrix.tolist()]
    assert _dumped({"entries": matrix}) == json.dumps({"entries": pairs}, sort_keys=True, indent=2)

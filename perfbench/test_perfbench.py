"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import jobs
import spans
from classes import CLASSES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from bsq.cli import main as bsq_main  # noqa: E402


def run_bench(*args, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_run_is_clean(workload, trace):
    out = run_bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace, "--quick")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    names = set(spans.UNITS) if trace == "1" else {"setup_s", "run_s", "job_p50_ms", "peak_rss_mb"}
    assert set(result["metrics"]) == names


def test_same_seed_same_inputs(tmp_path):
    def inputs(seed):
        built = jobs.build("census", random.Random(seed), tmp_path)
        return [(j.argv, sorted(j.inputs.values())) for j in built]

    assert inputs("a") == inputs("a")
    assert inputs("a") != inputs("b")


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = run_bench("--workload", "jw", "--seed", "1", "--seconds", "1", "--trace", "0",
                    script=tmp_path / "perfbench" / "run.py")
    assert out.returncode != 0
    assert out.stdout == ""


def test_dimension_oracles_agree():
    for g in range(2, 7):
        for k in range(1, 13):
            assert check._fusion_trace(g, k) == check._verlinde_sum(g, k), (g, k)
    assert all(check.dimension(g, 1) == 2 ** g for g in range(2, 7))
    assert (check.dimension(2, 2), check.dimension(2, 3), check.dimension(3, 2)) == (10, 20, 36)


def test_embedded_classes_are_the_census():
    import networkx as nx

    for g, classes in CLASSES.items():
        assert len(classes) == check.GRAPH_CLASS_COUNTS[g]
        built = [check._multigraph(2 * g - 2, list(edges)) for edges in classes]
        assert all(not nx.is_isomorphic(a, b) for i, a in enumerate(built) for b in built[:i])


def test_open_weight_range_is_rejected(tmp_path):
    doc = tmp_path / "jw.json"
    assert bsq_main(["verify-jw", "--genus", "2", "--max-level", "2", "--open-weight-range",
                     "--output", str(doc)]) == 1
    with pytest.raises(check.CheckFailure, match="dimension"):
        check.check_verify_jw(doc, g=2, max_level=2)


def test_altered_listing_is_rejected(tmp_path):
    n, edges = jobs.relabel(CLASSES[3][2], random.Random(5))
    graph = tmp_path / "g.txt"
    graph.write_text(f"v {n}\n" + "".join(f"e {a} {b}\n" for a, b in edges))
    doc = tmp_path / "w.json"
    assert bsq_main(["weights", "--graph", str(graph), "--level", "3", "--output", str(doc)]) == 0
    check.check_listing(doc, n=n, edges=edges, k=3)

    data = json.loads(doc.read_text())
    data["weights"][len(data["weights"]) // 2][0] += 1
    doc.write_text(json.dumps(data))
    with pytest.raises(check.CheckFailure):
        check.check_listing(doc, n=n, edges=edges, k=3)


def test_theta_values_are_held_to_the_exact_ones(tmp_path):
    doc = tmp_path / "t.json"
    assert bsq_main(["theta-basis", "--level", "16", "--output", str(doc)]) == 0
    check.check_theta(doc, k=16, tau=1j)
    data = json.loads(doc.read_text())
    data["det_modulus"] = repr(data["det_modulus"])  # a decimal string is accepted
    doc.write_text(json.dumps(data))
    check.check_theta(doc, k=16, tau=1j)
    data["det_modulus"] = 0.0
    doc.write_text(json.dumps(data))
    with pytest.raises(check.CheckFailure, match="det_modulus 0.0"):
        check.check_theta(doc, k=16, tau=1j)


def test_ucurve_closed_form_needs_every_point(tmp_path):
    doc = tmp_path / "u.json"
    assert bsq_main(["ucurve", "--level", "2", "--u", "0.7", "--grid", "50", "--output", str(doc)]) == 0
    params = dict(k=2, u=0.7 + 0j, lo=-2.0, hi=2.0, grid=50, tol=1e-9)
    check.check_ucurve(doc, "json", **params)
    data = json.loads(doc.read_text())
    data["points"].pop()
    data["count"] -= 1
    doc.write_text(json.dumps(data))
    with pytest.raises(check.CheckFailure, match="missing"):
        check.check_ucurve(doc, "json", **params)


def test_speed_sampler_samples_inside_a_call_and_restores_the_timer():
    import signal
    import time

    import run

    handler = signal.getsignal(signal.SIGALRM)
    with run.SpeedSampler() as sampler:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:  # one long call, as a job is to the sampler
            pass
    assert len(sampler.samples) >= 5 and all(s > 0 for s in sampler.samples)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

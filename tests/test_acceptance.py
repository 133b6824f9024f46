"""End-to-end acceptance gate.

One test per headline guarantee, each printing a PASS line with the checked
bound once its assertions clear.  Run with `pytest tests/test_acceptance.py -v`
(add -s to see the PASS lines inline with quiet output).
"""

import cmath
import itertools
import json
import math
import random
from fractions import Fraction

import mpmath

import _oracles
from bsq.cli import main, verify_jw
from bsq.theta import ThetaCharacteristic, bpu_matrix, bs_points, theta_value
from bsq.trigraph import DUMBBELL_GRAPH, THETA_GRAPH, generate_trivalent
from bsq.ucurve import branch_residual, deck_translate, trace_slice, zero_level_fiber
from bsq.verlinde import verlinde_dim
from bsq.weights import count_admissible, enumerate_admissible, is_admissible

SEED = 20260819


def _pass(capsys, message):
    with capsys.disabled():
        print(f"PASS: {message}")


def test_weight_counts_equal_dimensions(capsys):
    # genus 2, both graph classes, k = 1..6, exact integers
    for k in range(1, 7):
        dim = verlinde_dim(2, k).dim
        for graph in (THETA_GRAPH, DUMBBELL_GRAPH):
            count = count_admissible(graph, k)
            assert count == dim, (graph.edges, k, count, dim)
            oracle = _oracles.oracle_count(graph.vertex_count, graph.edges, k)
            assert count == oracle, (graph.edges, k, count, oracle)
    assert verlinde_dim(2, 1).dim == 4
    assert verlinde_dim(2, 2).dim == 10
    # genus 3, every generated class, k = 1..3
    graphs3 = generate_trivalent(3)
    for k in range(1, 4):
        dim = verlinde_dim(3, k).dim
        for graph in graphs3:
            assert count_admissible(graph, k) == dim, (graph.edges, k)
    assert verlinde_dim(3, 1).dim == 8
    # genus 4, all 17 classes, k = 1..6, and genus 5, all 71 classes, k = 1..2
    for g, max_k, classes in ((4, 6, 17), (5, 2, 71)):
        rows, all_match, _ = verify_jw(g, max_k)
        assert all_match, [row for row in rows if not row["match"]]
        assert len(rows) == classes * max_k
    _pass(
        capsys,
        "weight counts match dimensions exactly, genus 2 (k=1..6, both graphs, "
        "oracle-confirmed), genus 3 (k=1..3, all 5 graphs), genus 4 (k=1..6, "
        "all 17 graphs) and genus 5 (k=1..2, all 71 graphs)",
    )


def test_genus_one_collapse(capsys):
    for k in range(1, 21):
        assert verlinde_dim(1, k).dim == k + 1
    _pass(capsys, "genus-1 dimension is k+1 exactly for k=1..20")


def test_integrality_certificates(capsys):
    worst = 0.0
    for g in range(2, 7):
        for k in range(1, 13):
            value = verlinde_dim(g, k)  # raises IntegralityFailure on a miss
            assert value.error_bound < 1e-6, (g, k, value.error_bound)
            worst = max(worst, value.error_bound)
    _pass(
        capsys,
        f"integer certificates hold for g=2..6, k=1..12; worst error bound "
        f"{worst:.3e} < 1e-6",
    )


def test_counts_do_not_depend_on_the_graph(capsys):
    for g in (2, 3):
        graphs = generate_trivalent(g)
        assert len(graphs) >= 2
        for k in range(1, 5):
            counts = {count_admissible(graph, k) for graph in graphs}
            assert len(counts) == 1, (g, k, counts)
    _pass(capsys, "weight count is a graph invariant within genus, g=2..3, k=1..4")


def test_bridge_parity_on_the_dumbbell(capsys):
    enumerated = set(enumerate_admissible(DUMBBELL_GRAPH, 2))
    for nums in enumerated:
        assert nums[1] % 2 == 0, nums  # edge 1 is the bridge
    brute = {
        nums
        for nums in itertools.product(range(3), repeat=3)
        if is_admissible(DUMBBELL_GRAPH, 2, nums).admissible
    }
    assert enumerated == brute
    _pass(
        capsys,
        f"dumbbell k=2: all {len(enumerated)} weights have even bridge "
        f"numerator; the listing equals the 27-labeling brute force",
    )


def test_theta_quasi_periodicity(capsys):
    rng = random.Random(SEED)
    worst = 0.0
    for _ in range(100):
        k = rng.randint(1, 6)
        j = rng.randrange(k)
        tau = rng.choice([1j, 0.3 + 1.1j])
        z = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
        ch = ThetaCharacteristic(k, Fraction(j, k))
        base = theta_value(ch, z, tau, eps=1e-12)
        scale = abs(base)
        assert scale > 0

        lhs1 = theta_value(ch, z + 1, tau, eps=1e-12)
        rhs1 = cmath.exp(2j * math.pi * j) * base
        err1 = abs(lhs1 - rhs1) / scale

        lhs2 = theta_value(ch, z + tau, tau, eps=1e-12)
        rhs2 = cmath.exp(-1j * math.pi * k * tau - 2j * math.pi * k * z) * base
        err2 = abs(lhs2 - rhs2) / max(abs(lhs2), scale)

        worst = max(worst, err1, err2)
        assert err1 < 1e-10, (k, j, z, tau, err1)
        assert err2 < 1e-10, (k, j, z, tau, err2)
    _pass(
        capsys,
        f"both theta functional equations hold over 100 seeded samples "
        f"(k<=6, two tau values); worst relative error {worst:.3e} < 1e-10",
    )


def test_basis_matrix_nondegenerate(capsys):
    smallest = float("inf")
    for k in range(1, 13):
        smin = bpu_matrix(k, tau=1j).smallest_singular_value()
        assert smin > 1e-9, (k, smin)
        smallest = min(smallest, smin)
    _pass(
        capsys,
        f"evaluation matrix invertible for k=1..12 at tau=i; smallest "
        f"singular value {smallest:.3e} > 1e-9",
    )


def test_zero_fiber_and_deck_closure(capsys):
    for k in range(1, 13):
        fiber = zero_level_fiber(k)
        assert [p.b for p in fiber.points] == bs_points(k)
        assert all(p.s == 0j and p.u == 0j for p in fiber.points)
        assert [p.m for p in fiber.points] == list(range(k))

    rng = random.Random(SEED)
    worst = 0.0
    total_points = 0
    for _ in range(10):
        k = rng.randint(1, 4)
        u = complex(rng.choice([-1, 1]) * rng.uniform(0.5, 2.5), 0.0)
        slc = trace_slice(k, u, (-2.0, 2.0), 120, 1e-9)
        assert slc.points, (k, u)
        total_points += len(slc.points)
        for p in slc.points:
            residual = branch_residual(deck_translate(p, k), k)
            assert residual < 1e-8, (k, u, p, residual)
            worst = max(worst, residual)
    _pass(
        capsys,
        f"zero fiber equals the k rational points for k=1..12; deck "
        f"translation keeps all {total_points} traced points on the locus "
        f"across 10 seeded configs, worst residual {worst:.3e} < 1e-8",
    )


def test_open_weight_range_negative_control(capsys):
    rows, all_match, _ = verify_jw(2, 1, open_range=True)
    assert all_match is False
    assert {(row["weight_count"], row["verlinde_dim"]) for row in rows} == {(1, 4)}

    code = main(["verify-jw", "--genus", "2", "--max-level", "1", "--open-weight-range"])
    out, err = capsys.readouterr()
    assert code == 1
    assert json.loads(out)["all_match"] is False
    assert json.loads(err)["error"] == "VerificationMismatch"

    # the closed range passes the same check
    code_ok = main(["verify-jw", "--genus", "2", "--max-level", "1"])
    out_ok, _ = capsys.readouterr()
    assert code_ok == 0
    assert json.loads(out_ok)["all_match"] is True
    _pass(
        capsys,
        "open numerator range 0..k-1 is rejected as designed: count 1 vs "
        "dimension 4 at genus 2, k=1, and the tool exits 1",
    )

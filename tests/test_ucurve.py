import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from _oracles import oracle_ucurve_candidates

from bsq import ucurve
from bsq.cli import main
from bsq.ucurve import (
    SupercyclePoint,
    UCurveSlice,
    branch_residual,
    complex_bs_residual,
    deck_translate,
    trace_slice,
    zero_level_fiber,
)


@pytest.mark.parametrize("k", range(1, 13))
def test_zero_level_fiber_is_the_k_rational_points(k):
    fiber = zero_level_fiber(k)
    assert fiber.u == 0j
    assert [p.b for p in fiber.points] == [Fraction(j, k) for j in range(k)]
    assert all(isinstance(p.b, Fraction) for p in fiber.points)
    assert all(p.s == 0j for p in fiber.points)
    assert [p.m for p in fiber.points] == list(range(k))
    assert all(branch_residual(p, k) == 0.0 for p in fiber.points)


def test_residual_functions_agree_on_integer_branches():
    p = SupercyclePoint(b=Fraction(1, 2), s=0.25 + 0j, u=2 + 0j, m=1)
    # k*b + u*s = 1 + 0.5 = 1.5, halfway between branches
    assert complex_bs_residual(2, p.b, p.s, p.u) == pytest.approx(0.5)
    assert branch_residual(p, 2) == pytest.approx(0.5)


def test_complex_bs_residual_known_values():
    assert complex_bs_residual(2, Fraction(1, 2), 0j, 1 + 0j) == 0.0
    assert complex_bs_residual(1, 0.25, 0j, 1 + 0j) == pytest.approx(0.25)
    # purely imaginary contribution is never folded into a branch
    assert complex_bs_residual(1, 0.0, 1j, 1 + 0j) == pytest.approx(1.0)
    assert complex_bs_residual(1, 0.0, 0.75 + 0j, 2 + 0j) == pytest.approx(0.5)


def test_trace_recovers_the_affine_locus_for_real_u():
    k, u, tol = 1, 1 + 0j, 1e-9
    slc = trace_slice(k, u, (-2.0, 2.0), 16, tol)
    assert slc.u == u
    assert len(slc.points) > 0
    for p in slc.points:
        # on the locus s = m - k*b exactly
        assert branch_residual(p, k) < tol
        assert abs(p.s - (p.m - k * float(p.b))) < 10 * tol
        assert p.s.imag == 0.0
        assert -2.0 <= p.s.real <= 2.0
    # output is sorted by branch, then position
    keys = [(p.m, float(p.b)) for p in slc.points]
    assert keys == sorted(keys)


def test_trace_scales_inversely_with_u_on_shared_branches():
    window, grid, tol = (-2.0, 2.0), 8, 1e-9
    one = {(p.b, p.m): p.s for p in trace_slice(1, 1 + 0j, window, grid, tol).points}
    two = {(p.b, p.m): p.s for p in trace_slice(1, 2 + 0j, window, grid, tol).points}
    shared = set(one) & set(two)
    assert shared
    for key in shared:
        assert abs(two[key] - one[key] / 2) < 10 * tol


def test_trace_with_imaginary_u_collapses_to_rational_points():
    # for u = i the residual is sqrt((k*b - m)^2 + s^2), so only the exact
    # rational fiber points survive, at s = 0
    slc = trace_slice(2, 1j, (-2.0, 2.0), 10, 1e-9)
    got = {(p.b, p.s, p.m) for p in slc.points}
    assert got == {(Fraction(0), 0j, 0), (Fraction(1, 2), 0j, 1)}


def test_trace_with_generic_complex_u_collapses_too():
    slc = trace_slice(2, 1 + 1j, (-2.0, 2.0), 100, 1e-9)
    assert [(p.b, p.m) for p in slc.points] == [(Fraction(0), 0), (Fraction(1, 2), 1)]
    assert all(abs(p.s) < 1e-8 for p in slc.points)


def test_traced_points_keep_exact_grid_fractions():
    slc = trace_slice(3, 1 + 0j, (-2.0, 2.0), 12, 1e-9)
    for p in slc.points:
        assert isinstance(p.b, Fraction)
        assert p.b.denominator in (1, 2, 3, 4, 6, 12)  # divisors of the grid


def test_deck_translate_exact_orbit_closes():
    k = 4
    start = SupercyclePoint(b=Fraction(1, 8), s=0.5 + 0j, u=2 + 0j, m=1)
    seen = []
    p = start
    for _ in range(k):
        p = deck_translate(p, k)
        seen.append((p.b, p.m))
    assert p == start  # order-k symmetry, exact with Fraction b
    assert seen == [
        (Fraction(3, 8), 2),
        (Fraction(5, 8), 3),
        (Fraction(7, 8), 4),
        (Fraction(1, 8), 1),
    ]


def test_deck_translate_wraps_branch_index():
    p = SupercyclePoint(b=Fraction(3, 4), s=0j, u=1 + 0j, m=2)
    q = deck_translate(p, 2)
    assert q.b == Fraction(1, 4)
    assert q.m == 1  # m + 1 - k


def test_deck_translate_preserves_branch_residual():
    k = 3
    for p in trace_slice(k, 0.8 + 0j, (-2.0, 2.0), 9, 1e-9).points:
        q = deck_translate(p, k)
        assert branch_residual(q, k) == pytest.approx(branch_residual(p, k), abs=1e-12)


def test_deck_translate_maps_traced_slice_into_itself():
    # grid divisible by k, so translated b values land back on the grid
    k, tol = 3, 1e-9
    slc = trace_slice(k, 1 + 0j, (-2.0, 2.0), 120, tol)
    table = {(p.b, p.m): p.s for p in slc.points}
    assert table
    for p in slc.points:
        q = deck_translate(p, k)
        assert (q.b, q.m) in table
        assert abs(table[(q.b, q.m)] - q.s) < 10 * tol


def test_deck_translate_float_positions():
    p = SupercyclePoint(b=0.9, s=0j, u=1 + 0j, m=0)
    q = deck_translate(p, 2)
    assert q.b == pytest.approx(0.4)
    assert q.m == -1


@pytest.mark.parametrize("k", [1, 2, 3])
def test_deck_translate_keeps_a_float_b_next_to_1_below_1(k):
    # in doubles b + 1.0 rounds to 2.0 and b + 0.5 to 1.5: a wrap after the sum gives 1.0 or drops b's last bit
    b = math.nextafter(1.0, 0.0)
    q = deck_translate(SupercyclePoint(b=b, s=0j, u=1, m=0), k)
    assert q.b == float(Fraction(b) + Fraction(1, k) - 1) and 0.0 <= q.b < 1.0
    assert q.m == 1 - k
    if k == 1:
        assert q == SupercyclePoint(b=b, s=0j, u=1, m=0)


def test_deck_translate_wraps_a_float_b_that_rounds_up_to_1():
    # the double nearest 2/3 lies below it, and within 2^-54 of 1 once 1/3 is added,
    # so the translate rounds to 1.0 and wraps to 0.0 with its branch
    b = 2 / 3
    assert Fraction(b) + Fraction(1, 3) < 1
    assert float(Fraction(b) + Fraction(1, 3)) == 1.0
    q = deck_translate(SupercyclePoint(b=b, s=0j, u=1, m=2), 3)
    assert (q.b, q.m) == (0.0, 0)


@pytest.mark.parametrize(
    "field, value",
    [("s", "0.5"), ("s", True), ("u", "1"), ("u", False), ("b", True), ("b", False), ("b", "0.5"), ("b", 0.5j)],
)
def test_a_point_takes_numbers_only(field, value):
    fields = {"b": Fraction(1, 2), "s": 0j, "u": 1j, "m": 0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be a number"):
        SupercyclePoint(**fields)


@pytest.mark.parametrize(
    "u, s_window, tol",
    [
        ("1", (-2.0, 2.0), 1e-9),
        (True, (-2.0, 2.0), 1e-9),
        (1.0, ("-2", 2.0), 1e-9),
        (1.0, (-2.0, True), 1e-9),
        (1.0, (-2.0, 2.0), True),
        (1.0, (-2.0, 2.0), "1e-9"),
        ("1", (-2.0, 2.0), True),
    ],
)
def test_trace_takes_numbers_only(u, s_window, tol):
    with pytest.raises(ValueError, match="must be a number"):
        trace_slice(1, u, s_window, 4, tol)


def test_trace_takes_numbers_of_any_kind():
    want = trace_slice(1, 1 + 0j, (-2.0, 2.0), 16, 1e-9)
    assert trace_slice(1, 1, (Fraction(-2), 2), 16, Fraction(1, 10**9)) == want
    assert want.points and all(isinstance(p, SupercyclePoint) for p in want.points)


def test_dedup_keeps_points_separated():
    # a coarse tolerance forces neighboring branches into one another's
    # dedup window; survivors must stay 10*tol apart in s at equal b
    tol = 0.02
    slc = trace_slice(1, 10 + 0j, (-0.2, 0.2), 4, tol)
    pts = list(slc.points)
    assert pts
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            close_b = abs(float(p.b) - float(q.b)) < 10 * tol
            close_s = abs(p.s - q.s) < 10 * tol
            assert not (close_b and close_s)


def exact_minimiser(k, u, window, b, m):
    """clip((m - k*b) Re(u) / |u|^2, lo, hi) in rationals, at the binary values of u and the window."""
    ur, ui = Fraction(u.real), Fraction(u.imag)
    lo, hi = Fraction(window[0]), Fraction(window[1])
    return min(max((m - k * b) * ur / (ur * ur + ui * ui), lo), hi)


def exact_root_set(k, u, window, grid, tol):
    """Grid pairs (b, m) whose root (m - k*b)/u lies in the window widened by tol/|u|, for real u."""
    ur, t = Fraction(u.real), Fraction(tol)
    lo, hi = Fraction(window[0]) - t / abs(ur), Fraction(window[1]) + t / abs(ur)
    out = set()
    for i in range(grid):
        b = Fraction(i, grid)
        ends = sorted((k * b + ur * lo, k * b + ur * hi))
        out.update((b, m) for m in range(math.floor(ends[0]), math.ceil(ends[1]) + 1)
                   if lo < (m - k * b) / ur < hi)
    return out


def real_u_configs(seed, n):
    rng = random.Random(seed)
    for _ in range(n):
        k = rng.randint(1, 5)
        u = complex(rng.choice([-1, 1]) * rng.uniform(0.3, 3.0), 0.0)
        window = (rng.uniform(-2.0, -0.1), rng.uniform(0.1, 2.0))
        yield k, u, window, rng.randint(50, 400)


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
def test_trace_equals_the_exact_root_set_for_real_u(tol):
    # grid spacing and branch spacing in s both exceed 10*tol, so no
    # candidate is deduplicated and the slice is the whole exact locus
    for k, u, window, grid in real_u_configs(20260818, 12):
        slc = trace_slice(k, u, window, grid, tol)
        got = [(p.b, p.m) for p in slc.points]
        assert len(set(got)) == len(got)
        assert set(got) == exact_root_set(k, u, window, grid, tol), (k, u, window, grid)
        for p in slc.points:
            assert p.s.imag == 0.0
            assert abs(p.s.real - float(exact_minimiser(k, u, window, p.b, p.m))) < 1e-13


def dedup_rule(points, tol):
    """The documented dedup: sorted by (b, |s|, m), drop a point within 10*tol
    in both b and s of an earlier kept one; output sorted by (m, b, |s|)."""
    kept = []
    ordered = sorted(((float(b), s, m, b) for b, s, m in points), key=lambda p: (p[0], abs(p[1]), p[2]))
    for bf, s, m, b in ordered:
        # kept points come in increasing b, so only the last few can be near
        near = itertools.takewhile(lambda q: bf - q[0] < 10 * tol, reversed(kept))
        if not any(abs(s - qs) < 10 * tol for _, qs, _, _ in near):
            kept.append((bf, s, m, b))
    return [(b, s, m) for bf, s, m, b in sorted(kept, key=lambda p: (p[2], p[0], abs(p[1])))]


@pytest.mark.parametrize("level, u", [(3, "0.7"), (4, "-1.3")])
def test_coarse_tolerance_dedups_the_exact_root_set(capsys, level, u):
    # at tol = 1e-3 the dedup window 10*tol spans several grid points, so the
    # output is the dedup rule applied to the exact locus, and nothing else
    argv = ["ucurve", "--level", str(level), "--u", u, "--tol", "1e-3"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    uc, window, grid, tol = complex(float(u), 0.0), (-2.0, 2.0), 1000, 1e-3
    exact = [
        (b, float(exact_minimiser(level, uc, window, b, m)), m)
        for b, m in exact_root_set(level, uc, window, grid, tol)
    ]
    want = dedup_rule(exact, tol)
    assert len(want) < len(exact)
    assert [(Fraction(p["b_exact"]), p["m"]) for p in doc["points"]] == [(b, m) for b, _, m in want]
    for p, (_, s, _) in zip(doc["points"], want):
        assert abs(p["s"][0] - s) < 1e-13 and p["s"][1] == 0.0


# sha256 of the JSON and the CSV text of `bsq ucurve` on these flags: the six
# slices of the benchmark's spectral workload, a coarse tolerance at which the
# dedup drops points, and a window reaching further below s = 0 than above it
PINNED_DOCUMENTS = {
    ("--level", "3", "--u", "0.7"): (
        "ccda00ab177b6b61d71a91270daa81fdaa7cb0fe4df33902e9ae8bc29f3f48c8",
        "5c467eb5a2c8755b8bd5c51be06a81aa469122091bec89f3def049b7cb900304",
    ),
    ("--level", "3", "--u", "-0.7"): (
        "42c664888c964c32a61f6a2919a544d4f5ed52ca8e1c81b50fc823467381074f",
        "9d00c2e08fd87ed45872fec55b560e8bc176bd3755ef3bf981dfc47eb29aa93b",
    ),
    ("--level", "4", "--u", "-1.3"): (
        "7f3b1fa679b27cc5fa84b4d8dbdcfaa83cdc2aa6325a50ee243aed58d0697d6e",
        "92d59008e3cebd7dcf39ae8a93b63b4f3f116837dfa58f80dbaf561f92f3761d",
    ),
    ("--level", "5", "--u", "0.8"): (
        "064e91b0671859871c932e297c9a2df7d1f458510b2fa97b3ecb74e5cd303ec1",
        "76f38f7c111a78da5e57777b72664cdaf23671357b66208ab745730970d18970",
    ),
    ("--level", "4", "--u", "0.5,0.5"): (
        "2d1fa47a559b9045f9405ab7696dd035ba413d1cce014e1911c35531e0721c7f",
        "36efe617530713672951cb3d206d5da2e44a94a6549da932d3f75fa0a4afb8fc",
    ),
    ("--level", "6", "--u", "0"): (
        "aced949ca0c7f08ac4ad6741818230954338cdea10b4b1338a0b89b03c5bd8ba",
        "cd6d06a38a115fb5e5ded278d6fb25461de84bd779591fa4a98150c7616170bb",
    ),
    ("--level", "2", "--u", "-1.7", "--tol", "1e-3", "--grid", "5000"): (
        "cdf7efe2d2b8ca2b6f254d1543f392738da3c258a85768d2eaf0ef82133f14eb",
        "98608c0d0ca748a5eb9f7c5ec18aa7d8337f85f82927e3b880e6fa6b6092850e",
    ),
    ("--level", "7", "--u", "2.5,-0.3", "--s-min", "-5", "--s-max", "1"): (
        "911409f419c1898b8a61f24e0144be5e09112d4521dd026d2842de21aee1a515",
        "b6338911e8582c147a59c53d2d8fcd618e6938b4c9ab137815b7083beb356302",
    ),
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("flags", PINNED_DOCUMENTS, ids=" ".join)
def test_ucurve_documents_are_pinned_bit_for_bit(capsys, flags, fmt):
    assert main(["ucurve", *flags, "--format", fmt]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED_DOCUMENTS[flags][fmt == "csv"]


def test_the_pinned_coarse_slice_drops_points_in_the_dedup():
    u, window, grid, tol = -1.7 + 0j, (-2.0, 2.0), 5000, 1e-3
    assert len(trace_slice(2, u, window, grid, tol).points) < len(exact_root_set(2, u, window, grid, tol))


def test_trace_orders_equal_doubles_of_b_as_the_dedup_rule_does():
    # at grid = 2^54 the grid points next to 1 come closer than the doubles, so
    # i / grid rounds to one double for two indices.  For u = i every s is 0 and
    # the candidates are the (i, m) with |i - m*grid| < tol*grid.
    grid, tol = 2**54, 1e-13
    reach = Fraction(tol) * grid
    first = grid - math.floor(reach)
    assert first / grid == (first + 1) / grid  # the first index kept next to 1 shares its double
    candidates = [(Fraction(i, grid), 0.0, 0) for i in range(math.ceil(reach))]
    candidates += [(Fraction(i, grid), 0.0, 1) for i in range(first, grid)]
    want = dedup_rule(candidates, tol)
    slc = trace_slice(1, 1j, (-2.0, 2.0), grid, tol)
    assert [(p.b, p.s, p.m) for p in slc.points] == [(b, complex(s), m) for b, s, m in want]
    assert [p.b for p in slc.points] == [0, Fraction(first, grid)]


def complex_u_configs(seed, n, large_re_u=False):
    """Seeded (k, u, window, grid, tol); large_re_u takes 50 <= |Re(u)| <= 500 and grid <= 12."""
    rng = random.Random(seed)
    for index in range(n):
        k = rng.randint(1, 4)
        re_u = rng.choice([-1, 1]) * rng.uniform(50.0, 500.0) if large_re_u else rng.uniform(-2.0, 2.0)
        u = complex(re_u, rng.choice([-1, 1]) * 10 ** rng.uniform(-4.0, 0.2))
        if index % 3 == 0:  # a window on one side of 0
            ends = sorted((rng.uniform(0.05, 2.0), rng.uniform(0.05, 2.0)))
            window = tuple(ends) if rng.random() < 0.5 else (-ends[1], -ends[0])
        else:
            window = (rng.uniform(-2.0, -0.05), rng.uniform(0.05, 2.0))
        grid = rng.choice([2, 3, 10, 12] if large_re_u else [2, 3, 10, 24, 60])
        yield k, u, window, grid, rng.choice([1e-9, 1e-3, 0.01, 0.05, 0.3])


def test_trace_equals_the_brute_force_oracle_for_complex_u():
    # every (branch, grid index) pair minimised in rationals, then the dedup rule
    kept = dropped = 0
    configs = itertools.chain(complex_u_configs(20261019, 40), complex_u_configs(20261020, 5, large_re_u=True))
    for k, u, window, grid, tol in configs:
        candidates = oracle_ucurve_candidates(k, u, window, grid, tol)
        want = dedup_rule(candidates, tol)
        slc = trace_slice(k, u, window, grid, tol)
        config = (k, u, window, grid, tol)
        assert [(p.b, p.m) for p in slc.points] == [(b, m) for b, _, m in want], config
        for p, (_, s, _) in zip(slc.points, want):
            assert p.s.imag == 0.0 and abs(p.s.real - s) < 1e-12, config
        kept += len(want)
        dropped += len(candidates) - len(want)
    assert kept > 100 and dropped > 100  # the configurations reach both the locus and the dedup


def test_trace_of_a_complex_u_at_a_million_grid_points_is_the_rational_fiber():
    # the residual at s is at least |Im(u) s|, so only s = 0, b = m/k survive
    k, grid = 4, 10**6
    slc = trace_slice(k, 0.5 + 0.5j, (-2.0, 2.0), grid, 1e-9)
    assert [(p.b, p.s, p.m) for p in slc.points] == [(Fraction(m, k), 0j, m) for m in range(k)]


@pytest.mark.parametrize("u", [1e3 + 1e3j, 1e5 + 1e5j, 1e140 + 1e140j])
def test_a_slice_makes_a_few_exact_tests_however_many_branches_its_window_reaches(monkeypatch, u):
    # the window reaches about 4*|Re(u)| branches, yet only N = k*i - m*grid = 0 is kept
    calls = 0
    exact_test = ucurve._exact_test

    def counted_exact_test(*args):
        below = exact_test(*args)

        def counted(numerator):
            nonlocal calls
            calls += 1
            return below(numerator)

        return counted

    monkeypatch.setattr(ucurve, "_exact_test", counted_exact_test)
    slc = trace_slice(3, u, (-2.0, 2.0), 10, 1e-9)
    assert [(p.b, p.s, p.m) for p in slc.points] == [(Fraction(0), 0j, 0)]
    assert calls <= 10


def test_trace_keeps_branches_reached_only_within_tol_of_a_window_corner():
    # k*b + u*s is -1.9999999999 at the corner b = 0, s = s_min: within tol of
    # the branch m = -2, which lies below the ceiling of every corner value
    slc = trace_slice(1, 1 + 0j, (-1.9999999999, 2.0), 10, 1e-9)
    assert (Fraction(0), -2) in {(p.b, p.m) for p in slc.points}
    assert {(p.b, p.m) for p in slc.points} == exact_root_set(1, 1 + 0j, (-1.9999999999, 2.0), 10, 1e-9)


def test_trace_argument_validation():
    with pytest.raises(ValueError):
        trace_slice(1, 0j, (-2.0, 2.0), 10, 1e-9)  # u = 0 has its own function
    with pytest.raises(ValueError):
        trace_slice(1, 1 + 0j, (2.0, -2.0), 10, 1e-9)
    with pytest.raises(ValueError):
        trace_slice(1, 1 + 0j, (-2.0, 2.0), 1, 1e-9)
    with pytest.raises(ValueError):
        trace_slice(1, 1 + 0j, (-2.0, 2.0), 10, 0.0)
    with pytest.raises(ValueError):
        trace_slice(0, 1 + 0j, (-2.0, 2.0), 10, 1e-9)


@pytest.mark.parametrize(
    "u, s_window, tol",
    [
        (complex("nan"), (-2.0, 2.0), 1e-9),
        (complex(0.7, math.inf), (-2.0, 2.0), 1e-9),
        (0.7 + 0j, (-2.0, math.inf), 1e-9),
        (0.7 + 0j, (-math.inf, 2.0), 1e-9),
        (0.7 + 0j, (math.nan, 2.0), 1e-9),
        (0.7 + 0j, (-2.0, 2.0), math.inf),
    ],
)
def test_trace_rejects_non_finite_arguments(u, s_window, tol):
    with pytest.raises(ValueError, match="finite"):
        trace_slice(3, u, s_window, 10, tol)


@pytest.mark.parametrize("u", [1e-300, 1e-160, complex(1e-162, 1e-162), 1e160, complex(1e155, -1e155), 1.79e308])
def test_trace_rejects_u_whose_squared_modulus_is_not_a_normal_double(u):
    # |u|^2 divides in the minimiser: below the normal range it rounds
    # towards 0.0, above it is inf, and the branch range grows like |u|
    with pytest.raises(ValueError, match="normal double range"):
        trace_slice(3, u, (-2.0, 2.0), 12, 1e-9)


@pytest.mark.parametrize("u", [1e-150, 1e-150j])
def test_trace_of_a_tiny_u_with_a_normal_squared_modulus_is_the_rational_fiber(u):
    slc = trace_slice(3, u, (-2.0, 2.0), 12, 1e-9)
    assert [(p.b, p.m, p.s) for p in slc.points] == [(Fraction(j, 3), j, 0j) for j in range(3)]


def test_point_and_slice_validation():
    with pytest.raises(ValueError):
        SupercyclePoint(b=Fraction(5, 4), s=0j, u=0j, m=0)
    with pytest.raises(ValueError):
        SupercyclePoint(b=-0.1, s=0j, u=0j, m=0)
    with pytest.raises(ValueError):
        SupercyclePoint(b=Fraction(0), s=0j, u=0j, m=0.5)  # type: ignore[arg-type]
    good = SupercyclePoint(b=Fraction(0), s=0j, u=1j, m=0)
    with pytest.raises(ValueError):
        UCurveSlice(u=0j, points=(good,))
    with pytest.raises(ValueError):
        zero_level_fiber(0)
    with pytest.raises(ValueError):
        complex_bs_residual(0, 0.0, 0j, 1 + 0j)
    with pytest.raises(ValueError):
        branch_residual(good, 0)
    with pytest.raises(ValueError):
        deck_translate(good, 0)

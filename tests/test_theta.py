import cmath
import hashlib
import json
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from bsq.theta import (
    DEFAULT_EPS,
    CancellationFailure,
    ThetaCharacteristic,
    TruncationFailure,
    bpu_matrix,
    bs_points,
    characteristics,
    _window,
    theta_value,
)

SEED = 20260819
TAUS = [1j, 0.3 + 1.1j]


def sample_cases(n, max_k=6):
    rng = random.Random(SEED)
    cases = []
    for _ in range(n):
        k = rng.randint(1, max_k)
        j = rng.randrange(k)
        tau = rng.choice(TAUS)
        z = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
        cases.append((k, j, z, tau))
    return cases


def jtheta_oracle(k, j, z, tau):
    """Independent evaluation through mpmath's Jacobi theta.

    Completing the square in the exponent gives
    theta_{j/k}(z) = e^{pi i k tau w^2 + 2 pi i k w z} * jtheta3(pi k (z + tau w))
    with w = j/k and nome q = e^{i pi k tau}.
    """
    with mpmath.workprec(120):
        zq = mpmath.mpc(z.real, z.imag)
        tq = mpmath.mpc(tau.real, tau.imag)
        wq = mpmath.mpf(j) / k
        pref = mpmath.exp(1j * mpmath.pi * k * tq * wq**2 + 2j * mpmath.pi * k * wq * zq)
        q = mpmath.exp(1j * mpmath.pi * k * tq)
        return pref * mpmath.jtheta(3, mpmath.pi * k * (zq + tq * wq), q)


def test_matches_independent_jtheta_oracle():
    for k, j, z, tau in sample_cases(60):
        ch = ThetaCharacteristic(k, Fraction(j, k))
        mine = theta_value(ch, z, tau)
        ref = jtheta_oracle(k, j, z, tau)
        err = abs(mpmath.mpc(mine) - ref) / abs(ref)
        assert err < 1e-12, (k, j, z, tau, float(err))


def test_quasi_periodicity_both_shifts():
    # theta_w(z+1)   = e^{2 pi i k w} theta_w(z)
    # theta_w(z+tau) = e^{-pi i k tau - 2 pi i k z} theta_w(z)
    for k, j, z, tau in sample_cases(60):
        ch = ThetaCharacteristic(k, Fraction(j, k))
        base = theta_value(ch, z, tau)
        scale = abs(base)
        assert scale > 0

        lhs1 = theta_value(ch, z + 1, tau)
        rhs1 = cmath.exp(2j * math.pi * j) * base  # k*w = j
        assert abs(lhs1 - rhs1) / scale < 1e-10

        lhs2 = theta_value(ch, z + tau, tau)
        rhs2 = cmath.exp(-1j * math.pi * k * tau - 2j * math.pi * k * z) * base
        assert abs(lhs2 - rhs2) / max(abs(lhs2), scale) < 1e-10


def test_characteristics_enumeration():
    chs = characteristics(4)
    assert [c.w for c in chs] == [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    assert [c.index for c in chs] == [0, 1, 2, 3]
    assert all(c.k == 4 for c in chs)


def test_bs_points_are_exact_and_increasing():
    pts = bs_points(5)
    assert pts == [Fraction(j, 5) for j in range(5)]
    assert all(isinstance(p, Fraction) for p in pts)
    with pytest.raises(ValueError):
        bs_points(0)


def test_characteristic_validation():
    ThetaCharacteristic(3, Fraction(2, 3))
    with pytest.raises(ValueError):
        ThetaCharacteristic(3, Fraction(1))          # j = k is out of range
    with pytest.raises(ValueError):
        ThetaCharacteristic(3, Fraction(1, 6))       # w*k not an integer
    with pytest.raises(ValueError):
        ThetaCharacteristic(0, Fraction(0))
    # neither a float nor a bool is an integer level
    for k in (2.0, True):
        with pytest.raises(ValueError, match="level must be an integer >= 1"):
            ThetaCharacteristic(k, Fraction(0))
    with pytest.raises(ValueError):
        characteristics(0)


@pytest.mark.parametrize("tau", [complex("nan+1j"), complex(0, math.inf), complex(math.inf, 1), complex("1+nanj")])
def test_non_finite_tau_is_rejected(tau):
    with pytest.raises(ValueError, match="tau must be finite"):
        bpu_matrix(3, tau=tau)
    with pytest.raises(ValueError, match="tau must be finite"):
        theta_value(ThetaCharacteristic(3, Fraction(0)), 0j, tau=tau)


def test_theta_value_argument_validation():
    ch = ThetaCharacteristic(2, Fraction(0))
    with pytest.raises(TypeError):
        theta_value(Fraction(0), 0.0)  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        theta_value(ch, 0.0, eps=0.0)
    with pytest.raises(ValueError):
        theta_value(ch, 0.0, eps=math.inf)
    with pytest.raises(ValueError):
        theta_value(ch, 0.0, tau=1.0 + 0j)


def test_truncation_bound_dominates_window_extension():
    # adding terms beyond the chosen window changes nothing above the bound
    def with_extra(ch, z, tau, eps, extra):
        from bsq.theta import _window

        k, w = ch.k, float(ch.w)
        n_max = _window(k, w, z, tau, eps) + extra
        total = 0j
        for n in range(-n_max, n_max + 1):
            q = n + w
            total += cmath.exp(1j * math.pi * k * tau * q * q + 2j * math.pi * k * q * z)
        return total

    for k, j, z, tau in sample_cases(20):
        ch = ThetaCharacteristic(k, Fraction(j, k))
        a = theta_value(ch, z, tau)
        b = with_extra(ch, z, tau, DEFAULT_EPS, 60)
        # eps times the peak term size, exp(pi k Im(tau) (Im(z) / Im(tau))^2)
        assert abs(a - b) <= DEFAULT_EPS * math.exp(math.pi * k * tau.imag * (z.imag / tau.imag) ** 2)


def test_truncation_failure_on_collapsing_torus():
    ch = ThetaCharacteristic(1, Fraction(0))
    with pytest.raises(TruncationFailure):
        theta_value(ch, 0.0, tau=1e-18j)
    with pytest.raises(TruncationFailure):
        bpu_matrix(2, tau=1e-18j)


def test_bpu_matrix_shape_and_metadata():
    m = bpu_matrix(3)
    assert m.entries.shape == (3, 3)
    assert m.k == 3
    assert m.tau == 1j
    assert m.eps == DEFAULT_EPS


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_bpu_matrix_is_scaled_dft_at_tau_i(k):
    # at tau = i the z-dependence of each entry is a pure k-th root of
    # unity, so every row is its leading entry times a DFT row
    m = bpu_matrix(k).entries
    for i in range(k):
        for j in range(k):
            pred = m[i, 0] * cmath.exp(2j * math.pi * i * j / k)
            assert abs(m[i, j] - pred) < 1e-12


@pytest.mark.parametrize("k", range(1, 13))
def test_bpu_matrix_nondegenerate_at_tau_i(k):
    smin = bpu_matrix(k).smallest_singular_value()
    assert smin > 1e-9


def dense_matrix(k, tau):
    """Every characteristic summed at every point: the k^2-sum reference."""
    return np.array(
        [[theta_value(ch, complex(float(b), 0.0), tau) for b in bs_points(k)] for ch in characteristics(k)]
    )


@pytest.mark.parametrize("tau", [1j, 0.3 + 0.1j, 0.3 + 1.1j])
def test_bpu_matrix_equals_dense_evaluation(tau):
    for k in range(1, 13):
        dense = dense_matrix(k, tau)
        m = bpu_matrix(k, tau=tau)
        assert np.abs(m.entries - dense).max() <= 1e-13 * np.abs(dense).max(), k
        # the spectral quantities against dense linear algebra, test-only
        sigma = np.linalg.svd(dense, compute_uv=False)[-1]
        det = np.linalg.det(dense)
        assert math.isclose(m.smallest_singular_value(), sigma, rel_tol=1e-10), k
        assert abs(m.determinant() - det) <= 1e-10 * abs(det), k
        assert math.isclose(m.log_abs_determinant(), math.log(abs(det)), rel_tol=0, abs_tol=1e-10), k


def _top_level_scalars(text):
    """The document's top-level number and string fields.  Only top-level keys
    start a line with two spaces and a quote, so a matrix of millions of
    entries is split off unparsed."""
    fields = {}
    for chunk in text.split('\n  "')[1:]:
        key, _, value = chunk.split("\n", 1)[0].rstrip(",").partition('": ')
        if value not in ("[", "{"):
            fields[key] = json.loads(value)
    return fields


@pytest.mark.parametrize("k", [64, 96, 960, 2000])
def test_cli_theta_basis_spectrum_at_high_level(tmp_path, k):
    # sigma is near 1e-21 to 1e-681 and |det| far below the smallest double,
    # beyond what a double-precision SVD or determinant resolves; from k of
    # about 900 on, some nulls themselves are below the double range
    import bsq.cli

    argv = ["theta-basis", "--level", str(k)]
    if k < 960:
        path = tmp_path / "theta.json"
        assert bsq.cli.main([*argv, "--output", str(path)]) == 0
        doc = _top_level_scalars(path.read_text())
    else:
        # the document as the subcommand builds it, without the seconds of
        # writing 73 MB (k = 960) or 272 MB (k = 2000) of text; the written
        # k = 2000 document is held to its memory limit in CI
        args = bsq.cli._build_parser().parse_args(argv)
        doc, code = args.handler(args)
        assert code == 0
    assert doc["subcommand"] == "theta-basis"
    with mpmath.workprec(120):
        # theta-nulls summed directly: at tau = i, jtheta's argument here is far
        # off the real axis and it loses up to 2e-3 relative at 120 bits
        moduli = [
            mpmath.fsum(mpmath.exp(-mpmath.pi * k * (n + mpmath.mpf(j) / k) ** 2) for n in range(-4, 5))
            for j in range(k)
        ]
        sigma = mpmath.sqrt(k) * min(moduli)
        det = mpmath.mpf(k) ** (mpmath.mpf(k) / 2) * mpmath.fprod(moduli)
        assert abs(mpmath.mpf(doc["smallest_singular_value"]) / sigma - 1) < 1e-6
        # below the double range: written as decimal strings
        assert isinstance(doc["smallest_singular_value"], str) == (k >= 960)
        assert isinstance(doc["det_modulus"], str)
        assert abs(mpmath.mpf(doc["det_modulus"]) / det - 1) < 1e-6


def test_cli_theta_basis_det_modulus_above_the_double_range():
    # |det| = k^(k/2) prod |c_j| is near 4e338 here, beyond the largest double
    import bsq.cli

    k, tau = 400, mpmath.mpc(0.3, 0.01)
    args = bsq.cli._build_parser().parse_args(["theta-basis", "--level", str(k), "--tau", "0.3,0.01"])
    doc, code = args.handler(args)
    assert code == 0
    with mpmath.workprec(120):
        moduli = [
            abs(mpmath.fsum(mpmath.exp(mpmath.pi * 1j * k * tau * (n + mpmath.mpf(j) / k) ** 2) for n in range(-8, 9)))
            for j in range(k)
        ]
        det = mpmath.mpf(k) ** (k // 2) * mpmath.fprod(moduli)
        assert det > mpmath.mpf("1e338")
        assert isinstance(doc["det_modulus"], str)
        assert abs(mpmath.mpf(doc["det_modulus"]) / det - 1) < 1e-9
        assert doc["smallest_singular_value"] == pytest.approx(float(mpmath.sqrt(k) * min(moduli)), rel=1e-12)


# sha256 of the stdout of `bsq theta-basis` on these flags: the thirteen theta
# bases of the benchmark's spectral workload, a level whose nulls are mostly
# below the normal range (21 of them, 17 of those 0.0), and small levels at tau = i
PINNED_THETA = {
    ("--level", "8", "--tau", "0.3,0.1"): "528859dc2c7b37105c1075306cae8f7c1c6467463e394268cc856076844475e3",
    ("--level", "16", "--tau", "0.3,0.1"): "2078f99dc808a49657a583e21f0e93de7bb35f44490be66f40433fcd2fa44855",
    ("--level", "32", "--tau", "0.3,0.1"): "4247339306a4977ba7535bd770f92e0aab8575ee3e5acde9884ea768ef74ba57",
    ("--level", "64", "--tau", "0.3,0.1"): "f564fa152f213b73720bfdca7354b1712412912ce95dcf2d7e28a4cda9b7b528",
    ("--level", "96", "--tau", "0.3,0.1"): "488927ead361aa9f026445ec30180ff89ad5a189e8300bb075ec10dededff28d",
    ("--level", "128", "--tau", "0.3,0.1"): "45b7637c5c6bfc42ad123b1dbea8337540904938a1dc530f3c703bd48031a2b7",
    ("--level", "160", "--tau", "0.3,0.1"): "d0e569926cb765fbb4de32087a042786f7175ace7fbe05a152d40446a0948a3b",
    ("--level", "200", "--tau", "0.3,0.1"): "a54805106412bb99ddf4d0910929a2a62467287ebbbfa9d8e369140634eb9383",
    ("--level", "8", "--tau", "0,1"): "83760d04d0021b59f3a490c9a112d514271d7a383d69d4b4a84b0ff964894591",
    ("--level", "16", "--tau", "0,1"): "bfc6ce30f46322b924422b5d7824c7dfb1bfec318c74d52097f707b27e08b805",
    ("--level", "32", "--tau", "0,1"): "402d69b82f1c7d6ef67473a887c2158665dc530d91fdfe901e163f7383acc195",
    ("--level", "64", "--tau", "0,1"): "1300d1e90e3b6ced3d1030e3458328f7f2d99f2f570abdb60d3a4c69e17e41a9",
    ("--level", "96", "--tau", "0,1"): "d39fb0228f22273f19a9f9f5829801443d72290894419f1310a6c3b1a7277a0a",
    ("--level", "128", "--tau", "0.1,10"): "5c9a64a08a1f39a9ef755ddc1970ec399125f9bf7582661eb7270209589e644b",
    ("--level", "1", "--tau", "0,1"): "058924f3d31dae6eeba737ec7e619a2ef6a5f041e5423dc3406ca14099208ee3",
    ("--level", "2", "--tau", "0,1"): "7ea3dca6a3eb25fd08b13b68cec47e1d8cd960ca36c7a28deb83cf6e2acfa0d9",
    ("--level", "3", "--tau", "0,1"): "54c20aa8a85bd97d13a73c721e0de086a96e1a185ef359eb0177cba08d80c9b3",
    ("--level", "97", "--tau", "0,1"): "a456f8309c3ea560397c20b07666ffaf03bccea1036f7f7ca1b39839ba55f9cd",
}


@pytest.mark.parametrize("flags", PINNED_THETA, ids=" ".join)
def test_theta_documents_are_pinned_bit_for_bit(capsys, flags):
    from bsq.cli import main

    assert main(["theta-basis", *flags]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PINNED_THETA[flags]


def test_a_cancelling_theta_basis_is_pinned(capsys):
    from bsq import __version__
    from bsq.cli import main

    assert main(["theta-basis", "--level", "8", "--tau", "0.5,0.001"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {
        "error": "CancellationFailure",
        "message": "the sum S_1 of theta-null c_1 cancels to |S_1| = 3.98e-14, within its rounding bound 2.09e-11 "
                   "(k=8, tau=(0.5+0.001j)); 4 of the 8 nulls are uncertain",
        "subcommand": "theta-basis",
        "tool_version": __version__,
    }
    assert err.endswith("}\n") and err.count("\n") == 1


@pytest.mark.parametrize("tau", [1j, 0.3 + 0.1j])
@pytest.mark.parametrize("k", [96, 97, 200])
def test_theta_rows_repeat_bit_for_bit(k, tau):
    # the document writer writes each repeating block of a row once
    m = bpu_matrix(k, tau=tau)
    for j, row in enumerate(m.entries):
        assert row.tobytes() == np.roll(row, k // math.gcd(j, k)).tobytes(), j
    assert m.nulls[1:].tobytes() == m.nulls[:0:-1].tobytes()


def test_log_smallest_singular_value():
    m = bpu_matrix(16, tau=0.3 + 0.1j)
    assert math.isclose(m.log_smallest_singular_value(), math.log(m.smallest_singular_value()), rel_tol=1e-14)


def test_subnormal_eps_gives_a_finite_window():
    from bsq.theta import _window

    # 1/eps overflows for eps below about 5.6e-309; at every normal eps the
    # window is the one that ln(1/eps) gives
    for eps in (1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 0.5, 1e-300, sys.float_info.min):
        t = math.pi * 3
        spread = math.sqrt(max(math.log(1.0 / eps), 0.0) / t)
        assert _window(3, 1.0, 0j, 1j, eps) == max(2, math.ceil(2.0 + spread))
    assert _window(3, 1.0, 0j, 1j, 5e-324) >= _window(3, 1.0, 0j, 1j, sys.float_info.min)
    m = bpu_matrix(3, eps=1e-320)
    assert m.eps == 1e-320
    assert np.allclose(m.entries, bpu_matrix(3).entries, rtol=1e-12, atol=0)


def _entries_from_the_whole_dft(k, tau):
    """The entries from the whole k x k DFT matrix at once, the product of the
    nulls and F."""
    j = np.arange(k)
    m0 = j - k * (2 * j >= k)
    phase = 1j * math.pi * tau
    sums = np.ones(k, dtype=complex)
    for n in range(1, _window(k, 1.0, 0j, tau, DEFAULT_EPS) + 1):
        sums += np.exp(phase * (n * (n * k + 2 * m0))) + np.exp(phase * (n * (n * k - 2 * m0)))
    centre = phase * (m0 * m0) / k
    nulls = np.exp(centre) * sums
    dft = np.exp(2j * np.pi * j / k)[np.outer(j, j) % k]
    return nulls[:, None] * dft


@pytest.mark.parametrize("k", [*range(1, 41), 97, 128, 200, 401, 961])
def test_entries_made_in_blocks_of_rows_equal_the_whole_dft_bit_for_bit(k):
    # at k = 961 and tau = i some nulls are subnormal or 0.0; their rows too are the product, bit for bit
    for tau in (1j, 0.3 + 0.1j):
        assert bpu_matrix(k, tau=tau).entries.tobytes() == _entries_from_the_whole_dft(k, tau).tobytes(), tau


def test_nulls_that_cancel_within_their_rounding_bound_raise():
    # at tau = 0.5 + 0.001i the terms of the odd nulls' sums have modulus near 1
    # and cancel to about 1e-42 (a direct sum at 80 digits), far below one
    # rounding of a double, which would leave |S_j| near 1e-14
    k, tau = 8, 0.5 + 0.001j
    with pytest.raises(CancellationFailure, match=r"S_1 .* rounding bound .* 4 of the 8 nulls"):
        bpu_matrix(k, tau=tau)
    with mpmath.workdps(80):
        t = mpmath.mpc(tau.real, tau.imag)
        c3 = mpmath.nsum(lambda n: mpmath.exp(mpmath.pi * 1j * k * t * (n + mpmath.mpf(3) / k) ** 2), [-60, 60])
        assert abs(c3) < 1e-40
    # the same level a little further from the real axis is summed to full accuracy
    m = bpu_matrix(k, tau=0.5 + 0.02j)
    with mpmath.workdps(40):
        t = mpmath.mpc(0.5, 0.02)
        for j in range(k):
            c = mpmath.nsum(lambda n: mpmath.exp(mpmath.pi * 1j * k * t * (n + mpmath.mpf(j) / k) ** 2), [-60, 60])
            assert abs(float(mpmath.log(abs(c))) - m.log_moduli[j]) < 1e-12, j


def test_the_cancellation_bound_takes_each_sum_of_moduli():
    # sums just above their bounds pass and just below raise, where the bound of
    # 2N + 1 terms of modulus 1 would raise for all of them
    from bsq.theta import _check_cancellation

    k, tau = 8, 0.3 + 0.1j
    window = _window(k, 1.0, 0j, tau, DEFAULT_EPS)
    m0 = np.array([j if 2 * j < k else j - k for j in range(k)])
    terms = [np.exp(1j * math.pi * tau * n * (n * k + s * 2 * m0)) for n in range(1, window + 1) for s in (1, -1)]
    magnitudes = 1 + sum(np.abs(t) for t in terms)
    reach = math.pi * abs(tau) * window * (window * k + 2 * (k // 2))
    bound = (2 * window + 4 + reach) * 2.0**-53 * magnitudes
    assert (bound * 1.01 < bound.max() / magnitudes.max() * (2 * window + 1)).all()
    _check_cancellation(k, tau, window, magnitudes, bound * 1.01)
    with pytest.raises(CancellationFailure, match=f"S_0 .* 8 of the 8"):
        _check_cancellation(k, tau, window, magnitudes, bound * 0.99)


@pytest.mark.parametrize("tau", [1j, 0.3 + 0.1j, 0.5 + 0.001j, 0.5 + 0.02j, 0.1 + 2.5j])
def test_the_sizes_of_the_sums_are_summed_with_them(monkeypatch, tau):
    # the sizes sum |terms| that bound each null's rounding come from the loop that
    # sums the null; here each is summed again, a term at a time, with math alone
    import bsq.theta

    calls = []
    monkeypatch.setattr(bsq.theta, "_check_cancellation", lambda *args: calls.append(args))
    for k in [*range(1, 14), 24, 64, 200]:
        bpu_matrix(k, tau=tau)
        _, _, window, sizes, _ = calls.pop()
        decay = -math.pi * tau.imag
        for j in range(k):
            m0 = j if 2 * j < k else j - k
            expected = 1 + math.fsum(
                math.exp(decay * n * (n * k + 2 * m0)) + math.exp(decay * n * (n * k - 2 * m0))
                for n in range(1, window + 1)
            )
            assert abs(sizes[j] / expected - 1) < 1e-12, (k, j)


def test_bpu_matrix_holds_little_beside_its_entries():
    # no k x k temporary: F and its indices are made a block of rows at a time
    bpu_matrix(8)
    tracemalloc.start()
    try:
        m = bpu_matrix(1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * m.entries.nbytes, (peak, m.entries.nbytes)

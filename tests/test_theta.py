import cmath
import json
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from bsq.theta import (
    DEFAULT_EPS,
    ThetaCharacteristic,
    TruncationFailure,
    bpu_matrix,
    bs_points,
    characteristics,
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
    with pytest.raises(ValueError):
        characteristics(0)


def test_theta_value_argument_validation():
    ch = ThetaCharacteristic(2, Fraction(0))
    with pytest.raises(TypeError):
        theta_value(Fraction(0), 0.0)  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        theta_value(ch, 0.0, eps=0.0)
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
    assert m.norm_constant == 1.0


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


def test_normalization_scales_matrix_linearly():
    base = bpu_matrix(3)
    scaled = bpu_matrix(3, norm=2.5)
    assert np.allclose(scaled.entries, 2.5 * base.entries, rtol=0, atol=0)
    assert scaled.norm_constant == 2.5
    assert math.isclose(
        scaled.smallest_singular_value(), 2.5 * base.smallest_singular_value(),
        rel_tol=1e-12,
    )
    assert math.isclose(
        abs(scaled.determinant()), 2.5**3 * abs(base.determinant()),
        rel_tol=1e-12,
    )


def test_normalization_validation():
    with pytest.raises(ValueError):
        bpu_matrix(2, norm=-3.0)


def dense_matrix(k, tau):
    """Every characteristic summed at every point: the k^2-sum reference."""
    return np.array(
        [[theta_value(ch, complex(float(b), 0.0), tau) for b in bs_points(k)] for ch in characteristics(k)]
    )


@pytest.mark.parametrize("tau", [1j, 0.3 + 0.1j, 0.3 + 1.1j])
def test_bpu_matrix_equals_dense_evaluation(tau):
    for k in range(1, 13):
        dense = 1.7 * dense_matrix(k, tau)
        m = bpu_matrix(k, tau=tau, norm=1.7)
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
    from bsq.cli import main

    path = tmp_path / "theta.json"
    assert main(["theta-basis", "--level", str(k), "--output", str(path)]) == 0
    doc = _top_level_scalars(path.read_text())
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
        assert isinstance(doc["det_modulus"], str)  # below the double range
        assert abs(mpmath.mpf(doc["det_modulus"]) / det - 1) < 1e-6


def test_subnormal_norm_shifts_the_log_determinant():
    # the entries are subnormal doubles; the logarithms carry ln(norm) exactly
    base = bpu_matrix(3)
    tiny = bpu_matrix(3, norm=1e-310)
    assert 0 < np.abs(tiny.entries).max() < 2.3e-308
    shift = tiny.log_abs_determinant() - base.log_abs_determinant()
    assert math.isclose(shift, 3 * math.log(1e-310), rel_tol=1e-15)
    assert math.isclose(
        tiny.log_smallest_singular_value() - base.log_smallest_singular_value(), math.log(1e-310), rel_tol=1e-15
    )


def test_log_smallest_singular_value():
    m = bpu_matrix(16, tau=0.3 + 0.1j)
    assert math.isclose(m.log_smallest_singular_value(), math.log(m.smallest_singular_value()), rel_tol=1e-14)


def test_huge_norm_restores_rows_whose_null_underflows():
    # at tau = i and k = 960 five |c_j| round to 0.0 and more are subnormal;
    # times norm = 1e300 every row is a normal double with full precision
    m = bpu_matrix(960, norm=1e300)
    assert np.allclose(np.log(np.abs(m.nulls)), m.log_moduli, rtol=0, atol=1e-12)
    assert np.allclose(np.abs(m.entries), np.abs(m.nulls)[:, None], rtol=1e-12, atol=0)

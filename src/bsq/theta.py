"""Level-k theta functions with characteristics and the point-evaluation basis.

theta_w(z) = sum_n exp(pi*i*k*tau*(n+w)^2 + 2*pi*i*k*(n+w)*z), summed over a
symmetric window |n| <= N wide enough that the dropped Gaussian tail is below
eps relative to the largest retained term.  The k characteristics w = j/k and
the k fiber points b_l = l/k give a square evaluation matrix with a closed
structure: since exp(2*pi*i*k*(n + j/k)*l/k) = omega^(j*l) for every n, with
omega = exp(2*pi*i/k),

    theta_{j/k}(l/k) = c_j * omega^(j*l),    c_j = theta_{j/k}(0),

so M = diag(c) * F with F the k-point DFT matrix.  The matrix is built from
the k level-k theta-nulls c_j, its singular values are sqrt(k)*|c_j|, and
|det M| = k^(k/2) * prod |c_j|.  No c_j vanishes: c_j is a nonzero factor
times the Jacobi theta function theta(j*tau; k*tau), whose zeros are the
points 1/2 + k*tau/2 + Z + k*tau*Z, and j*tau is never one of them.  So the
matrix is invertible for every k and tau.

The nulls are summed in log scale.  With m0 the member of j + kZ nearest 0,
c_j = exp(pi*i*tau*m0^2/k) * S_j, where every term of S_j has modulus at most
1 and one term is 1, so ln|c_j| = -pi*Im(tau)*m0^2/k + ln|S_j| is accurate
at every level, although |c_j| itself leaves the double range at tau = i
from k of about 900 on.  The smallest singular value and the determinant's
modulus are taken from these logarithms.  Near the real axis the terms of
S_j can cancel to far below one rounding of their sum; bpu_matrix then
raises CancellationFailure rather than return a null with no certain bit.
The optional half-form normalization is a single positive scalar in this
model.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

TRUNCATION_CAP = 10**6
DEFAULT_EPS = 1e-12
# bpu_matrix writes its entries in blocks of rows of about this many entries, so
# that no k x k temporary is held beside them; k <= 200 is one block
_BLOCK_ENTRIES = 200 * 200


class TruncationFailure(ArithmeticError):
    """The eps target would need a summation window beyond the hard cap."""


class CancellationFailure(ArithmeticError):
    """A theta-null's sum cancels to within its rounding bound, so not one of its bits is certain."""


def _tau_value(tau) -> complex:
    t = complex(tau)
    if not (t.imag > 0 and cmath.isfinite(t)):
        raise ValueError(f"tau must be finite with positive imaginary part, got {t}")
    return t


def _level(k) -> int:
    if type(k) is not int or k < 1:
        raise ValueError(f"level must be an integer >= 1, got {k!r}")
    return k


@dataclass(frozen=True)
class ThetaCharacteristic:
    """Characteristic w = j/k with integer j in 0..k-1."""

    k: int
    w: Fraction

    def __post_init__(self):
        _level(self.k)
        object.__setattr__(self, "w", Fraction(self.w))
        j = self.w * self.k
        if j.denominator != 1 or not 0 <= j <= self.k - 1:
            raise ValueError(f"w*k must be an integer in 0..{self.k - 1}, got w={self.w}")

    @property
    def index(self) -> int:
        return int(self.w * self.k)


def characteristics(k: int) -> list[ThetaCharacteristic]:
    """All k characteristics j/k, j = 0..k-1."""
    return [ThetaCharacteristic(k, Fraction(j, k)) for j in range(_level(k))]


def bs_points(k: int) -> list[Fraction]:
    """The k Bohr-Sommerfeld points b_j = j/k, increasing, exact rationals."""
    return [Fraction(j, k) for j in range(_level(k))]


def _window(k: int, w: float, z: complex, tau: complex, eps: float) -> int:
    """Half-width N of the summation window |n| <= N.

    The terms fall off like exp(-t*(n - center)^2) with t = pi*k*Im(tau);
    N is the smallest integer with the window edge at least
    sqrt(ln(1/eps)/t) past the Gaussian center, which leaves the omitted
    mass below eps times the largest retained term (geometric tail bound).
    """
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    t = math.pi * k * tau.imag
    center = -w - z.imag / tau.imag
    # -log(eps), not log(1/eps): 1/eps overflows for a subnormal eps
    spread = math.sqrt(max(-math.log(eps), 0.0) / t)
    n = max(2, math.ceil(1.0 + abs(center) + spread))
    if n > TRUNCATION_CAP:
        raise TruncationFailure(
            f"window half-width {n} exceeds the cap {TRUNCATION_CAP} "
            f"(k={k}, Im(tau)={tau.imag}, eps={eps})"
        )
    return n


def theta_value(ch: ThetaCharacteristic, z: complex, tau=1j, eps: float = DEFAULT_EPS) -> complex:
    """Evaluate theta_w(z) by direct summation over the truncation window."""
    if not isinstance(ch, ThetaCharacteristic):
        raise TypeError(f"expected a ThetaCharacteristic, got {type(ch).__name__}")
    tau = _tau_value(tau)
    z = complex(z)
    k = ch.k
    w = float(ch.w)
    n_max = _window(k, w, z, tau, eps)
    total = 0j
    for n in range(-n_max, n_max + 1):
        q = n + w
        total += cmath.exp(1j * math.pi * k * tau * q * q + 2j * math.pi * k * q * z)
    return total


@dataclass(frozen=True)
class ThetaBasisMatrix:
    """Square evaluation matrix M[j][l] = norm * theta_{j/k}(b_l) = norm * c_j * omega^(j*l).

    log_moduli[j] = ln|norm * c_j| stays exact where |norm * c_j| is too small
    for a double and row j of the entries is subnormal or 0.0.
    """

    k: int
    entries: np.ndarray = field(repr=False)
    log_moduli: np.ndarray = field(repr=False)
    tau: complex
    eps: float
    norm_constant: float = 1.0

    @property
    def nulls(self) -> np.ndarray:
        """The scaled theta-nulls norm * c_j: column b_0 = 0 of the matrix."""
        return self.entries[:, 0]

    def smallest_singular_value(self) -> float:
        """sqrt(k) * min_j |norm * c_j|, exact because F / sqrt(k) is unitary."""
        return math.sqrt(self.k) * float(abs(self.nulls).min())

    def log_smallest_singular_value(self) -> float:
        """Natural log of the smallest singular value, 0.5 * ln k + min_j ln|norm * c_j|."""
        return 0.5 * math.log(self.k) + float(self.log_moduli.min())

    def log_abs_determinant(self) -> float:
        """Natural log of |det M| = k^(k/2) * prod_j |norm * c_j|, as a sum of logarithms."""
        return 0.5 * self.k * math.log(self.k) + math.fsum(self.log_moduli)

    def determinant(self) -> complex:
        """det M = det F * prod_j norm * c_j, with det F = k^(k/2) * i^((k(k-1)/2 + (k-1)^2) mod 4).

        A plain complex number, so it underflows or overflows for large k;
        log_abs_determinant does not.
        """
        k = self.k
        phase = (1, 1j, -1, -1j)[(k * (k - 1) // 2 + (k - 1) ** 2) % 4]
        return phase * complex((math.sqrt(k) * self.nulls).prod())


def _check_cancellation(k: int, tau: complex, window: int, sizes: np.ndarray, moduli: np.ndarray) -> None:
    """Raise CancellationFailure where a sum S_j of bpu_matrix, with moduli
    |S_j| and sizes sum |terms|, is within its rounding bound.

    Each of the 2N + 1 terms is off by about its modulus times 2^-53 per
    addition and per unit of its exponent's size, the largest of which is
    pi |tau| N (N k + 2 max|m0|).  So S_j is off by up to
    (2N + 4 + max|exponent|) * 2^-53 * sum |terms|, and once that reaches
    |S_j| not one of its bits is certain.
    """
    import numpy as np

    reach = math.pi * abs(tau) * window * (window * k + 2 * (k // 2))
    rounding = (2 * window + 4 + reach) * 2.0**-53 * sizes
    lost = np.flatnonzero(rounding >= moduli)
    if lost.size:
        j = lost[0]
        raise CancellationFailure(
            f"the sum S_{j} of theta-null c_{j} cancels to |S_{j}| = {moduli[j]:.3g}, within its rounding "
            f"bound {rounding[j]:.3g} (k={k}, tau={tau}); {lost.size} of the {k} nulls are uncertain"
        )


def bpu_matrix(k: int, tau=1j, eps: float = DEFAULT_EPS, norm: float = 1.0) -> ThetaBasisMatrix:
    """Evaluate every characteristic at every Bohr-Sommerfeld point.

    Row index = characteristic j/k, column index = point b_l; entry (j, l)
    is norm * c_j * omega^(j*l).  The nulls are one centred sum: for every
    class j + kZ at once, S_j = sum_{|n| <= N} exp(pi*i*tau*n*(2*m0 + n*k)),
    one length-k vector per offset n, with N the window of w = 1, z = 0,
    which covers every class.  Classes j and k - j have opposite m0, which
    only swaps the two terms added per offset, so c_{k-j} == c_j bit for bit.
    F is taken from the k powers omega^m at m = j*l mod k, so row j of the
    entries is k/gcd(j, k)-periodic bit for bit.  Raises ValueError when an
    entry is not finite, and CancellationFailure when a sum S_j is within its
    rounding bound, (2N + 4 + max|exponent|) * 2^-53 * sum |terms|, with the
    sizes sum |terms| added up in the loop that sums the S_j.
    """
    import numpy as np

    k = _level(k)
    tau = _tau_value(tau)
    norm = float(norm)
    if not norm > 0:
        raise ValueError(f"normalization must be positive, got {norm}")
    j = np.arange(k)
    m0 = j - k * (2 * j >= k)
    phase = 1j * math.pi * tau
    window = _window(k, 1.0, 0j, tau, eps)
    sums = np.ones(k, dtype=complex)
    sizes = np.ones(k)
    for n in range(1, window + 1):
        up = np.exp(phase * (n * (n * k + 2 * m0)))
        down = np.exp(phase * (n * (n * k - 2 * m0)))
        sums += up + down
        sizes += np.abs(up) + np.abs(down)
    moduli = np.abs(sums)
    _check_cancellation(k, tau, window, sizes, moduli)
    centre = phase * (m0 * m0) / k
    log_moduli = math.log(norm) + centre.real + np.log(moduli)
    nulls = np.exp(centre) * sums
    powers = np.exp(2j * np.pi * j / k)
    # a null below the normal range has lost bits that a norm above 1 would
    # bring back into range, so those rows are taken from exp(ln norm + ...)
    low = np.abs(nulls) < sys.float_info.min
    # each block of rows is written in place.  The operand order of the complex
    # multiply by norm decides the sign of an underflowed zero, so it is the
    # product times norm, at every level
    entries = np.empty((k, k), dtype=complex)
    step = max(1, _BLOCK_ENTRIES // k)
    with np.errstate(over="ignore"):
        for top in range(0, k, step):
            rows = slice(top, top + step)
            dft = powers[np.outer(j[rows], j) % k]
            block = entries[rows]
            np.multiply(nulls[rows, None], dft, out=block)
            block *= norm
            lows = low[rows]
            if lows.any():
                scaled = np.exp(math.log(norm) + centre[rows][lows]) * sums[rows][lows]
                block[lows] = scaled[:, None] * dft[lows]
    if not np.isfinite(entries).all():
        raise ValueError(
            f"norm = {norm} puts matrix entries beyond the double range "
            f"(k={k}, tau={tau}, largest ln|norm * c_j| = {log_moduli.max():.6g})"
        )
    return ThetaBasisMatrix(k=k, entries=entries, log_moduli=log_moduli, tau=tau, eps=eps, norm_constant=norm)

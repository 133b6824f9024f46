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
matrix is invertible for every k and tau.  The optional half-form
normalization is a single positive scalar in this model.  The sums are plain
double precision, and bpu_matrix raises TruncationFailure when a scaled null
falls below the normal double range (at tau = i, past k of about 900).  The
determinant's modulus and the smallest singular value are also given as
logarithms, which stay finite where the values leave the double range.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

TRUNCATION_CAP = 10**6
DEFAULT_EPS = 1e-12


class TruncationFailure(ArithmeticError):
    """The eps target would need a summation window beyond the hard cap, or
    a theta-null underflows the normal double range."""


@dataclass(frozen=True)
class ModularParameter:
    """Upper half-plane parameter of the underlying torus."""

    tau: complex = 1j

    def __post_init__(self):
        object.__setattr__(self, "tau", complex(self.tau))
        if not self.tau.imag > 0:
            raise ValueError(f"Im(tau) must be positive, got {self.tau}")


def _tau_value(tau) -> complex:
    if isinstance(tau, ModularParameter):
        return tau.tau
    t = complex(tau)
    if not t.imag > 0:
        raise ValueError(f"Im(tau) must be positive, got {t}")
    return t


@dataclass(frozen=True)
class ThetaCharacteristic:
    """Characteristic w = j/k with integer j in 0..k-1."""

    k: int
    w: Fraction

    def __post_init__(self):
        object.__setattr__(self, "w", Fraction(self.w))
        if self.k < 1:
            raise ValueError(f"level must be >= 1, got {self.k}")
        j = self.w * self.k
        if j.denominator != 1 or not 0 <= j <= self.k - 1:
            raise ValueError(f"w*k must be an integer in 0..{self.k - 1}, got w={self.w}")

    @property
    def index(self) -> int:
        return int(self.w * self.k)


def characteristics(k: int) -> list[ThetaCharacteristic]:
    """All k characteristics j/k, j = 0..k-1."""
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"level must be an integer >= 1, got {k!r}")
    return [ThetaCharacteristic(k, Fraction(j, k)) for j in range(k)]


@dataclass(frozen=True)
class HalfFormNormalization:
    """Scalar half-form factor; the model keeps it at 1 unless overridden."""

    constant: float = 1.0

    def __post_init__(self):
        if not self.constant > 0:
            raise ValueError(f"normalization must be positive, got {self.constant}")


def bs_points(k: int) -> list[Fraction]:
    """The k Bohr-Sommerfeld points b_j = j/k, increasing, exact rationals."""
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"level must be an integer >= 1, got {k!r}")
    return [Fraction(j, k) for j in range(k)]


def _window(k: int, w: float, z: complex, tau: complex, eps: float) -> int:
    """Half-width N of the summation window |n| <= N.

    The terms fall off like exp(-t*(n - center)^2) with t = pi*k*Im(tau);
    N is the smallest integer with the window edge at least
    sqrt(ln(1/eps)/t) past the Gaussian center, which leaves the omitted
    mass below eps times the largest retained term (geometric tail bound).
    """
    t = math.pi * k * tau.imag
    center = -w - z.imag / tau.imag
    spread = math.sqrt(max(math.log(1.0 / eps), 0.0) / t)
    n = max(2, math.ceil(1.0 + abs(center) + spread))
    if n > TRUNCATION_CAP:
        raise TruncationFailure(
            f"window half-width {n} exceeds the cap {TRUNCATION_CAP} "
            f"(k={k}, Im(tau)={tau.imag}, eps={eps})"
        )
    return n


def truncation_bound(ch: ThetaCharacteristic, z: complex, tau=1j, eps: float = DEFAULT_EPS) -> float:
    """Absolute bound on the dropped tail: eps times the peak term size."""
    tau = _tau_value(tau)
    z = complex(z)
    t = math.pi * ch.k * tau.imag
    shift = z.imag / tau.imag
    return eps * math.exp(t * shift * shift)


def theta_value(ch: ThetaCharacteristic, z: complex, tau=1j, eps: float = DEFAULT_EPS) -> complex:
    """Evaluate theta_w(z) by direct summation over the truncation window."""
    if not isinstance(ch, ThetaCharacteristic):
        raise TypeError(f"expected a ThetaCharacteristic, got {type(ch).__name__}")
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
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
    """Square evaluation matrix M[j][l] = norm * theta_{j/k}(b_l) = norm * c_j * omega^(j*l)."""

    k: int
    entries: np.ndarray = field(repr=False)
    tau: complex
    eps: float
    norm_constant: float = 1.0

    @property
    def nulls(self) -> np.ndarray:
        """The scaled theta-nulls norm * c_j: column b_0 = 0 of the matrix."""
        return self.entries[:, 0]

    def smallest_singular_value(self) -> float:
        """sqrt(k) * min_j |norm * c_j|, exact because F / sqrt(k) is unitary."""
        return math.sqrt(self.k) * float(np.abs(self.nulls).min())

    def log_smallest_singular_value(self) -> float:
        """Natural log of the smallest singular value, 0.5 * ln k + min_j ln|norm * c_j|."""
        return 0.5 * math.log(self.k) + float(np.log(np.abs(self.nulls)).min())

    def log_abs_determinant(self) -> float:
        """Natural log of |det M| = k^(k/2) * prod_j |norm * c_j|, as a sum of logarithms."""
        return 0.5 * self.k * math.log(self.k) + math.fsum(np.log(np.abs(self.nulls)))

    def determinant(self) -> complex:
        """det M = det F * prod_j norm * c_j, with det F = k^(k/2) * i^((k(k-1)/2 + (k-1)^2) mod 4).

        A plain complex number, so it underflows or overflows for large k;
        log_abs_determinant does not.
        """
        k = self.k
        phase = (1, 1j, -1, -1j)[(k * (k - 1) // 2 + (k - 1) ** 2) % 4]
        return phase * complex(np.prod(math.sqrt(k) * self.nulls))


def bpu_matrix(k: int, tau=1j, eps: float = DEFAULT_EPS, norm: HalfFormNormalization | float | None = None) -> ThetaBasisMatrix:
    """Evaluate every characteristic at every Bohr-Sommerfeld point.

    Row index = characteristic j/k, column index = point b_l.  Only the k
    theta-nulls c_j are summed, over the window of z = 0, which is the window
    of every real point; entry (j, l) is then norm * c_j * omega^(j*l).
    Raises TruncationFailure when some |norm * c_j| is below the smallest
    normal double, where the double-precision nulls are no longer accurate.
    """
    tau = _tau_value(tau)
    if norm is None:
        norm = HalfFormNormalization()
    elif not isinstance(norm, HalfFormNormalization):
        norm = HalfFormNormalization(float(norm))
    nulls = np.array([theta_value(ch, 0j, tau, eps) for ch in characteristics(k)])
    jl = np.outer(np.arange(k), np.arange(k)) % k
    dft = np.exp(2j * np.pi * jl / k)
    entries = norm.constant * (nulls[:, None] * dft)
    smallest = np.abs(entries[:, 0]).min()
    if smallest < sys.float_info.min:
        raise TruncationFailure(
            f"a scaled theta-null |norm * c_j| = {smallest} is below the normal double range "
            f"(k={k}, tau={tau}, norm={norm.constant}): the double-precision sums underflow, "
            f"at tau = i from about k = 900 on; log-scale nulls are ROADMAP item 4"
        )
    return ThetaBasisMatrix(k=k, entries=entries, tau=tau, eps=eps, norm_constant=norm.constant)

"""Desk-scale model of the complexified Bohr-Sommerfeld locus.

A point (b, s) sits on the level-u locus when k*b + u*s is an integer m (the
branch).  At u = 0 the locus collapses to the k real fiber points b = j/k;
for u != 0 the tracer samples the one-dimensional slice with s real in a
window, scanning b over a grid and taking for each branch the real s in the
window that minimises the residual |k*b + u*s - m|.  The squared residual
is a convex quadratic in s, so the minimiser is closed-form:
s* = clip((m - k*b) * Re(u) / |u|^2, s_min, s_max).  For real u it is the
exact root (m - k*b)/u clipped to the window; for non-real u and small tol
the slice with real s collapses to s = 0, b = m/k.  The order-k deck translation
b -> b + 1/k (mod 1), m -> m + 1 (adjusted on wraparound) permutes every
level set.

b coordinates are kept as exact fractions wherever the model produces them,
so translation orbits close exactly; the residual functions accept any real b.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

# Relative size of a band around tol, far wider than the rounding error of the
# double residual, inside which the on-locus test is decided in rationals.
_TIE_BAND = 1e-12


@dataclass(frozen=True)
class SupercyclePoint:
    """One sample of the locus: position b, complex parameter s, level u, branch m."""

    b: Fraction | float
    s: complex
    u: complex
    m: int

    def __post_init__(self):
        object.__setattr__(self, "s", complex(self.s))
        object.__setattr__(self, "u", complex(self.u))
        if not 0 <= self.b < 1:
            raise ValueError(f"b must lie in [0, 1), got {self.b}")
        if not isinstance(self.m, int):
            raise ValueError(f"branch m must be an integer, got {self.m!r}")


@dataclass(frozen=True)
class UCurveSlice:
    u: complex
    points: tuple[SupercyclePoint, ...]

    def __post_init__(self):
        object.__setattr__(self, "u", complex(self.u))
        object.__setattr__(self, "points", tuple(self.points))
        if any(p.u != self.u for p in self.points):
            raise ValueError("all points of a slice must share its u")


def _check_level(k):
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"level must be an integer >= 1, got {k!r}")


def complex_bs_residual(k: int, b, s: complex, u: complex) -> float:
    """Distance from k*b + u*s to the nearest integer branch."""
    _check_level(k)
    zeta = k * float(b) + complex(u) * complex(s)
    return math.hypot(zeta.real - round(zeta.real), zeta.imag)


def branch_residual(point: SupercyclePoint, k: int) -> float:
    """Distance from k*b + u*s to the point's own branch m."""
    _check_level(k)
    zeta = k * float(point.b) + point.u * point.s - point.m
    return abs(zeta)


def zero_level_fiber(k: int) -> UCurveSlice:
    """The u = 0 locus: exactly the k points b = j/k with s = 0, branch j."""
    _check_level(k)
    points = tuple(
        SupercyclePoint(b=Fraction(j, k), s=0j, u=0j, m=j) for j in range(k)
    )
    return UCurveSlice(u=0j, points=points)


def _minimize_residual(c: float, u: complex, lo: float, hi: float) -> float:
    """The real s in [lo, hi] that minimises |c + u*s|.

    |c + u*s|^2 = |u|^2 s^2 + 2 c Re(u) s + c^2 is a convex quadratic with its
    vertex at -c Re(u) / |u|^2, so the minimiser on the interval is that vertex
    clipped to it.  Adding 0.0 turns a vertex of -0.0 into 0.0.
    """
    vertex = -c * u.real / (u.real * u.real + u.imag * u.imag)
    return min(max(vertex, lo), hi) + 0.0


def _exact_residual_below(c: Fraction, u: complex, lo: float, hi: float, tol: float) -> bool:
    """Whether min over s in [lo, hi] of |c + u*s| is below tol, in rationals.

    u, lo, hi and tol are taken at their binary values.
    """
    ur, ui = Fraction(u.real), Fraction(u.imag)
    s = min(max(-c * ur / (ur * ur + ui * ui), Fraction(lo)), Fraction(hi))
    return (c + ur * s) ** 2 + (ui * s) ** 2 < Fraction(tol) ** 2


def trace_slice(k: int, u: complex, s_window: tuple[float, float], grid: int, tol: float) -> UCurveSlice:
    """Sample the level-u locus over b in [0,1) with s real in s_window.

    For every integer branch m reachable in the window and each of the `grid`
    values b = i/grid, s is the exact minimiser over the window of
    |k*b + u*s - m| (see _minimize_residual), and the candidate is on the
    locus when that smallest residual is below tol.  This test is exact at
    the binary values of u, s_window and tol: a double residual within
    rounding distance of tol is decided again in rationals.  For real u the
    slice thus holds exactly the grid pairs whose root (m - k*b)/u lies in
    s_window widened by tol/|u|.  Candidates closer than 10*tol in
    both b and s are deduplicated: sorted by (b, |s|, m), a candidate is
    dropped when an earlier kept one lies within 10*tol in both coordinates.
    Since s is the exact minimiser, the output depends only on the
    arguments.  Output is sorted by (m, b, |s|), with b an exact Fraction.
    """
    _check_level(k)
    u = complex(u)
    if u == 0 or not cmath.isfinite(u):
        raise ValueError(f"u must be finite and nonzero, got {u}; the u = 0 fiber is zero_level_fiber(k)")
    lo, hi = float(s_window[0]), float(s_window[1])
    if not (lo < hi and math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"s_window must be a finite increasing interval, got ({lo}, {hi})")
    if not isinstance(grid, int) or grid < 2:
        raise ValueError(f"grid must be an integer >= 2, got {grid!r}")
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol}")

    corners = [k * bb + u.real * s for bb in (0.0, 1.0) for s in (lo, hi)]
    # candidates as (b, |s|, m, s, i) with b = i / grid, the double nearest to
    # Fraction(i, grid); the Fraction is made only for the points kept
    candidates = []
    for m in range(math.ceil(min(corners)), math.floor(max(corners)) + 1):
        for i in range(grid):
            c = (k * i - m * grid) / grid
            s = _minimize_residual(c, u, lo, hi)
            r = math.hypot(c + u.real * s, u.imag * s)
            if abs(r - tol) <= _TIE_BAND * (abs(c) + abs(u) * abs(s) + tol):
                on_locus = _exact_residual_below(Fraction(k * i - m * grid, grid), u, lo, hi, tol)
            else:
                on_locus = r < tol
            if on_locus:
                candidates.append((i / grid, abs(s), m, s, i))

    # dedup at 10*tol in both coordinates, preferring smaller b then smaller |s|
    candidates.sort()
    kept = []
    for p in candidates:
        duplicate = False
        for q in reversed(kept):
            if p[0] - q[0] >= 10.0 * tol:
                break
            if abs(p[3] - q[3]) < 10.0 * tol:
                duplicate = True
                break
        if not duplicate:
            kept.append(p)
    kept.sort(key=lambda p: (p[2], p[0], p[1]))
    points = tuple(
        SupercyclePoint(b=Fraction(i, grid), s=complex(s, 0.0), u=u, m=m) for _, _, m, s, i in kept
    )
    return UCurveSlice(u=u, points=points)


def deck_translate(point: SupercyclePoint, k: int) -> SupercyclePoint:
    """Order-k symmetry b -> b + 1/k (mod 1), m -> m + 1, minus k on wraparound."""
    _check_level(k)
    if isinstance(point.b, Fraction):
        b = point.b + Fraction(1, k)
        if b >= 1:
            return SupercyclePoint(b=b - 1, s=point.s, u=point.u, m=point.m + 1 - k)
    else:
        b = point.b + 1.0 / k
        if b >= 1.0:
            return SupercyclePoint(b=b - 1.0, s=point.s, u=point.u, m=point.m + 1 - k)
    return SupercyclePoint(b=b, s=point.s, u=point.u, m=point.m + 1)

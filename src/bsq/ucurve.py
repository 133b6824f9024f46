"""Desk-scale model of the complexified Bohr-Sommerfeld locus.

A point (b, s) sits on the level-u locus when k*b + u*s is an integer m (the
branch).  At u = 0 the locus collapses to the k real fiber points b = j/k;
for u != 0 the tracer samples the one-dimensional slice with s real in a
window, with b on a grid, taking for each branch the real s in the window
that minimises the residual |k*b + u*s - m|.  The squared residual is a
convex quadratic in s, so the minimiser is closed-form:
s* = clip((m - k*b) * Re(u) / |u|^2, s_min, s_max).  For real u it is the
exact root (m - k*b)/u clipped to the window; for non-real u and small tol
the slice with real s collapses to s = 0, b = m/k.  The least residual is
convex in c = k*b - m, so the kept numerators of c over the grid form one
interval, found exactly in O(log width) tests; the tracer never visits the
grid points it does not keep.  The order-k deck translation b -> b + 1/k
(mod 1), m -> m + 1 (adjusted on wraparound) permutes every level set.

b coordinates are kept as exact fractions wherever the model produces them,
so translation orbits close exactly; the residual functions accept any real b.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, groupby


@dataclass(frozen=True)
class SupercyclePoint:
    """One sample of the locus: position b, complex parameter s, level u, branch m."""

    b: Fraction | float
    s: complex
    u: complex
    m: int

    def __post_init__(self):
        if type(self.s) is not complex:
            object.__setattr__(self, "s", complex(_number("s", self.s)))
        if type(self.u) is not complex:
            object.__setattr__(self, "u", complex(_number("u", self.u)))
        b = self.b
        # a Fraction's denominator is positive, so this is 0 <= b < 1 without a Fraction comparison
        if not (0 <= b.numerator < b.denominator if type(b) is Fraction else 0 <= _number("b", b, numbers.Real) < 1):
            raise ValueError(f"b must lie in [0, 1), got {b}")
        if type(self.m) is not int:
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


def _number(name: str, value, kind=numbers.Number):
    """value, if it is a number of the kind; a bool or a str raises ValueError.

    complex() and float() parse a str, and both read a bool as 0 or 1.
    """
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value


def _check_level(k):
    if type(k) is not int or k < 1:
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


def _exact_test(u: complex, lo: float, hi: float, tol: float, grid: int):
    """The on-locus test as a function of the integer C: whether the least |c + u*s|
    over s in [lo, hi] is below tol at c = C/grid.

    It is exact at the binary values of u, lo, hi and tol: each is written as
    an integer over one common denominator L, and the clip of the minimiser
    (see trace_slice) and the comparison with tol^2 are multiplied out to
    integer comparisons.
    """
    values = [Fraction(x) for x in (u.real, u.imag, lo, hi, tol)]
    scale = math.lcm(*(v.denominator for v in values))
    ur, ui, lo_l, hi_l, tol_l = (v.numerator * (scale // v.denominator) for v in values)
    square = scale * scale
    q = ur * ur + ui * ui  # |u|^2 L^2
    lo_side, hi_side = lo_l * grid * q, hi_l * grid * q
    vertex_bound, end_bound = (tol_l * grid) ** 2 * q, (tol_l * grid * scale) ** 2

    def below(numerator: int) -> bool:
        # the vertex -c Re(u) / |u|^2 times L * grid * q, the factor of lo_side and hi_side
        side = -numerator * ur * square
        if lo_side <= side <= hi_side:
            # at the vertex, |c + u*s|^2 = c^2 Im(u)^2 / |u|^2
            return (numerator * ui) ** 2 * square < vertex_bound
        end = lo_l if side < lo_side else hi_l
        return (numerator * square + ur * end * grid) ** 2 + (ui * end * grid) ** 2 < end_bound

    return below


def _kept_numerators(below, star: Fraction) -> tuple[int, int] | None:
    """The ends of the one interval of integers N with below(N), None if it is
    empty, given that the real star is a point of least residual.

    If any N is kept, floor(star) or ceil(star) is.  From it each end is
    galloped outward in doubling steps, then bisected by halving the last
    step, so the cost is O(log width) calls of below.
    """
    anchor = next((n for n in dict.fromkeys((math.floor(star), math.ceil(star))) if below(n)), None)
    if anchor is None:
        return None
    ends = []
    for step in (-1, 1):
        kept = anchor
        while below(kept + step):
            kept, step = kept + step, 2 * step
        # kept + step is not kept, and step is a power of two
        while abs(step) > 1:
            step //= 2
            if below(kept + step):
                kept += step
        ends.append(kept)
    return ends[0], ends[1]


def trace_slice(k: int, u: complex, s_window: tuple[float, float], grid: int, tol: float) -> UCurveSlice:
    """Sample the level-u locus over b in [0,1) with s real in s_window.

    For every integer branch m and each of the `grid` values b = i/grid, s
    is the exact minimiser over the window of |k*b + u*s - m|, and the
    candidate is on the locus when that smallest residual is below tol,
    decided exactly at the binary values of u, s_window and tol
    (_exact_test).  For real u the slice thus holds
    exactly the grid pairs whose root (m - k*b)/u lies in s_window widened
    by tol/|u|.

    The smallest residual depends on (i, m) only through N = k*i - m*grid,
    the numerator of c = k*b - m, and is convex in N, so the kept N form one
    interval for the whole slice, found once by galloping and bisection
    (_kept_numerators).  Each branch's kept indices follow by integer
    division, and only their points are made, one Fraction per kept index.
    The cost is O(log width) exact tests plus O(k + points) integer work.

    Candidates closer than 10*tol in both b and s are deduplicated: sorted by
    (b, |s|, m), a candidate is dropped when an earlier kept one lies within
    10*tol in both coordinates.  Since s is the exact minimiser, the output
    depends only on the arguments.  Output is sorted by (m, b, |s|), with b
    an exact Fraction.

    |u|^2 = Re(u)^2 + Im(u)^2, the divisor of the minimiser, must be a
    normal double; a u outside that range raises ValueError.  u, the ends of
    s_window and tol must be numbers, and not bools.
    """
    _check_level(k)
    u = complex(_number("u", u))
    if u == 0 or not cmath.isfinite(u):
        raise ValueError(f"u must be finite and nonzero, got {u}; the u = 0 fiber is zero_level_fiber(k)")
    if not sys.float_info.min <= u.real * u.real + u.imag * u.imag <= sys.float_info.max:
        raise ValueError(f"|u|^2 must lie in the normal double range, got u = {u}")
    lo, hi = (float(_number("s_window", end, numbers.Real)) for end in s_window)
    if not (lo < hi and math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"s_window must be a finite increasing interval, got ({lo}, {hi})")
    if type(grid) is not int or grid < 2:
        raise ValueError(f"grid must be an integer >= 2, got {grid!r}")
    if not (_number("tol", tol, numbers.Real) > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol}")

    below = _exact_test(u, lo, hi, tol, grid)
    # over c and s together |c + u*s| is least at s = clip(0, lo, hi), c = -Re(u)*s
    numerators = _kept_numerators(below, -Fraction(u.real) * Fraction(min(max(0.0, lo), hi)) * grid)
    if numerators is None:
        return UCurveSlice(u=u, points=())
    n_lo, n_hi = numerators
    # the branches m with some i in [0, grid - 1] meeting n_lo <= k*i - m*grid <= n_hi;
    # each has an interval of such i, and the intervals move up with m, so merged
    # in order they give the kept i in increasing order
    branch_range = range(-(n_hi // grid), (k * (grid - 1) - n_lo) // grid + 1)
    spans = []
    for m in branch_range:
        start, stop = max(-((-n_lo - m * grid) // k), 0), min((n_hi + m * grid) // k, grid - 1) + 1
        if spans and start <= spans[-1][1]:
            spans[-1][1] = max(spans[-1][1], stop)
        elif start < stop:
            spans.append([start, stop])
    indices = chain.from_iterable(range(start, stop) for start, stop in spans)

    # |c + u*s|^2 = |u|^2 s^2 + 2 c Re(u) s + c^2, c = k*b - m, is a convex quadratic
    # in s with its vertex at -c Re(u) / |u|^2, so s is that vertex clipped to the
    # window; adding 0.0 turns a vertex of -0.0 into 0.0
    ur, q = u.real, u.real * u.real + u.imag * u.imag
    # dedup at 10*tol in both coordinates, walking the candidates in (b, |s|, m)
    # order, b = i / grid the double nearest to Fraction(i, grid); kept_b and
    # kept_s hold the kept ones, and each is filed under its branch, so every
    # branch's points come in b order
    window = 10.0 * tol
    kept_b, kept_s = [], []
    branches = [[] for _ in branch_range]
    for b, run in groupby(indices, key=lambda i: i / grid):
        candidates = []
        for i in run:
            exact, ki = Fraction(i, grid), k * i
            for m in range(-((n_hi - ki) // grid), (ki - n_lo) // grid + 1):
                s = min(max(-((ki - m * grid) / grid) * ur / q, lo), hi) + 0.0
                candidates.append((abs(s), m, s, i, exact))
        candidates.sort()
        # the kept points within 10*tol in b are a suffix of them, the same for every candidate here
        first = len(kept_b)
        while first and b - kept_b[first - 1] < window:
            first -= 1
        near = kept_s[first:]
        for _, m, s, _, exact in candidates:
            for t in near:
                if abs(s - t) < window:
                    break
            else:
                near.append(s)
                kept_b.append(b)
                kept_s.append(s)
                branches[m - branch_range.start].append(SupercyclePoint(exact, complex(s, 0.0), u, m))
    return UCurveSlice(u=u, points=tuple(chain.from_iterable(branches)))


def deck_translate(point: SupercyclePoint, k: int) -> SupercyclePoint:
    """Order-k symmetry b -> b + 1/k (mod 1), m -> m + 1, minus k on wraparound.

    A float b is translated exactly and rounded once; a b that rounds up to
    1.0 wraps to 0.0, and the branch with it.
    """
    _check_level(k)
    exact = isinstance(point.b, Fraction)
    b, m = (point.b if exact else Fraction(float(point.b))) + Fraction(1, k), point.m + 1
    if b >= 1:
        b, m = b - 1, m - k
    if not exact:
        b = float(b)
        if b == 1.0:
            b, m = 0.0, m - k
    return SupercyclePoint(b=b, s=point.s, u=point.u, m=m)

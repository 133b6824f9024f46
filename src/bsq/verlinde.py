"""SU(2) Verlinde dimensions with a certified integrality check.

The rank of the level-k quantization over a genus-g surface is

    dim(g, k) = ((k+2)/2)^(g-1) * sum_{n=1..k+1} sin(n*pi/(k+2))^(-(2g-2))

Each term is computed with mpmath's low-level functions at prec bits.  Every
term is at least 1 with a prec-bit significand, so it is an integer multiple
of 2^-(prec-1): the terms are added exactly, as Python integers in that fixed
point, each as soon as it is made, and the total is rounded to prec bits
once.  The sum holds one term at a time, so its memory does not grow with k.
An explicit rounding-error budget of (8g + 8) * 2^-prec relative certifies
that the nearest integer is the exact value.  The working precision prec is
chosen before the sum by working_precision, from a double-precision estimate
of its size, in math alone and over the same folded half of the terms: the
fewest bits, and at least 96, at which the budget certifies.  The result
records the precision it ran at.  If the certificate fails the computation
raises instead of returning a non-integral answer; tests reach that path by
substituting the rule.  No exact cyclotomic arithmetic is attempted here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import mpmath

# Documented aliases: a level is an integer k >= 1, a genus an integer g >= 1.
QuantizationLevel = int
Genus = int

DEFAULT_PRECISION = 96


class IntegralityFailure(ArithmeticError):
    """The computed sum cannot be certified to round to an integer."""


@dataclass(frozen=True)
class VerlindeValue:
    """A certified dimension: |raw_sum - dim| <= error_bound < 0.5, summed at precision bits."""

    dim: int
    raw_sum: mpmath.mpf
    error_bound: float
    precision: int


def _check_genus_and_level(g, k):
    if type(g) is not int or g < 1:
        raise ValueError(f"genus must be an integer >= 1, got {g!r}")
    if type(k) is not int or k < 1:
        raise ValueError(f"level must be an integer >= 1, got {k!r}")


def working_precision(g: Genus, k: QuantizationLevel) -> int:
    """The fewest bits, at least DEFAULT_PRECISION, at which the budget certifies.

    The certificate needs (8g + 8) * 2^-prec * raw_sum < 0.5.  log2(raw_sum)
    is estimated in double precision relative to the largest term, the one at
    n = 1, so the estimate is off by far less than a bit.  Terms n and k+2-n
    are equal, so the sum runs over m = 1..(k+2)//2 and counts each term
    twice, except the middle one when k is even.  It holds one term at a
    time, so the estimate needs no memory that grows with k.
    """
    _check_genus_and_level(g, k)
    kk = k + 2
    expo = 2 * g - 2
    base = math.sin(math.pi / kk)
    top = -expo * math.log2(base)
    half = sum((base / math.sin(math.pi * m / kk)) ** expo for m in range(1, kk // 2 + 1))
    total = 2 * half - (base**expo if kk % 2 == 0 else 0)
    log2_raw = (g - 1) * math.log2(kk / 2) + top + math.log2(total)
    # the budget equals 0.5 * 2^(need - prec)
    need = log2_raw + math.log2(8 * g + 8) + 1
    return max(DEFAULT_PRECISION, math.floor(need) + 1)


def verlinde_dim(g: Genus, k: QuantizationLevel) -> VerlindeValue:
    """Evaluate the dimension formula and certify integrality.

    The working precision prec, in significand bits, is working_precision(g, k).
    The returned error_bound is an absolute bound on |raw_sum - exact value|
    derived from per-operation rounding budgets, so dim = round(raw_sum) is
    certified whenever error_bound < 0.5, and precision is the prec the sum
    ran at.  An IntegralityFailure is a defect of working_precision.

    Terms n and k+2-n are equal, so each of the k // 2 + 1 distinct terms
    is computed once and added, twice unless it is the middle one, to one
    exact fixed-point Python integer; raw_sum is that total rounded once to
    prec bits, times the prefactor.  No term is kept once it is added, so
    the memory the sum needs does not grow with k.
    """
    import mpmath
    from mpmath.libmp import from_int, mpf_div, mpf_pow_int, mpf_sin_pi

    _check_genus_and_level(g, k)
    prec = working_precision(g, k)

    kk = k + 2
    expo = 2 * g - 2
    # fold onto (0, 1/2] where sin(pi*y) is well conditioned:
    # sin(n*pi/kk) = sin((kk-n)*pi/kk), so terms n and kk-n are one value.
    # Each term is sinpi(mpf(m) / kk) ** -expo, by the libmp calls that makes.
    # It is >= 1 with at most prec significand bits, so its exponent is at
    # least 1 - prec and it is an integer multiple of 2^-shift: the total,
    # in those units, is exact.
    shift = prec - 1
    kk_mpf = from_int(kk)
    total = 0
    for m in range(1, kk // 2 + 1):
        y = mpf_div(from_int(m), kk_mpf, prec, "n")
        _, man, exp, _ = mpf_pow_int(mpf_sin_pi(y, prec, "n"), -expo, prec, "n")
        term = int(man) << (exp + shift)
        total += term if 2 * m == kk else 2 * term

    with mpmath.workprec(prec):
        prefactor = mpmath.mpf(kk) ** (g - 1) / mpmath.mpf(2) ** (g - 1)
        raw_sum = prefactor * mpmath.mpf((total, -shift))
        # Rounding budget, in units of 2^-prec relative error: the folded
        # argument costs 1, sinpi amplifies it by at most |pi*y*cot(pi*y)| <= 1
        # and adds 1, the power multiplies by expo and adds 1, the exact sum
        # adds only its one rounding, 1, the prefactor and final product ~4.
        # (4g + 4) covers it; doubled for slack.  An exact sum only removes
        # error, so the budget is not cut to fit it: that would change the
        # error_bound and precision every document records.
        rel_bound = mpmath.mpf(8 * g + 8) * mpmath.mpf(2) ** (-prec)
        error_bound = float(raw_sum * rel_bound)
        nearest = mpmath.nint(raw_sum)
        delta = abs(raw_sum - nearest)
        dim = int(nearest)

    if error_bound >= 0.5:
        raise IntegralityFailure(f"error bound {error_bound} >= 0.5 at g={g}, k={k}, prec={prec}; "
                                 f"working_precision chose too few bits for g={g}, k={k}, a defect to report")
    if delta > error_bound:
        raise IntegralityFailure(
            f"sum {mpmath.nstr(raw_sum, 25)} is {mpmath.nstr(delta, 5)} away from the nearest "
            f"integer, beyond the certified bound {error_bound} (g={g}, k={k}, prec={prec})"
        )
    return VerlindeValue(dim=dim, raw_sum=raw_sum, error_bound=error_bound, precision=prec)

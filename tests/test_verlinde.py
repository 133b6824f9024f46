import math
import random
import tracemalloc
from fractions import Fraction

import mpmath
import pytest

import bsq.verlinde
from bsq.verlinde import DEFAULT_PRECISION, IntegralityFailure, verlinde_dim, working_precision

from _oracles import (
    DUMBBELL2,
    K4,
    THETA2,
    oracle_bernoulli,
    oracle_count,
    oracle_fusion_dimension,
    oracle_verlinde_dim,
)


@pytest.mark.parametrize(
    "g, k, expected",
    [
        (1, 5, 6),
        (2, 1, 4),   # frozen from the brute-force weight oracle
        (2, 2, 10),
        (3, 1, 8),
    ],
)
def test_known_dimensions(g, k, expected):
    value = verlinde_dim(g, k)
    assert value.dim == expected, f"dim({g},{k}) = {value.dim}, expected {expected}"


@pytest.mark.parametrize("k", range(1, 21))
def test_genus_one_collapses_to_k_plus_one(k):
    assert verlinde_dim(1, k).dim == k + 1


@pytest.mark.parametrize("k", range(1, 7))
def test_genus2_matches_weight_oracle(k):
    expected = oracle_count(*THETA2, k)
    assert oracle_count(*DUMBBELL2, k) == expected
    assert verlinde_dim(2, k).dim == expected


@pytest.mark.parametrize("k", range(1, 4))
def test_genus3_matches_weight_oracle(k):
    assert verlinde_dim(3, k).dim == oracle_count(*K4, k)


def test_certificate_bounds():
    for g in range(1, 5):
        for k in range(1, 11):
            v = verlinde_dim(g, k)
            assert v.raw_sum > 0
            assert v.error_bound < 0.5
            assert abs(v.raw_sum - v.dim) <= v.error_bound, (
                f"g={g}, k={k}: raw sum {v.raw_sum} strays from {v.dim} "
                f"beyond {v.error_bound}"
            )


def test_raw_sum_monotone_in_level():
    for g in range(2, 5):
        previous = 0
        for k in range(1, 11):
            current = verlinde_dim(g, k).raw_sum
            assert current > previous, f"raw sum not increasing at g={g}, k={k}"
            previous = current


def _verlinde_at(monkeypatch, g, k, prec):
    """verlinde_dim(g, k) run at prec bits, with the precision rule substituted."""
    with monkeypatch.context() as patch:
        patch.setattr(bsq.verlinde, "working_precision", lambda g, k: prec)
        return verlinde_dim(g, k)


@pytest.mark.parametrize("g, k", [(2, 3), (3, 5), (4, 8), (5, 12)])
def test_doubled_precision_gives_same_dim(monkeypatch, g, k):
    base = _verlinde_at(monkeypatch, g, k, DEFAULT_PRECISION)
    doubled = _verlinde_at(monkeypatch, g, k, 2 * DEFAULT_PRECISION)
    assert base.dim == doubled.dim
    assert doubled.error_bound < base.error_bound


@pytest.mark.parametrize("g, k", [(0, 1), (1, 0), (-2, 3), (2, -1)])
def test_rejects_bad_genus_or_level(g, k):
    with pytest.raises(ValueError):
        verlinde_dim(g, k)


def test_integrality_failure_when_bound_blows_up(monkeypatch):
    # at 64 bits the certified error for this genus tops 0.5 long before
    # the sum loses integrality, and the call must refuse rather than round
    with pytest.raises(IntegralityFailure, match=r"^error bound \S+ >= 0\.5 at g=50, k=24, prec=64; "):
        _verlinde_at(monkeypatch, 50, 24, 64)


def test_a_default_precision_that_fails_is_reported_as_a_defect(monkeypatch):
    # the caller chose no precision, so there is none to raise: the rule chose too few bits
    monkeypatch.setattr(bsq.verlinde, "working_precision", lambda g, k: 64)
    with pytest.raises(IntegralityFailure, match=r"prec=64; working_precision chose too few bits for g=50, k=24"):
        verlinde_dim(50, 24)


@pytest.mark.parametrize("g", range(1, 11))
def test_the_value_records_the_precision_it_ran_at(monkeypatch, g):
    for k in (1, 2, 7, 12, 50, 200, 1106):
        bits = working_precision(g, k)
        assert verlinde_dim(g, k).precision == bits, (g, k)
        assert _verlinde_at(monkeypatch, g, k, bits + 17).precision == bits + 17, (g, k)
    assert verlinde_dim(10, 50).precision == 124
    assert verlinde_dim(6, 200).precision == 102


def test_default_precision_is_96_exactly_where_96_bits_certify(monkeypatch):
    for g in range(1, 13):
        for k in (1, 2, 3, 5, 8, 13, 21, 34, 50, 89, 144, 200):
            try:
                _verlinde_at(monkeypatch, g, k, DEFAULT_PRECISION)
                certifies = True
            except IntegralityFailure:
                certifies = False
            assert (working_precision(g, k) == DEFAULT_PRECISION) == certifies, (g, k)


# the last four are the pairs with g >= 2 and k <= 3000 whose unrounded bit
# count, log2(raw_sum) + log2(8g + 8) + 1, lies nearest an integer
@pytest.mark.parametrize(
    "g, k, bits",
    [(10, 50, 124), (6, 200, 102), (15, 1630, 397), (6, 1106, 138), (6, 2214, 153), (6, 552, 124)],
)
def test_default_precision_certifies_beyond_96_bits(monkeypatch, g, k, bits):
    with pytest.raises(IntegralityFailure):
        _verlinde_at(monkeypatch, g, k, DEFAULT_PRECISION)
    assert working_precision(g, k) == bits
    value = verlinde_dim(g, k)
    assert value.error_bound < 0.5
    assert value.dim == _verlinde_at(monkeypatch, g, k, 2 * bits).dim


def test_default_precision_matches_the_fusion_rule_dimension():
    assert verlinde_dim(10, 50).dim == oracle_fusion_dimension(10, 50)


# Captured before the terms were shared between mirror pairs: the exact
# mpf of raw_sum (sign, mantissa, exponent, bit count), the 25-digit string
# the CLI writes, and repr(error_bound).
PINNED = [
    (2, 1000, "(0, 167668501, 0, 28)", "167668501.0", "5.079057618274949e-20"),
    (3, 2000, "(0, 49161243200610508058627407871, -37, 96)", "357695121788205201.0", "1.444719091542956e-10"),
    (4, 1250, "(0, 65523940026144415403290656763, -15, 96)", "1999631958805676739602376.0", "0.001009556145364679"),
    (6, 200, "(0, 813596651738831628893925212831, -5, 100)", "2.542489536683848840293516e+28", "0.28079388363927205"),
    (10, 50, "(0, 12221384075991844268503083680332054523, -7, 124)", "9.547956309368628334768034e+34", "0.39506961836534155"),
    (1, 5, "(0, 3, 1, 2)", "6.0", "1.2116903504194741e-27"),
]


@pytest.mark.parametrize("g, k, mpf_bits, text, bound", PINNED)
def test_raw_sum_and_error_bound_are_pinned_bit_for_bit(g, k, mpf_bits, text, bound):
    value = verlinde_dim(g, k)
    assert str(value.raw_sum._mpf_) == mpf_bits
    assert mpmath.nstr(value.raw_sum, 25) == text
    assert repr(value.error_bound) == bound


# (2, 20000) captured from the mpf loop before the sum ran in integers.
def test_raw_sum_at_level_20000_is_pinned_bit_for_bit():
    value = verlinde_dim(2, 20000)
    assert str(value.raw_sum._mpf_) == "(0, 48052808865184795746231123969, -55, 96)"
    assert mpmath.nstr(value.raw_sum, 25) == "1333733370001.0"
    assert repr(value.error_bound) == "4.0401796361566446e-16"


def _differential_grid():
    """Every genus 1..12 at k = 1, 2 and two levels drawn log-uniformly up to
    3000, one with k + 2 odd and one with k + 2 even, plus the top of the range."""
    rng = random.Random(2024)
    grid = [(2, 2999), (12, 3000)]
    for g in range(1, 13):
        grid += [(g, 1), (g, 2)]
        for parity in (0, 1):
            k = int(math.exp(rng.uniform(math.log(3), math.log(2999))))
            grid.append((g, k + (k + parity) % 2))
    return grid


# The oracle is Neumaier's compensated loop over mpf objects, which shares no
# summation code with the exact integer sum of bsq.verlinde; rounded once, the
# exact sum gives the same raw_sum bit for bit.
@pytest.mark.parametrize("g, k", _differential_grid())
def test_integer_sum_matches_the_mpf_loop_bit_for_bit(monkeypatch, g, k):
    for prec in sorted({64, 96, working_precision(g, k), 200}):
        try:
            expected = oracle_verlinde_dim(g, k, prec)
        except IntegralityFailure:
            with pytest.raises(IntegralityFailure):
                _verlinde_at(monkeypatch, g, k, prec)
            continue
        value = _verlinde_at(monkeypatch, g, k, prec)
        assert value.raw_sum._mpf_ == expected[1]._mpf_, (g, k, prec)
        assert (value.dim, value.error_bound) == (expected[0], expected[2]), (g, k, prec)


# Zagier's closed forms, with N = k + 2, share no code with the sine sum.
@pytest.mark.parametrize("k", [999, 1000, 20000])
def test_exact_sum_matches_the_closed_forms_at_large_level(k):
    n = k + 2
    assert verlinde_dim(2, k).dim == n * (n * n - 1) // 6
    assert verlinde_dim(3, k).dim == n * n * (n * n - 1) * (n * n + 11) // 180


def test_sum_memory_does_not_grow_with_the_level():
    verlinde_dim(3, 20000)  # loads mpmath and fills its caches outside the trace
    tracemalloc.start()
    try:
        verlinde_dim(3, 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, f"peak {peak} bytes over 10,001 distinct terms"


# The shape of the dimension.  For fixed g, dim(g, k) is a polynomial P in k of
# degree 3g - 3 (the Ehrhart polynomial of the labelling polytope of a trivalent
# graph, Jeffrey and Weitsman).  P is interpolated from k = 1..3g - 2 alone; its
# leading coefficient is the volume term 2^(g-1) |B_(2g-2)| / (2g-2)! (Witten),
# and Ehrhart reciprocity gives P(-k) = (-1)^(3g-3) P(k - 4) and zeros at -1, -2, -3.


def _differences(values):
    """The forward differences of values at k = 1, 2, ...: P(x) = sum_j d_j C(x - 1, j)."""
    diffs, row = [], list(values)
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return diffs


def _evaluate(diffs, x):
    total, binom = Fraction(0), Fraction(1)
    for j, d in enumerate(diffs):
        total += d * binom
        binom = binom * (x - 1 - j) / (j + 1)
    return total


def _leading(diffs):
    return Fraction(diffs[-1], math.factorial(len(diffs) - 1))


def _volume_term(g):
    return Fraction(2 ** (g - 1)) * abs(oracle_bernoulli(2 * g - 2)[-1]) / math.factorial(2 * g - 2)


def test_bernoulli_oracle_recurrence():
    b = oracle_bernoulli(12)
    assert b[:5] == [1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30)]
    assert b[10:] == [Fraction(5, 66), 0, Fraction(-691, 2730)]


@pytest.mark.parametrize("g", range(2, 11))
def test_dimension_is_a_polynomial_with_the_volume_and_reciprocity(g):
    degree = 3 * g - 3
    diffs = _differences([verlinde_dim(g, k).dim for k in range(1, degree + 2)])
    assert _leading(diffs) == _volume_term(g)
    assert _evaluate(diffs, 0) == 1
    assert [_evaluate(diffs, x) for x in (-1, -2, -3)] == [0, 0, 0]
    for k in range(12):
        assert _evaluate(diffs, -k) == (-1) ** degree * _evaluate(diffs, k - 4), k
    for k in (3 * g - 1, 3 * g + 2, 60):
        assert _evaluate(diffs, k) == verlinde_dim(g, k).dim, k


@pytest.mark.parametrize("g", [2, 5, 10])
def test_leading_coefficient_check_sees_one_value_off_by_one(g):
    values = [verlinde_dim(g, k).dim for k in range(1, 3 * g - 1)]
    assert _leading(_differences(values)) == _volume_term(g)
    values[g] += 1
    assert _leading(_differences(values)) != _volume_term(g)

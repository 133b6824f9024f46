import pytest

from bsq.verlinde import DEFAULT_PRECISION, IntegralityFailure, verlinde_dim, working_precision

from _oracles import DUMBBELL2, K4, THETA2, oracle_count, oracle_fusion_dimension


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


@pytest.mark.parametrize("g, k", [(2, 3), (3, 5), (4, 8), (5, 12)])
def test_doubled_precision_gives_same_dim(g, k):
    base = verlinde_dim(g, k, prec=DEFAULT_PRECISION)
    doubled = verlinde_dim(g, k, prec=2 * DEFAULT_PRECISION)
    assert base.dim == doubled.dim
    assert doubled.error_bound < base.error_bound


@pytest.mark.parametrize("g, k", [(0, 1), (1, 0), (-2, 3), (2, -1)])
def test_rejects_bad_genus_or_level(g, k):
    with pytest.raises(ValueError):
        verlinde_dim(g, k)


def test_rejects_precision_below_floor():
    with pytest.raises(ValueError):
        verlinde_dim(2, 2, prec=32)


def test_integrality_failure_when_bound_blows_up():
    # at 64 bits the certified error for this genus tops 0.5 long before
    # the sum loses integrality, and the call must refuse rather than round
    with pytest.raises(IntegralityFailure):
        verlinde_dim(50, 24, prec=64)


def test_default_precision_is_96_exactly_where_96_bits_certify():
    for g in range(1, 13):
        for k in (1, 2, 3, 5, 8, 13, 21, 34, 50, 89, 144, 200):
            try:
                verlinde_dim(g, k, prec=DEFAULT_PRECISION)
                certifies = True
            except IntegralityFailure:
                certifies = False
            assert (working_precision(g, k) == DEFAULT_PRECISION) == certifies, (g, k)


@pytest.mark.parametrize("g, k, bits", [(10, 50, 124), (6, 200, 102)])
def test_default_precision_certifies_beyond_96_bits(g, k, bits):
    with pytest.raises(IntegralityFailure):
        verlinde_dim(g, k, prec=DEFAULT_PRECISION)  # an explicit precision is used as given
    assert working_precision(g, k) == bits
    value = verlinde_dim(g, k)
    assert value.error_bound < 0.5
    assert value.dim == verlinde_dim(g, k, prec=2 * bits).dim


def test_default_precision_matches_the_fusion_rule_dimension():
    assert verlinde_dim(10, 50).dim == oracle_fusion_dimension(10, 50)

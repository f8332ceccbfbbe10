from fractions import Fraction

import pytest

from rsize.exactmath import binomial, cost_per_stripe, limit_constant, merge_profitable

from oracles import scan_limit_constant


def test_binomial_basics():
    assert binomial(5, 2) == 10
    assert binomial(0, 0) == 1
    assert binomial(4, 0) == 1
    assert binomial(4, 4) == 1
    # the convention that keeps boundary cost formulas uniform
    assert binomial(1, 2) == 0
    assert binomial(0, 2) == 0


def test_binomial_rejects_negatives():
    with pytest.raises(ValueError):
        binomial(-1, 2)
    with pytest.raises(ValueError):
        binomial(3, -1)


def test_binomial_large_values_are_exact():
    # far beyond 2^53; must be exact integers, not floats
    v = binomial(400, 200)
    assert v % 2 == 0 or v % 2 == 1
    assert binomial(400, 200) == binomial(399, 199) + binomial(399, 200)


def test_cost_per_stripe_examples():
    assert cost_per_stripe(5, 1) == 10
    assert cost_per_stripe(6, 2) == 14
    assert cost_per_stripe(7, 2) == 18 == 4 * 7 - 10


def test_cost_per_stripe_is_exact_fraction():
    q = cost_per_stripe(5, 2)
    assert q == Fraction(21, 2)


def test_cost_per_stripe_rejects_bad_args():
    with pytest.raises(ValueError):
        cost_per_stripe(5, 0)
    with pytest.raises(ValueError):
        cost_per_stripe(2, 1)


@pytest.mark.parametrize("n", range(4, 31))
def test_integer_minimum_of_stripe_cost(n):
    # minimum over integer x is 4n - 10, attained only at (n-3)/2 or (n-2)/2
    values = {x: cost_per_stripe(n, x) for x in range(1, 2 * n + 1)}
    lo = min(values.values())
    assert lo == 4 * n - 10
    argmins = {x for x, v in values.items() if v == lo}
    allowed = {x for x in ((n - 3) / 2, (n - 2) / 2) if x == int(x)}
    assert argmins == {int(x) for x in allowed}


def test_limit_constant_examples():
    assert limit_constant(4, 10) == (Fraction(1), 1)
    assert limit_constant(6, 20) == (Fraction(14, 15), 2)
    assert limit_constant(2, 10) == (Fraction(1), 1)


def test_limit_constant_closed_form_agreement():
    # the op cross-checks scan vs closed form internally and raises on
    # mismatch, so surviving the call is the assertion for n >= 4
    for n in range(4, 21):
        value, argmin = limit_constant(n, 2 * n)
        assert value == Fraction(4 * (2 * n - 5), n * (n - 1))
        assert 1 <= argmin <= n


def test_limit_constant_matches_full_scan():
    # the walk stops at the first t the next one does not beat; the oracle
    # scans every t, so value and first argmin must both agree
    for n in range(2, 41):
        for t_max in (n, n + 1, 2 * n, 7 * n + 5):
            assert limit_constant(n, t_max) == scan_limit_constant(n, t_max), (n, t_max)


def test_limit_constant_rejects_bad_args():
    with pytest.raises(ValueError):
        limit_constant(1, 10)
    with pytest.raises(ValueError):
        limit_constant(6, 5)


def test_merge_profitable_examples():
    assert merge_profitable(7, 2, 2) is True
    assert merge_profitable(4, 1, 1) is True
    assert merge_profitable(4, 2, 2) is False


def test_merge_profitable_iff_grid():
    # both the cost comparison and the product test are computed inside and
    # compared; any divergence on this grid would raise ArithmeticError
    for n in range(2, 61):
        for a in range(1, 61):
            for b in range(1, 61):
                got = merge_profitable(n, a, b)
                assert got == (a * b <= binomial(n - 2, 2))


def test_merge_profitable_rejects_bad_args():
    with pytest.raises(ValueError):
        merge_profitable(1, 1, 1)
    with pytest.raises(ValueError):
        merge_profitable(5, 0, 1)

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsize.errors import RequestError
from rsize.exactmath import binomial
from rsize.values import (
    Flavor,
    PartitionWitness,
    bounds,
    equality_condition,
    g,
    g_hat,
    g_hat_values,
    g_r,
    g_values,
    iter_partitions,
    part_cost,
    size_ramsey,
    structural_witness,
)

from oracles import brute_min_cost, min_cost_rows


def _solver(flavor, n, r=None):
    """(single-value call, total for t) for one flavor."""
    if flavor is Flavor.G:
        return (lambda t: g(n, t)), (lambda t: t)
    if flavor is Flavor.GHAT:
        return (lambda t: g_hat(n, t)), (lambda t: 2 * t)
    return (lambda t: g_r(n, r, t)), (lambda t: t)


def _dp(flavor, n, total, r=None):
    return min_cost_rows(lambda s: part_cost(flavor, n, s, r), total)


# ---------------------------------------------------------------- oracle grid

def test_g_matches_partition_bruteforce():
    for n in range(2, 9):
        for t in range(1, 7):
            want = brute_min_cost(lambda s: binomial(n + 2 * s - 2, 2), t)
            assert g(n, t).value == want, (n, t)


def test_g_hat_matches_partition_bruteforce():
    for n in range(2, 9):
        for t in range(1, 6):
            want = brute_min_cost(lambda s: binomial(n + s - 2, 2), 2 * t)
            assert g_hat(n, t).value == want, (n, t)


def test_g_r_matches_partition_bruteforce():
    for r in (2, 3, 4):
        for n in range(r, r + 4):
            for t in range(1, 6):
                want = brute_min_cost(lambda s: binomial(n + r * (s - 1), r), t)
                assert g_r(n, r, t).value == want, (n, r, t)


def test_g_r_with_r2_collapses_to_g():
    for n in range(2, 12):
        for t in range(1, 8):
            assert g_r(n, 2, t).value == g(n, t).value


# --------------------------------------------------------- DP oracle grid

def test_values_and_parts_match_dp_oracle_grid():
    cases = [(Flavor.G, n, None) for n in range(2, 22)]
    cases += [(Flavor.GHAT, n, None) for n in range(2, 22)]
    cases += [(Flavor.GR, n, r) for r in (3, 4, 5) for n in range(r, r + 9)]
    for flavor, n, r in cases:
        solve, total_of = _solver(flavor, n, r)
        value, parts = _dp(flavor, n, total_of(100), r)
        for t in range(1, 101):
            res = solve(t)
            total = total_of(t)
            got = (res.value, res.witness.parts)
            assert got == (value[total], parts[total]), (flavor, n, r, t)


def test_row_helpers_match_dp_oracle():
    for n in range(2, 25):
        value, _ = _dp(Flavor.G, n, 150)
        assert g_values(n, 150) == value, n
        value, _ = _dp(Flavor.GHAT, n, 300)
        assert g_hat_values(n, 150) == value[::2], n


def test_row_helpers_refuse_a_bad_t_max():
    assert g_values(4, 0) == g_hat_values(4, 0) == [0]
    for call in (lambda: g_values(4, 0.5), lambda: g_values(4, -3), lambda: g_hat_values(4, -1)):
        with pytest.raises(RequestError):
            call()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    flavor=st.sampled_from(list(Flavor)),
    n=st.integers(2, 40),
    r=st.integers(3, 6),
    t=st.integers(1, 300),
)
def test_solver_matches_dp_oracle_differential(flavor, n, r, t):
    r = r if flavor is Flavor.GR else None
    n = max(n, r or 2)
    solve, total_of = _solver(flavor, n, r)
    value, parts = _dp(flavor, n, total_of(t), r)
    res = solve(t)
    assert (res.value, res.witness.parts) == (value[-1], parts[-1])


# ------------------------------------------------------------- pinned values

def test_pinned_small_values():
    # brute-forced over partitions, frozen here
    assert g(5, 2).value == 20 and g(5, 2).witness.parts == (1, 1)
    assert g(6, 2).value == 28 and g(6, 2).witness.parts == (2,)
    assert g(5, 3).value == 30 and g(5, 3).witness.parts == (1, 1, 1)
    assert g_hat(4, 2).value == 12 and g_hat(4, 2).witness.parts == (2, 2)
    assert g_r(4, 3, 2).value == 8 and g_r(4, 3, 2).witness.parts == (1, 1)


def test_degenerate_families():
    for t in range(1, 41):
        assert g(2, t).value == t
        assert g_hat(2, t).value == 0
        assert g(3, t).value == 3 * t
        assert g_hat(3, t).value == 2 * t
        assert g_r(3, 3, t).value == t


def test_size_ramsey_single_clique_regime():
    # for n large relative to t one clique wins outright
    assert size_ramsey(7, 2).value == binomial(9, 2) == 36
    for t in range(1, 11):
        for n in range(4 * t - 1, 4 * t + 11):
            assert size_ramsey(n, t).value == binomial(n + 2 * t - 2, 2), (n, t)


def test_two_stripe_crossover():
    # two separate cliques until n = 5, one bigger clique from n = 6 on
    for n in range(2, 6):
        assert g(n, 2).value == 2 * binomial(n, 2)
    for n in range(6, 41):
        assert g(n, 2).value == binomial(n + 2, 2)


# ---------------------------------------------------------------- witnesses

def test_witness_invariants_on_grid():
    for n in range(2, 16):
        for t in range(1, 12):
            for res in (g(n, t), g_hat(n, t)):
                w = res.witness
                assert w.parts == tuple(sorted(w.parts, reverse=True))
                assert all(s >= 1 for s in w.parts)
                assert sum(w.parts) == w.target_sum
                assert w.target_sum == (t if w.flavor is Flavor.G else 2 * t)
                assert res.value == w.objective


def test_witness_tie_break_prefers_fewest_parts():
    # g_hat(4, 2) is achieved by (2,2), (2,1,1) and (1,1,1,1); fewest wins
    costs = {p: sum(part_cost(Flavor.GHAT, 4, s) for s in p) for p in iter_partitions(4)}
    achievers = [p for p, c in costs.items() if c == 12]
    assert set(achievers) == {(2, 2), (2, 1, 1), (1, 1, 1, 1)}
    assert g_hat(4, 2).witness.parts == (2, 2)


def test_witness_validation_rejects_bad_witnesses():
    with pytest.raises(ValueError):
        PartitionWitness(flavor=Flavor.G, n=5, parts=(1, 2), objective=20, target_sum=3)
    with pytest.raises(ValueError):
        PartitionWitness(flavor=Flavor.G, n=5, parts=(2, 1), objective=99, target_sum=3)
    with pytest.raises(ValueError):
        PartitionWitness(flavor=Flavor.G, n=5, parts=(2, 1), objective=31, target_sum=4)
    with pytest.raises(ValueError):
        PartitionWitness(flavor=Flavor.G, n=5, parts=(), objective=0, target_sum=0)


# ----------------------------------------------------- structural cross-route

def test_structural_witness_examples():
    w = structural_witness(10, 6)
    assert w.parts == (3, 3) and w.objective == 182
    w = structural_witness(5, 3)
    assert w.parts == (1, 1, 1) and w.objective == 30
    for n in range(2, 30):
        w = structural_witness(n, 1)
        assert w.parts == (1,) and w.objective == binomial(n, 2)


def test_structural_witness_agrees_with_dp_everywhere():
    for n in range(2, 41):
        value, parts = _dp(Flavor.G, n, 20)
        for t in range(1, 21):
            w = structural_witness(n, t)
            assert (w.objective, w.parts) == (value[t], parts[t]), (n, t)


# ------------------------------------------------- condition, bounds, shape

def test_equality_condition_examples():
    assert equality_condition(10, 4) is True
    assert g(10, 4).value == binomial(16, 2) == 120
    assert equality_condition(10, 6) is False
    assert g(10, 6).value == 182 < binomial(20, 2)
    assert equality_condition(10, 5) is True
    assert g(10, 5).value == binomial(18, 2) == 153


def test_equality_condition_iff_dp_small_grid():
    for n in range(2, 25):
        row = g_values(n, 25)
        for t in range(1, 25):
            assert equality_condition(n, t) == (row[t] == binomial(n + 2 * t - 2, 2))


def test_bounds_examples():
    assert bounds(5, 3) == (30, 30)
    assert bounds(6, 2) == (28, 28)
    assert bounds(7, 5) == (90, 108)
    lower, upper = bounds(3, 4)
    assert lower == 8 and upper is None


def test_bounds_sandwich_g():
    for n in range(4, 31):
        row = g_values(n, 30)
        for t in range(1, 31):
            lower, upper = bounds(n, t)
            assert lower <= row[t] <= upper, (n, t)


def test_bounds_lower_tight_on_divisible_even_cases():
    for n in range(4, 31, 2):
        block = (n - 2) // 2
        for mult in range(1, 6):
            t = block * mult
            assert g(n, t).value == 2 * t * (2 * n - 5), (n, t)


def test_gap_between_g_and_g_hat():
    for n in range(4, 41):
        grow = g_values(n, 40)
        ghrow = g_hat_values(n, 40)
        for t in range(1, 41):
            diff = grow[t] - ghrow[t]
            assert 0 <= diff <= (n - 3) / 2, (n, t, diff)


def test_monotonicity():
    rows = {n: g_values(n, 20) for n in range(3, 20)}
    hat_rows = {n: g_hat_values(n, 20) for n in range(3, 20)}
    for n in range(3, 20):
        for t in range(1, 20):
            assert rows[n][t] < rows[n][t + 1]
            assert hat_rows[n][t] < hat_rows[n][t + 1]
    for n in range(3, 19):
        for t in range(1, 21):
            assert rows[n][t] <= rows[n + 1][t]
            assert hat_rows[n][t] <= hat_rows[n + 1][t]


def test_row_helpers_match_single_calls():
    for n in (2, 3, 7, 12):
        row = g_values(n, 15)
        hat = g_hat_values(n, 15)
        for t in range(1, 16):
            assert row[t] == g(n, t).value
            assert hat[t] == g_hat(n, t).value


# ------------------------------------------------------------------ plumbing

def test_iter_partitions_counts():
    counts = [sum(1 for _ in iter_partitions(k)) for k in range(8)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15]


def test_preconditions_raise():
    for bad in [(1, 1), (2, 0), (0, 3)]:
        with pytest.raises(ValueError):
            g(*bad)
        with pytest.raises(ValueError):
            g_hat(*bad)
    with pytest.raises(ValueError):
        g_r(3, 1, 2)
    with pytest.raises(ValueError):
        g_r(2, 3, 2)
    with pytest.raises(ValueError):
        bounds(2, 3)

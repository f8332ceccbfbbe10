"""Size-Ramsey values via clique-composition minimization.

The value of interest is the least edge total of a disjoint union of
cliques that still forces the clique/stripe pair: pick positive integers
s_1, ..., s_l (how many stripes each clique absorbs) and pay
C(n + 2*s_i - 2, 2) edges per clique.  g(n, t) minimizes the total
subject to sum(s_i) >= t; that minimum IS the size Ramsey number of
(K_n, tK_2).  Two relatives share the machinery: g_hat (cost
C(n + s - 2, 2), target 2t, the form the decoloring lemma produces) and
the r-uniform generalization g_r (cost C(n + r*(s - 1), r), target t).

Every part cost c here is strictly convex and increasing in s, so the
optimum over "sum >= target" is attained at exact sum; overshooting a
target never pays.  The solver scans the part count l.  For fixed l,
near-equal parts are optimal, at cost h(l) = (l-e)*c(q) + e*c(q+1) with
q, e = divmod(total, l).  h(l) is l times the piecewise-linear
interpolation of c at total/l, the perspective of a convex function, so
h is convex in l.  The fewest-part optimum is the first l with
h(l+1) >= h(l): a binary search finds it, and a memo local to the solve
evaluates each part cost it reads once, O(log total) evaluations in all.
The witness check costs one evaluation per distinct part (at most two)
plus C-level O(total) passes over the parts tuple.  A whole row of
totals takes O(total) steps, each adding one cost difference to h(l)
and one to h(l+1); only a move of the part count recomputes a split
(see _row).
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterator

from .errors import RequestError, _check_int, _check_nt
from .exactmath import binomial
from .records import Record, _set

__all__ = [
    "Flavor",
    "PartitionWitness",
    "ValueResult",
    "part_cost",
    "g",
    "g_hat",
    "g_r",
    "g_values",
    "g_hat_values",
    "size_ramsey",
    "equality_condition",
    "bounds",
    "structural_witness",
    "iter_partitions",
]


class Flavor(Enum):
    """Which minimization a witness belongs to."""

    G = "g"
    GHAT = "ghat"
    GR = "gr"


def part_cost(flavor: Flavor, n: int, s: int, r: int | None = None) -> int:
    """Edge cost of one clique absorbing s stripes, per flavor."""
    if flavor is Flavor.G:
        return binomial(n + 2 * s - 2, 2)
    if flavor is Flavor.GHAT:
        return binomial(n + s - 2, 2)
    if r is None:
        raise RequestError("flavor GR needs r")
    return binomial(n + r * (s - 1), r)


class PartitionWitness(Record):
    """An optimal multiset of parts, stored nonincreasing.

    target_sum is the exact sum the parts achieve (t for G and GR, 2t for
    GHAT); objective is the summed part cost.  Validated on construction.
    """

    __slots__ = ("flavor", "n", "parts", "objective", "target_sum", "r")
    flavor: Flavor
    n: int
    parts: tuple[int, ...]
    objective: int
    target_sum: int
    r: int | None

    def __init__(
        self,
        flavor: Flavor,
        n: int,
        parts: tuple[int, ...],
        objective: int,
        target_sum: int,
        r: int | None = None,
    ) -> None:
        if not parts or min(parts) < 1:
            raise ValueError(f"witness parts must be positive, got {parts}")
        if sorted(parts, reverse=True) != list(parts):
            raise ValueError(f"witness parts must be nonincreasing, got {parts}")
        if sum(parts) != target_sum:
            raise ValueError(f"witness parts sum to {sum(parts)}, target is {target_sum}")
        # one cost per distinct part: near-equal parts have at most two
        recomputed = sum(parts.count(s) * part_cost(flavor, n, s, r) for s in set(parts))
        if recomputed != objective:
            raise ValueError(
                f"witness objective {objective} does not match part costs {recomputed}"
            )
        _set(self, "flavor", flavor)
        _set(self, "n", n)
        _set(self, "parts", parts)
        _set(self, "objective", objective)
        _set(self, "target_sum", target_sum)
        _set(self, "r", r)


class ValueResult(Record):
    """A computed value together with its witness.

    The witness carries n, r and the objective, so `value` reads
    `witness.objective` and none of them is a second field.
    """

    __slots__ = ("t", "witness")
    t: int
    witness: PartitionWitness

    def __init__(self, t: int, witness: PartitionWitness) -> None:
        _set(self, "t", t)
        _set(self, "witness", witness)

    @property
    def value(self) -> int:
        return self.witness.objective


def _near_equal(total: int, parts: int) -> tuple[int, ...]:
    q, extra = divmod(total, parts)
    return (q + 1,) * extra + (q,) * (parts - extra)


def _split_cost(cost_of: Callable[[int], int], total: int, parts: int) -> int:
    """h(parts): the cost of near-equal parts, the least for that many parts."""
    q, extra = divmod(total, parts)
    return (parts - extra) * cost_of(q) + extra * cost_of(q + 1)


def _fewest_parts(cost_of: Callable[[int], int], total: int) -> int:
    """The first l < total with h(l+1) >= h(l), else total; h convex makes it bisectable."""
    lo, hi = 1, total
    while lo < hi:
        mid = (lo + hi) // 2
        if _split_cost(cost_of, total, mid + 1) >= _split_cost(cost_of, total, mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _solve(flavor: Flavor, n: int, t: int, total: int, r: int | None) -> ValueResult:
    # neighbouring part counts split into mostly the same sizes, so the
    # bisection asks for each cost many times; the witness below still
    # calls part_cost itself and stays an independent check
    memo: dict[int, int] = {}

    def cost_of(s: int) -> int:
        if s not in memo:
            memo[s] = part_cost(flavor, n, s, r)
        return memo[s]

    parts = _fewest_parts(cost_of, total)
    objective = _split_cost(cost_of, total, parts)
    witness = PartitionWitness(flavor, n, _near_equal(total, parts), objective, total, r)
    return ValueResult(t, witness)


def _row(cost_of: Callable[[int], int], total: int) -> list[int]:
    """The optimum for every exact sum m = 0..total, in O(total) steps.

    The fewest-part count never falls as m grows (h_m(l+1) - h_m(l) is
    nonincreasing in m), so one pointer on l walks forward across the row.

    Each step carries h(l) and h(l+1) forward by one cost difference.  The
    near-equal split of m into l parts has l - e >= 1 parts of the smaller
    size q = m // l (e = m % l); growing one of them to q + 1 keeps every
    size within one of the others, so it is the near-equal split of m + 1,
    and h_{m+1}(l) = h_m(l) + c(q+1) - c(q).  The same holds for l + 1
    parts.  With table[0] = 0 a zero-size part costs nothing, so the
    identity holds while m < l too, both sums start at h_0 = 0, and
    h_m(l+1) = h_m(l) once l >= m keeps the pointer at or below m.  Only a
    pointer move computes h(l+1) afresh with _split_cost.

    The step from m to m + 1 reads costs up to index m // l + 1, so the
    cost table grows only that far, not to total + 1.  A pointer move to
    l' > l reads up to (m + 1) // (l' + 1) + 1, no further: no move happens
    at sum 1, and otherwise l <= m, where (m + 1) / (l + 2) <= m / l.
    """
    table: list[int] = [0]
    step: list[int] = []  # step[q] = c(q + 1) - c(q)
    cost = table.__getitem__
    row, parts, best, more = [0], 1, 0, 0
    for m in range(total):  # from sum m to sum m + 1
        q = m // parts
        while len(step) <= q:
            table.append(cost_of(len(table)))
            step.append(table[-1] - table[-2])
        best += step[q]
        more += step[m // (parts + 1)]
        while more < best:
            parts, best = parts + 1, more
            more = _split_cost(cost, m + 1, parts + 1)
        row.append(best)
    return row


def g(n: int, t: int) -> ValueResult:
    """Least edge total of a clique strategy covering t stripes against K_n."""
    _check_nt(n, t)
    return _solve(Flavor.G, n, t, t, None)


def g_hat(n: int, t: int) -> ValueResult:
    """The companion minimum with part cost C(n + s - 2, 2) and target 2t."""
    _check_nt(n, t)
    return _solve(Flavor.GHAT, n, t, 2 * t, None)


def g_r(n: int, r: int, t: int) -> ValueResult:
    """r-uniform analogue: part cost C(n + r(s-1), r), target t."""
    _check_int("r", r, 2)
    _check_nt(n, t, n_min=r)
    return _solve(Flavor.GR, n, t, t, r)


def g_values(n: int, t_max: int) -> list[int]:
    """g(n, t) for t = 0..t_max in one O(t_max) pass (index by t; entry 0 is 0)."""
    _check_int("n", n, 2)
    _check_int("t_max", t_max, 0)
    return _row(lambda s: part_cost(Flavor.G, n, s), t_max)


def g_hat_values(n: int, t_max: int) -> list[int]:
    """g_hat(n, t) for t = 0..t_max in one O(t_max) pass (index by t)."""
    _check_int("n", n, 2)
    _check_int("t_max", t_max, 0)
    return _row(lambda s: part_cost(Flavor.GHAT, n, s), 2 * t_max)[::2]


def size_ramsey(n: int, t: int) -> ValueResult:
    """The size Ramsey number of (K_n, tK_2); equals g(n, t) exactly."""
    return g(n, t)


def equality_condition(n: int, t: int) -> bool:
    """Whether a single clique is optimal, i.e. g(n, t) = C(n + 2t - 2, 2).

    Holds iff t^2 <= C(n - 2, 2) for even t, and t^2 <= C(n - 2, 2) + 1
    for odd t.
    """
    _check_nt(n, t)
    cap = binomial(n - 2, 2)
    return t * t <= cap if t % 2 == 0 else t * t <= cap + 1


def bounds(n: int, t: int) -> tuple[int, int | None]:
    """Closed-form envelope (lower, upper) around g(n, t).

    Lower: 2t(2n - 5), from the per-stripe cost minimum 4n - 10.  Upper:
    round the stripe load up to whole cliques of the cheapest integral
    size, ceil(2t/(n-2)) blocks for even n and ceil(2t/(n-3)) for odd n.
    The odd-n formula degenerates at n = 3 (its block size is zero), so
    only the lower bound is returned there.
    """
    _check_nt(n, t, n_min=3)
    lower = 2 * t * (2 * n - 5)
    if n == 3:
        return lower, None
    if n % 2 == 0:
        blocks = -(-2 * t // (n - 2))
        upper = blocks * (n - 2) * (2 * n - 5)
    else:
        blocks = -(-2 * t // (n - 3))
        upper = blocks * (n - 3) * (2 * n - 5)
    return lower, upper


def structural_witness(n: int, t: int) -> PartitionWitness:
    """The fewest-part optimal witness of g(n, t), without the ValueResult wrapper."""
    _check_nt(n, t)
    return _solve(Flavor.G, n, t, t, None).witness


def iter_partitions(total: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of total into positive parts, nonincreasing order."""
    _check_int("total", total, 0)
    if max_part is not None:
        _check_int("max_part", max_part, 0)
    return _partitions(total, total if max_part is None else max_part)


def _partitions(total: int, most: int) -> Iterator[tuple[int, ...]]:
    """The partitions of total with every part at most `most`."""
    if total == 0:
        yield ()
        return
    for first in range(min(most, total), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest

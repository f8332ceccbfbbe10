"""Exact arithmetic helpers for clique-cost accounting.

Everything downstream reasons about edge counts of disjoint clique unions,
so the primitives here are binomial coefficients, the per-stripe cost of a
single clique, and the normalized cost constant that controls the large-t
behaviour.  All values are exact: arbitrary-precision ints and Fractions,
never floats.
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING

from .errors import _check_int

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "binomial",
    "cost_per_stripe",
    "limit_constant",
    "merge_profitable",
]


def binomial(a: int, k: int) -> int:
    """C(a, k), with C(a, k) = 0 whenever k > a.

    Rejects arguments that are not nonnegative plain ints; the zero
    convention for k > a is what makes the cost formulas below uniform at
    their boundary cases.
    """
    _check_int("a", a, 0)
    _check_int("k", k, 0)
    return comb(a, k)


def cost_per_stripe(n: int, x: int) -> Fraction:
    """Edge cost per stripe of one clique serving x stripes against K_n.

    A clique that absorbs x disjoint blue edges while still threatening a
    red K_n needs n + 2x - 2 vertices, hence C(n + 2x - 2, 2) edges; this
    returns that count divided by x, exactly.  Over the integers the ratio
    is minimized at x in {(n-3)/2, (n-2)/2} (whichever neighbours are
    integral), where it equals 4n - 10.
    """
    _check_int("n", n, 3)
    _check_int("x", x, 1)
    from fractions import Fraction  # imported where used: value and most commands need none

    return Fraction(binomial(n + 2 * x - 2, 2), x)


def limit_constant(n: int, t_max: int) -> tuple[Fraction, int]:
    """Minimum of C(n + 2t - 2, 2) / (t * C(n, 2)) over 1 <= t <= t_max.

    Returns (minimum, argmin), argmin being the first t attaining it.  This
    is the constant that the normalized size-Ramsey value approaches for
    large t.  For n >= 4 the minimum is cross-checked against the closed
    form 4(2n - 5) / (n(n - 1)); disagreement means a bug, so it raises
    rather than returning either side.

    The walk stops at the minimum after O(argmin) quotients, argmin <= n/2.
    Times C(n, 2) the quotient is f(t) = 2t + 2n - 5 + (n - 2)(n - 3)/(2t),
    convex on t > 0 since (n - 2)(n - 3) >= 0, so its steps f(t+1) - f(t)
    never fall.  At the first t with f(t+1) >= f(t) every earlier step is
    negative and every later one nonnegative, so that t is the first
    minimizer, the one `min` over the whole range would pick; if none comes
    before t_max, f falls throughout and t_max is.

    t_max must be at least n so the interior minimum lies inside the
    scanned range.
    """
    _check_int("n", n, 2)
    _check_int("t_max", t_max, n)
    from fractions import Fraction

    # f(t+1) >= f(t) compared as C(n+2t, 2) * t >= C(n+2t-2, 2) * (t+1)
    base = binomial(n, 2)
    best_t, cost = 1, base
    while best_t < t_max:
        following = binomial(n + 2 * best_t, 2)
        if following * best_t >= cost * (best_t + 1):
            break
        best_t, cost = best_t + 1, following
    best = Fraction(cost, best_t * base)
    if n >= 4:
        closed = Fraction(4 * (2 * n - 5), n * (n - 1))
        if best != closed:
            raise ArithmeticError(
                f"normalized-cost scan gave {best} but the closed form "
                f"4(2n-5)/(n(n-1)) gives {closed} for n={n}"
            )
    return best, best_t


def merge_profitable(n: int, a: int, b: int) -> bool:
    """Whether two cliques serving a and b stripes may be merged into one.

    Merging is profitable (never increases the edge total) exactly when
    C(n + a - 2, 2) + C(n + b - 2, 2) >= C(n + a + b - 2, 2), which reduces
    to the product test a * b <= C(n - 2, 2).  Both forms are evaluated and
    compared; a mismatch raises instead of silently trusting either.
    """
    _check_int("n", n, 2)
    _check_int("a", a, 1)
    _check_int("b", b, 1)
    by_cost = binomial(n + a - 2, 2) + binomial(n + b - 2, 2) >= binomial(n + a + b - 2, 2)
    by_product = a * b <= binomial(n - 2, 2)
    if by_cost != by_product:
        raise ArithmeticError(
            f"merge test disagreement at n={n}, a={a}, b={b}: "
            f"cost form says {by_cost}, product form says {by_product}"
        )
    return by_cost

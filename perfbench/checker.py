"""Independent checks for every output the benchmark collects.

Nothing here imports rsize.  The checks work on plain data (integers,
vertex tuples, edge lists) that the workloads extract from rsize's
results outside the timed region, and recompute each answer by a route
of their own:

* values by a part-count scan with near-equal parts (`math.comb`), by
  exhaustive partitions when the target is small, and against the
  closed-form floor 2t(2n-5);
* colorings by brute force over vertex subsets for the red clique and
  over edge subsets for the blue matching;
* decoloring sets by set size, properness of the residual coloring with
  at most n-2 colors, and the matching number inside the set;
* enumeration counts against OEIS A000664;
* CLI envelopes against the shipped JSON schema and their exit codes.

Every check raises CheckError with a reason; returning means accepted.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path
from typing import Any, Iterator, Sequence

# graphs with m edges and no isolated vertices, up to isomorphism, m = 0..8
A000664 = (1, 1, 2, 5, 11, 26, 68, 177, 497)

Edge = tuple[int, ...]

# targets up to this size are also checked against every partition
EXHAUSTIVE_MAX_TARGET = 24


class CheckError(AssertionError):
    """An output that the independent recomputation rejects."""


def require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckError(reason)


# -------------------------------------------------------------------- values


def part_cost(flavor: str, n: int, s: int, r: int | None = None) -> int:
    """Edges of one clique absorbing s stripes: g, ghat or gr flavor."""
    if flavor == "g":
        return comb(n + 2 * s - 2, 2)
    if flavor == "ghat":
        return comb(n + s - 2, 2)
    return comb(n + r * (s - 1), r)


def target_of(flavor: str, t: int) -> int:
    return 2 * t if flavor == "ghat" else t


def near_equal(total: int, parts: int) -> tuple[int, ...]:
    q, extra = divmod(total, parts)
    return (q + 1,) * extra + (q,) * (parts - extra)


def scan_value(flavor: str, n: int, t: int, r: int | None = None) -> tuple[int, tuple[int, ...]]:
    """Least total cost and its fewest-part optimum, by scanning the part count.

    Each cost family is strictly convex in s, so for a fixed number of
    parts near-equal parts are optimal; scanning every count is exact.
    """
    total = target_of(flavor, t)
    best_cost, best_count = None, 0
    for count in range(1, total + 1):
        q, extra = divmod(total, count)
        cost = extra * part_cost(flavor, n, q + 1, r) + (count - extra) * part_cost(flavor, n, q, r)
        if best_cost is None or cost < best_cost:
            best_cost, best_count = cost, count
    return best_cost, near_equal(total, best_count)


def partitions(total: int, cap: int | None = None) -> Iterator[tuple[int, ...]]:
    cap = total if cap is None else min(cap, total)
    if total == 0:
        yield ()
        return
    for first in range(cap, 0, -1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


def exhaustive_value(flavor: str, n: int, t: int, r: int | None = None) -> tuple[int, int]:
    """(least cost, fewest parts among optima) over every partition of the target."""
    return min(
        (sum(part_cost(flavor, n, s, r) for s in parts), len(parts))
        for parts in partitions(target_of(flavor, t))
    )


def check_value(flavor: str, n: int, t: int, r: int | None, value: int, parts: Sequence[int]) -> None:
    where = f"{flavor}(n={n}, t={t}{'' if r is None else f', r={r}'})"
    expected, expected_parts = scan_value(flavor, n, t, r)
    require(value == expected, f"{where} = {value}, part-count scan gives {expected}")
    require(tuple(parts) == expected_parts, f"{where} parts {tuple(parts)}, scan gives {expected_parts}")
    require(
        sum(part_cost(flavor, n, s, r) for s in parts) == value,
        f"{where}: parts {tuple(parts)} do not cost {value}",
    )
    if target_of(flavor, t) <= EXHAUSTIVE_MAX_TARGET:
        best, fewest = exhaustive_value(flavor, n, t, r)
        require(value == best, f"{where} = {value}, exhaustive partitions give {best}")
        require(len(parts) == fewest, f"{where} uses {len(parts)} parts, fewest optimal is {fewest}")
    if flavor == "g" and n >= 3:
        require(2 * t * (2 * n - 5) <= value, f"{where} = {value} is below 2t(2n-5)")


def check_row(flavor: str, n: int, row: Sequence[int]) -> None:
    """A g or g_hat row indexed by t = 0..t_max."""
    require(row[0] == 0, f"{flavor} row for n={n} must start at 0")
    for t in range(1, len(row)):
        expected, _ = scan_value(flavor, n, t)
        require(row[t] == expected, f"{flavor}(n={n}, t={t}) row entry {row[t]}, scan gives {expected}")


def check_limit(n: int, t_max: int, limit: Fraction, argmin: int, row: Sequence[int]) -> None:
    """limit_constant(n, t_max) by its own scan, the closed form, and the g row above it."""
    base = comb(n, 2)
    best, best_t = None, 0
    for t in range(1, t_max + 1):
        q = Fraction(comb(n + 2 * t - 2, 2), t * base)
        if best is None or q < best:
            best, best_t = q, t
    require((limit, argmin) == (best, best_t), f"limit({n}, {t_max}) = {limit} at {argmin}, scan gives {best} at {best_t}")
    if n >= 4:
        require(limit == Fraction(4 * (2 * n - 5), n * (n - 1)), f"limit({n}) misses the closed form")
    quotients = [Fraction(row[t], t * base) for t in range(1, len(row))]
    require(all(q >= limit for q in quotients), f"a g(n={n}, t) quotient falls below the limit")
    if len(row) - 1 >= n:
        require(min(quotients) == limit, f"g(n={n}, t) quotients never reach the limit")


# ----------------------------------------------------------------- colorings


def max_disjoint(edges: Sequence[Edge]) -> int:
    """Largest number of pairwise disjoint edges (any uniformity), brute force."""
    sets = [frozenset(e) for e in edges]
    best = 0

    def grow(start: int, used: frozenset, size: int) -> None:
        nonlocal best
        best = max(best, size)
        for j in range(start, len(sets)):
            if size + len(sets) - j <= best:
                return
            if not sets[j] & used:
                grow(j + 1, used | sets[j], size + 1)

    grow(0, frozenset(), 0)
    return best


def has_complete(vertices: int, r: int, edges: Sequence[Edge], n: int) -> bool:
    """Whether the r-uniform edge set holds all C(n, r) edges on some n vertices."""
    present = {tuple(sorted(e)) for e in edges}
    degree = [0] * vertices
    for e in present:
        for v in e:
            degree[v] += 1
    # a vertex of a complete n-window lies in C(n-1, r-1) of its edges
    candidates = [v for v in range(vertices) if degree[v] >= comb(n - 1, r - 1)]
    for window in combinations(candidates, n):
        if all(sub in present for sub in combinations(window, r)):
            return True
    return False


def check_good_coloring(
    vertices: int, r: int, host_edges: Sequence[Edge], blue: Sequence[Edge], n: int, t: int, what: str
) -> None:
    """No red K_n^(r) and fewer than t disjoint blue edges, red being host minus blue."""
    host = {tuple(sorted(e)) for e in host_edges}
    blue_set = {tuple(sorted(e)) for e in blue}
    require(blue_set <= host, f"{what}: a blue edge is not a host edge")
    red = host - blue_set
    require(not has_complete(vertices, r, sorted(red), n), f"{what}: red holds a complete {n}-set")
    nu = max_disjoint(sorted(blue_set))
    require(nu <= t - 1, f"{what}: blue holds {nu} >= t={t} disjoint edges")


# ----------------------------------------------------------------- decoloring


def check_decolor(
    vertices: int,
    host_edges: Sequence[Edge],
    n: int,
    t: int,
    removed: Sequence[int],
    colors: dict[int, int],
    max_size: int,
    matching_cap: int | None,
    what: str,
) -> None:
    """S small, G - S properly colored with at most n-2 colors, matching inside S capped."""
    inside = set(removed)
    require(len(inside) == len(removed) and inside <= set(range(vertices)), f"{what}: bad removed set")
    require(len(inside) <= max_size, f"{what}: removed {len(inside)} > {max_size} vertices")
    kept = [v for v in range(vertices) if v not in inside]
    require(sorted(colors) == kept, f"{what}: coloring does not cover exactly G - S")
    require(len(set(colors.values())) <= n - 2, f"{what}: uses more than n-2 = {n - 2} colors")
    for u, v in host_edges:
        if u in colors and v in colors:
            require(colors[u] != colors[v], f"{what}: edge ({u}, {v}) is monochromatic")
    if matching_cap is not None:
        span = [e for e in host_edges if e[0] in inside and e[1] in inside]
        nu = max_disjoint(span)
        require(nu <= matching_cap, f"{what}: the set spans {nu} > {matching_cap} disjoint edges")


# -------------------------------------------------------------------- schema


def validate(instance: Any, schema: dict, path: str = "$") -> None:
    """The subset of JSON Schema the shipped envelope schema uses."""
    kinds = {
        "object": dict,
        "array": list,
        "string": str,
        "boolean": bool,
        "null": type(None),
    }
    kind = schema.get("type")
    if kind == "integer":
        require(isinstance(instance, int) and not isinstance(instance, bool), f"{path} is not an integer")
    elif kind == "number":
        require(isinstance(instance, (int, float)) and not isinstance(instance, bool), f"{path} is not a number")
    elif kind is not None:
        require(isinstance(instance, kinds[kind]), f"{path} is not of type {kind}")
    if "enum" in schema:
        require(instance in schema["enum"], f"{path} = {instance!r} is not one of {schema['enum']}")
    if "minimum" in schema:
        require(instance >= schema["minimum"], f"{path} is below {schema['minimum']}")
    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            require(key in instance, f"{path} lacks {key!r}")
        props = schema.get("properties", {})
        if schema.get("additionalProperties") is False:
            extra = set(instance) - set(props)
            require(not extra, f"{path} has unexpected keys {sorted(extra)}")
        for key, sub in props.items():
            if key in instance:
                validate(instance[key], sub, f"{path}.{key}")


def check_envelope(stdout: str, code: int, expect_code: int, command: str, schema_path: Path) -> dict:
    """Parse and validate one CLI run; returns the envelope."""
    require(code == expect_code, f"rsize {command} exited {code}, expected {expect_code}")
    try:
        envelope = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckError(f"rsize {command} printed no JSON envelope: {exc}") from None
    validate(envelope, json.loads(schema_path.read_text()))
    require(envelope["command"] == command, f"envelope names {envelope['command']!r}, ran {command!r}")
    status = {0: "ok", 1: "error", 2: "error", 3: "undecided"}[expect_code]
    require(envelope["status"] == status, f"rsize {command} status {envelope['status']!r}, expected {status!r}")
    return envelope

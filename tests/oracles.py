"""Independent brute-force oracles used to pin expected values.

Nothing here shares algorithms with the package: minimizations enumerate
partitions outright or run the O(total^2) composition DP, matchings
enumerate edge subsets, colorings try every assignment, hypergraph cliques
test every vertex window, decoloring sets and the tightness remark are
scanned subset by subset, partitions are checked for equitability vertex
by vertex and automorphism groups are found by trying every permutation.
Slow on purpose; only run at oracle scale.  Graphs are vertex counts plus
edge lists, so nothing here imports the package; the unpruned enumeration
walk takes its canonical form as an argument.  One exception:
reference_refine is the package's former equitable refinement, which
grouped every cell's vertices in a dict, kept verbatim so that the
refinement's faster paths can be checked against it cell for cell.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from math import comb
from typing import Callable, Iterator, Sequence


def partitions(total: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    if total == 0:
        yield ()
        return
    cap = total if max_part is None else min(max_part, total)
    for first in range(cap, 0, -1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


def brute_min_cost(cost_of: Callable[[int], int], target: int, slack: int = 2) -> int:
    """Minimum summed cost over partitions with sum >= target.

    Enumerates every partition of target, target+1, ..., target+slack; the
    slack demonstrates that overshooting the target never helps.
    """
    best: int | None = None
    for total in range(target, target + slack + 1):
        for parts in partitions(total):
            obj = sum(cost_of(s) for s in parts)
            if best is None or obj < best:
                best = obj
    assert best is not None
    return best


def min_cost_rows(
    cost_of: Callable[[int], int], total: int
) -> tuple[list[int], list[tuple[int, ...]]]:
    """DP over compositions of each exact sum m = 0..total.

    Returns (value, parts): value[m] is the least summed cost and parts[m]
    a value-optimal composition with the fewest parts, nonincreasing.  The
    pairwise-lexicographic minimum of (cost, count) decomposes because
    adding a fixed (cost, 1) to both sides preserves the order.
    """
    costs = [0] + [cost_of(s) for s in range(1, total + 1)]
    value = [0] * (total + 1)
    parts: list[tuple[int, ...]] = [()] * (total + 1)
    for m in range(1, total + 1):
        best_v, best_c, best_s = costs[m], 1, m
        for s in range(1, m):
            v = value[m - s] + costs[s]
            c = len(parts[m - s]) + 1
            if v < best_v or (v == best_v and c < best_c):
                best_v, best_c, best_s = v, c, s
        value[m] = best_v
        parts[m] = tuple(sorted(parts[m - best_s] + (best_s,), reverse=True))
    return value, parts


def scan_limit_constant(n: int, t_max: int) -> tuple[Fraction, int]:
    """Least C(n + 2t - 2, 2) / (t C(n, 2)) over every t = 1..t_max, with its first argmin."""
    base = comb(n, 2)
    quotients = [Fraction(comb(n + 2 * t - 2, 2), t * base) for t in range(1, t_max + 1)]
    best = min(quotients)
    return best, quotients.index(best) + 1


def window_cliques(vertices: int, r: int, edge_masks: Sequence[int], n: int) -> list[int]:
    """Vertex bitmask of every n-set of vertices all of whose r-subsets are edges."""
    edges = set(edge_masks)
    out = []
    for window in combinations(range(vertices), n):
        if all(sum(1 << v for v in sub) in edges for sub in combinations(window, r)):
            out.append(sum(1 << v for v in window))
    return out


def brute_good_coloring(
    vertices: int,
    r: int,
    edge_tuples: Sequence[tuple[int, ...]],
    blue_mask: int,
    n: int,
    t: int,
) -> bool:
    """No red n-window and fewer than t disjoint blue edges.

    Edge i is blue when bit i of blue_mask is set, red otherwise.  Red
    windows are found by testing every vertex n-set; the blue matching
    number by subset enumeration.
    """
    red = [e for i, e in enumerate(edge_tuples) if not blue_mask >> i & 1]
    blue = [e for i, e in enumerate(edge_tuples) if blue_mask >> i & 1]
    if window_cliques(vertices, r, [sum(1 << v for v in e) for e in red], n):
        return False
    if r == 2:
        return brute_max_matching(vertices, blue) <= t - 1
    return brute_hyper_matching([sum(1 << v for v in e) for e in blue]) <= t - 1


def brute_max_matching(n_vertices: int, edges: Sequence[tuple[int, int]]) -> int:
    """Largest matching by trying every subset of edges."""
    best = 0
    m = len(edges)
    for size in range(1, n_vertices // 2 + 1):
        found = False
        for subset in combinations(range(m), size):
            used = 0
            ok = True
            for i in subset:
                u, v = edges[i]
                mask = (1 << u) | (1 << v)
                if used & mask:
                    ok = False
                    break
                used |= mask
            if ok:
                found = True
                break
        if found:
            best = size
        else:
            break
    return best


def brute_chromatic(n_vertices: int, edges: Sequence[tuple[int, int]]) -> int:
    """Smallest k admitting any proper coloring, by direct enumeration."""
    if n_vertices == 0:
        return 0
    earlier = [[] for _ in range(n_vertices)]
    for u, v in edges:
        earlier[max(u, v)].append(min(u, v))

    def extend(colors: list[int], v: int, k: int) -> bool:
        if v == n_vertices:
            return True
        for c in range(k):
            if all(colors[u] != c for u in earlier[v]):
                colors.append(c)
                if extend(colors, v + 1, k):
                    return True
                colors.pop()
        return False

    for k in range(1, n_vertices + 1):
        if extend([], 0, k):
            return k
    raise AssertionError("unreachable")


def brute_hyper_matching(edge_masks: Sequence[int]) -> int:
    """Largest set of pairwise disjoint hyperedges, by subset enumeration."""
    m = len(edge_masks)
    best = 0
    for size in range(1, m + 1):
        found = False
        for subset in combinations(range(m), size):
            used = 0
            ok = True
            for i in subset:
                if used & edge_masks[i]:
                    ok = False
                    break
                used |= edge_masks[i]
            if ok:
                found = True
                break
        if found:
            best = size
        else:
            break
    return best


def exact_decolor_scan(
    n_vertices: int,
    edges: Sequence[tuple[int, int]],
    n: int,
    max_size: int,
    matching_bound: int | None = None,
) -> tuple[int, ...] | None:
    """First vertex set, smallest first, whose removal leaves an (n-2)-colorable graph.

    Sets are tried by size, then in lexicographic order, up to max_size
    vertices; with a matching_bound, a set must also span at most that
    many disjoint edges.  None when no such set exists.
    """
    for k in range(max_size + 1):
        for subset in combinations(range(n_vertices), k):
            inside = set(subset)
            if matching_bound is not None:
                spanned = [(u, v) for u, v in edges if u in inside and v in inside]
                if brute_max_matching(n_vertices, spanned) > matching_bound:
                    continue
            index = {v: i for i, v in enumerate(v for v in range(n_vertices) if v not in inside)}
            rest = [(index[u], index[v]) for u, v in edges if u in index and v in index]
            if brute_chromatic(len(index), rest) <= n - 2:
                return subset
    return None


def brute_tightness(n: int, t: int, ghat: bool) -> bool:
    """The tightness remark, scanning every vertex subset of every extremal clique union.

    A part taking s stripes is a clique on n+s-2 vertices (ghat) or on
    n+2s-2 (g); the extremal unions are the partitions of 2t (ghat) or of
    t (g) with the least summed edge count.  True when no union has a set
    of at most 2t-1 vertices (ghat), or of at most 2t vertices spanning
    fewer than t disjoint edges (g), whose removal leaves an
    (n-2)-colorable graph.
    """
    target, step, max_size, bound = (2 * t, 1, 2 * t - 1, None) if ghat else (t, 2, 2 * t, t - 1)
    sizes = lambda parts: [n + step * s - 2 for s in parts]
    cost = lambda parts: sum(k * (k - 1) // 2 for k in sizes(parts))
    least = min(cost(parts) for parts in partitions(target))
    for parts in partitions(target):
        if cost(parts) != least:
            continue
        edges: list[tuple[int, int]] = []
        offset = 0
        for k in sizes(parts):
            edges += [(offset + u, offset + v) for u, v in combinations(range(k), 2)]
            offset += k
        if exact_decolor_scan(offset, edges, n, max_size, bound) is not None:
            return False
    return True


Form = tuple[int, tuple[tuple[int, int], ...]]


def unpruned_graph_levels(
    m: int, max_vertices: int | None, canon: Callable[[int, tuple[tuple[int, int], ...]], Form]
) -> list[list[Form]]:
    """Levels 1..m of the one-edge walk from K_2, with no symmetry prune.

    Every one-edge child of every graph on a level is canonicalized by the
    given canon(n, edges) and the forms are deduplicated and sorted: an
    edge between two present vertices, a pendant edge to one new vertex,
    and a new K_2, each within the vertex cap (2m when None).
    """
    cap = 2 * m if max_vertices is None else max_vertices
    level = [canon(2, ((0, 1),))] if cap >= 2 else []
    levels = []
    for k in range(1, m + 1):
        levels.append(level)
        nxt = set()
        for n, edges in level:
            present = set(edges)
            nxt.update(canon(n, edges + (p,)) for p in combinations(range(n), 2) if p not in present)
            if n + 1 <= cap:
                nxt.update(canon(n + 1, edges + ((u, n),)) for u in range(n))
            if n + 2 <= cap:
                nxt.add(canon(n + 2, edges + ((n, n + 1),)))
        level = sorted(nxt)
    return levels


def is_equitable(n_vertices: int, edges: Sequence[tuple[int, int]], cells: Sequence[int]) -> bool:
    """Whether any two vertices in one cell have equal neighbour counts into every cell.

    Cells are vertex bitmasks; counts are taken vertex by vertex from the
    edge list.
    """
    neighbours: list[set[int]] = [set() for _ in range(n_vertices)]
    for u, v in edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    members = [{v for v in range(n_vertices) if cell >> v & 1} for cell in cells]
    return all(
        len({len(neighbours[v] & into) for v in cell}) <= 1 for cell in members for into in members
    )


def brute_automorphisms(n_vertices: int, edges: Sequence[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Every automorphism, as the tuple of images, by trying all n! permutations."""
    present = {frozenset(e) for e in edges}
    return [
        perm
        for perm in permutations(range(n_vertices))
        if all(frozenset((perm[u], perm[v])) in present for u, v in edges)
    ]


def reference_refine(adj: Sequence[int], cells: list[int], queue: list[int]) -> list[int]:
    """Equitable refinement of an ordered partition of vertex masks.

    Pops a splitter mask w and splits every non-singleton cell by the
    number of neighbours each of its vertices has in w.  The fragments
    replace the cell in place, ordered by that count, and every fragment
    joins the queue.  Stops when the queue is empty or every cell is a
    singleton.  The result depends on cell positions and counts only, so
    it commutes with relabeling.
    """
    n = len(adj)
    while queue and len(cells) < n:
        w = queue.pop()
        out = []
        for cell in cells:
            if cell & (cell - 1):
                groups: dict[int, int] = {}
                rest = cell
                while rest:
                    low = rest & -rest
                    rest ^= low
                    k = (adj[low.bit_length() - 1] & w).bit_count()
                    groups[k] = groups.get(k, 0) | low
                if len(groups) > 1:
                    fragments = [groups[k] for k in sorted(groups)]
                    out += fragments
                    queue += fragments
                    continue
            out.append(cell)
        cells = out
    return cells

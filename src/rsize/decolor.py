"""Small vertex sets whose removal drops the chromatic number below n-1.

A graph with fewer edges than the clique-partition optimum always has a
small "decoloring" set S: delete S and the rest is (n-2)-colorable.  Two
variants are provided, matching the two edge-count thresholds: under the
single-clique-per-stripe optimum the set has at most 2t-1 vertices; under
the two-per-stripe optimum the set additionally spans no t disjoint edges
(and has at most 2t vertices when n >= 4).  From the second variant one
reads off a good coloring of any under-sized host: color the edges inside
S blue and the rest red — no red n-clique fits (it would need n-1 mutually
adjacent vertices outside S) and the blue side has no t disjoint edges.

Each public routine tries the cheap structural construction first and
falls back to a bounded exact subset scan; existence is a theorem, so a
fallback miss is an implementation bug and raises AssertionError.  The
result records which route produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .arrowing import CertificationError, EdgeColoring, UndecidedError, is_good_coloring
from .graphs import (
    Graph,
    VertexColoring,
    chromatic_number,
    coloring_from_assignment,
    complete,
    disjoint_union,
    is_k_colorable,
    max_matching,
    min_vertex_cover,
)
from .values import Flavor, g, g_hat, iter_partitions, part_cost


class HypothesisError(ValueError):
    """The input graph has too many edges for the requested guarantee."""


@dataclass(frozen=True)
class DecolorResult:
    """A vertex set S with a certified (n-2)-coloring of G - S.

    `removed` is a bitmask over G's vertices; `residual_coloring` colors
    G.without_vertices(removed), whose vertices are the kept vertices of
    G in ascending order.
    """

    graph: Graph
    n: int
    t: int
    removed: int
    residual_coloring: VertexColoring
    method: str

    def __post_init__(self) -> None:
        if self.method not in ("heuristic", "exact_fallback"):
            raise ValueError(f"unknown method {self.method!r}")
        if not 0 <= self.removed < 1 << self.graph.n:
            raise ValueError("removed-set mask out of range")
        residual = self.graph.without_vertices(self.removed_vertices())
        # re-validate properness and the color budget from scratch
        check = coloring_from_assignment(residual, self.residual_coloring.color_of)
        if check.classes != self.residual_coloring.classes:
            raise ValueError("residual coloring does not match G - S")
        if self.residual_coloring.num_colors > self.n - 2:
            raise ValueError(
                f"residual coloring uses {self.residual_coloring.num_colors} colors, "
                f"allowed {self.n - 2}"
            )

    def removed_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.graph.n) if self.removed >> v & 1)

    def removed_size(self) -> int:
        return self.removed.bit_count()


def satisfies_claim_one(graph: Graph, coloring: VertexColoring) -> bool:
    """Every vertex of a later class has a neighbor in every earlier class."""
    classes = coloring.classes
    for j in range(1, len(classes)):
        mask = classes[j]
        while mask:
            v = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            for i in range(j):
                if not graph.adj[v] & classes[i]:
                    return False
    return True


def max_potential_coloring(graph: Graph) -> VertexColoring:
    """An optimal coloring locally maximal for the sum of squared class sizes.

    Starting from any chromatic coloring, repeatedly move a vertex with no
    neighbor in some earlier (hence no smaller) class into that class.
    Each move strictly increases the sum of squared class sizes, so the
    scan terminates; at the fixpoint no class can absorb a vertex from a
    later one.  Deterministic: vertices in index order, target classes in
    the list order of the pass, classes re-sorted between passes.  The
    result is re-checked (chi classes, satisfies_claim_one) and a failure
    raises CertificationError.
    """
    chi = chromatic_number(graph)
    base = is_k_colorable(graph, chi)
    assert base is not None
    classes = list(base.classes)
    moved = True
    while moved:
        moved = False
        for v in range(graph.n):
            bit = 1 << v
            home = next(i for i, mask in enumerate(classes) if mask & bit)
            for i in range(home):
                # only grow a class at least as large: keeps the potential rising
                if classes[i].bit_count() < classes[home].bit_count():
                    continue
                if not graph.adj[v] & classes[i]:
                    classes[home] &= ~bit
                    classes[i] |= bit
                    moved = True
                    break
        classes.sort(key=lambda m: (-m.bit_count(), m & -m))
    assert all(classes), "a chromatic class emptied, contradicting minimality"
    assignment = [0] * graph.n
    for color, mask in enumerate(classes):
        while mask:
            v = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            assignment[v] = color
    coloring = coloring_from_assignment(graph, assignment)
    if coloring.num_colors != chi or not satisfies_claim_one(graph, coloring):
        raise CertificationError("max-potential coloring failed re-verification")
    return coloring


def _restrict_coloring(graph: Graph, coloring: VertexColoring, removed: int) -> VertexColoring:
    kept = [v for v in range(graph.n) if not removed >> v & 1]
    residual = graph.without_vertices(v for v in range(graph.n) if removed >> v & 1)
    return coloring_from_assignment(residual, [coloring.color_of[v] for v in kept])


def _edgeless_coloring(graph: Graph, removed: int) -> VertexColoring:
    residual = graph.without_vertices(v for v in range(graph.n) if removed >> v & 1)
    return coloring_from_assignment(residual, [0] * residual.n)


def _exact_scan(
    graph: Graph, n: int, t: int, max_size: int, matching_bound: int | None
) -> DecolorResult:
    for k in range(max_size + 1):
        for subset in combinations(range(graph.n), k):
            if matching_bound is not None:
                if max_matching(graph.induced(subset)) > matching_bound:
                    continue
            residual = graph.without_vertices(subset)
            coloring = is_k_colorable(residual, n - 2)
            if coloring is None:
                continue
            removed = 0
            for v in subset:
                removed |= 1 << v
            return DecolorResult(
                graph=graph,
                n=n,
                t=t,
                removed=removed,
                residual_coloring=coloring,
                method="exact_fallback",
            )
    raise AssertionError(
        "no qualifying set within the guaranteed bound: implementation bug"
    )


def _check_shape(graph: Graph, n: int, t: int) -> None:
    if not isinstance(graph, Graph):
        raise TypeError("expected a Graph")
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")


def find_decolor_set(graph: Graph, n: int, t: int) -> DecolorResult:
    """S with |S| <= 2t-1 and G - S properly (n-2)-colorable.

    Requires fewer edges than the one-clique-per-stripe optimum; that
    hypothesis is what makes the bound a theorem.
    """
    _check_shape(graph, n, t)
    bound = g_hat(n, t).value
    if graph.edge_count() >= bound:
        raise HypothesisError(
            f"{graph.edge_count()} edges, but the guarantee needs fewer than {bound}"
        )
    if n == 3:
        # one color allowed: S must be a vertex cover, so take a minimum one
        cover = min_vertex_cover(graph)
        removed = 0
        for v in cover:
            removed |= 1 << v
        if len(cover) > 2 * t - 1:  # a minimum cover has at most |E| < 2t vertices
            raise CertificationError(f"vertex cover of {len(cover)} exceeds 2t-1 = {2 * t - 1}")
        return DecolorResult(
            graph=graph,
            n=n,
            t=t,
            removed=removed,
            residual_coloring=_edgeless_coloring(graph, removed),
            method="heuristic",
        )
    coloring = max_potential_coloring(graph)
    removed = 0
    for mask in coloring.classes[n - 2 :]:
        removed |= mask
    if removed.bit_count() <= 2 * t - 1:
        return DecolorResult(
            graph=graph,
            n=n,
            t=t,
            removed=removed,
            residual_coloring=_restrict_coloring(graph, coloring, removed),
            method="heuristic",
        )
    return _exact_scan(graph, n, t, 2 * t - 1, None)


def find_decolor_set_matching(graph: Graph, n: int, t: int) -> DecolorResult:
    """S spanning no t disjoint edges, with G - S properly (n-2)-colorable.

    Requires fewer edges than the two-per-stripe optimum.  When n >= 4
    the returned set also has at most 2t vertices.
    """
    _check_shape(graph, n, t)
    bound = g(n, t).value
    if graph.edge_count() >= bound:
        raise HypothesisError(
            f"{graph.edge_count()} edges, but the guarantee needs fewer than {bound}"
        )
    if n == 3:
        cover = min_vertex_cover(graph)
        removed = 0
        for v in cover:
            removed |= 1 << v
        # a minimum cover never spans t disjoint edges here: each cover
        # vertex owns a private edge, so t disjoint covered edges would
        # force 3t distinct edges, beyond the hypothesis
        if max_matching(graph.induced(cover)) <= t - 1:
            return DecolorResult(
                graph=graph,
                n=n,
                t=t,
                removed=removed,
                residual_coloring=_edgeless_coloring(graph, removed),
                method="heuristic",
            )
        return _exact_scan(graph, n, t, graph.n, t - 1)
    coloring = max_potential_coloring(graph)
    removed = 0
    for mask in coloring.classes[n - 2 :]:
        removed |= mask
    small = removed.bit_count() <= 2 * t
    sparse = max_matching(graph.induced(_mask_tuple(removed))) <= t - 1
    if small and sparse:
        return DecolorResult(
            graph=graph,
            n=n,
            t=t,
            removed=removed,
            residual_coloring=_restrict_coloring(graph, coloring, removed),
            method="heuristic",
        )
    return _exact_scan(graph, n, t, 2 * t, t - 1)


def _mask_tuple(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        v = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        out.append(v)
    return tuple(out)


def witness_good_coloring(host: Graph, n: int, t: int) -> EdgeColoring:
    """A certified coloring of an under-sized host with no red K_n, no blue tK_2.

    Blue = edges inside the decoloring set, red = everything else; a red
    n-clique would need n-1 mutually adjacent vertices off the set, which
    its (n-2)-coloring forbids.  Certified by direct clique and matching
    checks before returning; a failed check raises CertificationError.
    """
    result = find_decolor_set_matching(host, n, t)
    blue = 0
    for i, (u, v) in enumerate(host.edges()):
        if result.removed >> u & 1 and result.removed >> v & 1:
            blue |= 1 << i
    coloring = EdgeColoring(host, blue)
    if not is_good_coloring(coloring, n, t):
        raise CertificationError(f"witness coloring for (n={n}, t={t}) failed re-verification")
    return coloring


def check_tightness_remark(n: int, t: int, flavor: Flavor) -> bool:
    """Is the decoloring bound unimprovable at the exact edge threshold?

    Builds every disjoint-clique graph achieving the threshold edge count
    and scans all candidate sets: for the one-per-stripe flavor, no set of
    at most 2t-1 vertices may leave an (n-2)-colorable graph; for the
    two-per-stripe flavor, any set of at most 2t vertices that does must
    span t disjoint edges.
    """
    if flavor not in (Flavor.G, Flavor.GHAT):
        raise ValueError(f"flavor must be G or GHAT, got {flavor}")
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    if n > 5 or t > 2:
        raise UndecidedError(f"undecided: tightness scan capped at n <= 5, t <= 2")
    if flavor is Flavor.GHAT:
        value = g_hat(n, t).value
        target = 2 * t
        clique_of = lambda s: n + s - 2
    else:
        value = g(n, t).value
        target = t
        clique_of = lambda s: n + 2 * s - 2
    achievers = [
        parts
        for parts in iter_partitions(target, target)
        if sum(part_cost(flavor, n, s) for s in parts) == value
    ]
    assert achievers, "the optimum is always attained by some partition"
    for parts in achievers:
        example = disjoint_union([complete(clique_of(s)) for s in parts])
        assert example.edge_count() == value
        cap = 2 * t - 1 if flavor is Flavor.GHAT else 2 * t
        for k in range(cap + 1):
            for subset in combinations(range(example.n), k):
                residual = example.without_vertices(subset)
                if is_k_colorable(residual, n - 2) is None:
                    continue
                if flavor is Flavor.GHAT:
                    return False
                if max_matching(example.induced(subset)) <= t - 1:
                    return False
    return True

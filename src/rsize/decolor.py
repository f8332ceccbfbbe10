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

Both variants run the paper's construction (a minimum vertex cover for
n = 3, else the classes past n-2 of a max-potential coloring) and check
the lemma's bounds on its result.  Existence is a theorem, so a missed
bound is an implementation bug and raises CertificationError, which
survives `python -O`.
"""

from __future__ import annotations

from itertools import count, product
from typing import Iterator, Sequence

from .arrowing import EdgeColoring, _lower_bound
from .errors import CertificationError, HypothesisError, RequestError, UndecidedError, _check_nt
from .graphs import (
    Graph,
    VertexColoring,
    _degree_order,
    _k_coloring,
    _mask_vertices,
    _twin_classes,
    _vertices_mask,
    coloring_from_assignment,
    complete,
    disjoint_union,
    max_matching,
    min_vertex_cover,
)
from .records import Record, _set
from .values import Flavor, g, g_hat, iter_partitions, part_cost

# the construction runs exact coloring, cover and matching searches, each
# exponential in the vertex count; on dense hosts under the hypothesis the
# slowest took 0.4 s at 24 vertices, 0.8 s at 26, 2 s at 28 and 7.5 s at 32
DECOLOR_MAX_VERTICES = 24


class DecolorResult(Record):
    """A vertex set S with a certified (n-2)-coloring of G - S.

    `removed` is a bitmask over G's vertices; `residual_coloring` colors
    G.without_vertices(removed), whose vertices are the kept vertices of
    G in ascending order.  `matching_in_set` is the matching number of
    G[S] for the matching variant, which checks it, and None otherwise.
    `method` is a class constant, "heuristic" (the paper's construction),
    and no field.

    The constructor is the coloring's certification: it re-derives G - S
    from G and S, regroups `color_of` with every edge checked for
    properness, requires the regrouped colors equal to the given ones and
    at most n-2 classes, and raises CertificationError otherwise.
    """

    __slots__ = ("graph", "n", "t", "removed", "residual_coloring", "matching_in_set")
    graph: Graph
    n: int
    t: int
    removed: int
    residual_coloring: VertexColoring
    matching_in_set: int | None
    method = "heuristic"

    def __init__(
        self,
        graph: Graph,
        n: int,
        t: int,
        removed: int,
        residual_coloring: VertexColoring,
        matching_in_set: int | None = None,
    ) -> None:
        if not 0 <= removed < 1 << graph.n:
            raise ValueError("removed-set mask out of range")
        residual = graph.without_vertices(_mask_vertices(removed))
        # re-validate properness and the color budget from scratch
        try:
            check = coloring_from_assignment(residual, residual_coloring.color_of)
        except ValueError as exc:
            raise CertificationError(f"residual coloring does not match G - S: {exc}") from None
        if check.color_of != residual_coloring.color_of:
            raise CertificationError("residual coloring does not match G - S")
        if residual_coloring.num_colors > n - 2:
            raise CertificationError(
                f"residual coloring uses {residual_coloring.num_colors} colors, "
                f"allowed {n - 2}"
            )
        _set(self, "graph", graph)
        _set(self, "n", n)
        _set(self, "t", t)
        _set(self, "removed", removed)
        _set(self, "residual_coloring", residual_coloring)
        _set(self, "matching_in_set", matching_in_set)

    def removed_vertices(self) -> tuple[int, ...]:
        return _mask_vertices(self.removed)

    def removed_size(self) -> int:
        return self.removed.bit_count()


def satisfies_claim_one(graph: Graph, coloring: VertexColoring) -> bool:
    """Every vertex of a later class has a neighbor in every earlier class."""
    classes = coloring.classes
    for j in range(1, len(classes)):
        for v in _mask_vertices(classes[j]):
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
    # deepen k over one order: the first coloring found is chromatic, and
    # its classes are numbered as coloring_from_assignment numbers them
    order = _degree_order(graph.adj)
    base = next(c for k in count(1) if (c := _k_coloring(graph.adj, order, k)) is not None)
    classes = list(VertexColoring(tuple(base)).classes)
    chi = len(classes)
    moved = True
    while moved:
        classes.sort(key=lambda m: (-m.bit_count(), m & -m))
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
    # an emptied class would leave fewer than chi colors: caught below
    assignment = [0] * graph.n
    for color, mask in enumerate(classes):
        for v in _mask_vertices(mask):
            assignment[v] = color
    coloring = coloring_from_assignment(graph, assignment)
    if coloring.num_colors != chi or not satisfies_claim_one(graph, coloring):
        raise CertificationError("max-potential coloring failed re-verification")
    return coloring


def _decolor(graph: Graph, n: int, t: int, matching: bool) -> DecolorResult:
    """The paper's decoloring construction, behind both public variants.

    Lemma.  Let G have fewer than g_hat(n,t) edges (plain variant) or
    fewer than g(n,t) edges (matching variant), and let S be the vertices
    past the first n-2 classes of a chromatic coloring in which no vertex
    can move to an earlier class (Claim 1, max_potential_coloring).  Then
    G - S is (n-2)-colored by the first n-2 classes, and |S| <= 2t-1
    (plain), or G[S] spans no t disjoint edges and |S| <= 2t (matching).
    The paper counts the edges Claim 1 forces: every vertex of S has a
    neighbor in each earlier class, so a larger S, or t disjoint edges
    inside it, would give at least the threshold number of edges.

    For n = 3 one color is left, so S must be a vertex cover; take a
    minimum one.  It has at most |E| < g_hat(3,t) <= 2t vertices.  And each
    of its vertices has a private edge leaving the cover, or dropping the
    vertex would leave a smaller cover; so t disjoint edges inside it,
    with the private edges of their 2t ends, make 3t >= g(3,t) edges,
    against the hypothesis.

    A bound the construction misses would contradict the lemma, so it
    raises CertificationError.  The residual coloring is handed over
    unchecked: DecolorResult's constructor re-derives G - S and checks it,
    the one certification of the coloring.  A host on more than
    DECOLOR_MAX_VERTICES vertices that meets the hypothesis raises
    UndecidedError unsearched.
    """
    if not isinstance(graph, Graph):
        raise TypeError("expected a Graph")
    _check_nt(n, t, n_min=3)
    bound = (g if matching else g_hat)(n, t).value
    if graph.edge_count() >= bound:
        raise HypothesisError(
            f"{graph.edge_count()} edges, but the guarantee needs fewer than {bound}"
        )
    if graph.n > DECOLOR_MAX_VERTICES:
        raise UndecidedError(
            f"undecided: decoloring capped at {DECOLOR_MAX_VERTICES} vertices, got {graph.n}"
        )
    if n == 3:
        removed = _vertices_mask(min_vertex_cover(graph))
        color_of: Sequence[int] = [0] * graph.n
    else:
        coloring = max_potential_coloring(graph)
        removed = 0
        for mask in coloring.classes[n - 2 :]:
            removed |= mask
        color_of = coloring.color_of
    vertices = _mask_vertices(removed)
    inside = None
    if matching:
        inside = max_matching(graph.induced(vertices))
        if inside > t - 1:
            raise CertificationError(f"decoloring set spans {inside} disjoint edges, allowed {t - 1}")
        cap = 2 * t if n >= 4 else graph.n  # for n = 3 only the matching bound holds
    else:
        cap = 2 * t - 1
    if len(vertices) > cap:
        raise CertificationError(f"decoloring set of {len(vertices)} vertices exceeds {cap}")
    # G - S keeps colors 0..n-3 whole, so their classes, relabeled onto the
    # kept vertices, keep coloring_from_assignment's order
    kept = tuple(color_of[v] for v in range(graph.n) if not removed >> v & 1)
    return DecolorResult(
        graph=graph,
        n=n,
        t=t,
        removed=removed,
        residual_coloring=VertexColoring(kept),
        matching_in_set=inside,
    )


def find_decolor_set(graph: Graph, n: int, t: int) -> DecolorResult:
    """S with |S| <= 2t-1 and G - S properly (n-2)-colorable.

    Requires fewer edges than the one-clique-per-stripe optimum; that
    hypothesis is what makes the bound a theorem.
    """
    return _decolor(graph, n, t, matching=False)


def find_decolor_set_matching(graph: Graph, n: int, t: int) -> DecolorResult:
    """S spanning no t disjoint edges, with G - S properly (n-2)-colorable.

    Requires fewer edges than the two-per-stripe optimum.  When n >= 4
    the returned set also has at most 2t vertices.
    """
    return _decolor(graph, n, t, matching=True)


def _witness_coloring(result: DecolorResult) -> EdgeColoring:
    """Blue inside the matching variant's set (Frankl's i = 2 on it), red elsewhere; re-checked."""
    return _lower_bound(result.graph, result.removed, 2, result.n, result.t)


def witness_good_coloring(host: Graph, n: int, t: int) -> EdgeColoring:
    """A certified coloring of an under-sized host with no red K_n, no blue tK_2.

    Blue = edges inside the decoloring set, red = everything else; a red
    n-clique would need n-1 mutually adjacent vertices off the set, which
    its (n-2)-coloring forbids.  Certified by direct clique and matching
    checks before returning; a failed check raises CertificationError.
    """
    return _witness_coloring(find_decolor_set_matching(host, n, t))


def _twin_prefixes(graph: Graph, size: int) -> Iterator[tuple[int, ...]]:
    """One vertex set per profile of `size` vertices, as a sorted tuple.

    A profile says how many vertices a set takes from each twin class;
    the set takes the lowest-numbered ones.  Swapping two twins is an
    automorphism, so every set of that size is the image of its profile's
    set under an automorphism.
    """
    classes = [_mask_vertices(cls) for cls in _twin_classes(graph)]
    for takes in product(*(range(len(cls) + 1) for cls in classes)):
        if sum(takes) == size:
            yield tuple(sorted(v for cls, k in zip(classes, takes) for v in cls[:k]))


def check_tightness_remark(n: int, t: int, flavor: Flavor) -> bool:
    """Is the decoloring bound unimprovable at the exact edge threshold?

    Builds every disjoint-clique graph achieving the threshold edge count
    and scans the candidate sets: for the one-per-stripe flavor, no set of
    at most 2t-1 vertices may leave an (n-2)-colorable graph; for the
    two-per-stripe flavor, any set of at most 2t vertices that does must
    span t disjoint edges.  Colorability of G - S and the matching number
    of G[S] are isomorphism invariants, so one set per twin profile
    (_twin_prefixes) stands for every set.
    """
    if flavor not in (Flavor.G, Flavor.GHAT):
        raise RequestError(f"flavor must be G or GHAT, got {flavor}")
    _check_nt(n, t, n_min=3)
    if n > 5 or t > 2:
        raise UndecidedError(f"undecided: tightness scan capped at n <= 5, t <= 2")
    if flavor is Flavor.GHAT:
        value = g_hat(n, t).value
        target = 2 * t
        cap = 2 * t - 1
        clique_of = lambda s: n + s - 2
    else:
        value = g(n, t).value
        target = t
        cap = 2 * t
        clique_of = lambda s: n + 2 * s - 2
    achievers = [
        parts
        for parts in iter_partitions(target, target)
        if sum(part_cost(flavor, n, s) for s in parts) == value
    ]
    if not achievers:
        raise CertificationError(f"no partition attains the threshold {value}")
    for parts in achievers:
        example = disjoint_union([complete(clique_of(s)) for s in parts])
        if example.edge_count() != value:
            raise CertificationError(f"parts {parts} give {example.edge_count()} edges, not {value}")
        for k in range(cap + 1):
            for subset in _twin_prefixes(example, k):
                residual = example.without_vertices(subset).adj
                if _k_coloring(residual, _degree_order(residual), n - 2) is None:
                    continue
                if flavor is Flavor.GHAT:
                    return False
                if max_matching(example.induced(subset)) <= t - 1:
                    return False
    return True

"""Small-graph and small-hypergraph substrate with exact solvers.

Graphs live on at most 64 vertices as per-vertex adjacency bitmasks,
hypergraphs on at most 32 vertices as per-edge vertex bitmasks.  All
solvers here (matching, clique, coloring, cover) are exact branch-and-bound
searches; no heuristic ever stands in for an answer.  Isomorphism-free
enumeration walks connected graphs only, canonically labeled by
individualization and refinement (partitions are ordered lists of vertex
masks, refined to equitable ones by splitter masks off a queue), and
assembles every other graph from its components.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations, count
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

from .errors import RequestError, _check_int

MAX_GRAPH_VERTICES = 64
MAX_HYPER_VERTICES = 32
ENUMERATION_MAX_EDGES = 12

__all__ = [
    "MAX_GRAPH_VERTICES",
    "MAX_HYPER_VERTICES",
    "CapacityError",
    "CertificationError",
    "Graph6Error",
    "HypergraphFormatError",
    "Graph",
    "VertexColoring",
    "complete",
    "disjoint_union",
    "max_matching",
    "has_clique",
    "max_independent_set",
    "min_vertex_cover",
    "is_k_colorable",
    "chromatic_number",
    "coloring_from_assignment",
    "canonical_form",
    "enumerate_graphs",
    "to_graph6",
    "from_graph6",
    "Hypergraph",
    "complete_r",
    "hyper_matching",
    "has_red_complete_r",
    "hypergraph_to_text",
    "hypergraph_from_text",
]


class CertificationError(RuntimeError):
    """A certificate built here failed its independent re-check: a defect, not an input error."""


class CapacityError(RequestError):
    """Instance exceeds the fixed small-scale caps."""


class Graph6Error(RequestError):
    """Malformed graph6 input; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class HypergraphFormatError(RequestError):
    """Malformed hypergraph text; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


class Graph:
    """Undirected simple graph on vertices 0..n-1, adjacency as bitmasks."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0 or n > MAX_GRAPH_VERTICES:
            raise CapacityError(f"graphs must have 0..{MAX_GRAPH_VERTICES} vertices, got {n}")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise RequestError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u == v:
                raise RequestError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1)
            v = u + 1
            while rest:
                if rest & 1:
                    out.append((u, v))
                rest >>= 1
                v += 1
        return out

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def induced(self, vertices: Sequence[int]) -> "Graph":
        """Subgraph induced on the given vertices, relabeled in given order."""
        bit = {v: 1 << i for i, v in enumerate(vertices)}
        if len(bit) != len(vertices):
            raise RequestError(f"repeated vertex in {tuple(vertices)}")
        keep = _vertices_mask(vertices)
        rows = []
        for v in vertices:
            nb = self.adj[v] & keep
            row = 0
            while nb:
                low = nb & -nb
                nb ^= low
                row |= bit[low.bit_length() - 1]
            rows.append(row)
        sub = Graph(len(rows))
        sub.adj = tuple(rows)
        return sub

    def without_vertices(self, drop: Iterable[int]) -> "Graph":
        dropset = set(drop)
        return self.induced([v for v in range(self.n) if v not in dropset])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"


def complete(k: int) -> Graph:
    return Graph(k, combinations(range(k), 2))


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    total = sum(g.n for g in graphs)
    if total > MAX_GRAPH_VERTICES:
        raise CapacityError(f"union would have {total} > {MAX_GRAPH_VERTICES} vertices")
    edges = []
    offset = 0
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges())
        offset += g.n
    return Graph(total, edges)


# ------------------------------------------------------------ exact solvers


def max_matching(g: Graph) -> int:
    """Matching number, by branching on the lowest non-isolated vertex.

    Summed over the connected components: the memo is keyed on sets of
    available vertices, so one search over k components would store the
    product of their subset counts rather than the sum.
    """
    adj = g.adj
    memo: dict[int, int] = {}

    def rec(avail: int) -> int:
        # skip vertices with no partner left; they cannot affect the value
        rest = avail
        v = -1
        while rest:
            w = (rest & -rest).bit_length() - 1
            if adj[w] & avail:
                v = w
                break
            rest &= rest - 1
        if v < 0:
            return 0
        cached = memo.get(avail)
        if cached is not None:
            return cached
        without_v = avail & ~(1 << v)
        best = rec(without_v)
        nb = adj[v] & without_v
        while nb:
            u = (nb & -nb).bit_length() - 1
            nb &= nb - 1
            cand = 1 + rec(without_v & ~(1 << u))
            if cand > best:
                best = cand
        memo[avail] = best
        return best

    # singletons hold no edge
    return sum(rec(comp) for comp in _components(g) if comp & (comp - 1))


def has_clique(g: Graph, k: int) -> bool:
    """Whether the graph contains a clique on k vertices."""
    if k <= 0:
        return True
    if k == 1:
        return g.n >= 1
    adj = g.adj

    def extend(cand: int, need: int) -> bool:
        if need == 0:
            return True
        if cand.bit_count() < need:
            return False
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if cand.bit_count() + 1 < need:
                return False
            if extend(cand & adj[v], need - 1):
                return True
        return False

    return extend((1 << g.n) - 1, k)


def max_independent_set(g: Graph) -> int:
    """A maximum independent set, returned as a vertex bitmask."""
    adj = g.adj
    memo: dict[int, tuple[int, int]] = {}

    def rec(avail: int) -> tuple[int, int]:
        if avail == 0:
            return 0, 0
        cached = memo.get(avail)
        if cached is not None:
            return cached
        v = (avail & -avail).bit_length() - 1
        bit = 1 << v
        if not adj[v] & avail:
            size, mask = rec(avail & ~bit)
            result = size + 1, mask | bit
        else:
            take_size, take_mask = rec(avail & ~bit & ~adj[v])
            skip_size, skip_mask = rec(avail & ~bit)
            if take_size + 1 >= skip_size:
                result = take_size + 1, take_mask | bit
            else:
                result = skip_size, skip_mask
        memo[avail] = result
        return result

    _, mask = rec((1 << g.n) - 1)
    return mask


def min_vertex_cover(g: Graph) -> tuple[int, ...]:
    """A minimum vertex cover, as a sorted vertex tuple."""
    independent = max_independent_set(g)
    return tuple(v for v in range(g.n) if not independent >> v & 1)


# ------------------------------------------------------------------ coloring


@dataclass(frozen=True)
class VertexColoring:
    """A proper coloring: per-vertex colors plus classes as vertex bitmasks.

    Classes are ordered by nonincreasing size (ties by smallest member) and
    color_of refers to positions in that order.
    """

    color_of: tuple[int, ...]
    classes: tuple[int, ...]

    @property
    def num_colors(self) -> int:
        return len(self.classes)

    def class_vertices(self, i: int) -> tuple[int, ...]:
        mask = self.classes[i]
        return tuple(v for v in range(len(self.color_of)) if mask >> v & 1)


def coloring_from_assignment(g: Graph, assignment: Sequence[int]) -> VertexColoring:
    """Build a validated VertexColoring from raw per-vertex colors."""
    if len(assignment) != g.n:
        raise ValueError(f"assignment covers {len(assignment)} of {g.n} vertices")
    for u, v in g.edges():
        if assignment[u] == assignment[v]:
            raise ValueError(f"edge ({u}, {v}) is monochromatic in color {assignment[u]}")
    groups: dict[int, int] = defaultdict(int)
    for v, c in enumerate(assignment):
        groups[c] |= 1 << v
    ordered = sorted(groups.values(), key=lambda m: (-m.bit_count(), m & -m))
    relabel = {mask: i for i, mask in enumerate(ordered)}
    color_of = [0] * g.n
    for mask, i in relabel.items():
        for v in range(g.n):
            if mask >> v & 1:
                color_of[v] = i
    return VertexColoring(color_of=tuple(color_of), classes=tuple(ordered))


def is_k_colorable(g: Graph, k: int) -> VertexColoring | None:
    """A proper coloring with at most k colors, or None.

    Backtracking over vertices in nonincreasing degree order, with the
    standard symmetry break: a vertex may open at most one new color.
    """
    if g.n == 0:
        return VertexColoring(color_of=(), classes=())
    if k <= 0:
        return None
    adj = g.adj
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    class_masks = [0] * k
    colors = [-1] * g.n

    def rec(idx: int, used: int) -> bool:
        if idx == g.n:
            return True
        v = order[idx]
        bit = 1 << v
        for c in range(min(k, used + 1)):
            if class_masks[c] & adj[v]:
                continue
            class_masks[c] |= bit
            colors[v] = c
            if rec(idx + 1, max(used, c + 1)):
                return True
            class_masks[c] &= ~bit
            colors[v] = -1
        return False

    if not rec(0, 0):
        return None
    return coloring_from_assignment(g, colors)


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number: the least k that is_k_colorable accepts."""
    return next(k for k in count() if is_k_colorable(g, k) is not None)


# --------------------------------------------------- canonical form, counting


def _refine(adj: Sequence[int], cells: list[int], queue: list[int]) -> list[int]:
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


def _find(parent: list[int], x: int) -> int:
    """The root of x in a union-find forest, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


# a permutation of 0..n-1, as the tuple of images
_Perm = tuple[int, ...]
# a canonical form (n, edge tuple), as canonical_form returns it
_Form = tuple[int, tuple[tuple[int, int], ...]]


def _canon_connected(g: Graph) -> tuple[tuple[tuple[int, int], ...], list[_Perm]]:
    """Canonical edge list of a connected graph via individualization.

    Branches on the first non-singleton cell after refinement and takes
    the minimum over leaf edge lists.  Two leaves with equal edge lists
    reveal an automorphism; candidates related by an automorphism that
    fixes every vertex individualized so far generate identical subtrees,
    so only one per orbit is explored.  Without that prune the search is
    factorial on vertex-transitive graphs.  Returns the edge list and the
    automorphisms found, relabeled into the canonical labeling, where
    they are automorphisms of the canonical graph.
    """
    n, adj = g.n, g.adj
    edges = g.edges()
    best: tuple[tuple[int, int], ...] = ()
    best_colors: list[int] = []  # empty until the first leaf
    gens: list[_Perm] = []

    def leaf(cells: list[int]) -> None:
        # discrete partition: each vertex is labeled by its cell's position
        nonlocal best, best_colors
        colors = [0] * n
        for i, cell in enumerate(cells):
            colors[cell.bit_length() - 1] = i
        key = tuple(
            sorted(
                (colors[u], colors[v]) if colors[u] < colors[v] else (colors[v], colors[u])
                for u, v in edges
            )
        )
        if not best_colors or key < best:
            best, best_colors = key, colors
        elif key == best:
            inverse = [0] * n
            for v in range(n):
                inverse[best_colors[v]] = v
            auto = tuple(inverse[colors[v]] for v in range(n))
            if any(auto[v] != v for v in range(n)):
                # the orbit prune trusts every stored generator
                if not all(adj[auto[u]] >> auto[v] & 1 for u, v in edges):
                    raise CertificationError(f"leaf relabeling {auto} is not an automorphism")
                gens.append(auto)

    def search(cells: list[int], fixed: tuple[int, ...]) -> None:
        if len(cells) == n:
            leaf(cells)
            return
        i = next(i for i, cell in enumerate(cells) if cell & (cell - 1))
        target = cells[i]
        explored: list[int] = []
        # union-find of the orbits of the stored generators that fix `fixed` pointwise
        orbits = list(range(n))
        merged = 0
        for v in _mask_vertices(target):
            if explored:
                # gens only grows, at leaves: merge the generators stored since the last candidate
                for auto in gens[merged:]:
                    if all(auto[u] == u for u in fixed):
                        for u in range(n):
                            orbits[_find(orbits, u)] = _find(orbits, auto[u])
                merged = len(gens)
                root = _find(orbits, v)
                if any(_find(orbits, u) == root for u in explored):
                    continue
            explored.append(v)
            # the parent partition is equitable, so {v} is the only splitter needed
            bit = 1 << v
            split = cells[:i] + [bit, target ^ bit] + cells[i + 1 :]
            search(_refine(adj, split, [bit]), fixed + (v,))

    full = (1 << n) - 1
    search(_refine(adj, [full], [full]), ())
    # vertex v has canonical label best_colors[v]
    inverse = [0] * n
    for v in range(n):
        inverse[best_colors[v]] = v
    return best, [tuple(best_colors[auto[inverse[i]]] for i in range(n)) for auto in gens]


def _components(g: Graph) -> list[int]:
    """The connected components as vertex masks, by lowest vertex."""
    adj = g.adj
    comps = []
    rest = (1 << g.n) - 1
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            new = adj[v] & ~comp
            comp |= new
            frontier |= new
        comps.append(comp)
        rest &= ~comp
    return comps


def _twin_classes(g: Graph) -> list[int]:
    """Classes of vertices with equal closed neighbourhoods, as vertex masks by lowest vertex.

    Swapping two vertices of one class, and fixing every other vertex, is
    an automorphism.
    """
    classes: dict[int, int] = {}
    for v, nb in enumerate(g.adj):
        closed = nb | 1 << v
        classes[closed] = classes.get(closed, 0) | 1 << v
    return list(classes.values())


def _join(parts: Sequence[_Form]) -> _Form:
    """The form of the disjoint union of connected forms, given in sorted order.

    Each part is relabeled past the parts before it, so the concatenated
    edge list is already sorted.
    """
    edges: list[tuple[int, int]] = []
    offset = 0
    for size, part_edges in parts:
        edges.extend((u + offset, v + offset) for u, v in part_edges)
        offset += size
    return offset, tuple(edges)


def canonical_form(g: Graph) -> _Form:
    """A complete isomorphism invariant: canonical (n, edge tuple).

    Each connected component is canonicalized on its own (components stay
    small even when the whole graph does not), then the component forms
    are sorted and joined.  Two graphs get equal forms iff they are
    isomorphic.
    """
    parts = []
    for comp in _components(g):
        sub = g if comp.bit_count() == g.n else g.induced(_mask_vertices(comp))
        parts.append((sub.n, _canon_connected(sub)[0]))
    return _join(sorted(parts))


def _check_automorphisms(form: _Form, gens: Sequence[_Perm]) -> None:
    """Raise CertificationError unless every generator is an automorphism of the form."""
    n, edges = form
    present = set(edges)
    vertices = list(range(n))
    for auto in gens:
        if sorted(auto) != vertices or not all(
            ((auto[u], auto[v]) if auto[u] < auto[v] else (auto[v], auto[u])) in present
            for u, v in edges
        ):
            raise CertificationError(f"{auto} is not an automorphism of {form}")


def _orbit_heads(points: Iterable, images: Callable[[object], list]) -> list:
    """The first point of each orbit, in the given order; images(p) lists p's generator images."""
    seen = set()
    heads = []
    for p in points:
        if p in seen:
            continue
        heads.append(p)
        seen.add(p)
        stack = [p]
        while stack:
            for q in images(stack.pop()):
                if q not in seen:
                    seen.add(q)
                    stack.append(q)
    return heads


def _edge_key(adj: Sequence[int], u: int, v: int) -> tuple[int, int, int]:
    """An isomorphism invariant of the edge uv: common neighbours, larger and smaller degree."""
    du, dv = adj[u].bit_count(), adj[v].bit_count()
    return (adj[u] & adj[v]).bit_count(), max(du, dv), min(du, dv)


def _is_removable(adj: Sequence[int], u: int, v: int) -> bool:
    """Whether the edge uv of a connected graph is removable.

    Removable: deleting the edge, and any vertex it leaves isolated, keeps
    the graph connected.  True for a pendant edge, and for an edge on a
    cycle, where v is still reachable from u without the edge.
    """
    if not adj[u] & (adj[u] - 1) or not adj[v] & (adj[v] - 1):
        return True
    frontier = adj[u] & ~(1 << v)
    seen = frontier | 1 << u
    while frontier:
        w = (frontier & -frontier).bit_length() - 1
        frontier &= frontier - 1
        new = adj[w] & ~seen
        if new >> v & 1:
            return True
        seen |= new
        frontier |= new
    return False


def _children(form: _Form, gens: Sequence[_Perm], cap: int) -> Iterator[tuple[_Form, list[_Perm]]]:
    """The one-edge children of a connected canonical graph that the walk needs, labeled.

    Yields each child's canonical form with generators of its automorphism
    group in its canonical labels, as _canon_connected returns them.  The
    children are an edge between two present vertices and a pendant edge
    to one new vertex; both stay connected.  An automorphism of the parent
    maps a child to an isomorphic one, so one child per orbit of non-edges
    and one per orbit of vertices give every child's form.  The orbits
    come from gens, automorphisms of the parent form in its canonical
    labels, which are re-verified before use.  A child is canonicalized
    only if no removable edge (see _is_removable) has a larger _edge_key
    than its new edge; the rest are dropped unbuilt, from the parent's
    adjacency plus the new edge (see _graph_levels).
    """
    n, edges = form
    _check_automorphisms(form, gens)
    present = set(edges)
    non_edges = [p for p in combinations(range(n), 2) if p not in present]
    new = _orbit_heads(
        non_edges,
        lambda p: [(a[p[0]], a[p[1]]) if a[p[0]] < a[p[1]] else (a[p[1]], a[p[0]]) for a in gens],
    )
    if n + 1 <= cap:
        new += [(u, n) for u in _orbit_heads(range(n), lambda u: [a[u] for a in gens])]
    adj = [0] * (n + 1)
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    for u, v in new:
        child = adj.copy()
        child[u] |= 1 << v
        child[v] |= 1 << u
        key = _edge_key(child, u, v)
        if not any(_edge_key(child, a, b) > key and _is_removable(child, a, b) for a, b in edges):
            size = max(n, v + 1)
            child_edges, child_gens = _canon_connected(Graph(size, edges + ((u, v),)))
            yield (size, child_edges), child_gens


def _unions(connected: Sequence[Sequence[_Form]], m: int, cap: int) -> Iterator[_Form]:
    """The forms of every multiset of connected forms with m edges in all and at most cap vertices.

    connected[j - 1] lists the connected forms with j edges.  Parts are
    taken by nonincreasing edge count, and by nondecreasing position among
    equal counts, so each multiset comes once.
    """
    chosen: list[_Form] = []

    def extend(most: int, start: int, left: int, room: int) -> Iterator[_Form]:
        if not left:
            yield _join(sorted(chosen))
            return
        for j in range(min(most, left), 0, -1):
            level = connected[j - 1]
            for i in range(start if j == most else 0, len(level)):
                part = level[i]
                if part[0] <= room:
                    chosen.append(part)
                    yield from extend(j, i, left - j, room - part[0])
                    chosen.pop()

    return extend(m, 0, m, cap)


def _graph_levels(m: int, max_vertices: int | None) -> Iterator[list[Graph]]:
    """Levels 1..m of the isomorphism-free walk, each sorted by canonical form.

    The walk grows connected graphs only.  Connected level k+1 is grown
    from connected level k by adding one edge in every way that keeps the
    graph connected: between two present vertices, or to one new vertex.
    Call an edge removable when deleting it, and any vertex it leaves
    isolated, keeps the graph connected: an edge on a cycle or a pendant
    edge.  Every connected graph with k+1 >= 2 edges has one (a cycle edge,
    or else a leaf edge of the tree), and deletion never adds vertices, so
    each connected level is complete, also under the vertex cap.  Children
    that an automorphism of their parent maps onto each other are
    isomorphic, so only one per orbit is canonicalized (the first half of
    McKay's isomorph-free generation).  Of those, only a child whose new
    edge has the largest _edge_key among its removable edges is
    canonicalized (McKay's cheap-invariant test).  That loses nothing: for
    a connected (k+1)-edge graph G, delete a removable edge e with the
    largest key among the removable ones; the result P is connected and
    lies on level k, and the orbit head for e's place in P's canonical
    form gives a child isomorphic to G by a map that sends the new edge to
    e, so the new edge is removable with the largest key.  Duplicates are
    still removed by form.  Level k is then assembled, with no canonical
    labeling, from the multisets of connected forms whose edge counts sum
    to k and whose vertex counts total at most the cap: a graph with no
    isolated vertex is the disjoint union of its components, and the form
    of a union is the join of its sorted component forms.  So the levels
    are the same as those of the one-edge walk over all graphs with
    neither prune.  Every child that passes both prunes is labeled by
    _canon_connected, and the automorphism generators that labeling
    returns go with the child's form to the next level, where they prune
    its own children.  A form reached twice keeps the generators of its
    last labeling.
    """
    cap = 2 * m if max_vertices is None else max_vertices
    root, root_gens = _canon_connected(complete(2))
    gens: dict[_Form, list[_Perm]] = {(2, root): root_gens}
    connected = [[(2, root)] if cap >= 2 else []]
    for k in range(1, m + 1):
        yield [Graph(n, edges) for n, edges in sorted(_unions(connected, k, cap))]
        if k == m:
            return
        nxt: dict[_Form, list[_Perm]] = {}
        for form in connected[-1]:
            nxt.update(_children(form, gens[form], cap))
        gens = nxt
        connected.append(sorted(nxt))


def enumerate_graphs(m: int, max_vertices: int | None = None) -> Iterator[Graph]:
    """All graphs with exactly m edges and no isolated vertices, up to iso.

    Yields level m of _graph_levels, in sorted canonical-form order, each
    graph labeled by its canonical form.  The walk grows connected graphs
    one edge at a time from K_2: it canonicalizes one child per orbit of
    its parent's automorphisms, and only if no removable edge has a larger
    edge invariant than the new one.  Level m is assembled from multisets
    of connected graphs, with no further canonical labeling.  A caller
    that needs every level up to m walks them once through the same
    generator rather than calling this per level.
    """
    _check_int("m", m, 0)
    if max_vertices is not None:
        _check_int("max_vertices", max_vertices, 0)
    if m > ENUMERATION_MAX_EDGES:
        raise CapacityError(f"enumeration capped at {ENUMERATION_MAX_EDGES} edges, got {m}")
    if m == 0:
        yield Graph(0)
        return
    *_, last = _graph_levels(m, max_vertices)
    yield from last


# -------------------------------------------------------------------- graph6


def to_graph6(g: Graph) -> str:
    """Encode in standard graph6 (long size form for 63 and 64 vertices)."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = chr(126) + chr(63 + (n >> 12 & 63)) + chr(63 + (n >> 6 & 63)) + chr(63 + (n & 63))
    bits = []
    for v in range(1, n):
        for u in range(v):
            bits.append(g.adj[u] >> v & 1)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for i in range(0, len(bits), 6):
        value = 0
        for b in bits[i : i + 6]:
            value = value << 1 | b
        chars.append(chr(value + 63))
    return head + "".join(chars)


def from_graph6(text: str) -> Graph:
    """Decode a graph6 string; malformed input names the failing byte."""
    if not text:
        raise Graph6Error("empty graph6 string", 0)
    codes = []
    for i, ch in enumerate(text):
        o = ord(ch)
        if o < 63 or o > 126:
            raise Graph6Error(f"byte {o:#x} outside graph6 range", i)
        codes.append(o - 63)
    if codes[0] == 63:  # '~' long size form
        if len(codes) < 4:
            raise Graph6Error("truncated long size form", len(text))
        if codes[1] == 63:
            raise Graph6Error("8-byte size form not supported", 1)
        n = codes[1] << 12 | codes[2] << 6 | codes[3]
        if n < 63:
            raise Graph6Error(f"non-canonical long size form for n={n}", 1)
        body_start = 4
    else:
        n = codes[0]
        body_start = 1
    if n > MAX_GRAPH_VERTICES:
        raise CapacityError(f"graph6 declares {n} > {MAX_GRAPH_VERTICES} vertices")
    pairs = n * (n - 1) // 2
    need = (pairs + 5) // 6
    if len(codes) - body_start < need:
        raise Graph6Error(f"body needs {need} bytes, found {len(codes) - body_start}", len(text))
    if len(codes) - body_start > need:
        raise Graph6Error("trailing bytes after graph body", body_start + need)
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            value = codes[body_start + idx // 6]
            if value >> (5 - idx % 6) & 1:
                edges.append((u, v))
            idx += 1
    # padding bits must be zero in well-formed graph6
    while idx < need * 6:
        if codes[body_start + idx // 6] >> (5 - idx % 6) & 1:
            raise Graph6Error("nonzero padding bits", body_start + idx // 6)
        idx += 1
    return Graph(n, edges)


# --------------------------------------------------------------- hypergraphs


class Hypergraph:
    """r-uniform hypergraph on vertices 0..n-1; edges as vertex bitmasks."""

    __slots__ = ("n", "r", "edge_masks")

    def __init__(self, n: int, r: int, edges: Iterable[Iterable[int]]):
        if n < 0 or n > MAX_HYPER_VERTICES:
            raise CapacityError(
                f"hypergraphs must have 0..{MAX_HYPER_VERTICES} vertices, got {n}"
            )
        if r < 2:
            raise RequestError(f"uniformity must be at least 2, got r={r}")
        masks = []
        for edge in edges:
            vs = sorted(edge)
            if len(vs) != r or len(set(vs)) != r:
                raise RequestError(f"edge {tuple(edge)} is not a set of {r} vertices")
            if vs[0] < 0 or vs[-1] >= n:
                raise RequestError(f"edge {tuple(vs)} out of range for {n} vertices")
            masks.append(_vertices_mask(vs))
        if len(set(masks)) != len(masks):
            raise RequestError("duplicate hyperedges")
        self.n = n
        self.r = r
        self.edge_masks = tuple(sorted(masks, key=_mask_vertices))

    def edge_tuples(self) -> list[tuple[int, ...]]:
        return [_mask_vertices(m) for m in self.edge_masks]

    def edge_count(self) -> int:
        return len(self.edge_masks)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Hypergraph)
            and (self.n, self.r, self.edge_masks) == (other.n, other.r, other.edge_masks)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.r, self.edge_masks))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, r={self.r}, edges={self.edge_tuples()})"


def _mask_vertices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        v = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        out.append(v)
    return tuple(out)


def _vertices_mask(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def complete_r(k: int, r: int) -> Hypergraph:
    """The complete r-uniform hypergraph on k vertices."""
    if r < 2:
        raise RequestError(f"uniformity must be at least 2, got r={r}")
    if k < 0:
        raise RequestError(f"need k >= 0, got {k}")
    return Hypergraph(k, r, combinations(range(k), r))


def hyper_matching(h: Hypergraph) -> int:
    """Largest number of pairwise disjoint hyperedges, exact."""
    masks = h.edge_masks
    m = len(masks)
    best = 0

    def rec(start: int, used: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        # even taking every remaining edge cannot beat best: prune
        if size + (m - start) <= best:
            return
        for j in range(start, m):
            if not masks[j] & used:
                rec(j + 1, used | masks[j], size + 1)

    rec(0, 0, 0)
    return best


def has_red_complete_r(h: Hypergraph, red_edges: Iterable[Iterable[int] | int], n: int) -> bool:
    """Whether the red edge subset contains a complete r-graph on n vertices."""
    if n < h.r:
        raise RequestError(f"need n >= r = {h.r}, got n={n}")
    host = set(h.edge_masks)
    red = set()
    for e in red_edges:
        mask = e if isinstance(e, int) else _vertices_mask(e)
        if mask not in host:
            raise RequestError(f"red edge {e!r} is not a host edge")
        red.add(mask)
    # a red K_n^r needs red degree C(n-1, r-1); the red v-bits sum to degree(v) << v
    need = comb(n - 1, h.r - 1)
    able = [v for v in range(h.n) if sum(map((1 << v).__and__, red)) >> v >= need]
    for window in combinations(able, n):
        if all(_vertices_mask(sub) in red for sub in combinations(window, h.r)):
            return True
    return False


def hypergraph_to_text(h: Hypergraph) -> str:
    """Serialize as a 'n r' header line plus one edge per line."""
    lines = [f"{h.n} {h.r}"]
    lines.extend(" ".join(str(v) for v in edge) for edge in h.edge_tuples())
    return "\n".join(lines) + "\n"


def hypergraph_from_text(text: str) -> Hypergraph:
    """Parse the text format; malformed input names the failing line."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise HypergraphFormatError("missing 'n r' header", 1)
    head = lines[0].split()
    if len(head) != 2:
        raise HypergraphFormatError(f"header must be 'n r', got {lines[0]!r}", 1)
    try:
        n, r = int(head[0]), int(head[1])
    except ValueError:
        raise HypergraphFormatError(f"non-integer header {lines[0]!r}", 1) from None
    edges = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            edge = [int(tok) for tok in line.split()]
        except ValueError:
            raise HypergraphFormatError(f"non-integer vertex in {line!r}", i) from None
        if len(edge) != r or len(set(edge)) != r:
            raise HypergraphFormatError(f"edge {line!r} is not a set of {r} vertices", i)
        if min(edge) < 0 or max(edge) >= n:
            raise HypergraphFormatError(f"edge {line!r} out of range for {n} vertices", i)
        edges.append(edge)
    try:
        return Hypergraph(n, r, edges)
    except ValueError as exc:
        # remaining constructor failures (duplicates, caps) have no single line
        raise HypergraphFormatError(str(exc), 1) from None

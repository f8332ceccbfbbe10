"""Small-graph and small-hypergraph substrate with exact solvers.

Graphs live on at most 64 vertices as per-vertex adjacency bitmasks,
hypergraphs on at most 32 vertices as per-edge vertex bitmasks.  All
solvers here (matching, clique, coloring, cover) are exact branch-and-bound
searches; no heuristic ever stands in for an answer.  One isomorph-free
walk labels connected graphs only, by individualization and refinement
(partitions are ordered lists of vertex masks, refined to equitable ones
by splitter masks off a queue), and assembles every other graph from its
components.  Two growth rules drive it: one edge at a time over all
graphs, or one K_n at a time over K_n-unions, graphs in which every edge
lies in a K_n.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from itertools import combinations, count
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    CapacityError,
    CertificationError,
    Graph6Error,
    HypergraphFormatError,
    RequestError,
    _check_int,
)
from .records import Record, _rebuild, _set

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


def _check_order(name: str, n: int, most: int, kind: str) -> None:
    """Refuse a vertex count that is not an int in 0..most."""
    _check_int(name, n, 0)
    if n > most:
        raise CapacityError(f"{kind} must have 0..{most} vertices, got {n}")


class Graph(Record):
    """Undirected simple graph on vertices 0..n-1 as adjacency bitmasks: the 2-uniform host.
    _hyperedge_mask checks each edge a caller passes; a graph derived from valid ones is not."""

    __slots__ = ("n", "adj")
    n: int
    adj: tuple[int, ...]
    r = 2  # uniformity, read as Hypergraph.r is

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        _check_order("n", n, MAX_GRAPH_VERTICES, "graphs")
        _set(self, "n", n)
        _set(self, "adj", _rows(n, [_hyperedge_mask(edge, n, 2) for edge in edges]))

    def edges(self) -> list[tuple[int, int]]:
        """Every edge (u, v) with u < v, sorted."""
        out = []
        for u, row in enumerate(self.adj):
            rest = row >> (u + 1) << (u + 1)
            while rest:
                low = rest & -rest
                rest ^= low
                out.append((u, low.bit_length() - 1))
        return out

    @property
    def edge_masks(self) -> list[int]:
        """Every edge as a two-vertex mask, in edges() order."""
        return [1 << u | 1 << v for u, v in self.edges()]

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def induced(self, vertices: Sequence[int]) -> "Graph":
        """Subgraph induced on the given vertices, relabeled in given order."""
        bit = {}
        keep = 0
        for i, v in enumerate(vertices):
            if type(v) is not int or not 0 <= v < self.n:
                raise RequestError(f"vertex {v!r} out of range for {self.n} vertices")
            bit[v] = 1 << i
            keep |= 1 << v
        if len(bit) != len(vertices):
            raise RequestError(f"repeated vertex in {tuple(vertices)}")
        rows = []
        for v in vertices:
            nb = self.adj[v] & keep
            row = 0
            while nb:
                low = nb & -nb
                nb ^= low
                row |= bit[low.bit_length() - 1]
            rows.append(row)
        return _rebuild(Graph, (len(rows), tuple(rows)))

    def without_vertices(self, drop: Iterable[int]) -> "Graph":
        dropset = set(drop)
        return self.induced([v for v in range(self.n) if v not in dropset])

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"


def _rows(n: int, edge_masks: Iterable[int]) -> tuple[int, ...]:
    """The adjacency rows of the graph on n vertices with these two-vertex masks as edges."""
    adj = [0] * n
    for em in edge_masks:
        low = em & -em
        high = em ^ low
        adj[low.bit_length() - 1] |= high
        adj[high.bit_length() - 1] |= low
    return tuple(adj)


def _graph_of(n: int, edge_masks: Iterable[int]) -> Graph:
    """The n-vertex graph with these two-vertex masks as edges, made by the package: unchecked."""
    return _rebuild(Graph, (n, _rows(n, edge_masks)))


def _form_graph(form: _Form) -> Graph:
    """The graph of an (n, edge tuple) pair the package built, such as a form, stored unchecked."""
    n, edges = form
    return _graph_of(n, [1 << u | 1 << v for u, v in edges])


def complete(k: int) -> Graph:
    """K_k, built from its rows with no edge check: each vertex's row holds every other vertex."""
    _check_order("k", k, MAX_GRAPH_VERTICES, "graphs")
    return _rebuild(Graph, (k, tuple((1 << k) - 1 ^ 1 << v for v in range(k))))


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    _check_order("n", sum(g.n for g in graphs), MAX_GRAPH_VERTICES, "graphs")
    return _form_graph(_join([(g.n, g.edges()) for g in graphs]))


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
    _check_int("k", k, 0)
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


class VertexColoring(Record):
    """A coloring: per-vertex colors, and the classes they give as vertex bitmasks.

    The constructor takes color_of alone and builds classes[c], the mask of
    the vertices of color c.  coloring_from_assignment numbers the classes
    by nonincreasing size (ties by smallest member) and checks properness.
    """

    __slots__ = ("color_of", "classes")
    color_of: tuple[int, ...]
    classes: tuple[int, ...]

    def __init__(self, color_of: tuple[int, ...]) -> None:
        # a negative color would index classes from the end
        if min(color_of, default=0) < 0:
            raise ValueError(f"colors must be nonnegative, got {color_of}")
        classes = [0] * (max(color_of, default=-1) + 1)
        for v, c in enumerate(color_of):
            classes[c] |= 1 << v
        _set(self, "color_of", color_of)
        _set(self, "classes", tuple(classes))

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
    color_of = tuple(relabel[groups[c]] for c in assignment)
    # the classes are already grouped: hand them over rather than regroup
    return _rebuild(VertexColoring, (color_of, tuple(ordered)))


def _degree_order(adj: Sequence[int]) -> list[int]:
    """The vertices by nonincreasing degree, ties by index: _k_coloring's order."""
    return sorted(range(len(adj)), key=lambda v: (-adj[v].bit_count(), v))


def _k_coloring(adj: Sequence[int], order: Sequence[int], k: int) -> list[int] | None:
    """Per-vertex colors of a proper k-coloring, or None, by backtracking over the vertices
    in the given order; the symmetry break lets a vertex open at most one new color."""
    n = len(adj)
    class_masks = [0] * k
    colors = [-1] * n

    def rec(idx: int, used: int) -> bool:
        if idx == n:
            return True
        v = order[idx]
        bit, row = 1 << v, adj[v]
        for c in range(used + 1 if used < k else k):
            if class_masks[c] & row:
                continue
            class_masks[c] |= bit
            colors[v] = c
            if rec(idx + 1, used if c < used else c + 1):
                return True
            class_masks[c] ^= bit
        return False

    return colors if rec(0, 0) else None


def is_k_colorable(g: Graph, k: int) -> VertexColoring | None:
    """A proper coloring with at most k colors, or None, by _k_coloring in _degree_order."""
    _check_int("k", k, 0)
    colors = _k_coloring(g.adj, _degree_order(g.adj), k)
    return None if colors is None else coloring_from_assignment(g, colors)


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
    it commutes with relabeling.  A two-vertex cell is split by its two
    counts, with no grouping.
    """
    n = len(adj)
    while queue and len(cells) < n:
        w = queue.pop()
        out = []
        for cell in cells:
            rest = cell & (cell - 1)
            if not rest:
                out.append(cell)
                continue
            if rest & (rest - 1):
                groups: dict[int, int] = {}
                while cell:
                    low = cell & -cell
                    cell ^= low
                    k = (adj[low.bit_length() - 1] & w).bit_count()
                    groups[k] = groups.get(k, 0) | low
                fragments = [groups[k] for k in sorted(groups)]
            else:
                a = (adj[(cell ^ rest).bit_length() - 1] & w).bit_count()
                b = (adj[rest.bit_length() - 1] & w).bit_count()
                fragments = [cell] if a == b else [cell ^ rest, rest] if a < b else [rest, cell ^ rest]
            out += fragments
            if len(fragments) > 1:
                queue += fragments
        cells = out
    return cells


def _orbit_mask(mask: int, perms: Sequence[_Perm]) -> int:
    """The union of the orbits of mask's vertices under the group perms generate: images
    suffice, as the inverse of each permutation is one of its powers."""
    frontier = mask
    while frontier:
        u = (frontier & -frontier).bit_length() - 1
        frontier &= frontier - 1
        for perm in perms:
            if not mask >> perm[u] & 1:
                mask |= 1 << perm[u]
                frontier |= 1 << perm[u]
    return mask


# a permutation of 0..n-1, as the tuple of images
_Perm = tuple[int, ...]
# a canonical form (n, edge tuple), as canonical_form returns it
_Form = tuple[int, tuple[tuple[int, int], ...]]


def _canon_connected(g: Graph) -> tuple[tuple[tuple[int, int], ...], list[_Perm]]:
    """Canonical edge list of a connected graph via individualization.

    Branches on the first non-singleton cell after refinement and takes
    the least leaf key, the sorted a * n + b over the leaf's relabeled
    edges a < b: it orders as the sorted edge list does, which is decoded
    for the best leaf alone.  The generator list starts with the
    transposition of each pair of consecutive twins (vertices with equal
    closed neighbourhoods, or with equal open ones), and grows at leaves:
    a leaf whose key equals the best leaf's reveals an automorphism.  Each
    is verified before it is stored, and one that fails raises
    CertificationError: a leaf's edge by edge, a twin swap (u w) by the
    transposition test N(u) - {w} = N(w) - {u}.  The swap fixes uw and
    each edge missing u and w, and trades ux for wx (x != u, w); so it
    maps the edge set onto itself iff that equality holds.  A candidate in
    the orbit of an explored one, under the stored generators that fix
    every vertex individualized so far, is skipped; without that prune the
    search is factorial on vertex-transitive graphs.  A leaf that matches
    the best leaf ends its whole subtree below the depth where its path
    leaves the best leaf's path (McKay's jump back).  Returns the edge list
    and the stored generators, relabeled into the canonical labeling, where
    they are automorphisms of the canonical graph.

    Two facts hold whatever verified automorphisms the list starts with,
    so the twin seeding moves neither the form nor the group.

    The least key is reached.  An automorphism fixing the prefix maps the
    prefix's partition to itself (refinement commutes with relabeling)
    and the subtree under candidate v onto the one under its image, leaf
    to leaf with equal keys.  The orbit prune skips a subtree that one
    maps onto a subtree already done; a jump back skips the rest of a
    subtree that the revealed automorphism, which fixes the common prefix,
    maps onto the best leaf's, done before it.  So at every point the least
    key met equals the least key of every leaf done or skipped, and at the
    end it is the least key of all.  The best leaf changes only on a
    smaller key, so it ends as the first leaf met with the least key, and
    the form is the one the search with no prune finds.

    The generators generate the automorphism group.  Let beta be that
    best leaf, nu_0, ..., nu_k the prefixes of its path, b_i the vertex it
    individualizes after nu_i, and Gamma_i the automorphisms fixing nu_i
    pointwise.  Gamma_k is trivial, as nu_k's partition is discrete; let
    Gamma_{i+1} be generated by stored generators, and take gamma in
    Gamma_i.  A candidate u at nu_i in b_i's orbit under Gamma_i has a
    leaf with the least key below it, an image of beta.  So by the
    invariant above u is met after b_i, as beta is the first such leaf.
    If u is explored, its subtree has no jump back before a leaf with
    beta's key, and that leaf stores a generator fixing nu_i that maps u
    to b_i.  If u is skipped, stored generators fixing nu_i map it to an
    explored candidate in the same orbit.  So a product h of them has
    h(b_i) = gamma(b_i), h^-1 gamma lies in Gamma_{i+1}, and gamma is a
    product of stored generators.
    """
    n, adj = g.n, g.adj
    edges = g.edges()
    best: list[int] = []  # the best leaf's key: a * n + b over its edges a < b, sorted
    best_colors: list[int] = []  # empty until the first leaf
    best_inverse: list[int] = []  # the vertex at each position of the best leaf
    best_path: tuple[int, ...] = ()
    gens: list[_Perm] = []

    # a vertex's closed neighbourhood in the complement is the complement of
    # its open one, so the complement's twin classes are g's open twins
    full = (1 << n) - 1
    complement = _rebuild(Graph, (n, tuple([full ^ row ^ 1 << v for v, row in enumerate(adj)])))
    classes = _twin_classes(g) + _twin_classes(complement)
    for twins in classes if len(classes) < 2 * n else ():
        if twins & (twins - 1):
            members = _mask_vertices(twins)
            for u, w in zip(members, members[1:]):
                # the orbit prune trusts every stored generator: the transposition test
                if adj[u] & ~(1 << w) != adj[w] & ~(1 << u):
                    raise CertificationError(f"twin swap ({u} {w}) is not an automorphism")
                swap = list(range(n))
                swap[u], swap[w] = w, u
                gens.append(tuple(swap))

    def leaf(cells: list[int], path: tuple[int, ...]) -> int:
        # discrete partition: each vertex is labeled by its cell's position;
        # returns the depth to unwind to, n for none
        nonlocal best, best_colors, best_inverse, best_path
        colors = [0] * n
        for i, cell in enumerate(cells):
            colors[cell.bit_length() - 1] = i
        key = sorted([a * n + b if (a := colors[u]) < (b := colors[v]) else b * n + a for u, v in edges])
        if not best_colors or key < best:
            best, best_colors, best_path = key, colors, path
            best_inverse = [cell.bit_length() - 1 for cell in cells]
        elif key == best and colors != best_colors:
            auto = tuple([best_inverse[c] for c in colors])
            if not all(adj[auto[u]] >> auto[v] & 1 for u, v in edges):
                raise CertificationError(f"leaf relabeling {auto} is not an automorphism")
            gens.append(auto)
            return next(d for d, (u, v) in enumerate(zip(path, best_path)) if u != v)
        return n

    def search(cells: list[int], fixed: tuple[int, ...], fixing: list[_Perm], seen: int) -> int:
        # fixing: the generators in gens[:seen] that fix `fixed` pointwise;
        # returns the depth to unwind to, n for none
        if len(cells) == n:
            return leaf(cells, fixed)
        for i, target in enumerate(cells):
            if target & (target - 1):
                break
        # the orbits of the explored candidates under `fixing`, as a mask:
        # each generator maps the target cell to itself, as refinement
        # commutes with an automorphism that fixes every individualized vertex
        done = 0
        for v in _mask_vertices(target):
            if done:
                # gens only grows, at leaves: take in those stored since the last look
                if len(gens) > seen:
                    fixing += [a for a in gens[seen:] if not fixed or all(a[u] == u for u in fixed)]
                    seen = len(gens)
                    done = _orbit_mask(done, fixing)
                if done >> v & 1:
                    continue
            bit = 1 << v
            done = _orbit_mask(done | bit, fixing) if fixing else done | bit
            # the parent partition is equitable, so {v} is the only splitter needed
            child = _refine(adj, cells[:i] + [bit, target ^ bit] + cells[i + 1 :], [bit])
            back = search(child, fixed + (v,), [auto for auto in fixing if auto[v] == v], seen)
            if back < len(fixed):
                return back
        return n

    search(_refine(adj, [full], [full]), (), [], 0)
    # vertex v has canonical label best_colors[v]
    relabeled = [tuple([best_colors[auto[v]] for v in best_inverse]) for auto in gens]
    return tuple([divmod(k, n) for k in best]), relabeled


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


def _join(parts: Sequence[tuple[int, Sequence[tuple[int, int]]]]) -> _Form:
    """The disjoint union of (n, sorted edge list) parts, as (n, edge tuple).

    Each part is relabeled past the parts before it, so the concatenated
    edge list is already sorted.  Parts join in any order; connected
    forms joined in sorted order give the canonical form of their union.
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
    du, dv, common = adj[u].bit_count(), adj[v].bit_count(), (adj[u] & adj[v]).bit_count()
    return (common, du, dv) if du > dv else (common, dv, du)


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


def _edge_children(form: _Form, gens: Sequence[_Perm], room: int) -> Iterator[Graph]:
    """The one-edge children of a connected canonical graph that _walk needs, unlabeled.

    A child adds an edge between two present vertices or a pendant edge
    to one new vertex, so it stays connected; room >= 1 is not read.  One
    new edge per orbit of gens on non-edges, and one pendant edge per
    orbit on vertices, is tried.  Of those, only a child whose new edge has
    the largest _edge_key among its removable edges (see _is_removable) is
    yielded (McKay's cheap-invariant test), built from the adjacency rows
    that test reads, as Graph.induced builds; the rest are dropped unbuilt.
    That loses nothing: every connected graph with k+1 >= 2 edges has a
    removable edge (a cycle edge, or else a leaf edge of the tree).  So
    for such a graph G, delete a removable edge e with the largest key
    among the removable ones; the result P is connected and lies on
    level k, and the orbit head for e's place in P's canonical form gives
    a child isomorphic to G by a map that sends the new edge to e, so the
    new edge is removable with the largest key.  The levels are therefore
    those of the one-edge walk over all graphs with neither prune.  The
    parent's edges are keyed once: an edge ab missing both ends of the new
    edge uv keeps its key in the child, as the key reads rows a and b only
    (their degrees and common neighbours) and the new edge changes rows u
    and v only.  Removability is still tested in the child.
    """
    n, edges = form
    present = set(edges)
    non_edges = [p for p in combinations(range(n), 2) if p not in present]
    new = _orbit_heads(
        non_edges,
        lambda p: [(a[p[0]], a[p[1]]) if a[p[0]] < a[p[1]] else (a[p[1]], a[p[0]]) for a in gens],
    )
    new += [(u, n) for u in _orbit_heads(range(n), lambda u: [a[u] for a in gens])]
    adj = list(_form_graph(form).adj)
    keyed = [(_edge_key(adj, a, b), a, b) for a, b in edges]
    for u, v in new:
        child = adj + [0] if v == n else adj.copy()
        child[u] |= 1 << v
        child[v] |= 1 << u
        key = _edge_key(child, u, v)
        for k, a, b in keyed:
            if a == u or a == v or b == u or b == v:  # the only keys the new edge moves
                k = _edge_key(child, a, b)
            if k > key and _is_removable(child, a, b):
                break
        else:
            yield _rebuild(Graph, (len(child), tuple(child)))


def _clique_children(n: int, form: _Form, gens: Sequence[_Perm], room: int) -> Iterator[Graph]:
    """The one-K_n children of a connected K_n-union that _walk needs, unlabeled.

    A K_n-union is an edge-union of copies of K_n: every edge lies in a
    K_n.  A child adds one K_n on a j-subset of the union's vertices
    (1 <= j <= n) and n-j new vertices, and adds 1..room edges; one
    j-subset per orbit of gens is taken.  Growth from K_n is complete:
    take an inclusion-minimal K_n cover of a connected union, ordered
    breadth-first by shared vertices.  Each clique then meets an earlier
    one and adds an edge no other clique covers, so every prefix is a
    connected union one step from the one before.  Edge counts only grow
    along the way, so stopping at the edge budget loses nothing.  A
    union's components are unions, so the levels _walk assembles hold
    every K_n-union.  A child is built from form edges, never checked.
    """
    p, edges = form
    present = set(edges)
    for j in range(1, min(n, p) + 1):
        # the new K_n adds at least its C(n,2) - C(j,2) edges at new vertices
        if comb(n, 2) - comb(j, 2) > room:
            continue
        fresh = tuple(range(p, p + n - j))
        for shared in _orbit_heads(
            combinations(range(p), j),
            lambda s: [tuple(sorted(a[v] for v in s)) for a in gens],
        ):
            new = [e for e in combinations(shared + fresh, 2) if e not in present]
            if new and len(new) <= room:
                yield _form_graph((p + n - j, edges + tuple(new)))


def _unions(connected: Sequence[Sequence[_Form]], m: int) -> Iterator[_Form]:
    """The forms of every multiset of connected forms with m edges in all.

    connected[j - 1] lists the connected forms with j edges.  Parts are
    taken by nonincreasing edge count, and by nondecreasing position among
    equal counts, so each multiset comes once.
    """
    chosen: list[_Form] = []

    def extend(most: int, start: int, left: int) -> Iterator[_Form]:
        if not left:
            yield _join(sorted(chosen))
            return
        for j in range(min(most, left), 0, -1):
            level = connected[j - 1]
            for i in range(start if j == most else 0, len(level)):
                chosen.append(level[i])
                yield from extend(j, i, left - j)
                chosen.pop()

    return extend(m, 0, m)


def _walk(
    root: Graph, grow: Callable[[_Form, Sequence[_Perm], int], Iterator[Graph]], m: int
) -> Iterator[list[_Form]]:
    """The connected forms of levels 1..m of an isomorph-free walk from a connected root, sorted.

    The walk labels connected graphs only.  grow(form, gens, room) yields
    the unlabeled connected children of a connected canonical form that
    add 1..room edges.  gens generate automorphisms of the form in its
    canonical labels.  An automorphism of the parent maps a child onto an
    isomorphic one, so a rule builds one child per orbit of gens (the
    first half of McKay's isomorph-free generation); the walk re-verifies
    gens once per parent, before grow sees them.  Every child is labeled by
    _canon_connected and duplicates are removed by form.  The generators
    that labeling returns go with the form, to prune its own children; a
    form reached twice keeps those of its last labeling.  found[k] holds
    the connected forms with k edges met so far; children only add edges,
    so it is complete once levels 1..k-1 have grown.  Level k's forms are
    yielded before level k grows, so a caller that stops reading grows no
    level past the last one it read; found[k] is cleared once it has grown.
    """
    found: list[dict[_Form, list[_Perm]]] = [{} for _ in range(m + 1)]
    size = root.edge_count()
    if size <= m:
        edges, gens = _canon_connected(root)
        found[size][(root.n, edges)] = gens
    for k in range(1, m + 1):
        level = sorted(found[k])
        yield level
        if k == m:
            return
        for form in level:
            gens = found[k][form]
            _check_automorphisms(form, gens)
            for child in grow(form, gens, m - k):
                edges, child_gens = _canon_connected(child)
                found[child.edge_count()][(child.n, edges)] = child_gens
        found[k].clear()


def _levels(walk: Iterator[list[_Form]]) -> Iterator[list[_Form]]:
    """The walk's levels 1, 2, ..., each the sorted forms of its graphs, assembled when read.

    Level k holds the form of every graph with k edges whose components'
    forms the walk yields.  No canonical labeling is needed: a graph with
    no isolated vertex is the disjoint union of its components, and the
    form of a union is the join of its sorted component forms.  So level k
    holds every graph with k edges of a family closed under components
    once the walk's rule reaches each connected member.  A caller builds a
    graph only for a form it keeps (_form_graph, unchecked).
    """
    connected: list[list[_Form]] = []
    for level in walk:
        connected.append(level)
        yield sorted(_unions(connected, len(connected)))


def _graph_levels(m: int) -> Iterator[list[_Form]]:
    """Levels 1..m of all graphs with no isolated vertex: _walk from K_2 by _edge_children."""
    return _levels(_walk(complete(2), _edge_children, m))


def _clique_union_levels(n: int, m: int) -> Iterator[list[_Form]]:
    """Levels 1..m of the K_n-unions, empty below C(n,2): _walk from K_n by _clique_children."""
    return _levels(_walk(complete(n), partial(_clique_children, n), m))


def enumerate_graphs(m: int, max_vertices: int | None = None) -> Iterator[Graph]:
    """All graphs with exactly m edges and no isolated vertices, up to iso.

    Yields level m of _walk from K_2 by the edge rule (_edge_children),
    in sorted canonical-form order, each graph labeled by its canonical
    form.  The walk grows levels 1..m-1 for their connected forms, and
    only level m is assembled, as forms.  max_vertices, when given, keeps
    only the forms on at most that many vertices, and only the kept forms
    are built into graphs.  A caller that needs every level up to m walks
    them once through _graph_levels rather than calling this per level.
    """
    _check_int("m", m, 0)
    if max_vertices is not None:
        _check_int("max_vertices", max_vertices, 0)
    if m > ENUMERATION_MAX_EDGES:
        raise CapacityError(f"enumeration capped at {ENUMERATION_MAX_EDGES} edges, got {m}")
    for form in sorted(_unions(list(_walk(complete(2), _edge_children, m)), m)):
        if max_vertices is None or form[0] <= max_vertices:
            yield _form_graph(form)


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
    # body bit i is pair i in graph6 order; the padding bits after them must be zero
    order = [1 << u | 1 << v for v in range(1, n) for u in range(v)]
    need = (len(order) + 5) // 6
    if len(codes) - body_start < need:
        raise Graph6Error(f"body needs {need} bytes, found {len(codes) - body_start}", len(text))
    if len(codes) - body_start > need:
        raise Graph6Error("trailing bytes after graph body", body_start + need)
    masks = []
    for i in range(need * 6):
        if codes[body_start + i // 6] >> (5 - i % 6) & 1:
            if i >= len(order):
                raise Graph6Error("nonzero padding bits", body_start + i // 6)
            masks.append(order[i])
    return _graph_of(n, masks)


# --------------------------------------------------------------- hypergraphs


class Hypergraph(Record):
    """r-uniform hypergraph on vertices 0..n-1; edges as vertex bitmasks, none repeated."""

    __slots__ = ("n", "r", "edge_masks")
    n: int
    r: int
    edge_masks: tuple[int, ...]

    def __init__(self, n: int, r: int, edges: Iterable[Iterable[int]]):
        _check_order("n", n, MAX_HYPER_VERTICES, "hypergraphs")
        _check_int("r", r, 2)
        masks = [_hyperedge_mask(edge, n, r) for edge in edges]
        if len(set(masks)) != len(masks):
            raise RequestError("duplicate hyperedges")
        _set(self, "n", n)
        _set(self, "r", r)
        _set(self, "edge_masks", tuple(sorted(masks, key=_mask_vertices)))

    def edge_tuples(self) -> list[tuple[int, ...]]:
        return [_mask_vertices(m) for m in self.edge_masks]

    def edge_count(self) -> int:
        return len(self.edge_masks)

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, r={self.r}, edges={self.edge_tuples()})"


def _hypergraph_of(n: int, r: int, edge_masks: Iterable[int]) -> Hypergraph:
    """The hypergraph with these edge masks, stored unchecked: distinct, sorted r-vertex masks."""
    return _rebuild(Hypergraph, (n, r, tuple(edge_masks)))


def _hyperedge_mask(edge: Iterable[int], n: int, r: int) -> int:
    """The vertex mask of an edge; RequestError unless it is r distinct int vertices in 0..n-1."""
    try:
        vs = tuple(edge)
    except TypeError:
        raise RequestError(f"edge {edge!r} is not a set of {r} vertices") from None
    mask = 0
    for v in vs:
        if type(v) is not int or not 0 <= v < n:
            raise RequestError(f"edge {vs} out of range for {n} vertices")
        mask |= 1 << v
    if len(vs) != r or mask.bit_count() != r:
        raise RequestError(f"edge {vs} is not a set of {r} vertices")
    return mask


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
    """The complete r-uniform hypergraph on k vertices; combinations give the sorted edge order."""
    _check_order("k", k, MAX_HYPER_VERTICES, "hypergraphs")
    _check_int("r", r, 2)
    return _hypergraph_of(k, r, [_vertices_mask(e) for e in combinations(range(k), r)])


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
    try:
        n, r = map(int, lines[0].split())
        # n and r pass the constructor's checks before any edge line is read
        Hypergraph(n, r, ())
    except ValueError as exc:
        raise HypergraphFormatError(f"header {lines[0]!r} is no 'n r' pair: {exc}", 1) from None
    seen = set()
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            edge = [int(tok) for tok in line.split()]
        except ValueError:
            raise HypergraphFormatError(f"non-integer vertex in {line!r}", i) from None
        try:
            mask = _hyperedge_mask(edge, n, r)
        except RequestError as exc:
            raise HypergraphFormatError(str(exc), i) from None
        if mask in seen:
            raise HypergraphFormatError(f"duplicate hyperedge {tuple(edge)}", i)
        seen.add(mask)
    return _hypergraph_of(n, r, sorted(seen, key=_mask_vertices))

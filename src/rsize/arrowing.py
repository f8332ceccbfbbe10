"""Decide whether a host forces a red n-clique or a blue t-edge matching.

Convention, fixed across the package: red carries the clique side, blue
carries the matching side.  A host F "arrows" (n, t) when every red/blue
coloring of its edges contains a red complete subgraph on n vertices or t
pairwise disjoint blue edges.  Equivalently F fails to arrow exactly when
some blue set B has matching number at most t-1 while meeting the edge
set of every n-clique of F; the searches below look for such a B.

Three searches and one refutation phase are provided and cross-checked
in the test suite:

* structural (what auto runs on every 2-uniform host) -- by Mader's form
  of the Gallai-Edmonds theorem every maximal graph with matching number
  at most t-1 is K_s joined to disjoint cliques K_{c_1}, ..., K_{c_p} with
  s + sum(floor(c_i/2)) <= t-1.  So a graph host fails to arrow iff some
  vertex set S and partition of the other vertices into parts of that
  total cost leave no n-clique that avoids S and meets every part at most
  once.  The search runs over S (only vertices that lie in an n-clique),
  then a memoised merge search kills the first live clique by merging the
  parts of two of its vertices.  A packing of cliques that need a merge
  each bounds both levels from below.  Twins (vertices with equal closed
  neighbourhoods) break the symmetry: S takes a prefix of each twin
  class, and the merge memo keys parts up to relabelling of the twins
  outside S, so a complete host is searched over |S| and part sizes.  The
  blue set is every host edge that touches S or lies inside a part.
* naive -- table the matching number of every one of the 2^m edge subsets
  (a bytearray DP), then scan all subsets.  Independent of the pruned
  searches; memory-bound, so capped at modest edge counts, and run only
  when asked for.
* reduced -- DFS over edges deciding blue/red with four prunes: a blue
  decision that pushes the matching number to t is abandoned; a red
  decision completing an all-red clique is abandoned; once the matching
  number is t-1, a node where some clique without a blue edge has no
  undecided edge that could turn blue without pushing it to t is
  abandoned (forward checking: blue only grows, so such an edge never
  fits again on that branch); and the branch is reported as a
  counterexample as soon as every clique has a blue edge (the all-red
  completion of the current prefix is then a good coloring).
* frankl (a phase auto runs ahead of reduced when r >= 3) -- for i = 1..r
  and a vertex set X with |X| <= i*t - 1, the blue set {e : |e & X| >= i}
  has matching number at most t-1; these are Frankl's extremal families
  for the Erdos matching conjecture.  Such a set meets a complete window W
  exactly when |W & X| >= i, so the phase is a hitting-set search over
  window vertex masks.  It only refutes; when no family fits, reduced
  runs and proves every "arrows" verdict.

`search` is "auto", "naive" or "reduced".  Both hosts answer n, r,
edge_masks and edge_count() (a Graph is the 2-uniform host, r = 2), and
the searches and re-checks read a host through these alone.  Routing
reads host.r: a 2-uniform host, Graph or Hypergraph, is a graph, and auto
runs structural on it; when r >= 3, where no such structure theorem
holds, auto tries the Frankl families first and then runs reduced.  The verdict's mode names the search that answered:
"structural", "frankl", "reduced" or "naive".  Each host's complete
n-windows are listed once, as vertex masks; naive and reduced see each
window as the mask of the edges inside it.  The reduced DFS is one plain
recursion from the root that passes its state down as arguments.  Every
search is sequential.
Node counts mean: structural, one per (S, parts) structure entered (zero
when the packing bound alone decides); frankl, one per set X entered;
reduced, one per blue/red branch entered; naive, subsets scanned.  Under
auto on r >= 3 the phase's sets stay in the count when reduced decides.

Hosts larger than the search budget raise UndecidedError rather than
guessing; the default budget is keyed by the host's container (28 edges
for a Graph, 36 for a Hypergraph, whichever search runs) and can be
lifted through the RSIZE_BUDGET_EDGES environment variable.  A
certificate that fails its own re-check raises CertificationError, which
survives `python -O`.
"""

from __future__ import annotations

import os
from itertools import combinations
from math import comb
from typing import Sequence

from .errors import CertificationError, RequestError, UndecidedError, _check_int, _check_nt
from .graphs import (
    MAX_HYPER_VERTICES,
    Graph,
    Hypergraph,
    _clique_union_levels,
    _graph_levels,
    _graph_of,
    _hypergraph_of,
    _mask_vertices,
    _twin_classes,
    complete,
    complete_r,
    has_clique,
    has_red_complete_r,
    hyper_matching,
    max_matching,
)
from .records import Record, _set

NAIVE_MAX_EDGES = {"graph": 20, "hyper": 24}
REDUCED_MAX_EDGES = {"graph": 28, "hyper": 36}
BUDGET_ENV_VAR = "RSIZE_BUDGET_EDGES"
# the largest m_max that min_size_ramsey_bruteforce walks to
BRUTEFORCE_MAX_EDGES = 8


class EdgeColoring(Record):
    """A red/blue coloring of a host's edges.

    `blue` is a bitmask over the host's sorted edge list (bit i is
    host.edge_masks[i]); every edge not in it is red.
    """

    __slots__ = ("host", "blue")
    host: Graph | Hypergraph
    blue: int

    def __init__(self, host: Graph | Hypergraph, blue: int) -> None:
        m = host.edge_count()
        # bool is an int subclass: True would pass as the mask 1
        if type(blue) is not int:
            raise ValueError(f"blue mask must be an integer, got {blue!r}")
        if not 0 <= blue < 1 << m:
            raise ValueError(f"blue mask {blue:#x} out of range for {m} edges")
        _set(self, "host", host)
        _set(self, "blue", blue)

    def blue_edges(self) -> list[tuple[int, ...]]:
        return [_mask_vertices(em) for i, em in enumerate(self.host.edge_masks) if self.blue >> i & 1]

    def red_edges(self) -> list[tuple[int, ...]]:
        return [_mask_vertices(em) for i, em in enumerate(self.host.edge_masks) if not self.blue >> i & 1]


def is_good_coloring(coloring: EdgeColoring, n: int, t: int) -> bool:
    """No red n-clique and no t disjoint blue edges, checked directly.

    One pass over the host's edge masks, in the host's own order, splits
    red from blue by the blue bit.  The two sides then go to the
    standalone solvers, routed on host.r as _decide routes: on a
    2-uniform host, Graph or Hypergraph, has_clique and max_matching on
    the graph of each side; otherwise has_red_complete_r and
    hyper_matching.  Search internals never see them, so search results
    are re-verified by an independent code path.
    """
    host = coloring.host
    blue_bits = coloring.blue
    red_masks, blue_masks = [], []
    for i, em in enumerate(host.edge_masks):
        (blue_masks if blue_bits >> i & 1 else red_masks).append(em)
    if host.r == 2:
        if has_clique(_graph_of(host.n, red_masks), n):
            return False
        return max_matching(_graph_of(host.n, blue_masks)) <= t - 1
    if has_red_complete_r(host, red_masks, n):
        return False
    # a sub-sequence of the host's sorted masks is sorted too
    return hyper_matching(_hypergraph_of(host.n, host.r, blue_masks)) <= t - 1


class ArrowVerdict(Record):
    """Outcome of an arrowing search, counterexample re-verified on build.

    The host arrows exactly when no counterexample was found, so `arrows`
    is read off `counterexample` and is not a field.
    """

    __slots__ = ("counterexample", "n", "t", "mode", "nodes")
    counterexample: EdgeColoring | None
    n: int
    t: int
    mode: str
    nodes: int

    def __init__(
        self, counterexample: EdgeColoring | None, n: int, t: int, mode: str, nodes: int
    ) -> None:
        if counterexample is not None and not is_good_coloring(counterexample, n, t):
            raise CertificationError("counterexample failed re-verification")
        _set(self, "counterexample", counterexample)
        _set(self, "n", n)
        _set(self, "t", t)
        _set(self, "mode", mode)
        _set(self, "nodes", nodes)

    @property
    def arrows(self) -> bool:
        return self.counterexample is None


# ----------------------------------------------------------------- searches


def matching_numbers(edge_masks: Sequence[int]) -> bytearray:
    """Matching number of every subset of an indexed edge list.

    Entry `mask` is the matching number of the subset it selects.  Edges
    are vertex bitmasks, so this serves graphs and hypergraphs alike.
    """
    m = len(edge_masks)
    touch = []
    for em in edge_masks:
        tm = 0
        for j, fm in enumerate(edge_masks):
            if em & fm:
                tm |= 1 << j
        touch.append(tm)
    nu = bytearray(1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        e = low.bit_length() - 1
        # the lowest edge is either unused or used, excluding its overlaps
        skip = nu[mask ^ low]
        take = 1 + nu[mask & ~touch[e]]
        nu[mask] = skip if skip >= take else take
    return nu


def _run_naive(
    edge_masks: Sequence[int], cliques: Sequence[int], t: int
) -> tuple[int | None, int]:
    m = len(edge_masks)
    nu = matching_numbers(edge_masks)
    cap = t - 1
    for mask in range(1 << m):
        if nu[mask] <= cap and all(mask & c for c in cliques):
            return mask, mask + 1
    return None, 1 << m


def _matching_at_least(masks: Sequence[int], forbidden: int, need: int) -> bool:
    """Whether `masks` holds `need` disjoint edges, all avoiding `forbidden`."""
    if need == 0:
        return True
    total = len(masks)

    def go(start: int, used: int, left: int) -> bool:
        if total - start < left:
            return False
        for j in range(start, total):
            em = masks[j]
            if em & used:
                continue
            if left == 1 or go(j + 1, used | em, left - 1):
                return True
        return False

    return go(0, forbidden, need)


def _run_reduced(
    edge_masks: Sequence[int], cliques: Sequence[int], t: int
) -> tuple[int | None, int]:
    """The pruned DFS; see the module docstring.

    `cliques` are the windows' edge-index masks.  The state passed down is
    the search position, the blue and red edge-index masks decided so far,
    the clique-index mask of cliques with no blue edge yet, the blue
    matching number, and the blue edges' vertex masks.  Returns the blue
    mask of the first counterexample (None if there is none) and the
    branches entered.
    """
    if not cliques:
        # the all-red coloring already avoids every clique (there are none)
        return 0, 1
    m = len(edge_masks)
    order = _search_order(edge_masks)
    through = [0] * m  # clique-index mask of the cliques through each edge
    for ci, c in enumerate(cliques):
        for e in _mask_vertices(c):
            through[e] |= 1 << ci
    inside = [[cliques[ci] for ci in _mask_vertices(through[e])] for e in range(m)]
    nodes = 0

    def dfs(idx: int, blue: int, red: int, alive: int, nu: int, masks: tuple[int, ...]) -> int | None:
        nonlocal nodes
        if idx == m:
            return None
        if nu == t - 1:
            # forward check: blue only grows, so an edge that would raise nu
            # now always will; a live window (no blue edge, so every edge
            # not red is undecided) whose edges all would can never get one
            fits: dict[int, bool] = {}
            for ci in _mask_vertices(alive):
                for j in _mask_vertices(cliques[ci] & ~red):
                    if j not in fits:
                        fits[j] = not _matching_at_least(masks, edge_masks[j], nu)
                    if fits[j]:
                        break
                else:
                    return None
        e = order[idx]
        bit = 1 << e
        nodes += 1
        em = edge_masks[e]
        grown = nu + 1 if _matching_at_least(masks, em, nu) else nu
        if grown < t:
            if not alive & ~through[e]:
                # every clique has a blue edge: the all-red rest is good
                return blue | bit
            found = dfs(idx + 1, blue | bit, red, alive & ~through[e], grown, masks + (em,))
            if found is not None:
                return found
        nodes += 1
        red |= bit
        for c in inside[e]:
            if not c & ~red:
                return None
        return dfs(idx + 1, blue, red, alive, nu, masks)

    return dfs(0, 0, 0, (1 << len(cliques)) - 1, 0, ()), nodes


def _frankl_blue(edge_masks: Sequence[int], X: int, i: int) -> int:
    """Blue mask of the Frankl family {e : |e & X| >= i} over an indexed edge list."""
    blue = 0
    for j, em in enumerate(edge_masks):
        if (em & X).bit_count() >= i:
            blue |= 1 << j
    return blue


def _run_frankl(
    edge_masks: Sequence[int], windows: Sequence[int], t: int, r: int
) -> tuple[int | None, int]:
    """Look for a good coloring among the Frankl families; `windows` are vertex masks.

    For i = 1..r and |X| <= i*t - 1, the blue set {e : |e & X| >= i} has
    matching number at most t-1, since each blue edge takes i vertices of
    X.  It has an edge in a complete window W exactly when |W & X| >= i.
    So each i is a hitting-set search: X grows by a vertex of the first
    window it under-hits; under-hit windows that share no vertex outside
    X each need their own new vertices, which bounds the growth still to
    come; failed sets are memoised.  Returns the blue mask of the first
    family that fits (None if none does) and the number of sets entered.
    """
    nodes = 0

    def grow(X: int, size: int, i: int, failed: set[int]) -> int | None:
        nonlocal nodes
        nodes += 1
        first = 0
        need, claimed = size, 0
        for w in windows:
            short = i - (w & X).bit_count()
            if short > 0:
                out = w & ~X
                first = first or out
                if not out & claimed:
                    claimed |= out
                    need += short
        if not first:
            return X
        if need <= i * t - 1:
            for v in _mask_vertices(first):
                Y = X | 1 << v
                if Y not in failed:
                    found = grow(Y, size + 1, i, failed)
                    if found is not None:
                        return found
        failed.add(X)
        return None

    for i in range(1, r + 1):
        X = grow(0, 0, i, set())
        if X is not None:
            return _frankl_blue(edge_masks, X, i), nodes
    return None, nodes


def _odd_packing(live: Sequence[int], parts: Sequence[int]) -> int:
    """Size of a greedy packing of live cliques that each need a costly merge.

    A packed clique touches only odd parts, and no two packed cliques
    touch a common part.  Killing a packed clique joins two of its odd
    parts inside one final part, and a final part holding 2k odd parts
    costs at least k more than they did, so the packing size is a lower
    bound on the merge cost still to pay.
    """
    even = 0
    for p in parts:
        if not p.bit_count() & 1:
            even |= p
    used = count = 0
    for c in live:
        if c & (even | used):
            continue
        closure = c
        for p in parts:
            if p & c:
                closure |= p
        if not closure & used:
            used |= closure
            count += 1
    return count


def _run_structural(
    edge_masks: Sequence[int], cliques: Sequence[int], t: int, graph: Graph
) -> tuple[int | None, int]:
    """Search (S, parts) structures of `graph`; `cliques` are vertex masks.

    Twin classes (graphs._twin_classes) are classes of vertices with equal
    closed neighbourhoods.  Permuting the vertices of one class and fixing
    every other vertex is an automorphism, so it maps cliques to cliques
    and a structure that leaves no live clique to another one of the same
    cost.  Two prunes rest on this.

    S takes a prefix of each class: a vertex joins S only when every
    lower-numbered vertex of its class is already in it.  Complete: take
    any good structure and permute each class so that S holds its lowest
    members; the result is good, and S is a prefix of each class.  Now
    walk S in vertex order and drop each vertex that lies in no clique
    avoiding the vertices kept before it; giving it a singleton part
    keeps the structure good, as every clique through it meets a vertex
    kept before it, and costs 1 less.  If a vertex u is dropped, so is
    every later twin w of u in S: a clique through w that avoids the kept
    vertices and misses u becomes one through u when w is swapped for u,
    and the kept set only grows.  So S stays a prefix of each class, and
    every vertex of it lies in a live clique when it is added in vertex
    order, which is the walk choose makes.

    The merge memo keys parts up to relabelling of the twins outside S:
    a part by its vertices in singleton classes and its count in each
    larger class.  Two part lists with the same key differ by a
    permutation of each class that fixes S, an automorphism mapping the
    first state's live cliques onto the second's, so one fails exactly
    when the other does.  On a host with no twins a part's key is its
    mask.

    Returns the blue edge mask of the first structure that leaves no live
    clique (None if there is none) and the number of structures entered.
    """
    budget = t - 1
    nodes = 0
    # a vertex added to S costs 1 and kills at most one packed clique, so
    # the packing of the cliques S leaves live bounds every superset of S;
    # at the root it often decides alone
    if _odd_packing(cliques, ()) > budget:
        return None, 0
    twins = [c for c in _twin_classes(graph) if c & (c - 1)]
    # profile: a part's memo key: its vertices in singleton classes, plus
    # its count in each twin class packed above the vertex bits, so a
    # merged part's is the sum of two.  Kept for the twin vertices and for
    # every part built so far; any other singleton's is its mask, and a
    # part's is its mask when the host has no twins
    profile: dict[int, int] = {}
    at = graph.n
    for c in twins:
        for v in _mask_vertices(c):
            profile[1 << v] = 1 << at
        at += c.bit_count().bit_length()

    def merge(
        live: Sequence[int], parts: tuple[int, ...], spare: int, failed: set[tuple[int, ...]]
    ) -> tuple[int, ...] | None:
        # parts: sorted masks of the parts with two or more vertices;
        # failed: the keys of the part lists known to fail
        nonlocal nodes
        nodes += 1
        if not live:
            return parts
        # the caller has checked the root's packing against the same spare
        if not parts or _odd_packing(live, parts) <= spare:
            owners = [next((p for p in parts if p >> v & 1), 1 << v) for v in _mask_vertices(live[0])]
            for a, b in combinations(owners, 2):
                merged = a | b
                cost = merged.bit_count() // 2 - a.bit_count() // 2 - b.bit_count() // 2
                if cost > spare:
                    continue
                child = tuple(sorted([p for p in parts if p != a and p != b] + [merged]))
                profile[merged] = profile.get(a, a) + profile.get(b, b)
                key = tuple(sorted(profile[p] for p in child))
                if key in failed:
                    continue
                alive = [c for c in live if (c & merged) & ((c & merged) - 1) == 0]
                found = merge(alive, child, spare - cost, failed)
                if found is not None:
                    return found
                failed.add(key)
        return None

    def choose(low: int, S: int, size: int, live: Sequence[int]) -> tuple[int, tuple[int, ...]] | None:
        # live: the cliques that avoid S (each clique meeting S has a blue
        # edge at S), whose packing fits the budget
        parts = merge(live, (), budget - size, set())
        if parts is not None:
            return S, parts
        # S grows in vertex order, only by vertices of live cliques, and
        # from each twin class only by its lowest vertex outside S
        reach = 0
        for c in live:
            reach |= c
        for c in twins:
            rest = c & ~S
            reach &= ~(rest & (rest - 1))
        for v in _mask_vertices(reach >> low << low):
            left = [c for c in live if not c >> v & 1]
            if size + 1 + _odd_packing(left, ()) <= budget:
                found = choose(v + 1, S | 1 << v, size + 1, left)
                if found is not None:
                    return found
        return None

    found = choose(0, 0, 0, cliques)
    if found is None:
        return None, nodes
    S, parts = found
    blue = 0
    for i, em in enumerate(edge_masks):
        if em & S or any(em & p == em for p in parts):
            blue |= 1 << i
    return blue, nodes


def _search_order(edge_masks: Sequence[int]) -> list[int]:
    # a greedy maximal matching first, so blue prefixes hit the matching
    # bound early and the include prune bites near the root
    used = 0
    first, rest = [], []
    for i, em in enumerate(edge_masks):
        if em & used:
            rest.append(i)
        else:
            used |= em
            first.append(i)
    return first + rest


def _cliques_of_graph(g: Graph, n: int) -> list[int]:
    """Vertex bitmask of every n-clique of g."""
    adj = g.adj
    out: list[int] = []

    def extend(members: int, cand: int, need: int) -> None:
        if need == 0:
            out.append(members)
            return
        # a branch ends once too few candidates are left to fill the clique
        while cand.bit_count() >= need:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            extend(members | 1 << v, cand & adj[v], need - 1)

    extend(0, (1 << g.n) - 1, n)
    return out


def _cliques_of_hypergraph(h: Hypergraph, n: int) -> list[int]:
    """Vertex bitmask of every complete n-window of h.

    A window needs C(n, r) edges and vertices of degree C(n-1, r-1) or more.
    """
    if comb(n, h.r) > len(h.edge_masks):
        return []
    edges = set(h.edge_masks)
    need = comb(n - 1, h.r - 1)
    # the v-bits of the edges sum to degree(v) << v
    able = [1 << v for v in range(h.n) if sum(map((1 << v).__and__, h.edge_masks)) >> v >= need]
    return [
        sum(window)
        for window in combinations(able, n)
        if all(sum(sub) in edges for sub in combinations(window, h.r))
    ]


def _window_edges(edge_masks: Sequence[int], windows: Sequence[int]) -> list[int]:
    """Edge-index bitmask of the edges inside each window."""
    out = []
    for w in windows:
        bits = 0
        for j, em in enumerate(edge_masks):
            if not em & ~w:
                bits |= 1 << j
        out.append(bits)
    return out


def _pick_mode(search: str, m: int, kind: str, r: int) -> str:
    if search not in ("auto", "naive", "reduced"):
        raise RequestError(f"search must be auto, naive, or reduced, got {search!r}")
    if search == "naive":
        if m > NAIVE_MAX_EDGES[kind]:
            raise UndecidedError(
                f"undecided: {m} edges is too large for the naive search "
                f"(cap {NAIVE_MAX_EDGES[kind]})"
            )
        return "naive"
    raw = os.environ.get(BUDGET_ENV_VAR, str(REDUCED_MAX_EDGES[kind]))
    try:  # int() raises ValueError past sys.get_int_max_str_digits() digits
        budget = int(raw) if raw.strip().isdecimal() else 0
    except ValueError:
        budget = 0
    if budget < 1:
        raise RequestError(f"{BUDGET_ENV_VAR} must be a positive integer, got {raw!r}")
    if m > budget:
        raise UndecidedError(
            f"undecided: {m} edges is too large (budget {budget}; "
            f"set {BUDGET_ENV_VAR} to lift)"
        )
    if search == "auto":
        return "structural" if r == 2 else "reduced"
    return search


def _decide(host: Graph | Hypergraph, n: int, t: int, search: str) -> ArrowVerdict:
    """The one decision path: a 2-uniform host is searched as a graph."""
    # the budget is keyed by container, not by uniformity
    kind = "graph" if isinstance(host, Graph) else "hyper"
    r = host.r
    _check_nt(n, t, n_min=r)
    mode = _pick_mode(search, host.edge_count(), kind, r)
    edge_masks = host.edge_masks
    if r == 2:
        graph = host if kind == "graph" else _graph_of(host.n, edge_masks)
        windows = _cliques_of_graph(graph, n)
    else:
        windows = _cliques_of_hypergraph(host, n)
    if mode == "structural":
        found, nodes = _run_structural(edge_masks, windows, t, graph)
    elif mode == "naive":
        found, nodes = _run_naive(edge_masks, _window_edges(edge_masks, windows), t)
    else:
        # auto tries the Frankl families first; an explicit reduced search
        # stays a pure cross-check
        found, nodes = _run_frankl(edge_masks, windows, t, r) if search == "auto" else (None, 0)
        if found is not None:
            mode = "frankl"
        else:
            found, more = _run_reduced(edge_masks, _window_edges(edge_masks, windows), t)
            nodes += more
    return ArrowVerdict(
        counterexample=None if found is None else EdgeColoring(host, found),
        n=n,
        t=t,
        mode=mode,
        nodes=nodes,
    )


# ------------------------------------------------------------- entry points


def arrows_pair(
    F: Graph, n: int, t: int, *, search: str = "auto", jobs: int = 1
) -> ArrowVerdict:
    """Does every red/blue coloring of F have a red K_n or t disjoint blue edges?

    Auto runs the structural search; `search="reduced"` or `"naive"` runs
    that search instead, as a cross-check.  `jobs` must be an int of at
    least 1 and is otherwise ignored: every search is sequential.  It
    stays only because perfbench's `pool_speedup` still passes `jobs=2`.
    """
    if not isinstance(F, Graph):
        raise TypeError("arrows_pair expects a Graph host")
    _check_int("jobs", jobs, 1)
    return _decide(F, n, t, search)


def arrows_hyper(F: Hypergraph, n: int, t: int, *, search: str = "auto") -> ArrowVerdict:
    """Hypergraph analogue of arrows_pair: red K_n^r versus blue t disjoint edges.

    A 2-uniform host is a graph: auto runs the structural search on it,
    exactly as arrows_pair does on the same edges.  When r >= 3, auto
    first tries the Frankl families {e : |e & X| >= i} with
    |X| <= i*t - 1 (mode "frankl", nodes = sets X entered); if none fits,
    the reduced DFS decides (mode "reduced", nodes = the phase's sets plus
    the DFS branches).  An explicit `search="reduced"` skips the phase.
    """
    if not isinstance(F, Hypergraph):
        raise TypeError("arrows_hyper expects a Hypergraph host")
    return _decide(F, n, t, search)


# ------------------------------------------------- certificates and wrappers


def lower_bound_coloring(n: int, t: int) -> EdgeColoring:
    """A good coloring of the complete graph one vertex below the threshold.

    On n+2t-3 vertices, the first n-2 form A and the last 2t-1 form B;
    edges inside B are blue, all edges meeting A red.  A red clique can
    use at most one vertex of B, so tops out at n-1 vertices; blue lives
    on 2t-1 vertices, so its matching number is at most t-1.  Both facts
    are re-checked on construction.
    """
    _check_nt(n, t)
    host = complete(n + 2 * t - 3)
    return _lower_bound(host, (1 << host.n) - (1 << n - 2), 2, n, t)


def _lower_bound(host: Graph | Hypergraph, X: int, i: int, n: int, t: int) -> EdgeColoring:
    """Blue on every host edge with at least i vertices in X, red elsewhere; re-checked.

    This is the Frankl family for X and i.  The threshold colorings take
    i = r and X = B; a decoloring witness takes i = 2 and X = its set.
    """
    coloring = EdgeColoring(host, _frankl_blue(host.edge_masks, X, i))
    if not is_good_coloring(coloring, n, t):
        raise CertificationError(
            f"coloring blue on X = {X:#x} (i = {i}) for (n={n}, t={t}) failed re-verification"
        )
    return coloring


def lower_bound_coloring_hyper(n: int, r: int, t: int) -> EdgeColoring:
    """Hypergraph analogue on n+(t-1)r-1 vertices: |A| = n-r, |B| = tr-1."""
    _check_int("r", r, 2)
    _check_nt(n, t, n_min=r)
    host = complete_r(n + (t - 1) * r - 1, r)
    return _lower_bound(host, (1 << host.n) - (1 << n - r), r, n, t)


def verify_graph_ramsey(n: int, t: int, *, search: str = "auto") -> bool:
    """Check R(K_n, tK_2) = n+2t-2 from both sides.

    Upper: the complete graph on n+2t-2 vertices arrows (searched).
    Lower: the explicit coloring of the complete graph on n+2t-3 vertices
    is re-verified as good when it is built (checked, never searched), and
    a failure raises CertificationError.
    """
    _check_nt(n, t)
    upper = arrows_pair(complete(n + 2 * t - 2), n, t, search=search)
    lower_bound_coloring(n, t)
    return upper.arrows


def verify_hyper_ramsey(n: int, r: int, t: int, *, search: str = "auto") -> bool:
    """Check R(K_n^r, tK_r^r) = n+(t-1)r from both sides, as verify_graph_ramsey does.

    A host over the search budget is refused before its C(k, r) edges are
    built; past MAX_HYPER_VERTICES, complete_r refuses k before it builds
    an edge.
    """
    _check_int("r", r, 2)
    _check_nt(n, t, n_min=r)
    k = n + (t - 1) * r
    if k <= MAX_HYPER_VERTICES:
        _pick_mode(search, comb(k, r), "hyper", r)
    upper = arrows_hyper(complete_r(k, r), n, t, search=search)
    lower_bound_coloring_hyper(n, r, t)
    return upper.arrows


def min_size_ramsey_bruteforce(
    n: int, t: int, m_max: int, *, max_vertices: int | None = None
) -> int | None:
    """Least edge count m <= m_max whose graphs include one that arrows (n, t).

    Only K_n-unions, graphs in which every edge lies in a K_n, need a
    search.  Suppose G arrows with the least m and its edge e lies in no
    K_n.  In any coloring of G - e, color e red: no red K_n can use e and
    the blue edges do not change, so G - e arrows with m - 1 edges, a
    contradiction.  So the levels m = 1..m_max come from one pass of
    graphs._walk: from K_n by the K_n rule for n >= 3
    (graphs._clique_union_levels; levels below C(n,2) are empty), and
    since every graph is a K_2-union, from K_2 by the edge rule for n = 2
    (graphs._graph_levels).  Exact because both rules are complete up to
    isomorphism and arrowing ignores isolated vertices.  max_vertices,
    when given, keeps only the graphs on at most that many vertices in
    each level; deleting e adds no vertex, so the argument holds among
    them.  None means every graph with at most m_max edges fails, i.e. the
    answer is > m_max.  No level is walked when C(n,2) > m_max: such a
    graph has no K_n, so its all-red coloring is good.
    """
    _check_int("m_max", m_max, 1)
    if m_max > BRUTEFORCE_MAX_EDGES:
        raise RequestError(f"need m_max <= {BRUTEFORCE_MAX_EDGES}, got m_max={m_max}")
    if max_vertices is not None:
        _check_int("max_vertices", max_vertices, 0)
    _check_nt(n, t)
    if comb(n, 2) > m_max:
        return None
    levels = _graph_levels(m_max) if n == 2 else _clique_union_levels(n, m_max)
    for m, level in enumerate(levels, start=1):
        if max_vertices is not None:
            level = [g for g in level if g.n <= max_vertices]
        if any(arrows_pair(g, n, t).arrows for g in level):
            return m
    return None

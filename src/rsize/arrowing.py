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
  each bounds both levels from below.  The blue set is every host edge
  that touches S or lies inside a part.
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

`search` is "auto", "naive" or "reduced".  Routing looks at uniformity
alone: a 2-uniform host, whether a Graph or a Hypergraph with r = 2, is a
graph, and auto runs structural on it; when r >= 3, where no such
structure theorem holds, auto tries the Frankl families first and then
runs reduced.  The verdict's mode names the search that answered:
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
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Sequence

from .errors import RequestError, _check_int, _check_nt
from .graphs import (
    CertificationError,
    Graph,
    Hypergraph,
    _graph_levels,
    _mask_vertices,
    complete,
    complete_r,
    has_clique,
    has_red_complete_r,
    hyper_matching,
    max_matching,
)

NAIVE_MAX_EDGES = {"graph": 20, "hyper": 24}
REDUCED_MAX_EDGES = {"graph": 28, "hyper": 36}
BUDGET_ENV_VAR = "RSIZE_BUDGET_EDGES"
# the largest m_max that min_size_ramsey_bruteforce walks every graph to
BRUTEFORCE_MAX_EDGES = 8


class UndecidedError(RuntimeError):
    """The host exceeds the search budget: no verdict is offered."""


def _edge_tuples(host: Graph | Hypergraph) -> list[tuple[int, ...]]:
    """The host's edges in mask-bit order, each as ascending vertices."""
    return host.edges() if isinstance(host, Graph) else host.edge_tuples()


def _edge_masks(host: Graph | Hypergraph) -> list[int]:
    """The host's edges in mask-bit order, each as a vertex bitmask."""
    if isinstance(host, Graph):
        return [1 << u | 1 << v for u, v in host.edges()]
    return list(host.edge_masks)


@dataclass(frozen=True)
class EdgeColoring:
    """A red/blue coloring of a host's edges.

    `blue` is a bitmask over the host's sorted edge list; every edge not
    in it is red.
    """

    host: Graph | Hypergraph
    blue: int

    def __post_init__(self) -> None:
        m = self.host.edge_count()
        if not 0 <= self.blue < 1 << m:
            raise ValueError(f"blue mask {self.blue:#x} out of range for {m} edges")

    def blue_edges(self) -> list[tuple[int, ...]]:
        return [e for i, e in enumerate(_edge_tuples(self.host)) if self.blue >> i & 1]

    def red_edges(self) -> list[tuple[int, ...]]:
        return [e for i, e in enumerate(_edge_tuples(self.host)) if not self.blue >> i & 1]


def is_good_coloring(coloring: EdgeColoring, n: int, t: int) -> bool:
    """No red n-clique and no t disjoint blue edges, checked directly.

    Deliberately built on the standalone clique/matching routines rather
    than the search internals, so search results can be re-verified by an
    independent code path.
    """
    host = coloring.host
    if isinstance(host, Graph):
        red = Graph(host.n, coloring.red_edges())
        if has_clique(red, n):
            return False
        blue = Graph(host.n, coloring.blue_edges())
        return max_matching(blue) <= t - 1
    if has_red_complete_r(host, coloring.red_edges(), n):
        return False
    blue_part = Hypergraph(host.n, host.r, coloring.blue_edges())
    return hyper_matching(blue_part) <= t - 1


@dataclass(frozen=True)
class ArrowVerdict:
    """Outcome of an arrowing search, counterexample re-verified on build."""

    arrows: bool
    counterexample: EdgeColoring | None
    n: int
    t: int
    mode: str
    nodes: int

    def __post_init__(self) -> None:
        if self.arrows != (self.counterexample is None):
            raise ValueError("counterexample must be present exactly when arrows is false")
        if self.counterexample is not None and not is_good_coloring(
            self.counterexample, self.n, self.t
        ):
            raise CertificationError("counterexample failed re-verification")


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

    def grow(X: int, size: int, i: int, cap: int, failed: set[int]) -> int | None:
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
        if need <= cap:
            for v in _mask_vertices(first):
                Y = X | 1 << v
                if Y not in failed:
                    found = grow(Y, size + 1, i, cap, failed)
                    if found is not None:
                        return found
        failed.add(X)
        return None

    for i in range(1, r + 1):
        X = grow(0, 0, i, i * t - 1, set())
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
    edge_masks: Sequence[int], cliques: Sequence[int], t: int
) -> tuple[int | None, int]:
    """Search (S, parts) structures; `cliques` are vertex masks.

    Returns the blue edge mask of the first structure that leaves no live
    clique (None if there is none) and the number of structures entered.
    """
    budget = t - 1
    nodes = 0

    def merge(
        live: list[int], parts: tuple[int, ...], spare: int, failed: set[tuple[int, ...]]
    ) -> tuple[int, ...] | None:
        # parts: sorted masks of the parts with two or more vertices
        nonlocal nodes
        nodes += 1
        if not live:
            return parts
        # choose has checked the root's packing against the same spare
        if not parts or _odd_packing(live, parts) <= spare:
            owners = [next((p for p in parts if p >> v & 1), 1 << v) for v in _mask_vertices(live[0])]
            for a, b in combinations(owners, 2):
                merged = a | b
                cost = merged.bit_count() // 2 - a.bit_count() // 2 - b.bit_count() // 2
                if cost > spare:
                    continue
                key = tuple(sorted([p for p in parts if p != a and p != b] + [merged]))
                if key in failed:
                    continue
                alive = [c for c in live if (c & merged) & ((c & merged) - 1) == 0]
                found = merge(alive, key, spare - cost, failed)
                if found is not None:
                    return found
        failed.add(parts)
        return None

    def choose(low: int, S: int, size: int) -> tuple[int, tuple[int, ...]] | None:
        # every clique meeting S has a blue edge at S; the rest are live
        live = [c for c in cliques if not c & S]
        # a vertex added to S costs 1 and kills at most one packed clique, so
        # the packing bounds every superset of S as well
        if size + _odd_packing(live, ()) > budget:
            return None
        parts = merge(live, (), budget - size, set())
        if parts is not None:
            return S, parts
        # S grows in vertex order, and only by vertices of live cliques
        reach = 0
        for c in live:
            reach |= c
        for v in _mask_vertices(reach >> low << low):
            found = choose(v + 1, S | 1 << v, size + 1)
            if found is not None:
                return found
        return None

    found = choose(0, 0, 0)
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
        while cand:
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


def _reduced_budget(kind: str) -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return REDUCED_MAX_EDGES[kind]
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise RequestError(f"{BUDGET_ENV_VAR} must be a positive integer, got {raw!r}")
    return int(raw)


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
    budget = _reduced_budget(kind)
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
    kind = "graph" if isinstance(host, Graph) else "hyper"
    r = 2 if kind == "graph" else host.r
    _check_nt(n, t, n_min=r)
    mode = _pick_mode(search, host.edge_count(), kind, r)
    edge_masks = _edge_masks(host)
    if r == 2:
        graph = host if kind == "graph" else Graph(host.n, host.edge_tuples())
        windows = _cliques_of_graph(graph, n)
    else:
        windows = _cliques_of_hypergraph(host, n)
    if mode == "structural":
        found, nodes = _run_structural(edge_masks, windows, t)
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
        arrows=found is None,
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
    that search instead, as a cross-check.  `jobs` must be at least 1 and
    is otherwise ignored: every search is sequential.  It stays only
    because perfbench's `pool_speedup` still passes `jobs=2`.
    """
    if not isinstance(F, Graph):
        raise TypeError("arrows_pair expects a Graph host")
    if jobs < 1:
        raise RequestError(f"need jobs >= 1, got {jobs}")
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
    coloring = EdgeColoring(host, _frankl_blue(_edge_masks(host), X, i))
    if not is_good_coloring(coloring, n, t):
        raise CertificationError(
            f"coloring blue on X = {X:#x} (i = {i}) for (n={n}, t={t}) failed re-verification"
        )
    return coloring


def lower_bound_coloring_hyper(n: int, r: int, t: int) -> EdgeColoring:
    """Hypergraph analogue on n+(t-1)r-1 vertices: |A| = n-r, |B| = tr-1."""
    if r < 2:
        raise RequestError(f"need r >= 2, got {r}")
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
    upper = arrows_pair(complete(n + 2 * t - 2), n, t, search=search)
    lower_bound_coloring(n, t)
    return upper.arrows


def verify_hyper_ramsey(n: int, r: int, t: int, *, search: str = "auto") -> bool:
    """Check R(K_n^r, tK_r^r) = n+(t-1)r from both sides, as verify_graph_ramsey does."""
    upper = arrows_hyper(complete_r(n + (t - 1) * r, r), n, t, search=search)
    lower_bound_coloring_hyper(n, r, t)
    return upper.arrows


def min_size_ramsey_bruteforce(
    n: int, t: int, m_max: int, *, max_vertices: int | None = None
) -> int | None:
    """Least edge count m <= m_max whose graphs include one that arrows (n, t).

    Exact because the per-edge-count enumeration is complete up to
    isomorphism and arrowing ignores isolated vertices.  The levels
    m = 1..m_max come from one walk of the connected graphs, each level
    assembled once from their components.
    None means every graph with at most m_max edges fails, i.e. the
    answer is > m_max.  A graph with fewer than C(n,2) edges has no K_n,
    so its all-red coloring is good: those levels are walked but not
    searched, and no level is walked when C(n,2) > m_max.
    """
    _check_int("m_max", m_max, 1)
    if m_max > BRUTEFORCE_MAX_EDGES:
        raise RequestError(f"need m_max <= {BRUTEFORCE_MAX_EDGES}, got m_max={m_max}")
    if max_vertices is not None:
        _check_int("max_vertices", max_vertices, 0)
    _check_nt(n, t)
    first = comb(n, 2)
    if first > m_max:
        return None
    for m, level in enumerate(_graph_levels(m_max, max_vertices), start=1):
        if m >= first and any(arrows_pair(g, n, t).arrows for g in level):
            return m
    return None

import hashlib
import random
import time
from itertools import combinations, permutations

import pytest

from rsize.graphs import (
    CapacityError,
    CertificationError,
    Graph,
    Graph6Error,
    HypergraphFormatError,
    Hypergraph,
    canonical_form,
    chromatic_number,
    coloring_from_assignment,
    complete,
    complete_r,
    disjoint_union,
    enumerate_graphs,
    from_graph6,
    has_clique,
    has_red_complete_r,
    hyper_matching,
    hypergraph_from_text,
    hypergraph_to_text,
    is_k_colorable,
    max_independent_set,
    max_matching,
    min_vertex_cover,
    to_graph6,
)
from rsize import graphs
from rsize.arrowing import min_size_ramsey_bruteforce
from rsize.errors import RequestError
from rsize.graphs import (
    _canon_connected,
    _clique_union_levels,
    _edge_key,
    _graph_levels,
    _refine,
)

from oracles import (
    brute_automorphisms,
    brute_chromatic,
    brute_hyper_matching,
    brute_max_matching,
    is_equitable,
    reference_refine,
    unpruned_graph_levels,
)


def random_graph(rng: random.Random, n: int, m: int) -> Graph:
    edges = rng.sample(list(combinations(range(n), 2)), m)
    return Graph(n, edges)


# ------------------------------------------------------------------- basics

def test_graph_construction_and_accessors():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.edge_count() == 3
    assert g.degree(1) == 2 and g.degree(0) == 1
    assert g.has_edge(2, 1) and not g.has_edge(0, 2)


def test_edges_are_the_sorted_pair_list():
    # EdgeColoring's bit indices and every search's edge order follow it
    rng = random.Random(61)
    cases = [(0, []), (1, []), (64, [(63, 0), (62, 63), (5, 63), (31, 32)])]
    for _ in range(60):
        nv = rng.choice([2, 3, 7, 33, 64])
        cases.append((nv, [tuple(rng.sample(range(nv), 2)) for _ in range(rng.randint(0, 3 * nv))]))
    for nv, pairs in cases:
        g = Graph(nv, pairs)
        assert g.edges() == sorted({(min(e), max(e)) for e in pairs}), (nv, pairs)
    assert complete(64).edges() == list(combinations(range(64), 2))


def test_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 5)])
    with pytest.raises(CapacityError):
        Graph(65)
    with pytest.raises(CapacityError):
        disjoint_union([complete(40), complete(25)])


@pytest.mark.parametrize(
    "container, args",
    [
        ("Graph", (3, [(True, 2)])),
        ("Graph", (3, [(0.0, 1)])),
        ("Graph", (3, [(0, 1, 2)])),
        ("Graph", (3, [(0,)])),
        ("Graph", (3, [5])),
        ("Hypergraph", (4, 2, [(True, 2)])),
        ("Hypergraph", (4, 2, [(0.5, 1)])),
        ("Hypergraph", (4, 2, [(0, 1, 2)])),
        ("Hypergraph", (4, 3, [5])),
    ],
    ids=repr,
)
def test_hosts_refuse_an_edge_that_is_no_edge(container, args):
    # a bool or a float endpoint is no vertex, and an edge must have the host's size
    with pytest.raises(RequestError):
        getattr(graphs, container)(*args)


def test_each_edge_is_checked_once_where_it_enters(monkeypatch):
    # the one edge check runs on edges from a caller or a file, and never on
    # a host the package derives from valid ones
    calls = []
    real = graphs._hyperedge_mask

    def counting(edge, n, r):
        calls.append(edge)
        return real(edge, n, r)

    monkeypatch.setattr(graphs, "_hyperedge_mask", counting)
    assert hypergraph_from_text("6 3\n0 1 2\n3 4 5\n0 3 5\n1 2 4\n0 4 5\n").edge_count() == 5
    assert len(calls) == 5
    Graph(4, [(0, 1), (1, 2), (0, 1)])
    assert len(calls) == 8
    calls.clear()
    for _ in range(20):
        assert sum(1 for _ in enumerate_graphs(7)) == 177
    assert sum(map(len, _clique_union_levels(4, 14))) == 13
    union = disjoint_union([complete(5), complete(3)])
    assert from_graph6(to_graph6(union)) == union
    assert complete_r(8, 3).edge_count() == 56
    assert calls == []


def test_a_graph_reads_as_the_2_uniform_hypergraph_on_its_edges():
    # the arrow layer reads n, r and edge_masks off either host, and
    # EdgeColoring.blue indexes edge_masks, so the two orders must agree
    rng = random.Random(67)
    for _ in range(80):
        n = rng.randint(0, 32)
        g = random_graph(rng, n, rng.randint(0, min(60, n * (n - 1) // 2)))
        h = Hypergraph(g.n, 2, g.edges())
        assert g.r == h.r == 2
        assert g.edge_masks == list(h.edge_masks), g
        assert len(g.edge_masks) == g.edge_count() == h.edge_count()


def test_constructions():
    k5 = complete(5)
    assert k5.edge_count() == 10
    u = disjoint_union([complete(3), complete(2)])
    assert u.n == 5 and u.edge_count() == 4
    assert u.has_edge(0, 1) and u.has_edge(3, 4) and not u.has_edge(2, 3)


def test_induced_and_without():
    g = complete(5)
    sub = g.induced([0, 2, 4])
    assert sub.n == 3 and sub.edge_count() == 3
    rest = g.without_vertices([0, 1])
    assert rest.n == 3 and rest.edge_count() == 3
    # relabeled in the given order, checked pair by pair against has_edge
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
        order = rng.sample(range(n), rng.randint(0, n))
        sub = g.induced(order)
        assert sub.n == len(order)
        for i, j in combinations(range(len(order)), 2):
            assert sub.has_edge(i, j) == sub.has_edge(j, i) == g.has_edge(order[i], order[j])
    with pytest.raises(RequestError):
        complete(3).induced([0, 1, 0])


@pytest.mark.parametrize("vertices", [[0, 7], [0, 3], [0, -1], [0, 1.0], [True], ["0"]], ids=repr)
def test_induced_refuses_a_vertex_that_is_no_vertex(vertices):
    with pytest.raises(RequestError, match="out of range for 3 vertices"):
        complete(3).induced(vertices)


# ------------------------------------------------------------ exact solvers

def test_max_matching_known_values():
    assert max_matching(complete(4)) == 2
    assert max_matching(disjoint_union([complete(3), complete(3)])) == 2
    assert max_matching(Graph(4, [(0, 1), (1, 2), (2, 3)])) == 2
    assert max_matching(Graph(5, [(0, i) for i in range(1, 5)])) == 1
    assert max_matching(Graph(3)) == 0


def test_max_matching_against_bruteforce():
    rng = random.Random(7)
    for _ in range(120):
        n = rng.randint(2, 9)
        m = rng.randint(0, min(12, n * (n - 1) // 2))
        g = random_graph(rng, n, m)
        assert max_matching(g) == brute_max_matching(n, g.edges()), g


def test_max_matching_on_disjoint_unions_against_bruteforce():
    rng = random.Random(11)
    for _ in range(60):
        parts = []
        for _ in range(rng.randint(2, 4)):
            n = rng.randint(1, 5)
            parts.append(random_graph(rng, n, rng.randint(0, min(4, n * (n - 1) // 2))))
        union = disjoint_union(parts)
        perm = list(range(union.n))
        rng.shuffle(perm)
        g = relabel(union, perm)
        assert max_matching(g) == brute_max_matching(g.n, g.edges()), g


def test_has_clique_known_and_bruteforce():
    assert has_clique(complete(6), 6)
    assert not has_clique(complete(6), 7)
    assert has_clique(Graph(3), 1)
    assert not has_clique(Graph(0), 1)
    assert has_clique(Graph(0), 0)
    rng = random.Random(11)
    for _ in range(80):
        n = rng.randint(2, 9)
        m = rng.randint(0, n * (n - 1) // 2)
        g = random_graph(rng, n, m)
        for k in range(2, 6):
            want = any(
                all(g.has_edge(u, v) for u, v in combinations(sub, 2))
                for sub in combinations(range(n), k)
            )
            assert has_clique(g, k) == want, (g, k)


def test_chromatic_number_known_values():
    assert chromatic_number(Graph(0)) == 0
    assert chromatic_number(Graph(4)) == 1
    assert chromatic_number(complete(4)) == 4
    assert chromatic_number(Graph(5, [(i, (i + 1) % 5) for i in range(5)])) == 3
    assert chromatic_number(Graph(6, [(i, j) for i in range(3) for j in range(3, 6)])) == 2


def test_chromatic_number_against_bruteforce():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 8)
        m = rng.randint(0, n * (n - 1) // 2)
        g = random_graph(rng, n, m)
        assert chromatic_number(g) == brute_chromatic(n, g.edges()), g


def test_is_k_colorable_boundary():
    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert is_k_colorable(c5, 2) is None
    col = is_k_colorable(c5, 3)
    assert col is not None and col.num_colors <= 3
    assert is_k_colorable(Graph(0), 0) is not None
    assert is_k_colorable(Graph(2, [(0, 1)]), 0) is None


def test_coloring_factory_validates_and_sorts():
    g = Graph(5, [(0, 1), (0, 2)])
    col = coloring_from_assignment(g, [0, 1, 1, 1, 1])
    assert [m.bit_count() for m in col.classes] == [4, 1]
    assert col.color_of[0] == 1 and col.color_of[1] == 0
    assert col.class_vertices(0) == (1, 2, 3, 4)
    with pytest.raises(ValueError):
        coloring_from_assignment(g, [0, 0, 1, 1, 1])
    with pytest.raises(ValueError):
        coloring_from_assignment(g, [0, 1])


def test_coloring_factory_labels_each_vertex_by_its_class_position():
    rng = random.Random(71)
    for _ in range(60):
        n = rng.randint(0, 12)
        assignment = [rng.randint(-2, 4) for _ in range(n)]
        col = coloring_from_assignment(Graph(n), assignment)
        assert sum(col.classes) == (1 << n) - 1
        keys = [(-m.bit_count(), m & -m) for m in col.classes]
        assert keys == sorted(keys)
        for v, c in enumerate(assignment):
            assert col.classes[col.color_of[v]] >> v & 1
            same = {u for u, d in enumerate(assignment) if d == c}
            assert set(col.class_vertices(col.color_of[v])) == same


def test_cover_and_independent_set():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 9)
        m = rng.randint(0, n * (n - 1) // 2)
        g = random_graph(rng, n, m)
        cover = min_vertex_cover(g)
        cover_set = set(cover)
        assert all(u in cover_set or v in cover_set for u, v in g.edges())
        # minimality against direct subset enumeration
        best = next(
            size
            for size in range(n + 1)
            if any(
                all(u in set(sub) or v in set(sub) for u, v in g.edges())
                for sub in combinations(range(n), size)
            )
        )
        assert len(cover) == best
        ind = max_independent_set(g)
        assert g.n - ind.bit_count() == len(cover)
        for u, v in g.edges():
            assert not (ind >> u & 1 and ind >> v & 1)


# --------------------------------------------------- canonical form, counting

def relabel(g: Graph, perm: list[int]) -> Graph:
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_canonical_form_is_relabel_invariant():
    rng = random.Random(19)
    for _ in range(150):
        n = rng.randint(1, 9)
        m = rng.randint(0, n * (n - 1) // 2)
        g = random_graph(rng, n, m)
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(relabel(g, perm))


def degree_blocked_key(g: Graph):
    """Canonical key by brute relabeling, independent of canonical_form.

    Vertices are relabeled so degrees are nonincreasing; the key is the
    minimum edge tuple over all such relabelings.  Complete because every
    isomorphism preserves degrees.  Graphs where every degree is 1 are
    perfect matchings (all isomorphic for a given n), special-cased to
    dodge the single-block n! scan.
    """
    degs = [g.degree(v) for v in range(g.n)]
    if degs and all(d == 1 for d in degs):
        return ("matching", g.n)
    by_degree: dict[int, list[int]] = {}
    for v in range(g.n):
        by_degree.setdefault(degs[v], []).append(v)
    blocks = [by_degree[d] for d in sorted(by_degree, reverse=True)]
    starts = []
    pos = 0
    for block in blocks:
        starts.append(pos)
        pos += len(block)
    best = None
    edges = g.edges()
    from itertools import product

    for arrangement in product(*(permutations(b) for b in blocks)):
        p = [0] * g.n
        for start, block in zip(starts, arrangement):
            for i, v in enumerate(block):
                p[v] = start + i
        key = tuple(sorted((p[u], p[v]) if p[u] < p[v] else (p[v], p[u]) for u, v in edges))
        if best is None or key < best:
            best = key
    return (g.n, best)


def test_canonical_form_separates_nonisomorphic_catalog():
    # dedupe every labeled 4-edge graph two ways — brute relabeling vs
    # canonical_form — and require the two partitions to coincide
    key_to_form: dict[object, object] = {}
    form_to_key: dict[object, object] = {}
    for v in range(2, 9):
        all_edges = list(combinations(range(v), 2))
        if len(all_edges) < 4:
            continue
        for subset in combinations(all_edges, 4):
            cover = 0
            for u, w in subset:
                cover |= (1 << u) | (1 << w)
            if cover != (1 << v) - 1:
                continue
            g = Graph(v, subset)
            key = degree_blocked_key(g)
            form = canonical_form(g)
            assert key_to_form.setdefault(key, form) == form
            assert form_to_key.setdefault(form, key) == key
    assert len(key_to_form) == 11
    assert len(form_to_key) == 11


def test_refine_gives_an_equitable_ordered_partition():
    # at the root, and after individualizing each vertex of a non-singleton cell
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
        full = (1 << n) - 1
        root = _refine(g.adj, [full], [full])
        partitions = [root]
        for i, cell in enumerate(root):
            if cell & (cell - 1):
                for v in range(n):
                    if cell >> v & 1:
                        bit = 1 << v
                        split = root[:i] + [bit, cell ^ bit] + root[i + 1 :]
                        partitions.append(_refine(g.adj, split, [bit]))
        for cells in partitions:
            members = sorted(v for cell in cells for v in range(n) if cell >> v & 1)
            assert all(cells) and members == list(range(n)), (g, cells)
            assert is_equitable(n, g.edges(), cells), (g, cells)


def test_refine_equals_the_reference_refinement(monkeypatch):
    # the two-count split of a two-vertex cell must give the ordered cells
    # the dict grouping gives: from the unit partition, and after
    # individualizing each vertex of its first non-singleton cell, on random
    # graphs and on the graphs the walk labels on level 7
    rng = random.Random(53)
    hosts = []
    for _ in range(300):
        n = rng.randint(1, 24)
        hosts.append(random_graph(rng, n, rng.randint(0, n * (n - 1) // 2)))
    real = graphs._canon_connected
    labeled = []
    monkeypatch.setattr(graphs, "_canon_connected", lambda g: labeled.append(g) or real(g))
    list(_graph_levels(7))
    monkeypatch.undo()
    children = [g for g in labeled if g.edge_count() == 7]
    assert len(children) == 88
    splits = 0
    for g in hosts + children:
        full = (1 << g.n) - 1
        root = _refine(g.adj, [full], [full])
        assert root == reference_refine(g.adj, [full], [full]), g
        cell = next((c for c in root if c & (c - 1)), 0)
        i = root.index(cell) if cell else 0
        for v in range(g.n):
            if cell >> v & 1:
                split = root[:i] + [1 << v, cell ^ 1 << v] + root[i + 1 :]
                got = _refine(g.adj, list(split), [1 << v])
                assert got == reference_refine(g.adj, list(split), [1 << v]), (g, v)
                splits += 1
    assert splits == 746


def _check_regular_family(graphs: list[Graph], seed: int) -> None:
    rng = random.Random(seed)
    forms = [canonical_form(g) for g in graphs]
    for g, form in zip(graphs, forms):
        for _ in range(20):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(relabel(g, perm)) == form, g
    assert len(set(forms)) == len(forms)  # pairwise non-isomorphic
    if all(g.n <= 8 for g in graphs):
        assert len({degree_blocked_key(g) for g in graphs}) == len(graphs)


def test_canonical_form_on_regular_hosts():
    # the root refinement splits nothing here, so individualization does all the work
    k33 = Graph(6, [(i, j) for i in range(3) for j in range(3, 6)])
    prism = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    _check_regular_family([k33, prism], 31)
    c8 = Graph(8, [(i, (i + 1) % 8) for i in range(8)])
    two_c4 = Graph(8, [(i, i + 1) for i in (0, 1, 2, 4, 5, 6)] + [(0, 3), (4, 7)])
    _check_regular_family([c8, two_c4], 37)
    # the cube, the other four connected cubic graphs on 8 vertices (OEIS
    # A002851; each is C_8 plus a chord matching) and 2K_4
    cube = Graph(8, [(u, u ^ 1 << b) for u in range(8) for b in range(3) if not u >> b & 1])
    cycle = c8.edges()
    bipartite_chords = [(0, 3), (1, 6), (2, 5), (4, 7)]
    assert canonical_form(cube) == canonical_form(Graph(8, cycle + bipartite_chords))
    chords = (
        [(0, 2), (1, 3), (4, 6), (5, 7)],
        [(0, 2), (1, 4), (3, 6), (5, 7)],
        [(0, 2), (1, 5), (3, 6), (4, 7)],
        [(0, 4), (1, 5), (2, 6), (3, 7)],
    )
    cubic = [cube] + [Graph(8, cycle + c) for c in chords]
    cubic.append(disjoint_union([complete(4), complete(4)]))
    _check_regular_family(cubic, 41)
    # outer 5-cycle, spokes, inner pentagram (Petersen) or inner 5-cycle (prism)
    rim = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    petersen = Graph(10, rim + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    pentagonal_prism = Graph(10, rim + [(5 + i, 5 + (i + 1) % 5) for i in range(5)])
    _check_regular_family([petersen, pentagonal_prism], 43)


def _orbits(n: int, perms) -> set[frozenset[int]]:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for perm in perms:
        for v in range(n):
            parent[find(v)] = find(perm[v])
    groups: dict[int, set[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), set()).add(v)
    return {frozenset(group) for group in groups.values()}


def test_canonical_generators_give_the_full_vertex_orbits():
    # the walk prunes the children of connected graphs by these generators'
    # orbits; a generator set spanning a smaller group would prune less and
    # canonicalize more children
    for m in range(1, 7):
        for g in enumerate_graphs(m, max_vertices=7):
            if len(graphs._components(g)) > 1:
                continue
            edges, gens = _canon_connected(g)
            want = _orbits(g.n, brute_automorphisms(g.n, edges))
            assert _orbits(g.n, gens) == want, edges


def test_canonical_form_keeps_every_leaf_automorphism(monkeypatch):
    # the orbit prune merges candidates by every verified leaf automorphism;
    # with 64 kept at most, K_16 took 154,635 refinements and K_{10,10}
    # 11,090, against 696 and 772 with all of them kept, 136 and 208 once a
    # leaf that matches the best leaf jumps back, and 16 and 37 once twin
    # swaps seed the generators
    real = _refine
    bipartite = Graph(20, [(u, v) for u in range(10) for v in range(10, 20)])
    for g, limit in ((complete(16), 16), (bipartite, 37)):
        calls = 0

        def counting(*args):
            nonlocal calls
            calls += 1
            if calls > limit:
                raise AssertionError(f"more than {limit} refinements on {g.n} vertices")
            return real(*args)

        monkeypatch.setattr(graphs, "_refine", counting)
        form = canonical_form(g)
        monkeypatch.undo()
        assert form == canonical_form(relabel(g, list(range(g.n))[::-1]))
    edges, gens = _canon_connected(complete(16))
    assert _orbits(16, gens) == {frozenset(range(16))}


def test_enumerate_graphs_counts():
    # 1, 2, 5, 11 by hand; 26 pinned after a full labeled brute-force count;
    # 68 and 177 are OEIS A000664, whose first term is the empty graph
    assert list(enumerate_graphs(0)) == [Graph(0)]
    counts = [sum(1 for _ in enumerate_graphs(m)) for m in (1, 2, 3, 4, 5, 6, 7)]
    assert counts == [1, 2, 5, 11, 26, 68, 177]


def test_enumerate_graphs_count_at_eight_edges():
    assert sum(1 for _ in enumerate_graphs(8)) == 497  # OEIS A000664


def test_connected_level_sizes():
    # the walk grows connected graphs only and assembles the rest; its
    # connected graphs per edge count are OEIS A002905
    connected = [sum(len(graphs._components(Graph(*form))) == 1 for form in level) for level in _graph_levels(8)]
    assert connected == [1, 1, 3, 5, 12, 30, 79, 227]


def children(g: Graph) -> list[Graph]:
    """Every one-edge extension of g: inside, to one new vertex, on two new ones."""
    edges = g.edges()
    out = [Graph(g.n, edges + [(u, v)]) for u, v in combinations(range(g.n), 2) if not g.has_edge(u, v)]
    out += [Graph(g.n + 1, edges + [(u, g.n)]) for u in range(g.n)]
    out.append(Graph(g.n + 2, edges + [(g.n, g.n + 1)]))
    return out


def test_canonical_form_of_relabeled_children():
    # the walk's children, met under fresh labels too
    rng = random.Random(23)
    for m in range(1, 6):
        for parent in enumerate_graphs(m):
            for child in children(parent):
                perm = list(range(child.n))
                rng.shuffle(perm)
                assert canonical_form(relabel(child, perm)) == canonical_form(child), child


def test_enumerate_graphs_properties():
    for m in (3, 5):
        forms = set()
        for g in enumerate_graphs(m):
            assert g.edge_count() == m
            assert all(g.degree(v) >= 1 for v in range(g.n))
            forms.add(canonical_form(g))
        assert len(forms) == sum(1 for _ in enumerate_graphs(m))


def test_enumerate_graphs_vertex_cap(monkeypatch):
    # the capped walk yields exactly the uncapped level with n <= cap, in order
    for m in range(1, 7):
        full = list(enumerate_graphs(m))
        for cap in range(2, 9):
            assert list(enumerate_graphs(m, max_vertices=cap)) == [g for g in full if g.n <= cap], (m, cap)
    assert list(enumerate_graphs(3, max_vertices=1)) == []
    # the graphs with 8 edges on at most 1..10 vertices
    counts = [len(list(enumerate_graphs(8, max_vertices=cap))) for cap in range(1, 11)]
    assert counts == [0, 0, 0, 0, 2, 24, 97, 221, 345, 428]
    # level 10's forms are filtered before any is built: the walk builds
    # only parents from levels 1..9, so every build with 10 edges is a graph
    # the caller keeps, 148 of the level's 4,613 (OEIS A000664)
    built = []
    real = graphs._form_graph

    def counting(form):
        if len(form[1]) == 10:
            built.append(form)
        return real(form)

    monkeypatch.setattr(graphs, "_form_graph", counting)
    full = list(enumerate_graphs(10))
    assert len(built) == len(full) == 4613
    built.clear()
    assert list(enumerate_graphs(10, max_vertices=7)) == [g for g in full if g.n <= 7]
    assert len(built) == 148


def test_orbit_pruned_walk_equals_unpruned_walk():
    # the walk canonicalizes one child per orbit of its parent's
    # automorphisms, and only children whose new edge has the largest edge
    # key; the oracle canonicalizes every child, and stops growing at the
    # vertex cap that enumerate_graphs applies as a filter
    canon = lambda n, edges: canonical_form(Graph(n, edges))
    want = unpruned_graph_levels(8, None, canon)
    assert list(_graph_levels(8)) == want
    for cap in range(2, 9):
        want = unpruned_graph_levels(7, cap, canon)
        got = [[(g.n, tuple(g.edges())) for g in enumerate_graphs(m, max_vertices=cap)] for m in range(1, 8)]
        assert got == want, cap


def test_edge_key_is_relabel_invariant():
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(2, 9)
        g = random_graph(rng, n, rng.randint(1, n * (n - 1) // 2))
        perm = list(range(n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        for u, v in g.edges():
            key = _edge_key(g.adj, u, v)
            assert key == _edge_key(h.adj, perm[u], perm[v]) == _edge_key(g.adj, v, u)


def test_walk_canonicalization_count(monkeypatch):
    # the walk canonicalizes 140 connected children of connected levels
    # 1..6, plus the root K_2, and assembles the disconnected graphs from
    # their components.  Twin swaps seeding each labeling's generators cut
    # its refinements from 751 to 464
    calls = []
    refinements = 0
    real = graphs._canon_connected

    def counting(g):
        calls.append(g)
        return real(g)

    def counting_refine(*args):
        nonlocal refinements
        refinements += 1
        return _refine(*args)

    monkeypatch.setattr(graphs, "_canon_connected", counting)
    monkeypatch.setattr(graphs, "_refine", counting_refine)
    assert [len(level) for level in _graph_levels(7)] == [1, 2, 5, 11, 26, 68, 177]
    assert len(calls) == 141
    assert all(len(graphs._components(g)) == 1 for g in calls)
    assert refinements <= 464


def test_labeling_verifies_each_twin_swap(monkeypatch):
    # the twin swaps join the generators the orbit prune trusts, so each is
    # checked, by the transposition test; a forged class pairing P_3's centre
    # with an end must raise, here and through the walk, before any prune,
    # whether it is forged on the closed-twin call (P_3, two edges) or on the
    # open-twin call (its complement: one edge between the ends)
    real = graphs._twin_classes
    p3 = Graph(3, [(0, 1), (1, 2)])
    edges, gens = _canon_connected(p3)
    (centre,) = set(edges[0]) & set(edges[1])
    assert _orbits(3, gens) == {frozenset({centre}), frozenset({0, 1, 2} - {centre})}
    # P_3's ends are open twins only, so their swap comes from the complement's call
    assert real(p3) == [1, 2, 4]
    for forged_edges in (2, 1):

        def forged(g):
            if g.n == 3 and g.edge_count() == forged_edges:
                centre = next(v for v in range(3) if g.degree(v) != 1)
                end = (centre + 1) % 3
                return [1 << centre | 1 << end, 7 ^ (1 << centre | 1 << end)]
            return real(g)

        monkeypatch.setattr(graphs, "_twin_classes", forged)
        with pytest.raises(CertificationError):
            _canon_connected(p3)
        with pytest.raises(CertificationError):
            list(_graph_levels(3))
        assert canonical_form(complete(3)) == (3, ((0, 1), (0, 2), (1, 2)))
        monkeypatch.undo()


def test_walk_assembles_only_the_levels_read(monkeypatch):
    # the walk yields each level's connected forms, and a level's graphs are
    # assembled from them only when a caller reads that level
    assembled = []
    real = graphs._unions

    def counting(connected, m):
        assembled.append(m)
        return real(connected, m)

    monkeypatch.setattr(graphs, "_unions", counting)
    assert sum(1 for _ in enumerate_graphs(7)) == 177
    assert assembled == [7]
    assembled.clear()
    # g(3,2) = 6, met by two disjoint triangles; levels 7 and 8 stay unread
    assert min_size_ramsey_bruteforce(3, 2, 8) == 6
    assert assembled == [1, 2, 3, 4, 5, 6]


def test_walk_labels_are_pinned(monkeypatch):
    # the orbit bookkeeping only decides which candidates the labeling
    # search skips, so reworking it must leave every label alone: levels
    # 1..8 (787 forms, OEIS A000664) hash to the digest they had when the
    # bookkeeping merged every generator over every vertex, from the same
    # 402 labelings
    calls = 0
    real = graphs._canon_connected

    def counting(g):
        nonlocal calls
        calls += 1
        return real(g)

    monkeypatch.setattr(graphs, "_canon_connected", counting)
    levels = list(_graph_levels(8))
    assert sum(map(len, levels)) == 787 and calls == 402
    digest = hashlib.sha256(repr(levels).encode()).hexdigest()
    assert digest == "e13d7441c04c46e0c982a31e089e9c2bd09194a728e41f5b250389e0975b85d2"


def test_canonical_form_of_a_large_complete_graph():
    # K_32 once stored 496 generators; merging each one over all 32
    # vertices at every search node, after testing it against the whole
    # prefix, took several seconds.  Only the generators that fix the
    # prefix act, each maps the target cell to itself, and children inherit
    # the filtered list
    start = time.perf_counter()
    assert canonical_form(complete(32)) == (32, tuple(combinations(range(32), 2)))
    # a backstop against runaway runs, not a timing assertion
    assert time.perf_counter() - start < 30.0


def test_labeling_jumps_back_on_automorphisms():
    # a leaf that matches the best leaf ends its subtree below the depth
    # where the two paths part, so a subtree reveals one generator rather
    # than one per leaf: with no jump, K_16 stored 120, K_{10,10} 91 and
    # K_32 496, and K_32 took 5,488 refinements
    bipartite = Graph(20, [(u, v) for u in range(10) for v in range(10, 20)])
    for g, want in ((complete(16), 15), (bipartite, 19), (complete(32), 31)):
        edges, gens = _canon_connected(g)
        assert len(gens) == want, g.n
        graphs._check_automorphisms((g.n, edges), gens)
        # all three are vertex-transitive
        assert _orbits(g.n, gens) == {frozenset(range(g.n))}


def test_walk_rejects_a_bogus_generator(monkeypatch):
    # P_3's four children (K_3, P_4 twice, K_{1,3}) all pass the edge-key
    # filter: a P_4 child's middle edge has a larger key than its new
    # pendant edge, but is a bridge, so not removable.  With the ends
    # swapped as P_3's generator, the prune alone removes one P_4.  The
    # walk re-verifies the generators a labeling hands it before any growth
    # rule uses them
    real = graphs._canon_connected

    def children_of_p3(p3_gens):
        # the forms the walk labels on level 3, all children of P_3, under a
        # labeling that gives P_3 the generators p3_gens(middle, end)
        children = []

        def labeling(g):
            edges, gens = real(g)
            if len(edges) == 2:
                (middle,) = set(edges[0]) & set(edges[1])
                gens = p3_gens(middle, (middle + 1) % 3)
            elif len(edges) == 3:
                children.append((g.n, edges))
            return edges, gens

        monkeypatch.setattr(graphs, "_canon_connected", labeling)
        list(_graph_levels(3))
        return children

    def good(middle, end):
        return tuple(v if v == middle else 3 - middle - v for v in range(3))

    def bogus(middle, end):
        # a middle-end swap is not an automorphism
        return tuple(end if v == middle else middle if v == end else v for v in range(3))

    unpruned = children_of_p3(lambda middle, end: [])
    pruned = children_of_p3(lambda middle, end: [good(middle, end)])
    assert len(unpruned) == 1 + 3
    assert len(pruned) == len(unpruned) - 1 and set(pruned) == set(unpruned)
    with pytest.raises(CertificationError):
        children_of_p3(lambda middle, end: [good(middle, end), bogus(middle, end)])
    with pytest.raises(CertificationError):  # not a permutation
        children_of_p3(lambda middle, end: [(0, 0, 1)])


def every_edge_in_a_clique(g: Graph, n: int) -> bool:
    """Whether each edge of g lies in some K_n, by trying every (n-2)-set of common neighbours."""
    for u, v in g.edges():
        common = [w for w in range(g.n) if g.has_edge(u, w) and g.has_edge(v, w)]
        if not any(all(g.has_edge(a, b) for a, b in combinations(s, 2)) for s in combinations(common, n - 2)):
            return False
    return True


def test_clique_union_walk_is_complete():
    # the K_n-union walk grows connected unions one K_n at a time; the
    # independent route filters the all-graph walk by its definition.  Whole
    # levels are compared, so the connected unions and their assembly both
    # count.  Every graph is a K_2-union
    for n, m in ((2, 6), (3, 8), (4, 8)):
        got = list(_clique_union_levels(n, m))
        want = [[form for form in level if every_edge_in_a_clique(Graph(*form), n)] for level in _graph_levels(m)]
        assert got == want, n
    # the K_3-unions with 1..8 edges, per edge count
    assert [len(level) for level in _clique_union_levels(3, 8)] == [0, 0, 1, 0, 1, 3, 2, 5]


def test_clique_union_labels_are_pinned(monkeypatch):
    # the K_n-union walk's levels, labels and labeling count, pinned as
    # test_walk_labels_are_pinned pins the all-graph walk's, so reworking
    # the level machinery the two walks share cannot move either
    calls = 0
    real = graphs._canon_connected

    def counting(g):
        nonlocal calls
        calls += 1
        return real(g)

    monkeypatch.setattr(graphs, "_canon_connected", counting)
    levels = list(_clique_union_levels(3, 12))
    assert [len(level) for level in levels] == [0, 0, 1, 0, 1, 3, 2, 5, 12, 20, 40, 91]
    assert calls == 631
    digest = hashlib.sha256(repr(levels).encode()).hexdigest()
    assert digest == "76297452e1bd8613c6019f3b3926a950f23420b867cf9cb6b9da12d040370fd1"
    for n, m, want in ((4, 14, 24), (5, 16, 3)):
        calls = 0
        list(_clique_union_levels(n, m))
        assert calls == want, n


def test_clique_union_walk_rejects_a_bogus_generator(monkeypatch):
    # the K_n rule takes one new K_n per orbit of its parent's generators,
    # so the walk re-verifies them first, as for the edge rule
    real = graphs._canon_connected

    def with_extra(extra):
        def labeling(g):
            edges, gens = real(g)
            return edges, gens + [extra(g.n, edges)]

        return labeling

    def swap_unequal_degrees(n, edges):
        # the bowtie's centre and a leaf: a permutation but no automorphism
        degree = [sum(v in e for e in edges) for v in range(n)]
        u = degree.index(min(degree))
        v = degree.index(max(degree))
        return tuple(v if w == u else u if w == v else w for w in range(n))

    assert len(list(_clique_union_levels(3, 6))) == 6
    monkeypatch.setattr(graphs, "_canon_connected", with_extra(lambda n, edges: (0,) * n))
    with pytest.raises(CertificationError):  # not a permutation
        list(_clique_union_levels(3, 6))
    monkeypatch.setattr(graphs, "_canon_connected", with_extra(swap_unequal_degrees))
    # on the regular K_3 the swap is the identity; the bowtie (6 edges) is not regular
    with pytest.raises(CertificationError):
        list(_clique_union_levels(3, 8))


def test_enumerate_graphs_capacity():
    with pytest.raises(CapacityError):
        next(enumerate_graphs(13))


def test_walk_entry_points_refuse_non_integer_sizes():
    # True is no edge count, and a fractional cap would silently yield nothing
    for call in (
        lambda: list(enumerate_graphs(2.5)),
        lambda: list(enumerate_graphs(True)),
        lambda: list(enumerate_graphs(3, max_vertices=2.5)),
        lambda: min_size_ramsey_bruteforce(3, 1, 3.5),
    ):
        with pytest.raises(RequestError, match="must be an integer"):
            call()


# -------------------------------------------------------------------- graph6

def test_graph6_known_bytes():
    assert to_graph6(complete(3)) == "Bw"
    star = from_graph6("D?{")
    assert star.n == 5 and star.edges() == [(0, 4), (1, 4), (2, 4), (3, 4)]


def test_graph6_roundtrip_random():
    rng = random.Random(23)
    for _ in range(1000):
        n = rng.randint(0, 20)
        m = rng.randint(0, n * (n - 1) // 2)
        g = random_graph(rng, n, m)
        assert from_graph6(to_graph6(g)) == g


def test_graph6_long_form_roundtrip():
    rng = random.Random(29)
    for n in (63, 64):
        g = random_graph(rng, n, 150)
        text = to_graph6(g)
        assert text.startswith(chr(126))
        assert from_graph6(text) == g


def test_graph6_malformed_inputs():
    with pytest.raises(Graph6Error) as exc:
        from_graph6("")
    assert exc.value.offset == 0
    with pytest.raises(Graph6Error) as exc:
        from_graph6("B\x1f")
    assert exc.value.offset == 1
    with pytest.raises(Graph6Error):  # truncated body
        from_graph6("D?")
    with pytest.raises(Graph6Error) as exc:  # trailing bytes
        from_graph6("Bww")
    assert exc.value.offset == 2
    with pytest.raises(Graph6Error):  # nonzero padding
        from_graph6("B?"[:1] + chr(63 + 1))
    with pytest.raises(Graph6Error):  # 8-byte size form
        from_graph6("~~????")
    with pytest.raises(CapacityError):  # valid format, 65 vertices
        from_graph6(chr(126) + "?@@")


# --------------------------------------------------------------- hypergraphs

def test_hypergraph_construction_and_validation():
    h = Hypergraph(5, 3, [(0, 1, 2), (2, 3, 4)])
    assert h.edge_count() == 2
    assert h.edge_tuples() == [(0, 1, 2), (2, 3, 4)]
    with pytest.raises(ValueError):
        Hypergraph(5, 3, [(0, 1)])
    with pytest.raises(ValueError):
        Hypergraph(5, 3, [(0, 1, 1)])
    with pytest.raises(ValueError):
        Hypergraph(5, 3, [(0, 1, 9)])
    with pytest.raises(ValueError):
        Hypergraph(5, 3, [(0, 1, 2), (2, 1, 0)])
    with pytest.raises(ValueError):
        Hypergraph(5, 1, [(0,)])
    with pytest.raises(CapacityError):
        Hypergraph(33, 3, [])


def test_complete_r_counts():
    from math import comb

    for k, r in [(6, 3), (7, 3), (5, 2), (6, 4)]:
        assert complete_r(k, r).edge_count() == comb(k, r)


def test_hyper_matching_known_and_bruteforce():
    assert hyper_matching(complete_r(6, 3)) == 2
    assert hyper_matching(complete_r(7, 3)) == 2
    assert hyper_matching(complete_r(9, 3)) == 3
    assert hyper_matching(complete_r(6, 2)) == 3
    assert hyper_matching(Hypergraph(6, 3, [])) == 0
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(3, 10)
        r = rng.randint(2, 3)
        pool = list(combinations(range(n), r))
        edges = rng.sample(pool, min(len(pool), rng.randint(0, 14)))
        h = Hypergraph(n, r, edges)
        assert hyper_matching(h) == brute_hyper_matching(h.edge_masks), h


def test_has_red_complete_r():
    h = complete_r(6, 3)
    assert has_red_complete_r(h, h.edge_masks, 4)
    assert has_red_complete_r(h, [(0, 1, 2)], 3)  # n = r: a single red edge
    assert not has_red_complete_r(h, [], 3)
    # all triples inside {0,1,2,3} except one: no red K_4^(3)
    reds = [e for e in h.edge_tuples() if max(e) <= 3 and e != (1, 2, 3)]
    assert not has_red_complete_r(h, reds, 4)
    with pytest.raises(ValueError):
        has_red_complete_r(h, [(0, 1, 5), (0, 1, 2)], 2)
    with pytest.raises(ValueError):
        has_red_complete_r(h, [(0, 1, 9)], 4)


def test_hypergraph_text_roundtrip():
    h = complete_r(5, 3)
    assert hypergraph_from_text(hypergraph_to_text(h)) == h
    text = hypergraph_to_text(h)
    assert text.splitlines()[0] == "5 3"


def test_hypergraph_text_errors_carry_line_numbers():
    with pytest.raises(HypergraphFormatError) as exc:
        hypergraph_from_text("")
    assert exc.value.line == 1
    with pytest.raises(HypergraphFormatError) as exc:
        hypergraph_from_text("5 3\n0 1 2\n0 1\n")
    assert exc.value.line == 3
    with pytest.raises(HypergraphFormatError) as exc:
        hypergraph_from_text("5 3\n0 1 x\n")
    assert exc.value.line == 2
    with pytest.raises(HypergraphFormatError):
        hypergraph_from_text("5\n0 1 2\n")
    # a repeated edge is named at the line that repeats it
    with pytest.raises(HypergraphFormatError) as exc:
        hypergraph_from_text("4 3\n0 1 2\n1 2 3\n2 1 0\n")
    assert exc.value.line == 4

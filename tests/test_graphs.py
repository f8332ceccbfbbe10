import random
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
from rsize.graphs import _canon_connected, _children, _edge_key, _graph_levels, _refine

from oracles import (
    brute_automorphisms,
    brute_chromatic,
    brute_hyper_matching,
    brute_max_matching,
    is_equitable,
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


def test_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 5)])
    with pytest.raises(CapacityError):
        Graph(65)


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
    # 11,090, against 696 and 772 with all of them kept
    real = _refine
    bipartite = Graph(20, [(u, v) for u in range(10) for v in range(10, 20)])
    for g in (complete(16), bipartite):
        limit = g.n**3 // 4
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
    # 68 and 177 are OEIS A000664
    counts = [sum(1 for _ in enumerate_graphs(m)) for m in (1, 2, 3, 4, 5, 6, 7)]
    assert counts == [1, 2, 5, 11, 26, 68, 177]


def test_enumerate_graphs_count_at_eight_edges():
    assert sum(1 for _ in enumerate_graphs(8)) == 497  # OEIS A000664


def test_connected_level_sizes():
    # the walk grows connected graphs only and assembles the rest; its
    # connected graphs per edge count are OEIS A002905
    connected = [sum(len(graphs._components(g)) == 1 for g in level) for level in _graph_levels(8, None)]
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


def test_enumerate_graphs_vertex_cap():
    # the capped walk yields exactly the uncapped level with n <= cap, in order
    for m in range(1, 7):
        full = list(enumerate_graphs(m))
        for cap in range(2, 9):
            assert list(enumerate_graphs(m, max_vertices=cap)) == [g for g in full if g.n <= cap], (m, cap)
    assert list(enumerate_graphs(3, max_vertices=1)) == []


def test_orbit_pruned_walk_equals_unpruned_walk():
    # the walk canonicalizes one child per orbit of its parent's
    # automorphisms, and only children whose new edge has the largest edge
    # key; the oracle canonicalizes every child
    canon = lambda n, edges: canonical_form(Graph(n, edges))
    for m, cap in ((8, None), *((7, cap) for cap in range(2, 9))):
        want = unpruned_graph_levels(m, cap, canon)
        got = [[(g.n, tuple(g.edges())) for g in level] for level in _graph_levels(m, cap)]
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
    # their components
    calls = []
    real = graphs._canon_connected

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(graphs, "_canon_connected", counting)
    assert [len(level) for level in _graph_levels(7, None)] == [1, 2, 5, 11, 26, 68, 177]
    assert len(calls) == 141
    assert all(len(graphs._components(g)) == 1 for g in calls)


def test_walk_rejects_a_bogus_generator():
    # P_3's four children (K_3, P_4 twice, K_{1,3}) all pass the edge-key
    # filter: a P_4 child's middle edge has a larger key than its new
    # pendant edge, but is a bridge, so not removable.  With the ends
    # swapped as the generator, the prune alone removes one P_4
    path = canonical_form(Graph(3, [(0, 1), (1, 2)]))
    (middle,) = set(path[1][0]) & set(path[1][1])
    end = (middle + 1) % 3
    good = tuple(v if v == middle else 3 - middle - v for v in range(3))
    unpruned = [form for form, _ in _children(path, [], 4)]
    pruned = [form for form, _ in _children(path, [good], 4)]
    assert len(unpruned) == 1 + 3
    assert len(pruned) == len(unpruned) - 1 and set(pruned) == set(unpruned)
    # a middle-end swap is not an automorphism
    bogus = tuple(end if v == middle else middle if v == end else v for v in range(3))
    with pytest.raises(CertificationError):
        list(_children(path, [good, bogus], 5))
    with pytest.raises(CertificationError):  # not a permutation
        list(_children(path, [(0, 0, 1)], 5))


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

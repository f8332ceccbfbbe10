import random
from itertools import combinations

import pytest

import rsize.decolor as D
from oracles import brute_chromatic, brute_max_matching, brute_tightness, exact_decolor_scan
from rsize.arrowing import CertificationError, UndecidedError, arrows_pair, is_good_coloring
from rsize.decolor import (
    DecolorResult,
    HypothesisError,
    check_tightness_remark,
    find_decolor_set,
    find_decolor_set_matching,
    max_potential_coloring,
    satisfies_claim_one,
    witness_good_coloring,
)
from rsize.graphs import (
    Graph,
    VertexColoring,
    canonical_form,
    chromatic_number,
    coloring_from_assignment,
    complete,
    disjoint_union,
    enumerate_graphs,
    is_k_colorable,
    max_matching,
)
from rsize.values import Flavor, g, g_hat

C5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])


def random_graph(rng: random.Random, nv: int, m: int) -> Graph:
    return Graph(nv, rng.sample(list(combinations(range(nv), 2)), m))


def random_sparse(rng: random.Random, limit: int) -> Graph:
    # a graph with strictly fewer than `limit` edges
    nv = rng.randint(1, 12)
    pool = list(combinations(range(nv), 2))
    m = rng.randint(0, min(len(pool), limit - 1))
    return random_graph(rng, nv, m)


# ------------------------------------------------------ potential colorings

def test_max_potential_pinned_shapes():
    assert [m.bit_count() for m in max_potential_coloring(complete(4)).classes] == [1, 1, 1, 1]
    col = max_potential_coloring(disjoint_union([complete(4), complete(2)]))
    assert [m.bit_count() for m in col.classes] == [2, 2, 1, 1]
    assert [m.bit_count() for m in max_potential_coloring(Graph(5)).classes] == [5]
    assert max_potential_coloring(Graph(0)).classes == ()


def test_max_potential_is_chromatic_and_fixed():
    rng = random.Random(61)
    for _ in range(80):
        nv = rng.randint(1, 10)
        pool = list(combinations(range(nv), 2))
        G = random_graph(rng, nv, rng.randint(0, len(pool)))
        col = max_potential_coloring(G)
        assert col.num_colors == chromatic_number(G)
        assert satisfies_claim_one(G, col)


def test_claim_one_detects_a_movable_vertex():
    path = Graph(3, [(0, 1), (1, 2)])
    spread = coloring_from_assignment(path, [0, 1, 2])
    assert not satisfies_claim_one(path, spread)
    assert satisfies_claim_one(path, coloring_from_assignment(path, [0, 1, 0]))


# ----------------------------------------------------------- result objects

def test_decolor_result_validation():
    G = complete(4)
    sub = G.without_vertices([2, 3])
    ok = coloring_from_assignment(sub, [0, 1])
    with pytest.raises(CertificationError):
        DecolorResult(graph=G, n=3, t=2, removed=0b1100, residual_coloring=ok)
    good = DecolorResult(graph=G, n=4, t=2, removed=0b1100, residual_coloring=ok)
    assert good.removed_vertices() == (2, 3) and good.removed_size() == 2
    assert good.method == "heuristic"


# ----------------------------------------------------------- chromatic side

def test_find_decolor_set_examples():
    r = find_decolor_set(complete(4), 4, 2)
    assert r.removed_size() <= 3
    assert is_k_colorable(complete(4).without_vertices(r.removed_vertices()), 2)
    with pytest.raises(HypothesisError):
        find_decolor_set(C5, 3, 1)
    r = find_decolor_set(Graph(4, [(0, 1), (2, 3)]), 3, 2)
    assert r.removed_size() == 2  # one endpoint per edge


def test_find_decolor_set_matching_examples():
    r = find_decolor_set_matching(complete(4), 4, 2)
    assert r.removed_size() <= 4
    assert max_matching(complete(4).induced(r.removed_vertices())) <= 1
    with pytest.raises(HypothesisError):
        find_decolor_set_matching(Graph(4, [(0, 1), (1, 2), (2, 3)]), 3, 1)
    r = find_decolor_set_matching(complete(3), 3, 2)
    assert r.removed_size() == 2
    assert max_matching(complete(3).induced(r.removed_vertices())) == 1


def test_argument_validation():
    with pytest.raises(ValueError):
        find_decolor_set(complete(3), 2, 1)
    with pytest.raises(ValueError):
        find_decolor_set_matching(complete(3), 3, 0)


def test_decolor_is_undecided_past_the_vertex_bound(monkeypatch):
    # the construction's exact searches are exponential in the vertex count,
    # so a host past the bound is refused before any of them runs, and
    # only once the hypothesis holds
    def unsearched(graph):
        raise AssertionError("searched a host past the bound")

    monkeypatch.setattr(D, "max_potential_coloring", unsearched)
    big = complete(D.DECOLOR_MAX_VERTICES + 1)
    for n in (3, 4):
        for find in (find_decolor_set, find_decolor_set_matching, witness_good_coloring):
            with pytest.raises(UndecidedError, match="capped"):
                find(big, n, 200)
    with pytest.raises(HypothesisError):
        find_decolor_set(big, 4, 1)
    monkeypatch.undo()
    k = D.DECOLOR_MAX_VERTICES
    cycle = Graph(k, [(v, (v + 1) % k) for v in range(k)])
    for find in (find_decolor_set, find_decolor_set_matching):
        assert find(cycle, 4, 12).residual_coloring.num_colors <= 2


def test_exact_scan_oracle_is_deterministic_smallest_first():
    k4 = complete(4).edges()
    assert exact_decolor_scan(4, k4, 4, 3) == (0, 1)  # first size-2 subset in order
    assert exact_decolor_scan(4, k4, 4, 4, 1) == (0, 1)
    assert exact_decolor_scan(5, complete(5).edges(), 4, 0) is None  # nothing of size 0 works


def test_a_missed_matching_bound_is_a_certification_error(monkeypatch):
    path = Graph(3, [(0, 1), (1, 2)])
    # all-singleton classes are proper, but the ones past class 0 span the
    # edge (1, 2): beyond t-1 = 0
    monkeypatch.setattr(D, "max_potential_coloring", lambda graph: VertexColoring(range(graph.n)))
    with pytest.raises(CertificationError):
        find_decolor_set_matching(path, 3, 1)


# ------------------------------------------- the lemma on every small graph

def _construction_meets_the_lemma(m):
    """Every graph with m edges under each hypothesis, n 3..6, t 1..3.

    The exact scan confirms that a qualifying set exists, and the
    construction must return one, checked with the brute-force oracles.
    """
    checked = 0
    for G in enumerate_graphs(m):
        edges = G.edges()
        for n in range(3, 7):
            for t in range(1, 4):
                for matching, bound in ((False, g_hat(n, t).value), (True, g(n, t).value)):
                    if m >= bound:
                        continue
                    cap = (2 * t if n >= 4 else G.n) if matching else 2 * t - 1
                    nu = t - 1 if matching else None
                    assert exact_decolor_scan(G.n, edges, n, cap, nu) is not None, (m, n, t, edges)
                    find = find_decolor_set_matching if matching else find_decolor_set
                    r = find(G, n, t)
                    removed = set(r.removed_vertices())
                    kept = [v for v in range(G.n) if v not in removed]
                    index = {v: i for i, v in enumerate(kept)}
                    rest = [(index[u], index[v]) for u, v in edges if u in index and v in index]
                    assert r.removed_size() <= cap
                    assert brute_chromatic(len(kept), rest) <= n - 2
                    if matching:
                        inside = [e for e in edges if set(e) <= removed]
                        assert brute_max_matching(G.n, inside) <= t - 1
                    checked += 1
    return checked


@pytest.mark.parametrize("m", range(7))
def test_construction_meets_the_lemma_on_every_small_graph(m):
    assert _construction_meets_the_lemma(m) > 0


@pytest.mark.slow
@pytest.mark.parametrize("m", (7, 8))
def test_construction_meets_the_lemma_on_every_graph_slow(m):
    assert _construction_meets_the_lemma(m) > 0


# -------------------------------------------------------------- random suite

def test_random_hypothesis_suite():
    rng = random.Random(67)
    hits = 0
    while hits < 120:
        n = rng.choice([3, 4, 5])
        t = rng.choice([1, 2, 3])
        G = random_sparse(rng, g_hat(n, t).value)
        if G.edge_count() >= g_hat(n, t).value:
            continue
        r = find_decolor_set(G, n, t)
        assert r.removed_size() <= 2 * t - 1
        assert r.residual_coloring.num_colors <= n - 2
        hits += 1


def test_random_matching_suite_with_cross_module_check():
    rng = random.Random(71)
    hits = 0
    while hits < 120:
        n = rng.choice([3, 4, 5])
        t = rng.choice([1, 2, 3])
        G = random_sparse(rng, g(n, t).value)
        if G.edge_count() >= g(n, t).value:
            continue
        r = find_decolor_set_matching(G, n, t)
        assert max_matching(G.induced(r.removed_vertices())) <= t - 1
        if n >= 4:
            assert r.removed_size() <= 2 * t
        w = witness_good_coloring(G, n, t)
        assert is_good_coloring(w, n, t)
        if G.edge_count() <= 14:
            # the witness proves non-arrowing; the search must agree
            assert not arrows_pair(G, n, t).arrows
        hits += 1


# ------------------------------------------------------------------ witness

def test_witness_pinned_cases():
    w = witness_good_coloring(complete(4), 4, 2)
    assert len(w.blue_edges()) == 1
    w = witness_good_coloring(Graph(4, [(0, 1), (2, 3)]), 3, 2)
    assert len(w.blue_edges()) <= 1
    k5e = Graph(5, [e for e in combinations(range(5), 2) if e != (3, 4)])
    w = witness_good_coloring(k5e, 5, 1)
    assert w.blue_edges() == []
    assert is_good_coloring(w, 5, 1)


def test_witness_respects_hypothesis():
    with pytest.raises(HypothesisError):
        witness_good_coloring(complete(5), 3, 2)  # 10 >= g(3,2) = 6


# ---------------------------------------------------------------- tightness

def test_tightness_remark_pinned():
    assert check_tightness_remark(3, 1, Flavor.GHAT)
    assert check_tightness_remark(4, 1, Flavor.GHAT)
    assert check_tightness_remark(4, 2, Flavor.G)


def test_tightness_remark_more_small_cases():
    assert check_tightness_remark(3, 1, Flavor.G)
    assert check_tightness_remark(3, 2, Flavor.G)
    assert check_tightness_remark(4, 2, Flavor.GHAT)
    assert check_tightness_remark(5, 1, Flavor.G)


def test_tightness_remark_agrees_with_the_full_subset_scan():
    for n in (3, 4, 5):
        for t in (1, 2):
            for flavor in (Flavor.G, Flavor.GHAT):
                want = brute_tightness(n, t, flavor is Flavor.GHAT)
                assert check_tightness_remark(n, t, flavor) is want, (n, t, flavor)


def test_twin_prefixes_stand_for_every_subset():
    # swapping twins is an automorphism, so every vertex set S has a
    # twin-prefix set T with G - S isomorphic to G - T and G[S] to G[T];
    # two cliques laid over each random graph make twin classes
    rng = random.Random(31)
    hosts = []
    for _ in range(30):
        nv = rng.randint(1, 8)
        edges = set(rng.sample(list(combinations(range(nv), 2)), rng.randint(0, nv * (nv - 1) // 2)))
        for clique in (rng.sample(range(nv), rng.randint(1, nv)) for _ in range(2)):
            edges.update(combinations(sorted(clique), 2))
        hosts.append(Graph(nv, edges))
    hosts += [disjoint_union([complete(3), complete(4)]), Graph(4, [(0, 1), (0, 2), (0, 3)])]
    for G in hosts:
        for k in range(G.n + 1):
            forms = set()
            for S in D._twin_prefixes(G, k):
                assert len(S) == k
                forms.add((canonical_form(G.without_vertices(S)), canonical_form(G.induced(S))))
            for S in combinations(range(G.n), k):
                pair = canonical_form(G.without_vertices(S)), canonical_form(G.induced(S))
                assert pair in forms, (G, S)


def test_tightness_remark_limits():
    with pytest.raises(UndecidedError):
        check_tightness_remark(6, 1, Flavor.GHAT)
    with pytest.raises(UndecidedError):
        check_tightness_remark(4, 3, Flavor.G)
    with pytest.raises(ValueError):
        check_tightness_remark(4, 1, Flavor.GR)

import os
import random
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rsize
import rsize.arrowing

from rsize.arrowing import (
    ArrowVerdict,
    BUDGET_ENV_VAR,
    CertificationError,
    EdgeColoring,
    UndecidedError,
    _cliques_of_graph,
    _cliques_of_hypergraph,
    arrows_hyper,
    arrows_pair,
    is_good_coloring,
    lower_bound_coloring,
    lower_bound_coloring_hyper,
    matching_numbers,
    min_size_ramsey_bruteforce,
    verify_graph_ramsey,
    verify_hyper_ramsey,
)
from rsize.errors import CapacityError, RequestError
from rsize.graphs import (
    Graph,
    Hypergraph,
    _graph_levels,
    _twin_classes,
    complete,
    complete_r,
    disjoint_union,
    hyper_matching,
    max_matching,
)
from rsize.values import g, iter_partitions

from oracles import brute_good_coloring, window_cliques


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this checkout's rsize."""
    src = str(Path(rsize.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=60, env=env)


def random_graph(rng: random.Random, n: int, m: int) -> Graph:
    return Graph(n, rng.sample(list(combinations(range(n), 2)), m))


# ---------------------------------------------------------------- colorings

def test_edge_coloring_splits_edges():
    host = complete(3)
    col = EdgeColoring(host, 0b101)
    assert col.blue_edges() == [(0, 1), (1, 2)]
    assert col.red_edges() == [(0, 2)]
    with pytest.raises(ValueError):
        EdgeColoring(host, 1 << 3)
    with pytest.raises(ValueError):
        EdgeColoring(host, -1)


def test_is_good_coloring():
    host = complete(4)
    # blue star at vertex 0 leaves the red triangle {1,2,3}
    star = sum(1 << i for i, (u, v) in enumerate(host.edges()) if u == 0)
    assert not is_good_coloring(EdgeColoring(host, star), 3, 2)
    # blue triangle {0,1,2}: red is a star at 3, matching of blue is 1
    tri = sum(1 << i for i, (u, v) in enumerate(host.edges()) if u < 3 and v < 3)
    assert is_good_coloring(EdgeColoring(host, tri), 3, 2)
    assert not is_good_coloring(EdgeColoring(host, tri), 3, 1)


def test_is_good_coloring_matches_the_oracle():
    # the re-verifier splits the host's edge list by the blue bit and hands
    # each side to a standalone solver; the oracle judges the same coloring
    # from edge tuples, window enumeration and subset matchings
    rng = random.Random(71)
    for r, container in ((2, Graph), (3, Hypergraph), (2, Hypergraph)):
        seen = set()
        for _ in range(300):
            vertices = rng.randint(0, 9) if container is Graph else rng.randint(r, 8)
            pool = list(combinations(range(vertices), r))
            chosen = rng.sample(pool, rng.randint(0, len(pool)))
            host = Graph(vertices, chosen) if container is Graph else Hypergraph(vertices, r, chosen)
            tuples = host.edges() if container is Graph else host.edge_tuples()
            blue = rng.getrandbits(len(tuples)) if tuples else 0
            n, t = rng.randint(r, r + 2), rng.randint(1, 3)
            good = is_good_coloring(EdgeColoring(host, blue), n, t)
            assert good == brute_good_coloring(vertices, r, tuples, blue, n, t), (host, blue, n, t)
            red = [sum(1 << v for v in e) for i, e in enumerate(tuples) if not blue >> i & 1]
            seen.add("good" if good else "red" if window_cliques(vertices, r, red, n) else "blue")
        assert seen == {"good", "red", "blue"}, (r, container)


def test_verdict_reverifies_counterexample():
    host = complete(4)
    star = sum(1 << i for i, (u, v) in enumerate(host.edges()) if u == 0)
    with pytest.raises(CertificationError):
        ArrowVerdict(
            counterexample=EdgeColoring(host, star),
            n=3,
            t=2,
            mode="naive",
            nodes=1,
        )


# ------------------------------------------------------- matching-number DP

def test_matching_numbers_against_solver():
    rng = random.Random(41)
    for _ in range(40):
        nv = rng.randint(2, 8)
        pool = list(combinations(range(nv), 2))
        m = rng.randint(1, min(9, len(pool)))
        edges = rng.sample(pool, m)
        masks = [(1 << u) | (1 << v) for u, v in edges]
        nu = matching_numbers(masks)
        assert nu[(1 << m) - 1] == max_matching(Graph(nv, edges))
        for _ in range(20):
            sub = rng.randrange(1 << m)
            chosen = [edges[i] for i in range(m) if sub >> i & 1]
            assert nu[sub] == max_matching(Graph(nv, chosen)), (edges, sub)


def test_matching_numbers_on_hyperedges():
    h = complete_r(6, 3)
    nu = matching_numbers(h.edge_masks)
    assert nu[(1 << h.edge_count()) - 1] == hyper_matching(h) == 2


# ------------------------------------------------------------ pinned arrows

def test_single_edge_targets_arrow():
    for k in (2, 3, 4, 5):
        assert arrows_pair(complete(k), k, 1).arrows


def test_two_triangles_arrow_for_two_matchings():
    host = disjoint_union([complete(3), complete(3)])
    v = arrows_pair(host, 3, 2, search="naive")
    assert v.arrows and v.mode == "naive"
    # auto sends every graph host to the structural search
    v = arrows_pair(host, 3, 2)
    assert v.arrows and v.mode == "structural"


def test_k4_fails_and_counterexample_is_checked():
    v = arrows_pair(complete(4), 3, 2)
    assert not v.arrows
    # the structural search merges 0 with 1 and then 2 into one part, so
    # its blue set is the triangle on {0,1,2}
    assert v.counterexample.blue_edges() == [(0, 1), (0, 2), (1, 2)]
    assert is_good_coloring(v.counterexample, 3, 2)


def test_k5_arrows_triangle_two_matching():
    assert arrows_pair(complete(5), 3, 2).arrows


def test_hyper_pinned_cases():
    v = arrows_hyper(complete_r(6, 3), 3, 2)
    # auto never builds the 2^m table: hypergraphs go to the reduced DFS
    assert v.arrows and v.mode == "reduced"
    v = arrows_hyper(complete_r(5, 3), 3, 2)
    assert not v.arrows
    assert arrows_hyper(complete_r(4, 3), 4, 1).arrows
    # a 2-uniform host is a graph: K_8 as a hypergraph takes the structural
    # search, where the reduced DFS needs 2,778 nodes.  K_8 is one twin
    # class, so S runs through {}, {0}, {0,1} and the merge memo sees one
    # state per multiset of part sizes: 8 structures
    v = arrows_hyper(complete_r(8, 2), 4, 3)
    assert (v.arrows, v.mode, v.nodes) == (True, "structural", 8)
    # 36 edges: past the graph budget of 28, inside the hypergraph one
    v = arrows_hyper(complete_r(9, 2), 3, 1)
    assert v.arrows and v.mode == "structural"


def test_root_merge_reuses_the_packing_of_choose(monkeypatch):
    # each set S is bounded by the packing of its live cliques before its
    # merge search starts, whose root would compute the same packing again.
    # On K_8 with (4,3), 3 sets S are packed once each (parts empty) and 2
    # of them pass and start a merge; the other 6 calls come from merges
    # below the root.  Computing the root's packing again made 11 calls
    real = rsize.arrowing._odd_packing
    calls = []

    def counting(live, parts):
        calls.append(parts)
        return real(live, parts)

    monkeypatch.setattr(rsize.arrowing, "_odd_packing", counting)
    v = arrows_pair(complete(8), 4, 3)
    assert (v.arrows, v.mode, v.nodes) == (True, "structural", 8)
    assert len(calls) == 11 - 2
    assert sum(1 for parts in calls if not parts) == 3


def test_twin_classes_are_listed_only_when_a_search_needs_them(monkeypatch):
    # a root decided by the packing bound and a host with no window need
    # no memo key and grow no S, so they never list the twin classes; a
    # search that merges lists them once
    real = rsize.arrowing._twin_classes
    calls = []

    def counting(graph):
        calls.append(graph)
        return real(graph)

    monkeypatch.setattr(rsize.arrowing, "_twin_classes", counting)
    # two disjoint triangles pack 2 > t-1 = 1 cliques that each need a merge
    v = arrows_pair(disjoint_union([complete(3), complete(3)]), 3, 2)
    assert (v.arrows, v.mode, v.nodes) == (True, "structural", 0)
    v = arrows_pair(Graph(4, [(0, 1), (1, 2), (2, 3)]), 3, 1)
    assert (v.arrows, v.mode, v.nodes) == (False, "structural", 1)
    assert calls == []
    v = arrows_pair(complete(8), 4, 3)
    assert (v.arrows, v.nodes) == (True, 8)
    assert len(calls) == 1


def test_frankl_phase_refutes_below_the_hyper_threshold():
    # K_7^3 with (5,2), one vertex below R(K_5^3, 2K_3^3) = 8: the reduced
    # DFS needs 44 nodes; the phase fails at i = 1 and i = 2, and at
    # i = 3 takes X = {0..4}, a five-vertex B as in the lower-bound coloring
    v = arrows_hyper(complete_r(7, 3), 5, 2)
    assert (v.arrows, v.mode, v.nodes) == (False, "frankl", 48)
    assert v.counterexample.blue_edges() == list(combinations(range(5), 3))
    # an arrowing host goes through the reduced DFS; the count holds the
    # three sets the phase entered and the two DFS branches left after
    # the dead-window prune
    v = arrows_hyper(complete_r(6, 3), 3, 2)
    assert (v.arrows, v.mode, v.nodes) == (True, "reduced", 5)


def test_hostless_targets_fail_immediately():
    # no n-clique at all: the all-red coloring is already good
    v = arrows_pair(Graph(3, [(0, 1)]), 3, 1)
    assert not v.arrows and v.counterexample.blue_edges() == []
    v = arrows_hyper(Hypergraph(4, 3, [(0, 1, 2)]), 4, 1)
    assert not v.arrows


# ------------------------------------------------------- search equivalence

def test_reduced_equals_naive_on_random_hosts():
    rng = random.Random(43)
    for _ in range(60):
        nv = rng.randint(2, 10)
        pool = list(combinations(range(nv), 2))
        m = rng.randint(1, min(14, len(pool)))
        host = Graph(nv, rng.sample(pool, m))
        for n in (2, 3, 4, 5):
            for t in (1, 2, 3):
                a = arrows_pair(host, n, t, search="naive")
                b = arrows_pair(host, n, t, search="reduced")
                assert a.arrows == b.arrows, (host, n, t)


def test_reduced_equals_naive_on_random_hypergraphs():
    rng = random.Random(47)
    for _ in range(30):
        nv = rng.randint(3, 8)
        pool = list(combinations(range(nv), 3))
        m = rng.randint(1, min(12, len(pool)))
        host = Hypergraph(nv, 3, rng.sample(pool, m))
        for n in (3, 4):
            for t in (1, 2):
                a = arrows_hyper(host, n, t, search="naive")
                b = arrows_hyper(host, n, t, search="reduced")
                assert a.arrows == b.arrows, (host, n, t)


def test_frankl_phase_agrees_with_naive_and_reduced():
    rng = random.Random(61)
    frankl = 0
    for _ in range(40):
        r = rng.choice((3, 4))
        nv = rng.randint(r + 1, 8)
        pool = list(combinations(range(nv), r))
        host = Hypergraph(nv, r, rng.sample(pool, rng.randint(1, min(16, len(pool)))))
        for n in (r, r + 1, r + 2):
            for t in (1, 2, 3):
                auto = arrows_hyper(host, n, t)
                naive = arrows_hyper(host, n, t, search="naive")
                reduced = arrows_hyper(host, n, t, search="reduced")
                assert auto.arrows == naive.arrows == reduced.arrows, (host, n, t)
                # an explicit search is a pure cross-check: no phase runs
                assert (naive.mode, reduced.mode) == ("naive", "reduced")
                assert auto.mode in ("frankl", "reduced")
                frankl += auto.mode == "frankl"
    # the phase answers over a hundred of the 360 cases, so the check has teeth
    assert frankl > 100


@st.composite
def small_graphs(draw) -> Graph:
    nv = draw(st.integers(1, 9))
    pairs = draw(st.lists(st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1)), max_size=14))
    return Graph(nv, {(min(e), max(e)) for e in pairs if e[0] != e[1]})


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(host=small_graphs(), n=st.integers(2, 5), t=st.integers(1, 4))
def test_structural_agrees_with_naive_and_reduced(host, n, t):
    verdicts = [arrows_pair(host, n, t, search=mode) for mode in ("auto", "naive", "reduced")]
    assert verdicts[0].mode == "structural"
    # the same edges as a 2-uniform hypergraph take the same path under auto
    as_hyper = Hypergraph(host.n, 2, host.edges())
    same = arrows_hyper(as_hyper, n, t)
    verdicts += [same, arrows_hyper(as_hyper, n, t, search="reduced")]
    assert _outcome(same) == _outcome(verdicts[0]), (host, n, t)
    assert len({v.arrows for v in verdicts}) == 1, (host, n, t)


def _outcome(v: ArrowVerdict) -> tuple:
    blue = None if v.counterexample is None else v.counterexample.blue
    return v.arrows, v.mode, v.nodes, blue


def test_structural_equals_reduced_on_denser_hosts():
    # dense enough that the merge search must back out of failed branches
    rng = random.Random(59)
    for _ in range(40):
        nv = rng.randint(6, 9)
        host = random_graph(rng, nv, rng.randint(15, min(20, nv * (nv - 1) // 2)))
        for n in (3, 4):
            for t in (2, 3):
                a = arrows_pair(host, n, t, search="reduced")
                b = arrows_pair(host, n, t)
                assert (a.arrows, b.mode) == (b.arrows, "structural"), (host, n, t)


def twin_rich_host(rng: random.Random) -> Graph:
    """A host of at most 28 edges made mostly of twins, randomly relabelled.

    Twins are vertices with equal closed neighbourhoods.  The hosts are
    unions of cliques (sometimes with a few edges between them), blow-ups
    of a small graph with every vertex replaced by a clique, and complete
    multipartite graphs, whose singleton parts are twins of each other.
    The relabelling scatters each twin class over the vertex order.
    """
    while True:
        kind = rng.choice(("cliques", "blow-up", "multipartite"))
        if kind == "cliques":
            host = disjoint_union([complete(rng.randint(1, 6)) for _ in range(rng.randint(1, 4))])
            edges = host.edges()
            if rng.random() < 0.5:
                missing = [e for e in combinations(range(host.n), 2) if e not in edges]
                edges += rng.sample(missing, min(len(missing), rng.randint(1, 3)))
        elif kind == "blow-up":
            k = rng.randint(2, 4)
            base = Graph(k, [e for e in combinations(range(k), 2) if rng.random() < 0.6])
            blocks, start = [], 0
            for _ in range(base.n):
                size = rng.randint(1, 4)
                blocks.append(range(start, start + size))
                start += size
            edges = [e for b in blocks for e in combinations(b, 2)]
            edges += [(u, v) for a, b in base.edges() for u in blocks[a] for v in blocks[b]]
            host = Graph(start)
        else:
            sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 5))]
            part = [i for i, size in enumerate(sizes) for _ in range(size)]
            host = Graph(len(part))
            edges = [(u, v) for u, v in combinations(range(len(part)), 2) if part[u] != part[v]]
        if len(edges) <= 28:
            break
    perm = list(range(host.n))
    rng.shuffle(perm)
    return Graph(host.n, [(perm[u], perm[v]) for u, v in edges])


def test_structural_equals_reduced_on_twin_rich_hosts():
    # the structural search takes S as a prefix of each twin class and
    # keys its merge memo up to twin relabelling; both prunes must keep
    # every verdict, including on hosts whose classes are not contiguous
    rng = random.Random(67)
    twins = 0
    for _ in range(60):
        host = twin_rich_host(rng)
        twins += any(c & (c - 1) for c in _twin_classes(host))
        m = host.edge_count()
        for n in (2, 3, 4, 5):
            for t in (1, 2, 3, 4):
                auto = arrows_pair(host, n, t)
                modes = ("reduced", "naive") if m <= 16 else ("reduced",)
                others = [arrows_pair(host, n, t, search=mode) for mode in modes]
                assert auto.mode == "structural"
                assert {auto.arrows} == {v.arrows for v in others}, (host, n, t)
                for v in [auto, *others]:
                    # the verdict re-verified it on build; check it once more here
                    assert v.arrows or is_good_coloring(v.counterexample, n, t)
    # most hosts have a twin class of two or more vertices
    assert twins >= 40


def test_structural_decides_many_disjoint_triangles():
    # nine triangles pack nine vertex-disjoint cliques, each needing its own
    # blue edge, so a blue matching of nine is forced and ten is not; the
    # packing bound alone decides (3, 9), and the refutation of (3, 10)
    # enters one structure per merge plus the root (the reduced DFS grows
    # about tenfold per triangle)
    host = disjoint_union([complete(3)] * 9)
    for t, arrows, nodes in ((9, True, 0), (10, False, 10)):
        start = time.perf_counter()
        v = arrows_pair(host, 3, t)
        assert (v.arrows, v.mode, v.nodes) == (arrows, "structural", nodes)
        # a backstop against runaway runs, not a timing assertion
        assert time.perf_counter() - start < 30.0


def test_many_path_components_are_matched_and_refuted(monkeypatch):
    # twelve 3-edge paths under shuffled labels: matching number 24, and a
    # blue set inside every path is a good coloring for t = 25.  One
    # matching search over all components at once memoises a product of
    # per-path subset counts; per component it is a sum.
    monkeypatch.setenv(BUDGET_ENV_VAR, "40")
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    union = disjoint_union([path] * 12)
    perm = list(range(union.n))
    random.Random(3).shuffle(perm)
    host = Graph(union.n, [(perm[u], perm[v]) for u, v in union.edges()])
    assert max_matching(host) == 24
    v = arrows_pair(host, 2, 25)
    assert not v.arrows and v.mode == "structural"
    assert is_good_coloring(v.counterexample, 2, 25)


def test_structural_decides_the_k9_threshold(monkeypatch):
    # R(K_5, 3K_2) = 9: 36 and 28 edges, beyond the reach of the table
    monkeypatch.setenv(BUDGET_ENV_VAR, "40")
    assert arrows_pair(complete(9), 5, 3).arrows
    v = arrows_pair(complete(8), 5, 3)
    assert not v.arrows and v.mode == "structural"


def test_jobs_do_not_change_the_result():
    # every search is sequential; arrows_pair still takes jobs and ignores it
    for host, n, t, search in (
        (complete(7), 4, 3, "auto"),
        (complete(8), 4, 3, "auto"),
        (complete(8), 5, 3, "auto"),
        (complete(7), 3, 3, "reduced"),
    ):
        base = arrows_pair(host, n, t, search=search, jobs=1)
        par = arrows_pair(host, n, t, search=search, jobs=2)
        assert base == par, (host, n, t, search)


@pytest.mark.parametrize(
    "host, n, t, arrows, nodes, blue",
    [
        (complete(8), 5, 3, False, 32, 0x4638F),
        (complete(8), 4, 3, True, 2778, None),
        (complete(7), 3, 3, True, 254, None),
        (complete_r(7, 3), 4, 2, True, 28, None),
        (complete_r(6, 3), 4, 2, False, 26, 0x12CB7),
        (complete_r(5, 3), 3, 2, False, 10, 0x3FF),
    ],
    ids=["K8-5-3", "K8-4-3", "K7-3-3", "K7r3-4-2", "K6r3-4-2", "K5r3-3-2"],
)
def test_reduced_search_is_pinned(host, n, t, arrows, nodes, blue):
    # branch order, the node units and the prunes all show up in these
    # figures; the dead-window prune holds K8-4-3 and K7r3-4-2, which
    # arrow, to a few thousand nodes (192,128 and 652,844 without it)
    decide = arrows_pair if isinstance(host, Graph) else arrows_hyper
    v = decide(host, n, t, search="reduced")
    assert (v.arrows, v.mode, v.nodes) == (arrows, "reduced", nodes)
    assert (None if v.counterexample is None else v.counterexample.blue) == blue


def test_graph_cliques_come_in_window_order():
    # the structural search walks the cliques in the order listed, so the
    # size-pruned listing must keep the window enumeration's order
    rng = random.Random(59)
    for _ in range(80):
        nv = rng.randint(0, 10)
        pool = list(combinations(range(nv), 2))
        host = Graph(nv, rng.sample(pool, rng.randint(0, len(pool))))
        masks = [1 << u | 1 << v for u, v in host.edges()]
        for k in range(nv + 2):
            assert _cliques_of_graph(host, k) == window_cliques(nv, 2, masks, k), (host, k)


def test_hypergraph_cliques_match_window_enumeration():
    rng = random.Random(53)
    for _ in range(60):
        nv = rng.randint(3, 9)
        pool = list(combinations(range(nv), 3))
        host = Hypergraph(nv, 3, rng.sample(pool, rng.randint(1, len(pool))))
        for n in range(3, nv + 1):
            want = window_cliques(host.n, 3, host.edge_masks, n)
            assert _cliques_of_hypergraph(host, n) == want, (host.edge_tuples(), n)


def test_certification_survives_optimized_mode():
    # asserts vanish under -O; a forced-bad certificate must still raise
    script = (
        "import rsize.arrowing as A, rsize.decolor as D\n"
        "from rsize.graphs import Graph, VertexColoring, complete, complete_r\n"
        "def outcome(call):\n"
        "    try:\n"
        "        call()\n"
        "    except A.CertificationError:\n"
        "        return 'raised'\n"
        "    return 'returned'\n"
        "good = A.is_good_coloring\n"
        "A.is_good_coloring = lambda *args: False\n"
        "print(outcome(lambda: A.lower_bound_coloring(3, 2)))\n"
        "print(outcome(lambda: D.witness_good_coloring(complete(3), 4, 1)))\n"
        "A.is_good_coloring = good\n"
        "A._frankl_blue = lambda *args: 0\n"
        "print(outcome(lambda: A.arrows_hyper(complete_r(7, 3), 5, 2)))\n"
        "claim = D.satisfies_claim_one\n"
        "D.satisfies_claim_one = lambda *args: False\n"
        "print(outcome(lambda: D.max_potential_coloring(complete(3))))\n"
        # restored, so only _decolor's own size check can raise: singletons
        # put vertices 1 and 2 past class 0, beyond 2t-1 = 1
        "D.satisfies_claim_one = claim\n"
        "D.max_potential_coloring = lambda g: VertexColoring(range(g.n))\n"
        "print(outcome(lambda: D.find_decolor_set(Graph(3, [(0, 1)]), 3, 1)))\n"
        "A._run_structural = lambda *args: (0, 0)\n"
        "print(outcome(lambda: A.arrows_pair(complete(4), 3, 2)))\n"
        "print(outcome(lambda: A.arrows_hyper(complete_r(4, 2), 3, 2)))\n"
        # the labeling's twin-swap check: P_3's centre and an end are no twins
        "import rsize.graphs as G\n"
        "twins = G._twin_classes\n"
        "G._twin_classes = lambda g: [0b011, 0b100]\n"
        "print(outcome(lambda: G.canonical_form(Graph(3, [(0, 1), (1, 2)]))))\n"
        # the same check on open twins, read from the complement, whose one edge joins the ends
        "G._twin_classes = lambda g: [0b011, 0b100] if g.edge_count() == 1 else twins(g)\n"
        "print(outcome(lambda: G.canonical_form(Graph(3, [(0, 1), (1, 2)]))))\n"
        "G._twin_classes = twins\n"
        # the walk's one generator check: a rotation is no automorphism of P_3
        "real = G._canon_connected\n"
        "def forged(g):\n"
        "    edges, gens = real(g)\n"
        "    return edges, gens + [tuple(range(1, g.n)) + (0,)]\n"
        "G._canon_connected = forged\n"
        "print(outcome(lambda: list(G.enumerate_graphs(4))))\n"
    )
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised"] * 10


def test_import_leaves_the_process_pool_unloaded():
    proc = run_python("-c", "import sys, rsize.cli; print('concurrent.futures' in sys.modules)")
    assert proc.stdout.strip() == "False", proc.stderr


# ----------------------------------------------------- clique constructions

def test_disjoint_clique_constructions_arrow():
    # unions of K_{n+2s-2} over any parts summing to >= t always arrow
    for n in (3, 4):
        for t in (1, 2, 3):
            hosts = []
            for total in range(t, 9):
                for parts in iter_partitions(total, total):
                    edges = sum((n + 2 * s - 2) * (n + 2 * s - 3) // 2 for s in parts)
                    if edges <= 24:
                        hosts.append(parts)
            for parts in hosts:
                host = disjoint_union([complete(n + 2 * s - 2) for s in parts])
                assert arrows_pair(host, n, t).arrows, (n, t, parts)


# --------------------------------------------------------------- lower side

def test_lower_bound_coloring_examples():
    col = lower_bound_coloring(3, 2)
    assert col.host.n == 4
    assert col.blue_edges() == [(1, 2), (1, 3), (2, 3)]
    col = lower_bound_coloring(4, 1)
    assert col.host.n == 3 and col.blue_edges() == []
    col = lower_bound_coloring(2, 3)
    assert col.host.n == 5 and col.red_edges() == []
    assert is_good_coloring(col, 2, 3)


def test_lower_bound_coloring_grid_is_good():
    for n in range(2, 8):
        for t in range(1, 5):
            assert is_good_coloring(lower_bound_coloring(n, t), n, t)


def test_hyper_lower_bound_coloring():
    col = lower_bound_coloring_hyper(3, 3, 2)
    assert col.host.n == 5 and col.red_edges() == []
    assert is_good_coloring(col, 3, 2)
    col = lower_bound_coloring_hyper(4, 3, 2)
    assert col.host.n == 6
    assert is_good_coloring(col, 4, 2)
    # degenerate: single-edge target leaves a host below the uniformity
    col = lower_bound_coloring_hyper(3, 3, 1)
    assert col.host.n == 2 and col.host.edge_count() == 0


# -------------------------------------------------------------- end-to-end

def test_verify_graph_ramsey_small():
    for n, t in [(2, 1), (2, 2), (2, 3), (3, 2), (4, 1), (4, 2), (5, 1), (3, 3)]:
        assert verify_graph_ramsey(n, t), (n, t)


def test_verify_graph_ramsey_up_to_sixteen_vertices(monkeypatch):
    # every (n, t) with n+2t-2 <= 16, 64 pairs: K_{n+2t-2} arrows and
    # K_{n+2t-3} does not.  Complete hosts are one twin class, so S runs
    # through prefixes {0..s-1} and the merge memo keys parts by size
    monkeypatch.setenv(BUDGET_ENV_VAR, "120")
    pairs = [(n, t) for t in range(1, 9) for n in range(2, 19 - 2 * t)]
    assert len(pairs) == 64
    start = time.perf_counter()
    for n, t in pairs:
        assert verify_graph_ramsey(n, t), (n, t)
        v = arrows_pair(complete(n + 2 * t - 3), n, t)
        assert not v.arrows and is_good_coloring(v.counterexample, n, t), (n, t)
    # a backstop against runaway runs, not a timing assertion
    assert time.perf_counter() - start < 60.0
    assert arrows_pair(complete(12), 4, 5).nodes == 46
    assert arrows_pair(complete(14), 4, 6).nodes == 87


def test_verify_hyper_ramsey_naive_case():
    assert verify_hyper_ramsey(3, 3, 2)


def test_verify_hyper_ramsey_single_edge_targets():
    for r in (2, 3, 4):
        assert verify_hyper_ramsey(r, r, 1)


@pytest.mark.slow
def test_verify_hyper_ramsey_reduced_case():
    assert verify_hyper_ramsey(4, 3, 2)


def test_verify_hyper_ramsey_refuses_an_over_budget_host_unbuilt(monkeypatch):
    # K_22^11 has C(22,11) = 705,432 edges, and building it took seconds
    # before the budget refused it
    def unbuilt(k, r):
        raise AssertionError(f"built complete_r({k}, {r})")

    monkeypatch.setattr(rsize.arrowing, "complete_r", unbuilt)
    with pytest.raises(UndecidedError, match="705432 edges"):
        verify_hyper_ramsey(11, 11, 2)
    with pytest.raises(RequestError, match="search must be"):
        verify_hyper_ramsey(11, 11, 2, search="fast")
    monkeypatch.undo()
    # 34 vertices is past the hypergraph capacity, a bad request as before
    with pytest.raises(CapacityError):
        verify_hyper_ramsey(30, 2, 3)


def test_min_size_bruteforce_matches_formula():
    assert min_size_ramsey_bruteforce(2, 2, 4) == 2 == g(2, 2).value
    assert min_size_ramsey_bruteforce(3, 1, 4) == 3 == g(3, 1).value
    assert min_size_ramsey_bruteforce(3, 2, 6) == 6 == g(3, 2).value
    assert min_size_ramsey_bruteforce(3, 3, 4) is None  # g(3,3) = 9 > 4


@pytest.mark.parametrize(
    "n, t, m_max, max_vertices, expected",
    [
        (2, 1, 1, None, 1),
        (2, 3, 5, None, 3),
        (2, 4, 7, None, 4),
        (4, 1, 6, None, 6),
        (3, 2, 5, None, None),  # g(3,2) = 6
        (3, 1, 4, 3, 3),  # the triangle fits the cap
        (3, 1, 4, 2, None),  # no triangle on two vertices
        (2, 3, 5, 6, 3),  # 3K_2 needs six vertices
        (2, 3, 5, 5, None),
        (3, 2, 6, 6, 6),  # 2K_3 needs six vertices
        (3, 2, 6, 5, None),  # K_5 (10 edges) is past m_max
        # m_max = 8 under vertex caps 2..6 and none
        *(
            (n, t, 8, cap, want)
            for (n, t), wants in (
                ((2, 3), (None,) * 4 + (3, 3)),
                ((3, 2), (None,) * 4 + (6, 6)),
                ((4, 1), (None,) * 2 + (6,) * 4),
            )
            for cap, want in zip((2, 3, 4, 5, 6, None), wants)
        ),
    ],
)
def test_min_size_bruteforce_grid(n, t, m_max, max_vertices, expected, monkeypatch):
    # a level's forms are filtered by the cap before any is built, and no
    # graph is built past the first arrowing level
    built = []
    real = rsize.arrowing._form_graph

    def recording(form):
        built.append(form)
        return real(form)

    monkeypatch.setattr(rsize.arrowing, "_form_graph", recording)
    assert min_size_ramsey_bruteforce(n, t, m_max, max_vertices=max_vertices) == expected
    assert all(max_vertices is None or p <= max_vertices for p, _ in built)
    assert all(len(edges) <= (expected or m_max) for _, edges in built)


def test_min_size_bruteforce_builds_only_the_kept_forms(monkeypatch):
    # uncapped, 3K_2 arrows on level 3, after the 1 + 2 + 5 graphs of
    # levels 1..3 are built.  No 5-vertex graph has a 3-edge matching, so
    # under that cap all 8 levels are read, and only 31 of their 787 forms
    # (OEIS A000664) are built
    calls = 0
    real = rsize.arrowing._form_graph

    def counting(form):
        nonlocal calls
        calls += 1
        return real(form)

    monkeypatch.setattr(rsize.arrowing, "_form_graph", counting)
    for cap, want in ((None, 8), (5, 31)):
        calls = 0
        assert min_size_ramsey_bruteforce(2, 3, 8, max_vertices=cap) == (3 if cap is None else None)
        assert calls == want, cap


def test_min_size_bruteforce_rejects_large_budget():
    with pytest.raises(ValueError):
        min_size_ramsey_bruteforce(3, 1, 9)


def test_min_size_bruteforce_equals_searching_every_level():
    # the brute force searches only K_n-unions for n >= 3; the reference
    # searches every graph.  Levels 1..m_max of the all-graph walk do not
    # depend on m_max, so one walk to 8 edges gives the reference answer
    # for every m_max
    walked = list(_graph_levels(8))
    for cap in (None, 5):
        levels = [[Graph(*form) for form in level if cap is None or form[0] <= cap] for level in walked]
        for n in (2, 3, 4, 5):
            for t in (1, 2, 3):
                first = next(
                    (m for m, level in enumerate(levels, start=1) if any(arrows_pair(h, n, t).arrows for h in level)),
                    None,
                )
                for m_max in range(1, 9):
                    want = first if first is not None and first <= m_max else None
                    got = min_size_ramsey_bruteforce(n, t, m_max, max_vertices=cap)
                    assert got == want, (n, t, m_max, cap)


def test_min_size_bruteforce_skips_levels_without_k_n(monkeypatch):
    searched = []
    real = rsize.arrowing.arrows_pair

    def recording(host, n, t, **kw):
        searched.append(host.edge_count())
        return real(host, n, t, **kw)

    monkeypatch.setattr(rsize.arrowing, "arrows_pair", recording)
    assert min_size_ramsey_bruteforce(4, 1, 7) == 6
    assert min(searched) == 6

    def no_walk(*args):
        raise AssertionError("walked although C(n,2) > m_max")

    monkeypatch.setattr(rsize.arrowing, "_graph_levels", no_walk)
    monkeypatch.setattr(rsize.arrowing, "_clique_union_levels", no_walk)
    assert min_size_ramsey_bruteforce(100000, 100000, 8) is None
    assert min_size_ramsey_bruteforce(5, 1, 8) is None  # C(5,2) = 10
    for n, t in ((1, 1), (0, 1), (-3, 1), (3, 0), (100000, 0)):
        with pytest.raises(RequestError):
            min_size_ramsey_bruteforce(n, t, 8)


# ------------------------------------------------------------------ budgets

def test_over_budget_is_undecided_not_guessed():
    with pytest.raises(UndecidedError):
        arrows_pair(complete(9), 3, 1)  # 36 edges > default budget
    with pytest.raises(UndecidedError):
        arrows_pair(complete(7), 3, 3, search="naive")  # 21 > naive cap


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "40")
    assert arrows_pair(complete(9), 3, 1, search="reduced").arrows
    # a 5,000-digit value is past int()'s digit limit: still a refused request
    for bad in ("ten", "0", "-5", "9" * 5000):
        monkeypatch.setenv(BUDGET_ENV_VAR, bad)
        with pytest.raises(ValueError, match=BUDGET_ENV_VAR):
            arrows_pair(complete(9), 3, 1, search="reduced")


def test_argument_validation():
    with pytest.raises(ValueError):
        arrows_pair(complete(3), 1, 1)
    with pytest.raises(ValueError):
        arrows_pair(complete(3), 3, 0)
    with pytest.raises(ValueError):
        arrows_pair(complete(3), 3, 1, jobs=0)
    with pytest.raises(ValueError):
        arrows_pair(complete(3), 3, 1, search="fast")
    with pytest.raises(TypeError):
        arrows_pair(complete_r(4, 3), 3, 1)
    with pytest.raises(ValueError):
        arrows_hyper(complete_r(4, 3), 2, 1)  # n below uniformity
    with pytest.raises(TypeError):
        arrows_hyper(complete(4), 3, 1)

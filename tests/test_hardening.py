"""Hardening checks: no `assert` in the package, well-formed benchmark records,
the names the benchmark tracer wraps, fuzzed host files through the CLI, and
a bounded Frankl phase on hosts at the hypergraph budget."""

import ast
import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import random
import string
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import rsize
from rsize.arrowing import (
    _cliques_of_hypergraph,
    _run_frankl,
    arrows_pair,
    verify_graph_ramsey,
    verify_hyper_ramsey,
)
from rsize.cli import main
from rsize.errors import RequestError
from rsize.exactmath import binomial, cost_per_stripe, limit_constant, merge_profitable
from rsize.graphs import (
    Graph,
    Hypergraph,
    complete,
    complete_r,
    has_clique,
    hypergraph_to_text,
    is_k_colorable,
    to_graph6,
)
from rsize.values import g, g_r, iter_partitions

FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def test_no_assert_in_the_package():
    # python -O strips asserts, so no check in the package may rest on one
    offenders = []
    for path in sorted(Path(rsize.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert offenders == []


def test_only_the_public_walk_entries_take_a_vertex_cap():
    # the walk grows every graph up to its edge budget; enumerate_graphs and
    # min_size_ramsey_bruteforce apply a caller's vertex cap as one filter
    # on the level they read, so no layer below them threads a cap
    takers = set()
    for path in sorted(Path(rsize.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                if names & {"max_vertices", "cap"}:
                    takers.add(f"{path.name}:{getattr(node, 'name', node.lineno)}")
    assert takers == {"graphs.py:enumerate_graphs", "arrowing.py:min_size_ramsey_bruteforce"}


def test_only_the_walk_and_canonical_form_label_connected_graphs():
    # one isomorph-free walk: its growth rules yield unlabeled children and
    # graphs._walk labels them, so a second level loop cannot come back
    # unnoticed.  Every use of _canon_connected counts, a call or a reference
    users = set()
    for path in sorted(Path(rsize.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if getattr(node, "id", getattr(node, "attr", None)) == "_canon_connected":
                    users.add(f"{path.name}:{getattr(top, 'name', node.lineno)}")
    assert users == {"graphs.py:canonical_form", "graphs.py:_walk"}


def test_arrowing_reads_a_host_through_its_shared_fields():
    # a Graph is the 2-uniform host: the arrow layer reads n, r, edge_masks
    # and edge_count() off either container, so no second edge reader can
    # come back, and the container is named only where the graph entry
    # point checks its argument and where _decide picks the budget key
    path = Path(rsize.__file__).parent / "arrowing.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    readers, namers = [], set()
    for top in tree.body:
        for node in ast.walk(top):
            func = getattr(node, "func", None)
            if isinstance(node, ast.Call) and isinstance(func, ast.Attribute):
                if func.attr in ("edges", "edge_tuples"):
                    readers.append(f"{getattr(top, 'name', '?')}:{node.lineno}")
            if isinstance(node, ast.Call) and getattr(func, "id", None) == "isinstance":
                if any(getattr(n, "id", None) == "Graph" for n in ast.walk(node.args[1])):
                    namers.add(getattr(top, "name", str(node.lineno)))
    assert readers == []
    assert namers == {"arrows_pair", "_decide"}
    # only graphs.py stores a host's fields unchecked: every other module
    # builds a record through its validating constructor
    unchecked = set()
    for module in path.parent.glob("*.py"):
        for node in ast.walk(ast.parse(module.read_text(), filename=str(module))):
            names = (getattr(node, "id", None), getattr(node, "name", None), getattr(node, "attr", None))
            if "_rebuild" in names:
                unchecked.add(module.name)
    assert unchecked == {"records.py", "graphs.py"}


def test_no_host_the_package_builds_passes_its_edges_through_a_constructor():
    # edges are checked once, where they enter: a host the package derives
    # is built from rows or masks, so no call inside it hands Graph or
    # Hypergraph an edge argument (an empty literal, as the hypergraph
    # parser's header check passes, is no edge)
    takers = {"Graph": 1, "Hypergraph": 2}  # positional index of the edges argument
    offenders = []
    for path in sorted(Path(rsize.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name not in takers:
                continue
            # a starred argument or a ** mapping may carry edges too
            edges = node.args[takers[name] :] + [a for a in node.args if isinstance(a, ast.Starred)]
            edges += [k.value for k in node.keywords if k.arg in ("edges", None)]
            if any(not (isinstance(e, (ast.Tuple, ast.List)) and not e.elts) for e in edges):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_bench_records_parse():
    # each performance change commits one BENCH_<topic>.json at the repo root
    records = sorted(Path(__file__).resolve().parent.parent.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text())
        assert {"topic", "command", "parent", "claim"} <= record.keys(), path.name
        # a change that claims no gain writes "claim": null
        claim = record["claim"]
        assert claim is None or {"workload", "metric", "rule"} <= claim.keys(), path.name


def test_benchmark_tracer_names_resolve():
    # Tracer.install looks up every wrapped name with getattr, so a renamed or
    # deleted function breaks the benchmark; read the tracer, never change it
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    wrapped = set()
    for layer, (module_name, names) in tracer.LAYERS.items():
        module = importlib.import_module(f"rsize.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), (layer, module_name, name)
        wrapped.update(names)
    # an observer is picked by the wrapped function's name
    assert set(tracer._OBSERVERS) <= wrapped
    # perfbench's pool_speedup still calls arrows_pair with jobs
    assert "jobs" in inspect.signature(arrows_pair).parameters
    assert arrows_pair(complete(3), 3, 1, jobs=2).arrows


def test_non_integer_n_and_t_are_refused():
    # a float is no clique order, and True is no stripe count; each size is
    # checked before any range or comb sees it
    for call in (
        lambda: arrows_pair(complete(5), 2.5, 2),
        lambda: g(4.5, 2),
        lambda: g(4, True),
        lambda: verify_graph_ramsey(3, 2.0),
        lambda: verify_hyper_ramsey(3, 3, 2.0),
        lambda: verify_hyper_ramsey(3, 3.0, 2),
        lambda: g_r(3, 2.0, 2),
        lambda: arrows_pair(complete(3), 3, 1, jobs=1.5),
        lambda: arrows_pair(complete(3), 3, 1, jobs=True),
        lambda: arrows_pair(complete(3), 3, 1, jobs="2"),
        lambda: arrows_pair(complete(3), 3, 1, jobs=None),
    ):
        with pytest.raises(RequestError, match="must be an integer"):
            call()


def test_non_integer_sizes_are_refused():
    # the size of a graph, a hypergraph, a partition or a clique cost is
    # checked once, at the entry, before range, comb or list repetition
    for call in (
        lambda: Graph(2.5),
        lambda: Graph(True),
        lambda: complete(2.5),
        lambda: complete_r(5.0, 3),
        lambda: complete_r(5, 3.0),
        lambda: Hypergraph(4, 3.0, []),
        lambda: Hypergraph(4.0, 3, []),
        lambda: list(iter_partitions(3.0, 2)),
        lambda: list(iter_partitions(3, 2.0)),
        lambda: cost_per_stripe(5, 1.5),
        lambda: cost_per_stripe(5.0, 1),
        lambda: limit_constant(4.0, 10),
        lambda: limit_constant(4, 10.0),
        lambda: merge_profitable(4, 1.5, 1),
        lambda: binomial(True, 1),
        lambda: binomial(2.5, 2),
        lambda: binomial(5, 2.0),
        lambda: has_clique(complete(4), 2.5),
        lambda: has_clique(complete(4), True),
        lambda: is_k_colorable(complete(4), 2.5),
        lambda: is_k_colorable(Graph(0), 1.0),
    ):
        with pytest.raises(RequestError, match="must be an integer"):
            call()
    for call in (
        lambda: Graph(-1),
        lambda: Hypergraph(4, 1, []),
        lambda: list(iter_partitions(-1)),
        lambda: cost_per_stripe(2, 1),
        lambda: limit_constant(5, 4),
        lambda: binomial(-1, 2),
        lambda: binomial(3, -1),
        lambda: has_clique(complete(4), -1),
        lambda: is_k_colorable(complete(4), -1),
    ):
        with pytest.raises(RequestError, match="need"):
            call()


# ------------------------------------------------------------ fuzzed inputs

# at most 9 graph6 bytes decode to at most 10 vertices; 40 bytes of
# hypergraph text hold only a handful of edges
printable_graph6 = st.text(alphabet=string.printable, max_size=9)
printable_hyper = st.text(alphabet=string.printable, max_size=40)


@st.composite
def small_graphs(draw):
    nv = draw(st.integers(0, 10))
    pool = list(combinations(range(nv), 2))
    m = draw(st.integers(0, len(pool)))  # dense hosts reach the search budget
    return Graph(nv, draw(st.permutations(pool))[:m])


@st.composite
def small_hypergraphs(draw):
    r = draw(st.integers(2, 3))
    nv = draw(st.integers(0, 7))
    pool = list(combinations(range(nv), r))
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=12)) if pool else []
    return Hypergraph(nv, r, edges)


@st.composite
def mutated(draw, text):
    """The text as it is, or with a cut, an inserted, replaced or dropped character."""
    if draw(st.booleans()):
        return text
    kind = draw(st.sampled_from(("cut", "insert", "replace", "drop")))
    if not text and kind != "insert":
        return text
    i = draw(st.integers(0, len(text) - (kind != "insert")))
    ch = draw(st.sampled_from(string.printable))
    if kind == "cut":
        return text[:i]
    if kind == "insert":
        return text[:i] + ch + text[i:]
    if kind == "replace":
        return text[:i] + ch + text[i + 1 :]
    return text[:i] + text[i + 1 :]


near_graph6 = small_graphs().flatmap(lambda host: mutated(to_graph6(host) + "\n"))
near_hyper = small_hypergraphs().flatmap(lambda host: mutated(hypergraph_to_text(host)))
targets = st.tuples(st.integers(2, 5), st.integers(1, 3))


def _one_envelope(tmp_path_factory, text, argv):
    path = tmp_path_factory.mktemp("fuzz") / "host"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.replace("{host}", str(path)) for arg in argv])
    payload = json.loads(out.getvalue())  # exactly one JSON object, nothing else
    assert code in (0, 2, 3), (text, argv, payload, err.getvalue())
    assert payload["status"] == ("ok" if code == 0 else "undecided" if code == 3 else "error")
    return payload


def _argv(command, n, t, *extra):
    return [command, *extra, "--n", str(n), "--t", str(t)]


@FUZZ
@given(text=st.one_of(printable_graph6, near_graph6), nt=targets)
@example(text=to_graph6(complete(10)), nt=(3, 2))  # over the search budget: exit 3
def test_fuzzed_graph6_check_arrow(tmp_path_factory, text, nt):
    _one_envelope(tmp_path_factory, text, _argv("check-arrow", *nt, "--host", "{host}"))


@FUZZ
@given(text=st.one_of(printable_hyper, near_hyper), nt=targets)
def test_fuzzed_hypergraph_check_arrow(tmp_path_factory, text, nt):
    _one_envelope(tmp_path_factory, text, _argv("check-arrow", *nt, "--hyper", "{host}"))


@FUZZ
@given(text=st.one_of(printable_graph6, near_graph6), nt=targets, matching=st.booleans())
def test_fuzzed_graph6_decolor(tmp_path_factory, text, nt, matching):
    extra = ("--matching",) if matching else ()
    _one_envelope(tmp_path_factory, text, _argv("decolor", *nt, "--host", "{host}", *extra))



# ------------------------------------------------- bounded Frankl phase


def test_frankl_phase_stays_bounded_on_36_edge_hosts(tmp_path):
    # hosts at the hypergraph budget, dense to sparse, with every t up to 12:
    # each run ends in an envelope, and the phase's set count stays small
    rng = random.Random(1)
    path = tmp_path / "host"
    worst = 0
    for r in (3, 4):
        for nv in (8, 12, 24):
            host = Hypergraph(nv, r, rng.sample(list(combinations(range(nv), r)), 36))
            path.write_text(hypergraph_to_text(host))
            for n in (r, r + 1):
                cliques = _cliques_of_hypergraph(host, n)
                for t in range(1, 13):
                    worst = max(worst, _run_frankl(host.edge_masks, cliques, t, r)[1])
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = main(_argv("check-arrow", n, t, "--hyper", str(path)))
                    assert code in (0, 3), (host, n, t, out.getvalue())
    # deterministic: r = 4 on 24 vertices with n = 4 and t = 6
    assert worst == 8075

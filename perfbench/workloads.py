"""Seeded job lists for the four benchmark workloads.

A workload is a fixed list of jobs (single calls into rsize's public
functions) plus a handful of `rsize` command lines.  The seed picks the
random parts of the inputs (large stripe counts jittered by at most 2%,
which small stripe count goes with which n, random edges, random
sub-hosts); the make-up of each list, and so the work it asks for, does
not depend on the seed.  Every host is chosen so
that its true answer follows from a theorem or from monotonicity, and
that answer is written into the job's check.

Jobs look their rsize function up through the module at call time, so a
tracer that swaps module attributes sees every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace
from typing import Any, Callable

import checker
from checker import require

WORKLOADS = ("values", "arrow-graph", "arrow-hyper", "certify")

# the reduced search's default graph budget; unions are padded up to it
EDGE_BUDGET = 28


@dataclass(frozen=True)
class Job:
    """One timed request: `call` runs it, `digest` turns its output into plain data."""

    name: str
    call: Callable[[], Any]
    digest: Callable[[Any], Any]
    check: Callable[[Any], None]


@dataclass(frozen=True)
class CliRequest:
    """One `rsize` command line with its expected exit code and output check."""

    argv: tuple[str, ...]
    expect_code: int
    check: Callable[[dict], None]


@dataclass(frozen=True)
class Workload:
    jobs: list[Job]
    cli: list[CliRequest]
    files: dict[str, str]  # CLI input files, name -> content
    warmup: Callable[[], None]


def build(name: str, rs: SimpleNamespace, seed: int) -> Workload:
    """The job list of one workload; `rs` holds the imported rsize modules."""
    rng = random.Random(f"{name}:{seed}")
    return {
        "values": _values,
        "arrow-graph": _arrow_graph,
        "arrow-hyper": _arrow_hyper,
        "certify": _certify,
    }[name](rs, rng)


# -------------------------------------------------------------------- helpers


def _jitter(rng: random.Random, t: int) -> int:
    return t + rng.randint(-(t // 50), t // 50)


def _random_edges(rng: random.Random, vertices: int, count: int) -> list[tuple[int, int]]:
    pairs = list(combinations(range(vertices), 2))
    return sorted(rng.sample(pairs, min(count, len(pairs))))


def _clique_union(parts_sizes: list[int]) -> tuple[int, list[tuple[int, int]]]:
    edges, offset = [], 0
    for k in parts_sizes:
        edges.extend((offset + u, offset + v) for u, v in combinations(range(k), 2))
        offset += k
    return offset, edges


def _witness_union(n: int, t: int) -> tuple[int, list[tuple[int, int]]]:
    """Disjoint cliques K_{n+2s-2} over g(n,t)'s optimal parts, from the checker's scan."""
    _, parts = checker.scan_value("g", n, t)
    return _clique_union([n + 2 * s - 2 for s in parts])


def _verdict_digest(verdict: Any) -> tuple:
    blue = () if verdict.counterexample is None else tuple(verdict.counterexample.blue_edges())
    return verdict.arrows, verdict.mode, verdict.nodes, blue


def _verdict_check(
    vertices: int, r: int, edges: list[tuple[int, ...]], n: int, t: int, expect: bool, why: str
) -> Callable[[tuple], None]:
    def check(digest: tuple) -> None:
        arrows, _, _, blue = digest
        require(arrows == expect, f"{why}: expected arrows={expect}, got {arrows}")
        if not arrows:
            checker.check_good_coloring(vertices, r, edges, blue, n, t, why)

    return check


def _is_true(why: str) -> Callable[[Any], None]:
    return lambda value: require(value is True, f"{why}: expected True, got {value!r}")


# --------------------------------------------------------------------- values


def _values(rs: SimpleNamespace, rng: random.Random) -> Workload:
    V, E = rs.values, rs.exactmath
    jobs = []

    def value_job(flavor: str, n: int, t: int, r: int | None = None) -> Job:
        if flavor == "g":
            call = lambda: V.g(n, t)
        elif flavor == "ghat":
            call = lambda: V.g_hat(n, t)
        else:
            call = lambda: V.g_r(n, r, t)
        return Job(
            f"{flavor} n={n} t={t}" + ("" if r is None else f" r={r}"),
            call,
            lambda res: (res.value, res.witness.parts),
            lambda d: checker.check_value(flavor, n, t, r, *d),
        )

    def row_job(flavor: str, n: int, t_max: int) -> Job:
        fn = "g_values" if flavor == "g" else "g_hat_values"
        return Job(
            f"{fn} n={n} t_max={t_max}",
            lambda: getattr(V, fn)(n, t_max),
            tuple,
            lambda row: checker.check_row(flavor, n, row),
        )

    def limit_job(n: int, t_max: int) -> Job:
        return Job(
            f"limit n={n} T={t_max}",
            lambda: (E.limit_constant(n, t_max), V.g_values(n, t_max)),
            lambda out: (out[0][0], out[0][1], tuple(out[1])),
            lambda d: checker.check_limit(n, t_max, *d),
        )

    # large t: the value solver does all the work
    for n, t in ((4, 1200), (7, 2000), (10, 1600), (13, 800), (16, 400)):
        jobs.append(value_job("g", n, _jitter(rng, t)))
    for n, t in ((5, 300), (9, 600)):
        jobs.append(value_job("ghat", n, _jitter(rng, t)))
    for n, r, t in ((5, 3, 700), (8, 4, 1000)):
        jobs.append(value_job("gr", n, _jitter(rng, t), r))
    jobs.append(row_job("g", 6, _jitter(rng, 500)))
    jobs.append(row_job("ghat", 11, _jitter(rng, 250)))
    jobs.append(limit_job(8, _jitter(rng, 400)))
    jobs.append(limit_job(12, _jitter(rng, 600)))
    # small t, checked against every partition as well; the seed deals a
    # fixed set of t values out to n, so the total cost hardly moves
    for flavor, ts in (("g", [2, 4, 6, 8, 10, 12]), ("ghat", [1, 3, 5, 7, 9, 11])):
        rng.shuffle(ts)
        jobs.extend(value_job(flavor, n, t) for n, t in zip(range(3, 9), ts))
    ts = [4, 8, 12]
    rng.shuffle(ts)
    jobs.extend(value_job("gr", n, t, r) for (n, r), t in zip(((3, 3), (5, 3), (6, 4)), ts))

    def value_out(flavor: str, n: int, t: int, r: int | None = None) -> Callable[[dict], None]:
        def check(out: dict) -> None:
            value, parts = checker.scan_value(flavor, n, t, r)
            expect_value = value if value <= 1 << 53 else str(value)
            require(out["value"] == expect_value, f"rsize value: {out['value']} != {value}")
            require(tuple(out["parts"]) == parts, f"rsize value: parts {out['parts']} != {parts}")

        return check

    def table_out(out: dict) -> None:
        require(len(out["rows"]) == 10 * 20, "rsize table: wrong cell count")
        for row in out["rows"]:
            expected, _ = checker.scan_value("g", row["n"], row["t"])
            require(row["g"] == expected, f"rsize table: g({row['n']},{row['t']}) = {row['g']}")

    def limit_out(out: dict) -> None:
        require(out["pass"] is True, "rsize verify --suite limit did not pass")
        limit = Fraction(4 * (2 * 9 - 5), 9 * 8)
        require(out["limit_constant"] == f"{limit.numerator}/{limit.denominator}", "limit constant")

    t_cli = _jitter(rng, 1500)
    cli = [
        CliRequest(("value", "--n", "10", "--t", str(t_cli)), 0, value_out("g", 10, t_cli)),
        CliRequest(("value", "--n", "7", "--t", "300", "--hat"), 0, value_out("ghat", 7, 300)),
        CliRequest(("value", "--n", "8", "--r", "3", "--t", "400"), 0, value_out("gr", 8, 400, 3)),
        CliRequest(("table", "--n-range", "3:12", "--t-range", "1:20"), 0, table_out),
        CliRequest(("verify", "--suite", "limit", "--n", "9", "--T", "400"), 0, limit_out),
    ]

    def warmup() -> None:
        V.g(5, 3), V.g_hat(5, 3), V.g_r(5, 3, 3), V.g_values(5, 3), V.g_hat_values(5, 3)
        E.limit_constant(5, 5)

    return Workload(jobs, cli, {}, warmup)


# ---------------------------------------------------------------- arrow-graph


def _arrow_graph(rs: SimpleNamespace, rng: random.Random) -> Workload:
    A, G = rs.arrowing, rs.graphs
    jobs = []

    def arrow_job(label: str, vertices: int, edges: list, n: int, t: int, expect: bool, why: str) -> Job:
        host = G.Graph(vertices, edges)
        return Job(
            f"{label} ({n},{t})",
            lambda: A.arrows_pair(host, n, t),
            _verdict_digest,
            _verdict_check(vertices, 2, host.edges(), n, t, expect, why),
        )

    def complete_edges(k: int) -> list[tuple[int, int]]:
        return list(combinations(range(k), 2))

    # R(K_n, tK_2) = n+2t-2: the complete host there arrows, one vertex below it does not
    for n, t in ((3, 2), (4, 2), (3, 3), (5, 2), (6, 2)):
        k = n + 2 * t - 2
        jobs.append(arrow_job(f"K{k}", k, complete_edges(k), n, t, True, f"K_{k} at the threshold"))
    for n, t in ((3, 2), (4, 2), (3, 3), (5, 2), (4, 3), (6, 2), (5, 3), (3, 4)):
        k = n + 2 * t - 3
        jobs.append(arrow_job(f"K{k}", k, complete_edges(k), n, t, False, f"K_{k} below the threshold"))
    for n, t in ((3, 2), (4, 3)):
        jobs.append(
            Job(
                f"verify_graph_ramsey ({n},{t})",
                lambda n=n, t=t: A.verify_graph_ramsey(n, t),
                lambda ok: ok,
                _is_true(f"R(K_{n}, {t}K_2) = {n + 2 * t - 2}"),
            )
        )
    # g(n,t)'s witness union attains the size Ramsey number, so it arrows,
    # and so does every supergraph on its vertices (monotonicity)
    for n, t in ((3, 2), (4, 2), (3, 3), (5, 2), (3, 4), (4, 3), (3, 5)):
        vertices, edges = _witness_union(n, t)
        jobs.append(arrow_job("union", vertices, edges, n, t, True, f"g({n},{t}) witness union"))
    for n, t, extra in ((3, 2, 9), (4, 2, 16), (3, 3, 19), (5, 2, 8), (4, 3, 3), (3, 4, 4)):
        vertices, edges = _witness_union(n, t)
        present = set(edges)
        missing = [e for e in combinations(range(vertices), 2) if e not in present]
        extra = min(extra, EDGE_BUDGET - len(edges))
        padded = sorted(edges + rng.sample(missing, extra))
        jobs.append(arrow_job(f"union+{extra}", vertices, padded, n, t, True, f"superset of g({n},{t})'s union"))
    # fewer than g(n,t) edges never arrow: the paper's lower bound
    for n, t, vertices in ((4, 2, 7), (3, 4, 9), (4, 3, 8), (5, 2, 9), (4, 4, 10), (6, 2, 10), (5, 3, 10), (3, 5, 12)):
        size = min(checker.scan_value("g", n, t)[0] - 1, EDGE_BUDGET)
        for _ in range(3):
            edges = _random_edges(rng, vertices, size)
            jobs.append(arrow_job(f"random{size}", vertices, edges, n, t, False, f"{size} < g({n},{t}) edges"))

    under_n, under_t, under_v = 4, 3, 8
    under = _random_edges(rng, under_v, checker.scan_value("g", under_n, under_t)[0] - 1)
    union_v, union_e = _witness_union(4, 2)
    files = {
        "k7.g6": G.to_graph6(G.Graph(7, complete_edges(7))),
        "k9.g6": G.to_graph6(G.Graph(9, complete_edges(9))),
        "under.g6": G.to_graph6(G.Graph(under_v, under)),
        "union.g6": G.to_graph6(G.Graph(union_v, union_e)),
    }

    def arrow_out(vertices: int, edges: list, n: int, t: int, expect: bool) -> Callable[[dict], None]:
        def check(out: dict) -> None:
            require(out["arrows"] is expect, f"rsize check-arrow: arrows={out['arrows']}, expected {expect}")
            if not expect:
                blue = [tuple(e) for e in out["counterexample_blue_edges"]]
                checker.check_good_coloring(vertices, 2, edges, blue, n, t, "rsize check-arrow")

        return check

    def undecided(out: dict) -> None:
        require("budget" in out["message"], "rsize check-arrow over budget: no budget message")

    cli = [
        CliRequest(("check-arrow", "--host", "{dir}/k7.g6", "--n", "3", "--t", "3"), 0, arrow_out(7, complete_edges(7), 3, 3, True)),
        CliRequest(("check-arrow", "--host", "{dir}/under.g6", "--n", "4", "--t", "3"), 0, arrow_out(under_v, under, 4, 3, False)),
        CliRequest(("check-arrow", "--host", "{dir}/union.g6", "--n", "4", "--t", "2", "--mode", "naive"), 0, arrow_out(union_v, union_e, 4, 2, True)),
        CliRequest(("verify", "--suite", "ramsey", "--n", "5", "--t", "2"), 0, lambda out: require(out["pass"] is True, "ramsey suite")),
        CliRequest(("check-arrow", "--host", "{dir}/k9.g6", "--n", "5", "--t", "3"), 3, undecided),
    ]

    def warmup() -> None:
        A.arrows_pair(G.Graph(5, complete_edges(5)), 3, 2)
        A.arrows_pair(G.Graph(7, complete_edges(7)), 6, 2)

    return Workload(jobs, cli, files, warmup)


# ---------------------------------------------------------------- arrow-hyper


def _arrow_hyper(rs: SimpleNamespace, rng: random.Random) -> Workload:
    A, G = rs.arrowing, rs.graphs
    jobs = []

    def hyper_job(label: str, vertices: int, r: int, edges: list, n: int, t: int, expect: bool, why: str) -> Job:
        host = G.Hypergraph(vertices, r, edges)
        return Job(
            f"{label} r={r} ({n},{t})",
            lambda: A.arrows_hyper(host, n, t),
            _verdict_digest,
            _verdict_check(vertices, r, host.edge_tuples(), n, t, expect, why),
        )

    def complete_r(k: int, r: int) -> list[tuple[int, ...]]:
        return list(combinations(range(k), r))

    # R(K_n^r, tK_r^r) = n+(t-1)r: arrows at the threshold, not one vertex below
    jobs.append(
        Job(
            "verify_hyper_ramsey (3,3,2)",
            lambda: A.verify_hyper_ramsey(3, 3, 2),
            lambda ok: ok,
            _is_true("R(K_3^3, 2K_3^3) = 6"),
        )
    )
    for n, r, t in ((3, 3, 2), (4, 3, 2), (5, 3, 2)):
        k = n + (t - 1) * r - 1
        jobs.append(hyper_job(f"K{k}", k, r, complete_r(k, r), n, t, False, f"K_{k}^{r} below the threshold"))
    # a sub-host of a host that does not arrow does not arrow either
    for n, t, k, sizes in ((3, 2, 5, (6, 8)), (4, 2, 6, (12, 12, 16, 16)), (5, 2, 7, (21, 21, 25, 25, 28, 28))):
        full = complete_r(k, 3)
        for size in sizes:
            edges = sorted(rng.sample(full, size))
            jobs.append(hyper_job(f"sub{size}-of-K{k}", k, 3, edges, n, t, False, f"sub-host of K_{k}^3"))
    # 2-uniform hosts through the hypergraph path
    for n, t in ((3, 2), (4, 2), (4, 3)):
        k = n + 2 * t - 2
        jobs.append(hyper_job(f"K{k}", k, 2, complete_r(k, 2), n, t, True, f"K_{k} at the threshold"))
        jobs.append(hyper_job(f"K{k - 1}", k - 1, 2, complete_r(k - 1, 2), n, t, False, f"K_{k - 1} below the threshold"))
    jobs.append(
        Job(
            "verify_hyper_ramsey (3,2,3)",
            lambda: A.verify_hyper_ramsey(3, 2, 3),
            lambda ok: ok,
            _is_true("R(K_3, 3K_2) = 7"),
        )
    )
    for _ in range(4):
        edges = _random_edges(rng, 8, 17)
        jobs.append(hyper_job("random17", 8, 2, edges, 4, 3, False, "17 < g(4,3) edges"))

    sub = sorted(rng.sample(complete_r(7, 3), 25))
    files = {
        "k5_3.txt": G.hypergraph_to_text(G.Hypergraph(5, 3, complete_r(5, 3))),
        "sub_k7_3.txt": G.hypergraph_to_text(G.Hypergraph(7, 3, sub)),
        "k7_2.txt": G.hypergraph_to_text(G.Hypergraph(7, 2, complete_r(7, 2))),
    }

    def refutes(vertices: int, r: int, edges: list, n: int, t: int) -> Callable[[dict], None]:
        def check(out: dict) -> None:
            require(out["arrows"] is False, "rsize check-arrow --hyper: expected no arrowing")
            blue = [tuple(e) for e in out["counterexample_blue_edges"]]
            checker.check_good_coloring(vertices, r, edges, blue, n, t, "rsize check-arrow --hyper")

        return check

    cli = [
        CliRequest(("check-arrow", "--hyper", "{dir}/k5_3.txt", "--n", "3", "--t", "2"), 0, refutes(5, 3, complete_r(5, 3), 3, 2)),
        CliRequest(("check-arrow", "--hyper", "{dir}/sub_k7_3.txt", "--n", "5", "--t", "2"), 0, refutes(7, 3, sub, 5, 2)),
        CliRequest(("check-arrow", "--hyper", "{dir}/k7_2.txt", "--n", "4", "--t", "3"), 0, refutes(7, 2, complete_r(7, 2), 4, 3)),
        CliRequest(("verify", "--suite", "hyper-ramsey", "--n", "3", "--r", "3", "--t", "2"), 0, lambda out: require(out["pass"] is True, "hyper-ramsey suite")),
    ]

    def warmup() -> None:
        A.arrows_hyper(G.Hypergraph(5, 3, complete_r(5, 3)), 3, 2)
        A.arrows_hyper(G.Hypergraph(6, 3, sorted(rng.sample(complete_r(6, 3), 10))), 4, 2)

    return Workload(jobs, cli, files, warmup)


# -------------------------------------------------------------------- certify


def _decolor_digest(result: Any) -> tuple:
    kept = [v for v in range(result.graph.n) if not result.removed >> v & 1]
    colors = tuple((v, result.residual_coloring.color_of[i]) for i, v in enumerate(kept))
    return result.removed_vertices(), colors, result.method


def _certify(rs: SimpleNamespace, rng: random.Random) -> Workload:
    D, A, G, V = rs.decolor, rs.arrowing, rs.graphs, rs.values
    jobs = []

    def decolor_job(matching: bool, vertices: int, edges: list, n: int, t: int) -> Job:
        host = G.Graph(vertices, edges)
        fn = "find_decolor_set_matching" if matching else "find_decolor_set"
        # the plain set has at most 2t-1 vertices; the matching set spans
        # fewer than t disjoint edges and, for n >= 4, has at most 2t
        max_size = (2 * t if n >= 4 else vertices) if matching else 2 * t - 1

        def check(d: tuple) -> None:
            removed, colors, _ = d
            checker.check_decolor(
                vertices, edges, n, t, removed, dict(colors), max_size, t - 1 if matching else None, f"{fn} ({n},{t})"
            )

        return Job(f"{fn} v={vertices} m={len(edges)} ({n},{t})", lambda: getattr(D, fn)(host, n, t), _decolor_digest, check)

    def witness_job(vertices: int, edges: list, n: int, t: int) -> Job:
        host = G.Graph(vertices, edges)
        return Job(
            f"witness_good_coloring v={vertices} ({n},{t})",
            lambda: D.witness_good_coloring(host, n, t),
            lambda coloring: tuple(coloring.blue_edges()),
            lambda blue: checker.check_good_coloring(vertices, 2, edges, blue, n, t, "witness_good_coloring"),
        )

    # random hosts just under each threshold: g_hat(n,t) for the plain set,
    # g(n,t) for the matching set and the witness coloring
    for n, t, vertices in ((3, 2, 6), (3, 3, 8), (4, 2, 8), (5, 2, 9), (5, 3, 10), (6, 2, 10), (6, 3, 12), (7, 3, 14), (8, 4, 16)):
        below_hat = checker.scan_value("ghat", n, t)[0] - 1
        below_g = checker.scan_value("g", n, t)[0] - 1
        for _ in range(2):
            jobs.append(decolor_job(False, vertices, _random_edges(rng, vertices, below_hat), n, t))
            jobs.append(decolor_job(True, vertices, _random_edges(rng, vertices, below_g), n, t))
        jobs.append(witness_job(vertices, _random_edges(rng, vertices, below_g), n, t))
    # the decoloring bound is unimprovable at the exact threshold
    for n in (3, 4, 5):
        for t in (1, 2):
            for flavor in ("g", "ghat"):
                jobs.append(
                    Job(
                        f"check_tightness_remark ({n},{t}) {flavor}",
                        lambda n=n, t=t, flavor=flavor: D.check_tightness_remark(n, t, V.Flavor(flavor)),
                        lambda ok: ok,
                        _is_true(f"tightness ({n},{t}) {flavor}"),
                    )
                )
    # isomorphism-free enumeration, counted against OEIS A000664
    for m in range(1, 8):
        jobs.append(
            Job(
                f"enumerate_graphs m={m}",
                lambda m=m: sum(1 for _ in G.enumerate_graphs(m)),
                lambda count: count,
                lambda count, m=m: require(count == checker.A000664[m], f"{count} graphs with {m} edges, A000664 says {checker.A000664[m]}"),
            )
        )
    # brute-force minimality meets the formula
    for n, t, m_max in ((3, 2, 6), (4, 1, 6), (2, 4, 7)):
        expect = checker.scan_value("g", n, t)[0]
        jobs.append(
            Job(
                f"min_size_ramsey_bruteforce ({n},{t}) m_max={m_max}",
                lambda n=n, t=t, m_max=m_max: A.min_size_ramsey_bruteforce(n, t, m_max),
                lambda found: found,
                lambda found, n=n, t=t, expect=expect: require(found == expect, f"brute force ({n},{t}) = {found}, g = {expect}"),
            )
        )

    plain_edges = _random_edges(rng, 9, checker.scan_value("ghat", 5, 2)[0] - 1)
    match_edges = _random_edges(rng, 9, checker.scan_value("g", 5, 2)[0] - 1)
    dense_edges = list(combinations(range(5), 2))  # 10 edges, g_hat(4,1) = 6
    files = {
        "plain.g6": G.to_graph6(G.Graph(9, plain_edges)),
        "match.g6": G.to_graph6(G.Graph(9, match_edges)),
        "dense.g6": G.to_graph6(G.Graph(5, dense_edges)),
    }

    def decolor_out(edges: list, matching: bool) -> Callable[[dict], None]:
        def check(out: dict) -> None:
            colors = {v: c for c, cls in enumerate(out["residual_classes"]) for v in cls}
            max_size = 2 * 2 if matching else 2 * 2 - 1
            checker.check_decolor(9, edges, 5, 2, out["removed"], colors, max_size, 1 if matching else None, "rsize decolor")
            if matching:
                checker.check_good_coloring(9, 2, edges, [tuple(e) for e in out["witness_blue_edges"]], 5, 2, "rsize decolor --matching")

        return check

    def too_many(out: dict) -> None:
        require("10 edges" in out["message"] and "6" in out["message"], "rsize decolor: hypothesis message")

    cli = [
        CliRequest(("decolor", "--host", "{dir}/plain.g6", "--n", "5", "--t", "2"), 0, decolor_out(plain_edges, False)),
        CliRequest(("decolor", "--host", "{dir}/match.g6", "--n", "5", "--t", "2", "--matching"), 0, decolor_out(match_edges, True)),
        CliRequest(("decolor", "--host", "{dir}/dense.g6", "--n", "4", "--t", "1"), 2, too_many),
        CliRequest(("verify", "--suite", "tightness", "--n", "4", "--t", "2", "--flavor", "ghat"), 0, lambda out: require(out["pass"] is True, "tightness suite")),
        CliRequest(("verify", "--suite", "minimality", "--n", "3", "--t", "2"), 0, lambda out: require(out["pass"] is True and out["min_edges"] == 6, "minimality suite")),
    ]

    def warmup() -> None:
        host = G.Graph(6, _random_edges(rng, 6, 5))
        D.find_decolor_set(host, 4, 1), D.find_decolor_set_matching(host, 4, 1)
        sum(1 for _ in G.enumerate_graphs(3))

    return Workload(jobs, cli, files, warmup)

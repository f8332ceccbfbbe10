#!/usr/bin/env python3
"""Benchmark for rsize: one workload per process, a closed loop of seeded jobs.

    python3 perfbench/run.py --workload values --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: it imports rsize from `src/`
and runs `python -m rsize` with that `src/` on PYTHONPATH.  One caller
runs the workload's job list (jobs=1), each job started when the previous
one finished, in whole rounds until `--seconds` have passed.  Every
output is checked by `checker.py`, which shares no code with rsize.
Times are in reference seconds (see `speed.py`).  The last line of
stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones.  With `--trace 1`
untraced rounds alternate with rounds that record spans around rsize's
public functions, and the metrics are the per-layer ones.  Raw figures
and spans are written under `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Any

import checker
import speed
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SCHEMA = SRC / "rsize" / "schemas" / "command_result.schema.json"
RSIZE_MODULES = ("exactmath", "values", "graphs", "arrowing", "decolor", "cli")

SETUP_REPEATS = 9
MIN_ROUNDS = 3
CLI_REPEATS = 5
IMPORT_REPEATS = 5
POOL_REPEATS = 2
CLI_TIMEOUT_S = 120


class Failure:
    """A job that raised: counted as failed, never checked."""

    def __init__(self, exc: BaseException):
        self.reason = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Failure) and other.reason == self.reason


# --------------------------------------------------------------------- set-up


def import_rsize() -> SimpleNamespace:
    """A fresh import of rsize from this checkout's src/."""
    for name in [m for m in sys.modules if m == "rsize" or m.startswith("rsize.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {name: importlib.import_module(f"rsize.{name}") for name in RSIZE_MODULES}
    here = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in here.parents:
        raise SystemExit(f"rsize was imported from {here}, not from {SRC}")
    return SimpleNamespace(**mods)


def set_up(name: str, seed: int) -> tuple[float, tuple[SimpleNamespace, workloads.Workload]]:
    """(reference seconds, (modules, workload)) of imports, input generation and warm-up."""

    def work() -> tuple[SimpleNamespace, workloads.Workload]:
        rs = import_rsize()
        workload = workloads.build(name, rs, seed)
        workload.warmup()
        return rs, workload

    return speed.timed(work)


# ---------------------------------------------------------------------- rounds


def run_round(jobs: list[workloads.Job], tracer: Tracer | None = None) -> tuple[list[float], list[Any], float]:
    """Each job's time and output, and the machine's speed factor over the round.

    A probe runs before every job; the round's factor pools them all.
    """
    times, outputs, probes = [], [], 0.0
    for i, job in enumerate(jobs):
        probes += speed.probe()
        t0 = perf_counter()
        try:
            out = job.call() if tracer is None else tracer.run_job(i, job.call)
        except Exception as exc:  # a raising job is a failed operation, not a crash
            out = Failure(exc)
        times.append(perf_counter() - t0)
        outputs.append(out)
    return times, outputs, probes / (len(jobs) * speed.NOMINAL_S)


def digest(job: workloads.Job, out: Any) -> Any:
    if isinstance(out, Failure):
        return out
    try:
        return job.digest(out)
    except Exception as exc:  # an output of the wrong shape fails like a raise
        return Failure(exc)


class Rounds:
    """Whole rounds of a job list, with every output digested and compared."""

    def __init__(self, jobs: list[workloads.Job]):
        self.jobs = jobs
        self.walls: list[float] = []  # reference seconds
        self.raw_walls: list[float] = []  # seconds on the clock
        self.factors: list[float] = []
        self.job_times: list[list[float]] = [[] for _ in jobs]
        self.first: list[Any] | None = None
        self.inconsistent: list[str] = []

    def run(self, seconds: float) -> None:
        start = perf_counter()
        while len(self.walls) < MIN_ROUNDS or perf_counter() - start < seconds:
            self.run_once()

    def run_once(self, tracer: Tracer | None = None) -> None:
        times, outputs, factor = run_round(self.jobs, tracer)
        self.raw_walls.append(sum(times))
        self.factors.append(factor)
        self.walls.append(sum(times) / factor)
        for per_job, t in zip(self.job_times, times):
            per_job.append(t / factor)
        digests = [digest(job, out) for job, out in zip(self.jobs, outputs)]
        if self.first is None:
            self.first = digests
            return
        for job, a, b in zip(self.jobs, self.first, digests):
            if a != b:
                self.inconsistent.append(f"{job.name}: output changed between rounds")

    def check(self) -> tuple[int, list[str]]:
        """(jobs failing in every round, reasons)."""
        failing, reasons = 0, []
        for job, digested in zip(self.jobs, self.first):
            if isinstance(digested, Failure):
                failing += 1
                reasons.append(f"{job.name}: raised {digested.reason}")
                continue
            try:
                job.check(digested)
            except Exception as exc:  # CheckError, or a digest the check cannot read
                failing += 1
                reasons.append(f"{job.name}: {exc}")
        return failing, reasons

    def job_geomean_ms(self) -> float:
        logs = [math.log(statistics.median(ts) * 1000) for ts in self.job_times]
        return math.exp(sum(logs) / len(logs))


# ------------------------------------------------------------------------- CLI


def fresh_python(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """(reference seconds, process) of one fresh interpreter run from the checkout root."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return speed.timed(
        lambda: subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S
        )
    )


def request_argv(request: workloads.CliRequest, files_dir: str) -> list[str]:
    return [arg.replace("{dir}", files_dir) for arg in request.argv]


def run_cli(workload: workloads.Workload, files_dir: str) -> tuple[float, int, int, list[str], list[float]]:
    """Each request CLI_REPEATS times in a fresh process; cli_s sums the per-request medians."""
    medians, attempted, failed, reasons = [], 0, 0, []
    for request in workload.cli:
        argv = request_argv(request, files_dir)
        times = []
        for _ in range(CLI_REPEATS):
            attempted += 1
            try:
                elapsed, proc = fresh_python(["-m", "rsize", *argv])
                envelope = checker.check_envelope(proc.stdout, proc.returncode, request.expect_code, request.argv[0], SCHEMA)
                request.check(envelope["outputs"])
            except (checker.CheckError, LookupError, TypeError, subprocess.TimeoutExpired) as exc:
                failed += 1
                reasons.append(f"rsize {' '.join(argv)}: {exc!r}")
                continue
            times.append(elapsed)
        if times:
            medians.append(statistics.median(times))
    return sum(medians), attempted, failed, reasons, medians


def cli_in_process(rs: SimpleNamespace, workload: workloads.Workload, files_dir: str) -> float:
    """Summed per-request medians of the same requests through rsize.cli.main in this process."""
    total = 0.0
    for request in workload.cli:
        argv = request_argv(request, files_dir)
        times = []
        for _ in range(CLI_REPEATS):
            with contextlib.redirect_stdout(io.StringIO()):
                elapsed, _ = speed.timed(lambda: rs.cli.main(argv))
            times.append(elapsed)
        total += statistics.median(times)
    return total


def import_cost() -> float:
    """Fresh-process `import rsize.cli` minus a bare interpreter, medians of each."""
    bare = statistics.median(fresh_python(["-c", "pass"])[0] for _ in range(IMPORT_REPEATS))
    full = statistics.median(fresh_python(["-c", "import rsize.cli"])[0] for _ in range(IMPORT_REPEATS))
    return full - bare


def write_files(workload: workloads.Workload, name: str, seed: int) -> str:
    directory = OUT / f"{name}-seed{seed}"
    directory.mkdir(parents=True, exist_ok=True)
    for file_name, content in workload.files.items():
        (directory / file_name).write_text(content + ("" if content.endswith("\n") else "\n"))
    return str(directory.relative_to(ROOT))


def pool_speedup(rs: SimpleNamespace, cpus: set[int], k: int, n: int, t: int) -> float:
    """jobs=1 time over jobs=2 time for arrows_pair on K_k, medians of POOL_REPEATS.

    The pool's workers may use every CPU the run was given.
    """
    host = rs.graphs.complete(k)
    timings, verdicts = {}, {}
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        for jobs in (1, 2):
            times = []
            for _ in range(POOL_REPEATS):
                elapsed, verdicts[jobs] = speed.timed(lambda: rs.arrowing.arrows_pair(host, n, t, jobs=jobs))
                times.append(elapsed)
            timings[jobs] = statistics.median(times)
    finally:
        os.sched_setaffinity(0, pinned)
    if verdicts[1] != verdicts[2]:
        raise checker.CheckError(f"K_{k} ({n},{t}): jobs=2 changed the verdict")
    return timings[1] / timings[2]


# ---------------------------------------------------------------------- modes


def end_to_end(name: str, seed: int, seconds: float, cpus: set[int]) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        elapsed, (rs, workload) = set_up(name, seed)
        setups.append(elapsed)
    rounds = Rounds(workload.jobs)
    rounds.run(seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failing, reasons = rounds.check()
    files_dir = write_files(workload, name, seed)
    cli_s, cli_attempted, cli_failed, cli_reasons, cli_medians = run_cli(workload, files_dir)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(rounds.walls), "s"),
        "job_geomean_ms": (rounds.job_geomean_ms(), "ms"),
        "cli_s": (cli_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw = {
        "setups_s": setups,
        "round_walls_s": rounds.walls,
        "raw_round_walls_s": rounds.raw_walls,
        "speed_factors": rounds.factors,
        "job_median_ms": {
            f"{i} {job.name}": statistics.median(ts) * 1000 for i, (job, ts) in enumerate(zip(rounds.jobs, rounds.job_times))
        },
        "cli_median_s": cli_medians,
    }
    return result([rounds], failing, reasons + cli_reasons, cli_attempted, cli_failed, metrics, raw)


def traced(name: str, seed: int, seconds: float, cpus: set[int]) -> dict:
    _, (rs, workload) = set_up(name, seed)
    tracer = Tracer()
    marks = [(0, Counter())]
    plain, spans = Rounds(workload.jobs), Rounds(workload.jobs)
    # alternate untraced and traced rounds, so that drift in the machine's
    # speed lands on both sides of trace.overhead_s alike
    start = perf_counter()
    while len(spans.walls) < MIN_ROUNDS or perf_counter() - start < seconds:
        plain.run_once()
        tracer.install(rs)
        try:
            spans.run_once(tracer)
        finally:
            tracer.uninstall()
        marks.append((len(tracer.spans), Counter(tracer.counts)))
    failing, reasons = spans.check()
    if plain.first != spans.first:
        reasons.append("traced outputs differ from untraced outputs")

    per_round = []
    for (first, before), (last, after), factor in zip(marks, marks[1:], spans.factors):
        self_s = {layer: s / factor for layer, s in tracer.self_times(first, last).items()}
        per_round.append((self_s, tracer.calls(first, last), after - before))
    layer_s = lambda layer: statistics.median(r[0].get(layer, 0.0) for r in per_round)
    _, calls, counts = per_round[0]
    if any(r[1] != calls or r[2] != counts for r in per_round):
        reasons.append("per-layer counts differ between traced rounds")
    results = counts["decolor.results"]

    files_dir = write_files(workload, name, seed)
    cli_s, cli_attempted, cli_failed, cli_reasons, _ = run_cli(workload, files_dir)
    speedups = {"arrows": 0.0, "refutes": 0.0}
    if name == "arrow-graph":
        try:
            speedups = {"arrows": pool_speedup(rs, cpus, 8, 4, 3), "refutes": pool_speedup(rs, cpus, 8, 5, 3)}
        except checker.CheckError as exc:
            reasons.append(str(exc))
    metrics = {
        "values.solve_s": (layer_s("values.solve"), "s"),
        "values.calls": (calls["values.solve"], "count"),
        "exactmath.limit_s": (layer_s("exactmath.limit"), "s"),
        "arrowing.search_s": (layer_s("arrowing.search"), "s"),
        "arrowing.nodes": (counts["arrowing.nodes"], "count"),
        "arrowing.table_s": (layer_s("arrowing.table"), "s"),
        "arrowing.naive_searches": (counts["arrowing.naive_searches"], "count"),
        "arrowing.reduced_searches": (counts["arrowing.reduced_searches"], "count"),
        "arrowing.certify_s": (layer_s("arrowing.certify"), "s"),
        "graphs.clique_s": (layer_s("graphs.clique"), "s"),
        "graphs.matching_s": (layer_s("graphs.matching"), "s"),
        "graphs.matching_calls": (calls["graphs.matching"], "count"),
        "graphs.coloring_s": (layer_s("graphs.coloring"), "s"),
        "graphs.coloring_calls": (calls["graphs.coloring"], "count"),
        "graphs.canon_s": (layer_s("graphs.canon"), "s"),
        "graphs.canon_calls": (calls["graphs.canon"], "count"),
        "graphs.enumerated": (counts["graphs.enumerated"], "count"),
        "decolor.find_s": (layer_s("decolor.find"), "s"),
        "decolor.fallback_calls": (counts["decolor.exact_fallback"], "count"),
        "decolor.heuristic_ratio": (counts["decolor.heuristic"] / results if results else 0.0, "ratio"),
        "cli.import_s": (import_cost(), "s"),
        "cli.overhead_s": (cli_s - cli_in_process(rs, workload, files_dir), "s"),
        "arrowing.pool_speedup_arrows": (speedups["arrows"], "ratio"),
        "arrowing.pool_speedup_refutes": (speedups["refutes"], "ratio"),
        "trace.overhead_s": (statistics.median(b - a for a, b in zip(plain.walls, spans.walls)), "s"),
    }
    raw = {
        "untraced_round_walls_s": plain.walls,
        "traced_round_walls_s": spans.walls,
        "speed_factors": spans.factors,
        "per_round_self_s": [r[0] for r in per_round],
        "calls": dict(calls),
        "counts": dict(counts),
    }
    with open(OUT / f"{name}-seed{seed}-spans.jsonl", "w") as sink:
        for span in tracer.spans:
            sink.write(json.dumps(span) + "\n")
    return result([plain, spans], failing, reasons + cli_reasons, cli_attempted, cli_failed, metrics, raw)


def result(
    runs: list[Rounds], failing: int, reasons: list[str], cli_attempted: int, cli_failed: int, metrics: dict, raw: dict
) -> dict:
    """The JSON report; `failing` jobs fail in every round of every run."""
    rounds = sum(len(run.walls) for run in runs)
    jobs = len(runs[0].jobs)
    problems = reasons + [p for run in runs for p in run.inconsistent]
    return {
        "correct": not [p for p in problems if ": raised " not in p],
        "attempted": rounds * jobs + cli_attempted,
        "failed": rounds * failing + cli_failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "problems": problems,
        "raw": raw,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "rsize" / "__init__.py").is_file():
        print(f"no rsize sources under {SRC}: run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one CPU for the run and the interpreters it starts, so that the speed
    # probes always sample the CPU the measured work runs on
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    mode = traced if args.trace else end_to_end
    report = mode(args.workload, args.seed, args.seconds, cpus)
    OUT.mkdir(exist_ok=True)
    problems, raw = report.pop("problems"), report.pop("raw")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    raw_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    raw_file.write_text(json.dumps({"args": vars(args), "problems": problems, "raw": raw, **report}, indent=1))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

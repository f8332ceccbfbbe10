"""Spans around rsize's public functions, recorded from outside the package.

`Tracer.install` swaps each listed function for a wrapper in every rsize
module that holds it (modules import each other's functions by name, so
a call from `decolor` into `graphs.max_matching` goes through
`decolor.max_matching`).  A wrapper records one span: name, start, end,
parent span and job id.  Spans stay in memory until the run ends.  A
layer's self time is its spans' durations minus the parts covered by
their child spans.

Counters are taken at the same boundaries from the values the calls
return: search nodes and modes from arrowing verdicts, the route a
decoloring result took, and the graphs an enumeration yields.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Callable, Iterator

# layer -> (module, public functions).  Leaf arithmetic and Graph methods
# called in inner loops (binomial, part_cost, Graph.induced) are left
# unwrapped; their time counts as their caller's self time.
LAYERS = {
    "values.solve": ("values", ("g", "g_hat", "g_r", "g_values", "g_hat_values", "size_ramsey", "structural_witness")),
    "exactmath.limit": ("exactmath", ("limit_constant",)),
    "arrowing.search": ("arrowing", ("arrows_pair", "arrows_hyper")),
    "arrowing.table": ("arrowing", ("matching_numbers",)),
    "arrowing.certify": ("arrowing", ("is_good_coloring", "lower_bound_coloring", "lower_bound_coloring_hyper")),
    "graphs.clique": ("graphs", ("has_clique", "has_red_complete_r")),
    "graphs.matching": ("graphs", ("max_matching", "hyper_matching")),
    "graphs.coloring": ("graphs", ("is_k_colorable", "chromatic_number", "coloring_from_assignment")),
    "graphs.canon": ("graphs", ("canonical_form",)),
    "graphs.enumerate": ("graphs", ("enumerate_graphs",)),
    "decolor.find": (
        "decolor",
        ("find_decolor_set", "find_decolor_set_matching", "witness_good_coloring", "max_potential_coloring", "check_tightness_remark"),
    ),
}

JOB = "job"


class Tracer:
    def __init__(self) -> None:
        # (name, start, end, parent index or -1, job id)
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.stack: list[int] = []
        self.job = -1
        self.counts: Counter[str] = Counter()
        self._swapped: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------- recording

    def _open(self) -> tuple[int, int, float]:
        index = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(index)
        return index, parent, perf_counter()

    def _close(self, name: str, index: int, parent: int, start: float) -> None:
        end = perf_counter()
        self.stack.pop()
        self.spans[index] = (name, start, end, parent, self.job)

    def run_job(self, job_id: int, call: Callable[[], Any]) -> Any:
        """Run one job under a root span carrying its id."""
        self.job = job_id
        index, parent, start = self._open()
        try:
            return call()
        finally:
            self._close(JOB, index, parent, start)

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        observe = _OBSERVERS.get(fn.__name__)

        @wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index, parent, start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(layer, index, parent, start)
            if observe is not None:
                observe(self.counts, result)
            return result

        return traced

    def _wrap_generator(self, layer: str, fn: Callable) -> Callable:
        # each step of the generator is its own span: the caller's work
        # between steps must not count as enumeration
        @wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            inner = fn(*args, **kwargs)
            while True:
                index, parent, start = self._open()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(layer, index, parent, start)
                self.counts["graphs.enumerated"] += 1
                yield item

        return traced

    # ------------------------------------------------------------ installing

    def install(self, rs: SimpleNamespace) -> None:
        modules = [m for name, m in sys.modules.items() if name == "rsize" or name.startswith("rsize.")]
        for layer, (module_name, names) in LAYERS.items():
            home = getattr(rs, module_name)
            for name in names:
                fn = getattr(home, name)
                wrap = self._wrap_generator if layer == "graphs.enumerate" else self._wrap
                traced = wrap(layer, fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._swapped.append((module, attr, fn))
                            setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._swapped):
            setattr(module, attr, fn)
        self._swapped.clear()

    # ------------------------------------------------------------- reporting

    def self_times(self, first: int, last: int) -> dict[str, float]:
        """Self time per layer over spans[first:last] (whole jobs only)."""
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans[first:last]:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for index in range(first, last):
            name, start, end, _, _ = self.spans[index]
            out[name] += end - start - child[index]
        return out

    def calls(self, first: int, last: int) -> Counter[str]:
        return Counter(span[0] for span in self.spans[first:last])


def _count_verdict(counts: Counter, verdict: Any) -> None:
    counts["arrowing.nodes"] += verdict.nodes
    counts[f"arrowing.{verdict.mode}_searches"] += 1


def _count_decolor(counts: Counter, result: Any) -> None:
    counts["decolor.results"] += 1
    counts[f"decolor.{result.method}"] += 1


_OBSERVERS = {
    "arrows_pair": _count_verdict,
    "arrows_hyper": _count_verdict,
    "find_decolor_set": _count_decolor,
    "find_decolor_set_matching": _count_decolor,
}

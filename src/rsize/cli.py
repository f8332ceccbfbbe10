"""Command-line surface: values, tables, arrowing checks, verifications.

Every subcommand prints a single JSON object -- the command name, an
echo of its inputs, a structured payload, a status, and the elapsed
wall time -- so runs can be logged and diffed mechanically.  The table
subcommand can emit CSV instead.  Exit codes separate the five ways a
run can end:

  0  the command succeeded (for verifications: ran and passed)
  1  a verification ran to completion and the property failed
  2  the request was unusable (bad flags, unreadable or malformed
     input, hypothesis violation, an n, r or t over the scan limit of
     value, table, decolor and the limit and minimality suites): argparse
     refused it, a file could not be read (OSError), or parsing or
     validation raised RequestError
  3  a search hit its budget and the question is genuinely undecided
  4  an internal fault: a certificate failed its own re-check
     (CertificationError) or some other exception escaped, a ValueError
     that is not a RequestError included; the envelope names the
     exception and the traceback goes to stderr

Exact integers that cannot survive a round trip through an IEEE double
are serialized as decimal strings, however many digits they have, and
rationals as "p/q", so consumers that care can parse everything back
losslessly.  The envelope is serialized inside the same guard as the
command, so a fault there is an exit-4 envelope too.  Search budgets honor
the same RSIZE_BUDGET_EDGES override the library uses.

Each subcommand imports only the layers it runs: value, table and the
limit suite load no search code, and check-arrow loads no values or
decoloring.  Every exception main maps to an exit code lives in
rsize.errors, so catching one imports nothing more.  No subcommand loads
dataclasses, and only table and the limit suite load fractions.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from .errors import Graph6Error, HypergraphFormatError, RequestError, UndecidedError

if TYPE_CHECKING:
    from .graphs import Graph

__all__ = ["main", "run"]

_MODES = ("auto", "naive", "reduced")
# verify's optional flags with their defaults, and the ones each suite
# reads: a flag set to anything else on a suite that ignores it is refused
_VERIFY_DEFAULTS = {
    "n": None, "t": None, "r": None, "T": 50, "flavor": None, "m_max": None, "mode": "auto"
}
_SUITE_FLAGS = {
    "ramsey": ("n", "t", "mode"),
    "hyper-ramsey": ("n", "r", "t", "mode"),
    "tightness": ("n", "t", "flavor"),
    "minimality": ("n", "t", "m_max"),
    "limit": ("n", "T"),
}
_INT_JSON_LIMIT = 1 << 53  # doubles hold integers exactly up to here
_TABLE_CELL_LIMIT = 200
# the witness that value, minimality and decolor compute, table's g_values and limit_constant,
# and the limit suite's quotients all grow linearly in n or t; past this they take seconds
_SCAN_LIMIT = 100_000

_TABLE_COLUMNS = (
    "n",
    "t",
    "g",
    "equality_condition",
    "lower_bound",
    "upper_bound",
    "limit_constant",
)


def _digits(value: int) -> str:
    """Decimal digits of any integer.

    str() refuses integers longer than sys.get_int_max_str_digits() (4,300
    digits by default), and g_r reaches that well inside the scan limit;
    Decimal converts exactly and leaves the process-wide limit alone.
    """
    try:
        return str(value)
    except ValueError:
        from decimal import Decimal  # only huge integers need it

        return str(Decimal(value))


def _jsonify(value: Any) -> Any:
    # bool is an int subclass; test it first
    if isinstance(value, bool) or value is None or isinstance(value, (str, float)):
        return value
    if isinstance(value, int):
        return value if -_INT_JSON_LIMIT <= value <= _INT_JSON_LIMIT else _digits(value)
    # a Fraction, known without importing fractions; every int has a
    # denominator too, so this comes after the int branch
    if hasattr(value, "denominator"):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if hasattr(value, "denominator"):  # a Fraction, as in _jsonify
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def _csv_text(outputs: dict[str, Any]) -> str:
    import csv  # only table --format csv needs it

    stream = io.StringIO()
    writer = csv.writer(stream, lineterminator="\n")  # default dialect quotes per RFC
    columns = outputs["columns"]
    writer.writerow(columns)
    for row in outputs["rows"]:
        writer.writerow([_csv_cell(row[name]) for name in columns])
    return stream.getvalue()


def _parse_range(text: str) -> tuple[int, int]:
    """Parse "N" or "LO:HI" into an inclusive pair."""
    lo, sep, hi = text.partition(":")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError:
        raise RequestError(f"range {text!r} is not of the form N or LO:HI") from None
    if a < 1 or b < a:
        raise RequestError(f"range {text!r} must satisfy 1 <= LO <= HI")
    return a, b


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:  # a ValueError, but the file is at fault
        raise RequestError(f"{path} is not text: {exc.reason} at byte {exc.start}") from None


def _read_graph6_file(path: str) -> Graph:
    from .graphs import from_graph6

    lines = _read_text(path).splitlines()
    return from_graph6(lines[0].strip() if lines else "")


def _within_scan_limit(name: str, value: int) -> None:
    if value > _SCAN_LIMIT:
        raise RequestError(f"{name}={value} is over the limit of {_SCAN_LIMIT}")


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [f"--{name}" for name in names if getattr(args, name) is None]
    if missing:
        raise RequestError(f"suite {args.suite!r} needs {', '.join(missing)}")


# ---------------------------------------------------------------------------
# subcommands; each returns (outputs, exit code)


def _cmd_value(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    from .values import g, g_hat, g_r

    _within_scan_limit("t", args.t)
    if args.r is not None:
        _within_scan_limit("r", args.r)
    if args.hat:
        result = g_hat(args.n, args.t)
    elif args.r is not None:
        result = g_r(args.n, args.r, args.t)
    else:
        result = g(args.n, args.t)
    outputs: dict[str, Any] = {
        "value": result.value,
        "parts": list(result.witness.parts),
        "flavor": result.witness.flavor.value,
    }
    if args.r is not None:
        outputs["r"] = args.r
    return outputs, 0


def _cmd_table(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    from .exactmath import limit_constant
    from .values import bounds, equality_condition, g_values

    n_lo, n_hi = _parse_range(args.n_range)
    t_lo, t_hi = _parse_range(args.t_range)
    _within_scan_limit("n", n_hi)
    _within_scan_limit("t", t_hi)
    if n_lo < 2:
        raise RequestError(f"n range starts at {n_lo}; need n >= 2")
    cells = (n_hi - n_lo + 1) * (t_hi - t_lo + 1)
    if cells > _TABLE_CELL_LIMIT:
        raise RequestError(f"table would have {cells} cells; the limit is {_TABLE_CELL_LIMIT}")
    rows = []
    for n in range(n_lo, n_hi + 1):
        by_t = g_values(n, t_hi)
        m_n, _ = limit_constant(n, n)
        for t in range(t_lo, t_hi + 1):
            lower, upper = bounds(n, t) if n >= 3 else (None, None)
            rows.append(
                {
                    "n": n,
                    "t": t,
                    "g": by_t[t],
                    "equality_condition": equality_condition(n, t),
                    "lower_bound": lower,
                    "upper_bound": upper,
                    "limit_constant": m_n,
                }
            )
    return {"columns": list(_TABLE_COLUMNS), "rows": rows}, 0


def _cmd_check_arrow(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    from .arrowing import arrows_hyper, arrows_pair
    from .graphs import hypergraph_from_text

    if args.host is not None:
        verdict = arrows_pair(_read_graph6_file(args.host), args.n, args.t, search=args.mode)
    else:
        host = hypergraph_from_text(_read_text(args.hyper))
        verdict = arrows_hyper(host, args.n, args.t, search=args.mode)
    blue = None
    if verdict.counterexample is not None:
        blue = [list(edge) for edge in verdict.counterexample.blue_edges()]
    outputs = {
        "arrows": verdict.arrows,
        "counterexample_blue_edges": blue,
        "mode": verdict.mode,
        "nodes_explored": verdict.nodes,
    }
    return outputs, 0


def _cmd_verify(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    suite = args.suite
    ignored = [
        "--" + name.replace("_", "-")
        for name, default in _VERIFY_DEFAULTS.items()
        if name not in _SUITE_FLAGS[suite] and getattr(args, name) != default
    ]
    if ignored:
        raise RequestError(f"suite {suite!r} does not read {', '.join(ignored)}")
    if suite == "ramsey":
        from .arrowing import verify_graph_ramsey

        _require(args, "n", "t")
        ok = verify_graph_ramsey(args.n, args.t, search=args.mode)
        return {"pass": ok}, 0 if ok else 1
    if suite == "hyper-ramsey":
        from .arrowing import verify_hyper_ramsey

        _require(args, "n", "r", "t")
        ok = verify_hyper_ramsey(args.n, args.r, args.t, search=args.mode)
        return {"pass": ok}, 0 if ok else 1
    if suite == "tightness":
        from .decolor import check_tightness_remark
        from .values import Flavor

        _require(args, "n", "t", "flavor")
        flavor = Flavor.GHAT if args.flavor == "ghat" else Flavor.G
        ok = check_tightness_remark(args.n, args.t, flavor)
        return {"pass": ok}, 0 if ok else 1
    if suite == "minimality":
        from .arrowing import BRUTEFORCE_MAX_EDGES, min_size_ramsey_bruteforce
        from .values import g

        _require(args, "n", "t")
        _within_scan_limit("t", args.t)
        expected = g(args.n, args.t).value
        m_max = args.m_max if args.m_max is not None else min(BRUTEFORCE_MAX_EDGES, expected)
        found = min_size_ramsey_bruteforce(args.n, args.t, m_max)
        # not finding anything is consistent exactly when the true value
        # lies beyond the searched range
        ok = found == expected if found is not None else expected > m_max
        outputs = {
            "min_edges": found,
            "expected": expected,
            "searched_through": m_max,
            "pass": ok,
        }
        return outputs, 0 if ok else 1
    return _verify_limit(args)


def _verify_limit(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    """Normalized values against their limit: the whole sequence up to T.

    Every quotient g(n,t)/(t*C(n,2)) must sit at or above the limit
    constant, and once T reaches n the running minimum must have landed
    on it exactly.
    """
    from fractions import Fraction  # only this suite and table make rationals

    from .exactmath import binomial, limit_constant
    from .values import g_values

    _require(args, "n")
    n, t_cap = args.n, args.T
    _within_scan_limit("max(n, T)", max(n, t_cap))
    if t_cap < 1:
        raise RequestError(f"need --T >= 1, got {t_cap}")
    m_n, _ = limit_constant(n, max(n, t_cap))
    base = binomial(n, 2)
    by_t = g_values(n, t_cap)
    quotients = [Fraction(by_t[t], t * base) for t in range(1, t_cap + 1)]
    running = []
    best = quotients[0]
    for q in quotients:
        best = min(best, q)
        running.append(best)
    min_q = running[-1]
    attains = min_q == m_n
    ok = all(q >= m_n for q in quotients) and (attains or t_cap < n)
    outputs = {
        "limit_constant": m_n,
        "quotients": quotients,
        "running_min": running,
        "min_quotient": min_q,
        "attained_at": 1 + quotients.index(min_q) if attains else None,
        "approach_gap": float(quotients[-1] - m_n),
        "pass": ok,
    }
    return outputs, 0 if ok else 1


def _cmd_decolor(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    from .decolor import _witness_coloring, find_decolor_set, find_decolor_set_matching

    _within_scan_limit("t", args.t)
    host = _read_graph6_file(args.host)
    find = find_decolor_set_matching if args.matching else find_decolor_set
    result = find(host, args.n, args.t)
    kept = [v for v in range(host.n) if not result.removed >> v & 1]
    coloring = result.residual_coloring
    classes = [
        sorted(kept[i] for i in coloring.class_vertices(c))
        for c in range(coloring.num_colors)
    ]
    outputs: dict[str, Any] = {
        "removed": list(result.removed_vertices()),
        "removed_size": result.removed_size(),
        "method": result.method,
        "residual_classes": classes,
        "residual_colors": coloring.num_colors,
    }
    if args.matching:
        witness = _witness_coloring(result)
        outputs["matching_in_set"] = result.matching_in_set
        outputs["witness_blue_edges"] = [list(edge) for edge in witness.blue_edges()]
    return outputs, 0


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsize",
        description="Exact size-Ramsey values for cliques versus matchings, with verifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("value", help="one exact value with its witness partition")
    p.add_argument("--n", type=int, required=True, help="clique order")
    p.add_argument("--t", type=int, required=True, help="number of stripes")
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--hat", action="store_true", help="one-per-stripe variant")
    kind.add_argument("--r", type=int, help="r-uniform variant with this uniformity")
    p.set_defaults(handler=_cmd_value)

    p = sub.add_parser("table", help="grid of values with bounds and the limit constant")
    p.add_argument("--n-range", required=True, metavar="LO:HI", help="inclusive, or a single N")
    p.add_argument("--t-range", required=True, metavar="LO:HI", help="inclusive, or a single T")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("check-arrow", help="search a host for a coloring with neither target")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--host", help="graph6 file")
    which.add_argument("--hyper", help="hypergraph text file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--mode", choices=_MODES, default="auto")
    p.set_defaults(handler=_cmd_check_arrow)

    p = sub.add_parser("verify", help="run one verification suite")
    p.add_argument(
        "--suite",
        required=True,
        choices=tuple(_SUITE_FLAGS),
    )
    p.add_argument("--n", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--r", type=int, help="uniformity (hyper-ramsey)")
    p.add_argument("--T", type=int, help="largest stripe count (limit)")
    p.add_argument("--flavor", choices=("g", "ghat"), help="threshold flavor (tightness)")
    p.add_argument("--m-max", type=int, dest="m_max", help="search ceiling (minimality)")
    p.add_argument("--mode", choices=_MODES, help="search (ramsey, hyper-ramsey)")
    p.set_defaults(handler=_cmd_verify, **_VERIFY_DEFAULTS)

    p = sub.add_parser("decolor", help="vertex set whose removal leaves an (n-2)-colorable graph")
    p.add_argument("--host", required=True, help="graph6 file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument(
        "--matching",
        action="store_true",
        help="bound the matching inside the set and emit the witness coloring",
    )
    p.set_defaults(handler=_cmd_decolor)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage or help
        return 0 if exc.code in (0, None) else 2
    inputs = {k: v for k, v in vars(args).items() if k not in ("command", "handler")}
    start = time.perf_counter()
    try:
        outputs, code = args.handler(args)
        # serialized here, so a fault in serializing is an envelope too
        text = _render(args, inputs, outputs, code, start)
    except UndecidedError as exc:
        outputs, code = {"message": str(exc)}, 3
    except Graph6Error as exc:
        outputs, code = {"message": str(exc), "offset": exc.offset}, 2
    except HypergraphFormatError as exc:
        outputs, code = {"message": str(exc), "line": exc.line}, 2
    except (RequestError, OSError) as exc:
        outputs, code = {"message": str(exc)}, 2
    except Exception as exc:  # a defect: still one envelope on stdout
        import traceback  # only a fault needs it; keeps the import light

        traceback.print_exc(file=sys.stderr)
        outputs, code = {"message": str(exc), "exception": type(exc).__name__}, 4
    else:
        sys.stdout.write(text)
        return code
    sys.stdout.write(_render(args, inputs, outputs, code, start))
    return code


def _render(
    args: argparse.Namespace, inputs: dict[str, Any], outputs: dict[str, Any], code: int, start: float
) -> str:
    """The text main prints: CSV for a successful CSV table, else the JSON envelope."""
    if args.command == "table" and args.format == "csv" and code == 0:
        return _csv_text(outputs)
    elapsed_ms = round((time.perf_counter() - start) * 1000)
    status = "ok" if code == 0 else "undecided" if code == 3 else "error"
    envelope = {
        "command": args.command,
        "inputs": _jsonify(inputs),
        "outputs": _jsonify(outputs),
        "status": status,
        "elapsed_ms": elapsed_ms,
    }
    return json.dumps(envelope, indent=2) + "\n"


def run() -> None:
    raise SystemExit(main())

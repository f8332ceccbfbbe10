import csv
import importlib
import io
import json
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from importlib.resources import files

import jsonschema
import pytest

from rsize import cli, decolor, errors
from rsize.arrowing import CertificationError
from rsize.cli import _jsonify, main
from rsize.errors import RequestError
from rsize.graphs import (
    CapacityError,
    Graph,
    Graph6Error,
    HypergraphFormatError,
    complete,
    complete_r,
    disjoint_union,
    hypergraph_to_text,
    to_graph6,
)
from rsize.values import g_r

SCHEMA = json.loads(
    (files("rsize") / "schemas" / "command_result.schema.json").read_text()
)
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    """Run a JSON-emitting invocation; every envelope must satisfy the schema."""
    code, out = run_cli(capsys, *argv)
    payload = json.loads(out)
    VALIDATOR.validate(payload)
    return code, payload


def parse_fraction(text):
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den))


def write_graph6(tmp_path, name, graph):
    path = tmp_path / name
    path.write_text(to_graph6(graph) + "\n")
    return str(path)


# -- envelope + serialization ------------------------------------------------


def test_schema_is_itself_valid():
    jsonschema.Draft202012Validator.check_schema(SCHEMA)


def test_schema_rejects_extra_and_missing_fields(capsys):
    _, payload = run_json(capsys, "value", "--n", "2", "--t", "1")
    doctored = dict(payload, extra="x")
    with pytest.raises(jsonschema.ValidationError):
        VALIDATOR.validate(doctored)
    del payload["status"]
    with pytest.raises(jsonschema.ValidationError):
        VALIDATOR.validate(payload)


def test_jsonify_boundaries():
    assert _jsonify(2**53) == 2**53
    assert _jsonify(2**53 + 1) == str(2**53 + 1)
    assert _jsonify(-(2**53) - 1) == str(-(2**53) - 1)
    assert _jsonify(Fraction(14, 15)) == "14/15"
    assert _jsonify(True) is True  # bool must not hit the integer branch
    assert _jsonify({"a": (1, None)}) == {"a": [1, None]}


def test_value_pinned_examples(capsys):
    code, payload = run_json(capsys, "value", "--n", "6", "--t", "2")
    assert code == 0
    assert payload["status"] == "ok"
    assert payload["outputs"]["value"] == 28
    assert payload["outputs"]["parts"] == [2]

    code, payload = run_json(capsys, "value", "--n", "3", "--t", "5", "--hat")
    assert code == 0
    assert payload["outputs"]["value"] == 10
    assert payload["outputs"]["flavor"] == "ghat"

    code, payload = run_json(capsys, "value", "--n", "4", "--r", "3", "--t", "2")
    assert code == 0
    assert payload["outputs"]["value"] == 8
    assert payload["outputs"]["r"] == 3
    assert payload["inputs"]["n"] == 4


def test_value_beyond_double_precision_is_a_string(capsys):
    code, payload = run_json(capsys, "value", "--n", "60", "--r", "30", "--t", "2")
    assert code == 0
    value = payload["outputs"]["value"]
    assert isinstance(value, str)
    assert int(value) == g_r(60, 30, 2).value > 2**53


def test_value_usage_errors(capsys):
    code, payload = run_json(capsys, "value", "--n", "1", "--t", "2")
    assert code == 2
    assert payload["status"] == "error"
    assert "n >= 2" in payload["outputs"]["message"]

    # conflicting variant flags are rejected by the parser itself
    code, out = run_cli(capsys, "value", "--n", "4", "--t", "2", "--hat", "--r", "3")
    assert code == 2
    assert out == ""

    code, out = run_cli(capsys, "value", "--n", "four", "--t", "2")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        # the witness has about t parts: t = 10^7 would print about 90 MB
        ("value", "--n", "5", "--t", "10000000"),
        # one cell, but g_values and limit_constant are linear in n
        ("table", "--n-range", "1000000", "--t-range", "1"),
        ("verify", "--suite", "limit", "--n", "5", "--T", "200000"),
        # g_r is linear in r too: r = 400,000 took about 30 s
        ("value", "--n", "400000", "--r", "400000", "--t", "2"),
        # both build a witness of about t or 2t parts before any other work
        ("verify", "--suite", "minimality", "--n", "3", "--t", "200000"),
        ("decolor", "--host", "{k4}", "--n", "3", "--t", "200000"),
    ],
    ids=["value", "table", "verify-limit", "value-r", "verify-minimality", "decolor"],
)
def test_over_scan_limit_is_refused_before_any_work(capsys, tmp_path, argv):
    argv = [arg.format(k4=write_graph6(tmp_path, "k4.g6", complete(4))) for arg in argv]
    start = time.perf_counter()
    code, payload = run_json(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert payload["status"] == "error"
    assert str(cli._SCAN_LIMIT) in payload["outputs"]["message"]


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "value", "--help")[0] == 0


# -- table -------------------------------------------------------------------


def test_table_two_stripe_row(capsys):
    code, payload = run_json(capsys, "table", "--n-range", "2:10", "--t-range", "2")
    assert code == 0
    rows = payload["outputs"]["rows"]
    assert [r["g"] for r in rows] == [2, 6, 12, 20, 28, 36, 45, 55, 66]
    assert [r["equality_condition"] for r in rows] == [False] * 4 + [True] * 5
    by_n = {r["n"]: r for r in rows}
    assert by_n[6]["limit_constant"] == "14/15"
    assert by_n[2]["lower_bound"] is None and by_n[2]["upper_bound"] is None
    assert by_n[3]["lower_bound"] == 4 and by_n[3]["upper_bound"] is None


def test_table_equality_column_flips(capsys):
    _, payload = run_json(capsys, "table", "--n-range", "10", "--t-range", "1:8")
    flags = [r["equality_condition"] for r in payload["outputs"]["rows"]]
    assert flags == [True] * 5 + [False] * 3


def test_table_csv_output(capsys):
    code, out = run_cli(
        capsys, "table", "--n-range", "2:10", "--t-range", "2", "--format", "csv"
    )
    assert code == 0
    assert "\r" not in out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [
        "n", "t", "g", "equality_condition", "lower_bound", "upper_bound", "limit_constant",
    ]
    assert len(rows) == 10
    assert rows[5] == ["6", "2", "28", "true", "28", "28", "14/15"]
    assert rows[1] == ["2", "2", "2", "false", "", "", "1/1"]


def test_table_single_cell_agrees_with_value(capsys):
    _, table = run_json(capsys, "table", "--n-range", "6", "--t-range", "2")
    _, value = run_json(capsys, "value", "--n", "6", "--t", "2")
    (row,) = table["outputs"]["rows"]
    assert row["g"] == value["outputs"]["value"] == 28


def test_table_range_errors(capsys):
    code, payload = run_json(capsys, "table", "--n-range", "2:30", "--t-range", "1:30")
    assert code == 2
    assert "200" in payload["outputs"]["message"]

    code, payload = run_json(capsys, "table", "--n-range", "2-10", "--t-range", "2")
    assert code == 2

    code, payload = run_json(capsys, "table", "--n-range", "5:3", "--t-range", "2")
    assert code == 2


# -- check-arrow ---------------------------------------------------------------


def test_check_arrow_host_that_arrows(capsys, tmp_path):
    path = write_graph6(tmp_path, "2k3.g6", disjoint_union([complete(3), complete(3)]))
    code, payload = run_json(capsys, "check-arrow", "--host", path, "--n", "3", "--t", "2")
    assert code == 0
    assert payload["outputs"]["arrows"] is True
    assert payload["outputs"]["counterexample_blue_edges"] is None


def test_check_arrow_counterexample_edges(capsys, tmp_path):
    path = write_graph6(tmp_path, "k4.g6", complete(4))
    code, payload = run_json(
        capsys, "check-arrow", "--host", path, "--n", "3", "--t", "2", "--mode", "naive"
    )
    assert code == 0
    out = payload["outputs"]
    assert out["arrows"] is False
    assert out["counterexample_blue_edges"] == [[0, 1], [0, 2], [1, 2]]
    assert out["mode"] == "naive"
    assert out["nodes_explored"] > 0
    # auto runs the structural search on graph hosts
    code, payload = run_json(capsys, "check-arrow", "--host", path, "--n", "3", "--t", "2")
    assert code == 0
    assert payload["outputs"]["arrows"] is False
    assert payload["outputs"]["mode"] == "structural"


def test_check_arrow_hypergraph_file(capsys, tmp_path):
    path = tmp_path / "k5_3.hg"
    path.write_text(hypergraph_to_text(complete_r(5, 3)))
    code, payload = run_json(
        capsys, "check-arrow", "--hyper", str(path), "--n", "3", "--t", "2"
    )
    assert code == 0
    assert payload["outputs"]["arrows"] is False
    # every counterexample edge is a triple
    assert all(len(e) == 3 for e in payload["outputs"]["counterexample_blue_edges"])


def test_check_arrow_sparse_wide_hypergraph_is_fast(capsys, tmp_path):
    # C(32, 16) windows exist, but no vertex has the degree a red K_16^(3) needs
    path = tmp_path / "sparse.hg"
    path.write_text("32 3\n0 1 2\n3 4 5\n")
    start = time.perf_counter()
    code, payload = run_json(
        capsys, "check-arrow", "--hyper", str(path), "--n", "16", "--t", "2"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert payload["outputs"]["arrows"] is False


def test_check_arrow_malformed_graph6(capsys, tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("Bww\n")
    code, payload = run_json(capsys, "check-arrow", "--host", str(path), "--n", "3", "--t", "2")
    assert code == 2
    assert payload["status"] == "error"
    assert payload["outputs"]["offset"] == 2


def test_check_arrow_missing_file(capsys, tmp_path):
    code, payload = run_json(
        capsys, "check-arrow", "--host", str(tmp_path / "absent.g6"), "--n", "3", "--t", "2"
    )
    assert code == 2
    assert payload["status"] == "error"


def test_check_arrow_binary_file_is_a_bad_request(capsys, tmp_path):
    # a UnicodeDecodeError is a ValueError, but here the file is at fault
    path = tmp_path / "bin.txt"
    path.write_bytes(b"\xff\xfe\x00")
    for flag in ("--host", "--hyper"):
        code, payload = run_json(capsys, "check-arrow", flag, str(path), "--n", "3", "--t", "2")
        assert code == 2
        assert "is not text" in payload["outputs"]["message"]


def test_check_arrow_budget_and_override(capsys, tmp_path, monkeypatch):
    path = write_graph6(tmp_path, "k9.g6", complete(9))  # 36 edges, over the default budget
    code, payload = run_json(capsys, "check-arrow", "--host", path, "--n", "3", "--t", "2")
    assert code == 3
    assert payload["status"] == "undecided"
    assert "budget" in payload["outputs"]["message"]

    monkeypatch.setenv("RSIZE_BUDGET_EDGES", "40")
    code, payload = run_json(capsys, "check-arrow", "--host", path, "--n", "3", "--t", "2")
    assert code == 0
    assert payload["outputs"]["arrows"] is True


def test_check_arrow_rejects_nonpositive_budget(capsys, tmp_path, monkeypatch):
    path = write_graph6(tmp_path, "k4.g6", complete(4))
    # past int()'s 4,300-digit limit
    for bad in ("0", "-3", "9" * 5000):
        monkeypatch.setenv("RSIZE_BUDGET_EDGES", bad)
        code, payload = run_json(capsys, "check-arrow", "--host", path, "--n", "3", "--t", "2")
        assert code == 2
        assert payload["status"] == "error"
        assert "RSIZE_BUDGET_EDGES" in payload["outputs"]["message"]


# -- verify --------------------------------------------------------------------


def test_verify_ramsey_passes(capsys):
    code, payload = run_json(capsys, "verify", "--suite", "ramsey", "--n", "3", "--t", "2")
    assert code == 0
    assert payload["outputs"]["pass"] is True
    # auto decides the K_8 host by the structural search
    code, payload = run_json(capsys, "verify", "--suite", "ramsey", "--n", "4", "--t", "3")
    assert code == 0
    assert payload["outputs"]["pass"] is True


def test_verify_minimality_pinned(capsys):
    code, payload = run_json(
        capsys, "verify", "--suite", "minimality", "--n", "3", "--t", "2"
    )
    assert code == 0
    out = payload["outputs"]
    assert out["min_edges"] == 6
    assert out["expected"] == 6
    assert out["pass"] is True


def test_verify_minimality_unreachable_value_is_consistent(capsys):
    # g(3,3) = 9 > the brute-force ceiling of 8: nothing found, still a pass
    code, payload = run_json(
        capsys, "verify", "--suite", "minimality", "--n", "3", "--t", "3", "--m-max", "4"
    )
    assert code == 0
    assert payload["outputs"]["min_edges"] is None
    assert payload["outputs"]["pass"] is True


def test_verify_tightness(capsys):
    code, payload = run_json(
        capsys, "verify", "--suite", "tightness", "--n", "4", "--t", "1",
        "--flavor", "ghat",
    )
    assert code == 0
    assert payload["outputs"]["pass"] is True

    code, payload = run_json(
        capsys, "verify", "--suite", "tightness", "--n", "7", "--t", "2", "--flavor", "g"
    )
    assert code == 3
    assert payload["status"] == "undecided"


def test_verify_limit_pinned_quotients(capsys):
    code, payload = run_json(capsys, "verify", "--suite", "limit", "--n", "6", "--T", "12")
    assert code == 0
    out = payload["outputs"]
    assert out["limit_constant"] == "14/15"
    assert out["quotients"][1] == "14/15"  # exact already at t = 2
    assert out["attained_at"] == 2
    assert len(out["quotients"]) == 12
    m_n = parse_fraction(out["limit_constant"])
    quotients = [parse_fraction(q) for q in out["quotients"]]
    running = [parse_fraction(q) for q in out["running_min"]]
    assert all(q >= m_n for q in quotients)
    assert running == [min(quotients[: i + 1]) for i in range(len(quotients))]
    assert out["pass"] is True


def test_verify_limit_small_n(capsys):
    # degenerate clique sizes still normalize to a constant sequence at 1
    code, payload = run_json(capsys, "verify", "--suite", "limit", "--n", "2", "--T", "6")
    assert code == 0
    assert payload["outputs"]["limit_constant"] == "1/1"
    assert set(payload["outputs"]["quotients"]) == {"1/1"}


def test_verify_hyper_ramsey_over_budget_is_undecided_before_building(capsys):
    # K_22^11 would have 705,432 edges; the budget refuses it unbuilt
    start = time.perf_counter()
    code, payload = run_json(capsys, "verify", "--suite", "hyper-ramsey", "--n", "11", "--r", "11", "--t", "2")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert payload["status"] == "undecided"
    assert "705432 edges" in payload["outputs"]["message"]
    # 34 vertices is past the hypergraph capacity: still a bad request
    code, payload = run_json(capsys, "verify", "--suite", "hyper-ramsey", "--n", "30", "--r", "2", "--t", "3")
    assert code == 2
    assert "34" in payload["outputs"]["message"]


def test_verify_missing_scoped_flags(capsys):
    code, payload = run_json(capsys, "verify", "--suite", "ramsey", "--n", "3")
    assert code == 2
    assert "--t" in payload["outputs"]["message"]

    code, payload = run_json(capsys, "verify", "--suite", "hyper-ramsey", "--n", "3", "--t", "2")
    assert code == 2
    assert "--r" in payload["outputs"]["message"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("--suite", "minimality", "--n", "3", "--t", "2", "--mode", "naive"), "--mode"),
        (("--suite", "tightness", "--n", "4", "--t", "1", "--flavor", "g", "--mode", "naive"), "--mode"),
        (("--suite", "limit", "--n", "6", "--T", "12", "--mode", "naive"), "--mode"),
        (("--suite", "ramsey", "--n", "3", "--t", "2", "--m-max", "4"), "--m-max"),
        (("--suite", "limit", "--n", "6", "--m-max", "4"), "--m-max"),
        (("--suite", "ramsey", "--n", "3", "--t", "2", "--flavor", "g"), "--flavor"),
        (("--suite", "minimality", "--n", "3", "--t", "2", "--flavor", "ghat"), "--flavor"),
        (("--suite", "ramsey", "--n", "3", "--t", "2", "--r", "3"), "--r"),
        (("--suite", "tightness", "--n", "4", "--t", "1", "--flavor", "g", "--r", "3"), "--r"),
        (("--suite", "limit", "--n", "6", "--t", "2"), "--t"),
        (("--suite", "ramsey", "--n", "3", "--t", "2", "--T", "12"), "--T"),
    ],
)
def test_verify_refuses_flags_the_suite_ignores(capsys, argv, flag):
    code, payload = run_json(capsys, "verify", *argv)
    assert code == 2 and payload["status"] == "error"
    assert payload["outputs"]["message"].endswith(f"does not read {flag}")


def test_verify_accepts_default_flags_the_suite_ignores(capsys):
    # an explicit default changes nothing the suite does, so it is not refused
    code, payload = run_json(
        capsys, "verify", "--suite", "minimality", "--n", "3", "--t", "2", "--mode", "auto"
    )
    assert code == 0 and payload["outputs"]["min_edges"] == 6
    code, payload = run_json(
        capsys, "verify", "--suite", "ramsey", "--n", "3", "--t", "2", "--mode", "naive", "--T", "50"
    )
    assert code == 0 and payload["outputs"]["pass"] is True


# -- decolor -------------------------------------------------------------------


def test_decolor_clique_example(capsys, tmp_path):
    path = write_graph6(tmp_path, "k4.g6", complete(4))
    code, payload = run_json(capsys, "decolor", "--host", path, "--n", "4", "--t", "2")
    assert code == 0
    out = payload["outputs"]
    assert out["removed_size"] == 2
    assert out["residual_colors"] <= 2
    assert out["method"] == "heuristic"
    # classes partition the kept vertices
    kept = sorted(v for cls in out["residual_classes"] for v in cls)
    assert kept == [v for v in range(4) if v not in out["removed"]]


def test_decolor_matching_variant(capsys, tmp_path):
    path = write_graph6(tmp_path, "2k2.g6", disjoint_union([complete(2), complete(2)]))
    code, payload = run_json(
        capsys, "decolor", "--host", path, "--n", "3", "--t", "2", "--matching"
    )
    assert code == 0
    out = payload["outputs"]
    assert out["removed_size"] == 2  # a minimum cover of two disjoint edges
    assert out["matching_in_set"] <= 1
    removed = set(out["removed"])
    assert all(set(e) <= removed for e in out["witness_blue_edges"])


def test_decolor_matching_runs_the_construction_once(capsys, monkeypatch, tmp_path):
    calls = []
    construct = decolor._decolor

    def counted(*args, **kwargs):
        calls.append(args)
        return construct(*args, **kwargs)

    monkeypatch.setattr(decolor, "_decolor", counted)
    path = write_graph6(tmp_path, "k4.g6", complete(4))
    code, payload = run_json(capsys, "decolor", "--host", path, "--n", "4", "--t", "2", "--matching")
    assert code == 0 and payload["outputs"]["witness_blue_edges"] == [[2, 3]]
    assert len(calls) == 1


def test_decolor_missed_bound_is_exit_4(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(decolor, "min_vertex_cover", lambda graph: tuple(range(graph.n)))
    path = write_graph6(tmp_path, "p3.g6", Graph(3, [(0, 1), (1, 2)]))
    code, payload = run_json(capsys, "decolor", "--host", path, "--n", "3", "--t", "1", "--matching")
    assert code == 4
    assert payload["outputs"]["exception"] == "CertificationError"


def test_decolor_past_the_vertex_bound_is_undecided(capsys, tmp_path):
    path = write_graph6(tmp_path, "big.g6", complete(decolor.DECOLOR_MAX_VERTICES + 1))
    for extra in ((), ("--matching",)):
        code, payload = run_json(capsys, "decolor", "--host", path, "--n", "4", "--t", "200", *extra)
        assert code == 3
        assert payload["status"] == "undecided"
        assert str(decolor.DECOLOR_MAX_VERTICES) in payload["outputs"]["message"]


def test_decolor_hypothesis_violation_names_both_numbers(capsys, tmp_path):
    path = write_graph6(tmp_path, "k4.g6", complete(4))
    code, payload = run_json(capsys, "decolor", "--host", path, "--n", "3", "--t", "1")
    assert code == 2
    message = payload["outputs"]["message"]
    assert "6" in message and "2" in message  # |E| and the threshold


# -- internal faults -------------------------------------------------------------


@pytest.mark.parametrize(
    "fault",
    [
        CertificationError("witness failed re-verification"),
        ZeroDivisionError("boom"),
        # argparse types every flag, so no request reaches a TypeError
        TypeError("wrong call"),
        # only a RequestError is a bad request; any other ValueError is a defect
        ValueError("bad value"),
    ],
)
def test_internal_fault_is_an_envelope_with_exit_4(capsys, monkeypatch, fault):
    def broken(args):
        raise fault

    monkeypatch.setattr(cli, "_cmd_verify", broken)
    code = main(["verify", "--suite", "ramsey", "--n", "3", "--t", "2"])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    VALIDATOR.validate(payload)
    assert code == 4
    assert payload["status"] == "error"
    assert payload["outputs"] == {"message": str(fault), "exception": type(fault).__name__}
    assert "Traceback" in captured.err


def test_input_errors_are_request_errors():
    for cls in (Graph6Error, HypergraphFormatError, CapacityError, decolor.HypothesisError):
        assert issubclass(cls, RequestError)
    # validation in the library raises it too, so the CLI maps it to exit 2
    with pytest.raises(RequestError):
        g_r(3, 1, 2)


def test_request_error_from_a_handler_is_exit_2(capsys, monkeypatch):
    def refuse(args):
        raise RequestError("no such request")

    monkeypatch.setattr(cli, "_cmd_verify", refuse)
    code, payload = run_json(capsys, "verify", "--suite", "ramsey", "--n", "3", "--t", "2")
    assert code == 2
    assert payload["outputs"] == {"message": "no such request"}


def test_integers_past_the_str_digit_limit_are_decimal_strings(capsys):
    # C(15000, 7500) has about 4,500 digits, past str()'s default limit of
    # 4,300; the value comes out exact and the process-wide limit stays
    limit = sys.get_int_max_str_digits()
    code, payload = run_json(capsys, "value", "--n", "15000", "--r", "7500", "--t", "1")
    assert code == 0
    text = payload["outputs"]["value"]
    assert len(text) > limit and Decimal(text) == g_r(15000, 7500, 1).value
    assert sys.get_int_max_str_digits() == limit


def test_a_fault_in_serializing_is_one_envelope(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_cmd_verify", lambda args: ({"pass": object()}, 0))
    code = main(["verify", "--suite", "ramsey", "--n", "3", "--t", "2"])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)  # one JSON object and nothing else
    VALIDATOR.validate(payload)
    assert code == 4
    assert payload["outputs"]["exception"] == "TypeError"
    assert "Traceback" in captured.err


# -- process-level entry ---------------------------------------------------------


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "rsize", "value", "--n", "6", "--t", "2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    VALIDATOR.validate(payload)
    assert payload["outputs"]["value"] == 28


def test_exit_code_surfaces_in_subprocess(tmp_path):
    path = tmp_path / "k9.g6"
    path.write_text(to_graph6(complete(9)) + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "rsize", "check-arrow", "--host", str(path),
         "--n", "3", "--t", "2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 3


# -- import footprint and exception homes ------------------------------------------

_VALUE_LAYERS = {"rsize.cli", "rsize.errors", "rsize.records", "rsize.exactmath", "rsize.values"}
_SEARCH_LAYERS = {"rsize.cli", "rsize.errors", "rsize.records", "rsize.graphs", "rsize.arrowing"}
_EVERY_LAYER = _VALUE_LAYERS | _SEARCH_LAYERS | {"rsize.decolor"}
# the standard-library modules whose import the footprint pins
_HEAVY_STDLIB = ("dataclasses", "fractions")

# runs main on its arguments, then reports the exit code, the loaded rsize
# modules and, after a "|", the heavy modules that rsize itself imported
# (measured against the probe's own modules, so a site hook does not count)
_FOOTPRINT_PROBE = f"""
import sys
before = set(sys.modules)
from rsize.cli import main
code = main(sys.argv[1:])
added = [m for m in {_HEAVY_STDLIB!r} if m in sys.modules and m not in before]
print(code, *sorted(m for m in sys.modules if m.startswith("rsize.")), "|", *added, file=sys.stderr)
"""


@pytest.mark.parametrize(
    "argv, loaded, heavy",
    [
        (("value", "--n", "6", "--t", "2"), _VALUE_LAYERS, []),
        (("table", "--n-range", "3:4", "--t-range", "1:3"), _VALUE_LAYERS, ["fractions"]),
        (("verify", "--suite", "limit", "--n", "6", "--T", "12"), _VALUE_LAYERS, ["fractions"]),
        (("verify", "--suite", "ramsey", "--n", "3", "--t", "2"), _SEARCH_LAYERS, []),
        (("verify", "--suite", "hyper-ramsey", "--n", "3", "--r", "3", "--t", "2"), _SEARCH_LAYERS, []),
        (("check-arrow", "--host", "{dir}/k5.g6", "--n", "3", "--t", "2"), _SEARCH_LAYERS, []),
        (("check-arrow", "--hyper", "{dir}/k5_3.hg", "--n", "3", "--t", "2"), _SEARCH_LAYERS, []),
        (("verify", "--suite", "minimality", "--n", "3", "--t", "2"), _VALUE_LAYERS | _SEARCH_LAYERS, []),
        (("verify", "--suite", "tightness", "--n", "4", "--t", "1", "--flavor", "g"), _EVERY_LAYER, []),
        (("decolor", "--host", "{dir}/k4.g6", "--n", "4", "--t", "2"), _EVERY_LAYER, []),
    ],
    ids=[
        "value",
        "table",
        "limit",
        "ramsey",
        "hyper-ramsey",
        "check-arrow-host",
        "check-arrow-hyper",
        "minimality",
        "tightness",
        "decolor",
    ],
)
def test_each_subcommand_loads_only_the_layers_it_runs(tmp_path, argv, loaded, heavy):
    write_graph6(tmp_path, "k5.g6", complete(5))
    write_graph6(tmp_path, "k4.g6", complete(4))
    (tmp_path / "k5_3.hg").write_text(hypergraph_to_text(complete_r(5, 3)))
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_PROBE, *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    code, *modules = proc.stderr.split()
    assert code == "0", proc.stderr
    bar = modules.index("|")
    assert set(modules[:bar]) == loaded
    # no subcommand loads dataclasses; only rationals need fractions
    assert modules[bar + 1 :] == heavy


@pytest.mark.parametrize(
    "module, name",
    [
        ("graphs", "CapacityError"),
        ("graphs", "CertificationError"),
        ("graphs", "Graph6Error"),
        ("graphs", "HypergraphFormatError"),
        ("arrowing", "CertificationError"),
        ("arrowing", "UndecidedError"),
        ("decolor", "CertificationError"),
        ("decolor", "HypothesisError"),
        ("decolor", "UndecidedError"),
    ],
)
def test_each_exception_is_one_class_under_its_old_and_new_paths(module, name):
    old = getattr(importlib.import_module(f"rsize.{module}"), name)
    assert old is getattr(errors, name)
    assert name in errors.__all__


@pytest.mark.parametrize(
    "raised, code, outputs",
    [
        (Graph6Error("bad byte", 5), 2, {"message": "bad byte (byte offset 5)", "offset": 5}),
        (HypergraphFormatError("bad header", 1), 2, {"message": "bad header (line 1)", "line": 1}),
        (errors.UndecidedError("over budget"), 3, {"message": "over budget"}),
        (
            CertificationError("re-check failed"),
            4,
            {"message": "re-check failed", "exception": "CertificationError"},
        ),
    ],
)
def test_each_exception_keeps_its_exit_code_and_payload(capsys, monkeypatch, raised, code, outputs):
    def fail(args):
        raise raised

    monkeypatch.setattr(cli, "_cmd_verify", fail)
    got, payload = run_json(capsys, "verify", "--suite", "ramsey", "--n", "3", "--t", "2")
    assert got == code
    assert payload["status"] == ("undecided" if code == 3 else "error")
    assert payload["outputs"] == outputs

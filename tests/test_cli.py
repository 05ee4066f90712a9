"""Command-line interface: grammar, exit codes, JSON envelopes, determinism."""

from __future__ import annotations

import json
import subprocess
import sys
import tracemalloc

import pytest

from linefree.geometry import ResourceBudgetError
from linefree.search import max_free_exact

CLI = [sys.executable, "-m", "linefree.cli"]


def run(*args, expect=0):
    proc = subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == expect, (args, proc.returncode, proc.stderr, proc.stdout)
    return proc


def run_json(*args, expect=0):
    proc = run(*args, "--json", expect=expect)
    doc = json.loads(proc.stdout)
    assert doc["version"] == "0.1.0"
    assert doc["schema"] == "v1"
    return doc


# --- selftests ----------------------------------------------------------------


@pytest.mark.parametrize(
    "cmd",
    ["construct", "verify", "search", "bounds", "certify", "rate", "product", "render"],
)
def test_selftest_per_subcommand(cmd):
    proc = run(cmd, "--selftest")
    assert "selftest" in proc.stdout and "ok" in proc.stdout


# --- construct / verify round trip ----------------------------------------------


def test_construct_verify_roundtrip(tmp_path):
    grid = tmp_path / "qr7.grid"
    run("construct", "--family", "qr", "-p", "7", "-o", str(grid))
    text = grid.read_text()
    assert text.startswith("linefree-grid v1")
    proc = run("verify", "-k", "7", str(grid))
    assert "free" in proc.stdout
    doc = run_json("verify", "-k", "7", str(grid))
    assert doc["size"] == 225
    assert doc["free"] is True


def test_construct_writes_stdout_by_default():
    proc = run("construct", "--family", "hypercube", "-p", "5", "-n", "2")
    assert "linefree-grid v1" in proc.stdout
    assert proc.stdout.count("X") == 16


def test_verify_detects_progression(tmp_path):
    grid = tmp_path / "full.grid"
    run("construct", "--family", "hypercube", "-p", "3", "-n", "2", "-o", str(grid))
    # Make the set the full plane by rewriting the rows.
    text = grid.read_text().replace(".", "X")
    grid.write_text(text)
    doc = run_json("verify", "-k", "3", str(grid), expect=1)
    assert doc["free"] is False
    assert "witness" in doc


def test_verify_missing_file_is_usage_error():
    run("verify", "-k", "5", "/nonexistent/x.grid", expect=2)


def test_construct_unknown_family_is_usage_error():
    run("construct", "--family", "mystery", "-p", "5", expect=2)


def test_construct_invalid_parameter_is_usage_error():
    run("construct", "--family", "qr", "-p", "5", expect=2)  # needs p = 7 mod 24


# --- search ----------------------------------------------------------------------


def test_search_finds_plane_optimum():
    doc = run_json("search", "-p", "5", "-n", "2", "-k", "5")
    assert doc["size"] == 16
    assert doc["optimal"] is True
    assert "nodes" not in doc
    assert "elapsed" not in doc


def test_search_json_is_byte_identical_across_runs():
    a = run("search", "-p", "5", "-n", "2", "-k", "4", "--json")
    b = run("search", "-p", "5", "-n", "2", "-k", "4", "--json")
    assert a.stdout == b.stdout


def test_search_timing_flag_adds_counters():
    doc = run_json("search", "-p", "3", "-n", "2", "-k", "3", "--timing")
    assert "nodes" in doc and "elapsed" in doc


def test_search_node_budget_exhaustion_exit_code():
    proc = run("search", "-p", "5", "-n", "2", "-k", "5", "--budget", "10", expect=4)
    assert "16" in proc.stdout  # incumbent still reported


def test_search_time_budget_suffix():
    run("search", "-p", "3", "-n", "2", "-k", "3", "--budget", "60s")
    run("search", "-p", "3", "-n", "2", "-k", "3", "--budget", "1m")


def test_search_bad_budget_is_usage_error():
    run("search", "-p", "3", "-n", "2", "-k", "3", "--budget", "soon", expect=2)


def test_search_warm_start(tmp_path):
    warm = tmp_path / "warm.grid"
    run("construct", "--family", "hypercube", "-p", "5", "-n", "2", "-o", str(warm))
    doc = run_json("search", "-p", "5", "-n", "2", "-k", "5", "--warm", str(warm))
    assert doc["size"] == 16


# --- bounds / certify / rate -------------------------------------------------------


def test_bounds_report_json():
    doc = run_json("bounds", "-p", "5", "-n", "3")
    assert doc["interval"] == [70, 73]
    assert doc["lower"]["reference-set"] == 70
    assert doc["upper"]["certified"] == 73


def test_bounds_report_json_p7():
    doc = run_json("bounds", "-p", "7", "-n", "3")
    assert doc["interval"] == [225, 242]
    assert doc["upper"]["certified"] == 242


def test_bounds_text_output_is_stamped():
    proc = run("bounds", "-p", "5", "-n", "2")
    assert proc.stdout.startswith("# linefree 0.1.0")


def test_certify_infeasible_exit_zero():
    doc = run_json("certify", "-p", "5", "--target", "74")
    assert doc["verdict"] == "INFEASIBLE"
    assert doc["candidate_count"] == 11


def test_certify_unknown_exit_three():
    doc = run_json("certify", "-p", "5", "--target", "73", expect=3)
    assert doc["verdict"] == "UNKNOWN"


def test_certify_paper_faithful_flag():
    doc = run_json("certify", "-p", "5", "--target", "74", "--paper-faithful")
    assert doc["verdict"] == "INFEASIBLE"
    assert doc["rich_caps"]["14"] == 14


def test_rate_from_size():
    proc = run("rate", "--size", "70", "--dim", "3")
    assert "4.121" in proc.stdout
    doc = run_json("rate", "--size", "225", "--dim", "3")
    assert doc["display"] == "6.082"


def test_rate_fgr():
    proc = run("rate", "--fgr", "-p", "5")
    assert "4.090" in proc.stdout


def test_rate_requires_one_mode():
    run("rate", expect=2)


# --- product / render ----------------------------------------------------------------


def test_product_concatenates_grids(tmp_path):
    a = tmp_path / "a.grid"
    b = tmp_path / "b.grid"
    c = tmp_path / "c.grid"
    run("construct", "--family", "hypercube", "-p", "3", "-n", "2", "-o", str(a))
    run("construct", "--family", "hypercube", "-p", "3", "-n", "2", "-o", str(b))
    run("product", str(a), str(b), "-o", str(c))
    text = c.read_text()
    assert "p=3 n=4 k=3" in text
    assert text.count("X") == 16
    doc = run_json("verify", "-k", "3", str(c))
    assert doc["free"] is True


def test_product_header_keeps_larger_k(tmp_path):
    # A factor that is only guaranteed 5-free may still contain shorter
    # progressions, so the product's header must carry max(kA, kB).
    from linefree.constructions import box, hypercube
    from linefree.pointset import render_grid

    a = tmp_path / "a.grid"
    b = tmp_path / "b.grid"
    c = tmp_path / "c.grid"
    a.write_text(render_grid(hypercube(5, 2), 5))
    b.write_text(render_grid(box(5, 2, 3), 4))
    run("product", str(a), str(b), "-o", str(c))
    assert "p=5 n=4 k=5" in c.read_text()
    doc = run_json("verify", "-k", "5", str(c))
    assert doc["free"] is True


def test_render_text_and_tikz(tmp_path):
    grid = tmp_path / "s.grid"
    run("construct", "--family", "hypercube", "-p", "3", "-n", "2", "-o", str(grid))
    plain = run("render", str(grid))
    assert plain.stdout.count("X") == 4
    tikz = run("render", str(grid), "--tikz")
    assert "\\begin{tikzpicture}" in tikz.stdout
    assert "\\documentclass" in tikz.stdout


def test_search_over_table_budget_exits_two():
    # rejected before any table is built, with one line instead of a traceback
    proc = run("search", "-p", "5", "-n", "6", "-k", "5", expect=2)
    assert proc.stderr.count("\n") == 1
    assert "over the budget" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("p, n, k", [(5, 6, 5), (3, 10, 3)])
def test_max_free_exact_over_table_budget_allocates_nothing(p, n, k):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError):
            max_free_exact(p, n, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# --- global behavior --------------------------------------------------------------


def test_no_arguments_shows_usage():
    run(expect=2)


def test_unknown_subcommand_is_usage_error():
    run("frobnicate", expect=2)


def test_threads_flag_does_not_change_answer():
    a = run("search", "-p", "5", "-n", "2", "-k", "4", "--json")
    b = run("search", "-p", "5", "-n", "2", "-k", "4", "--threads", "2", "--json")
    assert json.loads(a.stdout)["points"] == json.loads(b.stdout)["points"]


@pytest.mark.parametrize(
    "args",
    [
        ("certify", "-p", "5", "--target", "74"),
        ("bounds", "-p", "5", "-n", "3"),
        ("rate", "--size", "70", "--dim", "3"),
        ("verify", "-k", "5", "missing.grid"),
    ],
)
def test_threads_flag_belongs_to_search_only(args):
    proc = run(*args, "--threads", "2", expect=2)
    assert "--threads" in proc.stderr

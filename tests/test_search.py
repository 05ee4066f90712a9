"""Exact branch-and-bound search: pins, budgets, warm starts, workers."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from linefree import search
from linefree.constructions import box
from linefree.geometry import SpaceSpec
from linefree.pointset import PointSet
from linefree.search import (
    SearchConfig,
    SearchResult,
    brute_force_oracle,
    heuristic_lower,
    max_free_exact,
    one_dim_cap,
)
from linefree.verifier import find_progression


# --- one-dimensional exact values -------------------------------------------


def test_one_dim_cap_full_line_and_almost_full():
    for p in (3, 5, 7, 11, 13):
        assert one_dim_cap(p, p) == p - 1
        if p > 3:
            assert one_dim_cap(p, p - 1) == p - 2


def test_one_dim_cap_short_progressions():
    # Not k-1 in general: {0,1,3} has no 3-term progression mod 7.
    assert one_dim_cap(7, 3) == 3
    assert one_dim_cap(11, 3) == 4
    assert one_dim_cap(13, 3) == 4
    assert one_dim_cap(5, 3) == 2
    assert one_dim_cap(7, 4) == 4


def test_one_dim_cap_agrees_with_subset_scan():
    for p in (3, 5, 7, 11, 13, 17, 19):
        for k in range(3, p + 1):
            assert one_dim_cap(p, k) == brute_force_oracle(p, 1, k), (p, k)


# --- the independent subset-scan oracle --------------------------------------


def test_brute_force_oracle_pins():
    assert brute_force_oracle(3, 2, 3) == 4
    assert brute_force_oracle(3, 1, 3) == 2
    assert brute_force_oracle(5, 1, 4) == 3


def test_brute_force_oracle_rejects_large_spaces():
    with pytest.raises(ValueError):
        brute_force_oracle(5, 2, 5)


# --- exact search pins --------------------------------------------------------


@pytest.mark.parametrize("fix", [False, True])
def test_plane_pins_over_f5(fix):
    r5 = max_free_exact(5, 2, 5, fix_translation=fix)
    assert (r5.size, r5.optimal) == (16, True)
    assert find_progression(r5.best, 5) is None
    r4 = max_free_exact(5, 2, 4, fix_translation=fix)
    assert (r4.size, r4.optimal) == (11, True)
    assert find_progression(r4.best, 4) is None


def test_search_agrees_with_oracle_on_small_spaces():
    for p, n in [(3, 1), (3, 2), (5, 1), (7, 1), (11, 1)]:
        for k in range(3, p + 1):
            want = brute_force_oracle(p, n, k)
            for fix in (False, True):
                r = max_free_exact(p, n, k, fix_translation=fix)
                assert r.optimal and r.size == want, (p, n, k, fix)


def test_size_is_monotone_in_k():
    sizes = [max_free_exact(5, 2, k).size for k in (3, 4, 5)]
    assert sizes == sorted(sizes)
    assert sizes[1] == 11 and sizes[2] == 16


def test_result_shape_and_default_k():
    r = max_free_exact(3, 2)
    assert isinstance(r, SearchResult)
    assert r.k == 3 and r.space == SpaceSpec(3, 2)
    assert r.size == 4 and r.optimal
    d = r.to_dict()
    assert d["p"] == 3 and d["n"] == 2 and d["k"] == 3
    assert d["size"] == 4 and d["optimal"] is True
    assert len(d["points"]) == 4
    assert d["nodes"] == r.nodes and d["elapsed"] == round(r.elapsed, 3)


# --- budgets ------------------------------------------------------------------


def test_node_budget_exhaustion_keeps_incumbent():
    r = max_free_exact(5, 2, 5, node_budget=10)
    assert not r.optimal
    assert r.size >= 16  # the default warm box is already present
    assert find_progression(r.best, 5) is None


def test_time_budget_exhaustion():
    r = max_free_exact(7, 2, 7, time_budget=0.01)
    assert not r.optimal
    assert r.size >= 36  # warm box (p-1)^2
    assert r.elapsed < 5.0


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_budgets_hold_per_call_at_any_thread_count(threads):
    # every subtree draws from one allowance and one deadline, and a node
    # counts only once granted, so no worker count overdraws the budget
    by_nodes = max_free_exact(7, 2, 7, threads=threads, node_budget=20_000)
    by_time = max_free_exact(7, 2, 7, threads=threads, time_budget=0.5)
    assert not by_nodes.optimal and not by_time.optimal
    assert by_nodes.nodes <= 20_000
    assert by_time.elapsed < 1.5


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(order="fancy")
    with pytest.raises(ValueError):
        SearchConfig(bound="lp")
    with pytest.raises(ValueError):
        SearchConfig(node_budget=0)
    with pytest.raises(ValueError):
        SearchConfig(threads=0)
    with pytest.raises(ValueError):
        max_free_exact(5, 2, 2)


# --- warm starts ----------------------------------------------------------------


def test_warm_start_must_match_space_and_be_free():
    wrong_space = box(3, 2, 2)
    with pytest.raises(ValueError):
        max_free_exact(5, 2, 5, warm=wrong_space)
    not_free = PointSet.full(SpaceSpec(5, 2))
    with pytest.raises(ValueError):
        max_free_exact(5, 2, 5, warm=not_free)


def test_warm_start_lower_bounds_the_answer():
    warm = box(5, 2, 4)  # 16 points, already optimal
    r = max_free_exact(5, 2, 5, warm=warm)
    assert r.size == 16 and r.optimal
    small_warm = box(5, 2, 3)
    r2 = max_free_exact(5, 2, 5, warm=small_warm)
    assert r2.size == 16 and r2.optimal


# --- worker processes ---------------------------------------------------------------


@pytest.mark.parametrize("fix", [False, True])
@pytest.mark.parametrize(
    "p, n, k, size", [(5, 2, 3, 6), (5, 2, 4, 11), (5, 2, 5, 16), (3, 2, 3, 4), (3, 3, 3, 9)]
)
def test_thread_counts_agree_on_value_and_set(p, n, k, size, fix):
    # the first maximum set in depth-first order, whatever the split
    results = [max_free_exact(p, n, k, threads=t, fix_translation=fix) for t in (None, 1, 2, 4)]
    assert {r.size for r in results} == {size}
    assert all(r.optimal for r in results)
    assert len({r.best for r in results}) == 1


def test_root_split_respects_the_frame():
    # before, the split ignored the fix_translation frame and most
    # subtrees contradicted it at once
    cfg = SearchConfig(fix_translation=True)
    ws = search._window_system(7, 2, 7)
    frame = ((2, 0), (2, 1), (2, 7))
    prefixes = search._root_prefixes(ws, cfg, 2)
    assert len(prefixes) >= 2 * search._SUBTREES_PER_WORKER
    assert prefixes == sorted(prefixes)  # depth-first: in before out
    for pre in prefixes:
        assert search._Engine(ws, cfg, -1).run_prefix(frame + pre)


def test_worker_exception_reaches_the_caller(monkeypatch):
    def fail(self):
        raise RuntimeError(f"engine failed in process {os.getpid()}")

    monkeypatch.setattr(search._Engine, "dfs", fail)
    with pytest.raises(RuntimeError, match="engine failed in process") as err:
        max_free_exact(5, 2, 4, threads=2)
    assert str(os.getpid()) not in str(err.value)  # raised in a worker


def test_import_leaves_multiprocessing_out():
    # only a search with more than one worker imports multiprocessing
    src = Path(search.__file__).resolve().parents[1]
    code = "import sys, linefree, linefree.cli; print('multiprocessing' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout.strip() == "False"


# --- heuristic mode ---------------------------------------------------------------


def test_heuristic_lower_returns_verified_free_set():
    r = heuristic_lower(5, 3, node_budget=50_000)
    assert not r.optimal
    assert r.size >= 64  # never below the default warm box
    assert find_progression(r.best, 5) is None

"""Exact branch-and-bound search: pins, budgets, warm starts, workers."""

from __future__ import annotations

import gc
import hashlib
import itertools
import os
import random
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from linefree import search
from linefree.constructions import box
from linefree.geometry import ResourceBudgetError, SpaceSpec, space_tables
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
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
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


# --- window tables ----------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_windows_for_k_at_least_p_minus_1_are_all_k_subsets(p):
    # the subset that misses m is the progression m+1, ..., m+p-1
    assert search._window_rowsets(p, p - 1) == tuple(itertools.combinations(range(p), p - 1))
    assert search._window_rowsets(p, p) == (tuple(range(p)),)


def reference_window_tables(p, n, k):
    """(windows, line_points, point_lines, point_windows), one line at a time."""
    t = space_tables(p, n)
    num = p**n
    point_lines = [[] for _ in range(num)]
    point_windows = [[] for _ in range(num)]
    windows, line_points = [], []
    for di in range(len(t.dir_vecs)):
        for col in t.line_matrix(di).T.tolist():
            for q in col:
                point_lines[q].append(len(line_points))
            line_points.append(tuple(sorted(col)))
            for rows in search._window_rowsets(p, k):
                w = tuple(col[r] for r in rows)
                for q in w:
                    point_windows[q].append(len(windows))
                windows.append(w)
    owners = tuple(tuple(map(tuple, v)) for v in (point_lines, point_windows))
    return (tuple(windows), tuple(line_points), *owners)


@pytest.mark.parametrize(
    "p, n, k", [(5, 2, 4), (7, 2, 6), (3, 3, 3), (5, 3, 5), (5, 3, 3), (7, 2, 4), (7, 2, 5)]
)
def test_window_tables_match_per_line_build(p, n, k):
    ws = search._WindowSystem(p, n, k)
    windows, line_points, point_lines, point_windows = reference_window_tables(p, n, k)
    assert (ws.line_points, ws.point_lines) == (line_points, point_lines)
    if k < p - 1:
        assert (ws.windows, ws.point_windows) == (windows, point_windows)
        assert search._table_entries(p, n, k) == p * len(line_points) + k * len(windows)
    else:  # the lines are the windows: no second table
        assert ws.windows is ws.line_points and ws.point_windows is ws.point_lines
        assert search._table_entries(p, n, k) == ws.num_lines * p
    got = (ws.windows, ws.line_points, ws.point_lines, ws.point_windows)
    assert all(type(q) is int for table in got for row in table for q in row)
    assert ws.num_lines == SpaceSpec(p, n).num_lines


def test_table_entries_closed_form():
    # lines x p, plus windows x k for k < p - 1; computed without building
    assert search._table_entries(5, 5, 5) == 2_440_625
    assert search._table_entries(7, 4, 6) == 960_400
    assert search._table_entries(5, 5, 4) == 2_440_625
    assert search._table_entries(199, 2, 199) <= search.TABLE_BUDGET
    # the refusals keep every admitted p below 256, so line_key's one
    # byte always holds p; the largest plane prime admitted is 199
    for p, n, k in [(5, 6, 5), (3, 10, 3), (211, 2, 210), (257, 2, 256), (257, 2, 257)]:
        with pytest.raises(ResourceBudgetError):
            search._table_entries(p, n, k)


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
    # for k >= p - 1 the engine walks lines, not the oracle's windows
    for p, n in [(3, 1), (3, 2), (5, 1), (7, 1), (11, 1)]:
        for k in range(3, p + 1):
            want = brute_force_oracle(p, n, k)
            for fix in (False, True):
                r = max_free_exact(p, n, k, fix_translation=fix)
                assert r.optimal and r.size == want, (p, n, k, fix)


def test_one_dimensional_line_cap_search_keys_fit_a_byte():
    # fused n = 1 keeps its line open while it propagates, so its key is
    # nonzero, and still one byte when p > 255
    r = max_free_exact(257, 1, 256, node_budget=100)
    assert (r.size, r.optimal) == (255, False)


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
    assert d["line_updates"] == r.line_updates > 0


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
def test_budgets_hold_per_call_at_any_thread_count(monkeypatch, threads):
    # every subtree draws from one allowance and one deadline, and a node
    # counts only once granted, so no worker count overdraws the budget:
    # with every subtree forked (cutoff 0), after a dropped serial attempt
    # of 5,000 nodes, and with the default cutoff, above the node budget
    for cutoff in (0, 5_000, search._INLINE_NODES):
        monkeypatch.setattr(search, "_INLINE_NODES", cutoff)
        by_nodes = max_free_exact(7, 2, 7, threads=threads, node_budget=20_000)
        by_time = max_free_exact(7, 2, 7, threads=threads, time_budget=0.5)
        assert not by_nodes.optimal and not by_time.optimal
        assert by_nodes.nodes <= 20_000
        assert by_time.elapsed < 1.5


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(node_budget=0)
    with pytest.raises(ValueError):
        SearchConfig(threads=0)
    # a float or bool budget or thread count is refused here, not at search time
    for bad in (2.5, True):
        with pytest.raises(ValueError):
            SearchConfig(node_budget=bad)
        with pytest.raises(ValueError):
            SearchConfig(threads=bad)
    assert SearchConfig(threads=None).threads is None
    for bad in (0.0, -1.0, float("nan")):  # NaN would make a deadline that never passes
        with pytest.raises(ValueError):
            SearchConfig(time_budget=bad)
    assert SearchConfig(time_budget=float("inf")).time_budget == float("inf")
    # a bool would read as a 1-second budget, and a string fail only at search time
    for bad in (True, "1"):
        with pytest.raises(ValueError):
            SearchConfig(time_budget=bad)
    assert SearchConfig(time_budget=2).time_budget == 2
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


SMALL = [(5, 2, 3, 6), (5, 2, 4, 11), (5, 2, 5, 16), (3, 2, 3, 4), (3, 3, 3, 9)]
# the (7, 2, k) the framed search proves in seconds; k = 4, 5, 6 take tens
# of seconds at 2 workers
FRAMED_ONLY = [(7, 2, 3, 10), (7, 2, 7, 36)]


def _counts(r) -> tuple[int, ...]:
    return tuple(getattr(r, c) for c in search.COUNTS)


@pytest.mark.parametrize(
    "p, n, k, size, fix",
    [(*c, fix) for c in SMALL for fix in (False, True)] + [(*c, True) for c in FRAMED_ONLY],
)
def test_thread_counts_agree_on_value_and_set(monkeypatch, p, n, k, size, fix):
    # the first maximum set in depth-first order, whatever the split, with
    # every subtree on forked workers (cutoff 0) and with the default
    # cutoff; a tree within the default cutoff is the serial search, every
    # counter included
    results = [max_free_exact(p, n, k, threads=t, fix_translation=fix) for t in (None, 1)]
    for cutoff in (0, search._INLINE_NODES):
        monkeypatch.setattr(search, "_INLINE_NODES", cutoff)
        results += [max_free_exact(p, n, k, threads=t, fix_translation=fix) for t in (2, 4)]
    assert {r.size for r in results} == {size}
    assert all(r.optimal for r in results)
    assert len({r.best for r in results}) == 1
    if results[0].nodes <= search._INLINE_NODES:
        assert all(_counts(r) == _counts(results[0]) for r in results[-2:])


def test_root_split_respects_the_frame():
    # every subtree starts from the frame, then decides the x-axis points
    # and the y-axis points, so its frame caps are fixed
    cfg = SearchConfig(fix_translation=True)
    ws = search._WindowSystem(7, 2, 7)
    prefixes = search._root_prefixes(ws, cfg, 2)
    assert len(prefixes) >= 2 * search._SUBTREES_PER_WORKER
    assert prefixes == sorted(prefixes)  # depth-first: in before out
    assert len(prefixes) == 103  # 638 before the orbit check
    for pre in prefixes:
        assert pre[:3] == ((2, 0), (2, 1), (2, 7))
        assert [q for _, q in pre[3:]] == [2, 3, 4, 5, 6, 14, 21, 28, 35, 42]
        eng = search._Engine(ws, -1, framed=True)
        assert eng.run_prefix(pre) and eng._orbit_ok()  # live at the engine's root


def test_root_split_stays_bounded_when_the_axes_are_long():
    # F_11^2 has 18 undecided axis points; the split stops at 2^10 subtrees
    ws = search._WindowSystem(11, 2, 11)
    prefixes = search._root_prefixes(ws, SearchConfig(fix_translation=True), 2)
    assert 2 * search._SUBTREES_PER_WORKER <= len(prefixes) <= 2**search._AXIS_SPLIT_DEPTH


@pytest.mark.parametrize(
    "p, n, k, counts",
    [
        (5, 2, 3, (482, 181, 89, 8)),
        (5, 2, 4, (991, 235, 494, 11)),
        (5, 2, 5, (143, 39, 50, 8)),
        (3, 3, 3, (3418, 1648, 5, 0)),  # no scaling of F_3 moves a pattern
        (7, 2, 7, (24707, 7406, 9654, 121)),
    ],
)
def test_frame_node_and_prune_counts_are_pinned(p, n, k, counts):
    # (nodes, bound prunes, frame prunes, orbit prunes) of a serial framed proof
    r = max_free_exact(p, n, k, fix_translation=True)
    assert r.optimal
    assert (r.nodes, r.bound_prunes, r.frame_prunes, r.orbit_prunes) == counts


@pytest.mark.parametrize(
    "p, n, k, pin",
    [
        (5, 3, 5, (50_000, 24_899, "998c155410b2b3f9c16438c17a1817a1f02ff4133d93ad5c9991d9d15fe313e7")),
        (7, 3, 7, (10_000, 4_905, "cc1907c603ea91c45481aa9bca2abc6e5697a1adccf28b2c20131a09ce7835ed")),
    ],
)
def test_budgeted_3d_searches_are_pinned(p, n, k, pin):
    # (nodes, bound prunes, sha256 of the returned bits) of the benchmark's
    # budgeted F_5^3 and F_7^3 runs
    r = heuristic_lower(p, n, k, node_budget=pin[0])
    assert (r.nodes, r.bound_prunes, hashlib.sha256(r.best.bits.tobytes()).hexdigest()) == pin


@pytest.mark.parametrize(
    "p, n, k, fix, budget, pin",
    [
        (5, 2, 4, False, None, (11, 37_297, 17_740, 0, 0, "dde13eef463c09ecb9b81177257423679c280334171c0598b4dc679d83da103d")),
        (7, 2, 6, True, 300_000, (27, 300_000, 69_729, 160_466, 30, "48e7d4b5620301b42a8c058663c2880e035676b6d4ec1a3a79598de15627858e")),
        (7, 2, 6, False, 200_000, (29, 200_000, 99_932, 0, 0, "b2ee04afcd3d5c34af94a8a2c76e26065bc90d6e1af37e8d135064b7e58ed0f7")),
        (5, 3, 4, True, 50_000, (27, 50_000, 0, 49_957, 11, "117b1995341c183f55b3d2bf37056028ca40dd5b35e08ff340138aaeda07d978")),
        (11, 2, 10, True, 50_000, (81, 50_000, 0, 49_958, 0, "042073da07c9f35625030fd214c18dbecda37e37c27aae5f036353486df80ac9")),
    ],
)
def test_k_p_minus_1_searches_are_pinned(p, n, k, fix, budget, pin):
    # (size, nodes, bound prunes, frame prunes, orbit prunes, sha256 of the
    # returned bits) of line-cap searches; the same as with a window table
    # per line
    budgets = {} if budget is None else {"node_budget": budget}
    r = max_free_exact(p, n, k, fix_translation=fix, **budgets)
    digest = hashlib.sha256(r.best.bits.tobytes()).hexdigest()
    assert (r.size, r.nodes, r.bound_prunes, r.frame_prunes, r.orbit_prunes, digest) == pin
    assert r.optimal == (budget is None)


@pytest.mark.parametrize(
    "p, n, k, budget, fix, updates",
    [
        (5, 3, 5, 50_000, False, 334_324),  # 4,404,666 if every line of q were updated
        (7, 3, 7, 10_000, False, 110_930),  # 1,403,910
        (7, 2, 7, None, True, 442_376),  # 641,416
    ],
)
def test_line_updates_are_pinned(p, n, k, budget, fix, updates):
    # per-line count updates of the benchmark's budgeted 3-D runs and of the
    # serial framed (7,2,7) proof: only open lines, and every line of an
    # excluded point under the frame
    budgets = {} if budget is None else {"node_budget": budget}
    assert max_free_exact(p, n, k, fix_translation=fix, **budgets).line_updates == updates


# --- the line picked next -------------------------------------------------------


def reference_pick(eng, framing=True):
    """The engine's next point by a scan over every line."""
    st = eng.status
    if framing:
        for q in eng.axis_order:
            if st[q] == eng.UNDEC:
                return q
    if eng.ws.n > 1:
        best_l, best_u = -1, eng.ws.p + 1
        for l in range(eng.ws.num_lines):
            undec = eng.ws.p - eng.line_in[l] - eng.line_out[l]
            if eng.line_out[l] < eng.need and undec < best_u:
                best_l, best_u = l, undec
                if best_u <= 2:
                    break
        if best_l >= 0:
            for q in eng.ws.line_points[best_l]:
                if st[q] == eng.UNDEC:
                    return q
    best_q, best_score = -1, -1
    for q in range(eng.ws.num_points):
        if st[q] == eng.UNDEC:
            score = sum(eng.line_in[l] for l in eng.ws.point_lines[q])
            if score > best_score:
                best_q, best_score = q, score
    return best_q


def check_line_state(eng):
    """The engine's line key and class needs against a rebuild from the counts."""
    need, lpc, p = eng.need, eng.ws.lines_per_class, eng.ws.p
    keys = [0 if o >= need else max(p - i - o, 2) for i, o in zip(eng.line_in, eng.line_out)]
    assert eng.line_key == bytearray(keys)
    short = [max(need - o, 0) for o in eng.line_out]
    assert eng.class_need == [sum(short[c * lpc : (c + 1) * lpc]) for c in range(eng.ws.num_classes)]
    assert eng._pick() == reference_pick(eng)


@pytest.mark.parametrize("framed", [False, True])
@pytest.mark.parametrize("p, n, k", [(5, 3, 5), (7, 3, 7), (5, 2, 4), (7, 2, 3), (3, 3, 3)])
def test_pick_matches_a_scan_over_every_line(p, n, k, framed):
    # random decision paths with random backtracking: at every node the
    # byte table equals a rebuild and the pick equals the full scan
    ws = search._WindowSystem(p, n, k)
    rng = random.Random(p * 100 + n * 10 + k + framed)
    for _ in range(4):
        eng = search._Engine(ws, -1, framed=framed)
        assert eng.run_prefix(search._frame_prefix(SearchConfig(fix_translation=framed), p, n))
        marks: list[int] = []
        for _ in range(120):
            check_line_state(eng)
            if eng.undec_total == 0 or (marks and rng.random() < 0.2):
                if not marks:
                    break
                i = rng.randrange(len(marks))
                eng._undo_to(marks[i])
                del marks[i:]
                continue
            q = eng._pick()
            marks.append(len(eng.trail))
            if not (eng._set_in(q) if rng.random() < 0.6 else eng._set_out(q)):
                eng._undo_to(marks.pop())
        eng._undo_to(0)
        check_line_state(eng)


def applied_lines(eng, op, q):
    """The lines a decision (op, q) should update: those whose counts can
    still be read, by the rules in _Engine's docstring."""
    lines = eng.ws.point_lines[q]
    every = eng.framed if op == 2 else not eng.ws.fused
    return lines if every else tuple(l for l in lines if eng.line_key[l])


def rebuilt_caps(eng, st):
    """out_cap by the frame rules of SearchConfig, read from status."""
    ws, p = eng.ws, eng.ws.p
    cap = np.full(ws.num_lines, p)
    if eng.framed and ws.n > 1:
        in_x, in_y = ((st[list(pts)] == eng.IN).sum() for pts in ws.axes)
        cap[:] = p - in_x
        guarded = [l for q in ws.x_points if st[q] == eng.OUT for l in ws.point_lines[q]]
        guarded = sorted(set(guarded) - {ws.x_line})
        cap[guarded] = min(p - in_x, p - in_y)
    return cap.tolist()


def check_live_lines(eng, applied, settled):
    """The engine's open lines, keys, needs and trail against a rebuild
    from status; settled: the last step succeeded, so out_cap is current."""
    ws, p, need = eng.ws, eng.ws.p, eng.need
    st = np.frombuffer(bytes(eng.status), dtype=np.uint8)
    on_lines = st[np.array(ws.line_points)]
    ins, outs = (on_lines == eng.IN).sum(1), (on_lines == eng.OUT).sum(1)
    live = outs < need
    keys = np.where(live, np.clip(p - ins - outs, 2, 255), 0)
    assert eng.line_key == bytearray(keys.astype(np.uint8).tobytes())
    line_in, line_out = np.array(eng.line_in), np.array(eng.line_out)
    assert (line_in[live] == ins[live]).all() and (line_out[live] == outs[live]).all()
    if not ws.fused:  # the fallback pick reads every line_in
        assert eng.line_in == ins.tolist()
        assert eng.win_in == (st[np.array(ws.windows)] == eng.IN).sum(1).tolist()
    if eng.framed:  # the frame caps read every line_out
        assert eng.line_out == outs.tolist()
    short = np.maximum(need - outs, 0).reshape(ws.num_classes, ws.lines_per_class)
    assert eng.class_need == short.sum(1).tolist()
    assert eng.undec_total == (st == eng.UNDEC).sum() and eng.cur_in == (st == eng.IN).sum()
    for i, entry in enumerate(eng.trail):
        if entry[0] != 3:
            assert entry == applied[i]
    if settled:
        assert eng.out_cap == rebuilt_caps(eng, st)


def live_state(eng):
    live = [l for l in range(eng.ws.num_lines) if eng.line_key[l]]
    counts = [(eng.line_in[l], eng.line_out[l]) for l in live]
    return bytes(eng.status), bytes(eng.line_key), list(eng.class_need), list(eng.out_cap), counts


@pytest.mark.parametrize("framed", [False, True])
@pytest.mark.parametrize(
    "p, n, k", [(5, 3, 5), (7, 3, 7), (5, 2, 4), (7, 2, 3), (3, 3, 3), (7, 1, 6), (7, 1, 7)]
)
def test_only_open_lines_are_updated_and_undone_exactly(p, n, k, framed):
    # random decisions on random points with random backtracking: at every
    # step the open lines' counts, the keys and the class needs equal a
    # rebuild from status, and each trail entry holds exactly the lines
    # its decision had to update; undoing everything restores the root
    ws = search._WindowSystem(p, n, k)
    rng = random.Random(p * 100 + n * 10 + k + framed)
    for _ in range(3):
        eng = search._Engine(ws, -1, framed=framed)
        applied: dict[int, tuple] = {}  # trail position -> expected entry

        def spy(op, decide):
            def apply(q):
                applied[len(eng.trail)] = (op, q, applied_lines(eng, op, q))
                return decide(q)

            return apply

        eng._set_in, eng._set_out = spy(1, eng._set_in), spy(2, eng._set_out)
        root = live_state(eng)
        assert eng.run_prefix(search._frame_prefix(SearchConfig(fix_translation=framed), p, n))
        check_live_lines(eng, applied, True)
        marks: list[int] = []
        for _ in range(150):
            undecided = [q for q, s in enumerate(eng.status) if s == eng.UNDEC]
            if not undecided or (marks and rng.random() < 0.25):
                if not marks:
                    break
                i = rng.randrange(len(marks))
                eng._undo_to(marks[i])
                del marks[i:]
                check_live_lines(eng, applied, True)
                continue
            q = rng.choice(undecided)
            marks.append(len(eng.trail))
            ok = eng._set_in(q) if rng.random() < 0.5 else eng._set_out(q)
            check_live_lines(eng, applied, ok)
            if not ok:
                eng._undo_to(marks.pop())
        eng._undo_to(0)
        assert live_state(eng) == root


def test_prune_counts_sum_over_workers(monkeypatch):
    # a split search (cutoff 0: every subtree on forked workers) reports the
    # sums of its subtrees' counts, line updates too; at the default cutoff
    # the 991-node tree never splits and reports the serial counts
    cfg = SearchConfig(fix_translation=True)
    ws = search._WindowSystem(5, 2, 4)
    budget = search._Budget(cfg.node_budget, None)
    prefixes = search._root_prefixes(ws, cfg, 2)
    subtrees = [search._run_tree(ws, True, 9, budget, pre) for pre in prefixes]
    sums = tuple(map(sum, zip(*(o[3] for o in subtrees))))
    serial = _counts(max_free_exact(5, 2, 4, cfg))  # warm box of 9 points
    for cutoff, counts in ((0, sums), (search._INLINE_NODES, serial)):
        monkeypatch.setattr(search, "_INLINE_NODES", cutoff)
        split = max_free_exact(5, 2, 4, cfg, threads=2)
        assert _counts(split) == counts
        assert split.bound_prunes > 0 and split.frame_prunes > 0
        unframed = max_free_exact(5, 2, 4, threads=2)
        assert unframed.frame_prunes == unframed.orbit_prunes == 0


def _plane_lines(p: int) -> np.ndarray:
    """Incidence (lines x points) of F_p^2, point (x, y) at index x + p*y."""
    rows = []
    for d in [(1, m) for m in range(p)] + [(0, 1)]:
        for base in range(p * p):
            pts = {((base % p + t * d[0]) % p) + p * ((base // p + t * d[1]) % p) for t in range(p)}
            rows.append(tuple(sorted(pts)))
    mat = np.zeros((len(set(rows)), p * p), dtype=np.int64)
    for i, pts in enumerate(sorted(set(rows))):
        mat[i, list(pts)] = 1
    return mat


def _meets_frame_rules(out: np.ndarray, lines: np.ndarray, p: int) -> np.ndarray:
    """Rows of `out` (complements, one 0/1 row each) the frame admits."""
    (x_ix,) = np.nonzero(lines[:, 0] & lines[:, 1])[0]  # through 0 and e_1
    (y_ix,) = np.nonzero(lines[:, 0] & lines[:, p])[0]  # through 0 and e_2
    counts = out @ lines.T  # out(l) per complement and line
    ok = (out[:, 0] == 1) & (out[:, 1] == 1) & (out[:, p] == 1)
    ok &= (counts <= counts[:, [x_ix]]).all(axis=1)
    # lines other than the x-axis through an out point of the x-axis
    x_pts = np.nonzero(lines[x_ix])[0]
    guarded = out[:, x_pts] @ lines[:, x_pts].T > 0
    guarded[:, x_ix] = False
    ok &= ((counts <= counts[:, [y_ix]]) | ~guarded).all(axis=1)
    return ok


def _random_maximal_line_free(p: int, seed: int) -> np.ndarray:
    """0/1 vector of a maximal subset of F_p^2 holding no full line."""
    lines = _plane_lines(p)
    member = np.zeros(p * p, dtype=np.int64)
    for q in np.random.default_rng(seed).permutation(p * p):
        member[q] = 1
        if (lines @ member == p).any():
            member[q] = 0
    return member


def _least_under_scaling(pattern: set[int], p: int) -> bool:
    """Whether pattern's mask, the sum of 2^t, is least among its images
    t -> lam * t that still hold 1."""
    mask = sum(1 << t for t in pattern)
    images = ({lam * t % p for t in pattern} for lam in range(1, p))
    return all(mask <= sum(1 << t for t in image) for image in images if 1 in image)


@pytest.mark.parametrize("seed", range(6))
def test_frame_admits_an_affine_image_of_every_maximal_line_free_set(seed):
    # brute force over AGL(2, 5): some image of a maximal free set has a
    # complement meeting both frame rules and least axis patterns under
    # the scalings diag(lam, mu), and the framed engine accepts it
    p = 5
    member = _random_maximal_line_free(p, seed)
    lines = _plane_lines(p)
    xy = np.array([(i % p, i // p) for i in range(p * p)])
    images = []
    for a, b, c, d in itertools.product(range(p), repeat=4):
        if (a * d - b * c) % p == 0:
            continue
        mapped = (xy @ np.array([[a, b], [c, d]]).T) % p
        for tx, ty in itertools.product(range(p), repeat=2):
            image = ((mapped[:, 0] + tx) % p) + p * ((mapped[:, 1] + ty) % p)
            bits = np.zeros(p * p, dtype=np.int64)
            bits[image[member == 1]] = 1
            images.append(bits)
    images = np.array(images)
    assert len(images) == 480 * 25
    admitted = images[_meets_frame_rules(1 - images, lines, p)]
    assert len(admitted) > 0
    ws = search._WindowSystem(p, 2, p)
    frame = search._frame_prefix(SearchConfig(fix_translation=True), p, 2)
    least = 0
    for bits in admitted:
        eng = search._Engine(ws, -1, search._Budget(1, None), framed=True)
        decisions = [(1 if b else 2, int(q)) for q, b in enumerate(bits)]
        assert eng.run_prefix(frame + tuple(decisions))
        x_out = {t for t in range(p) if not bits[t]}  # point (t, 0)
        y_out = {t for t in range(p) if not bits[p * t]}  # point (0, t)
        is_least = _least_under_scaling(x_out, p) and _least_under_scaling(y_out, p)
        assert eng._orbit_ok() == is_least
        eng.dfs()  # a leaf: kept exactly when its patterns are least
        assert eng.best_set == (tuple(np.nonzero(bits)[0]) if is_least else None)
        least += is_least
    assert least > 0


@pytest.mark.parametrize("least", [False, True])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_orbit_check_cuts_a_non_least_axis_pattern_at_the_subtree_root(axis, least):
    # F_11^2 has 18 undecided axis points and the split decides only 10, so
    # the subtrees decide the rest of the y-axis and only the engine sees
    # its whole pattern.  {0, 1, 6} / 6 = {0, 2, 1} has the smaller mask.
    p = 11
    pattern = {0, 1, 2} if least else {0, 1, 6}
    decisions = [(2 if t in pattern else 1, t) for t in range(2, p)]
    if axis == "y":  # past the split depth, after a least x-axis
        decisions = [(2 if t < 3 else 1, t) for t in range(2, p)]
        decisions += [(2 if t in pattern else 1, p * t) for t in range(2, p)]
        assert len(decisions) > search._AXIS_SPLIT_DEPTH
    prefix = search._frame_prefix(SearchConfig(fix_translation=True), p, 2) + tuple(decisions)
    ws = search._WindowSystem(p, 2, p)
    _, best, exhausted, counts = search._run_tree(ws, True, -1, search._Budget(1, None), prefix)
    if least:  # the root passes, and the next node finds the budget spent
        assert not exhausted and counts[:4] == (1, 0, 0, 0)
    else:
        assert exhausted and best is None and counts[:4] == (1, 0, 0, 1)
    # the split ships no subtree that the engine would cut at its root
    for pre in search._root_prefixes(ws, SearchConfig(fix_translation=True), 2):
        eng = search._Engine(ws, -1, framed=True)
        assert eng.run_prefix(pre) and eng._orbit_ok()


@pytest.mark.parametrize("threads", [1, 2])
def test_search_keeps_no_tables_after_it_returns(monkeypatch, threads):
    # each call builds its own tables, and nothing holds them once it
    # returns; at 2 workers every subtree is forked (cutoff 0)
    monkeypatch.setattr(search, "_INLINE_NODES", 0)
    built = []

    class Recorded(search._WindowSystem):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(weakref.ref(self))

    monkeypatch.setattr(search, "_WindowSystem", Recorded)
    assert max_free_exact(5, 2, 5, threads=threads).size == 16
    gc.collect()
    assert built and all(ref() is None for ref in built)


def test_worker_exception_reaches_the_caller(monkeypatch):
    # the calling process still makes its empty-allowance attempt, with the
    # real dfs; only the workers' dfs fails
    caller, dfs = os.getpid(), search._Engine.dfs

    def fail(self):
        if os.getpid() == caller:
            return dfs(self)
        raise RuntimeError(f"engine failed in process {os.getpid()}")

    monkeypatch.setattr(search._Engine, "dfs", fail)
    monkeypatch.setattr(search, "_INLINE_NODES", 0)  # every subtree on a worker
    with pytest.raises(RuntimeError, match="engine failed in process") as err:
        max_free_exact(5, 2, 4, threads=2)
    assert str(os.getpid()) not in str(err.value)  # raised in a worker


def test_import_leaves_multiprocessing_out():
    # only a search that forks workers imports multiprocessing; framed
    # (7,2,7) takes 24,707 nodes, under _INLINE_NODES, so at 2 workers the
    # calling process runs the serial search and never splits
    src = Path(search.__file__).resolve().parents[1]
    code = (
        "import sys, linefree, linefree.cli; print('multiprocessing' in sys.modules); "
        "r = linefree.search.max_free_exact(7, 2, 7, threads=2, fix_translation=True); "
        "print(r.size, r.optimal, 'multiprocessing' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout.split("\n")[:2] == ["False", "36 True False"]


def test_handover_to_workers_keeps_every_count(monkeypatch):
    # every cutoff below the tree's 37,297 serial nodes (the default too)
    # drops the serial attempt and gives the same split result; a cutoff
    # above it gives the serial search (pinned in
    # test_k_p_minus_1_searches_are_pinned)
    def run(**kw):
        r = max_free_exact(5, 2, 4, **kw)
        return (r.size, hashlib.sha256(r.best.bits.tobytes()).hexdigest(), *_counts(r))

    runs = []
    for cutoff in (0, 300, search._INLINE_NODES, 10**9):
        monkeypatch.setattr(search, "_INLINE_NODES", cutoff)
        runs.append(run(threads=2))
    assert runs[0] == runs[1] == runs[2]
    size, _, nodes, *_ = runs[0]
    assert (size, nodes) == (11, 37_386)
    assert runs[3] == run()


@pytest.mark.parametrize("threads, budget, inline_nodes", [(2, 2_000, [500]), (4, 20_000, [500])])
def test_node_budget_holds_across_the_handover(monkeypatch, threads, budget, inline_nodes):
    # the calling process makes exactly one serial attempt of the 500-node
    # cutoff and drops it; the workers then draw the whole budget from a
    # shared allowance (at 20,000, in several grants over 4 workers)
    monkeypatch.setattr(search, "_INLINE_NODES", 500)
    inline = []  # nodes of the trees searched in this process; a worker's calls stay in the worker
    search_tree = search._run_tree

    def run_tree(*args):
        out = search_tree(*args)
        inline.append(out[3][0])
        return out

    monkeypatch.setattr(search, "_run_tree", run_tree)
    r = max_free_exact(5, 2, 4, threads=threads, node_budget=budget)
    assert inline == inline_nodes
    assert r.nodes <= budget and not r.optimal


# --- heuristic mode ---------------------------------------------------------------


def test_heuristic_lower_budget_defaults_and_overrides(monkeypatch):
    # the configs max_free_exact would run, captured without a search
    seen = []

    def capture(p, n, k, cfg, **overrides):
        seen.append(replace(cfg, **overrides))

    monkeypatch.setattr(search, "max_free_exact", capture)
    heuristic_lower(5, 3)
    heuristic_lower(5, 3, threads=2)
    heuristic_lower(5, 3, cfg=SearchConfig(node_budget=7, fix_translation=True), threads=2)
    assert seen == [
        SearchConfig(node_budget=2_000_000),
        SearchConfig(node_budget=2_000_000, threads=2),
        SearchConfig(node_budget=7, threads=2, fix_translation=True),
    ]


def test_heuristic_lower_returns_verified_free_set():
    r = heuristic_lower(5, 3, node_budget=50_000)
    assert not r.optimal
    assert r.size >= 64  # never below the default warm box
    assert find_progression(r.best, 5) is None

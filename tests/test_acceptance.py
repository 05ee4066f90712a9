"""End-to-end acceptance checks.

Each criterion is covered by tests named test_criterion_<N>_*; the
conftest reporter aggregates them into one PASS/FAIL line per criterion
at the end of the run.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import random_set
from linefree import search
from linefree.bounds import (
    alpha_fgr,
    alpha_from_set,
    bounds_report,
    construction,
    table1,
    upper_recursive,
    upper_simple,
)
from linefree.certify import (
    INFEASIBLE,
    UNKNOWN,
    make_instance,
    prove_infeasible,
    rich_pencil_multisets,
)
from linefree.constructions import (
    hypercube,
    layered,
    load_reference_set,
    qr_construction,
    sqrt_construction,
)
from linefree.geometry import SpaceSpec, det_mod
from linefree.pointset import (
    PointSet,
    apply_affine,
    layer,
    parse_grid_document,
    product,
    render_grid,
)
from linefree.search import SearchConfig, brute_force_oracle, max_free_exact
from linefree.verifier import (
    degree_line_bound,
    find_progression,
    identity_check,
    lp_line_bounds,
)

CONSTRUCTION_MATRIX = [(5, 3), (5, 4), (7, 3), (7, 4), (11, 3), (13, 3)]


# --- criterion 1: construction correctness (< 10 s total) --------------------


def test_criterion_1_constructions_free_and_sized():
    t0 = time.monotonic()
    for p, n in CONSTRUCTION_MATRIX:
        families = {
            ("hypercube", construction("hypercube", p, n).size): hypercube(p, n),
            ("layered", construction("layered", p, n).size): layered(p, n),
        }
        if n == 3:
            families[("sqrt", construction("sqrt", p, 3).size)] = sqrt_construction(p)
        if n == 3 and p % 24 == 7:
            families[("qr", construction("qr", p, 3).size)] = qr_construction(p)
        for (name, want_size), s in families.items():
            assert s.size == want_size, (name, p, n)
            assert find_progression(s, p) is None, (name, p, n)
    qr31 = qr_construction(31)
    assert qr31.size == 27030
    assert find_progression(qr31, 31) is None
    # spot pins on the closed forms
    assert layered(5, 3).size == 66
    assert layered(5, 4).size == 268
    assert sqrt_construction(11).size == 1005
    assert qr_construction(7).size == 225
    assert time.monotonic() - t0 < 10.0


# --- criterion 2: bundled 70-point set (< 1 s) -------------------------------


def test_criterion_2_reference_set_verifies():
    t0 = time.monotonic()
    s = load_reference_set("fig70")
    assert s.size == 70
    assert s.space == SpaceSpec(5, 3)
    assert tuple(layer(s, v).size for v in range(5)) == (6, 16, 16, 16, 16)
    assert find_progression(s, 5) is None
    assert time.monotonic() - t0 < 1.0


def test_criterion_2_bounds_report_interval():
    rep = bounds_report(5, 3)
    assert rep.best_lower == 70
    assert rep.best_upper == 73


# --- criterion 3: exact two-dimensional values --------------------------------


ACCEPT_CFG = SearchConfig(fix_translation=True)


def test_criterion_3_f5_plane_k5():
    r = max_free_exact(5, 2, 5, ACCEPT_CFG)
    assert r.size == 16 and r.optimal
    assert find_progression(r.best, 5) is None
    assert r.elapsed < 300.0


def test_criterion_3_f5_plane_k4():
    r = max_free_exact(5, 2, 4, ACCEPT_CFG)
    assert r.size == 11 and r.optimal
    assert find_progression(r.best, 4) is None
    assert r.elapsed < 300.0


def test_criterion_3_f7_plane_k7():
    r = max_free_exact(7, 2, 7, ACCEPT_CFG)
    assert r.size == 36 and r.optimal
    assert find_progression(r.best, 7) is None
    assert r.elapsed < 7200.0


@pytest.mark.slow
def test_criterion_3_f7_plane_k6():
    # a proof of seconds at two worker processes, with the frame's orbit check
    r = max_free_exact(7, 2, 6, ACCEPT_CFG, node_budget=400_000_000, threads=2)
    assert r.size == 29 and r.optimal
    assert (r.nodes, r.bound_prunes, r.frame_prunes, r.orbit_prunes) == (3_107_421, 847_680, 1_412_058, 0)
    assert find_progression(r.best, 6) is None
    assert r.elapsed < 7200.0


@pytest.mark.slow
@pytest.mark.parametrize(
    "k, size, counts",
    [
        (4, 18, (1_760_997, 781_546, 197_927, 0)),
        (5, 22, (4_717_280, 1_158_833, 2_399_678, 0)),
    ],
)
def test_criterion_3_f7_plane_k4_k5(k, size, counts):
    # r_4(F_7^2) = 18 and r_5(F_7^2) = 22: (nodes, bound, frame and orbit
    # prunes) at two worker processes, whose split decides both axes, so
    # the split itself drops the subtrees that the orbit check would cut
    r = max_free_exact(7, 2, k, ACCEPT_CFG, node_budget=400_000_000, threads=2)
    assert r.size == size and r.optimal
    assert (r.nodes, r.bound_prunes, r.frame_prunes, r.orbit_prunes) == counts
    assert find_progression(r.best, k) is None


def test_criterion_3_oracle_agreement_on_all_tiny_spaces():
    # Every space with at most 20 points: both engine configurations must
    # reproduce the subset-scan oracle exactly, for every k.
    for p, n in [(3, 1), (3, 2), (5, 1), (7, 1), (11, 1), (13, 1), (17, 1), (19, 1)]:
        for k in range(3, p + 1):
            want = brute_force_oracle(p, n, k)
            for fix in (False, True):
                r = max_free_exact(p, n, k, fix_translation=fix)
                assert r.optimal and r.size == want, (p, n, k, fix)


# --- criterion 4: infeasibility certificates -----------------------------------


def test_criterion_4_target_74_verbatim_intermediates():
    t0 = time.monotonic()
    cert = prove_infeasible(make_instance(5, 74))
    assert cert.verdict == INFEASIBLE
    assert [sorted(d) for d in cert.distributions] == [
        [10, 16, 16, 16, 16],
        [11, 15, 16, 16, 16],
        [14, 14, 14, 16, 16],
        [14, 14, 15, 15, 16],
        [14, 15, 15, 15, 15],
    ]
    assert cert.coefficients == (525, 520, 513, 512, 511)
    assert cert.instance.pair_rhs == 16206
    assert cert.weights == {16: 1, 15: -2, 14: -5}
    assert cert.refuted_count == cert.candidate_count
    assert time.monotonic() - t0 < 60.0


def test_criterion_4_target_243_derived_intermediates():
    t0 = time.monotonic()
    inst = make_instance(7, 243)
    cert = prove_infeasible(inst)
    assert cert.verdict == INFEASIBLE
    assert inst.allowed_sizes == (27, 28, 29, 33, 34, 35, 36)
    assert {tuple(sorted(m)) for m in rich_pencil_multisets(inst)} == {
        (33, 36, 36, 36, 36, 36, 36, 36),
        (34, 35, 36, 36, 36, 36, 36, 36),
        (35, 35, 35, 36, 36, 36, 36, 36),
    }
    assert cert.weights == {36: 3, 35: -5, 34: -13, 33: -21}
    assert cert.refuted_count == cert.candidate_count
    assert time.monotonic() - t0 < 1800.0


def test_criterion_4_soundness_guard():
    assert prove_infeasible(make_instance(5, 70)).verdict == UNKNOWN


def test_criterion_4_replay_bit_exact():
    for p, t in [(5, 74), (7, 243)]:
        cert = prove_infeasible(make_instance(p, t))
        assert cert.replay()


# --- criterion 5: bound formulas -----------------------------------------------


def test_criterion_5_recursive_floors():
    assert upper_recursive(5, 2, 5, 16).floor == 74
    assert upper_recursive(7, 2, 7, 36).floor == 243
    assert upper_recursive(3, 2, 3, 4).floor == 9


def test_criterion_5_simple_bounds():
    assert upper_simple(5, 3) == (94, 76)


def test_criterion_5_set_rates():
    assert alpha_from_set(70, 3).display == "4.121"
    assert alpha_from_set(225, 3).display == "6.082"


def test_criterion_5_general_rate_row():
    # Reference figures for the dimension-2p rate row.  They straddle the
    # truncate/round boundary in both directions (the p = 13 figure is a
    # rounding of 12.03699..., the p = 17 figure a truncation of
    # 16.0285...), so no single display convention reproduces the row;
    # agreement is asserted to one unit in the last place by exact
    # integer bracketing of p * (p-1)^(2p-1) against milli^(2p).
    printed = {5: 4090, 7: 6066, 11: 10043, 13: 12037, 17: 16028}
    ours = {p: alpha_fgr(p).milli for p in printed}
    assert ours == {5: 4090, 7: 6066, 11: 10043, 13: 12036, 17: 16028}
    for p, r in printed.items():
        e = 2 * p
        v = p * (p - 1) ** (e - 1)
        assert (r - 1) ** e < v * 1000**e < (r + 1) ** e, p


TABLE1_MILLI = {
    3: (4041, 6027, 10016, 12013, 16010),
    4: (4046, 6034, 10022, 12019, 16014),
    5: (4041, 6034, 10024, 12020, 16016),
    6: (4034, 6031, 10024, 12021, 16017),
    7: (4027, 6028, 10023, 12020, 16017),
}

GREY = {(5, 5), (5, 6), (5, 7), (7, 5), (7, 6), (7, 7), (11, 6), (11, 7), (13, 7)}


def test_criterion_5_rate_table_reproduction():
    t = table1()
    for n, row in TABLE1_MILLI.items():
        for p, milli in zip(t.ps, row):
            assert t.milli[(p, n)] == milli, (p, n)
            assert ((p, n) in t.dominated) == ((p, n) in GREY), (p, n)


# --- criterion 6: per-plane line-count bounds ------------------------------------


def test_criterion_6_combination_bounds():
    assert lp_line_bounds(5, 16).min == 12
    assert lp_line_bounds(7, 36).min == 18
    assert lp_line_bounds(7, 35).max == 33
    assert lp_line_bounds(7, 34).max == 30
    assert lp_line_bounds(7, 33).max == 28


def test_criterion_6_degree_bounds():
    assert degree_line_bound(5, 14) == 14
    assert degree_line_bound(5, 15) == 15


# --- criterion 7: property suites (< 5 min total) ---------------------------------


def test_criterion_7_double_counting_identities(rng):
    t0 = time.monotonic()
    for p, n in CONSTRUCTION_MATRIX:
        for _ in range(100):
            s = random_set(p, n, float(rng.uniform(0.05, 0.95)), rng)
            res = identity_check(s)
            assert res["ok"], (p, n, res)
    assert time.monotonic() - t0 < 60.0


def _random_affine_map(p: int, n: int, rng) -> tuple[list[list[int]], list[int]]:
    while True:
        m = rng.integers(0, p, size=(n, n))
        if det_mod(m.tolist(), p) != 0:
            return m.tolist(), rng.integers(0, p, size=n).tolist()


def test_criterion_7_affine_invariance_of_freeness(rng):
    t0 = time.monotonic()
    fig = load_reference_set("fig70")
    for _ in range(50):
        m, v = _random_affine_map(5, 3, rng)
        assert find_progression(apply_affine(fig, m, v), 5) is None
    # verdicts must also be preserved on sets that do contain progressions
    for _ in range(10):
        s = random_set(5, 2, 0.6, rng)
        verdict = find_progression(s, 3) is None
        m, v = _random_affine_map(5, 2, rng)
        assert (find_progression(apply_affine(s, m, v), 3) is None) == verdict
    assert time.monotonic() - t0 < 60.0


def test_criterion_7_product_preserves_freeness():
    t0 = time.monotonic()
    pairs = [
        (hypercube(3, 2), hypercube(3, 2), 3),
        (hypercube(5, 2), hypercube(5, 1), 5),
        (load_reference_set("fig70"), hypercube(5, 1), 5),
        (sqrt_construction(5), hypercube(5, 1), 5),
    ]
    for a, b, k in pairs:
        assert find_progression(a, k) is None and find_progression(b, k) is None
        prod = product(a, b)
        assert prod.size == a.size * b.size
        assert find_progression(prod, k) is None
    # the bundled-set product pins the documented 280-point example
    assert product(load_reference_set("fig70"), hypercube(5, 1)).size == 280
    assert time.monotonic() - t0 < 60.0


def test_criterion_7_grid_round_trip_everywhere(rng):
    t0 = time.monotonic()
    sets = [load_reference_set("fig70")]
    for p, n in CONSTRUCTION_MATRIX:
        sets.append(hypercube(p, n))
        sets.append(layered(p, n))
    for p, n in [(3, 2), (5, 2), (5, 3), (7, 3)]:
        for density in (0.1, 0.5, 0.9):
            sets.append(random_set(p, n, density, rng))
    for s in sets:
        doc = parse_grid_document(render_grid(s, s.space.p))
        assert doc.pointset == s
    assert time.monotonic() - t0 < 60.0


def test_criterion_7_thread_count_independence(monkeypatch):
    # multi-worker runs with every subtree forked (cutoff 0) and with the
    # default cutoff, under which the calling process runs the serial search
    t0 = time.monotonic()
    searches = [max_free_exact(5, 2, 4, threads=1)]
    for cutoff in (0, search._INLINE_NODES):
        monkeypatch.setattr(search, "_INLINE_NODES", cutoff)
        searches += [max_free_exact(5, 2, 4, threads=t) for t in (2, 4)]
    assert len({r.size for r in searches}) == 1
    assert len({r.best for r in searches}) == 1
    assert all(r.optimal for r in searches)
    assert time.monotonic() - t0 < 120.0

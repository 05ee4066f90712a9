"""Freeness checking, counting identities, and plane-section line bounds."""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_set
from linefree import verifier
from linefree.constructions import hypercube, load_reference_set
from linefree.geometry import SpaceSpec, directions, index_point
from linefree.pointset import PointSet
from linefree.verifier import (
    LineBounds,
    PlaneProfile,
    degree_line_bound,
    find_progression,
    identity_check,
    line_profile,
    lp_line_bounds,
    plane_profile,
    verification_report,
)


def brute_has_progression(s: PointSet, k: int) -> bool:
    """From-definition oracle: some a, b != 0 with a+ib in S for all i < k."""
    space = s.space
    p = space.p
    members = set(s.points())
    if len(members) < k:
        return False
    for a in members:
        for b in itertools.product(range(p), repeat=space.n):
            if not any(b):
                continue
            if all(
                tuple((ai + i * bi) % p for ai, bi in zip(a, b)) in members
                for i in range(1, k)
            ):
                return True
    return False


# --- find_progression ----------------------------------------------------


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 3)])
def test_find_progression_matches_definition(p, n, rng):
    for density in (0.2, 0.45, 0.7):
        for _ in range(6):
            s = random_set(p, n, density, rng)
            for k in range(3, p + 1):
                w = find_progression(s, k)
                assert (w is not None) == brute_has_progression(s, k)
                if w is not None:
                    pts = w.points(s.space)
                    assert len(pts) == k
                    assert all(q in s for q in pts)
                    assert any(w.step)


def test_find_progression_default_k_is_full_line():
    s = PointSet.full(SpaceSpec(5, 2))
    w = find_progression(s)
    assert w is not None and w.k == 5
    assert len(set(w.points(s.space))) == 5


def test_find_progression_is_deterministic(rng):
    s = random_set(5, 2, 0.6, rng)
    first = find_progression(s, 3)
    assert first == find_progression(s, 3)


def test_sets_smaller_than_k_are_free():
    s = PointSet.from_indices(SpaceSpec(7, 2), [0, 5])
    assert find_progression(s, 3) is None


def test_k_out_of_range_rejected():
    s = PointSet.empty(SpaceSpec(5, 2))
    with pytest.raises(ValueError):
        find_progression(s, 2)
    with pytest.raises(ValueError):
        find_progression(s, 6)


def test_single_line_is_caught_for_every_k():
    # A full line contains a k-progression for every k in [3, p].
    space = SpaceSpec(7, 2)
    line = PointSet.from_points(space, [(i, (2 * i) % 7) for i in range(7)])
    for k in range(3, 8):
        assert find_progression(line, k) is not None


# --- the line-key fast path against brute force ------------------------


def _coords(space: SpaceSpec) -> tuple[np.ndarray, np.ndarray]:
    coords = np.asarray([index_point(space, i) for i in range(space.num_points)])
    return coords, space.p ** np.arange(space.n)


def brute_least_witness(s: PointSet, k: int) -> tuple | None:
    """Least (base, step) by index over every base and step, in order.

    For k = p only canonical steps count: a full line is reported with
    its canonical direction.
    """
    space = s.space
    p = space.p
    coords, powers = _coords(space)
    if k == p:
        steps = sorted(directions(space), key=lambda d: int(np.dot(d, powers)))
    else:
        steps = [index_point(space, i) for i in range(1, space.num_points)]
    best = None
    for step in steps:
        hit = np.ones(space.num_points, dtype=bool)
        for i in range(k):
            hit &= s.bits[(coords + i * np.asarray(step)) % p @ powers]
        if hit.any():
            cand = (int(np.argmax(hit)), int(np.dot(step, powers)))
            best = cand if best is None else min(best, cand)
    if best is None:
        return None
    return index_point(space, best[0]), index_point(space, best[1])


def brute_line_profile(s: PointSet) -> tuple[int, ...]:
    """Per-line counts, each line counted at its least point."""
    space = s.space
    p = space.p
    coords, powers = _coords(space)
    x = [0] * (p + 1)
    for d in directions(space):
        line = (coords[:, None, :] + np.arange(p)[:, None] * np.asarray(d)) % p @ powers
        least = line.min(axis=1) == np.arange(space.num_points)
        for c in s.bits[line[least]].sum(axis=1):
            x[c] += 1
    return tuple(x)


def _check_against_brute_force(s: PointSet) -> None:
    for k in range(3, s.space.p + 1):
        w = find_progression(s, k)
        got = None if w is None else (w.base, w.step)
        assert got == brute_least_witness(s, k), k
    assert line_profile(s).x == brute_line_profile(s)


small_sets = st.builds(
    lambda pn, density, seed: random_set(*pn, density, np.random.default_rng(seed)),
    st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (7, 2), (3, 3), (5, 3)]),
    st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=60, deadline=None)
@given(small_sets)
def test_least_witness_and_profile_match_brute_force(s):
    _check_against_brute_force(s)


@pytest.mark.parametrize("density", [0.2, 0.5, 0.8])
def test_small_blocks_match_brute_force(density, rng, monkeypatch):
    # one space's worth of entries: k < p runs one direction per block,
    # k = p a few, so blocks end inside a pivot group; densities on both
    # sides of 1/2 switch between counting S and its complement
    space = SpaceSpec(7, 3)
    monkeypatch.setattr(verifier, "_BLOCK", space.num_points)
    for _ in range(2):
        _check_against_brute_force(random_set(7, 3, density, rng))


# --- profiles and identities ---------------------------------------------


def test_line_profile_of_hypercube():
    s = hypercube(5, 2)
    prof = line_profile(s)
    assert len(prof.x) == 6
    assert prof.x[5] == 0  # no full line
    assert prof.total_lines == s.space.num_lines
    assert prof.incidence_sum == s.size * s.space.lines_per_point
    assert prof.pair_sum == s.size * (s.size - 1) // 2


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (5, 3), (7, 2)])
def test_identity_check_on_random_sets(p, n, rng):
    for density in (0.0, 0.3, 0.8, 1.0):
        res = identity_check(random_set(p, n, density, rng))
        assert res["ok"], res


def test_plane_profile_shape_and_sums(rng):
    s = random_set(5, 3, 0.4, rng)
    prof = plane_profile(s)
    assert len(prof.multisets) == s.space.num_directions
    for ms in prof.multisets:
        assert len(ms) == 5
        assert sum(ms) == s.size
        assert tuple(sorted(ms, reverse=True)) == ms


def test_plane_profile_of_reference_set_contains_layer_split():
    s = load_reference_set("fig70")
    prof = plane_profile(s)
    assert (16, 16, 16, 16, 6) in prof.multisets


def test_plane_profile_needs_two_dimensions():
    with pytest.raises(ValueError):
        plane_profile(PointSet.empty(SpaceSpec(5, 1)))


def reference_plane_profile(s: PointSet) -> PlaneProfile:
    """One pass over all of S per canonical normal."""
    space = s.space
    pts = np.asarray(s.points(), dtype=np.int64).reshape(-1, space.n)
    out = []
    for normal in directions(space):
        counts = np.bincount(pts @ np.asarray(normal) % space.p, minlength=space.p)
        out.append(tuple(sorted((int(c) for c in counts), reverse=True)))
    return PlaneProfile(space=space, multisets=tuple(out))


PROFILE_SPACES = [(3, 2), (5, 2), (7, 2), (3, 3), (5, 3), (7, 3), (3, 4), (5, 4), (7, 4)]


def _set_of_size(p: int, n: int, m: int, seed: int) -> PointSet:
    return PointSet.from_indices(SpaceSpec(p, n), np.random.default_rng(seed).permutation(p**n)[:m])


@st.composite
def profile_sets(draw):
    p, n = draw(st.sampled_from(PROFILE_SPACES))
    return _set_of_size(p, n, draw(st.integers(0, p**n)), draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=60, deadline=None)
@given(profile_sets())
def test_plane_profile_matches_reference(s):
    assert plane_profile(s) == reference_plane_profile(s)


@pytest.mark.parametrize("p,n", PROFILE_SPACES)
def test_plane_profile_around_the_complement_switch(p, n):
    # empty, full, and one point either side of half: S or ~S is counted
    num = p**n
    for m in (0, (num - 1) // 2, (num + 1) // 2, num):
        s = _set_of_size(p, n, m, seed=m)
        assert plane_profile(s) == reference_plane_profile(s), m


@pytest.mark.parametrize("density", [0.3, 0.7])
def test_plane_profile_blocks_split_direction_ranges(density, rng, monkeypatch):
    # 57 directions of F_7^3 in blocks of 1, 5 and 56: blocks end inside
    # a pivot group and the last block is short
    s = random_set(7, 3, density, rng)
    want = reference_plane_profile(s)
    side = min(s.size, s.space.num_points - s.size)
    for per_block in (1, 5, 56):
        monkeypatch.setattr(verifier, "_BLOCK", per_block * side)
        assert plane_profile(s) == want, per_block


# --- plane-section line bounds -------------------------------------------


@pytest.mark.parametrize(
    "p,m,lo,hi",
    [
        (5, 16, 12, 18),
        (5, 15, 8, 15),
        (5, 14, 4, 13),
        (5, 13, 0, 12),
        (7, 36, 18, 37),
        (7, 35, 12, 33),
        (7, 34, 6, 30),
        (7, 33, 0, 28),
    ],
)
def test_lp_line_bounds_pins(p, m, lo, hi):
    assert lp_line_bounds(p, m) == LineBounds(lo, hi)


def test_lp_line_bounds_validation():
    with pytest.raises(ValueError):
        lp_line_bounds(5, -1)
    with pytest.raises(ValueError):
        lp_line_bounds(5, 26)


def test_lp_line_bounds_flag_impossible_full_plane():
    # 25 points in a plane force a full line, so the no-full-line
    # relaxation is infeasible there and the interval crosses.
    b = lp_line_bounds(5, 25)
    assert b.min > b.max


def test_degree_line_bound_pins():
    assert degree_line_bound(5, 14) == 14
    assert degree_line_bound(5, 15) == 15
    assert degree_line_bound(5, 0) == 0
    # Degrees beat the combination bound at m = 14, 15 for p = 5.
    assert degree_line_bound(5, 14) > lp_line_bounds(5, 14).max
    assert degree_line_bound(5, 15) == lp_line_bounds(5, 15).max


def test_degree_bound_respects_total_line_count():
    for p in (5, 7):
        for m in range(p * p + 1):
            assert 0 <= degree_line_bound(p, m) <= p * (p + 1)


# --- report ---------------------------------------------------------------


def test_verification_report_free_set():
    rep = verification_report(hypercube(5, 2))
    assert rep == {
        "p": 5,
        "n": 2,
        "k": 5,
        "size": 16,
        "free": True,
        "profile": rep["profile"],
    }
    assert "witness" not in rep
    json.dumps(rep)


def test_verification_report_witness():
    rep = verification_report(PointSet.full(SpaceSpec(3, 2)))
    assert rep["free"] is False
    assert set(rep["witness"]) == {"base", "dir"}
    assert len(rep["witness"]["base"]) == 2
    json.dumps(rep)

"""Explicit families: sizes, freeness, and their documented closed forms."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from linefree.bounds import hypercube_size, layered_size, qr_size, sqrt_size
from linefree.constructions import (
    box,
    hypercube,
    layered,
    load_reference_set,
    qr_construction,
    quadratic_residues,
    sqrt_construction,
    sqrt_params,
)
from linefree.geometry import SpaceSpec
from linefree.pointset import PointSet, layer
from linefree.verifier import find_progression


# --- box / hypercube ---------------------------------------------------


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (5, 3), (7, 2), (7, 3)])
def test_hypercube_size_and_freeness(p, n):
    s = hypercube(p, n)
    assert s.size == (p - 1) ** n == hypercube_size(p, n)
    assert find_progression(s) is None


def test_box_window_is_k_free():
    # A box of side k-1 contains no k-term progression.
    for p, k in [(5, 3), (5, 4), (7, 4), (7, 6)]:
        s = box(p, 2, k - 1)
        assert s.size == (k - 1) ** 2
        assert find_progression(s, k) is None


def test_box_side_validation():
    with pytest.raises(ValueError):
        box(5, 2, 6)
    with pytest.raises(ValueError):
        box(5, 2, -1)
    assert box(5, 2, 0).size == 0
    assert box(5, 2, 5).size == 25


def test_full_hypercube_plus_far_corner_has_full_line():
    # Appending the point (p-1, ..., p-1) to the box [0, p-2]^n puts the
    # whole main diagonal {(t, ..., t)} inside the set, which is a line.
    s = hypercube(5, 3).with_points([(4, 4, 4)])
    w = find_progression(s)
    assert w is not None
    assert set(w.points(s.space)) == {(t, t, t) for t in range(5)}


# --- layered sets ------------------------------------------------------


@pytest.mark.parametrize(
    "p,n,size",
    [(5, 3, 66), (5, 4, 268), (7, 3, 219), (7, 4, 1326), (11, 3, 1005)],
)
def test_layered_sizes(p, n, size):
    s = layered(p, n)
    assert s.size == size == layered_size(p, n)


@pytest.mark.parametrize("p,n", [(5, 3), (5, 4), (7, 3)])
def test_layered_freeness(p, n):
    assert find_progression(layered(p, n)) is None


def test_layered_needs_three_dimensions():
    with pytest.raises(ValueError):
        layered(5, 2)


def test_layered_beats_hypercube():
    for p, n in [(5, 3), (7, 3), (5, 4), (11, 3)]:
        assert layered(p, n).size > hypercube(p, n).size


# --- interval (sqrt) construction --------------------------------------


def test_sqrt_params():
    assert sqrt_params(5) == (2, 2, (0, 1), (1, 3))
    assert sqrt_params(11) == (3, 3, (0, 1, 2), (2, 5, 8))


@pytest.mark.parametrize("p,size", [(5, 65), (7, 218), (11, 1005)])
def test_sqrt_sizes_and_freeness(p, size):
    s = sqrt_construction(p)
    assert s.size == size == sqrt_size(p)
    assert find_progression(s) is None


def test_sqrt_rejects_p3():
    with pytest.raises(ValueError):
        sqrt_construction(3)


# --- quadratic-residue construction ------------------------------------


def test_quadratic_residues():
    assert quadratic_residues(7) == {1, 2, 4}
    assert quadratic_residues(31) == {pow(a, 2, 31) for a in range(1, 31)}
    with pytest.raises(ValueError):
        quadratic_residues(9)


def test_qr_requires_7_mod_24():
    for bad in (5, 11, 13, 23):
        with pytest.raises(ValueError):
            qr_construction(bad)


def test_qr7_size_and_freeness():
    s = qr_construction(7)
    assert s.size == 225 == qr_size(7)
    assert find_progression(s) is None


def test_qr31_size_and_freeness():
    s = qr_construction(31)
    assert s.size == 27030 == qr_size(31)
    assert find_progression(s) is None


def _reference_qr(p: int) -> PointSet:
    """The construction's definition as a set of tuples, set operations in order."""
    res = quadratic_residues(p)
    non = set(range(1, p)) - res
    inv2 = pow(2, p - 2, p)
    inv3 = pow(3, p - 2, p)

    pts: set[tuple[int, int, int]] = set()
    for x in range(1, p):
        for y in range(1, p):
            for z in range(1, p):
                pts.add((x, y, z))
    pts |= {(a, 0, a) for a in res} | {(0, a, a) for a in res}
    pts -= {(a, a, a) for a in res} | {(a * inv2 % p, a * inv2 % p, a) for a in res}
    pts |= (
        {(3 * b * inv2 % p, 0, b) for b in non}
        | {(0, 3 * b * inv2 % p, b) for b in non}
        | {(3 * b % p, 0, b) for b in non}
        | {(0, 3 * b % p, b) for b in non}
    )
    pts -= (
        {(b, b, b) for b in non}
        | {(3 * b * inv2 % p, 3 * b * inv2 % p, b) for b in non}
        | {(b * inv3 % p, b * inv3 % p, b) for b in non}
    )
    pts -= {(3 * b % p, -3 * b * inv2 % p, b) for b in non} | {
        (-3 * b * inv2 % p, 3 * b % p, b) for b in non
    }
    pts |= (
        {(b, b, 0) for b in non}
        | {(2 * a % p, -a % p, 0) for a in res}
        | {(-a % p, 2 * a % p, 0) for a in res}
    )
    return PointSet.from_points(SpaceSpec(p, 3), [(z, x, y) for (x, y, z) in pts])


@pytest.mark.parametrize("p", [7, 31, 79, 103])
def test_qr_mask_matches_the_set_definition(p):
    assert np.array_equal(qr_construction(p).bits, _reference_qr(p).bits)


def test_qr31_bits_pin():
    digest = hashlib.sha256(qr_construction(31).bits.tobytes()).hexdigest()
    assert digest == "9b4af76ffb7aa6dfe118d3fcccd8f3c4bfafaa137126b0106105c60812a4ea3b"


# --- bundled reference set ----------------------------------------------


def test_reference_set_fig70():
    s = load_reference_set("fig70")
    assert s.space == SpaceSpec(5, 3)
    assert s.size == 70
    assert tuple(layer(s, v).size for v in range(5)) == (6, 16, 16, 16, 16)
    assert find_progression(s) is None


def test_reference_set_unknown_name():
    with pytest.raises(ValueError):
        load_reference_set("nope")

"""Explicit families: sizes, freeness, and their documented closed forms."""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

from linefree.bounds import construction
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
from linefree.geometry import SpaceSpec, space_tables
from linefree.pointset import PointSet, layer
from linefree.verifier import find_progression


# --- box / hypercube ---------------------------------------------------


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (5, 3), (7, 2), (7, 3)])
def test_hypercube_size_and_freeness(p, n):
    s = hypercube(p, n)
    assert s.size == (p - 1) ** n == construction("hypercube", p, n).size
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
    assert s.size == size == construction("layered", p, n).size


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
    assert s.size == size == construction("sqrt", p, 3).size
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
    assert s.size == 225 == construction("qr", 7, 3).size
    assert find_progression(s) is None


def test_qr31_size_and_freeness():
    s = qr_construction(31)
    assert s.size == 27030 == construction("qr", 31, 3).size
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


# sha256 of .bits, taken from the coordinate-table builds these replaced
BITS_PINS = {
    "cube-5-3": (hypercube, (5, 3), "a83ec5954ab144749781f33b8a2a2aa1a8fda6ef93d0df4aeb8e3e1fc9af9057"),
    "cube-37-3": (hypercube, (37, 3), "339d50a2c32bf6b55dde701cd3e51d80c2c849c5fd5bd7cec2d18ff35b17edd1"),
    "box-7-4-5": (box, (7, 4, 5), "84b15d3f9a6845d5636677f0737e97f16dbbd223c01aac2fd68a080c15c5d9ab"),
    "layered53": (layered, (5, 3), "364479b754fabb7fe095d42854fc707e08ba7716c7f0a393903228defc81aca1"),
    "layered74": (layered, (7, 4), "da6eb7cc048b62ca8df933344a868ce4f8d25f96826f391abb08ddd1586a3217"),
    "layered56": (layered, (5, 6), "3324cbad4bcf9a4a730feec9ab8e17793b28e7a852159b486c1a91bc5b1aa202"),
    "sqrt29": (sqrt_construction, (29,), "ab8d1b3575d293b27266d8482dc5190e2a5f9114db1377794fe1f912d087878c"),
    "sqrt37": (sqrt_construction, (37,), "fb54727d1979983b011820a3ec607938e4d222185dd49be72f6a2d2b4187da1e"),
    "qr31": (qr_construction, (31,), "9b4af76ffb7aa6dfe118d3fcccd8f3c4bfafaa137126b0106105c60812a4ea3b"),
}


@pytest.mark.parametrize("name", list(BITS_PINS))
def test_construction_bits_are_pinned(name):
    build, args, digest = BITS_PINS[name]
    assert hashlib.sha256(build(*args).bits.tobytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "build,args",
    [(hypercube, (31, 4)), (layered, (7, 7)), (sqrt_construction, (97,))],
    ids=["cube-31-4", "layered77", "sqrt97"],
)
def test_constructions_take_a_few_bytes_per_point(build, args):
    # a bitmap is 1 byte per point, a p^n x n coordinate table 8n; the cache is
    # cleared so that a table built by an earlier test cannot hide one
    space_tables.cache_clear()
    tracemalloc.start()
    try:
        s = build(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * s.space.num_points


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

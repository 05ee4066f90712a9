"""Point-set container, grid file format, layers, products, affine maps."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from conftest import random_set
from linefree import constructions as cons
from linefree.geometry import SpaceSpec
from linefree.pointset import (
    GridFormatError,
    PointSet,
    apply_affine,
    from_layers,
    layer,
    parse_grid,
    parse_grid_document,
    product,
    render_grid,
)


def test_construction_and_membership():
    space = SpaceSpec(5, 2)
    s = PointSet.from_indices(space, [0, 7, 24])
    assert len(s) == s.size == 3
    assert (0, 0) in s and (2, 1) in s and (4, 4) in s
    assert (1, 0) not in s
    assert s == PointSet.from_points(space, [(0, 0), (2, 1), (4, 4)])
    assert hash(s) == hash(PointSet.from_indices(space, [24, 7, 0]))
    assert PointSet.empty(space).size == 0
    assert PointSet.full(space).size == 25


def test_from_indices_accepts_arrays_lists_generators_and_empty():
    space = SpaceSpec(5, 2)
    want = PointSet.from_indices(space, [0, 7, 24])
    assert PointSet.from_indices(space, np.array([24, 7, 0, 7])) == want
    assert PointSet.from_indices(space, np.array([7, 24, 0], dtype=np.int32)) == want
    assert PointSet.from_indices(space, (i for i in (0, 7, 24))) == want
    assert PointSet.from_indices(space, []) == PointSet.empty(space)
    assert PointSet.from_indices(space, np.empty(0, dtype=np.int64)) == PointSet.empty(space)


def test_from_indices_range_checks_and_does_not_alias():
    space = SpaceSpec(5, 2)
    for bad in ([-1], [25], np.array([3, -1]), np.array([0, 25])):
        with pytest.raises(ValueError):
            PointSet.from_indices(space, bad)
    idx = np.array([1, 2])
    s = PointSet.from_indices(space, idx)
    idx[0] = 3
    assert s == PointSet.from_indices(space, [1, 2])
    assert not np.shares_memory(s.bits, idx)
    assert not s.bits.flags.writeable


def test_bits_are_frozen():
    s = PointSet.empty(SpaceSpec(3, 2))
    with pytest.raises((ValueError, AttributeError)):
        s.bits[0] = True


def test_set_algebra():
    space = SpaceSpec(3, 2)
    a = PointSet.from_indices(space, [0, 1, 2])
    b = PointSet.from_indices(space, [2, 3])
    assert a.union(b).size == 4
    assert a.difference(b) == PointSet.from_indices(space, [0, 1])
    assert a.with_points([(0, 1)]).size == 4
    assert a.without_points([(0, 0)]).size == 2


@pytest.mark.parametrize("p,n", [(3, 1), (7, 1), (3, 2), (5, 2), (3, 3), (5, 3), (3, 4)])
def test_grid_round_trip_random(p, n, rng):
    for density in (0.0, 0.2, 0.5, 1.0):
        s = random_set(p, n, density, rng)
        text = render_grid(s, p)
        doc = parse_grid_document(text)
        assert doc.pointset == s
        assert doc.k == p
        assert render_grid(doc.pointset, doc.k) == text  # canonical form


def test_grid_header_carries_k():
    s = PointSet.from_indices(SpaceSpec(5, 2), [0, 1])
    text = render_grid(s, 4)
    assert "p=5 n=2 k=4" in text
    assert parse_grid_document(text).k == 4


def test_grid_one_dimensional_form_is_one_row():
    s = PointSet.from_indices(SpaceSpec(5, 1), [0, 2, 3])
    text = render_grid(s, 4)
    assert text == "linefree-grid v1\np=5 n=1 k=4\n\nlayer -\nX.XX.\n"
    assert parse_grid(text) == s
    with pytest.raises(GridFormatError):
        parse_grid(text + ".....\n")  # a second row
    with pytest.raises(GridFormatError):
        parse_grid(text.replace("layer -", "layer 0"))


def test_parse_empty_layers_is_empty_set():
    text = "linefree-grid v1\np=5 n=2 k=5\n"
    assert parse_grid(text).size == 0


def test_parse_errors_carry_line_numbers():
    good = render_grid(PointSet.from_indices(SpaceSpec(3, 2), [0, 4]), 3)
    with pytest.raises(GridFormatError):
        parse_grid("not-a-grid v9\np=3 n=2 k=3\n")
    with pytest.raises(GridFormatError):
        parse_grid(good.replace("p=3 n=2 k=3", "p=3 n=2"))
    bad_char = good.replace("X", "#", 1)
    with pytest.raises(GridFormatError) as ei:
        parse_grid(bad_char)
    assert ei.value.line is not None
    truncated = "\n".join(good.splitlines()[:-1]) + "\n"
    with pytest.raises(GridFormatError):
        parse_grid(truncated)


GRID_PINS = {
    "qr31": "b3cf264ad2c306606961055f57453d8ec2da71ff793adbc1d1e724728df8a3a4",
    "layered74": "f9c69abbb77aa89c8581259c3e119704aba7d09a5ca1b25ad624bc2860e230f5",
    "fig70": "d016eac3e6f315078dcd167b6c7238c4577ab52249b05dba4bf0efb91b32b8f2",
    "random35": "fc7b0ffb5ad303297bd9b441ea9da2c7742eaf53028906195e0d194047fb0538",
}


def _pinned_set(name: str) -> PointSet:
    if name == "qr31":
        return cons.qr_construction(31)
    if name == "layered74":
        return cons.layered(7, 4)
    if name == "fig70":
        return cons.load_reference_set("fig70")
    return PointSet(SpaceSpec(3, 5), np.random.default_rng(5).random(3**5) < 0.5)


@pytest.mark.parametrize("name", sorted(GRID_PINS))
def test_grid_text_is_pinned(name):
    s = _pinned_set(name)
    text = render_grid(s)
    assert hashlib.sha256(text.encode()).hexdigest() == GRID_PINS[name]
    assert parse_grid(text) == s


def test_product_matches_coordinate_concatenation(rng):
    a = random_set(3, 2, 0.4, rng)
    b = random_set(3, 1, 0.6, rng)
    prod = product(a, b)
    assert prod.space == SpaceSpec(3, 3)
    assert prod.size == a.size * b.size
    want = {
        pa + pb
        for pa in a.points()
        for pb in b.points()
    }
    assert set(prod.points()) == want


def test_product_requires_common_prime():
    with pytest.raises(ValueError):
        product(PointSet.empty(SpaceSpec(3, 2)), PointSet.empty(SpaceSpec(5, 2)))


def test_layers_decompose_and_rebuild(rng):
    p = 5
    s = random_set(p, 3, 0.3, rng)
    parts = [layer(s, v) for v in range(p)]
    assert all(part.space == SpaceSpec(p, 2) for part in parts)
    assert sum(part.size for part in parts) == s.size
    assert from_layers(p, parts) == s


def test_apply_affine_preserves_size_and_composes(rng):
    p = 5
    s = random_set(p, 2, 0.4, rng)
    m1, v1 = [[2, 1], [1, 1]], [3, 0]  # det 1
    m2, v2 = [[1, 2], [0, 1]], [0, 4]  # det 1
    once = apply_affine(apply_affine(s, m1, v1), m2, v2)
    comp_m = [[(m2[i][0] * m1[0][j] + m2[i][1] * m1[1][j]) % p for j in range(2)] for i in range(2)]
    comp_v = [
        (m2[i][0] * v1[0] + m2[i][1] * v1[1] + v2[i]) % p for i in range(2)
    ]
    assert once == apply_affine(s, comp_m, comp_v)
    assert once.size == s.size


def test_apply_affine_rejects_singular_matrix():
    s = PointSet.from_indices(SpaceSpec(5, 2), [0])
    with pytest.raises(ValueError):
        apply_affine(s, [[1, 2], [2, 4]], [0, 0])  # det = 0 mod 5


def test_translation_moves_points():
    space = SpaceSpec(5, 2)
    s = PointSet.from_points(space, [(0, 0), (1, 2)])
    t = apply_affine(s, [[1, 0], [0, 1]], [1, 1])
    assert set(t.points()) == {(1, 1), (2, 3)}

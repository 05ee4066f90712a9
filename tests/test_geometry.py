"""The closed-form line tables checked against a from-scratch line oracle."""

from __future__ import annotations

import numpy as np
import pytest

from linefree.bounds import (
    alpha_fgr,
    bounds_report,
    lower_closed_forms,
    upper_recursive,
    upper_simple,
)
from linefree.cli import EXIT_USAGE, dispatch
from linefree.constructions import box, quadratic_residues
from linefree.geometry import (
    SpaceSpec,
    canonical_direction,
    det_mod,
    directions,
    index_point,
    is_prime,
    point_index,
    require_k,
    require_space,
    space_tables,
)
from linefree.pointset import GridFormatError, parse_grid_document, render_grid
from linefree.search import brute_force_oracle, max_free_exact
from linefree.verifier import find_progression


def oracle_line_indices(space: SpaceSpec, a: tuple[int, ...], b: tuple[int, ...]) -> frozenset:
    """Index set of the affine line through a != b, from the definition."""
    p = space.p
    d = tuple((y - x) % p for x, y in zip(a, b))
    return frozenset(
        point_index(space, tuple((x + t * s) % p for x, s in zip(a, d)))
        for t in range(p)
    )


SPACES = [(3, 2), (5, 2), (3, 3), (5, 3), (7, 2)]


def line_columns(space: SpaceSpec) -> list[np.ndarray]:
    """Per direction, the (p, p^{n-1}) line matrix of the closed form."""
    t = space_tables(space.p, space.n)
    return [t.line_matrix(di) for di in range(space.num_directions)]


@pytest.mark.parametrize("p,n", SPACES)
def test_space_counts(p, n):
    space = SpaceSpec(p, n)
    assert space.num_points == p**n
    assert space.num_directions == (p**n - 1) // (p - 1)
    assert space.lines_per_point == space.num_directions
    assert space.num_lines == space.num_directions * p ** (n - 1)
    lines = np.hstack(line_columns(space)).T
    assert lines.shape == (space.num_lines, p)
    assert all(len(set(l)) == p for l in lines.tolist())
    # together the lines cover every pair exactly once
    assert len(lines) * p * (p - 1) // 2 == space.num_points * (space.num_points - 1) // 2


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (5, 3), (7, 2)])
def test_index_round_trip(p, n):
    space = SpaceSpec(p, n)
    for idx in range(space.num_points):
        assert point_index(space, index_point(space, idx)) == idx


@pytest.mark.parametrize("p,n", SPACES)
def test_line_through_matches_oracle(p, n):
    # every column of every line matrix is the oracle line through its
    # first two points
    space = SpaceSpec(p, n)
    for mat in line_columns(space):
        for col in mat.T.tolist():
            a, b = index_point(space, col[0]), index_point(space, col[1])
            assert frozenset(col) == oracle_line_indices(space, a, b)


@pytest.mark.parametrize("p,n", SPACES)
def test_every_pair_on_exactly_one_enumerated_line(p, n):
    space = SpaceSpec(p, n)
    num = space.num_points
    on_line = np.zeros((num, num), dtype=np.int64)
    for mat in line_columns(space):
        for col in mat.T:
            on_line[np.ix_(col, col)] += 1
    np.fill_diagonal(on_line, 1)
    assert (on_line == 1).all()


@pytest.mark.parametrize("p,n", SPACES)
def test_incidence_index_consistent(p, n):
    # key_blocks names, for every point and direction, the column of the
    # line matrix that holds the point and its row on that column
    space = SpaceSpec(p, n)
    t = space_tables(p, n)
    mats = line_columns(space)
    pts = np.arange(space.num_points)
    seen = 0
    for block in (1, 2, space.num_directions):
        for dis, keys, pos in t.key_blocks(pts, block):
            assert keys.shape == (dis.size, pts.size)
            for b, di in enumerate(dis.tolist()):
                assert (mats[di][pos, keys[b]] == pts).all()
                seen += 1
    assert seen == 3 * space.num_directions


@pytest.mark.parametrize("p,n", SPACES)
def test_line_points_broadcast_to_the_line_matrix(p, n):
    space = SpaceSpec(p, n)
    t = space_tables(p, n)
    keys = np.arange(p ** (n - 1))
    for di, mat in enumerate(line_columns(space)):
        assert (t.line_points(di, keys, np.arange(p)[:, None]) == mat).all()


@pytest.mark.parametrize("p,n", [(3, 1), (5, 2), (3, 3), (7, 2), (3, 4)])
def test_directions_are_the_canonical_vectors_in_index_order(p, n):
    # line numbering in the search and plane_profile's class order rest on it
    space = SpaceSpec(p, n)
    pts = [index_point(space, i) for i in range(1, space.num_points)]
    assert directions(space) == [v for v in pts if canonical_direction(space, v) == v]


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (5, 3), (7, 2)])
def test_canonical_direction_collapses_scalar_multiples(p, n):
    space = SpaceSpec(p, n)
    vecs = directions(space)
    assert len(vecs) == space.num_directions
    assert len(set(vecs)) == len(vecs)
    for vec in vecs:
        assert next(c for c in vec if c) == 1  # first nonzero entry is 1
        for lam in range(1, p):
            scaled = tuple((lam * c) % p for c in vec)
            assert canonical_direction(space, scaled) == vec


def test_zero_vector_has_no_direction():
    with pytest.raises(ValueError):
        canonical_direction(SpaceSpec(5, 2), (0, 0))


def test_det_mod_and_primality():
    assert det_mod([[1, 0], [0, 1]], 5) == 1
    assert det_mod([[2, 1], [1, 3]], 5) == 0  # 2*3 - 1*1 = 5
    assert [q for q in range(2, 20) if is_prime(q)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_non_prime_space_rejected():
    with pytest.raises(ValueError):
        SpaceSpec(6, 2)


@pytest.mark.parametrize("p", [1, 2, 9])
def test_every_module_rejects_a_non_odd_prime_alike(p):
    # one check, one message, for the space, the constructions and the bounds
    calls = [
        lambda: SpaceSpec(p, 2),
        lambda: box(p, 2, 1),
        lambda: quadratic_residues(p),
        lambda: upper_simple(p, 2),
        lambda: alpha_fgr(p),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"^p must be an odd prime, got {p}$"):
            call()


@pytest.mark.parametrize("n", [0, -1])
def test_every_space_argument_rejects_n_below_1_alike(n, capsys):
    want = f"n must be >= 1, got {n}"
    for call in (
        lambda: require_space(5, n),
        lambda: SpaceSpec(5, n),
        lambda: upper_simple(5, n),
        lambda: upper_recursive(5, n, 5, 0),
        lambda: lower_closed_forms(5, n),
        lambda: bounds_report(5, n),
    ):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == want
    assert dispatch(["bounds", "-p", "5", "-n", str(n)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"linefree bounds: {want}\n"


@pytest.mark.parametrize("k", [2, 4])
def test_every_entry_point_rejects_k_outside_3_to_p_alike(k, tmp_path, capsys):
    p = 3
    want = f"k must be in [3, p], got {k}"
    s = box(p, 2, 2)
    for call in (
        lambda: require_k(p, k),
        lambda: find_progression(s, k),
        lambda: render_grid(s, k),
        lambda: max_free_exact(p, 2, k),
        lambda: brute_force_oracle(p, 2, k),
        lambda: upper_recursive(p, 2, k, 4),
        lambda: bounds_report(p, 2, k),
    ):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == want
    with pytest.raises(GridFormatError) as exc:
        parse_grid_document(render_grid(s).replace(f"k={p}", f"k={k}"))
    assert str(exc.value) == f"line 2: {want}"

    grid = tmp_path / "s.grid"
    grid.write_text(render_grid(s))
    for argv in (
        ["verify", "-k", str(k), str(grid)],
        ["search", "-p", str(p), "-n", "2", "-k", str(k)],
        ["bounds", "-p", str(p), "-n", "2", "-k", str(k)],
    ):
        assert dispatch(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"linefree {argv[0]}: {want}\n"

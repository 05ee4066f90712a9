"""Affine geometry of F_p^n: points, directions, lines, and hyperplanes.

Points are tuples of coordinates in [0, p); the index of a point is its
radix-p value with coordinate 0 least significant.  A direction is a
nonzero vector normalized so that its first nonzero coordinate, the
pivot, is 1; there are (p^n - 1)/(p - 1) of them, and each line is
written as base + i*dir with base the least-index point on the line.

Lines are named in closed form: the line with direction d through x has
key x - x_pivot*d with the pivot coordinate dropped, in [0, p^(n-1)), and
x's position on it is x_pivot; its point at position t is key + t*d.
Keys and point lists are computed when asked for; nothing is kept per
direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_POINTS = 2**31
DEFAULT_INDEX_BUDGET = 2**22  # line-table entries an index may materialize


class ResourceBudgetError(MemoryError):
    """Raised when an operation would exceed its memory budget."""


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    d = 3
    while d * d <= m:
        if m % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class SpaceSpec:
    """The ambient space F_p^n."""

    p: int
    n: int

    def __post_init__(self) -> None:
        if not is_prime(self.p) or self.p < 3:
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.p**self.n > MAX_POINTS:
            raise ValueError(f"p^n exceeds the {MAX_POINTS} point cap")

    @property
    def num_points(self) -> int:
        return self.p**self.n

    @property
    def num_directions(self) -> int:
        return (self.p**self.n - 1) // (self.p - 1)

    @property
    def lines_per_point(self) -> int:
        return self.num_directions

    @property
    def num_lines(self) -> int:
        return self.p ** (self.n - 1) * self.num_directions

    @property
    def num_parallel_classes(self) -> int:
        return self.num_directions


def point_index(space: SpaceSpec, point: tuple[int, ...]) -> int:
    if len(point) != space.n:
        raise ValueError(f"point has {len(point)} coordinates, expected {space.n}")
    idx = 0
    for c in reversed(point):
        if not 0 <= c < space.p:
            raise ValueError(f"coordinate {c} out of range for p={space.p}")
        idx = idx * space.p + c
    return idx


def index_point(space: SpaceSpec, index: int) -> tuple[int, ...]:
    if not 0 <= index < space.num_points:
        raise ValueError(f"index {index} out of range")
    coords = []
    for _ in range(space.n):
        index, c = divmod(index, space.p)
        coords.append(c)
    return tuple(coords)


def canonical_direction(space: SpaceSpec, vec: tuple[int, ...]) -> tuple[int, ...]:
    """Scale a nonzero vector so its first nonzero coordinate is 1."""
    v = tuple(c % space.p for c in vec)
    pivot = next((j for j, c in enumerate(v) if c), None)
    if pivot is None:
        raise ValueError("the zero vector has no direction")
    inv = pow(v[pivot], space.p - 2, space.p)
    return tuple(c * inv % space.p for c in v)


@dataclass(frozen=True)
class Line:
    """A full line {base + i*dir : 0 <= i < p}, in canonical form."""

    base: tuple[int, ...]
    dir: tuple[int, ...]
    points: tuple[int, ...]  # the p point indices in traversal order


@dataclass(frozen=True)
class Hyperplane:
    """The hyperplane {x : normal . x == constant}."""

    normal: tuple[int, ...]
    constant: int

    def point_indices(self, space: SpaceSpec) -> np.ndarray:
        t = space_tables(space.p, space.n)
        vals = t.coords @ np.asarray(self.normal, dtype=np.int64) % space.p
        return np.nonzero(vals == self.constant)[0].astype(np.int64)


@dataclass(frozen=True)
class ParallelClass:
    normal: tuple[int, ...]
    planes: tuple[Hyperplane, ...]


class _SpaceTables:
    """Vectorized lookup tables for one space, built once and shared."""

    def __init__(self, p: int, n: int):
        self.p = p
        self.n = n
        num = p**n
        self.powers = (p ** np.arange(n, dtype=np.int64)).astype(np.int64)
        self.coords = coords = np.arange(num, dtype=np.int64)[:, None] // self.powers % p
        # directions in index order: the points whose first nonzero
        # coordinate, the pivot, is 1
        moved = coords != 0
        pivots = np.argmax(moved, axis=1)
        canonical = moved.any(axis=1) & (coords[np.arange(num), pivots] == 1)
        self.dir_vecs = coords[canonical]
        self.dir_pivots = pivots[canonical]
        self.dir_pos = {tuple(int(c) for c in v): i for i, v in enumerate(self.dir_vecs)}
        self._dir_last = n - 1 - np.argmax(self.dir_vecs[:, ::-1] != 0, axis=1)
        last = zip(self.dir_vecs, self._dir_last)
        self._dir_last_inv = np.asarray([pow(int(v[j]), p - 2, p) for v, j in last])

    def key_blocks(self, pts: np.ndarray, block: int):
        """Yield (dis, keys, pos) for blocks of at most `block` directions.

        A block's directions dis share a pivot.  keys[b, j] names the line
        through point pts[j] with direction dis[b]; pos[j] is its position.
        """
        p, n = self.p, self.n
        x = self.coords[pts].astype(np.int32)  # keys are below p^(n-1) < 2^31
        c = np.arange(p, dtype=np.int32)[:, None]
        for pivot in range(n):
            group = np.nonzero(self.dir_pivots == pivot)[0]
            low = x[:, :pivot] @ self.powers[:pivot].astype(np.int32)
            # terms[j][c]: coordinate j's key digit, placed, when d_j = c
            terms = {j: (x[:, j] - c * x[:, pivot]) % p * p ** (j - 1) for j in range(pivot + 1, n)}
            for lo in range(0, group.size, block):
                dis = group[lo : lo + block]
                keys = np.repeat(low[None, :], dis.size, axis=0)
                for j, term in terms.items():
                    keys += term[self.dir_vecs[dis, j]]
                yield dis, keys, x[:, pivot]

    def line_points(self, dis, keys, pos) -> np.ndarray:
        """Index of the point at position pos on the line (dis, keys); broadcasts."""
        dis, pos = np.asarray(dis), np.asarray(pos)
        low = self.powers[self.dir_pivots[dis]]
        start = keys % low + keys // low * (low * self.p)  # pivot coordinate 0
        moved = self.coords[start] + pos[..., None] * self.dir_vecs[dis]
        return moved % self.p @ self.powers

    def line_base(self, dis, keys) -> np.ndarray:
        """Least point index on each line (dis, keys): the point where the last
        coordinate d moves, the most significant one that varies, is 0."""
        c0 = self.coords[self.line_points(dis, keys, 0), self._dir_last[dis]]
        return self.line_points(dis, keys, -c0 * self._dir_last_inv[dis] % self.p)

    def line_matrix(self, di: int) -> np.ndarray:
        """(p, p^{n-1}) int32 indices of the lines with direction di.

        Entry (t, key) is the point at position t on the line named by key.
        Built from the closed form on every call; nothing is cached.
        """
        keys, pos = np.arange(self.p ** (self.n - 1)), np.arange(self.p)[:, None]
        return self.line_points(di, keys, pos).astype(np.int32)


@lru_cache(maxsize=64)
def space_tables(p: int, n: int) -> _SpaceTables:
    SpaceSpec(p, n)  # validate
    return _SpaceTables(p, n)


def directions(space: SpaceSpec) -> list[tuple[int, ...]]:
    t = space_tables(space.p, space.n)
    return [tuple(int(c) for c in v) for v in t.dir_vecs]


def _budget_check(space: SpaceSpec, budget: int, what: str) -> None:
    entries = space.num_lines * space.p
    if entries > budget:
        raise ResourceBudgetError(
            f"{what} for p={space.p}, n={space.n} needs {entries} line-table "
            f"entries, over the budget of {budget}; raise budget= to allow"
        )


def _walk(t: _SpaceTables, idx: int, di: int) -> np.ndarray:
    """The p point indices idx + i*d, i = 0..p-1, for direction number di."""
    return (t.coords[idx] + np.arange(t.p)[:, None] * t.dir_vecs[di]) % t.p @ t.powers


def _line(space: SpaceSpec, t: _SpaceTables, di: int, idx: int) -> Line:
    """The line with direction number di through point idx, from its base."""
    pts = _walk(t, int(_walk(t, idx, di).min()), di)
    d = tuple(int(c) for c in t.dir_vecs[di])
    return Line(base=index_point(space, int(pts[0])), dir=d, points=tuple(int(q) for q in pts))


def enumerate_lines(space: SpaceSpec, budget: int = DEFAULT_INDEX_BUDGET) -> list[Line]:
    """All p^{n-1}*(p^n-1)/(p-1) lines, sorted by (direction, base)."""
    _budget_check(space, budget, "line enumeration")
    t = space_tables(space.p, space.n)
    out = []
    for di in range(len(t.dir_vecs)):
        for base in np.sort(t.line_matrix(di).min(axis=0)):
            out.append(_line(space, t, di, int(base)))
    return out


def line_through(space: SpaceSpec, point: tuple[int, ...], vec: tuple[int, ...]) -> Line:
    """The unique line through a point with the given (nonzero) direction."""
    d = canonical_direction(space, vec)
    t = space_tables(space.p, space.n)
    return _line(space, t, t.dir_pos[d], point_index(space, point))


def parallel_classes(space: SpaceSpec) -> list[ParallelClass]:
    """Classes of p parallel hyperplanes, one per canonical normal."""
    if space.n < 2:
        raise ValueError("hyperplane classes need n >= 2")
    out = []
    for normal in directions(space):
        planes = tuple(Hyperplane(normal, c) for c in range(space.p))
        out.append(ParallelClass(normal=normal, planes=planes))
    return out


class IncidenceIndex:
    """Point/line/plane incidence lookups for one space.

    Lines are numbered in (direction, base) order.  For n = 3 each line
    lies in exactly p + 1 planes; plane id = class_index * p + constant
    with classes in canonical-normal order.
    """

    def __init__(self, space: SpaceSpec, budget: int = DEFAULT_INDEX_BUDGET):
        _budget_check(space, budget, "incidence index")
        self.space = space
        t = space_tables(space.p, space.n)
        self._tables = t
        p = space.p
        self._per_dir = space.num_points // p  # lines in each direction
        blocks = []
        for di in range(len(t.dir_vecs)):
            mat = t.line_matrix(di)
            blocks.append(mat[:, np.argsort(mat.min(axis=0), kind="stable")].T)
        self.line_points = np.vstack(blocks)  # (num_lines, p), unordered within a row
        self._line_base = self.line_points.min(axis=1)
        num_lines, _ = self.line_points.shape
        ids = np.repeat(np.arange(num_lines, dtype=np.int64), p)
        flat = self.line_points.reshape(-1)
        order = np.argsort(flat, kind="stable")
        self._through_ids = ids[order]
        counts = np.bincount(flat, minlength=space.num_points)
        self._through_offsets = np.concatenate(([0], np.cumsum(counts)))

    @property
    def num_lines(self) -> int:
        return int(self.line_points.shape[0])

    def line(self, line_id: int) -> Line:
        di = line_id // self._per_dir
        # restore traversal order from the unordered point set
        return _line(self.space, self._tables, di, int(self.line_points[line_id, 0]))

    def lines_through(self, idx: int) -> np.ndarray:
        lo, hi = self._through_offsets[idx], self._through_offsets[idx + 1]
        return self._through_ids[lo:hi]

    def pair_line(self, i: int, j: int) -> int:
        """Id of the unique line through two distinct points."""
        if i == j:
            raise ValueError("a line needs two distinct points")
        space, t = self.space, self._tables
        a = t.coords[i]
        b = t.coords[j]
        d = canonical_direction(space, tuple(int(c) for c in (b - a) % space.p))
        di = t.dir_pos[d]
        base = int(_walk(t, i, di).min())
        lo = di * self._per_dir
        pos = int(np.searchsorted(self._line_base[lo : lo + self._per_dir], base))
        return int(lo + pos)

    def planes_of_line(self, line_id: int) -> tuple[int, ...]:
        """Ids of the p + 1 planes containing a line (n = 3 only)."""
        if self.space.n != 3:
            raise ValueError("plane incidence is defined for n = 3")
        space, t = self.space, self._tables
        ln = self.line(line_id)
        d = np.asarray(ln.dir, dtype=np.int64)
        base = np.asarray(ln.base, dtype=np.int64)
        out = []
        for ci, normal in enumerate(t.dir_vecs):
            if int(normal @ d) % space.p == 0:
                c = int(normal @ base) % space.p
                out.append(ci * space.p + c)
        return tuple(sorted(out))


def build_incidence_index(space: SpaceSpec, budget: int = DEFAULT_INDEX_BUDGET) -> IncidenceIndex:
    return IncidenceIndex(space, budget=budget)


def det_mod(matrix: list[list[int]], p: int) -> int:
    """Determinant of a square integer matrix, reduced mod p."""
    m = [[c % p for c in row] for row in matrix]
    size = len(m)
    det = 1
    for col in range(size):
        piv = next((r for r in range(col, size) if m[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det % p
        det = det * m[col][col] % p
        inv = pow(m[col][col], p - 2, p)
        for r in range(col + 1, size):
            f = m[r][col] * inv % p
            if f:
                for c in range(col, size):
                    m[r][c] = (m[r][c] - f * m[col][c]) % p
    return det % p

"""Affine geometry of F_p^n: points, directions, and lines in closed form.

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


def require_odd_prime(p: int) -> None:
    if not is_prime(p) or p < 3:
        raise ValueError(f"p must be an odd prime, got {p}")


def require_k(p: int, k: int) -> None:
    """k-term progressions in F_p^n are defined for 3 <= k <= p."""
    if not 3 <= k <= p:
        raise ValueError(f"k must be in [3, p], got {k}")


@dataclass(frozen=True)
class SpaceSpec:
    """The ambient space F_p^n."""

    p: int
    n: int

    def __post_init__(self) -> None:
        require_odd_prime(self.p)
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

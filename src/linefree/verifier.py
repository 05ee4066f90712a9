"""Verification of progression-freeness and line/plane counting.

A k-progression is a set {a + i*b : 0 <= i < k} with b != 0; since p is
prime the k points are automatically distinct, and a p-progression is
exactly a full line.  The counting helpers implement the standard
double-counting identities for line profiles, plus two per-plane bounds
on the number of (p-1)-lines used by the certificate engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .geometry import SpaceSpec, canonical_direction, index_point, require_k, space_tables
from .pointset import PointSet

_BLOCK = 2**17  # entries held per block of directions


@dataclass(frozen=True)
class ProgressionWitness:
    """A k-progression base + i*step found inside a set.

    step is the actual common difference; for k = p it equals the
    canonical direction of the line.  direction is always canonical.
    """

    base: tuple[int, ...]
    step: tuple[int, ...]
    k: int

    def canonical_dir(self, space: SpaceSpec) -> tuple[int, ...]:
        return canonical_direction(space, self.step)

    def points(self, space: SpaceSpec) -> list[tuple[int, ...]]:
        out = []
        for i in range(self.k):
            out.append(tuple((b + i * s) % space.p for b, s in zip(self.base, self.step)))
        return out


def _smaller_side(s: PointSet) -> tuple[np.ndarray, bool]:
    """(indices, inside): the points of S if inside, else of its complement,
    whichever is smaller.  A flat's count is then its size minus theirs."""
    inside = 2 * s.size <= s.space.num_points
    return np.nonzero(s.bits if inside else ~s.bits)[0], inside


def _line_counts(s: PointSet):
    """Yield (dis, counts[b, key] = |S & line|), counting the smaller of S and ~S."""
    space, p = s.space, s.space.p
    lines = space.num_points // p  # per direction
    pts, inside = _smaller_side(s)
    t = space_tables(p, space.n)
    for dis, keys, _ in t.key_blocks(pts, max(1, _BLOCK // max(pts.size, lines))):
        keys = keys + np.arange(dis.size)[:, None] * lines
        counts = np.bincount(keys.ravel(), minlength=dis.size * lines).reshape(dis.size, lines)
        yield dis, counts if inside else p - counts


def find_progression(s: PointSet, k: int | None = None) -> ProgressionWitness | None:
    """Least k-progression contained in S, or None if S is k-progression-free.

    The least witness minimizes (base index, step vector index); every
    reversal pair is considered, so the reported representation is
    deterministic.  For k = p the step is the line's canonical direction
    and the base its least point.
    """
    space = s.space
    p, num = space.p, space.num_points
    if k is None:
        k = p
    require_k(p, k)
    t = space_tables(space.p, space.n)
    best = num * num  # base index * num + step index; above every witness
    if k == p:
        for dis, counts in _line_counts(s):
            b, key = np.divmod(np.flatnonzero(counts == p), counts.shape[1])
            if b.size:
                steps = t.dir_vecs[dis[b]] @ t.powers
                best = int((t.line_base(dis[b], key) * num + steps).min(initial=best))
    else:
        lines = num // p
        for dis, keys, pos in t.key_blocks(s.indices(), max(1, _BLOCK // num)):
            # member[b, i, key]: the point at position i mod p is in S;
            # positions run twice, so a cyclic shift is a slice
            member = np.zeros((dis.size, 2 * p, lines), dtype=bool)
            member[np.arange(dis.size)[:, None], pos, keys] = True
            member[:, p:] = member[:, :p]
            for lam in range(1, p):
                runs = member[:, :p].copy()
                for i in range(1, k):
                    shift = lam * i % p
                    runs &= member[:, shift : shift + p]
                b, start, key = np.unravel_index(np.flatnonzero(runs), runs.shape)
                if b.size:
                    steps = t.dir_vecs[dis[b]] * lam % p @ t.powers
                    bases = t.line_points(dis[b], key, start)
                    best = int((bases * num + steps).min(initial=best))
    if best == num * num:
        return None
    base_idx, step_idx = divmod(best, num)
    return ProgressionWitness(index_point(space, base_idx), index_point(space, step_idx), k)


@dataclass(frozen=True)
class LineProfile:
    """x[i] = number of lines meeting S in exactly i points."""

    space: SpaceSpec
    x: tuple[int, ...]

    @property
    def total_lines(self) -> int:
        return sum(self.x)

    @property
    def incidence_sum(self) -> int:
        return sum(i * v for i, v in enumerate(self.x))

    @property
    def pair_sum(self) -> int:
        return sum(i * (i - 1) // 2 * v for i, v in enumerate(self.x))


def line_profile(s: PointSet) -> LineProfile:
    x = np.zeros(s.space.p + 1, dtype=np.int64)
    for _, counts in _line_counts(s):
        x += np.bincount(counts.ravel(), minlength=s.space.p + 1)
    return LineProfile(space=s.space, x=tuple(int(v) for v in x))


@dataclass(frozen=True)
class PlaneProfile:
    """Per parallel class, the multiset of |S & H| over its p planes.

    Multisets are sorted descending; classes follow canonical-normal
    order, as in geometry.directions.
    """

    space: SpaceSpec
    multisets: tuple[tuple[int, ...], ...]


def plane_profile(s: PointSet) -> PlaneProfile:
    """Plane-section sizes of S for every parallel class of hyperplanes.

    Counts the smaller of S and its complement, for blocks of directions
    holding at most _BLOCK point-normal products: one matmul and one
    bincount per block.
    """
    space, p = s.space, s.space.p
    if space.n < 2:
        raise ValueError("plane profiles need n >= 2")
    t = space_tables(p, space.n)
    pts, inside = _smaller_side(s)
    x_t = t.coords[pts].T
    block = max(1, _BLOCK // max(pts.size, p))
    out = []
    for lo in range(0, len(t.dir_vecs), block):
        normals = t.dir_vecs[lo : lo + block]
        vals = normals @ x_t % p + np.arange(len(normals))[:, None] * p
        counts = np.bincount(vals.ravel(), minlength=len(normals) * p).reshape(-1, p)
        if not inside:
            counts = space.num_points // p - counts
        out.extend(map(tuple, np.sort(counts, axis=1)[:, ::-1].tolist()))
    return PlaneProfile(space=space, multisets=tuple(out))


def identity_check(s: PointSet) -> dict:
    """Recompute the three double-counting identities against the profile.

    Every line count, point degree, and point pair is counted twice:
    once from the geometry and once from the observed profile.
    """
    space = s.space
    prof = line_profile(s)
    m = s.size
    expected = {
        "line_total": space.num_lines,
        "incidence_total": m * space.lines_per_point,
        "pair_total": m * (m - 1) // 2,
    }
    observed = {
        "line_total": prof.total_lines,
        "incidence_total": prof.incidence_sum,
        "pair_total": prof.pair_sum,
    }
    return {
        "ok": expected == observed,
        "expected": expected,
        "observed": observed,
        "profile": list(prof.x),
    }


class LineBounds(NamedTuple):
    """Interval for the count of (p-1)-point lines in a plane section."""

    min: int
    max: int


def lp_line_bounds(p: int, m: int) -> LineBounds:
    """Bounds on the number of (p-1)-lines in a plane holding m points
    of a set with no full line.

    Both bounds come from nonnegative rational combinations of the three
    plane identities (line total p(p+1), point degree p+1, pair count
    C(m,2)) with x_p = 0:

    * lower: pairs minus (p-3)/2 times degrees leaves coefficients <= 0
      on every x_i except x_{p-1};
    * upper: C(i,2) - 2i + 3 = (i-2)(i-3)/2 >= 0 kills x_2 and x_3 and
      leaves (p-3)(p-4)/2 on x_{p-1}.

    Returned as (ceil(lower), floor(upper)) clamped to [0, p(p+1)].
    """
    if not is_valid_plane_m(p, m):
        raise ValueError(f"m must be within [0, p^2], got {m}")
    lines = p * (p + 1)
    pairs = Fraction(m * (m - 1), 2)
    degrees = (p + 1) * m
    lo = (pairs - Fraction(p - 3, 2) * degrees) / Fraction(p - 1, 2)
    u = min(2, p - 3)
    coeff = Fraction((p - 1 - u) * (p - 2 - u), 2)
    hi = (pairs - u * degrees + Fraction(u * (u + 1), 2) * lines) / coeff
    lo_int = max(0, -((-lo.numerator) // lo.denominator))  # ceil
    hi_int = min(lines, hi.numerator // hi.denominator)  # floor
    return LineBounds(lo_int, hi_int)


def is_valid_plane_m(p: int, m: int) -> bool:
    return 0 <= m <= p * p


def degree_line_bound(p: int, m: int) -> int:
    """Upper bound on (p-1)-lines in a plane with m points, by degrees.

    Two (p-1)-lines through a common point share only that point, so
    each point lies on at most floor((m-1)/(p-2)) of them (and never
    more than p+1); summing over points and dividing by p-1 bounds the
    line count.
    """
    if not is_valid_plane_m(p, m):
        raise ValueError(f"m must be within [0, p^2], got {m}")
    if m == 0:
        return 0
    per_point = min((m - 1) // (p - 2), p + 1)
    return min(m * per_point // (p - 1), p * (p + 1))


def verification_report(s: PointSet, k: int | None = None) -> dict:
    """JSON-ready report: size, freeness verdict, witness, line profile."""
    space = s.space
    if k is None:
        k = space.p
    witness = find_progression(s, k)
    prof = line_profile(s)
    report = {
        "p": space.p,
        "n": space.n,
        "k": k,
        "size": s.size,
        "free": witness is None,
        "profile": list(prof.x),
    }
    if witness is not None:
        report["witness"] = {"base": list(witness.base), "dir": list(witness.step)}
    return report

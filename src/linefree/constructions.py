"""Explicit progression-free subsets of F_p^n.

Four families are provided:

* an axis-aligned hypercube of side p-1 (free because a full line must
  visit every residue in each moving coordinate);
* a layered set for n >= 3 stacking three kinds of two-dimensional
  layers, beating the hypercube by (n-2)/2 * (p-1)(p-2)^(n-3) points;
* a three-dimensional set whose last two layers are controlled by
  intervals of length about sqrt(p), beating the hypercube by roughly
  p - 2*sqrt(p) points;
* a three-dimensional set built from quadratic residues, for primes
  p = 7 (mod 24), beating the hypercube by p - 1 points (and by 9 when
  p = 7, where two of its removal families coincide).

Each set is built as its coordinate mask (see `linefree.pointset`): the
box from one interval per axis, the others from conditions on the leading
coordinates that pick one p x p block per layer.  A reference 70-point
set in F_5^3 is bundled as a grid file.
"""

from __future__ import annotations

from functools import reduce
from importlib import resources

import numpy as np

from .geometry import SpaceSpec, require_odd_prime
from .pointset import PointSet, parse_grid_document


def box(p: int, n: int, side: int) -> PointSet:
    """Axis-aligned box [0, side-1]^n."""
    require_odd_prime(p)
    if not 0 <= side <= p:
        raise ValueError(f"side must be in [0, p], got {side}")
    side_mask = np.arange(p) < side
    return PointSet.from_mask(SpaceSpec(p, n), reduce(np.logical_and.outer, [side_mask] * n))


def hypercube(p: int, n: int) -> PointSet:
    """The box [0, p-2]^n: (p-1)^n points with no full line."""
    return box(p, n, p - 1)


def layered(p: int, n: int) -> PointSet:
    """Layered set for n >= 3, size (p-1)^n + (n-2)/2*(p-1)(p-2)^(n-3).

    Three two-dimensional layer contents:

    * A = [0,p-2]^2,
    * B = [0,p-1]^2 minus the diagonal, minus {p-1} x [0,(p-3)/2],
      minus [0,(p-3)/2] x {p-1},
    * C = {(i,i) : 0 <= i <= (p-3)/2},

    placed at positions (the first n-2 coordinates):

    * A at [0,p-3]^(n-2),
    * B at [0,p-2]^(n-2) minus [0,p-3]^(n-2),
    * C where exactly one position coordinate is p-1 and the rest are
      in [0,p-3].

    All other positions are empty.
    """
    require_odd_prime(p)
    if n < 3:
        raise ValueError("layered sets need n >= 3; use hypercube for n <= 2")
    space = SpaceSpec(p, n)
    half = (p - 3) // 2

    a_mask = np.zeros((p, p), dtype=bool)
    a_mask[: p - 1, : p - 1] = True

    b_mask = np.ones((p, p), dtype=bool)
    b_mask[np.arange(p), np.arange(p)] = False
    b_mask[p - 1, : half + 1] = False
    b_mask[: half + 1, p - 1] = False

    c_mask = np.zeros((p, p), dtype=bool)
    c_mask[np.arange(half + 1), np.arange(half + 1)] = True

    pos = np.indices((p,) * (n - 2), sparse=True)
    low = sum(c <= p - 3 for c in pos)
    top = sum(c == p - 1 for c in pos)
    in_a = low == n - 2
    in_b = (top == 0) & ~in_a
    in_c = (top == 1) & (low == n - 3)
    # positions in none of A, B, C pick the empty block 0
    blocks = np.stack([np.zeros((p, p), dtype=bool), a_mask, b_mask, c_mask])
    return PointSet.from_mask(space, blocks[in_a + 2 * in_b + 3 * in_c])


def sqrt_params(p: int) -> tuple[int, int, tuple[int, ...], tuple[int, ...]]:
    """(k, t, K, T) with k = isqrt(p), t = p//k, K = [0,k-1], T = {jk-1}."""
    import math

    k = math.isqrt(p)
    t = p // k
    return k, t, tuple(range(k)), tuple(j * k - 1 for j in range(1, t + 1))


def sqrt_construction(p: int) -> PointSet:
    """Three-dimensional set of size (p-2)(p-1)^2 + p^2 - p + 1 - k - t.

    Layers by the first coordinate: layers 0..p-3 hold [0,p-2]^2, layer
    p-2 holds the full plane minus the diagonal and minus the rectangle
    (K u {p-1}) x (T u {p-1}), and layer p-1 holds K x T.
    """
    require_odd_prime(p)
    if p < 5:
        raise ValueError("the interval construction degenerates for p = 3; need p >= 5")
    k, t, K, T = sqrt_params(p)

    a_mask = np.zeros((p, p), dtype=bool)
    a_mask[: p - 1, : p - 1] = True

    mid_mask = np.ones((p, p), dtype=bool)
    mid_mask[np.arange(p), np.arange(p)] = False
    rows = np.array(K + (p - 1,))
    cols = np.array(T + (p - 1,))
    mid_mask[np.ix_(rows, cols)] = False

    top_mask = np.zeros((p, p), dtype=bool)
    top_mask[np.ix_(np.array(K), np.array(T))] = True

    layers = np.repeat(np.stack([a_mask, mid_mask, top_mask]), [p - 2, 1, 1], axis=0)
    return PointSet.from_mask(SpaceSpec(p, 3), layers)


def quadratic_residues(p: int) -> set[int]:
    """Nonzero squares mod p: (p-1)/2 elements, closed under product."""
    require_odd_prime(p)
    return {pow(a, 2, p) for a in range(1, p)}


def qr_construction(p: int) -> PointSet:
    """Quadratic-residue set in F_p^3 for p = 7 (mod 24).

    The congruence makes 2 a residue while -1 and 3 are non-residues,
    which drives every case of the freeness argument.  Built as a
    (p, p, p) mask in the formula's coordinates (x, y, z): the cube
    [1, p-1]^3, then families of points added and removed in the
    definition's order (families can coincide: at p = 7 two removal
    families do), each family one O(p) fancy-index write.  The point
    (x, y, z) of the formula is the point (z, x, y) of the set, so layers
    are indexed by the first coordinate.
    """
    require_odd_prime(p)
    if p % 24 != 7:
        raise ValueError(f"p must be congruent to 7 mod 24, got {p} (p mod 24 = {p % 24})")
    space = SpaceSpec(p, 3)
    res = quadratic_residues(p)
    a = np.array(sorted(res))
    b = np.array(sorted(set(range(1, p)) - res))  # non-residues
    inv2 = pow(2, p - 2, p)
    inv3 = pow(3, p - 2, p)
    half_a, b3, b3_half, b_third = a * inv2 % p, 3 * b % p, 3 * b * inv2 % p, b * inv3 % p

    mask = np.zeros((p, p, p), dtype=bool)
    mask[1:, 1:, 1:] = True
    mask[a, 0, a] = mask[0, a, a] = True
    mask[a, a, a] = mask[half_a, half_a, a] = False
    mask[b3_half, 0, b] = mask[0, b3_half, b] = mask[b3, 0, b] = mask[0, b3, b] = True
    mask[b, b, b] = mask[b3_half, b3_half, b] = mask[b_third, b_third, b] = False
    mask[b3, -b3_half % p, b] = mask[-b3_half % p, b3, b] = False
    mask[b, b, 0] = mask[2 * a % p, -a % p, 0] = mask[-a % p, 2 * a % p, 0] = True
    return PointSet.from_mask(space, mask.transpose(2, 0, 1))


_REFERENCE_NAMES = ("fig70",)


def load_reference_set(name: str) -> PointSet:
    """Load a bundled reference set by name (currently: fig70)."""
    if name not in _REFERENCE_NAMES:
        raise ValueError(
            f"unknown reference set {name!r}; available: {', '.join(_REFERENCE_NAMES)}"
        )
    text = resources.files("linefree.data").joinpath(f"{name}.grid").read_text()
    return parse_grid_document(text).pointset

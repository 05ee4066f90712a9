"""Point sets in F_p^n and the grid text format (version 1).

A grid file serializes a set layer by layer: the first n-2 coordinates
name the layer, then a p x p block of 'X'/'.' characters gives the last
two coordinates (rows are the next-to-last coordinate top to bottom,
columns the last).  Files use LF line endings and '#' comment lines.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .geometry import SpaceSpec, det_mod, point_index, space_tables

GRID_MAGIC = "linefree-grid v1"


class GridFormatError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class PointSet:
    """An immutable subset of F_p^n backed by a membership bitmap."""

    __slots__ = ("space", "bits", "_size")

    def __init__(self, space: SpaceSpec, bits: np.ndarray):
        if bits.shape != (space.num_points,) or bits.dtype != np.bool_:
            raise ValueError("bits must be a bool array of length p^n")
        bits = bits.copy()
        bits.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "_size", int(bits.sum()))

    def __setattr__(self, name, value):
        raise AttributeError("PointSet is immutable")

    @classmethod
    def empty(cls, space: SpaceSpec) -> "PointSet":
        return cls(space, np.zeros(space.num_points, dtype=np.bool_))

    @classmethod
    def full(cls, space: SpaceSpec) -> "PointSet":
        return cls(space, np.ones(space.num_points, dtype=np.bool_))

    @classmethod
    def from_indices(cls, space: SpaceSpec, indices: Iterable[int]) -> "PointSet":
        """The set of the given point indices; an ndarray is read as it is."""
        if not isinstance(indices, np.ndarray):
            indices = list(indices)
        idx = np.asarray(indices, dtype=np.int64)
        bits = np.zeros(space.num_points, dtype=np.bool_)
        if idx.size:
            if idx.min() < 0 or idx.max() >= space.num_points:
                raise ValueError("point index out of range")
            bits[idx] = True
        return cls(space, bits)

    @classmethod
    def from_points(cls, space: SpaceSpec, points: Iterable[Sequence[int]]) -> "PointSet":
        return cls.from_indices(space, (point_index(space, tuple(q)) for q in points))

    @property
    def size(self) -> int:
        return self._size

    def __len__(self) -> int:
        return self._size

    def __contains__(self, point: Sequence[int]) -> bool:
        return bool(self.bits[point_index(self.space, tuple(point))])

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return self.space == other.space and bool(np.array_equal(self.bits, other.bits))

    def __hash__(self) -> int:
        return hash((self.space, self.bits.tobytes()))

    def __repr__(self) -> str:
        return f"PointSet(p={self.space.p}, n={self.space.n}, size={self.size})"

    def indices(self) -> np.ndarray:
        return np.nonzero(self.bits)[0].astype(np.int64)

    def points(self) -> list[tuple[int, ...]]:
        t = space_tables(self.space.p, self.space.n)
        return [tuple(int(c) for c in t.coords[i]) for i in self.indices()]

    def union(self, other: "PointSet") -> "PointSet":
        self._check_same_space(other)
        return PointSet(self.space, self.bits | other.bits)

    def difference(self, other: "PointSet") -> "PointSet":
        self._check_same_space(other)
        return PointSet(self.space, self.bits & ~other.bits)

    def with_points(self, points: Iterable[Sequence[int]]) -> "PointSet":
        bits = self.bits.copy()
        for q in points:
            bits[point_index(self.space, tuple(q))] = True
        return PointSet(self.space, bits)

    def without_points(self, points: Iterable[Sequence[int]]) -> "PointSet":
        bits = self.bits.copy()
        for q in points:
            bits[point_index(self.space, tuple(q))] = False
        return PointSet(self.space, bits)

    def _check_same_space(self, other: "PointSet") -> None:
        if self.space != other.space:
            raise ValueError("point sets live in different spaces")


def layer(s: PointSet, value: int) -> PointSet:
    """The slice of S with first coordinate == value, projected to F_p^{n-1}."""
    space = s.space
    if space.n < 2:
        raise ValueError("layers need n >= 2")
    if not 0 <= value < space.p:
        raise ValueError(f"layer value {value} out of range for p={space.p}")
    sub = SpaceSpec(space.p, space.n - 1)
    idx = s.indices()
    sel = idx[idx % space.p == value]
    return PointSet.from_indices(sub, sel // space.p)


def from_layers(p: int, layers: Sequence[PointSet]) -> PointSet:
    """Reassemble a set in F_p^n from its p layers in F_p^{n-1}."""
    if len(layers) != p:
        raise ValueError(f"need exactly {p} layers")
    sub_n = layers[0].space.n
    for lay in layers:
        if lay.space != SpaceSpec(p, sub_n):
            raise ValueError("layers live in different spaces")
    space = SpaceSpec(p, sub_n + 1)
    parts = [lay.indices() * p + value for value, lay in enumerate(layers)]
    return PointSet.from_indices(space, np.concatenate(parts))


def product(s1: PointSet, s2: PointSet) -> PointSet:
    """Cartesian product: coordinates of s1 first, then those of s2."""
    if s1.space.p != s2.space.p:
        raise ValueError("product needs a common p")
    p = s1.space.p
    space = SpaceSpec(p, s1.space.n + s2.space.n)
    shift = p**s1.space.n
    combined = (s1.indices()[None, :] + shift * s2.indices()[:, None]).reshape(-1)
    return PointSet.from_indices(space, combined)


def apply_affine(s: PointSet, matrix: Sequence[Sequence[int]], shift: Sequence[int]) -> PointSet:
    """Image of S under x -> M x + v with M invertible over F_p."""
    space = s.space
    p, n = space.p, space.n
    m = np.asarray(matrix, dtype=np.int64) % p
    v = np.asarray(shift, dtype=np.int64) % p
    if m.shape != (n, n) or v.shape != (n,):
        raise ValueError(f"need a {n}x{n} matrix and length-{n} shift")
    if det_mod(m.tolist(), p) == 0:
        raise ValueError("matrix is singular mod p")
    t = space_tables(p, n)
    pts = t.coords[s.indices()]
    image = (pts @ m.T + v) % p
    return PointSet.from_indices(space, image @ t.powers)


def grid_blocks(s: PointSet) -> list[tuple[str, np.ndarray]]:
    """(layer tag, p x p bool block) of every nonempty layer, in file order.

    Layers come in lexicographic order of the first n-2 coordinates; a
    block's rows are the next-to-last coordinate and its columns the last.
    """
    p, n = s.space.p, s.space.n
    # point index = sum c_i p^(i-1), so the reversed axes are c_1, ..., c_n
    blocks = s.bits.reshape((p,) * n).transpose().reshape(-1, p, p)
    return [
        (",".join(map(str, np.unravel_index(j, (p,) * (n - 2)))) if n > 2 else "-", blocks[j])
        for j in np.flatnonzero(blocks.any(axis=(1, 2)))
    ]


def render_grid(s: PointSet, k: int | None = None) -> str:
    """Serialize a set to grid text, deterministically."""
    p, n = s.space.p, s.space.n
    if n < 2:
        raise ValueError("the grid format needs n >= 2")
    if k is None:
        k = p
    if not 3 <= k <= p:
        raise ValueError(f"k must be in [3, p], got {k}")
    out = [f"{GRID_MAGIC}\np={p} n={n} k={k}\n"]
    for tag, block in grid_blocks(s):
        chars = np.full((p, p + 1), ord("\n"), dtype=np.uint8)
        chars[:, :p] = np.where(block, ord("X"), ord("."))
        out.append(f"\nlayer {tag}\n" + chars.tobytes().decode("ascii"))
    return "".join(out)


class GridDocument:
    """A parsed grid file: the set plus its header metadata."""

    def __init__(self, pointset: PointSet, k: int):
        self.pointset = pointset
        self.k = k


def parse_grid_document(text: str) -> GridDocument:
    raw = text.split("\n")
    lines: list[tuple[int, str]] = []  # (1-based line number, content)
    for no, line in enumerate(raw, start=1):
        if line.strip().startswith("#"):
            continue
        lines.append((no, line.rstrip("\r")))
    # trailing blank lines are noise
    while lines and not lines[-1][1].strip():
        lines.pop()
    if not lines or lines[0][1].strip() != GRID_MAGIC:
        raise GridFormatError(
            f"expected magic header {GRID_MAGIC!r}", lines[0][0] if lines else 1
        )
    if len(lines) < 2:
        raise GridFormatError("missing p=/n=/k= header", lines[0][0])
    no, header = lines[1]
    fields = {}
    for part in header.split():
        if "=" not in part:
            raise GridFormatError(f"bad header field {part!r}", no)
        key, _, val = part.partition("=")
        if key not in ("p", "n", "k") or not val.isdigit():
            raise GridFormatError(f"bad header field {part!r}", no)
        fields[key] = int(val)
    if set(fields) != {"p", "n", "k"}:
        raise GridFormatError("header must set p=, n= and k=", no)
    p, n, k = fields["p"], fields["n"], fields["k"]
    try:
        space = SpaceSpec(p, n)
    except ValueError as exc:
        raise GridFormatError(str(exc), no) from exc
    if n < 2:
        raise GridFormatError("the grid format needs n >= 2", no)
    if not 3 <= k <= p:
        raise GridFormatError(f"k must be in [3, p], got {k}", no)

    bits = np.zeros(space.num_points, dtype=np.bool_)
    # a writable view indexed (c_1, ..., c_n), as in grid_blocks
    grid = bits.reshape((p,) * n).transpose()
    pos = 2
    seen_keys = set()
    while pos < len(lines):
        no, line = lines[pos]
        if not line.strip():
            pos += 1
            continue
        if not line.startswith("layer"):
            raise GridFormatError(f"expected a layer block, got {line!r}", no)
        tag = line[5:].strip()
        if n == 2:
            if tag != "-":
                raise GridFormatError("n=2 layer tag must be '-'", no)
            key = ()
        else:
            try:
                key = tuple(int(c) for c in tag.split(","))
            except ValueError:
                raise GridFormatError(f"bad layer key {tag!r}", no) from None
            if len(key) != n - 2 or any(not 0 <= c < p for c in key):
                raise GridFormatError(f"bad layer key {tag!r}", no)
        if key in seen_keys:
            raise GridFormatError(f"duplicate layer {tag!r}", no)
        seen_keys.add(key)
        pos += 1
        for r in range(p):
            if pos >= len(lines):
                raise GridFormatError(f"layer {tag!r} is missing row {r}", no)
            rno, row = lines[pos]
            if len(row) != p or row.strip("X."):
                raise GridFormatError(
                    f"rows must be {p} characters of 'X' or '.', got {row!r}", rno
                )
            grid[key + (r,)] = np.frombuffer(row.encode("ascii"), dtype=np.uint8) == ord("X")
            pos += 1
    doc = PointSet(space, bits)
    return GridDocument(doc, k)


def parse_grid(text: str) -> PointSet:
    return parse_grid_document(text).pointset

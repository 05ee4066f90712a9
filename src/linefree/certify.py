"""Integer-infeasibility certificates for progression-free set sizes.

Given a prime p and a target size T, this module tries to prove that no
subset of F_p^3 of size T avoids full lines, by double counting over the
p^2 + p + 1 parallel classes of planes:

1.  Every plane holds at most M = r_p(plane) points, and a plane holding
    more than r_{p-1}(plane) points contains a line with exactly p - 1
    points (a *rich* line), which forces every plane through that line to
    hold at least L = T + p^2 - p - p*M points.  Plane sizes in the open
    interval (r_{p-1}(plane), L) are therefore impossible.
2.  Each parallel class of p planes partitions the set, so its multiset
    of plane sizes is a *distribution*: allowed sizes summing to T.
3.  Every point pair lies in a common plane in exactly p + 1 classes, so
    the per-class pair counts sum to (p+1)*C(T,2).  Enumerating all ways
    to assign distributions to the p^2+p+1 classes consistent with that
    equation yields finitely many candidates.
4.  A rich line lies in plane sections whose p + 1 sizes are drawn from
    the allowed sizes in [L, M] and sum to (T-(p-1)) + (p+1)(p-1).  When
    the integer null space of those multisets is one-dimensional, the
    resulting weights give a linear functional that vanishes on rich-line
    pencils; bounding per-plane rich-line counts (identity combinations
    and degree counts) turns it into an inequality every candidate must
    satisfy.  Candidates violating it are refuted.

If every candidate is refuted the target is INFEASIBLE: no such set
exists, hence the maximum is < T.  Any surviving candidate, a null space
of the wrong dimension, or an exhausted enumeration budget yields
UNKNOWN.  Certificates carry the full candidate log (or its SHA-256
digest) and can be replayed bit-for-bit.

`prove_infeasible` is the one way to a Certificate: `_decide` takes the
steps above in order and the first that settles the target gives the
verdict, and the Certificate is built in one place.  Distributions and
rich pencils come from one multiset enumerator.  The enumeration budget
is max_nodes, a call argument, and MAX_CANDIDATES, a constant; both are
part of every digest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm

import numpy as np

from .geometry import ResourceBudgetError, is_prime
from .verifier import degree_line_bound, lp_line_bounds

INFEASIBLE = "INFEASIBLE"
UNKNOWN = "UNKNOWN"

#: p -> (r_p(plane), r_{p-1}(plane)): the exact plane maxima the argument
#: consumes.  Values are reproducible via search.max_free_exact(p, 2, k).
DEFAULT_SUBPLANE_TABLE: dict[int, tuple[int, int]] = {
    5: (16, 11),
    7: (36, 29),
}

#: Fixed per-plane-size caps on rich-line counts, kept for bit-exact
#: replay of certificates produced under the paper_faithful convention
#: (the derived combination/degree bounds can be strictly tighter).
PAPER_RICH_CAPS: dict[int, dict[int, int]] = {
    5: {14: 14, 15: 15},
    7: {33: 28, 34: 30, 35: 33},
}

ENGINE_VERSION = 1

#: Bytes the candidate enumeration may hold in its state tables, its
#: candidate rows and one level's probes; a larger request raises
#: ResourceBudgetError.
ENUMERATION_BYTE_BUDGET = 2**29

#: Bytes one probe of the candidate expansion holds at most: its parent
#: and value, and at the gather its child (cl, s) and the two temporaries
#: that build the child's s, all int32.
_PROBE_BYTES = 24

#: Most candidate rows an enumeration may return; more is budget-exhausted.
MAX_CANDIDATES = 500_000

#: Largest candidate log that to_dict() embeds in full.
FULL_LOG_LIMIT = 1000


class NullSpaceError(ValueError):
    """Raised when the rich-pencil system has no one-dimensional null space."""

    def __init__(self, dimension: int, basis: tuple[tuple[Fraction, ...], ...]):
        self.dimension = dimension
        self.basis = basis
        super().__init__(f"null space has dimension {dimension}, need 1")


@dataclass(frozen=True)
class ExclusionInstance:
    """All derived quantities for one (p, target) infeasibility question."""

    p: int
    target: int
    plane_cap: int  # M = r_p(plane)
    sub_cap: int  # r_{p-1}(plane)

    def __post_init__(self) -> None:
        if not is_prime(self.p) or self.p < 5:
            raise ValueError("p must be a prime >= 5")
        if not 1 <= self.target <= self.p**3:
            raise ValueError("target must be in [1, p^3]")
        if not 0 < self.plane_cap <= self.p**2:
            raise ValueError("plane_cap out of range")
        if not 0 <= self.sub_cap <= self.plane_cap:
            raise ValueError("sub_cap out of range")

    @property
    def num_classes(self) -> int:
        return self.p**2 + self.p + 1

    @property
    def pair_rhs(self) -> int:
        return (self.p + 1) * comb(self.target, 2)

    @property
    def min_plane(self) -> int:
        """Least possible plane size: the other p-1 planes hold <= M each."""
        return max(0, self.target - (self.p - 1) * self.plane_cap)

    @property
    def rich_floor(self) -> int:
        """L: least size of any plane containing a (p-1)-point line."""
        return self.target + self.p**2 - self.p - self.p * self.plane_cap

    @property
    def allowed_sizes(self) -> tuple[int, ...]:
        """Plane sizes not excluded by caps or the rich-line gap, ascending."""
        lo, hi = self.min_plane, self.plane_cap
        gap_lo, gap_hi = self.sub_cap, self.rich_floor  # open interval
        return tuple(
            s for s in range(lo, hi + 1) if not gap_lo < s < gap_hi
        )

    @property
    def rich_pencil_sum(self) -> int:
        """Total size of the p+1 plane sections through a rich line."""
        return (self.target - (self.p - 1)) + (self.p + 1) * (self.p - 1)

    @property
    def rich_sizes(self) -> tuple[int, ...]:
        """Sizes a plane through a rich line may take, descending."""
        return tuple(
            s
            for s in sorted(self.allowed_sizes, reverse=True)
            if s >= self.rich_floor
        )


def make_instance(
    p: int,
    target: int,
    *,
    plane_cap: int | None = None,
    sub_cap: int | None = None,
) -> ExclusionInstance:
    """Build an instance, defaulting the plane maxima from the built-in table."""
    if plane_cap is None or sub_cap is None:
        if p not in DEFAULT_SUBPLANE_TABLE:
            raise ValueError(
                f"no built-in plane maxima for p={p}; pass plane_cap and sub_cap "
                "(they must be the exact plane values for the argument to be sound)"
            )
        d_cap, d_sub = DEFAULT_SUBPLANE_TABLE[p]
        plane_cap = d_cap if plane_cap is None else plane_cap
        sub_cap = d_sub if sub_cap is None else sub_cap
    return ExclusionInstance(p=p, target=target, plane_cap=plane_cap, sub_cap=sub_cap)


def _multisets(
    sizes: tuple[int, ...], slots: int, total: int
) -> tuple[tuple[int, ...], ...]:
    """Multisets of `slots` entries of the monotone tuple sizes summing to total.

    Each multiset is a tuple in the order of sizes, and the tuples come in
    lexicographic order of their positions in sizes.
    """
    out: list[tuple[int, ...]] = []
    stack: list[int] = []

    def rec(start: int, remaining: int, k: int) -> None:
        if k == 0:
            if remaining == 0:
                out.append(tuple(stack))
            return
        for i in range(start, len(sizes)):
            s = sizes[i]
            # the k entries still to place lie between s and sizes[-1]; the
            # window only narrows as i grows, so no later size fits either
            if not k * min(s, sizes[-1]) <= remaining <= k * max(s, sizes[-1]):
                break
            stack.append(s)
            rec(i, remaining - s, k - 1)
            stack.pop()

    rec(0, total, slots)
    return tuple(out)


def class_distributions(inst: ExclusionInstance) -> tuple[tuple[int, ...], ...]:
    """All multisets of p allowed plane sizes summing to the target.

    Returned as nondecreasing tuples in ascending lexicographic order.
    """
    return _multisets(inst.allowed_sizes, inst.p, inst.target)


def pair_coefficients(dists: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Within-class pair count sum_{s in D} C(s,2) per distribution."""
    return tuple(sum(comb(s, 2) for s in d) for d in dists)


def rich_pencil_multisets(inst: ExclusionInstance) -> tuple[tuple[int, ...], ...]:
    """Multisets of p+1 sizes from rich_sizes summing to rich_pencil_sum.

    Nonincreasing tuples, descending lexicographic order.
    """
    return _multisets(inst.rich_sizes, inst.p + 1, inst.rich_pencil_sum)


def _rref(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Reduced row echelon form over the rationals (in place, returned)."""
    if not rows:
        return rows
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return rows


def _null_vector(
    rref: list[list[Fraction]], pivots: list[int], free: int, ncols: int
) -> tuple[Fraction, ...]:
    """The null-space vector of a reduced system that is 1 at column free."""
    vec = [Fraction(0)] * ncols
    vec[free] = Fraction(1)
    for r, pc in zip(rref, pivots):
        vec[pc] = -r[free]
    return tuple(vec)


def null_weights(inst: ExclusionInstance) -> dict[int, int]:
    """Primitive integer weights w(size) vanishing on every rich pencil.

    Solves E w = 0 where E rows are the multiplicity vectors of the rich
    pencil multisets over rich_sizes (descending).  Requires the null
    space to be exactly one-dimensional; the weight of the largest size
    is normalized positive and the vector primitive.

    Raises NullSpaceError otherwise.
    """
    sizes = inst.rich_sizes
    ncols = len(sizes)
    rref = _rref(
        [[Fraction(m.count(s)) for s in sizes] for m in rich_pencil_multisets(inst)]
    )
    pivots = []
    for r in rref:
        nz = next((j for j, v in enumerate(r) if v != 0), None)
        if nz is not None:
            pivots.append(nz)
    basis = tuple(
        _null_vector(rref, pivots, f, ncols) for f in range(ncols) if f not in pivots
    )
    if len(basis) != 1:
        raise NullSpaceError(len(basis), basis)
    den = lcm(*(v.denominator for v in basis[0]))
    ints = [int(v * den) for v in basis[0]]
    g = gcd(*ints)
    ints = [v // g for v in ints]
    if ints[0] < 0:
        ints = [-v for v in ints]
    if ints[0] <= 0:
        raise NullSpaceError(1, (tuple(Fraction(v) for v in ints),))
    return dict(zip(sizes, ints))


def rich_count_bounds(
    inst: ExclusionInstance, *, paper_faithful: bool = False
) -> tuple[dict[int, int], dict[int, int], list[str]]:
    """(lower, upper) bounds on rich-line counts per plane size, with notes.

    Lower bounds come from the identity combinations; upper bounds take
    the minimum of the combination bound and the degree-count bound,
    unless paper_faithful selects the fixed cap table (any size missing
    from that table falls back to the derived cap, with a note).
    """
    notes: list[str] = []
    los: dict[int, int] = {}
    caps: dict[int, int] = {}
    table = PAPER_RICH_CAPS.get(inst.p, {})
    for s in inst.rich_sizes:
        lb = lp_line_bounds(inst.p, s)
        los[s] = lb.min
        derived = min(lb.max, degree_line_bound(inst.p, s))
        if paper_faithful:
            if s in table:
                caps[s] = table[s]
                if table[s] != derived:
                    notes.append(
                        f"size {s}: fixed cap {table[s]} vs derived {derived}"
                    )
            else:
                caps[s] = derived
                notes.append(f"size {s}: no fixed cap on record, derived {derived}")
        else:
            caps[s] = derived
    return los, caps, notes


def _margin_coefficients(
    inst: ExclusionInstance,
    dists: tuple[tuple[int, ...], ...],
    weights: dict[int, int] | None,
    los: dict[int, int],
    caps: dict[int, int],
) -> np.ndarray:
    """Per-distribution refutation margins.

    With weights w (w[M] > 0, heavier sizes negative): the functional
    sum_s w_s * rich_s is exactly 0, yet is at least
    w_M*lo_M*N_M + sum_{w_s<0} w_s*cap_s*N_s; a candidate with that
    lower bound positive is contradictory.  Without any rich pencil
    (weights None) rich lines cannot exist, so any plane size with a
    positive rich-line lower bound is itself contradictory.
    """
    if weights is None:
        per_size = {s: lp_line_bounds(inst.p, s).min for s in inst.allowed_sizes}
    else:
        # a size with w > 0 other than the cap, or with w == 0, contributes
        # its trivial lower bound 0
        per_size = {}
        for s, w in weights.items():
            if s == inst.plane_cap and w > 0:
                per_size[s] = w * los[s]
            elif w < 0:
                per_size[s] = w * caps[s]
    return np.array([sum(per_size.get(s, 0) for s in d) for d in dists], dtype=np.int64)


# The enumeration is the v1 depth-first search, which the digests pin.  It
# picks n[nd-1] = 0..num_classes at the top, unfiltered; a call at level
# i >= 1 with (classes_left cl, rhs_left rl) tries n[i] = v = 0..cl and
# calls level i-1 with (cl - v, rl - c_i v) when that rl lies in
# [cl * min(c_0..c_{i-1}), cl * max(c_0..c_{i-1})]; a call at level 0 is a
# solution when c_0 * cl == rl.  Every call, leaves included, is a node.
#
# Both sweeps below run over the states (cl, s) with s = rl - cl * min(c),
# one (num_classes + 1) x width table per level.  Choosing v moves a state
# to (cl - v, s - v * (c_i - min(c))), so s never grows, and every state
# that passes the window holds 0 <= s < width.  The window into level i is
# lo[i] * cl <= s <= hi[i] * cl, with lo and hi the prefix minima and maxima
# of the shifts.  Both of its sides are linear in v, so the values whose
# child passes the window into level i - 1 form one interval, and the
# expansion probes only those values (`_child_window`).


def _require_bytes(need: int, what: str) -> None:
    """Raise ResourceBudgetError when need exceeds ENUMERATION_BYTE_BUDGET."""
    if need > ENUMERATION_BYTE_BUDGET:
        raise ResourceBudgetError(
            f"{what} needs about {need} bytes, over the budget of {ENUMERATION_BYTE_BUDGET}"
        )


def _enumeration_shape(
    coeffs: tuple[int, ...], num_classes: int, rhs: int, cell_bytes: int, row_bytes: int = 0
):
    """(shifts, lo, hi, width, window, top values, top s, bytes) of the states.

    lo and hi are the prefix minima and maxima of the shifts; window(i)
    marks the states that pass the interval test on entry to level i; the
    top value t enters level nd-2 at (num_classes - t, top_s[t]).  bytes is
    cell_bytes per state plus row_bytes, and ResourceBudgetError is raised
    when it would exceed ENUMERATION_BYTE_BUDGET.
    """
    low = min(coeffs)
    shifts = [c - low for c in coeffs]
    lo = np.minimum.accumulate(shifts).tolist()
    hi = np.maximum.accumulate(shifts).tolist()
    width = max(rhs - num_classes * low + 1, 0)
    need = (num_classes + 1) * width * cell_bytes + row_bytes
    _require_bytes(need, "candidate enumeration")
    cl = np.arange(num_classes + 1)[:, None]
    s = np.arange(width)[None, :]

    def window(i: int) -> np.ndarray:
        return (s >= cl * lo[i]) & (s <= cl * hi[i])

    top = np.arange(num_classes + 1)
    return shifts, lo, hi, width, window, top, (width - 1) - top * shifts[-1], need


def _child_window(cl, s, d: int, lo: int, hi: int):
    """(vlo, vhi): the values v in 0..cl whose child (cl - v, s - v * d)
    passes lo * (cl - v) <= s - v * d <= hi * (cl - v); none when vlo > vhi.

    Each side reads v * a <= b.  It bounds v above by floor(b / a) when
    a > 0, below by ceil(b / a) when a < 0, and admits all or no v when
    a == 0.  cl and s may be arrays; d, lo and hi are scalars.
    """
    vlo, vhi = np.zeros_like(cl), cl
    for a, b in ((d - lo, s - lo * cl), (hi - d, hi * cl - s)):
        if a > 0:
            vhi = np.minimum(vhi, b // a)
        elif a < 0:
            vlo = np.maximum(vlo, -(b // -a))
        else:
            vhi = np.where(b < 0, -1, vhi)
    return vlo, vhi


def _count_enumeration(
    coeffs: tuple[int, ...], num_classes: int, rhs: int, max_nodes: int
) -> tuple[int, int]:
    """(nodes, solutions) of the v1 search for len(coeffs) >= 2.

    A forward sweep counts, level by level, the calls the search makes
    into each state.  It stops once nodes exceeds max_nodes; the nodes
    returned then exceed max_nodes and solutions is 0.
    """
    nd = len(coeffs)
    # one count table and the window temporaries
    shifts, _, _, width, window, top, top_s, _ = _enumeration_shape(
        coeffs, num_classes, rhs, 32
    )
    nodes = num_classes + 1
    if nodes > max_nodes or width == 0:
        return nodes, 0
    # no level holds more than (num_classes + 1) * max_nodes calls; past
    # int64, count in Python integers
    dtype = np.int64 if (num_classes + 2) * max_nodes < 2**63 else object
    count = np.zeros((num_classes + 1, width), dtype=dtype)
    live = top_s >= 0
    count[num_classes - top[live], top_s[live]] = 1
    for i in range(nd - 2, 0, -1):
        d = shifts[i]
        if d < width:  # count[cl] gathers every parent (cl + v, s + v * d)
            for cl in range(num_classes - 1, -1, -1):
                count[cl, : width - d] += count[cl + 1, d:]
        count *= window(i - 1)
        nodes += int(count.sum())
        if nodes > max_nodes:
            return nodes, 0
    return nodes, int((count * window(0)).sum())


def _enumerate_candidates(
    coeffs: tuple[int, ...],
    num_classes: int,
    rhs: int,
    max_candidates: int,
    max_nodes: int = 20_000_000,
) -> tuple[np.ndarray, bool]:
    """Nonnegative integer vectors n with sum(n) = num_classes and
    coeffs . n = rhs, in ascending colexicographic order.

    Returns (array of shape (count, len(coeffs)) int32, truncated_flag).
    The budgets follow the v1 depth-first search described above: its
    nodes are its calls, counted exactly, and the flag is set exactly
    when that search would make more than max_nodes calls or find more
    than max(max_candidates, 0) vectors.  A truncated result holds no
    rows.  For one coefficient no node is counted and no budget applies.

    The calls are counted, not made: a forward sweep counts them, a
    backward sweep marks the states from which a solution is reachable,
    and the solutions are expanded level by level.  Each level probes, per
    frontier state, only the interval of values whose child passes the
    next window (`_child_window`), and keeps the probes whose child can
    still reach a solution.  Parents stay in order and values ascend
    within a parent, which is the search's own order.  Raises
    ResourceBudgetError when the state tables, the rows, or one level's
    probes would exceed ENUMERATION_BYTE_BUDGET.
    """
    nd = len(coeffs)
    if nd == 0:
        return np.zeros((1 if (num_classes == 0 and rhs == 0) else 0, 0), dtype=np.int32), False
    if nd == 1:
        hit = coeffs[0] * num_classes == rhs
        return np.full((int(hit), 1), num_classes, dtype=np.int32), False
    empty = np.zeros((0, nd), dtype=np.int32)
    nodes, found = _count_enumeration(coeffs, num_classes, rhs, max_nodes)
    if nodes > max_nodes or found > max(max_candidates, 0):
        return empty, True
    if found == 0:
        return empty, False
    # a reach table per level, and per row one value and one parent per
    # level besides the row itself
    shifts, lo, hi, width, window, top, top_s, held = _enumeration_shape(
        coeffs, num_classes, rhs, nd + 16, found * nd * 12
    )

    # enter[i]: states that pass the window into level i (level nd-2 has
    # none) and from which a solution is reachable
    enter = [window(0)]  # at level 0 the window is the solution test
    for i in range(1, nd - 1):
        reach = enter[-1].copy()
        d = shifts[i]
        if d < width:  # reach[cl] gathers every child (cl - v, s - v * d)
            for cl in range(1, num_classes + 1):
                reach[cl, d:] |= reach[cl - 1, : width - d]
        enter.append(reach & window(i) if i < nd - 2 else reach)

    keep = top_s >= 0
    keep[keep] = enter[nd - 2][num_classes - top[keep], top_s[keep]]
    # The budget holds (num_classes + 1) * width far below 2**31, so the
    # frontier and the probes are exact in int32 once d, lo and hi are
    # capped at width: a child keeps s < width, so a larger value admits
    # the same children as width does.
    f_cl = (num_classes - top[keep]).astype(np.int32)
    f_s = top_s[keep].astype(np.int32)
    values: list[np.ndarray] = [np.empty(0, dtype=np.int32)] * nd
    parents: list[np.ndarray] = [np.empty(0, dtype=np.int32)] * nd
    values[nd - 1] = top[keep].astype(np.int32)
    for i in range(nd - 2, 0, -1):
        d, w_lo, w_hi = (min(x, width) for x in (shifts[i], lo[i - 1], hi[i - 1]))
        vlo, vhi = _child_window(f_cl, f_s, d, w_lo, w_hi)
        span = np.maximum(vhi - vlo + 1, 0)
        probes = int(span.sum())
        _require_bytes(held + probes * _PROBE_BYTES, f"candidate expansion at level {i}")
        # parent-major and v ascending: v = vlo + the probe's offset in its span
        par = np.repeat(np.arange(f_cl.size, dtype=np.int32), span)
        v = np.repeat(vlo - np.cumsum(span, dtype=np.int32) + span, span)
        v += np.arange(probes, dtype=np.int32)
        hit = enter[i - 1][f_cl[par] - v, f_s[par] - v * d]
        parents[i], values[i] = par[hit], v[hit]
        del par, v, hit  # before the next level allocates its probes
        f_cl = f_cl[parents[i]] - values[i]
        f_s = f_s[parents[i]] - values[i] * d

    out = np.empty((f_cl.size, nd), dtype=np.int32)
    out[:, 0] = f_cl
    row = np.arange(f_cl.size)
    for i in range(1, nd - 1):
        out[:, i] = values[i][row]
        row = parents[i][row]
    out[:, nd - 1] = values[nd - 1][row]
    return out, False


@dataclass(frozen=True)
class Certificate:
    """Outcome of one infeasibility attempt, fully replayable."""

    instance: ExclusionInstance
    verdict: str
    reason: str
    paper_faithful: bool
    max_nodes: int
    distributions: tuple[tuple[int, ...], ...]
    coefficients: tuple[int, ...]
    weights: dict[int, int] | None
    rich_lower: dict[int, int]
    rich_caps: dict[int, int]
    cap_notes: tuple[str, ...]
    candidates: np.ndarray  # (count, ndists) int32, colex ascending
    margins: np.ndarray  # (count,) int64; refuted where > 0
    witness_index: int | None  # first non-refuted candidate, if any

    @property
    def candidate_count(self) -> int:
        return int(self.candidates.shape[0])

    @property
    def refuted_count(self) -> int:
        return int((self.margins > 0).sum())

    @property
    def witness(self) -> tuple[int, ...] | None:
        if self.witness_index is None:
            return None
        return tuple(int(v) for v in self.candidates[self.witness_index])

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        header = json.dumps(
            {
                "engine": ENGINE_VERSION,
                "p": self.instance.p,
                "target": self.instance.target,
                "plane_cap": self.instance.plane_cap,
                "sub_cap": self.instance.sub_cap,
                "paper_faithful": self.paper_faithful,
                "max_candidates": MAX_CANDIDATES,
                "max_nodes": self.max_nodes,
                "verdict": self.verdict,
                "reason": self.reason,
                "distributions": [list(d) for d in self.distributions],
            },
            sort_keys=True,
        ).encode()
        h.update(header)
        h.update(np.ascontiguousarray(self.candidates, dtype=np.int32).tobytes())
        h.update(np.ascontiguousarray(self.margins, dtype=np.int64).tobytes())
        return h.hexdigest()

    def to_dict(self) -> dict:
        d = {
            "engine": ENGINE_VERSION,
            "p": self.instance.p,
            "target": self.instance.target,
            "plane_cap": self.instance.plane_cap,
            "sub_cap": self.instance.sub_cap,
            "min_plane": self.instance.min_plane,
            "rich_floor": self.instance.rich_floor,
            "allowed_sizes": list(self.instance.allowed_sizes),
            "num_classes": self.instance.num_classes,
            "pair_rhs": self.instance.pair_rhs,
            "verdict": self.verdict,
            "reason": self.reason,
            "paper_faithful": self.paper_faithful,
            "max_candidates": MAX_CANDIDATES,
            "max_nodes": self.max_nodes,
            "distributions": [list(x) for x in self.distributions],
            "coefficients": list(self.coefficients),
            "weights": None
            if self.weights is None
            else {str(k): v for k, v in sorted(self.weights.items(), reverse=True)},
            "rich_lower": {str(k): v for k, v in sorted(self.rich_lower.items(), reverse=True)},
            "rich_caps": {str(k): v for k, v in sorted(self.rich_caps.items(), reverse=True)},
            "cap_notes": list(self.cap_notes),
            "candidate_count": self.candidate_count,
            "refuted_count": self.refuted_count,
            "witness": None if self.witness is None else list(self.witness),
            "digest": self.digest,
        }
        if self.candidate_count <= FULL_LOG_LIMIT:
            d["candidates"] = self.candidates.tolist()
            d["margins"] = self.margins.tolist()
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render_text(self) -> str:
        inst = self.instance
        lines = [
            f"certify p={inst.p} target={inst.target}: {self.verdict}",
            f"  reason: {self.reason}",
            f"  plane sizes allowed: {list(inst.allowed_sizes)}"
            f" (cap {inst.plane_cap}, rich floor {inst.rich_floor})",
            f"  parallel classes: {inst.num_classes}, pair count target: {inst.pair_rhs}",
            f"  class distributions: {len(self.distributions)}",
        ]
        for d, c in zip(self.distributions, self.coefficients):
            lines.append(f"    {list(d)} pairs={c}")
        if self.weights is not None:
            lines.append(
                "  rich-pencil weights: "
                + ", ".join(f"w[{s}]={w}" for s, w in sorted(self.weights.items(), reverse=True))
            )
            lines.append(
                "  rich-line bounds: "
                + ", ".join(
                    f"{s}:[{self.rich_lower[s]},{self.rich_caps[s]}]"
                    for s in sorted(self.rich_caps, reverse=True)
                )
            )
        lines.append(
            f"  candidates: {self.candidate_count}, refuted: {self.refuted_count}"
        )
        if self.witness is not None:
            lines.append(f"  surviving candidate (class counts per distribution): {list(self.witness)}")
        if self.verdict == INFEASIBLE:
            lines.append(
                f"  conclusion: no {inst.target}-point subset of F_{inst.p}^3 avoids full lines"
            )
        lines.append(f"  digest: {self.digest}")
        return "\n".join(lines)

    def replay(self) -> bool:
        """Recompute from the instance and compare logs bit for bit."""
        fresh = prove_infeasible(
            self.instance, paper_faithful=self.paper_faithful, max_nodes=self.max_nodes
        )
        return (
            fresh.verdict == self.verdict
            and fresh.reason == self.reason
            and fresh.digest == self.digest
            and np.array_equal(fresh.candidates, self.candidates)
            and np.array_equal(fresh.margins, self.margins)
        )


def prove_infeasible(
    inst: ExclusionInstance,
    *,
    paper_faithful: bool = False,
    max_nodes: int = 20_000_000,
) -> Certificate:
    """Attempt to prove that no target-sized set avoids full lines.

    Deterministic for fixed arguments.  max_nodes and MAX_CANDIDATES
    bound the candidate enumeration as `_enumerate_candidates` defines
    them; a step over either budget is UNKNOWN with no candidates.
    """
    dists = class_distributions(inst)
    coeffs = pair_coefficients(dists)
    los, caps, notes = (
        rich_count_bounds(inst, paper_faithful=paper_faithful) if dists else ({}, {}, [])
    )
    verdict, reason, weights, candidates, margins, witness_index = _decide(
        inst, dists, coeffs, los, caps, max_nodes
    )
    return Certificate(
        instance=inst,
        verdict=verdict,
        reason=reason,
        paper_faithful=paper_faithful,
        max_nodes=max_nodes,
        distributions=dists,
        coefficients=coeffs,
        weights=weights,
        rich_lower=los,
        rich_caps=caps,
        cap_notes=tuple(notes),
        candidates=candidates,
        margins=margins,
        witness_index=witness_index,
    )


def _product_dtype(num_classes: int, *vectors) -> type:
    """The narrowest of int32 and int64 that holds every row . v exactly.

    For a row that is nonnegative and sums to num_classes, |row . v| <=
    num_classes * max|v|, so int32 is exact while that is below 2**31.
    """
    top = max((abs(int(c)) for v in vectors for c in v), default=0)
    return np.int32 if num_classes * top < 2**31 else np.int64


def _decide(
    inst: ExclusionInstance,
    dists: tuple[tuple[int, ...], ...],
    coeffs: tuple[int, ...],
    los: dict[int, int],
    caps: dict[int, int],
    max_nodes: int,
) -> tuple[str, str, dict[int, int] | None, np.ndarray, np.ndarray, int | None]:
    """(verdict, reason, weights, candidates, margins, witness_index)."""
    p, t = inst.p, inst.target
    no_rows = np.zeros((0, len(dists)), dtype=np.int32)
    no_margins = np.zeros(0, dtype=np.int64)
    if t > p * inst.plane_cap:
        reason = f"pigeonhole: target {t} exceeds p * plane_cap = {p * inst.plane_cap}"
        return INFEASIBLE, reason, None, no_rows, no_margins, None
    if not dists:
        reason = "no multiset of allowed plane sizes attains the target"
        return INFEASIBLE, reason, None, no_rows, no_margins, None

    weights = None  # without a rich pencil, margins use raw lower bounds
    if rich_pencil_multisets(inst):
        try:
            weights = null_weights(inst)
        except NullSpaceError as e:
            reason = f"rich-pencil null space has dimension {e.dimension}, need 1"
            return UNKNOWN, reason, None, no_rows, no_margins, None

    candidates, truncated = _enumerate_candidates(
        coeffs, inst.num_classes, inst.pair_rhs, MAX_CANDIDATES, max_nodes
    )
    if truncated:
        reason = (
            f"enumeration budget exhausted (max_candidates={MAX_CANDIDATES}, "
            f"max_nodes={max_nodes})"
        )
        return UNKNOWN, reason, weights, no_rows, no_margins, None

    # the class count comes first: the products' dtype relies on it
    if candidates.size and candidates.min() < 0:
        raise AssertionError("enumeration produced a negative class count")
    if not (candidates.sum(axis=1) == inst.num_classes).all():
        raise AssertionError("enumeration produced a vector violating the class count")
    margin_coeffs = _margin_coefficients(inst, dists, weights, los, caps)
    dtype = _product_dtype(inst.num_classes, coeffs, margin_coeffs)
    rows = candidates.astype(dtype, copy=False)
    if not (rows @ np.asarray(coeffs, dtype=dtype) == inst.pair_rhs).all():
        raise AssertionError("enumeration produced a vector violating the pair count")

    margins = (rows @ margin_coeffs.astype(dtype)).astype(np.int64)
    not_refuted = np.flatnonzero(margins <= 0)
    if candidates.shape[0] == 0:
        reason = "no assignment of distributions to classes meets the pair count"
        return INFEASIBLE, reason, weights, candidates, margins, None
    if not_refuted.size == 0:
        reason = "every candidate assignment is refuted by the rich-line inequality"
        return INFEASIBLE, reason, weights, candidates, margins, None
    reason = "a candidate assignment survives all refutations"
    return UNKNOWN, reason, weights, candidates, margins, int(not_refuted[0])

"""Exact maximum k-progression-free set computation by branch and bound,
plus an independent brute-force oracle for tiny spaces.

The exact engine decides points from the most constrained line first,
else the undecided point on the most crowded lines; with fix_translation
it first decides the two axes of the heaviest-line frame, and keeps only
axis patterns that are least under the frame's diagonal scalings.  It
propagates the rule that a k-window (the point set of a k-term
progression) with k-1 chosen points excludes its remaining points, and
prunes with the cardinality bound tightened by a per-line capacity
bound.  Results are deterministic for a fixed configuration, including
the reported set.
"""

from __future__ import annotations

import ctypes
import operator
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import compress

import numpy as np

from .constructions import box
from .geometry import ResourceBudgetError, SpaceSpec, require_k, space_tables
from .pointset import PointSet
from .verifier import find_progression

# entries of a search's line tables, and window tables for k < p - 1;
# checked before a build, and the tables live for one search call
TABLE_BUDGET = 2**23


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the branch and bound engine.

    warm: optional starting incumbent (must verify k-progression-free).

    threads: worker processes.  Every search starts in the calling
    process, on the whole node budget at None or 1 and on at most 2^15
    nodes at more; only a tree that outgrows them is split into at least
    16 subtrees per worker and searched anew by that many forked workers
    (POSIX).  The node and time budgets hold for the whole call, and the
    reported set is the first maximum set in depth-first order (a tie
    never replaces an earlier set), so size and set are the same at any
    worker count, and every count too on a tree of at most 2^15 nodes.

    fix_translation: sound symmetry breaking that pins an affine frame
    on a heaviest line.  Let C be the complement of a k-progression-free
    set S.  C is nonempty (S cannot be the whole space) and, for n >= 2,
    never lies inside one affine line (a set containing a full line
    contains k-term progressions for every k <= p).  Take as x-axis a
    line L1 holding the most points of C; it holds at least 2, since
    any two points of C lie on a line.  Take as y-axis a line L2 != L1
    holding the most points of C among the lines through a point of
    C on L1; it too holds at least 2, since the line through a C point
    of L1 and a C point off L1 qualifies.  Let c0 be the C point where
    L2 meets L1, c1 another C point of L1 and c2 another C point of L2.
    Invertible affine maps preserve lines and k-term progressions and
    carry (c0, c1, c2) to (origin, e_1, e_2), so some affine image of
    S - of the same size and also free - has a complement meeting:
    origin, e_1 and e_2 are out; every line l has out(l) <= out(x-axis);
    every line other than the x-axis through an x-axis point that is
    out has out(l) <= out(y-axis).  The search forces the three points
    out, decides the x-axis and then the y-axis points first, and
    prunes a node once out(l) > p - in(x-axis), or out(l) > p - in(y-axis)
    on a line of the second kind.  Out counts only grow and in counts
    only grow down the tree, so a violated rule stays violated and no
    image of that kind is lost: the optimal size never changes, and the
    returned witness is a maximum set (possibly not the
    lexicographically least one).  For n = 1 only the origin is forced
    out (translation only).

    The frame still admits the images under the scalings diag(lam, mu),
    (x, y) -> (lam x, mu y), and for n >= 3 diag(lam, mu, 1, ..., 1).
    These fix the origin, carry each axis onto itself and lines to
    lines, so they keep every out count, the excluded axis points, the
    lines through them and therefore every frame cap.  Let X be the
    x-coordinates of the excluded x-axis points (0 and 1 among them) and
    Y those of the y-axis.  For a in X and b in Y, both nonzero,
    diag(1/a, 1/b) carries a framed image to one with patterns X/a and
    Y/b, which again hold 1; from that image the same family of patterns
    is reachable.  So some framed image has X least among {X/a} and Y
    least among {Y/b}, in the order of the mask sum of 2^t (any fixed
    total order would do; a pattern that a scaling fixes passes, as
    equality is allowed).  Once an axis is fully decided the search cuts
    the node unless its pattern is least; decisions are never undone
    down the tree, so no image of that kind is lost.
    """

    warm: PointSet | None = None
    node_budget: int = 50_000_000
    time_budget: float | None = None
    threads: int | None = None
    fix_translation: bool = False

    def __post_init__(self) -> None:
        # type() is int refuses floats and bools, and type() in (int, float)
        # bools and strings, which would fail or mislead only at search time
        if type(self.node_budget) is not int or self.node_budget <= 0:
            raise ValueError("node_budget must be a positive integer")
        if self.time_budget is not None and (
            type(self.time_budget) not in (int, float) or not self.time_budget > 0  # NaN too
        ):
            raise ValueError("time_budget must be a positive number of seconds")
        if self.threads is not None and (type(self.threads) is not int or self.threads < 1):
            raise ValueError("threads must be an integer of at least 1")


# a search's counts, as named on SearchResult and _Engine, summed over subtrees
COUNTS = ("nodes", "bound_prunes", "frame_prunes", "orbit_prunes", "line_updates")


@dataclass(frozen=True)
class SearchResult:
    space: SpaceSpec
    k: int
    best: PointSet
    size: int
    optimal: bool
    nodes: int
    elapsed: float
    bound_prunes: int  # nodes cut by the size bound
    frame_prunes: int  # branches cut by a fix_translation frame rule
    orbit_prunes: int  # nodes cut by the frame's diagonal-scaling orbit check
    line_updates: int  # per-line count updates by applying and undoing decisions

    def to_dict(self) -> dict:
        return {
            "p": self.space.p,
            "n": self.space.n,
            "k": self.k,
            "size": self.size,
            "optimal": self.optimal,
            "nodes": self.nodes,
            "elapsed": round(self.elapsed, 3),
            "bound_prunes": self.bound_prunes,
            "frame_prunes": self.frame_prunes,
            "orbit_prunes": self.orbit_prunes,
            "line_updates": self.line_updates,
            "points": [list(pt) for pt in self.best.points()],
        }


def _window_rowsets(p: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Distinct position sets of k-term progressions along a cyclic line.

    Steps are taken up to sign (a progression and its reversal cover the
    same points) and duplicate position sets are merged.
    """
    seen = {
        tuple(sorted((j + i * lam) % p for i in range(k)))
        for lam in range(1, (p - 1) // 2 + 1)
        for j in range(p)
    }
    return tuple(sorted(seen))


class _WindowSystem:
    """Constraint tables of one search call, shared by its engines.

    Lines are numbered by direction, then by closed-form key; line l's
    windows are numbered l*R .. l*R + R - 1 for R window position sets,
    or are line l itself when fused (k >= p - 1, see _Engine).  The
    tables are tuples of Python ints, which the engine iterates.
    """

    def __init__(self, p: int, n: int, k: int):
        _table_entries(p, n, k)  # refuses an oversized space before any allocation
        space = SpaceSpec(p, n)
        self.p, self.n, self.k = p, n, k
        self.fused = _line_capped(p, k)
        t = space_tables(p, n)
        num = space.num_points
        self.num_points = num
        # row l: the points of line l in position order
        cols = np.concatenate([t.line_matrix(di).T for di in range(space.num_directions)])
        self.num_lines = len(cols)
        pts = _shared_ints(num)
        self.line_points = tuple(map(tuple, pts[np.sort(cols, axis=1)].tolist()))
        self.point_lines = _owners(cols, num)
        if self.fused:
            self.windows, self.point_windows = self.line_points, self.point_lines
        else:
            windows = cols[:, _window_rowsets(p, k)].reshape(-1, k)
            self.windows = tuple(map(tuple, pts[windows].tolist()))
            self.point_windows = _owners(windows, num)
        # lines with a common direction partition the space; ids are
        # contiguous per direction, p^{n-1} lines each
        self.num_classes = space.num_directions
        self.lines_per_class = num // p
        # per-line packing capacity; left at p for n = 1 below k = p - 1,
        # where it is what the search computes.  Fused n = 1 takes k - 1,
        # so that its line stays open until propagation has run (see _Engine)
        self.line_cap = one_dim_cap(p, k) if n > 1 or self.fused else p
        # the fix_translation axes (n > 1): the lines through the origin
        # and e_1 (x) and through the origin and e_2 (y); axis[q] is 1 on
        # the x-axis and 2 on the rest of the y-axis
        self.x_line = self.y_line = -1
        self.x_points = self.axis_order = self.axes = ()
        self.axis = bytearray(num)
        if n > 1:
            pl = self.point_lines
            (self.x_line,) = set(pl[0]) & set(pl[1])
            (self.y_line,) = set(pl[0]) & set(pl[p])
            self.x_points = self.line_points[self.x_line]
            self.axis_order = self.x_points + self.line_points[self.y_line][1:]
            for q in self.axis_order:
                self.axis[q] = 1 if q in self.x_points else 2
            # an axis's points in index order have coordinates 0..p-1
            self.axes = (self.x_points, self.line_points[self.y_line])


def _line_capped(p: int, k: int) -> bool:
    return k >= p - 1  # k-freeness caps each line at k - 1 points (see _Engine)


def _table_entries(p: int, n: int, k: int) -> int:
    """Entries of the line and window tables of (p, n, k), within TABLE_BUDGET."""
    require_k(p, k)
    window_entries = 0 if _line_capped(p, k) else len(_window_rowsets(p, k)) * k
    entries = SpaceSpec(p, n).num_lines * (p + window_entries)
    if entries > TABLE_BUDGET:
        raise ResourceBudgetError(
            f"search tables for p={p}, n={n}, k={k} need {entries} entries, "
            f"over the budget of {TABLE_BUDGET}"
        )
    return entries


def _shared_ints(m: int) -> np.ndarray:
    """Object array of the Python ints 0..m-1.

    Table entries taken from it share one int per value, so an entry
    costs a pointer, not a new int object.
    """
    return np.arange(m).astype(object)


def _owners(rows: np.ndarray, num: int) -> tuple[tuple[int, ...], ...]:
    """For each point, the ascending numbers of the rows that hold it."""
    flat = rows.reshape(-1)
    owners = _shared_ints(len(rows))[np.argsort(flat, kind="stable") // rows.shape[1]].tolist()
    ends = np.cumsum(np.bincount(flat, minlength=num)).tolist()
    return tuple(tuple(owners[lo:hi]) for lo, hi in zip([0] + ends, ends))


class _BudgetExhausted(Exception):
    pass


_GRANT = 2048  # nodes an engine draws from the budget at a time
_INLINE_NODES = 2**15  # nodes a threaded call searches serially before it splits and forks
_SUBTREES_PER_WORKER = 16  # enough to even out subtrees of unequal size
_AXIS_SPLIT_DEPTH = 10  # at most 2^10 subtrees from the frame's axis points


class _Budget:
    """Node allowance and deadline of one search call, shared by its subtrees.

    Engines draw nodes in grants, so the allowance is touched once per
    grant.  Given a multiprocessing context, the allowance lives in shared
    memory under a process lock, for forked workers; the deadline is one
    absolute time.monotonic() value, which every process reads alike.
    """

    def __init__(self, nodes: int, deadline: float | None, mp=None):
        self.deadline = deadline
        if mp is None:
            self.left, self.lock = ctypes.c_int64(nodes), nullcontext()
        else:
            self.left, self.lock = mp.RawValue(ctypes.c_int64, nodes), mp.Lock()

    def draw(self) -> int:
        """Up to _GRANT nodes; 0 once the allowance is spent or time is up."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            return 0
        with self.lock:
            grant = min(_GRANT, self.left.value)
            self.left.value -= grant
        return grant

    def give_back(self, nodes: int) -> None:
        with self.lock:
            self.left.value += nodes


class _Engine:
    """One depth-first exploration over a fixed prefix of decisions.

    framed: apply the fix_translation frame rules and the orbit check of
    its diagonal scalings (see SearchConfig).
    Each line l carries a cap on its excluded points, out_cap[l]: p
    without the frame; with it, p - in(x-axis), lowered to p - in(y-axis)
    on the lines other than the x-axis through an excluded x-axis point.
    The caps move only when an axis point is decided, and the axis points
    are decided first, so below them _set_out checks constant caps.

    ws.fused: k >= p - 1.  Every (p-1)-subset of Z_p is a (p-1)-term
    progression (the one missing m is m+1, ..., m+p-1), so a line's
    k-windows are its k-subsets: a line with k - 1 chosen points excludes
    its other points, line_in doubles as the window counts, and one loop
    per point updates both.

    A line's counts are line_in and line_out; its undecided points
    number undec = p - in - out.  A line is open while it is short of
    excluded points, out < need, that is while line_key[l] != 0:
    line_key[l] is max(undec, 2) for an open line and 0 for any other,
    one byte per line (for n >= 2, TABLE_BUDGET admits only p <= 199;
    clamp stops at 255 for n = 1, where only a key's being 0 is read).
    _pick finds the most constrained open line with at most p - 1
    bytearray.find calls.  The counts of an open line are exact; a
    decision updates only the lines whose counts can still be read, and
    its trail entry keeps them.  Where those are q's open lines, one
    C-level gather of their keys, itemgetter(*point_lines[q]), built per
    decision, selects them, so nothing is kept per point (for n = 1 it
    gathers one key, which itemgetter returns as a bare int):
    - ws.fused: _set_in skips closed lines.  A closed line has in <=
      k - 1, and with in = k - 1 it has no undecided point left, so it
      can never become full or exclude a point.
    - Out counts past need are read only by the frame caps, so an
      unframed _set_out skips closed lines; a framed one visits every
      line of q.
    - k < p - 1: _set_in visits every line, as the fallback pick reads
      line_in there.
    - The axes: _reframe counts the chosen axis points from status; the
      frame prefix closes both axes, so their line_in is not kept.
    - Undo runs in LIFO order, so a line that was open or closed when q
      was applied is still so when q is undone, and _undo_to reverses
      exactly the lines in q's trail entry.
    - n = 1 with ws.fused: line_cap is k - 1, so need >= 1 and the line
      stays open, and propagating, until it holds need excluded points.
    """

    UNDEC, IN, OUT = 0, 1, 2

    def __init__(self, ws: _WindowSystem, best_size: int, budget=None, framed: bool = False):
        self.ws = ws
        self.k = ws.k
        self.status = bytearray(ws.num_points)
        self.line_in = [0] * ws.num_lines
        self.win_in = self.line_in if ws.fused else [0] * len(ws.windows)
        self.line_out = [0] * ws.num_lines
        # a line needs at least p - cap excluded points; an excluded point
        # serves exactly one line per parallel class, so the outstanding
        # need of any single class lower-bounds future exclusions
        self.need = ws.p - ws.line_cap
        self.class_need = [self.need * ws.lines_per_class] * ws.num_classes
        self.clamp = [min(max(ws.p - d, 2), 255) for d in range(ws.p + 1)]  # in + out -> key
        self.line_key = bytearray([self.clamp[0] if self.need else 0]) * ws.num_lines
        self.undec_total = ws.num_points
        self.cur_in = 0
        # (op, point, lines updated); op 1=in 2=out, or (3, caps, ()) to
        # restore out_cap
        self.trail: list[tuple[int, object, tuple[int, ...]]] = []
        self.out_cap = [ws.p] * ws.num_lines
        self.framed = framed
        self.axis = ws.axis if framed else bytes(ws.num_points)
        self.axis_order = ws.axis_order if framed else ()
        self.axes = ws.axes if framed else ()
        self.best_size = best_size
        self.best_set: tuple[int, ...] | None = None
        self.nodes = 0
        self.bound_prunes = 0
        self.frame_prunes = 0
        self.orbit_prunes = 0
        self.line_updates = 0
        self.budget = budget
        self.grant = 0  # nodes drawn from the budget and not yet used

    # -- state transitions ------------------------------------------------
    def _set_in(self, q: int) -> bool:
        """Choose q; returns False on an immediate contradiction."""
        ws, status, win_in = self.ws, self.status, self.win_in
        line_in, line_out, key, clamp = self.line_in, self.line_out, self.line_key, self.clamp
        status[q] = self.IN
        self.undec_total -= 1
        self.cur_in += 1
        lines = ws.point_lines[q]
        if ws.fused:
            keys = operator.itemgetter(*lines)(key)
            lines = tuple(compress(lines, keys if ws.n > 1 else (keys,)))
        self.trail.append((1, q, lines))
        self.line_updates += len(lines)
        k = self.k
        filled: list[int] = []
        full = False  # some window already held k - 1 chosen points
        if ws.fused:
            for l in lines:
                c = line_in[l] + 1
                line_in[l] = c
                key[l] = clamp[c + line_out[l]]
                if c >= k - 1:
                    if c == k:
                        full = True
                    else:
                        filled.append(l)
        else:
            for l in lines:
                c = line_in[l] + 1
                line_in[l] = c
                if key[l]:
                    key[l] = clamp[c + line_out[l]]
            for w in ws.point_windows[q]:
                c = win_in[w] + 1
                win_in[w] = c
                if c == k:
                    full = True
                elif c == k - 1:
                    filled.append(w)
        if full or (self.axis[q] and not self._reframe()):
            return False
        for w in filled:
            for m in ws.windows[w]:
                if status[m] == self.UNDEC and not self._set_out(m):
                    return False
        return True

    def _set_out(self, q: int) -> bool:
        """Exclude q; returns False if a line now exceeds its frame cap."""
        ws, need, cap, key, clamp = self.ws, self.need, self.out_cap, self.line_key, self.clamp
        line_in, line_out, class_need = self.line_in, self.line_out, self.class_need
        lpc = ws.lines_per_class  # line l lies in parallel class l // lpc
        self.status[q] = self.OUT
        self.undec_total -= 1
        lines = ws.point_lines[q]
        if not self.framed:
            keys = operator.itemgetter(*lines)(key)
            lines = tuple(compress(lines, keys if ws.n > 1 else (keys,)))
        self.trail.append((2, q, lines))
        self.line_updates += len(lines)
        ok = True
        for l in lines:
            out = line_out[l] + 1
            line_out[l] = out
            # a line's chosen points are free, so in <= line_cap and every
            # cap p - in is at least need: only out > need can exceed one
            if out <= need:
                class_need[l // lpc] -= 1
                key[l] = clamp[line_in[l] + out] if out < need else 0
            elif out > cap[l]:
                ok = False
        if not ok:
            self.frame_prunes += 1
            return False
        return self.axis[q] != 1 or self._reframe()

    def _reframe(self) -> bool:
        """Recompute out_cap after an axis decision; False if a line exceeds it."""
        ws, status = self.ws, self.status
        in_x, in_y = (sum(status[q] == self.IN for q in pts) for pts in ws.axes)
        cap_x = ws.p - in_x
        cap_y = min(cap_x, ws.p - in_y)
        cap = [cap_x] * ws.num_lines
        for q in ws.x_points:
            if status[q] == self.OUT:
                for l in ws.point_lines[q]:
                    cap[l] = cap_y
        cap[ws.x_line] = cap_x
        self.trail.append((3, self.out_cap, ()))
        self.out_cap = cap
        if any(map(operator.gt, self.line_out, cap)):
            self.frame_prunes += 1
            return False
        return True

    def _orbit_ok(self) -> bool:
        """False if a fully decided axis has an excluded pattern that is not
        least in its diagonal-scaling orbit (see SearchConfig).

        An axis's pattern is the set T of coordinates of its excluded
        points, ordered by the mask sum of 2^t; it must be at most T/a for
        every a in T other than 0.
        """
        status, OUT, p = self.status, self.OUT, self.ws.p
        for pts in self.axes:
            if self.UNDEC in map(status.__getitem__, pts):
                continue
            out = [t for t, q in enumerate(pts) if status[q] == OUT]
            mask = sum(1 << t for t in out)
            for a in out:
                if a:
                    inv = pow(a, -1, p)
                    if sum(1 << (t * inv % p) for t in out) < mask:
                        return False
        return True

    def _undo_to(self, mark: int) -> None:
        ws, need, lpc = self.ws, self.need, self.ws.lines_per_class
        trail, status, win_in = self.trail, self.status, self.win_in
        line_in, line_out = self.line_in, self.line_out
        key, clamp, class_need = self.line_key, self.clamp, self.class_need
        while len(trail) > mark:
            op, q, lines = trail.pop()
            self.line_updates += len(lines)
            if op == 2:
                status[q] = self.UNDEC
                self.undec_total += 1
                for l in lines:
                    out = line_out[l] - 1
                    line_out[l] = out
                    if out < need:  # open again
                        class_need[l // lpc] += 1
                        key[l] = clamp[line_in[l] + out]
            elif op == 1:
                status[q] = self.UNDEC
                self.undec_total += 1
                self.cur_in -= 1
                for l in lines:
                    c = line_in[l] - 1
                    line_in[l] = c
                    if key[l]:
                        key[l] = clamp[c + line_out[l]]
                if not ws.fused:
                    for w in ws.point_windows[q]:
                        win_in[w] -= 1
            else:
                self.out_cap = q

    # -- bounding and selection -------------------------------------------
    def _upper_extra(self, most_need: int) -> int:
        """Room left under the line-capacity bound, given max(class_need).

        Future exclusions among the undecided points number at least the
        outstanding need of any one parallel class (an exclusion serves
        exactly one line per class), leaving undec - max_c need_c points
        addable.  Summing per-line slack min(cap - in, undec) within a
        class gives exactly the same value - per line, in + out + undec
        = p makes min(cap - in, undec) = undec - max(0, need - out) - so
        this single O(classes) pass is the whole bound.
        """
        return self.undec_total - most_need if self.ws.n > 1 else self.undec_total

    def _pick(self, framing: bool = True) -> int:
        """The next point to decide.

        Undecided axis points come first, x-axis then y-axis, in index
        order; framing=False skips that scan where every axis point is
        known to be decided.

        Then the most constrained open line: the lowest-numbered open
        line with the smallest max(undec, 2), that is the first byte 2 of
        line_key, else the first 3, and so on up to p.  The clamp at 2
        ranks every short line alike, since propagation keeps open lines
        at 2 or more undecided points.  Its first undecided point in
        index order is next; in-first branching then walks the choices
        of which of its points gets excluded.  Failing that (n = 1, or no
        open line has an undecided point), the undecided point whose
        lines hold the most chosen points, the lowest on ties.
        """
        st = self.status
        if framing:
            for q in self.axis_order:
                if st[q] == self.UNDEC:
                    return q
        if self.ws.n > 1:
            key = self.line_key
            for v in range(2, self.ws.p + 1):
                l = key.find(v)
                if l >= 0:
                    for q in self.ws.line_points[l]:
                        if st[q] == self.UNDEC:
                            return q
                    break
        best_q, best_score = -1, -1
        line_in = self.line_in
        for q in range(self.ws.num_points):
            if st[q] != self.UNDEC:
                continue
            score = 0
            for l in self.ws.point_lines[q]:
                score += line_in[l]
            if score > best_score:
                best_q, best_score = q, score
        return best_q

    # -- search -------------------------------------------------------------
    def _leaf(self, most_need: int) -> tuple[int, ...] | None:
        """The set this node completes to if it is a leaf, else None.

        most_need is max(class_need).  Either every point is decided, or
        the only constraint is the per-line cap and every line already has
        its full quota of exclusions, so taking every undecided point is
        optimal here; the set is every point not excluded.
        """
        if self.undec_total == 0 or (self.ws.fused and self.ws.n > 1 and most_need == 0):
            OUT = self.OUT
            return tuple(q for q, s in enumerate(self.status) if s != OUT)
        return None

    def dfs(self, framing: bool = True) -> None:
        """Search below the current node; framing as in _pick, and while it
        holds the node is cut unless _orbit_ok."""
        if not self.grant:
            self.grant = self.budget.draw()
            if not self.grant:
                raise _BudgetExhausted
        self.grant -= 1
        self.nodes += 1
        if framing and not self._orbit_ok():
            self.orbit_prunes += 1
            return
        most_need = max(self.class_need)
        leaf = self._leaf(most_need)
        if leaf is not None:
            if len(leaf) > self.best_size:  # a tie never replaces
                self.best_size, self.best_set = len(leaf), leaf
            return
        if self.cur_in + self._upper_extra(most_need) <= self.best_size:
            self.bound_prunes += 1
            return
        q = self._pick(framing)
        framing = self.axis[q] != 0  # a later pick may still be an axis point
        mark = len(self.trail)
        if self._set_in(q):
            self.dfs(framing)
        self._undo_to(mark)
        if self._set_out(q):
            self.dfs(framing)
        self._undo_to(mark)

    def run_prefix(self, prefix: tuple[tuple[int, int], ...]) -> bool:
        """Apply forced decisions (op, point); False if contradictory."""
        for op, q in prefix:
            if self.status[q] != self.UNDEC:
                ok = (self.status[q] == self.IN) == (op == 1)
                if not ok:
                    return False
                continue
            if not (self._set_in(q) if op == 1 else self._set_out(q)):
                return False
        return True


def _frame_prefix(cfg: SearchConfig, p: int, n: int) -> tuple[tuple[int, int], ...]:
    """Decisions every search starts from: the fix_translation frame, if set.

    Forcing frame points out restricts the tree but not the optimum: a
    warm incumbent containing them still supplies a valid size bound and
    is returned as-is when nothing larger exists.
    """
    if not cfg.fix_translation:
        return ()
    frame = (0,) if n == 1 else (0, 1, p)
    return tuple((2, q) for q in frame)


# (best_size, best_set, exhausted, the COUNTS in order)
_TreeResult = tuple[int, tuple[int, ...] | None, bool, tuple[int, ...]]


def _run_tree(
    ws: _WindowSystem,
    framed: bool,
    start_size: int,
    budget: _Budget,
    prefix: tuple[tuple[int, int], ...],
) -> _TreeResult:
    """Search one decision subtree."""
    eng = _Engine(ws, start_size, budget, framed)
    try:
        if eng.run_prefix(prefix):
            eng.dfs()
        exhausted = True
    except _BudgetExhausted:
        exhausted = False
    finally:
        budget.give_back(eng.grant)  # the unused part of the last grant
    return eng.best_size, eng.best_set, exhausted, operator.attrgetter(*COUNTS)(eng)


def _root_prefixes(
    ws: _WindowSystem, cfg: SearchConfig, workers: int
) -> list[tuple[tuple[int, int], ...]]:
    """Split the tree below the frame into live subtrees, at least 16 per worker.

    Cuts every branch of the engine's own tree `depth` decisions below
    the frame, keeping leaves whole and dropping contradictory branches,
    so the union of subtrees is exactly the serial tree.  `depth` starts
    at the number of undecided axis points of the fix_translation frame,
    which the engine decides first, so the frame caps are fixed within
    each subtree; for p > 7 that number exceeds _AXIS_SPLIT_DEPTH, and
    the subtrees decide the rest of the axes themselves.  `depth` grows
    until the subtrees are enough or no branch is left to deepen.  The
    prefixes come out in depth-first order (in before out).
    """
    eng = _Engine(ws, -1, framed=cfg.fix_translation)
    frame = _frame_prefix(cfg, ws.p, ws.n)
    eng.run_prefix(frame)  # live: nothing is in yet
    axis_left = sum(eng.status[q] == eng.UNDEC for q in eng.axis_order)
    depth = min(axis_left, _AXIS_SPLIT_DEPTH)
    while True:
        prefixes: list[tuple[tuple[int, int], ...]] = []
        deeper = _cut(eng, frame, depth, prefixes)
        if len(prefixes) >= workers * _SUBTREES_PER_WORKER or not deeper:
            return prefixes
        depth += 1


def _cut(eng: _Engine, prefix: tuple, depth: int, out: list) -> bool:
    """Append the prefixes `depth` decisions below eng's node to out.

    Returns whether some branch was cut short of a leaf.  Drops the
    branches that the engine's orbit check would cut at their root.
    """
    if not eng._orbit_ok():
        return False
    if eng._leaf(max(eng.class_need)) is not None:
        out.append(prefix)
        return False
    if depth == 0:
        out.append(prefix)
        return True
    q = eng._pick()
    mark = len(eng.trail)
    deeper = False
    for op in (1, 2):
        if eng.run_prefix(((op, q),)):
            deeper |= _cut(eng, prefix + ((op, q),), depth - 1, out)
        eng._undo_to(mark)
    return deeper


_worker_args: tuple = ()  # (ws, framed, start_size, budget) in a forked worker


def _init_worker(*args) -> None:
    global _worker_args
    _worker_args = args


def _run_worker_tree(prefix: tuple[tuple[int, int], ...]) -> _TreeResult:
    return _run_tree(*_worker_args, prefix)


def _fork_workers(
    ws: _WindowSystem, cfg: SearchConfig, start_size: int, deadline: float | None, workers: int
) -> list[_TreeResult]:
    """_run_tree over the root subtrees on forked workers, in subtree order.

    The workers inherit the window tables and draw the whole node budget
    from a shared budget.  multiprocessing is imported only here, so that
    importing linefree and a small threaded search stay as cheap as a
    serial search.
    """
    import multiprocessing

    mp = multiprocessing.get_context("fork")
    shared = _Budget(cfg.node_budget, deadline, mp)
    args = (ws, cfg.fix_translation, start_size, shared)
    with mp.Pool(workers, _init_worker, args) as pool:
        return list(pool.imap(_run_worker_tree, _root_prefixes(ws, cfg, workers)))


def max_free_exact(
    p: int, n: int, k: int | None = None, cfg: SearchConfig | None = None, **overrides
) -> SearchResult:
    """Exact maximum size of a k-progression-free subset of F_p^n.

    Runs branch and bound to exhaustion (optimal=True) or until the node
    or time budget runs out (optimal=False, best incumbent returned).
    The default warm start is the box [0, k-2]^n, so the result is never
    below (k-1)^n.
    """
    space = SpaceSpec(p, n)
    if k is None:
        k = p
    if cfg is None:
        cfg = SearchConfig(**overrides)
    elif overrides:
        cfg = replace(cfg, **overrides)
    ws = _WindowSystem(p, n, k)
    t0 = time.monotonic()
    deadline = t0 + cfg.time_budget if cfg.time_budget else None

    if cfg.warm is not None:
        if cfg.warm.space != space:
            raise ValueError("warm start lives in a different space")
        if find_progression(cfg.warm, k) is not None:
            raise ValueError("warm start contains a k-term progression")
        warm = cfg.warm
    else:
        warm = box(p, n, k - 1)
    best_set = tuple(warm.indices().tolist())
    best_size = len(best_set)

    # every search starts in this process; with workers, on at most
    # _INLINE_NODES nodes.  An attempt that spent that allowance, before
    # the call's own budget or deadline, is dropped, neither charged nor
    # reported, and forked workers search the whole tree.  So a small tree
    # never pays for a pool and gives exactly the serial counts
    workers, node_budget = cfg.threads or 1, cfg.node_budget
    allowance = node_budget if workers == 1 else min(node_budget, _INLINE_NODES)
    budget = _Budget(allowance, deadline)
    prefix = _frame_prefix(cfg, p, n)
    attempt = _run_tree(ws, cfg.fix_translation, best_size, budget, prefix)
    stopped = not attempt[2] and allowance < node_budget
    timed_out = deadline is not None and time.monotonic() > deadline
    outs = [attempt]
    if stopped and not timed_out:
        outs = _fork_workers(ws, cfg, best_size, deadline, workers)
    sizes, sets, finished, tallies = zip(*outs)
    counts = dict(zip(COUNTS, map(sum, zip(*tallies))))
    exhausted = all(finished)
    for size, st in zip(sizes, sets):  # the first subtree that reaches the maximum
        if size > best_size:
            best_size, best_set = size, st

    best = PointSet.from_indices(space, best_set)
    if find_progression(best, k) is not None:
        raise AssertionError("search produced a set with a k-term progression")
    return SearchResult(
        space=space,
        k=k,
        best=best,
        size=best_size,
        optimal=exhausted,
        elapsed=time.monotonic() - t0,
        **counts,
    )


def heuristic_lower(
    p: int, n: int, k: int | None = None, cfg: SearchConfig | None = None, **overrides
) -> SearchResult:
    """Budget-limited improvement search; optimal=False is expected.

    Same engine as max_free_exact with a modest default node budget, so
    the returned set is always at least the warm start (or the default
    box) and verified progression-free.
    """
    return max_free_exact(p, n, k, cfg or SearchConfig(node_budget=2_000_000), **overrides)


@lru_cache(maxsize=None)
def one_dim_cap(p: int, k: int) -> int:
    """Exact maximum size of a k-progression-free subset of F_p^1.

    k >= p - 1 gives k - 1 (see _Engine); other k are computed exactly.
    Not k - 1 in general: for example {0, 1, 3} avoids 3-term
    progressions mod 7.
    """
    if _line_capped(p, k):
        return k - 1
    res = max_free_exact(p, 1, k)
    if not res.optimal:
        raise RuntimeError(f"one-dimensional search did not finish for p={p}, k={k}")
    return res.size


def brute_force_oracle(p: int, n: int, k: int) -> int:
    """Exact maximum by exhaustive scan of all subsets; p^n <= 20 only.

    Independent of the branch and bound engine: builds window bitmasks
    and sweeps every subset mask with vectorized containment tests.
    """
    space = SpaceSpec(p, n)
    num = space.num_points
    if num > 20:
        raise ValueError(f"space has {num} points; the oracle handles at most 20")
    require_k(p, k)
    t = space_tables(p, n)
    rowsets = _window_rowsets(p, k)
    masks_w: set[int] = set()
    for di in range(space.num_directions):
        mat = t.line_matrix(di)
        for c in range(mat.shape[1]):
            col = mat[:, c]
            for rows in rowsets:
                m = 0
                for r in rows:
                    m |= 1 << int(col[r])
                masks_w.add(m)
    all_masks = np.arange(1 << num, dtype=np.uint32)
    ok = np.ones(all_masks.size, dtype=bool)
    for wm in sorted(masks_w):
        ok &= (all_masks & np.uint32(wm)) != np.uint32(wm)
    pc = np.zeros(1 << num, dtype=np.uint8)
    for b in range(num):
        half = 1 << b
        pc[half : 2 * half] = pc[:half] + 1
    return int(pc[ok].max())

"""Exact maximum k-progression-free set computation by branch and bound,
plus an independent brute-force oracle for tiny spaces.

The exact engine decides points in a configurable order, propagating the
rule that a k-window (the point set of a k-term progression) with k-1
chosen points excludes its remaining points, and pruning with either a
plain cardinality bound or a per-line capacity bound.  Results are
deterministic for a fixed configuration, including the reported set.
"""

from __future__ import annotations

import ctypes
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .geometry import SpaceSpec, space_tables
from .pointset import PointSet
from .verifier import find_progression

_ORDERS = ("greedy-degree", "natural")
_BOUNDS = ("line-capacity", "cardinality")


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the branch and bound engine.

    order: point selection; "greedy-degree" picks the undecided point on
    the most crowded lines (ties to the lowest index), "natural" takes
    ascending index order.  bound: "line-capacity" adds the per-line
    packing bound to the cardinality bound.  warm: optional starting
    incumbent (must verify k-progression-free).

    threads: worker processes.  None or 1 searches in the calling
    process; more forks that many workers (POSIX) over about 16 subtrees
    each.  The node and time budgets hold for the whole call, and the
    reported set is the first maximum set in depth-first order (a tie
    never replaces an earlier set), so size and set are the same at any
    worker count.

    fix_translation: sound symmetry breaking that pins an affine frame.
    The complement C of any k-progression-free set S is nonempty (S
    cannot be the whole space) and, for n >= 2, is never contained in a
    single affine line (a set containing a full line contains k-term
    progressions for every k <= p).  Hence C holds a point c0, a second
    point c1, and a third point c2 off the line through c0 and c1.
    Invertible affine maps preserve k-term progressions and can carry
    (c0, c1, c2) to (origin, e_1, e_2), so some affine image of S - of
    the same size and also free - excludes those three points.  Forcing
    them out therefore never changes the optimal size, and the returned
    witness is a maximum set (possibly not the lexicographically least
    one).  For n = 1 only the origin is forced out (translation only).
    """

    order: str = "greedy-degree"
    bound: str = "line-capacity"
    warm: PointSet | None = None
    node_budget: int = 50_000_000
    time_budget: float | None = None
    threads: int | None = None
    fix_translation: bool = False

    def __post_init__(self) -> None:
        if self.order not in _ORDERS:
            raise ValueError(f"order must be one of {_ORDERS}")
        if self.bound not in _BOUNDS:
            raise ValueError(f"bound must be one of {_BOUNDS}")
        if self.node_budget <= 0:
            raise ValueError("node_budget must be positive")
        if self.time_budget is not None and self.time_budget <= 0:
            raise ValueError("time_budget must be positive")
        if self.threads is not None and self.threads < 1:
            raise ValueError("threads must be at least 1")


@dataclass(frozen=True)
class SearchResult:
    space: SpaceSpec
    k: int
    best: PointSet
    size: int
    optimal: bool
    nodes: int
    elapsed: float

    def to_dict(self) -> dict:
        return {
            "p": self.space.p,
            "n": self.space.n,
            "k": self.k,
            "size": self.size,
            "optimal": self.optimal,
            "nodes": self.nodes,
            "elapsed": round(self.elapsed, 3),
            "points": [list(pt) for pt in self.best.points()],
        }


def _window_rowsets(p: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Distinct position sets of k-term progressions along a cyclic line.

    Steps are taken up to sign (a progression and its reversal cover the
    same points) and duplicate position sets are merged.
    """
    if k == p:
        return (tuple(range(p)),)
    seen = {
        tuple(sorted((j + i * lam) % p for i in range(k)))
        for lam in range(1, (p - 1) // 2 + 1)
        for j in range(p)
    }
    return tuple(sorted(seen))


class _WindowSystem:
    """Per-space constraint tables shared by engine instances."""

    def __init__(self, p: int, n: int, k: int):
        space = SpaceSpec(p, n)
        if not 3 <= k <= p:
            raise ValueError(f"k must be in [3, p], got {k}")
        self.space = space
        self.p, self.n, self.k = p, n, k
        t = space_tables(p, n)
        num = space.num_points
        self.num_points = num
        self.lines_per_point = space.lines_per_point
        rowsets = _window_rowsets(p, k)

        point_lines: list[list[int]] = [[] for _ in range(num)]
        point_windows: list[list[int]] = [[] for _ in range(num)]
        windows: list[tuple[int, ...]] = []
        line_points: list[tuple[int, ...]] = []
        for di in range(space.num_directions):
            for col in t.line_matrix(di).T:
                lid = len(line_points)
                line_points.append(tuple(sorted(int(q) for q in col)))
                for q in col:
                    point_lines[int(q)].append(lid)
                for rows in rowsets:
                    wid = len(windows)
                    w = tuple(int(col[r]) for r in rows)
                    windows.append(w)
                    for q in w:
                        point_windows[q].append(wid)
        self.num_lines = len(line_points)
        self.windows = tuple(windows)
        self.line_points = tuple(line_points)
        self.point_lines = tuple(tuple(v) for v in point_lines)
        self.point_windows = tuple(tuple(v) for v in point_windows)
        # lines with a common direction partition the space; ids are
        # contiguous per direction, p^{n-1} lines each
        self.num_classes = space.num_directions
        self.lines_per_class = num // p
        # per-line packing capacity; trivial for one-dimensional spaces
        self.line_cap = one_dim_cap(p, k) if n > 1 else p


@lru_cache(maxsize=256)
def _window_system(p: int, n: int, k: int) -> _WindowSystem:
    return _WindowSystem(p, n, k)


class _BudgetExhausted(Exception):
    pass


_GRANT = 2048  # nodes an engine draws from the budget at a time
_SUBTREES_PER_WORKER = 16  # enough to even out subtrees of unequal size


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
    """One depth-first exploration over a fixed prefix of decisions."""

    UNDEC, IN, OUT = 0, 1, 2

    def __init__(self, ws: _WindowSystem, cfg: SearchConfig, best_size: int, budget=None):
        self.ws = ws
        self.cfg = cfg
        self.k = ws.k
        self.status = bytearray(ws.num_points)
        self.win_in = [0] * len(ws.windows)
        self.line_in = [0] * ws.num_lines
        self.line_undec = [ws.p] * ws.num_lines
        self.line_out = [0] * ws.num_lines
        # a line needs at least p - cap excluded points; an excluded point
        # serves exactly one line per parallel class, so the outstanding
        # need of any single class lower-bounds future exclusions
        self.need = ws.p - ws.line_cap
        self.class_need = [self.need * ws.lines_per_class] * ws.num_classes
        self.undec_total = ws.num_points
        self.cur_in = 0
        self.chosen: list[int] = []
        self.trail: list[tuple[int, int]] = []  # (op, point); op 1=in 2=out
        self.best_size = best_size
        self.best_set: tuple[int, ...] | None = None
        self.nodes = 0
        self.budget = budget
        self.grant = 0  # nodes drawn from the budget and not yet used

    # -- state transitions ------------------------------------------------
    def _set_in(self, q: int) -> bool:
        """Choose q; returns False on an immediate contradiction."""
        ws = self.ws
        self.status[q] = self.IN
        self.undec_total -= 1
        self.cur_in += 1
        self.chosen.append(q)
        self.trail.append((1, q))
        for l in ws.point_lines[q]:
            self.line_in[l] += 1
            self.line_undec[l] -= 1
        filled: list[int] = []
        for w in ws.point_windows[q]:
            c = self.win_in[w] + 1
            self.win_in[w] = c
            if c == self.k:
                return False
            if c == self.k - 1:
                filled.append(w)
        for w in filled:
            for m in ws.windows[w]:
                if self.status[m] == self.UNDEC:
                    self._set_out(m)
        return True

    def _set_out(self, q: int) -> None:
        self.status[q] = self.OUT
        self.undec_total -= 1
        self.trail.append((2, q))
        lpc = self.ws.lines_per_class
        for l in self.ws.point_lines[q]:
            self.line_undec[l] -= 1
            out = self.line_out[l] + 1
            self.line_out[l] = out
            if out <= self.need:
                self.class_need[l // lpc] -= 1

    def _undo_to(self, mark: int) -> None:
        ws = self.ws
        lpc = ws.lines_per_class
        while len(self.trail) > mark:
            op, q = self.trail.pop()
            self.status[q] = self.UNDEC
            self.undec_total += 1
            if op == 1:
                self.cur_in -= 1
                self.chosen.pop()
                for l in ws.point_lines[q]:
                    self.line_in[l] -= 1
                    self.line_undec[l] += 1
                for w in ws.point_windows[q]:
                    self.win_in[w] -= 1
            else:
                for l in ws.point_lines[q]:
                    self.line_undec[l] += 1
                    out = self.line_out[l]
                    self.line_out[l] = out - 1
                    if out <= self.need:
                        self.class_need[l // lpc] += 1

    # -- bounding and selection -------------------------------------------
    def _upper_extra(self) -> int:
        """Room left under the line-capacity bound.

        Future exclusions among the undecided points number at least the
        outstanding need of any one parallel class (an exclusion serves
        exactly one line per class), leaving undec - max_c need_c points
        addable.  Summing per-line slack min(cap - in, undec) within a
        class gives exactly the same value - per line, in + out + undec
        = p makes min(cap - in, undec) = undec - max(0, need - out) - so
        this single O(classes) pass is the whole bound.
        """
        extra = self.undec_total
        if self.cfg.bound == "line-capacity" and self.ws.n > 1:
            blocking = self.undec_total - max(self.class_need)
            if blocking < extra:
                extra = blocking
        return extra

    def _pick(self) -> int:
        st = self.status
        if self.cfg.order == "natural":
            for q in range(self.ws.num_points):
                if st[q] == self.UNDEC:
                    return q
            return -1
        if self.ws.n > 1:
            # most-constrained unsatisfied line: fewest undecided points
            # among lines still short of excluded points; work through
            # its points in index order (in-first branching walks the
            # choices of which of them gets excluded)
            best_l, best_u = -1, self.ws.p + 1
            need = self.need
            line_out, line_undec = self.line_out, self.line_undec
            for l in range(self.ws.num_lines):
                if line_out[l] < need and line_undec[l] < best_u:
                    best_l, best_u = l, line_undec[l]
                    if best_u <= 2:  # propagation keeps short lines >= 2
                        break
            if best_l >= 0:
                for q in self.ws.line_points[best_l]:
                    if st[q] == self.UNDEC:
                        return q
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
    def _leaf(self) -> tuple[int, ...] | None:
        """The set this node completes to if it is a leaf, else None."""
        if self.undec_total == 0:
            return tuple(sorted(self.chosen))
        if self.k >= self.ws.p - 1 and self.ws.n > 1 and max(self.class_need) == 0:
            # for k in {p-1, p} the only constraint is the per-line cap
            # (every (p-1)-subset of a line is a progression), and every
            # line already has its full quota of exclusions, so taking
            # every undecided point is optimal here
            st = self.status
            cand = self.chosen + [q for q in range(self.ws.num_points) if st[q] == self.UNDEC]
            return tuple(sorted(cand))
        return None

    def dfs(self) -> None:
        if not self.grant:
            self.grant = self.budget.draw()
            if not self.grant:
                raise _BudgetExhausted
        self.grant -= 1
        self.nodes += 1
        leaf = self._leaf()
        if leaf is not None:
            if len(leaf) > self.best_size:  # a tie never replaces
                self.best_size, self.best_set = len(leaf), leaf
            return
        if self.cur_in + self._upper_extra() <= self.best_size:
            return
        q = self._pick()
        mark = len(self.trail)
        if self._set_in(q):
            self.dfs()
        self._undo_to(mark)
        self._set_out(q)
        self.dfs()
        self._undo_to(mark)

    def run_prefix(self, prefix: tuple[tuple[int, int], ...]) -> bool:
        """Apply forced decisions (op, point); False if contradictory."""
        for op, q in prefix:
            if self.status[q] != self.UNDEC:
                ok = (self.status[q] == self.IN) == (op == 1)
                if not ok:
                    return False
                continue
            if op == 1:
                if not self._set_in(q):
                    return False
            else:
                self._set_out(q)
        return True


def _box_indices(p: int, n: int, side: int) -> tuple[int, ...]:
    t = space_tables(p, n)
    sel = np.nonzero((t.coords < side).all(axis=1))[0]
    return tuple(int(i) for i in sel)


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


def _run_tree(
    ws: _WindowSystem,
    cfg: SearchConfig,
    start_size: int,
    budget: _Budget,
    prefix: tuple[tuple[int, int], ...],
) -> tuple[int, tuple[int, ...] | None, int, bool]:
    """(best_size, best_set, nodes, exhausted) for one decision subtree."""
    eng = _Engine(ws, cfg, start_size, budget)
    if not eng.run_prefix(prefix):
        return start_size, None, 0, True
    try:
        eng.dfs()
        return eng.best_size, eng.best_set, eng.nodes, True
    except _BudgetExhausted:
        return eng.best_size, eng.best_set, eng.nodes, False
    finally:
        budget.give_back(eng.grant)  # the unused part of the last grant


def _root_prefixes(
    ws: _WindowSystem, cfg: SearchConfig, workers: int
) -> list[tuple[tuple[int, int], ...]]:
    """Split the tree below the frame into about 16 live subtrees per worker.

    Expands the in/out decisions breadth-first on the engine's own pick
    order, dropping contradictory prefixes and keeping leaves whole, so
    the union of subtrees is exactly the serial tree.  The prefixes come
    back in depth-first order (in before out).
    """
    frontier = deque([_frame_prefix(cfg, ws.p, ws.n)])
    leaves: list[tuple[tuple[int, int], ...]] = []
    while frontier and len(leaves) + len(frontier) < workers * _SUBTREES_PER_WORKER:
        base = frontier.popleft()
        probe = _Engine(ws, cfg, -1)
        probe.run_prefix(base)  # live: the frame holds only exclusions
        if probe._leaf() is not None:
            leaves.append(base)
            continue
        q = probe._pick()
        for op in (1, 2):
            child = base + ((op, q),)
            if _Engine(ws, cfg, -1).run_prefix(child):
                frontier.append(child)
    # siblings differ first in op at the same point, and 1 (in) < 2 (out)
    return sorted(leaves + list(frontier))


_worker_args: tuple = ()  # (ws, cfg, start_size, budget) in a forked worker


def _init_worker(*args) -> None:
    global _worker_args
    _worker_args = args


def _run_worker_tree(prefix: tuple[tuple[int, int], ...]):
    return _run_tree(*_worker_args, prefix)


def _run_workers(
    ws: _WindowSystem, cfg: SearchConfig, start_size: int, deadline: float | None, workers: int
) -> list[tuple[int, tuple[int, ...] | None, int, bool]]:
    """_run_tree over the root subtrees on forked workers, in subtree order.

    Forked workers inherit the window tables, the configuration and the
    shared budget instead of rebuilding them; they run only the pure-Python
    engine.  multiprocessing is imported here, not at module level, so
    that importing linefree stays as cheap as a serial search needs.
    """
    import multiprocessing

    mp = multiprocessing.get_context("fork")
    budget = _Budget(cfg.node_budget, deadline, mp)
    prefixes = _root_prefixes(ws, cfg, workers)
    with mp.Pool(workers, _init_worker, (ws, cfg, start_size, budget)) as pool:
        return list(pool.imap(_run_worker_tree, prefixes))


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
    ws = _window_system(p, n, k)
    t0 = time.monotonic()
    deadline = t0 + cfg.time_budget if cfg.time_budget else None

    if cfg.warm is not None:
        if cfg.warm.space != space:
            raise ValueError("warm start lives in a different space")
        if find_progression(cfg.warm, k) is not None:
            raise ValueError("warm start contains a k-term progression")
        warm_idx = tuple(int(i) for i in np.nonzero(cfg.warm.bits)[0])
    else:
        warm_idx = _box_indices(p, n, k - 1)
    best_size = len(warm_idx)
    best_set = warm_idx

    workers = cfg.threads or 1
    if workers > 1:
        outs = _run_workers(ws, cfg, best_size, deadline, workers)
    else:
        budget = _Budget(cfg.node_budget, deadline)
        outs = [_run_tree(ws, cfg, best_size, budget, _frame_prefix(cfg, p, n))]
    nodes = sum(o[2] for o in outs)
    exhausted = all(o[3] for o in outs)
    for size, st, _, _ in outs:  # the first subtree that reaches the maximum
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
        nodes=nodes,
        elapsed=time.monotonic() - t0,
    )


def heuristic_lower(
    p: int, n: int, k: int | None = None, cfg: SearchConfig | None = None, **overrides
) -> SearchResult:
    """Budget-limited improvement search; optimal=False is expected.

    Same engine as max_free_exact with a modest default node budget, so
    the returned set is always at least the warm start (or the default
    box) and verified progression-free.
    """
    if cfg is None:
        merged = dict(node_budget=2_000_000)
        merged.update(overrides)
        cfg = SearchConfig(**merged)
    elif overrides:
        cfg = replace(cfg, **overrides)
    return max_free_exact(p, n, k, cfg)


@lru_cache(maxsize=None)
def one_dim_cap(p: int, k: int) -> int:
    """Exact maximum size of a k-progression-free subset of F_p^1.

    k = p gives p - 1 (miss one point of the only line); k = p - 1 gives
    p - 2 (every (p-1)-subset of Z_p is a (p-1)-term progression); other
    k are computed exactly.  Not k - 1 in general: for example {0, 1, 3}
    avoids 3-term progressions mod 7.
    """
    if k == p:
        return p - 1
    res = max_free_exact(p, 1, k, SearchConfig(bound="cardinality"))
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
    if not 3 <= k <= p:
        raise ValueError(f"k must be in [3, p], got {k}")
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

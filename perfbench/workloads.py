"""The benchmark's three workloads: job lists, seeded inputs, pinned answers.

Each workload is a closed loop with one client: the next job starts only
after the previous one has returned and been checked.
``plan(seed, threads, trace)`` makes the run's inputs in pure Python (the
library never sees the seed);
``jobs(plan)`` yields the jobs of one pass.  Every job has a check that
compares its output with a value pinned here or known by construction.

* ``search``: the exact plane proofs and budgeted 3-D improvement runs.
* ``verify``: a stream of verification requests on affine images of the
  bundled constructions, some with seeded noise that adds a full line.
* ``certify``: the descending certificate ladders from the best bound.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

# ---------------------------------------------------------------------------
# jobs


@dataclass
class Job:
    """One request: ``run`` calls the library, ``check`` returns an error or None."""

    name: str
    run: Callable[[Any], Any]
    check: Callable[[Any], str | None]
    outcome: Any = field(default=None, repr=False)


@dataclass(frozen=True)
class Workload:
    name: str
    warm: Callable[[Any], dict]  # set-up calls, given the client -> {(p, n): line tables kept}
    plan: Callable[[int, int, bool], Any]  # (seed, threads, trace) -> inputs for every pass
    jobs: Callable[[Any], Iterator[Job]]  # plan -> the jobs of one pass


def warm_space(client, p: int, n: int) -> bool:
    """Build the tables linefree caches for F_p^n; returns whether it keeps line tables.

    Line tables are built for every direction only when the library keeps
    them (asking twice returns the same array); for larger spaces it
    rebuilds them on each call, so warming them would be wasted work.
    """
    geometry = client.lib.geometry
    tables = client.call(geometry.space_tables, p, n)
    first = client.call(tables.line_matrix, 0)
    if client.call(tables.line_matrix, 0) is not first:
        return False
    for di in range(1, len(tables.dir_vecs)):
        client.call(tables.line_matrix, di)
    return True


def has_progression(points: list[tuple[int, ...]], p: int, k: int) -> bool:
    """Independent oracle: does the point list hold a k-term progression?

    Tries every base point with every nonzero step, on a membership bitmap
    of its own (index = sum of c_j * p^j).
    """
    if not points:
        return False
    pts = np.asarray(points, dtype=np.int64)
    powers = p ** np.arange(pts.shape[1], dtype=np.int64)
    member = np.zeros(p ** pts.shape[1], dtype=bool)
    member[pts @ powers] = True
    for step in itertools.product(range(p), repeat=pts.shape[1]):
        if not any(step):
            continue
        hit = np.ones(len(pts), dtype=bool)
        for i in range(1, k):
            hit &= member[(pts + i * np.asarray(step)) % p @ powers]
        if hit.any():
            return True
    return False


# ---------------------------------------------------------------------------
# search

# label -> (p, n, k, threads, node budget of a heuristic run or None for an
# exact proof).  threads=None means min(2, nproc).  The (7,2,7) proof takes
# 8-13 s, most of a pass; everything else is kept short so that two or
# three passes fit in a 40 s run.  So the one-thread (7,2,7) proof runs
# only in traced runs, where it gives search.parallel_speedup, and the 3-D
# runs have small node budgets (F_5^3 already reaches 65 points within
# 50k nodes).  The F_7^3 run is asked twice per pass, so the median job
# falls inside one cluster of equal jobs instead of between two job sizes.
SEARCH_JOBS = {
    "exact 5-2-4": (5, 2, 4, 1, None),
    "exact 5-2-5": (5, 2, 5, 1, None),
    "exact 7-2-7": (7, 2, 7, None, None),
    "exact 7-2-7 threads=1": (7, 2, 7, 1, None),
    "heuristic 5-3-5": (5, 3, 5, 1, 50_000),
    "heuristic 7-3-7 #1": (7, 3, 7, 1, 10_000),
    "heuristic 7-3-7 #2": (7, 3, 7, 1, 10_000),
}
TRACE_ONLY = {"exact 7-2-7 threads=1"}
SEARCH_PINS = {  # label -> (size, optimal)
    "exact 5-2-4": (11, True),
    "exact 5-2-5": (16, True),
    "exact 7-2-7": (36, True),
    "exact 7-2-7 threads=1": (36, True),
    "heuristic 5-3-5": (65, False),
    "heuristic 7-3-7 #1": (216, False),
    "heuristic 7-3-7 #2": (216, False),
}


def _search_warm(client) -> dict:
    cached = {(p, n): warm_space(client, p, n) for p, n in ((5, 2), (7, 2), (5, 3), (7, 3))}
    for p, n, k in sorted({spec[:3] for spec in SEARCH_JOBS.values()}):
        client.call(client.lib.search.max_free_exact, p, n, k, node_budget=1, fix_translation=True)
    return cached


def _search_plan(seed: int, threads: int, trace: bool) -> list[tuple[str, int]]:
    labels = [label for label in SEARCH_JOBS if trace or label not in TRACE_ONLY]
    random.Random(seed).shuffle(labels)
    return [(label, SEARCH_JOBS[label][3] or threads) for label in labels]


def _search_run(client, label: str, threads: int):
    p, n, k, _, budget = SEARCH_JOBS[label]
    search = client.lib.search
    if budget is not None:
        res = client.call(search.heuristic_lower, p, n, k, node_budget=budget)
    else:
        res = client.call(search.max_free_exact, p, n, k, fix_translation=True, threads=threads)
    client.note(label=label, threads=threads, nodes=res.nodes, optimal=res.optimal)
    return res


def _search_check(label: str, res) -> str | None:
    size, optimal = SEARCH_PINS[label]
    if (res.size, res.optimal) != (size, optimal):
        return f"got size={res.size} optimal={res.optimal}, pinned {size} {optimal}"
    points = res.best.points()
    if len(points) != res.size:
        return f"returned set has {len(points)} points, reported size {res.size}"
    if has_progression(points, res.space.p, res.k):
        return f"returned set holds a {res.k}-term progression"
    return None


def _search_jobs(plan) -> Iterator[Job]:
    for label, threads in plan:
        yield Job(
            label,
            run=lambda c, label=label, threads=threads: _search_run(c, label, threads),
            check=lambda res, label=label: _search_check(label, res),
        )


# ---------------------------------------------------------------------------
# certify

# Node budget of every ladder step.  The default (20M) lets the 242 step run
# for about 25 s before it gives up, which would leave room for one pass per
# run; 1M reaches the same budget-exhausted verdict in about 5 s and changes
# no other verdict.
CERT_MAX_NODES = 1_000_000
CERT_PINS = {  # (p, target) -> (verdict, reason, digest)
    (5, 74): (
        "INFEASIBLE",
        "every candidate assignment is refuted by the rich-line inequality",
        "bab2a20d92d8a27e8cff2db5909358e8e041882e7cab9766cf19a3305d0781c8",
    ),
    (5, 73): (
        "UNKNOWN",
        "a candidate assignment survives all refutations",
        "848a95a73372ce13726034ae77d6b099e65d1f8daeda051edb423b33a80900dc",
    ),
    (7, 243): (
        "INFEASIBLE",
        "every candidate assignment is refuted by the rich-line inequality",
        "e413421af6381f445ba8e769eaf52ded7ce6e591000d197cf696f824df57108c",
    ),
    (7, 242): (
        "UNKNOWN",
        "enumeration budget exhausted (max_candidates=500000, max_nodes=1000000)",
        "51ad0178cf9363e5c844127bc4f618840f6475f8831dce0f5121bc49c38a43f2",
    ),
}
INTERVAL_PINS = {5: (70, 73), 7: (225, 242)}  # [best lower, certified upper]
MAX_LADDER_STEPS = 4  # more steps than any pinned ladder has


def _certify_plan(seed: int, threads: int, trace: bool) -> tuple[int, ...]:
    # The instances are fixed, and so is the ladder order: running p=7
    # first changes the peak memory by about 8%.
    return tuple(INTERVAL_PINS)


def _prove(client, p: int, target: int):
    ct = client.lib.certify
    inst = client.call(ct.make_instance, p, target)
    cert = client.call(ct.prove_infeasible, inst, max_nodes=CERT_MAX_NODES)
    client.note(
        p=p,
        target=target,
        verdict=cert.verdict,
        candidates=cert.candidate_count,
        refuted=cert.refuted_count,
    )
    return cert


def _ladder_start(client, p: int):
    report = client.call(client.lib.bounds.bounds_report, p, 3, include_certified=False)
    return report.best_lower, report.best_upper, _prove(client, p, report.best_upper)


def _step_check(p: int, target: int, lower: int, cert) -> str | None:
    pin = CERT_PINS.get((p, target))
    if pin is None:
        return f"ladder reached target {target}, which has no pinned certificate"
    got = (cert.verdict, cert.reason, cert.digest)
    if got != pin:
        return f"certificate {got} differs from pinned {pin}"
    if cert.verdict != "INFEASIBLE" and (lower, target) != INTERVAL_PINS[p]:
        return f"interval [{lower}, {target}] differs from pinned {list(INTERVAL_PINS[p])}"
    return None


def _audit(client, certs):
    out = []
    for p, target, cert in certs:
        ok = client.call(cert.replay)
        text = client.call(cert.to_json)
        digest = client.call(type(cert).digest.fget, cert)
        out.append((p, target, ok, json.loads(text)["digest"], digest))
    return out


def _audit_check(outcome) -> str | None:
    for p, target, ok, exported, digest in outcome:
        pinned = CERT_PINS[(p, target)][2]
        if not ok:
            return f"replay() of the {target} certificate returned False"
        if exported != pinned or digest != pinned:
            return f"{target}: exported digest {exported} / digest {digest} differ from pinned {pinned}"
    return None


def _certify_jobs(plan) -> Iterator[Job]:
    """Ladder steps downward until the first non-INFEASIBLE verdict, then one audit.

    The generator reads each step's outcome before yielding the next, as
    ``certified_upper`` does; a step that fails ends its ladder.
    """
    refuted = []
    for p in plan:
        start = Job(
            f"ladder p={p} start",
            run=lambda c, p=p: _ladder_start(c, p),
            check=lambda out, p=p: _step_check(p, out[1], out[0], out[2]),
        )
        yield start
        if start.outcome is None:
            continue
        lower, target, cert = start.outcome
        for _ in range(MAX_LADDER_STEPS - 1):
            if cert.verdict != "INFEASIBLE":
                break
            refuted.append((p, target, cert))
            target -= 1
            step = Job(
                f"ladder p={p} target={target}",
                run=lambda c, p=p, t=target: _prove(c, p, t),
                check=lambda out, p=p, t=target, lo=lower: _step_check(p, t, lo, out),
            )
            yield step
            if step.outcome is None:
                break
            cert = step.outcome
    if refuted:
        yield Job("audit", run=lambda c: _audit(c, refuted), check=_audit_check)


# ---------------------------------------------------------------------------
# verify


@dataclass(frozen=True)
class Family:
    function: str  # in linefree.constructions
    args: tuple
    p: int
    n: int
    size: int  # pinned size of the construction
    free_above: int  # the set is k-progression-free for every k > free_above
    cli: tuple[str, ...] = ()  # `linefree construct` flags that build it


FAMILIES = {
    "qr31": Family("qr_construction", (31,), 31, 3, 27030, 30),
    "sqrt29": Family("sqrt_construction", (29,), 29, 3, 21971, 28),
    "sqrt37": Family("sqrt_construction", (37,), 37, 3, 46681, 36),
    "layered74": Family(
        "layered", (7, 4), 7, 4, 1326, 6, ("--family", "layered", "-p", "7", "-n", "4")
    ),
    "fig70": Family("load_reference_set", ("fig70",), 5, 3, 70, 4, ("--family", "fig70", "-p", "5")),
    "cube-5-3": Family("hypercube", (5, 3), 5, 3, 64, 4),
    "cube-7-3": Family("hypercube", (7, 3), 7, 3, 216, 6),
    "cube-11-3": Family(
        "hypercube", (11, 3), 11, 3, 1000, 10, ("--family", "hypercube", "-p", "11", "-n", "3")
    ),
    "cube-13-3": Family("hypercube", (13, 3), 13, 3, 1728, 12),
    "cube-37-3": Family("hypercube", (37, 3), 37, 3, 46656, 36),
    # boxes [0, side-1]^n are k-free exactly for k > side
    "box-7-3-4": Family("box", (7, 3, 4), 7, 3, 64, 4),
    "box-7-4-5": Family("box", (7, 4, 5), 7, 4, 625, 5),
    "box-11-3-7": Family("box", (11, 3, 7), 11, 3, 343, 7),
    "box-13-3-9": Family("box", (13, 3, 9), 13, 3, 729, 9),
}

# (kind, family, k, noisy, count per pass).  The mix is fixed so that runs
# with different seeds do the same amount of work; the seed picks the
# affine maps, the noise and the order.  The counts of the cheapest requests
# (F_5^3, F_7^3) put the median job in the middle of the F_7^4 / k < p
# cluster (about 5-10 ms), not at its edge.
VERIFY_MIX = (
    # k = p on spaces inside the line-table cache
    ("find", "qr31", 31, False, 10),
    ("find", "qr31", 31, True, 6),
    ("find", "sqrt29", 29, False, 8),
    ("find", "sqrt29", 29, True, 4),
    ("find", "layered74", 7, False, 8),
    ("find", "layered74", 7, True, 4),
    ("find", "fig70", 5, False, 12),
    ("find", "fig70", 5, True, 6),
    ("find", "cube-5-3", 5, False, 6),
    ("find", "cube-5-3", 5, True, 1),
    ("find", "cube-7-3", 7, False, 4),
    ("find", "cube-7-3", 7, True, 1),
    ("find", "cube-11-3", 11, False, 3),
    ("find", "cube-11-3", 11, True, 1),
    ("find", "cube-13-3", 13, False, 3),
    ("find", "cube-13-3", 13, True, 1),
    # k < p in small spaces
    ("find", "box-7-3-4", 5, False, 4),
    ("find", "box-7-3-4", 5, True, 1),
    ("find", "box-7-4-5", 6, False, 4),
    ("find", "box-7-4-5", 6, True, 1),
    ("find", "box-11-3-7", 8, False, 4),
    ("find", "box-11-3-7", 8, True, 1),
    ("find", "box-13-3-9", 10, False, 4),
    ("find", "box-13-3-9", 10, True, 1),
    ("find", "cube-7-3", 6, False, 2),
    ("find", "cube-11-3", 9, False, 2),
    # k = p above the line-table cache (F_37^3, 50,653 points)
    ("find", "cube-37-3", 37, False, 1),
    ("find", "sqrt37", 37, True, 1),
    # profiles, identities, grid text and the command line
    ("line_profile", "qr31", 31, False, 1),
    ("line_profile", "layered74", 7, False, 2),
    ("identity", "sqrt29", 29, False, 1),
    ("identity", "fig70", 5, False, 2),
    ("plane_profile", "qr31", 31, False, 1),
    ("plane_profile", "fig70", 5, False, 2),
    ("grid", "qr31", 31, False, 1),
    ("grid", "layered74", 7, False, 2),
    ("grid", "cube-11-3", 11, True, 1),
    ("cli_construct", "fig70", 5, False, 1),
    ("cli_construct", "layered74", 7, False, 1),
    ("cli_construct", "cube-11-3", 11, False, 1),
    ("cli_verify", "fig70", 5, True, 1),
    ("cli_verify", "layered74", 7, False, 1),
)
VERIFY_SPACES = ((31, 3), (29, 3), (37, 3), (7, 4), (5, 3), (7, 3), (11, 3), (13, 3))
CLI_DIR = os.path.join(".bench_out", "cli")  # relative to the repository root


@dataclass(frozen=True)
class VerifyRequest:
    kind: str
    family: str
    k: int
    matrix: tuple[tuple[int, ...], ...]
    shift: tuple[int, ...]
    noise: tuple[tuple[int, ...], ...]  # extra points; when present they hold a full line

    @property
    def expect_free(self) -> bool:
        return not self.noise and self.k > FAMILIES[self.family].free_above


def random_invertible(rng: random.Random, p: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Product of random elementary row operations, so invertible mod p."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randrange(1, p)
        m[i] = [(a + c * b) % p for a, b in zip(m[i], m[j])]
    for i in range(n):
        c = rng.randrange(1, p)
        m[i] = [a * c % p for a in m[i]]
    return tuple(tuple(row) for row in m)


def random_noise(rng: random.Random, p: int, n: int) -> tuple[tuple[int, ...], ...]:
    """A random full line plus two random points."""
    base = [rng.randrange(p) for _ in range(n)]
    step = [0] * n
    while not any(step):
        step = [rng.randrange(p) for _ in range(n)]
    line = [tuple((b + i * d) % p for b, d in zip(base, step)) for i in range(p)]
    extra = [tuple(rng.randrange(p) for _ in range(n)) for _ in range(2)]
    return tuple(line + extra)


def make_verify_requests(seed: int) -> list[VerifyRequest]:
    rng = random.Random(seed)
    out = []
    for kind, family, k, noisy, count in VERIFY_MIX:
        fam = FAMILIES[family]
        for _ in range(count):
            # construct-from-the-CLI requests build the family as it stands
            transform = kind != "cli_construct"
            matrix = random_invertible(rng, fam.p, fam.n) if transform else None
            shift = tuple(rng.randrange(fam.p) for _ in range(fam.n)) if transform else None
            noise = random_noise(rng, fam.p, fam.n) if noisy else ()
            out.append(VerifyRequest(kind, family, k, matrix, shift, noise))
    rng.shuffle(out)
    return out


def _verify_plan(seed: int, threads: int, trace: bool) -> list[VerifyRequest]:
    return make_verify_requests(seed)


def _verify_warm(client) -> dict:
    return {(p, n): warm_space(client, p, n) for p, n in VERIFY_SPACES}


def witness_error(s, w, k: int) -> str | None:
    """None when w is a k-term progression inside s, else what is wrong."""
    if w is None:
        return "expected a witness, got none"
    p, n = s.space.p, s.space.n
    if w.k != k or len(w.base) != n or len(w.step) != n or not any(v % p for v in w.step):
        return f"malformed witness {w}"
    for i in range(k):
        pt = [(b + i * d) % p for b, d in zip(w.base, w.step)]
        if not s.bits[sum(c * p**j for j, c in enumerate(pt))]:
            return f"witness point {tuple(pt)} is not in the set"
    return None


def _build(client, req: VerifyRequest):
    fam = FAMILIES[req.family]
    base = client.call(getattr(client.lib.constructions, fam.function), *fam.args)
    client.note(size=base.size)
    s = client.call(client.lib.pointset.apply_affine, base, req.matrix, req.shift)
    if req.noise:
        s = client.call(s.with_points, req.noise)
    return base.size, s


def _run_cli(client, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = client.call(client.lib.cli.dispatch, argv)
    out = buf.getvalue()
    client.note(bytes_out=len(out.encode()))
    return code, out


def _verifier_call(client, fn, s, *args):
    out = client.call(fn, s, *args)
    p, n = s.space.p, s.space.n
    client.note(p=p, n=n, cached=client.cached_spaces[(p, n)])
    return out


def _verify_run(client, req: VerifyRequest):
    lib = client.lib
    if req.kind == "cli_construct":
        fam = FAMILIES[req.family]
        path = os.path.join(CLI_DIR, "construct.grid")
        built = _run_cli(client, ["construct", *fam.cli, "-o", path])
        return built, _run_cli(client, ["verify", "-k", str(req.k), path])
    base_size, s = _build(client, req)
    if req.kind == "find":
        w = _verifier_call(client, lib.verifier.find_progression, s, req.k)
        client.note(k=req.k, witness=w is not None)
        return base_size, s, w
    if req.kind == "line_profile":
        return base_size, s, _verifier_call(client, lib.verifier.line_profile, s)
    if req.kind == "identity":
        return base_size, s, _verifier_call(client, lib.verifier.identity_check, s)
    if req.kind == "plane_profile":
        return base_size, s, _verifier_call(client, lib.verifier.plane_profile, s)
    text = client.call(lib.pointset.render_grid, s, req.k)
    client.note(bytes=len(text))
    if req.kind == "grid":
        back = client.call(lib.pointset.parse_grid, text)
        return base_size, s, back
    if req.kind == "cli_verify":
        path = os.path.join(CLI_DIR, "verify.grid")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return base_size, s, _run_cli(client, ["verify", "-k", str(req.k), path])
    raise ValueError(f"unknown request kind {req.kind!r}")


def num_lines(p: int, n: int) -> int:
    """Lines of F_p^n: p^(n-1) parallel lines in each of (p^n - 1)/(p - 1) directions."""
    return p ** (n - 1) * (p**n - 1) // (p - 1)


def _cli_check(code: int, out: str, free: bool) -> str | None:
    want_code, want_text = (0, "verdict: free") if free else (1, "verdict: progression found")
    if code != want_code or want_text not in out:
        return f"verify exited {code} with {out!r}, expected {want_code} and {want_text!r}"
    return None


def _verify_check(req: VerifyRequest, outcome) -> str | None:
    fam = FAMILIES[req.family]
    p, n = fam.p, fam.n
    if req.kind == "cli_construct":
        (code, _), (vcode, vout) = outcome
        if code != 0:
            return f"construct exited {code}"
        return _cli_check(vcode, vout, True)
    base_size, s, result = outcome
    if base_size != fam.size:
        return f"{req.family} has {base_size} points, pinned {fam.size}"
    if req.kind == "find":
        if req.expect_free:
            return None if result is None else f"expected a free set, got witness {result}"
        return witness_error(s, result, req.k)
    if req.kind == "line_profile":
        x = result.x
        expected = (0, num_lines(p, n), s.size * (p**n - 1) // (p - 1))
        got = (x[p], sum(x), sum(i * v for i, v in enumerate(x)))
        return None if got == expected else f"profile (x_p, lines, incidences) {got} != {expected}"
    if req.kind == "identity":
        if not result["ok"] or result["profile"][p] != 0:
            return f"identity check failed: {result}"
        return None
    if req.kind == "plane_profile":
        classes = result.multisets
        if len(classes) != (p**n - 1) // (p - 1):
            return f"{len(classes)} parallel classes, expected {(p**n - 1) // (p - 1)}"
        if any(len(ms) != p or sum(ms) != s.size for ms in classes):
            return "a parallel class does not split the set into p planes"
        return None
    if req.kind == "grid":
        if result.space != s.space or not (result.bits == s.bits).all():
            return "parse_grid(render_grid(s)) differs from s"
        return None
    code, out = result
    return _cli_check(code, out, req.expect_free)


def _verify_jobs(plan) -> Iterator[Job]:
    os.makedirs(CLI_DIR, exist_ok=True)
    for i, req in enumerate(plan):
        yield Job(
            f"{req.kind} {req.family} k={req.k}{' noisy' if req.noise else ''} #{i}",
            run=lambda c, req=req: _verify_run(c, req),
            check=lambda out, req=req: _verify_check(req, out),
        )


# ---------------------------------------------------------------------------

WORKLOADS = {
    "search": Workload("search", _search_warm, _search_plan, _search_jobs),
    "verify": Workload("verify", _verify_warm, _verify_plan, _verify_jobs),
    "certify": Workload("certify", lambda client: {}, _certify_plan, _certify_jobs),
}

"""End-to-end and per-layer metrics from job timings and spans."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from tracing import Span, self_times
from workloads import num_lines


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile by nearest rank: the smallest value with q of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def lines_scanned(p: int, n: int, k: int) -> int:
    """Lines find_progression reads: every line once, once per step multiple when k < p."""
    return num_lines(p, n) * (1 if k == p else p - 1)


def end_to_end_metrics(
    pass_walls: list[float], job_s: list[float], setup_s: list[float], rss_mb: float
) -> tuple[dict[str, tuple[float, str]], dict[str, str]]:
    """(name -> (value, unit), name -> how it was taken) for an untraced run."""
    beyond = len(job_s) - math.ceil(0.9 * len(job_s))
    metrics = {
        "wall_s": (statistics.median(pass_walls), "s"),
        "job_p50_s": (statistics.median(job_s), "s"),
        "job_p90_s": (nearest_rank(job_s, 0.9), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = {
        "wall_s": f"median of {len(pass_walls)} passes: " + " ".join(f"{w:.3f}" for w in pass_walls),
        "job_p50_s": f"n={len(job_s)} jobs",
        "job_p90_s": f"n={len(job_s)} jobs, {beyond} beyond it",
        "setup_s": f"median of {len(setup_s)} set-ups",
        "peak_rss_mb": "ru_maxrss, set-up included",
    }
    return metrics, notes


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    setup_spans: list[Span], pass_spans: list[Span], *, generator_s: float, overhead_frac: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: geometry from the traced set-up, every other layer from the traced pass."""
    selfs = self_times(setup_spans) | self_times(pass_spans)
    by_layer: dict[str, list[Span]] = defaultdict(list)
    for sp in pass_spans:
        by_layer[sp.layer].append(sp)
    by_layer["geometry"] = [sp for sp in setup_spans + pass_spans if sp.layer == "geometry"]

    def self_s(spans) -> float:
        return sum(selfs[sp.id] for sp in spans)

    m: dict[str, tuple[float, str]] = {}
    for layer in ("search", "certify", "bounds", "verifier", "geometry", "constructions", "pointset", "cli"):
        m[f"{layer}.calls"] = (len(by_layer[layer]), "count")
        m[f"{layer}.self_s"] = (self_s(by_layer[layer]), "s")

    runs = [sp for sp in by_layer["search"] if "nodes" in sp.attrs]
    nodes = sum(sp.attrs["nodes"] for sp in runs)
    m["search.nodes"] = (nodes, "count")
    m["search.nodes_per_s"] = (_ratio(nodes, self_s(runs)), "1/s")
    m["search.optimal_frac"] = (_ratio(sum(sp.attrs["optimal"] for sp in runs), len(runs)), "frac")
    plane = {sp.attrs["threads"]: sp.duration for sp in runs if sp.attrs["label"].startswith("exact 7-2-7")}
    m["search.parallel_speedup"] = (_ratio(plane.get(1, 0.0), plane.get(max(plane, default=1), 0.0)), "ratio")

    proofs = [sp for sp in by_layer["certify"] if "verdict" in sp.attrs]
    candidates = sum(sp.attrs["candidates"] for sp in proofs)
    m["certify.candidates"] = (candidates, "count")
    m["certify.refuted_frac"] = (_ratio(sum(sp.attrs["refuted"] for sp in proofs), candidates), "frac")
    m["certify.unknown_frac"] = (
        _ratio(sum(sp.attrs["verdict"] != "INFEASIBLE" for sp in proofs), len(proofs)),
        "frac",
    )
    m["certify.replay_s"] = (
        self_s(sp for sp in by_layer["certify"] if sp.name.endswith(".replay")),
        "s",
    )
    m["certify.export_s"] = (
        self_s(sp for sp in by_layer["certify"] if sp.name.endswith((".to_json", ".digest"))),
        "s",
    )

    verifier = by_layer["verifier"]
    # split on what the warm-up probe found: does linefree keep this space's line tables?
    m["verifier.self_s.cached"] = (self_s(sp for sp in verifier if sp.attrs["cached"]), "s")
    m["verifier.self_s.uncached"] = (self_s(sp for sp in verifier if not sp.attrs["cached"]), "s")
    finds = [sp for sp in verifier if "witness" in sp.attrs]
    scanned = sum(lines_scanned(sp.attrs["p"], sp.attrs["n"], sp.attrs["k"]) for sp in finds)
    m["verifier.lines_scanned"] = (scanned, "lines")
    m["verifier.lines_per_s"] = (_ratio(scanned, self_s(finds)), "lines/s")
    m["verifier.witness_frac"] = (_ratio(sum(sp.attrs["witness"] for sp in finds), len(finds)), "frac")
    m["verifier.profile_s"] = (self_s(sp for sp in verifier if "witness" not in sp.attrs), "s")

    m["constructions.points_built"] = (sum(sp.attrs.get("size", 0) for sp in by_layer["constructions"]), "points")
    m["pointset.grid_bytes"] = (sum(sp.attrs.get("bytes", 0) for sp in by_layer["pointset"]), "B")
    m["cli.bytes_out"] = (sum(sp.attrs.get("bytes_out", 0) for sp in by_layer["cli"]), "B")
    m["bench.generator_s"] = (generator_s, "s")
    m["trace.overhead_frac"] = (overhead_frac, "frac")
    return m

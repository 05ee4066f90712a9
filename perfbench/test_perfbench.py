"""Tests of the benchmark itself: pins, checks, the input generator, spans.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from metrics import end_to_end_metrics, layer_metrics, lines_scanned, nearest_rank  # noqa: E402
from run import import_library, run_pass  # noqa: E402
from tracing import Client, Tracer, self_times  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return import_library()


def only(workload: workloads.Workload, keep) -> workloads.Workload:
    """The workload restricted to the jobs whose names satisfy keep."""
    return workloads.Workload(
        workload.name,
        workload.warm,
        workload.plan,
        lambda plan: (job for job in workload.jobs(plan) if keep(job.name)),
    )


def test_wrong_search_pin_is_reported_as_failure(lib, monkeypatch):
    wl = only(workloads.WORKLOADS["search"], lambda name: name == "exact 5-2-5")
    plan = wl.plan(0, 1, False)
    assert run_pass(wl, plan, Client(lib, Tracer(False))).errors == []
    monkeypatch.setitem(workloads.SEARCH_PINS, "exact 5-2-5", (17, True))
    res = run_pass(wl, plan, Client(lib, Tracer(False)))
    assert len(res.job_s) == 1
    assert len(res.errors) == 1 and "pinned 17" in res.errors[0]


def test_wrong_certificate_digest_is_reported_as_failure(lib, monkeypatch):
    # p=5 ladder start only (bounds_report, then the fast refutation of 74);
    # the filtered-out steps never run, so the ladder stops after it
    wl = only(workloads.WORKLOADS["certify"], lambda name: name == "ladder p=5 start")
    verdict, reason, _ = workloads.CERT_PINS[(5, 74)]
    monkeypatch.setitem(workloads.CERT_PINS, (5, 74), (verdict, reason, "0" * 64))
    res = run_pass(wl, (5,), Client(lib, Tracer(False)))
    assert len(res.errors) == 1 and "differs from pinned" in res.errors[0]


def test_raising_job_counts_as_failure(lib):
    boom = workloads.Job("boom", run=lambda c: 1 / 0, check=lambda out: None)
    wl = workloads.Workload("t", lambda c: None, lambda s, t, tr: None, lambda plan: iter([boom]))
    res = run_pass(wl, None, Client(lib, Tracer(False)))
    assert res.errors == ["boom: raised ZeroDivisionError: division by zero"]


def test_generator_is_seeded_with_a_fixed_mix():
    a, b, c = (workloads.make_verify_requests(seed) for seed in (1, 1, 2))
    assert a == b
    assert a != c
    mix = lambda reqs: Counter((r.kind, r.family, r.k, bool(r.noise)) for r in reqs)  # noqa: E731
    assert mix(a) == mix(c)
    assert len(a) >= 100
    assert sum(r.expect_free for r in a) > 0 and sum(not r.expect_free for r in a) > 0


def test_noise_always_holds_a_full_line():
    import random

    rng = random.Random(7)
    for _ in range(20):
        pts = workloads.random_noise(rng, 7, 3)
        assert workloads.has_progression(list(pts[:7]), 7, 7)


def test_witness_check_rejects_points_outside_the_set(lib):
    space = lib.geometry.SpaceSpec(5, 2)
    line = [(i, 2 * i % 5) for i in range(5)]
    s = lib.pointset.PointSet.from_points(space, line)
    w = lib.verifier.find_progression(s)
    assert workloads.witness_error(s, w, 5) is None
    fake = lib.verifier.ProgressionWitness(base=(0, 1), step=(1, 0), k=5)
    assert "not in the set" in workloads.witness_error(s, fake, 5)
    assert workloads.witness_error(s, None, 5) == "expected a witness, got none"


def test_small_verify_requests_of_every_kind_pass(lib, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    small = {name for name, fam in workloads.FAMILIES.items() if fam.p**fam.n <= 7**4}
    reqs = [r for r in workloads.make_verify_requests(3) if r.family in small]
    assert {r.kind for r in reqs} == {r.kind for r in workloads.make_verify_requests(3)}
    warm = Client(lib, Tracer(False))
    spaces = {(workloads.FAMILIES[name].p, workloads.FAMILIES[name].n) for name in small}
    cached = {(p, n): workloads.warm_space(warm, p, n) for p, n in spaces}
    assert all(cached.values())
    tracer = Tracer(True)
    res = run_pass(workloads.WORKLOADS["verify"], reqs, Client(lib, tracer, cached))
    assert res.errors == []
    assert len(res.job_s) == len(reqs)
    m = layer_metrics([], tracer.spans, generator_s=0.0, overhead_frac=0.0)
    assert m["verifier.calls"][0] == sum(r.kind not in ("grid", "cli_construct", "cli_verify") for r in reqs)
    assert 0 < m["verifier.witness_frac"][0] < 1
    assert m["cli.bytes_out"][0] > 0
    rendered = [sp for sp in tracer.spans if sp.name == "pointset.render_grid"]
    assert rendered and m["pointset.grid_bytes"][0] == sum(sp.attrs["bytes"] for sp in rendered)
    assert m["verifier.self_s.uncached"][0] == 0 < m["verifier.self_s.cached"][0]


def test_self_time_subtracts_children():
    tracer = Tracer(True)
    with tracer.span("bench.job"):
        with tracer.span("verifier.a"):
            pass
        with tracer.span("verifier.b"):
            pass
    job, a, b = tracer.spans
    assert a.parent == job.id and b.parent == job.id
    selfs = self_times(tracer.spans)
    assert selfs[job.id] == pytest.approx(job.duration - a.duration - b.duration)
    assert selfs[a.id] == a.duration


def test_quantiles_and_line_counts():
    assert nearest_rank(list(range(1, 101)), 0.9) == 90
    assert nearest_rank([3.0, 1.0, 2.0], 0.9) == 3.0
    assert lines_scanned(5, 2, 5) == 30
    assert lines_scanned(5, 2, 4) == 120


def test_benchmark_json_names_every_metric_the_runs_print():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    e2e, _ = end_to_end_metrics([1.0], [0.5, 1.5], [0.1], 10.0)
    layers = layer_metrics([], [], generator_s=0.0, overhead_frac=0.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layers.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

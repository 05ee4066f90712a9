"""Benchmark for linefree: one workload per run, outputs checked against pins.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 40 --trace 0

The library is imported from ``src/`` of the same checkout.  With
``--trace 0`` the run sets up, then repeats passes over the workload's job
list while another pass fits in ``--seconds`` (always at least one), and
prints the end-to-end metrics.  With ``--trace 1`` it runs one untraced
and one traced pass and prints the per-layer metrics; the spans are
written to ``.bench_out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

# One BLAS thread: the library's own search workers are the only parallelism.
# Set before numpy is first imported (also by the benchmark modules below).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from metrics import end_to_end_metrics, layer_metrics  # noqa: E402
from tracing import Client, Tracer  # noqa: E402
from workloads import CLI_DIR, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
LAYERS = ("geometry", "pointset", "constructions", "verifier", "bounds", "certify", "search", "cli")
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 25, 3.0
MAX_THREADS = 2


@dataclass
class PassResult:
    wall_s: float  # time of the pass, output checks excluded
    job_s: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def drop_library() -> None:
    """Forget any imported linefree modules, so their caches are freed."""
    for name in [m for m in sys.modules if m == "linefree" or m.startswith("linefree.")]:
        del sys.modules[name]
    gc.collect()


def import_library() -> SimpleNamespace:
    """Import linefree from this checkout's src/."""
    lib = SimpleNamespace(**{name: importlib.import_module(f"linefree.{name}") for name in LAYERS})
    where = Path(lib.geometry.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"linefree was imported from {where}, not from {ROOT / 'src'}")
    return lib


def set_up(workload, tracer: Tracer) -> tuple[float, Client]:
    """Import linefree afresh and make the workload's warm-up calls.

    Returns the seconds taken and a client on the fresh library that knows
    which spaces' line tables the library keeps.
    """
    drop_library()
    t0 = time.perf_counter()
    lib = import_library()
    with tracer.span("bench.setup"):
        cached = workload.warm(Client(lib, tracer))
    return time.perf_counter() - t0, Client(lib, tracer, cached)


def run_pass(workload, plan, client: Client) -> PassResult:
    """Run every job of one pass in order, timing each and checking its output."""
    res = PassResult(wall_s=0.0)
    check_s = 0.0
    t0 = time.perf_counter()
    with client.tracer.span("bench.pass", workload=workload.name):
        for job in workload.jobs(plan):
            error = None
            with client.tracer.span("bench.job", job=job.name):
                j0 = time.perf_counter()
                try:
                    job.outcome = job.run(client)
                except Exception as exc:  # a failing job is counted, the run goes on
                    error = f"raised {type(exc).__name__}: {exc}"
                res.job_s.append(time.perf_counter() - j0)
            c0 = time.perf_counter()
            if error is None:
                try:
                    error = job.check(job.outcome)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            check_s += time.perf_counter() - c0
            if error is not None:
                res.errors.append(f"{job.name}: {error}")
    res.wall_s = time.perf_counter() - t0 - check_s
    # Free the pass's garbage before the next one, untimed: otherwise the
    # cycles it leaves raise peak memory with every further pass.
    gc.collect()
    return res


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "linefree" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no linefree sources under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)

    workload = WORKLOADS[args.workload]
    threads = min(MAX_THREADS, os.cpu_count() or 1)
    trace = args.trace == 1
    tracer = Tracer(enabled=trace)

    # An untraced run sets up at least SETUP_MIN times and, while set-up is
    # cheap, up to SETUP_MAX times; a traced run sets up once, traced.
    setups: list[float] = []
    if trace:
        _, client = set_up(workload, tracer)
    else:
        while len(setups) < SETUP_MIN or (len(setups) < SETUP_MAX and sum(setups) < SETUP_SECONDS):
            client = None  # drop the previous import so its caches can be freed
            seconds, client = set_up(workload, tracer)
            setups.append(seconds)
    setup_spans = list(tracer.spans)

    g0 = time.perf_counter()
    plan = workload.plan(args.seed, threads, trace)
    generator_s = time.perf_counter() - g0

    passes: list[PassResult] = []
    try:
        if trace:
            quiet = Client(client.lib, Tracer(enabled=False), client.cached_spaces)
            untraced = run_pass(workload, plan, quiet)
            n0 = len(tracer.spans)
            traced = run_pass(workload, plan, client)
            passes = [untraced, traced]
        else:
            start = time.perf_counter()
            while True:
                passes.append(run_pass(workload, plan, client))
                elapsed = time.perf_counter() - start
                if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                    break  # another pass of average length would not fit
    finally:
        shutil.rmtree(CLI_DIR, ignore_errors=True)

    attempted = sum(len(p.job_s) for p in passes)
    errors = [e for p in passes for e in p.errors]
    for e in errors:
        sys.stderr.write(f"perfbench: FAILED {e}\n")

    if trace:
        overhead = traced.wall_s / untraced.wall_s - 1
        metrics = layer_metrics(
            setup_spans, tracer.spans[n0:], generator_s=generator_s, overhead_frac=overhead
        )
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(spans_path)
        notes = {"trace.overhead_frac": f"traced pass {traced.wall_s:.3f} s / untraced {untraced.wall_s:.3f} s - 1"}
        print(f"spans: {spans_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    else:
        metrics, notes = end_to_end_metrics(
            [p.wall_s for p in passes], [t for p in passes for t in p.job_s], setups, peak_rss_mb()
        )

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} threads={threads}")
    for name, (value, unit) in metrics.items():
        shown = f"{value:<14d}" if isinstance(value, int) else f"{value:<14.6g}"
        print(f"  {name:28s} {shown} {unit:8s} {notes.get(name, '')}")
    print(f"  {'failed_frac':28s} {len(errors) / attempted:<14.6g} {'frac':8s} {len(errors)} of {attempted} jobs")
    print("machine: " + json.dumps(machine()))
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())

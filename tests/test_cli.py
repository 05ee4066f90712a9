"""Command-line interface: grammar, exit codes, JSON envelopes, determinism."""

from __future__ import annotations

import hashlib
import json
import pathlib
import re
import subprocess
import sys
import tracemalloc

import pytest

from linefree.bounds import catalogue
from linefree.cli import dispatch
from linefree.geometry import ResourceBudgetError
from linefree.pointset import render_grid
from linefree.search import max_free_exact

CLI = [sys.executable, "-m", "linefree.cli"]


def run(*args, expect=0):
    proc = subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == expect, (args, proc.returncode, proc.stderr, proc.stdout)
    return proc


def run_json(*args, expect=0):
    proc = run(*args, "--json", expect=expect)
    doc = json.loads(proc.stdout)
    assert doc["version"] == "0.1.0"
    assert doc["schema"] == "v1"
    return doc


# --- selftests ----------------------------------------------------------------


@pytest.mark.parametrize(
    "cmd",
    ["construct", "verify", "search", "bounds", "certify", "rate", "product", "render"],
)
def test_selftest_per_subcommand(cmd):
    proc = run(cmd, "--selftest")
    assert "selftest" in proc.stdout and "ok" in proc.stdout


# --- construct / verify round trip ----------------------------------------------


def test_construct_verify_roundtrip(tmp_path):
    grid = tmp_path / "qr7.grid"
    run("construct", "--family", "qr", "-p", "7", "-o", str(grid))
    text = grid.read_text()
    assert text.startswith("linefree-grid v1")
    proc = run("verify", "-k", "7", str(grid))
    assert "free" in proc.stdout
    doc = run_json("verify", "-k", "7", str(grid))
    assert doc["size"] == 225
    assert doc["free"] is True


def test_construct_writes_stdout_by_default():
    proc = run("construct", "--family", "hypercube", "-p", "5", "-n", "2")
    assert "linefree-grid v1" in proc.stdout
    assert proc.stdout.count("X") == 16


def test_verify_detects_progression(tmp_path):
    grid = tmp_path / "full.grid"
    run("construct", "--family", "hypercube", "-p", "3", "-n", "2", "-o", str(grid))
    # Make the set the full plane by rewriting the rows.
    text = grid.read_text().replace(".", "X")
    grid.write_text(text)
    doc = run_json("verify", "-k", "3", str(grid), expect=1)
    assert doc["free"] is False
    assert "witness" in doc


def test_verify_missing_file_is_usage_error():
    run("verify", "-k", "5", "/nonexistent/x.grid", expect=2)


def test_construct_unknown_family_is_usage_error():
    run("construct", "--family", "mystery", "-p", "5", expect=2)


def test_construct_invalid_parameter_is_usage_error():
    proc = run("construct", "--family", "qr", "-p", "5", expect=2)  # needs p = 7 mod 24
    assert proc.stderr == "linefree construct: the qr construction does not apply at p=5, n=3\n"
    proc = run("construct", "--family", "fig70", "-p", "9", expect=2)
    assert proc.stderr == "linefree construct: p must be an odd prime, got 9\n"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [3, 5, 7, 11, 31])
@pytest.mark.parametrize("family", ["hypercube", "layered", "sqrt", "qr", "fig70"])
def test_construct_builds_exactly_what_the_catalogue_lists(family, p, n, capsys):
    listed = [c for c in catalogue(p, n) if c.label.partition("(")[0] == family]
    code = dispatch(["construct", "--family", family, "-p", str(p), "-n", str(n)])
    out, err = capsys.readouterr()
    if listed:
        assert (code, err) == (0, "")
        assert out == render_grid(listed[0].build(), p)
    else:
        want = f"linefree construct: the {family} construction does not apply at p={p}, n={n}\n"
        assert (code, out, err) == (2, "", want)


# --- search ----------------------------------------------------------------------


def test_search_finds_plane_optimum():
    doc = run_json("search", "-p", "5", "-n", "2", "-k", "5")
    assert doc["size"] == 16
    assert doc["optimal"] is True
    assert "nodes" not in doc
    assert "elapsed" not in doc


def test_search_json_is_byte_identical_across_runs():
    a = run("search", "-p", "5", "-n", "2", "-k", "4", "--json")
    b = run("search", "-p", "5", "-n", "2", "-k", "4", "--json")
    assert a.stdout == b.stdout


def test_search_timing_flag_adds_counters():
    counters = {"elapsed", "nodes", "line_updates"}
    counters |= {f"{rule}_prunes" for rule in ("bound", "degree", "frame", "orbit")}
    doc = run_json("search", "-p", "3", "-n", "2", "-k", "3", "--timing")
    assert counters <= set(doc)
    assert not counters & set(run_json("search", "-p", "3", "-n", "2", "-k", "3"))
    text = run("search", "-p", "5", "-n", "2", "-k", "4", "--timing").stdout
    assert "nodes: " in text and "by the size bound" in text and "scaling orbits" in text
    assert "by the degree bound" in text
    assert "line updates: " in text


def test_search_runs_the_framed_search():
    # the serial framed proof of r_7(F_7^2) = 36 and its pinned counts
    doc = run_json("search", "-p", "7", "-n", "2", "-k", "7", "--timing")
    assert (doc["size"], doc["optimal"], doc["nodes"]) == (36, True, 5_170)
    prunes = ("bound_prunes", "degree_prunes", "frame_prunes", "orbit_prunes")
    assert tuple(doc[key] for key in prunes) == (193, 1_529, 1_529, 99)


def test_search_node_budget_exhaustion_exit_code():
    proc = run("search", "-p", "5", "-n", "2", "-k", "5", "--budget", "10", expect=4)
    assert "16" in proc.stdout  # incumbent still reported


def test_search_time_budget_suffix():
    run("search", "-p", "3", "-n", "2", "-k", "3", "--budget", "60s")
    run("search", "-p", "3", "-n", "2", "-k", "3", "--budget", "1m")


def test_search_bad_budget_is_usage_error():
    run("search", "-p", "3", "-n", "2", "-k", "3", "--budget", "soon", expect=2)
    # a NaN deadline never passes, so the search would run without a time limit
    proc = run("search", "-p", "3", "-n", "2", "-k", "3", "--budget", "nans", expect=2)
    assert "budget must be positive" in proc.stderr


def test_search_warm_start(tmp_path):
    warm = tmp_path / "warm.grid"
    run("construct", "--family", "hypercube", "-p", "5", "-n", "2", "-o", str(warm))
    doc = run_json("search", "-p", "5", "-n", "2", "-k", "5", "--warm", str(warm))
    assert doc["size"] == 16
    # the grid that search prints, one-dimensional too, is a warm start
    out = run("search", "-p", "5", "-n", "1", "-k", "5").stdout
    warm.write_text(out[out.index("linefree-grid v1") :])
    assert run_json("search", "-p", "5", "-n", "1", "-k", "5", "--warm", str(warm))["size"] == 4


# --- bounds / certify / rate -------------------------------------------------------


def test_bounds_report_json():
    doc = run_json("bounds", "-p", "5", "-n", "3")
    assert doc["interval"] == [70, 73]
    assert doc["lower"]["reference-set"] == 70
    assert doc["upper"]["certified"] == 73


def test_bounds_report_json_p7():
    doc = run_json("bounds", "-p", "7", "-n", "3")
    assert doc["interval"] == [225, 242]
    assert doc["upper"]["certified"] == 242


def test_bounds_text_output_is_stamped():
    proc = run("bounds", "-p", "5", "-n", "2")
    assert proc.stdout.startswith("# linefree 0.1.0")


def test_certify_infeasible_exit_zero():
    doc = run_json("certify", "-p", "5", "--target", "74")
    assert doc["verdict"] == "INFEASIBLE"
    assert doc["candidate_count"] == 11


def test_certify_unknown_exit_three():
    doc = run_json("certify", "-p", "5", "--target", "73", expect=3)
    assert doc["verdict"] == "UNKNOWN"


def test_certify_paper_faithful_flag():
    doc = run_json("certify", "-p", "5", "--target", "74", "--paper-faithful")
    assert doc["verdict"] == "INFEASIBLE"
    assert doc["rich_caps"]["14"] == 14


def test_rate_from_size():
    proc = run("rate", "--size", "70", "--dim", "3")
    assert "4.121" in proc.stdout
    doc = run_json("rate", "--size", "225", "--dim", "3")
    assert doc["display"] == "6.082"


def test_rate_fgr():
    proc = run("rate", "--fgr", "-p", "5")
    assert "4.090" in proc.stdout
    # p * (p - 1)^(2p - 1) * 1000^(2p) passes 2^1024 from p = 37 on
    assert run_json("rate", "--fgr", "-p", "37")["display"] == "36.013"


def test_rate_requires_one_mode():
    run("rate", expect=2)


# --- product / render ----------------------------------------------------------------


def test_product_concatenates_grids(tmp_path):
    a = tmp_path / "a.grid"
    b = tmp_path / "b.grid"
    c = tmp_path / "c.grid"
    run("construct", "--family", "hypercube", "-p", "3", "-n", "2", "-o", str(a))
    run("construct", "--family", "hypercube", "-p", "3", "-n", "2", "-o", str(b))
    run("product", str(a), str(b), "-o", str(c))
    text = c.read_text()
    assert "p=3 n=4 k=3" in text
    assert text.count("X") == 16
    doc = run_json("verify", "-k", "3", str(c))
    assert doc["free"] is True


def test_product_header_keeps_larger_k(tmp_path):
    # A factor that is only guaranteed 5-free may still contain shorter
    # progressions, so the product's header must carry max(kA, kB).
    from linefree.constructions import box, hypercube

    a = tmp_path / "a.grid"
    b = tmp_path / "b.grid"
    c = tmp_path / "c.grid"
    a.write_text(render_grid(hypercube(5, 2), 5))
    b.write_text(render_grid(box(5, 2, 3), 4))
    run("product", str(a), str(b), "-o", str(c))
    assert "p=5 n=4 k=5" in c.read_text()
    doc = run_json("verify", "-k", "5", str(c))
    assert doc["free"] is True


def test_render_text_and_tikz(tmp_path):
    grid = tmp_path / "s.grid"
    run("construct", "--family", "hypercube", "-p", "3", "-n", "2", "-o", str(grid))
    plain = run("render", str(grid))
    assert plain.stdout.count("X") == 4
    tikz = run("render", str(grid), "--tikz")
    assert "\\begin{tikzpicture}" in tikz.stdout
    assert "\\documentclass" in tikz.stdout
    # n = 1 draws its one block as a single row of p cells
    run("construct", "--family", "hypercube", "-p", "5", "-n", "1", "-o", str(grid))
    tikz = run("render", str(grid), "--tikz").stdout
    assert "grid (5,1);" in tikz and tikz.count("\\fill") == 4


def test_tikz_output_is_pinned(tmp_path):
    grid = tmp_path / "fig70.grid"
    run("construct", "--family", "fig70", "-p", "5", "-o", str(grid))
    tikz = run("render", str(grid), "--tikz").stdout
    assert hashlib.sha256(tikz.encode()).hexdigest() == (
        "83263b3508007bae4e040914a80a56ac93352e2dfdf5ece3f3320269da3afd7d"
    )


def test_search_over_table_budget_exits_two():
    # rejected before any table is built, with one line instead of a traceback
    proc = run("search", "-p", "5", "-n", "6", "-k", "5", expect=2)
    assert proc.stderr.count("\n") == 1
    assert "over the budget" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("p, n, k", [(5, 6, 5), (3, 10, 3)])
def test_max_free_exact_over_table_budget_allocates_nothing(p, n, k):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError):
            max_free_exact(p, n, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# --- global behavior --------------------------------------------------------------


def test_no_arguments_shows_usage():
    run(expect=2)


def test_unknown_subcommand_is_usage_error():
    run("frobnicate", expect=2)


def test_threads_flag_does_not_change_answer():
    a = run("search", "-p", "5", "-n", "2", "-k", "4", "--json")
    b = run("search", "-p", "5", "-n", "2", "-k", "4", "--threads", "2", "--json")
    assert json.loads(a.stdout)["points"] == json.loads(b.stdout)["points"]


# --threads and --timing belong to search alone, and render takes no --json:
# each is refused where no handler reads it.
@pytest.mark.parametrize(
    "args",
    [
        ("certify", "-p", "5", "--target", "74", "--threads", "2"),
        ("bounds", "-p", "5", "-n", "3", "--threads", "2"),
        ("rate", "--size", "70", "--dim", "3", "--threads", "2"),
        ("verify", "-k", "5", "missing.grid", "--threads", "2"),
        ("construct", "--family", "hypercube", "-p", "5", "--timing"),
        ("verify", "-k", "5", "missing.grid", "--timing"),
        ("bounds", "-p", "5", "-n", "3", "--timing"),
        ("certify", "-p", "5", "--target", "74", "--timing"),
        ("rate", "--size", "70", "--dim", "3", "--timing"),
        ("product", "a.grid", "b.grid", "--timing"),
        ("render", "missing.grid", "--timing"),
        ("render", "missing.grid", "--json"),
    ],
)
def test_threads_flag_belongs_to_search_only(args):
    flag = next(a for a in reversed(args) if a.startswith("--"))
    proc = run(*args, expect=2)
    assert f"unrecognized arguments: {flag}" in proc.stderr


# --- output pins ----------------------------------------------------------------------
# sha256 of [exit code, stdout, stderr, the -o file or None] per invocation, run
# in-process from a directory holding fig70.grid (free), full.grid (the full
# F_3^2, which holds 3-progressions) and cube.grid (the hypercube in F_3^2).
# Wall-clock fields are masked.

_FAMILY_ARGS = {
    "hypercube": "-p 5 -n 2",
    "layered": "-p 5 -n 3",
    "sqrt": "-p 5",
    "qr": "-p 7",
    "fig70": "-p 5",
}
_PINNED = [
    *(
        f"construct --family {fam} {args}{extra}"
        for fam, args in _FAMILY_ARGS.items()
        for extra in ("", " --json", " -o out.grid", " --json -o out.grid")
    ),
    "verify -k 5 fig70.grid",
    "verify -k 5 fig70.grid --json",
    "verify -k 3 full.grid",
    "verify -k 3 full.grid --json",
    "search -p 5 -n 2 -k 5",
    "search -p 5 -n 2 -k 5 --json",
    "search -p 5 -n 2 -k 5 --timing",
    "search -p 5 -n 2 -k 5 --json --timing",
    "search -p 5 -n 1 -k 5",
    "bounds -p 5 -n 3",
    "bounds -p 7 -n 3 --json",
    "certify -p 5 --target 74",
    "certify -p 5 --target 74 --paper-faithful",
    "rate --size 70 --dim 3",
    "rate --fgr -p 5",
    "rate",
    "product cube.grid cube.grid",
    "render fig70.grid",
    "render fig70.grid --tikz",
    "construct",
    "construct --family qr",
    "verify",
    "verify fig70.grid",
    "search -p 5",
    "bounds -n 3",
    "certify",
    "product cube.grid",
    "render",
]
_ELAPSED = re.compile(r'(elapsed"?: )[0-9.e+-]+')
CLI_PINS = {
    "construct --family hypercube -p 5 -n 2": "a474169b9b4090c8c24bf0c6f5ef84bcad23f28537b107983feadcaf27550e54",
    "construct --family hypercube -p 5 -n 2 --json": "3160518f80a48edb20d8d43b1398e1a8eb9e4d3eb5145cb8c6e155d9bfe6f81a",
    "construct --family hypercube -p 5 -n 2 -o out.grid": "62f49eea0d0576a052fa7cd2ad0389d4b3e62373dd490e5fbdcfb7fd5202c51d",
    "construct --family hypercube -p 5 -n 2 --json -o out.grid": "39d69945a26bf0e4f6f43b64619eb3a5bb9e7d65660d0b50e23f060b95949ed2",
    "construct --family layered -p 5 -n 3": "6431cf817988c176dbcf3d2090b7f68f81945cae6e3849189f7712e7eb83cf4b",
    "construct --family layered -p 5 -n 3 --json": "7c8ec9fc4f48a4408be9708d581b52102e59f989cdfef0b3bcb62f3677f8426c",
    "construct --family layered -p 5 -n 3 -o out.grid": "674d45e8587a75cca2e5ce5b8f858b9a19d2696d18fff02e56c92797df91b824",
    "construct --family layered -p 5 -n 3 --json -o out.grid": "4acff2165bc5fc1e07514d6fe91ee2c5c93dca9ca630ac609bff00dfe173da2d",
    "construct --family sqrt -p 5": "1b379fc4671b177adf5429b919526354a3d218379e909f69ec186f14e06bc1c4",
    "construct --family sqrt -p 5 --json": "ff2c4578e3cd41616ff47cf43d46ea7a4818d1c10ad41836a50a8ae30142a564",
    "construct --family sqrt -p 5 -o out.grid": "7b72cde5c2cd0ede232c1dcf19a674c16a7a15dcc34283890eb9c5a8bb1600f3",
    "construct --family sqrt -p 5 --json -o out.grid": "b967a13723ad591c7d626b0a592275cab1f7e09cf4e3ee9eb9a0a706bbac5a21",
    "construct --family qr -p 7": "fb35524b26fd7dfdd649a8cce104477765341e0d2fc4928331b217d0c7754a6a",
    "construct --family qr -p 7 --json": "6bc9f06a9eaba0e9b68cfd925fbc3172c61dce8c87b376c922287cd9a878def5",
    "construct --family qr -p 7 -o out.grid": "4d67bd28c71cac56b3399e81111dc64df3c5c5614f58cf8a4507f2e011554437",
    "construct --family qr -p 7 --json -o out.grid": "019986d0887b0788c470de2854f9f889b711e72e439c341b8a89dcb8398fd232",
    "construct --family fig70 -p 5": "0a87e69cdfa4f94d3cd634d9cc84fe5116428bf939caeaf797f8f8825083bc9e",
    "construct --family fig70 -p 5 --json": "6b15184314bfb070cbd575a893a831026542a6515917598dab9079cc92ade15b",
    "construct --family fig70 -p 5 -o out.grid": "c335610f40b29580c3cc2673131bd712cd10bb83cfc274a79da7e3f0a469d4a4",
    "construct --family fig70 -p 5 --json -o out.grid": "c6d04c2f4e2095f6df09f29b67169d42b2e774478ad56235820a1368e6651178",
    "verify -k 5 fig70.grid": "5f7504b26336ab00d09a40c5a5e4966caa5dd317af3cee89a21d86ce87fa74a8",
    "verify -k 5 fig70.grid --json": "2e1972484d65644451d33513c21d40348a993b68cbf07b6b6b8e9fba23045d32",
    "verify -k 3 full.grid": "c618d36167c7dd860d3a53d58487781f4335cd22a61604a924937dfa08fbe31e",
    "verify -k 3 full.grid --json": "fc131bf879f357e872426ed73c24509cb3c61fe29431d554495bb16fde57a722",
    "search -p 5 -n 2 -k 5": "09801556e376ca00b1a7c17836d406f2eb49afcbc0beceb4bf7496bdc3618d6f",
    "search -p 5 -n 2 -k 5 --json": "89efed17e4445bf97ee1d3fab98ea34b296477372feda81e1acd232894e36fd4",
    "search -p 5 -n 2 -k 5 --timing": "ec3fe225ebc7860fc483610e583fa2c852b113f7ed89e4401323a218655c2bc8",
    "search -p 5 -n 2 -k 5 --json --timing": "88d0466af58f6d3175ca4b328ea65d72b27631bab90187b3fccec01993203b8f",
    "search -p 5 -n 1 -k 5": "1c62201f1f50ecd6f8dc6a7943a97a17d15c679d2e6e3182715039a97f3c7971",
    "bounds -p 5 -n 3": "2c5ba0c9d59897748b570adf79a4150a3f75959f321164f9e465106a84bd8554",
    "bounds -p 7 -n 3 --json": "e66780c0f1480856e875504c32c1251d9de6a175f01f7ca8191706ea2a290f80",
    "certify -p 5 --target 74": "c5b76a90781068b102b72915759de81f3df1331154763d29854c136ffe04e442",
    "certify -p 5 --target 74 --paper-faithful": "d2704bbe99e3e189e37b7daaa876083ac068754dbe13b812ecc3eaa14f2d4fc2",
    "rate --size 70 --dim 3": "34e87fa1168d12113fc60bed0da27f2b49e000488fd01c75b68358a23ccec5ba",
    "rate --fgr -p 5": "3993271b46e91e4fa67f3a0efeb9f9b2fef2a6c99dedd1e5cadb11d9d8a6ce7e",
    "rate": "44d64222a7b02e54e72f36d3a9466d126ce302409e9f936f09a26d834b4c1e7a",
    "product cube.grid cube.grid": "4c766fb5c6b038c1be343f4edaad5691115ddddd02315d4a95aa1905ec9e8a4a",
    "render fig70.grid": "0a87e69cdfa4f94d3cd634d9cc84fe5116428bf939caeaf797f8f8825083bc9e",
    "render fig70.grid --tikz": "6327a4b1dc3b600024e507030965c9ed17c792cf03a0978594cfb21acbe43243",
    "construct": "bc5ad657898901623d1b1694aee22d43dd1a6c71cafad9e46a3a1f74bb639a83",
    "construct --family qr": "a89530e7748181713863c29812399a127185a3df6334b1a3472dae2ea38db138",
    "verify": "6dc6fc45aa90f308ccd27f5e8cf0750893b160173b3391eafb45a5b7c90f4302",
    "verify fig70.grid": "9a07193e295361a3dc0e38c154c7272fbc29fb87dfb52dcd5d924b51c5222f51",
    "search -p 5": "f47e114d22837cf1144ab0b6f4563134a58b6eda875a9b261f7c3ee56203fa60",
    "bounds -n 3": "7d309d6dfb7a16f46dea1be18a7f90598999efd7843cf75295fcaf9b9b8e3cdd",
    "certify": "940b7207a7d983dbaeada4cae3f31cd4eab99de9a7bfd536db41653aadfe803c",
    "product cube.grid": "f6c0d805f72840133cc998835ace22c1e635a1cd14320c9db06ed922cee7c390",
    "render": "19abb68a70f9bc9d3c4e48797068d5df014d4e5bcebfcbb4b64c522669ee0079",
}


@pytest.fixture(scope="module")
def pin_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("pins")
    assert dispatch(["construct", "--family", "fig70", "-p", "5", "-o", str(d / "fig70.grid")]) == 0
    cube = ["construct", "--family", "hypercube", "-p", "3", "-n", "2", "-o", str(d / "cube.grid")]
    assert dispatch(cube) == 0
    (d / "full.grid").write_text((d / "cube.grid").read_text().replace(".", "X"))
    return d


def _pin_digest(argv: str, capsys) -> str:
    out = pathlib.Path("out.grid")
    out.unlink(missing_ok=True)
    capsys.readouterr()
    code = dispatch(argv.split())
    captured = capsys.readouterr()
    written = out.read_text() if out.exists() else None
    doc = [code, _ELAPSED.sub(r"\1*", captured.out), captured.err, written]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


@pytest.mark.parametrize("argv", _PINNED)
def test_cli_output_is_pinned(argv, pin_dir, capsys, monkeypatch):
    monkeypatch.chdir(pin_dir)
    assert _pin_digest(argv, capsys) == CLI_PINS[argv]

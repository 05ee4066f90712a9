"""Command-line interface.

One binary, eight subcommands: construct, verify, search, bounds,
certify, rate, product, render.  Default output is deterministic
aligned text (byte-identical across identical invocations); --json
emits the module's JSON schema; --timing opts into wall-clock fields.

Exit codes: 0 success/verified/optimal; 1 a progression was found;
2 usage error or a request over a memory budget; 3 certificate verdict
UNKNOWN; 4 search budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .bounds import alpha_from_set, alpha_fgr, bounds_report, upper_recursive, upper_simple
from .certify import INFEASIBLE, UNKNOWN, make_instance, prove_infeasible
from .constructions import (
    box,
    hypercube,
    layered,
    load_reference_set,
    qr_construction,
    sqrt_construction,
)
from .geometry import ResourceBudgetError, SpaceSpec
from .pointset import (
    GridFormatError,
    PointSet,
    grid_blocks,
    parse_grid_document,
    product as set_product,
    render_grid,
)
from .search import SearchConfig, brute_force_oracle, max_free_exact
from .verifier import find_progression, verification_report

EXIT_OK = 0
EXIT_PROGRESSION = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3
EXIT_BUDGET = 4

SCHEMA = "v1"
_STAMP = f"# linefree {__version__}"

_FAMILIES = ("hypercube", "layered", "sqrt", "qr", "fig70")


class _UsageError(Exception):
    pass


def _emit_json(payload: dict) -> None:
    doc = {"version": __version__, "schema": SCHEMA}
    doc.update(payload)
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _read_grid(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_grid_document(fh.read())
    except OSError as e:
        raise _UsageError(f"cannot read {path}: {e.strerror}") from e
    except GridFormatError as e:
        raise _UsageError(f"{path}: {e}") from e


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_grid(args, text: str, payload: dict) -> None:
    """Write the grid to -o or stdout; with --json, stdout gets the payload instead."""
    if args.json:
        _emit_json({**payload, "output": args.output})
        if args.output is None:
            return
    _write_text(args.output, text)


# ---------------------------------------------------------------------------
# construct


def _build_family(family: str, p: int, n: int | None) -> PointSet:
    if family == "hypercube":
        return hypercube(p, 3 if n is None else n)
    if family == "layered":
        return layered(p, 3 if n is None else n)
    if family in ("sqrt", "qr", "fig70") and n not in (None, 3):
        raise _UsageError(f"family {family} is three-dimensional; drop -n or use -n 3")
    if family == "sqrt":
        return sqrt_construction(p)
    if family == "qr":
        return qr_construction(p)
    if family == "fig70":
        if p != 5:
            raise _UsageError("family fig70 requires -p 5")
        return load_reference_set("fig70")
    raise _UsageError(f"unknown family {family!r}")


def cmd_construct(args) -> int:
    s = _build_family(args.family, args.p, args.n)
    payload = {"command": "construct", "family": args.family, "p": s.space.p, "n": s.space.n}
    _emit_grid(args, render_grid(s, s.space.p), {**payload, "size": s.size})
    return EXIT_OK


def _selftest_construct() -> None:
    s = hypercube(3, 2)
    assert s.size == 4 and find_progression(s, 3) is None
    assert box(3, 2, 2) == s


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    doc = _read_grid(args.file)
    s = doc.pointset
    k = args.k
    report = verification_report(s, k)
    if args.json:
        _emit_json({"command": "verify", "file": args.file, **report})
    else:
        out = [
            _STAMP,
            f"file: {args.file}",
            f"p: {report['p']}  n: {report['n']}  k: {k}",
            f"size: {report['size']}",
            f"verdict: {'free' if report['free'] else 'progression found'}",
        ]
        if not report["free"]:
            w = report["witness"]
            out.append(f"witness base: {tuple(w['base'])}")
            out.append(f"witness step: {tuple(w['dir'])}")
        sys.stdout.write("\n".join(out) + "\n")
    return EXIT_OK if report["free"] else EXIT_PROGRESSION


def _selftest_verify() -> None:
    space = SpaceSpec(3, 2)
    full = PointSet.full(space)
    assert find_progression(full, 3) is not None
    assert find_progression(box(3, 2, 2), 3) is None


# ---------------------------------------------------------------------------
# search


def _parse_budget(text: str) -> dict:
    """'60s'/'5m'/'2h' set a time budget; a bare integer caps nodes."""
    suffixes = {"s": 1.0, "m": 60.0, "h": 3600.0}
    if text and text[-1] in suffixes:
        try:
            value = float(text[:-1])
        except ValueError:
            raise _UsageError(f"bad budget {text!r}") from None
        if value <= 0:
            raise _UsageError("budget must be positive")
        return {"time_budget": value * suffixes[text[-1]]}
    try:
        nodes = int(text)
    except ValueError:
        raise _UsageError(
            f"bad budget {text!r}: use an integer node count or a duration like 60s"
        ) from None
    if nodes <= 0:
        raise _UsageError("budget must be positive")
    return {"node_budget": nodes}


def cmd_search(args) -> int:
    overrides: dict = {}
    if args.budget is not None:
        overrides.update(_parse_budget(args.budget))
    if args.warm is not None:
        overrides["warm"] = _read_grid(args.warm).pointset
    if args.threads is not None:
        overrides["threads"] = args.threads
    cfg = SearchConfig(fix_translation=True, **overrides)
    res = max_free_exact(args.p, args.n, args.k, cfg)
    if args.json:
        payload = res.to_dict()
        if not args.timing:
            for key in ("elapsed", "nodes", "bound_prunes", "frame_prunes", "orbit_prunes", "line_updates"):
                del payload[key]
        _emit_json({"command": "search", **payload})
    else:
        out = [
            _STAMP,
            f"max {args.k}-progression-free size in F_{args.p}^{args.n}: {res.size}",
            f"optimal: {'yes' if res.optimal else 'no (budget exhausted)'}",
        ]
        if args.timing:
            out.append(f"nodes: {res.nodes}")
            out.append(
                f"prunes: {res.bound_prunes} by the size bound, {res.frame_prunes} by the frame, "
                f"{res.orbit_prunes} by the frame's scaling orbits"
            )
            out.append(f"line updates: {res.line_updates}")
            out.append(f"elapsed: {res.elapsed:.3f}s")
        sys.stdout.write("\n".join(out) + "\n")
        if res.space.n >= 2:
            sys.stdout.write(render_grid(res.best, args.k))
        else:
            pts = ",".join(str(int(i)) for i in res.best.indices())
            sys.stdout.write(f"set: {{{pts}}}\n")
    return EXIT_OK if res.optimal else EXIT_BUDGET


def _selftest_search() -> None:
    assert brute_force_oracle(3, 1, 3) == 2
    assert max_free_exact(3, 1, 3).size == 2
    assert max_free_exact(3, 2, 3).size == brute_force_oracle(3, 2, 3) == 4


# ---------------------------------------------------------------------------
# bounds


def cmd_bounds(args) -> int:
    report = bounds_report(args.p, args.n, args.k)
    if args.json:
        _emit_json({"command": "bounds", **report.to_dict()})
        return EXIT_OK
    k = report.k
    name_w = max(
        [len(n) for n in report.lower] + [len(n) for n in report.upper] + [4]
    )
    out = [_STAMP, f"bounds for r_{k}(F_{report.p}^{report.n})", "lower:"]
    for name, entry in report.lower.items():
        out.append(f"  {name:<{name_w}}  {entry.size:>8}  {entry.note}")
    out.append("upper:")
    for name, value in report.upper.items():
        real = report.upper_real.get(name, "")
        tail = f"  (= floor of {real})" if real else ""
        out.append(f"  {name:<{name_w}}  {value:>8}{tail}")
    out.append(f"interval: [{report.best_lower}, {report.best_upper}]")
    if report.rates:
        out.append("rates:")
        for r in report.rates:
            out.append(f"  {r.name:<{name_w}}  {r.display:>8}  {r.note}")
    for note in report.notes:
        out.append(f"note: {note}")
    sys.stdout.write("\n".join(out) + "\n")
    return EXIT_OK


def _selftest_bounds() -> None:
    assert upper_recursive(3, 2, 3, 4).floor == 9
    assert upper_simple(3, 2) == (5, 4)
    assert alpha_from_set(64, 3).display == "4.000"


# ---------------------------------------------------------------------------
# certify


def cmd_certify(args) -> int:
    inst = make_instance(args.p, args.target)
    cert = prove_infeasible(inst, paper_faithful=args.paper_faithful)
    if args.json:
        _emit_json({"command": "certify", **cert.to_dict()})
    else:
        sys.stdout.write(_STAMP + "\n" + cert.render_text())
    return EXIT_OK if cert.verdict == INFEASIBLE else EXIT_UNKNOWN


def _selftest_certify() -> None:
    cert = prove_infeasible(make_instance(5, 81))
    assert cert.verdict == INFEASIBLE  # pigeonhole: 81 > 5*16


# ---------------------------------------------------------------------------
# rate


def cmd_rate(args) -> int:
    if args.fgr:
        if args.p is None:
            raise _UsageError("--fgr needs -p P")
        rate = alpha_fgr(args.p)
    else:
        if args.size is None or args.dim is None:
            raise _UsageError("rate needs --size S --dim N (or --fgr -p P)")
        rate = alpha_from_set(args.size, args.dim)
    if args.json:
        _emit_json(
            {
                "command": "rate",
                "name": rate.name,
                "display": rate.display,
                "milli": rate.milli,
                "note": rate.note,
            }
        )
    else:
        sys.stdout.write(rate.display + "\n")
    return EXIT_OK


def _selftest_rate() -> None:
    assert alpha_from_set(64, 3).display == "4.000"
    assert alpha_from_set(70, 3).display == "4.121"


# ---------------------------------------------------------------------------
# product


def cmd_product(args) -> int:
    da = _read_grid(args.a)
    db = _read_grid(args.b)
    prod = set_product(da.pointset, db.pointset)
    # max is the safe label: an m-term progression in the product with
    # m = max(kA, kB) would project, along whichever coordinate block has
    # a nonzero step, to a progression of at least that factor's length.
    k = max(da.k, db.k)
    payload = {"command": "product", "p": prod.space.p, "n": prod.space.n, "k": k}
    _emit_grid(args, render_grid(prod, k), {**payload, "size": prod.size})
    return EXIT_OK


def _selftest_product() -> None:
    s = box(3, 2, 2)
    prod = set_product(s, s)
    assert prod.size == 16 and find_progression(prod, 3) is None


# ---------------------------------------------------------------------------
# render


def _tikz_source(s: PointSet) -> str:
    """Standalone TikZ picture, one p x p grid per layer, left to right."""
    p = s.space.p
    out = [
        "\\documentclass[tikz]{standalone}",
        "\\begin{document}",
        "\\begin{tikzpicture}[x=0.35cm,y=0.35cm]",
    ]
    gap = p + 2
    for bi, (label, block) in enumerate(grid_blocks(s)):
        x0 = bi * gap
        out.append(f"\\draw[step=1,gray,very thin] ({x0},0) grid ({x0 + p},{p});")
        for r, c in np.argwhere(block).tolist():
            out.append(
                f"\\fill ({x0 + c}.1,{p - 1 - r}.1) rectangle ({x0 + c}.9,{p - 1 - r}.9);"
            )
        out.append(
            f"\\node[below] at ({x0 + p / 2},-0.3) {{\\footnotesize layer {label}}};"
        )
    out.append("\\end{tikzpicture}")
    out.append("\\end{document}")
    return "\n".join(out) + "\n"


def cmd_render(args) -> int:
    doc = _read_grid(args.file)
    if args.tikz:
        sys.stdout.write(_tikz_source(doc.pointset))
    else:
        sys.stdout.write(render_grid(doc.pointset, doc.k))
    return EXIT_OK


def _selftest_render() -> None:
    s = hypercube(3, 2)
    text = render_grid(s, 3)
    assert parse_grid_document(text).pointset == s
    assert text.count("X") == 4


# ---------------------------------------------------------------------------
# parser and dispatch

_SELFTESTS = {
    "construct": _selftest_construct,
    "verify": _selftest_verify,
    "search": _selftest_search,
    "bounds": _selftest_bounds,
    "certify": _selftest_certify,
    "rate": _selftest_rate,
    "product": _selftest_product,
    "render": _selftest_render,
}

_HANDLERS = {
    "construct": cmd_construct,
    "verify": cmd_verify,
    "search": cmd_search,
    "bounds": cmd_bounds,
    "certify": cmd_certify,
    "rate": cmd_rate,
    "product": cmd_product,
    "render": cmd_render,
}


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--json", action="store_true", help="emit JSON instead of text")
    sp.add_argument("--timing", action="store_true", help="include wall-clock fields")
    sp.add_argument(
        "--selftest",
        action="store_true",
        help="run this subcommand's built-in examples and exit",
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="linefree",
        description="Construct, verify, search, and certify progression-free sets in F_p^n.",
    )
    ap.add_argument("--version", action="version", version=f"linefree {__version__}")
    sub = ap.add_subparsers(dest="command", metavar="SUBCOMMAND")

    sp = sub.add_parser("construct", help="build a named family and emit its grid")
    sp.add_argument("--family", choices=_FAMILIES, default=None)
    sp.add_argument("-p", type=int, default=None)
    sp.add_argument("-n", type=int, default=None)
    sp.add_argument("-o", "--output", metavar="FILE", default=None)
    _add_common(sp)

    sp = sub.add_parser("verify", help="check a grid file for k-term progressions")
    sp.add_argument("-k", type=int, default=None)
    sp.add_argument("file", nargs="?", metavar="FILE")
    _add_common(sp)

    sp = sub.add_parser("search", help="exact maximum by branch and bound")
    sp.add_argument("-p", type=int, default=None)
    sp.add_argument("-n", type=int, default=None)
    sp.add_argument("-k", type=int, default=None)
    sp.add_argument("--budget", metavar="D", default=None, help="node count or 60s/5m/2h")
    sp.add_argument("--warm", metavar="FILE", default=None, help="grid file incumbent")
    sp.add_argument("--threads", type=int, default=None, metavar="N", help="N worker processes")
    _add_common(sp)

    sp = sub.add_parser("bounds", help="lower/upper bound report")
    sp.add_argument("-p", type=int, default=None)
    sp.add_argument("-n", type=int, default=None)
    sp.add_argument("-k", type=int, default=None)
    _add_common(sp)

    sp = sub.add_parser("certify", help="integer-infeasibility certificate for a target size")
    sp.add_argument("-p", type=int, default=None)
    sp.add_argument("--target", type=int, default=None)
    sp.add_argument("--paper-faithful", action="store_true")
    _add_common(sp)

    sp = sub.add_parser("rate", help="growth-rate lower bound from a set size or the closed form")
    sp.add_argument("--size", type=int, default=None)
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--fgr", action="store_true")
    sp.add_argument("-p", type=int, default=None)
    _add_common(sp)

    sp = sub.add_parser("product", help="cartesian product of two grid files")
    sp.add_argument("a", nargs="?", metavar="A.grid")
    sp.add_argument("b", nargs="?", metavar="B.grid")
    sp.add_argument("-o", "--output", metavar="FILE", default=None)
    _add_common(sp)

    sp = sub.add_parser("render", help="re-emit a grid file (or TikZ with --tikz)")
    sp.add_argument("file", nargs="?", metavar="FILE")
    sp.add_argument("--tikz", action="store_true")
    _add_common(sp)

    return ap


_REQUIRED = {
    "construct": ("family", "p"),
    "verify": ("k", "file"),
    "search": ("p", "n", "k"),
    "bounds": ("p", "n"),
    "certify": ("p", "target"),
    "product": ("a", "b"),
    "render": ("file",),
}


def dispatch(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command is None:
        ap.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        if args.selftest:
            _SELFTESTS[args.command]()
            sys.stdout.write(f"selftest {args.command}: ok\n")
            return EXIT_OK
        missing = [n for n in _REQUIRED.get(args.command, ()) if getattr(args, n) is None]
        if missing:
            raise _UsageError(f"missing required flags: {', '.join(missing)}")
        return _HANDLERS[args.command](args)
    except _UsageError as e:
        sys.stderr.write(f"linefree {args.command}: {e}\n")
        return EXIT_USAGE
    except (ValueError, GridFormatError, ResourceBudgetError) as e:
        sys.stderr.write(f"linefree {args.command}: {e}\n")
        return EXIT_USAGE


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()

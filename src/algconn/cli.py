"""Command-line interface.

argparse owns the whole grammar: global flags first, then a command whose
positionals are named and typed per action (`scan max n r`, `transform sign
r k l`, ...), so stray or missing arguments are usage errors.  Every report
is a dict printed by `_emit`: one JSON object per line, one `key: value`
line per field, or csv with one header per stream.  In json mode the
certificates and the supersat report print as indented JSON instead.

Exit codes: 0 all checks passed, 1 a verification found a counterexample,
2 usage, input or numerical errors.  Graph input is a graph6 string, "-"
for stdin (one graph per line, batching allowed), or "@path" for a file.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import bounds as bounds_mod
from . import scan as scan_mod
from . import transforms as transforms_mod
from .cliques import max_clique
from .errors import CounterexampleError, Graph6Error, NumericalError
from .graph6 import parse_graph6, read_codes, read_corpus, write_graph6
from .graphs import (
    TailedCliqueSpec,
    complete,
    complete_multipartite,
    cycle,
    empty,
    is_connected,
    kite,
    path,
    tailed_clique,
    theta_kite,
    turan,
)
from .spectra import BOUND_TOL, eig_sym, laplacian

USAGE_ERROR = 2
COUNTEREXAMPLE = 1

_FAMILIES = {
    "complete": (complete, 1),
    "empty": (empty, 1),
    "path": (path, 1),
    "cycle": (cycle, 1),
    "turan": (turan, 2),
    "kite": (kite, 2),
    "tailed-clique": (tailed_clique, 3),
    "theta-kite": (theta_kite, 2),
    "join-of": (complete_multipartite, None),
}


def _input_graphs(args):
    """Yield graphs from a positional graph6 argument, stdin, or @file."""
    if args.graph == "-":
        yield from read_corpus(getattr(sys.stdin, "buffer", sys.stdin), strict=args.strict_g6)
    elif args.graph.startswith("@"):
        yield from read_corpus(args.graph[1:], strict=args.strict_g6)
    else:
        yield parse_graph6(args.graph, strict=args.strict_g6)


def _emit(reports, fmt: str) -> None:
    """Print each report dict; csv prints a header only where the columns change."""
    header = None
    for report in reports:
        if fmt == "json":
            print(json.dumps(report))
        elif fmt == "csv":
            if list(report) != header:
                header = list(report)
                print(",".join(header))
            print(",".join(_csv_cell(v) for v in report.values()))
        else:
            for key, value in report.items():
                print(f"{key}: {value}")


def _csv_cell(value) -> str:
    # A dict of flags becomes the sorted names of its true entries.
    if isinstance(value, dict):
        return ";".join(sorted(k for k, v in value.items() if v))
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    return "" if value is None else str(value)


def _report(report, fmt: str) -> int:
    """Print a certificate or supersat report; exit 1 if it found a counterexample."""
    if fmt == "json":
        print(report.to_json())
    else:
        _emit([report.to_dict()], fmt)
    return 0 if report.ok else COUNTEREXAMPLE


def cmd_construct(args) -> int:
    builder, arity = _FAMILIES[args.family]
    if arity is not None and len(args.params) != arity:
        print(f"{args.family} takes {arity} parameter(s)", file=sys.stderr)
        return USAGE_ERROR
    print(write_graph6(builder(*args.params)))
    return 0


def _spectrum_report(g, tol: float) -> dict:
    spec = eig_sym(laplacian(g), tol=tol)
    report = {
        "n": g.n,
        "graph6": write_graph6(g),
        "eigenvalues": [round(float(v), 12) for v in spec.eigenvalues],
    }
    if g.n >= 2:
        connected = is_connected(g)
        report["alpha"] = report["eigenvalues"][-2] if connected else 0.0
        if connected:
            fv = spec.fiedler()
            report["fiedler"] = [round(float(v), 12) for v in fv.values]
            report["multiplicity"] = fv.multiplicity
        report["connected"] = connected
    return report


def _bounds_report(g, tol: float) -> dict:
    return bounds_mod.sandwich_report(g, tol).to_dict()


def _clique_report(g, tol: float) -> dict:
    witness = max_clique(g)  # exact: tol has nothing to loosen
    return {"graph6": write_graph6(g), "omega": witness.omega, "vertices": list(witness.vertices)}


def cmd_graphs(args) -> int:
    """spectrum, bounds and clique: one report per input graph."""
    _emit((args.report(g, args.tolerance) for g in _input_graphs(args)), args.format)
    return 0


def cmd_chain(args) -> int:
    rows = transforms_mod.kite_minimality_chain(args.r, args.n)
    _emit(({"r": args.r, "k": k, "l": l, "alpha": alpha} for k, l, alpha in rows), args.format)
    return 0


def cmd_theta(args) -> int:
    alpha_theta, alpha_kite = transforms_mod.theta_vs_kite(args.r, args.k)
    _emit(
        [{"r": args.r, "k": args.k, "alpha_theta": alpha_theta, "alpha_kite": alpha_kite}],
        args.format,
    )
    return 0


def cmd_sign(args) -> int:
    report = asdict(transforms_mod.fiedler_sign_report(TailedCliqueSpec(args.r, args.k, args.l)))
    spec = report.pop("spec")
    _emit([{**spec, **report}], args.format)
    return 0


def cmd_sweep(args) -> int:
    rows = transforms_mod.tailed_clique_sweep(max_total=args.max_total)
    _emit(({"r": r, "k": k, "l": l, "alpha": alpha} for r, k, l, alpha in rows), args.format)
    return 0


def cmd_extremal(args) -> int:
    verify = (scan_mod.verify_max_theorem if args.action == "max"
              else scan_mod.verify_min_theorem)
    common = dict(guard=args.guard, jobs=args.jobs, tol=args.tolerance)
    if args.corpus is None:
        return _report(verify(args.n, args.r, **common), args.format)
    cert = verify(args.n, args.r, corpus=read_codes(args.corpus, strict=args.strict_g6), **common)
    cert.source = f"corpus:{args.corpus}"
    return _report(cert, args.format)


def cmd_trend(args) -> int:
    rows = scan_mod.erdos_stone_trend(args.r, args.n_max)
    _emit(({"n": n, "ratio": str(frac), "value": float(frac)} for n, frac in rows), args.format)
    return 0


def cmd_supersat(args) -> int:
    report = scan_mod.verify_supersaturation(
        args.n, args.r, args.k, args.epsilon, guard=args.guard
    )
    return _report(report, args.format)


def _checked(convert, ok, message: str):
    """An argparse type: convert the text, then reject values failing `ok`."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(message)
        return value

    parse.__name__ = convert.__name__  # argparse names the type in its errors
    return parse


def _action(actions, name: str, func, help_text: str, **params):
    """Add one action whose positionals are `params` (name=type, in order)."""
    p = actions.add_parser(name, help=help_text)
    for param, kind in params.items():
        p.add_argument(param, type=kind)
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algconn",
        description="Algebraic connectivity vs. clique number: constructions, "
        "spectra, bounds, rewrites, and exhaustive verification.",
    )
    parser.add_argument(
        "--tolerance", default=BOUND_TOL,
        type=_checked(float, lambda v: v > 0, "tolerance must be positive"),
        help="slack a checked inequality may miss by before it counts as a failure: "
        "the max/min bound verdicts, the bounds sandwich and degree chain, and the "
        "spectrum residual (relative to the matrix norm); supersat uses the fixed "
        "STRICT_TOL (1e-9) margin",
    )
    parser.add_argument(
        "--guard", default=scan_mod.DEFAULT_GUARD,
        type=_checked(int, lambda v: 1 <= v <= 9, "guard must be between 1 and 9"),
        help="largest order the enumerating scans accept (max 9)",
    )
    parser.add_argument(
        "--jobs", default=None, type=_checked(int, lambda v: v >= 1, "jobs must be >= 1"),
        help="worker threads for the table kernel of scan max|min, enumerated or "
        "corpus (default: machine parallelism); scan supersat does not read it",
    )
    parser.add_argument("--format", choices=("json", "csv", "table"), default="table")
    parser.add_argument("--lenient-g6", dest="strict_g6", action="store_false",
                        help="accept nonzero graph6 padding bits")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a named family member as graph6")
    p.add_argument("family", choices=sorted(_FAMILIES))
    p.add_argument("params", nargs="+", type=int)
    p.set_defaults(func=cmd_construct)

    for name, report, help_text in (
        ("spectrum", _spectrum_report, "Laplacian eigenvalues, alpha, Fiedler vector"),
        ("bounds", _bounds_report, "two-sided clique bounds and the degree chain"),
        ("clique", _clique_report, "exact maximum clique"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("graph", nargs="?", default="-",
                       help="graph6 string, - for stdin, @file for a file")
        p.set_defaults(func=cmd_graphs, report=report)

    transform = sub.add_parser("transform", help="tail-rewrite sweeps and reports")
    actions = transform.add_subparsers(dest="action", required=True)
    _action(actions, "chain", cmd_chain, "two-tail alpha chain vs the kite", r=int, n=int)
    _action(actions, "theta", cmd_theta, "theta-kite vs kite alpha", r=int, k=int)
    _action(actions, "sign", cmd_sign, "Fiedler sign report", r=int, k=int, l=int)
    p = _action(actions, "sweep", cmd_sweep, "(r, k, l, alpha) for k + l <= max_total")
    p.add_argument("max_total", type=int, nargs="?", default=10)

    scan = sub.add_parser("scan", help="exhaustive theorem verification")
    actions = scan.add_subparsers(dest="action", required=True)
    for name in ("max", "min"):
        p = _action(actions, name, cmd_extremal, f"{name}-alpha certificate", n=int, r=int)
        p.add_argument("--corpus", help="graph6 file replacing enumeration")
    _action(actions, "trend", cmd_trend, "alpha(T_{n,r})/n for n = r..n_max", r=int, n_max=int)
    _action(actions, "supersat", cmd_supersat, "supersaturation report",
            n=int, r=int, k=int, epsilon=float)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return exc.code
    try:
        return args.func(args)
    except CounterexampleError as exc:
        print(f"counterexample: {exc}", file=sys.stderr)
        return COUNTEREXAMPLE
    except Graph6Error as exc:
        print(f"graph6 error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

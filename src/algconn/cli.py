"""Command-line interface.

Exit codes: 0 all checks passed, 1 a verification found a counterexample,
2 usage or input errors.  Graph input is a graph6 string, "-" for stdin
(one graph per line, batching allowed), or "@path" for a file.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import bounds as bounds_mod
from . import scan as scan_mod
from . import transforms as transforms_mod
from .cliques import max_clique
from .errors import CounterexampleError, Graph6Error
from .graph6 import parse_graph6, read_corpus, write_graph6
from .graphs import (
    TailedCliqueSpec,
    complete,
    complete_multipartite,
    cycle,
    empty,
    kite,
    path,
    tailed_clique,
    theta_kite,
    turan,
)
from .spectra import BOUND_TOL, fiedler_vector, eig_sym, laplacian

USAGE_ERROR = 2
COUNTEREXAMPLE = 1


@dataclass
class CliConfig:
    tolerance: float = BOUND_TOL
    guard: int = scan_mod.DEFAULT_GUARD
    jobs: int | None = None
    format: str = "table"
    strict_g6: bool = True

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if not 1 <= self.guard <= 9:
            raise ValueError("guard must be between 1 and 9")
        if self.jobs is not None and self.jobs < 1:
            raise ValueError("jobs must be >= 1")


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


def _input_graphs(arg: str, strict: bool):
    """Yield graphs from a positional graph6 argument, stdin, or @file."""
    if arg == "-":
        yield from read_corpus(sys.stdin, strict=strict)
    elif arg.startswith("@"):
        yield from read_corpus(arg[1:], strict=strict)
    else:
        yield parse_graph6(arg, strict=strict)


def _emit(report: dict, fmt: str, out) -> None:
    if fmt == "json":
        print(json.dumps(report), file=out)
    elif fmt == "csv":
        print(",".join(str(k) for k in report), file=out)
        print(",".join(_csv_cell(v) for v in report.values()), file=out)
    else:
        for key, value in report.items():
            print(f"{key}: {value}", file=out)


def _csv_cell(value) -> str:
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    if isinstance(value, dict):
        return ";".join(f"{k}={v}" for k, v in value.items())
    return "" if value is None else str(value)


def cmd_construct(args, config) -> int:
    family = _FAMILIES.get(args.family)
    if family is None:
        print(f"unknown family: {args.family}", file=sys.stderr)
        return USAGE_ERROR
    builder, arity = family
    if arity is not None and len(args.params) != arity:
        print(f"{args.family} takes {arity} parameter(s)", file=sys.stderr)
        return USAGE_ERROR
    params = [int(p) for p in args.params]
    print(write_graph6(builder(*params)))
    return 0


def cmd_spectrum(args, config) -> int:
    for g in _input_graphs(args.graph, config.strict_g6):
        spec = eig_sym(laplacian(g), tol=config.tolerance)
        report = {
            "n": g.n,
            "graph6": write_graph6(g),
            "eigenvalues": [round(float(v), 12) for v in spec.eigenvalues],
        }
        if g.n >= 2:
            report["alpha"] = spec.alpha
            try:
                fv = fiedler_vector(g)
                report["fiedler"] = [round(float(v), 12) for v in fv.values]
                report["multiplicity"] = fv.multiplicity
                report["connected"] = True
            except ValueError:
                report["connected"] = False
                report["alpha"] = 0.0
        _emit(report, config.format, sys.stdout)
    return 0


def cmd_bounds(args, config) -> int:
    header_done = False
    for g in _input_graphs(args.graph, config.strict_g6):
        report = bounds_mod.sandwich_report(g)
        if report.lower is not None and not (
            report.lower <= report.omega + config.tolerance
            and report.omega <= report.upper + config.tolerance
        ):
            raise CounterexampleError(
                f"clique bounds violated by {write_graph6(g)}: "
                f"{report.lower} <= {report.omega} <= {report.upper} fails"
            )
        if config.format == "csv":
            if not header_done:
                print(",".join(bounds_mod.BoundsReport.CSV_FIELDS))
                header_done = True
            print(report.to_csv_row())
        elif config.format == "json":
            print(report.to_json())
        else:
            _emit(report.to_dict(), "table", sys.stdout)
    return 0


def cmd_clique(args, config) -> int:
    for g in _input_graphs(args.graph, config.strict_g6):
        witness = max_clique(g)
        _emit(
            {
                "graph6": write_graph6(g),
                "omega": witness.omega,
                "vertices": list(witness.vertices),
            },
            config.format,
            sys.stdout,
        )
    return 0


def cmd_transform(args, config) -> int:
    if args.action in ("chain", "theta", "sign") and (args.a is None or args.b is None):
        print(f"{args.action} needs numeric parameters", file=sys.stderr)
        return USAGE_ERROR
    if args.action == "chain":
        rows = transforms_mod.kite_minimality_chain(args.a, args.b)
        for k, l, alpha in rows:
            _emit({"r": args.a, "k": k, "l": l, "alpha": alpha}, config.format, sys.stdout)
    elif args.action == "theta":
        alpha_theta, alpha_kite = transforms_mod.theta_vs_kite(args.a, args.b)
        _emit(
            {"r": args.a, "k": args.b, "alpha_theta": alpha_theta, "alpha_kite": alpha_kite},
            config.format,
            sys.stdout,
        )
    elif args.action == "sign":
        if args.c is None:
            print("sign needs r k l", file=sys.stderr)
            return USAGE_ERROR
        report = transforms_mod.fiedler_sign_report(TailedCliqueSpec(args.a, args.b, args.c))
        _emit(
            {
                "r": args.a, "k": args.b, "l": args.c,
                "alpha": report.alpha, "multiplicity": report.multiplicity,
                "skipped": report.skipped, "hub_spread": report.hub_spread,
                "end_product": report.end_product, "monotone_ok": report.monotone_ok,
            },
            config.format,
            sys.stdout,
        )
    elif args.action == "sweep":
        rows = transforms_mod.tailed_clique_sweep(max_total=args.a if args.a else 10)
        if config.format == "csv":
            print("r,k,l,alpha")
            for r, k, l, alpha in rows:
                print(f"{r},{k},{l},{alpha!r}")
        else:
            for r, k, l, alpha in rows:
                _emit({"r": r, "k": k, "l": l, "alpha": alpha}, config.format, sys.stdout)
    else:
        print(f"unknown transform action: {args.action}", file=sys.stderr)
        return USAGE_ERROR
    return 0


def cmd_scan(args, config) -> int:
    common = dict(guard=config.guard, jobs=config.jobs, tol=config.tolerance)
    if args.corpus:
        common["corpus"] = read_corpus(args.corpus, strict=config.strict_g6)
        common["source"] = f"corpus:{args.corpus}"
    if args.action in ("max", "min"):
        verify = (scan_mod.verify_max_theorem if args.action == "max"
                  else scan_mod.verify_min_theorem)
        cert = verify(args.a, args.b, **common)
        _print_certificate(cert, config)
        return 0 if cert.ok else COUNTEREXAMPLE
    if args.action == "trend":
        rows = scan_mod.erdos_stone_trend(args.a, args.b)
        for n, ratio in rows:
            _emit({"n": n, "ratio": str(ratio), "value": float(ratio)}, config.format, sys.stdout)
        return 0
    if args.action == "supersat":
        if args.c is None or args.d is None:
            print("supersat needs n r k epsilon", file=sys.stderr)
            return USAGE_ERROR
        report = scan_mod.verify_supersaturation(
            args.a, args.b, args.c, args.d, guard=config.guard, jobs=config.jobs
        )
        if config.format == "json":
            print(report.to_json())
        else:
            _emit(report.to_dict(), config.format, sys.stdout)
        return 0 if report.ok else COUNTEREXAMPLE
    print(f"unknown scan action: {args.action}", file=sys.stderr)
    return USAGE_ERROR


def _print_certificate(cert, config) -> None:
    if config.format == "json":
        print(cert.to_json())
    else:
        _emit(cert.to_dict(), config.format, sys.stdout)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algconn",
        description="Algebraic connectivity vs. clique number: constructions, "
        "spectra, bounds, rewrites, and exhaustive verification.",
    )
    parser.add_argument(
        "--tolerance", type=float, default=BOUND_TOL,
        help="slack a checked inequality may miss by before it counts as a failure: "
        "the max/min bound verdicts, the bounds sandwich and the spectrum residual "
        "(relative to the matrix norm); supersat uses the fixed STRICT_TOL (1e-9) margin",
    )
    parser.add_argument("--guard", type=int, default=scan_mod.DEFAULT_GUARD,
                        help="largest order the enumerating scans accept (max 9)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker threads for scans (default: machine parallelism)")
    parser.add_argument("--format", choices=("json", "csv", "table"), default="table")
    parser.add_argument("--strict-g6", dest="strict_g6", action="store_true", default=True)
    parser.add_argument("--lenient-g6", dest="strict_g6", action="store_false",
                        help="accept nonzero graph6 padding bits")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a named family member as graph6")
    p.add_argument("family", choices=sorted(_FAMILIES))
    p.add_argument("params", nargs="+")

    for name, help_text in (
        ("spectrum", "Laplacian eigenvalues, alpha, Fiedler vector"),
        ("bounds", "two-sided clique bounds and the degree chain"),
        ("clique", "exact maximum clique"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("graph", nargs="?", default="-",
                       help="graph6 string, - for stdin, @file for a file")

    p = sub.add_parser("transform", help="tail-rewrite sweeps and reports")
    p.add_argument("action", choices=("chain", "theta", "sign", "sweep"))
    p.add_argument("a", type=int, nargs="?", default=None)
    p.add_argument("b", type=int, nargs="?", default=None)
    p.add_argument("c", type=int, nargs="?", default=None)

    p = sub.add_parser("scan", help="exhaustive theorem verification")
    p.add_argument("action", choices=("max", "min", "trend", "supersat"))
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int, nargs="?", default=None)
    p.add_argument("d", type=float, nargs="?", default=None)
    p.add_argument("--corpus", default=None, help="graph6 file replacing enumeration")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = CliConfig(
            tolerance=args.tolerance,
            guard=args.guard,
            jobs=args.jobs,
            format=args.format,
            strict_g6=args.strict_g6,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    handlers = {
        "construct": cmd_construct,
        "spectrum": cmd_spectrum,
        "bounds": cmd_bounds,
        "clique": cmd_clique,
        "transform": cmd_transform,
        "scan": cmd_scan,
    }
    try:
        return handlers[args.command](args, config)
    except CounterexampleError as exc:
        print(f"counterexample: {exc}", file=sys.stderr)
        return COUNTEREXAMPLE
    except Graph6Error as exc:
        print(f"graph6 error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

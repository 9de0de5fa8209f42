"""Cold-CLI benchmark for algconn: time from `algconn scan ...` to a checked certificate.

    python3 perfbench/run.py --workload enum7 --seed 1 --seconds 36 --trace 0

Each workload runs its commands as fresh `python3 -m algconn` processes, one
at a time, from this single driver process (a closed loop with one client).
One iteration runs all of a workload's commands; iterations repeat while
the next one would end less than half an iteration past --seconds.  Every
certificate is checked against references this benchmark derives itself
(checks.py), and must be byte-identical across iterations.

--trace 0 prints the end-to-end metrics (medians over iterations).
--trace 1 adds one traced iteration (traced.py wraps each layer's public
functions) and prints the per-layer metrics instead; the traced stdout
must match the untraced stdout byte for byte.  `--workload all` runs every
workload in turn and prints a summary table.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
Details (environment, samples, quartiles, corpus sha256) go to
perfbench/out/result-<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import gen
import traced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Worker threads passed as --jobs: the cores this process may use.
CORES = len(os.sched_getaffinity(0))
#: Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 5
#: Wall-clock limit for one workload; a command still going then is killed.
DEADLINE_S = 170.0

WORKLOADS = {
    "enum7": "full 2^21-code table route for max/min at n=7: batched eigensolve "
             "and thread pool; parser, per-graph spectra and cliques bypassed",
    "supersat8": "pruned order-8 supersaturation, single-threaded: 152,219 "
                 "Graph constructions and one-matrix eigensolves, no table",
    "corpus8": "100,000-graph seeded graph6 corpus for max/min at n=8: parser, "
               "Bron-Kerbosch, per-graph spectra and isomorphism dedup on the hot path",
}

#: (name, unit, better, bound); bound is the share by which the median may worsen.
END_TO_END = [
    ("run_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
    ("ok_frac", "ratio", "higher", 0.01),
]

#: (name, unit, better).  Totals over the commands of one traced iteration.
PER_LAYER = [
    ("cli.startup_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("scan.build_graph_table.s", "s", "lower"),
    ("scan.table.codes", "count", "lower"),
    ("scan.table.jobs1_s", "s", "lower"),
    ("scan.table.speedup", "x", "higher"),
    ("scan.verify.self_s", "s", "lower"),
    ("scan.supersat.candidates", "count", "lower"),
    ("scan.supersat.prune_ratio", "ratio", "lower"),
    ("scan.dedup.ratio", "ratio", "higher"),
    ("linalg.eigvalsh.calls", "count", "lower"),
    ("linalg.eigvalsh.matrices", "count", "lower"),
    ("linalg.eigvalsh.busy_s", "s", "lower"),
    ("spectra.lambda_max.calls", "count", "lower"),
    ("spectra.lambda_max.s", "s", "lower"),
    ("spectra.algebraic_connectivity.calls", "count", "lower"),
    ("spectra.algebraic_connectivity.s", "s", "lower"),
    ("graphs.Graph.from_edges.calls", "count", "lower"),
    ("graphs.Graph.from_edges.s", "s", "lower"),
    ("graphs.complement.calls", "count", "lower"),
    ("graphs.complement.s", "s", "lower"),
    ("graphs.decode.calls", "count", "lower"),
    ("graphs.decode.s", "s", "lower"),
    ("graphs.is_isomorphic.calls", "count", "lower"),
    ("graphs.is_isomorphic.s", "s", "lower"),
    ("cliques.max_clique.calls", "count", "lower"),
    ("cliques.max_clique.s", "s", "lower"),
    ("cliques.contains_complete_multipartite.calls", "count", "lower"),
    ("cliques.contains_complete_multipartite.s", "s", "lower"),
    ("graph6.parse_graph6.calls", "count", "lower"),
    ("graph6.parse_graph6.s", "s", "lower"),
    ("graph6.write_graph6.calls", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


@dataclass
class Command:
    name: str
    argv: list[str]
    expect: dict


@dataclass
class Outcome:
    label: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int | None
    stdout: bytes
    problems: list[str] = field(default_factory=list)


def cli(*args: str) -> list[str]:
    return ["--jobs", str(CORES), "--format", "json", *args]


def enum7_commands(seed: int) -> tuple[list[Command], dict]:
    return [
        Command(f"{mode}7", cli("scan", mode, "7", "3"),
                checks.extremal_expect(mode, 7, 3, source="enumeration",
                                       **checks.ENUM7[mode]))
        for mode in ("max", "min")
    ], {}


def supersat8_commands(seed: int) -> tuple[list[Command], dict]:
    argv = ["--guard", "8", *cli("scan", "supersat", "8", "2", "2", "0.05")]
    return [Command("supersat8", argv, checks.supersat_expect())], {}


def corpus8_commands(seed: int) -> tuple[list[Command], dict]:
    codes = gen.corpus_codes(seed)
    data = gen.corpus_bytes(codes)
    rel = "perfbench/out/corpus8.g6"
    (ROOT / rel).write_bytes(data)
    counts = gen.eligible_counts(codes)
    commands = [
        Command(f"{mode}8", cli("scan", mode, "8", "3", "--corpus", rel),
                checks.extremal_expect(mode, 8, 3, counts[mode], 1, f"corpus:{rel}"))
        for mode in ("max", "min")
    ]
    return commands, {"corpus": rel, "corpus_graphs": len(codes),
                      "corpus_sha256": gen.sha256(data), "eligible": counts}


SETUP = {"enum7": enum7_commands, "supersat8": supersat8_commands,
         "corpus8": corpus8_commands}


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn(argv: list[str], stem: str, deadline: float) -> Outcome:
    """Run one child from ROOT, time it, and collect its rusage and stdout.

    A child still running at `deadline` (a perf_counter value) is killed and
    reported with returncode None.
    """
    out_path = OUT / f"{stem}.out"
    with open(out_path, "wb") as out, open(OUT / f"{stem}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
    pidfd = os.pidfd_open(proc.pid)
    ready = []
    try:
        ready = select.select([pidfd], [], [], max(deadline - time.perf_counter(), 0))[0]
    finally:
        if not ready:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        label=stem,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        returncode=proc.returncode if ready else None,
        stdout=out_path.read_bytes(),
    )


def algconn_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "algconn", *args]


def warm_up(deadline: float) -> None:
    """One short cold command: compiles algconn's bytecode and loads its imports."""
    done = spawn(algconn_argv(cli("scan", "trend", "3", "4")), "warmup", deadline)
    if done.returncode != 0:
        raise RuntimeError(f"algconn warm-up command exited {done.returncode}; "
                           f"see {OUT / 'warmup.err'}")


def run_iteration(workload: str, commands: list[Command], first: dict, deadline: float,
                  launch=lambda cmd: algconn_argv(cmd.argv)) -> list[Outcome]:
    """Run each command once; check it against its reference and the first iteration."""
    outcomes = []
    for cmd in commands:
        done = spawn(launch(cmd), cmd.name, deadline)
        done.problems = checks.check(cmd.expect, done.returncode, done.stdout)
        if done.returncode is None:
            done.problems.insert(0, "timed out")
        baseline = first.setdefault(cmd.name, done.stdout)
        if done.stdout != baseline:
            done.problems.append("stdout differs from the first iteration")
        outcomes.append(done)
    return outcomes


# ---------------------------------------------------------------------------
# Statistics and environment
# ---------------------------------------------------------------------------

def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "usable_cores": CORES,
        "cpu_count": os.cpu_count(),
        "jobs": CORES,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def traced_metrics(workload: str, commands: list[Command], first: dict,
                   untraced_run_s: float, deadline: float) -> tuple[dict, list[Outcome]]:
    """One traced iteration (plus the table baseline on enum7) -> per-layer metrics."""
    spans_of = {cmd.name: OUT / f"spans-{workload}-{cmd.name}.npz" for cmd in commands}
    for path in spans_of.values():
        path.unlink(missing_ok=True)

    def launch(cmd: Command) -> list[str]:
        return [sys.executable, str(HERE / "traced.py"), "--src", str(SRC),
                "--spans", str(spans_of[cmd.name]), "--spawn", repr(time.time()),
                "--", *cmd.argv]

    outcomes = run_iteration(workload, commands, first, deadline, launch)
    totals: dict[str, float] = {}
    startup = 0.0
    for path in spans_of.values():
        if not path.exists():
            continue
        spans = traced.summarize(str(path))
        startup += spans.pop("meta")["startup_s"]
        for key, value in spans.items():
            totals[key] = totals.get(key, 0) + value

    certs = [json.loads(d.stdout) for d in outcomes if not d.problems]
    classes = sum(len(c["achievers"]) for c in certs if "achievers" in c)
    candidates = sum(c["candidates_examined"] for c in certs if "candidates_examined" in c)
    space = sum(c["graphs_scanned"] for c in certs if "candidates_examined" in c)
    iso_tests = totals.get("graphs.is_isomorphic.calls", 0)

    jobs1_s = speedup = 0.0
    if workload == "enum7":
        done = spawn([sys.executable, str(HERE / "traced.py"), "--src", str(SRC),
                      "--table-baseline", "7", str(CORES)], "table-baseline", deadline)
        if done.returncode == 0:
            base = json.loads(done.stdout)
            jobs1_s, speedup = base["jobs1_s"], base["jobs1_s"] / base["jobs_s"]
        else:
            done.problems = [f"table baseline exited {done.returncode}"]
            outcomes.append(done)

    metrics = {
        "cli.startup_s": startup,
        "scan.table.codes": totals.get("scan.build_graph_table.items", 0),
        "scan.table.jobs1_s": jobs1_s,
        "scan.table.speedup": speedup,
        "scan.supersat.candidates": candidates,
        "scan.supersat.prune_ratio": candidates / space if space else 0.0,
        "scan.dedup.ratio": classes / iso_tests if iso_tests else 0.0,
        "linalg.eigvalsh.matrices": totals.get("linalg.eigvalsh.items", 0),
        "linalg.eigvalsh.busy_s": totals.get("linalg.eigvalsh.s", 0.0),
        "trace.overhead_s": sum(d.wall_s for d in outcomes[:len(commands)]) - untraced_run_s,
    }
    for name, _, _ in PER_LAYER:
        metrics.setdefault(name, totals.get(name, 0))
    return metrics, outcomes


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    OUT.mkdir(exist_ok=True)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        commands, inputs = SETUP[workload](seed)
        warm_up(deadline)
        setup_times.append(time.perf_counter() - t0)

    first: dict[str, bytes] = {}
    iterations: list[list[Outcome]] = []
    start = time.perf_counter()
    while True:
        iterations.append(run_iteration(workload, commands, first, deadline))
        walls = [sum(d.wall_s for d in it) for it in iterations]
        now = time.perf_counter()
        typical = statistics.median(walls)
        # Stop where the run ends closest to `seconds`: overshoot at most half an iteration.
        if now - start + typical / 2 > seconds or now + 2 * typical > deadline:
            break
        if any(d.returncode is None for d in iterations[-1]):
            break

    run_s = [sum(d.wall_s for d in it) for it in iterations]
    cpu_s = [sum(d.cpu_s for d in it) for it in iterations]
    rss = [max(d.rss_mb for d in it) for it in iterations]
    outcomes = [d for it in iterations for d in it]

    per_layer = None
    if trace:
        per_layer, traced_outcomes = traced_metrics(
            workload, commands, first, statistics.median(run_s), deadline)
        outcomes += traced_outcomes

    attempted = len(outcomes)
    failed = sum(1 for d in outcomes if d.problems)
    stats = {
        "run_s": summary(run_s),
        "cpu_s": summary(cpu_s),
        "peak_rss_mb": summary(rss),
        "setup_s": summary(setup_times),
    }
    return {
        "workload": workload,
        "why": WORKLOADS[workload],
        "seed": seed,
        "seconds": seconds,
        "commands": {c.name: ["algconn", *c.argv] for c in commands},
        "inputs": inputs,
        "environment": environment(),
        "iterations": len(iterations),
        "stats": stats,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": sorted({f"{d.label}: {p}" for d in outcomes for p in d.problems}),
        "per_layer": per_layer,
    }


def metrics_of(result: dict, trace: bool) -> dict:
    if trace:
        return {name: {"value": result["per_layer"][name], "unit": unit}
                for name, unit, _ in PER_LAYER}
    values = {name: result["stats"][name]["median"] for name in result["stats"]}
    values["ok_frac"] = 1.0 - result["failed_frac"]
    return {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}


def report(result: dict) -> None:
    env = result["environment"]
    print(f"{result['workload']} seed={result['seed']}: {result['iterations']} iterations; "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, unit, _, _ in END_TO_END:
        stat = result["stats"].get(name)
        if stat:
            print(f"  {name:<12} {stat['median']:10.4f} {unit:<3} "
                  f"(q1 {stat['q1']:.4f}, q3 {stat['q3']:.4f}, n={stat['n']})")
    print(f"  {'failed_frac':<12} {result['failed_frac']:10.4f}     "
          f"({result['failed']}/{result['attempted']} commands)")
    if result["inputs"].get("corpus_sha256"):
        print(f"  corpus sha256 {result['inputs']['corpus_sha256']}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    if result["per_layer"]:
        for name, unit, _ in PER_LAYER:
            print(f"  {name:<44} {result['per_layer'][name]:16.6f} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Cold-CLI benchmark for algconn.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "algconn" / "cli.py").is_file():
        print(f"error: no algconn sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            deadline = time.perf_counter() + DEADLINE_S
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
            path = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(result, indent=2) + "\n")
            report(result)
            results.append(result)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for name, value in metrics_of(result, bool(args.trace)).items():
            metrics[prefix + name] = value
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

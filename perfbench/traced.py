"""Traced child process: run one algconn CLI command with spans around each layer.

    python3 traced.py --src SRC --spans OUT.npz --spawn WALL -- ARGV...
    python3 traced.py --src SRC --table-baseline N JOBS

The first form wraps the public functions of each layer where their caller
looks them up (module attributes, the Graph class, numpy.linalg), calls
algconn.cli.main(ARGV), and at exit writes the spans to OUT.npz.  Nothing
under algconn is edited.  The second form times build_graph_table(N) with
JOBS threads and then with one, and prints both as JSON.

A span is (parent, name, start, end, thread, items); parent -1 marks a root,
including calls made on pool threads.  `items` is the work a call covered:
matrices for eigvalsh, codes for build_graph_table, 1 otherwise.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import threading
import time
from array import array

import numpy as np

#: (span name, module holding the attribute the caller looks up, attribute).
WRAPPED = [
    ("scan.build_graph_table", "algconn.scan", "build_graph_table"),
    ("scan.verify_max_theorem", "algconn.scan", "verify_max_theorem"),
    ("scan.verify_min_theorem", "algconn.scan", "verify_min_theorem"),
    ("scan.verify_supersaturation", "algconn.scan", "verify_supersaturation"),
    ("graphs.decode", "algconn.scan", "decode"),
    ("graphs.is_isomorphic", "algconn.scan", "is_isomorphic"),
    ("graphs.complement", "algconn.scan", "complement"),
    ("spectra.algebraic_connectivity", "algconn.scan", "algebraic_connectivity"),
    ("spectra.lambda_max", "algconn.scan", "lambda_max"),
    ("cliques.max_clique", "algconn.scan", "max_clique"),
    ("cliques.contains_complete_multipartite", "algconn.scan",
     "contains_complete_multipartite"),
    ("graph6.write_graph6", "algconn.scan", "write_graph6"),
    ("graph6.parse_graph6", "algconn.graph6", "parse_graph6"),
    ("linalg.eigvalsh", "numpy.linalg", "eigvalsh"),
]
FROM_EDGES = "graphs.Graph.from_edges"
MAIN = "cli.main"
VERIFY = ("scan.verify_max_theorem", "scan.verify_min_theorem",
          "scan.verify_supersaturation")


def _matrices(args, kwargs, result) -> int:
    shape = getattr(args[0] if args else kwargs.get("a"), "shape", ())
    count = 1
    for dim in shape[:-2]:
        count *= dim
    return count


ITEMS = {
    "linalg.eigvalsh": _matrices,
    "scan.build_graph_table": lambda args, kwargs, result: getattr(result, "size", 0),
}


class Tracer:
    """Thread-safe in-memory span recorder."""

    def __init__(self):
        self.names: list[str] = []
        self.parent = array("q")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.thread = array("Q")
        self.items = array("q")
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        items = ITEMS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                sid = len(self.start)
                self.parent.append(stack[-1] if stack else -1)
                self.name.append(idx)
                self.thread.append(threading.get_ident())
                self.start.append(0.0)
                self.end.append(0.0)
                self.items.append(1)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.start[sid] = t0
                    self.end[sid] = t1
            if items is not None:
                count = items(args, kwargs, result)
                with self._lock:
                    self.items[sid] = count
            return result

        return traced

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self) -> None:
        """Wrap every WRAPPED attribute that exists; a missing one records no spans."""
        for name, module, attr in WRAPPED:
            mod = importlib.import_module(module)
            if hasattr(mod, attr):
                setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
        graph = importlib.import_module("algconn.graphs").Graph
        graph.from_edges = classmethod(self.wrap(FROM_EDGES, graph.from_edges.__func__))

    def save(self, path: str, meta: dict) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            thread=np.frombuffer(self.thread, dtype=np.uint64),
            items=np.frombuffer(self.items, dtype=np.int64),
            meta=np.array(json.dumps(meta)),
        )


def _covered(start, end) -> float:
    """Length of the union of the intervals [start[i], end[i]]."""
    order = np.argsort(start, kind="stable")
    reach = np.maximum.accumulate(end[order])
    before = np.concatenate(([-np.inf], reach[:-1]))
    return float(np.clip(reach - np.maximum(start[order], before), 0.0, None).sum())


def summarize(path: str) -> dict:
    """Per-layer totals from one command's span file.

    Returns {"<layer>.calls", "<layer>.s", "<layer>.items"} for every
    wrapped name, the self times of cli.main and of the verify_* spans
    (duration minus the union of their direct children), and the
    meta the child recorded.
    """
    with np.load(path) as z:
        names = [str(n) for n in z["names"]]
        parent, name, start, end, items = (
            z[k] for k in ("parent", "name", "start", "end", "items"))
        meta = json.loads(str(z["meta"]))
    dur = end - start
    out: dict[str, float] = {}
    for idx, layer in enumerate(names):
        mask = name == idx
        out[f"{layer}.calls"] = int(mask.sum())
        out[f"{layer}.s"] = float(dur[mask].sum())
        out[f"{layer}.items"] = int(items[mask].sum())

    def self_time(layers) -> float:
        ids = [i for i, n in enumerate(names) if n in layers]
        total = 0.0
        for sid in np.nonzero(np.isin(name, ids))[0]:
            kids = parent == sid
            total += dur[sid] - _covered(start[kids], end[kids])
        return float(total)

    out["cli.self_s"] = self_time((MAIN,))
    out["scan.verify.self_s"] = self_time(VERIFY)
    out["meta"] = meta
    return out


def _run_command(src: str, spans: str, spawn: float, argv: list[str]) -> int:
    sys.path.insert(0, src)
    cli = importlib.import_module("algconn.cli")
    tracer = Tracer()
    tracer.install()
    main = tracer.wrap(MAIN, cli.main)
    entered = time.time()
    try:
        code = main(argv)
    finally:
        sys.stdout.flush()
        tracer.save(spans, {"argv": argv, "startup_s": entered - spawn})
    return code


def _table_baseline(src: str, n: int, jobs: int) -> int:
    sys.path.insert(0, src)
    scan = importlib.import_module("algconn.scan")
    times = {}
    for label, j in (("jobs_s", jobs), ("jobs1_s", 1)):
        scan.clear_table_cache()
        t0 = time.perf_counter()
        scan.build_graph_table(n, jobs=j)
        times[label] = time.perf_counter() - t0
    scan.clear_table_cache()
    print(json.dumps({"n": n, "jobs": jobs, **times}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the algconn package")
    parser.add_argument("--spans", help="span file to write (.npz)")
    parser.add_argument("--spawn", type=float, help="wall time at which the parent spawned us")
    parser.add_argument("--table-baseline", nargs=2, type=int, metavar=("N", "JOBS"))
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.table_baseline:
        return _table_baseline(args.src, *args.table_baseline)
    command = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    return _run_command(args.src, args.spans, args.spawn, command)


if __name__ == "__main__":
    sys.exit(main())

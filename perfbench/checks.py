"""Reference values and the certificate check behind each command's verdict.

References are derived here without algconn: the Turan bound in closed
form, the kite's algebraic connectivity from numpy on the benchmark's own
Laplacian, and counts pinned from the code under benchmark or computed from
the benchmark's own corpus (see gen.eligible_counts).
"""

from __future__ import annotations

import json

import numpy as np

from gen import kite_edges

TOL = 1e-9

#: Known kite values, a cross-check on the derivation in kite_alpha.
KITE_ALPHA = {7: 0.2253771005, 8: 0.1667170082}

#: Counts pinned from the labeled enumeration at n = 7, r = 3.
ENUM7 = {
    "max": {"graphs_scanned": 1_486_597, "classes": 2},
    "min": {"graphs_scanned": 1_198_522, "classes": 1},
}

#: Counts pinned from the pruned order-8 supersaturation scan.
SUPERSAT8 = {
    "n": 8, "r": 2, "k": 2, "parts": [2, 2], "threshold": 4.4,
    "qualifying": 42_428, "violations": [], "vacuous": False,
    "graphs_scanned": 1 << 28, "candidates_examined": 152_219,
}


def turan_bound(n: int, r: int) -> float:
    return float(n - -(n // -r))


def kite_alpha(n: int, r: int = 3) -> float:
    lap = np.zeros((n, n))
    for u, v in kite_edges(n, r):
        lap[u, v] = lap[v, u] = -1.0
        lap[u, u] += 1.0
        lap[v, v] += 1.0
    alpha = float(np.linalg.eigvalsh(lap)[1])
    if n in KITE_ALPHA and abs(alpha - KITE_ALPHA[n]) > 1e-10:
        raise RuntimeError(f"kite alpha {alpha} disagrees with {KITE_ALPHA[n]}")
    return alpha


def extremal_expect(mode: str, n: int, r: int, graphs_scanned: int,
                    classes: int, source: str) -> dict:
    bound = turan_bound(n, r) if mode == "max" else kite_alpha(n, r)
    return {"kind": "extremal", "mode": mode, "n": n, "r": r, "bound": bound,
            "graphs_scanned": graphs_scanned, "classes": classes, "source": source}


def supersat_expect() -> dict:
    return {"kind": "supersat", **SUPERSAT8}


def check(expect: dict, returncode: int | None, stdout: bytes) -> list[str]:
    """Problems with one command's outcome; an empty list means it passed."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        cert = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not one JSON certificate: {exc}"]
    if not isinstance(cert, dict):
        return ["certificate is not a JSON object"]
    if expect["kind"] == "supersat":
        return [f"{key}: {cert.get(key)!r} != {want!r}"
                for key, want in expect.items()
                if key != "kind" and not _same(cert.get(key), want)]
    problems = [f"{key}: {cert.get(key)!r} != {expect[key]!r}"
                for key in ("mode", "n", "r", "graphs_scanned", "source")
                if cert.get(key) != expect[key]]
    for key in ("bound", "achieved"):
        value = cert.get(key)
        if not isinstance(value, float) or abs(value - expect["bound"]) > TOL:
            problems.append(f"{key}: {value!r} not within {TOL} of {expect['bound']!r}")
    if len(cert.get("achievers") or []) != expect["classes"]:
        problems.append(f"achiever classes: {cert.get('achievers')!r}, "
                        f"want {expect['classes']}")
    if cert.get("characterization_ok") is not True:
        problems.append("characterization_ok is not true")
    if cert.get("counterexamples") != []:
        problems.append(f"counterexamples: {cert.get('counterexamples')!r}")
    return problems


def _same(got, want) -> bool:
    if isinstance(want, float):
        return isinstance(got, float) and abs(got - want) <= TOL
    return type(got) is type(want) and got == want


"""Seeded graph6 corpus of order-8 labeled graphs, built without algconn.

The benchmark's input must not change when algconn's graph or graph6 code
changes, so this module has its own graph6 writer and its own Turan and
kite constructions.  A graph is an integer code: bit k is the vertex pair
PAIRS[k], in the column-major upper-triangle order graph6 uses.
"""

from __future__ import annotations

import hashlib
import random
from itertools import combinations

import numpy as np

N = 8
PAIRS = [(i, j) for j in range(1, N) for i in range(j)]
_BIT = {pair: k for k, pair in enumerate(PAIRS)}

#: Line i % PLANT_EVERY == 0 is a relabeled Turan graph T_{8,3};
#: line i % PLANT_EVERY == PLANT_EVERY // 2 is a relabeled kite Ki_{8,3}.
PLANT_EVERY = 100
CORPUS_SIZE = 100_000


def code_of(edges) -> int:
    code = 0
    for u, v in edges:
        code |= 1 << _BIT[(min(u, v), max(u, v))]
    return code


def turan_edges(parts=(3, 3, 2)) -> list[tuple[int, int]]:
    """Complete multipartite graph with the given part sizes, parts numbered in order."""
    part_of = [p for p, size in enumerate(parts) for _ in range(size)]
    return [(u, v) for u, v in combinations(range(len(part_of)), 2)
            if part_of[u] != part_of[v]]


def kite_edges(n: int = N, r: int = 3) -> list[tuple[int, int]]:
    """K_r on vertices 0..r-1 with a pendant path r, r+1, .., n-1 hanging from vertex 0."""
    path = [0, *range(r, n)]
    return list(combinations(range(r), 2)) + list(zip(path, path[1:]))


#: 6-bit values with their bit order reversed.
_REV6 = [int(f"{v:06b}"[::-1], 2) for v in range(64)]


def graph6_line(code: int, n: int = N) -> str:
    """graph6 record of a code: the order byte, then six code bits per byte.

    Code bit k is stream bit k, sent most significant first within each
    byte; the last byte is padded with zero bits.
    """
    nbits = n * (n - 1) // 2
    return chr(n + 63) + "".join(chr(_REV6[code >> s & 63] + 63) for s in range(0, nbits, 6))


def _relabeled(rng: random.Random, edges) -> int:
    perm = list(range(N))
    rng.shuffle(perm)
    return code_of((perm[u], perm[v]) for u, v in edges)


def corpus_codes(seed: int, size: int = CORPUS_SIZE) -> list[int]:
    """Codes of the corpus lines; each random graph has its own density drawn from [0, 1]."""
    rng = random.Random(seed)
    draw = rng.random
    turan, kite = turan_edges(), kite_edges()
    bits = [1 << k for k in range(len(PAIRS))]
    codes = []
    for i in range(size):
        slot = i % PLANT_EVERY
        if slot == 0:
            codes.append(_relabeled(rng, turan))
        elif slot == PLANT_EVERY // 2:
            codes.append(_relabeled(rng, kite))
        else:
            p = draw()
            codes.append(sum(b for b in bits if draw() < p))
    return codes


def corpus_bytes(codes) -> bytes:
    return "".join(graph6_line(c) + "\n" for c in codes).encode("ascii")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Invariants the reference check needs, computed over code arrays with numpy
# ---------------------------------------------------------------------------

def _clique_masks(size: int) -> list[int]:
    return [code_of(combinations(s, 2)) for s in combinations(range(N), size)]


def has_clique(codes: np.ndarray, size: int) -> np.ndarray:
    found = np.zeros(len(codes), dtype=bool)
    for mask in _clique_masks(size):
        found |= (codes & mask) == mask
    return found


def connected(codes: np.ndarray) -> np.ndarray:
    rows = np.zeros((N, len(codes)), dtype=np.int64)
    for k, (i, j) in enumerate(PAIRS):
        b = (codes >> k) & 1
        rows[i] |= b << j
        rows[j] |= b << i
    reach = np.ones(len(codes), dtype=np.int64)
    for _ in range(N - 1):
        grown = reach
        for v in range(N):
            grown = grown | (rows[v] * ((reach >> v) & 1))
        reach = grown
    return reach == (1 << N) - 1


def eligible_counts(codes) -> dict[str, int]:
    """graphs_scanned expected from `scan max 8 3` and `scan min 8 3` over these codes.

    max: non-complete and K4-free (the complete graph contains K4).
    min: connected with clique number exactly 3.
    """
    arr = np.asarray(codes, dtype=np.int64)
    k4_free = ~has_clique(arr, 4)
    return {
        "max": int(k4_free.sum()),
        "min": int((k4_free & has_clique(arr, 3) & connected(arr)).sum()),
    }

"""Exact maximum clique and subgraph-containment checks.

Bron-Kerbosch over bitmask vertex sets, with pivoting and a degeneracy-order
outer loop.  Everything is deterministic: candidate vertices are always taken
in ascending index order, so the reported witness depends only on the input
labeling.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, _bits

__all__ = [
    "CliqueWitness",
    "max_clique",
    "is_kr_free",
    "contains_complete_multipartite",
]


@dataclass(frozen=True)
class CliqueWitness:
    """Clique number together with the vertex set of one maximum clique."""

    omega: int
    vertices: tuple[int, ...]


def _degeneracy_order(g: Graph) -> list[int]:
    remaining = (1 << g.n) - 1
    order = []
    for _ in range(g.n):
        best_v = -1
        best_d = g.n + 1
        m = remaining
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            d = (g.rows[v] & remaining).bit_count()
            if d < best_d:
                best_v, best_d = v, d
        order.append(best_v)
        remaining &= ~(1 << best_v)
    return order


def max_clique(g: Graph) -> CliqueWitness:
    """Exact clique number and one maximum clique, by branch-and-bound Bron-Kerbosch."""
    rows = g.rows
    best = {"size": 0, "mask": 0}

    def expand(r_mask: int, r_size: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            if r_size > best["size"]:
                best["size"] = r_size
                best["mask"] = r_mask
            return
        if r_size + p.bit_count() <= best["size"]:
            return
        pivot = -1
        pivot_cnt = -1
        m = p | x
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            cnt = (p & rows[u]).bit_count()
            if cnt > pivot_cnt:
                pivot, pivot_cnt = u, cnt
        ext = p & ~rows[pivot]
        while ext:
            v = (ext & -ext).bit_length() - 1
            ext &= ext - 1
            expand(r_mask | 1 << v, r_size + 1, p & rows[v], x & rows[v])
            p &= ~(1 << v)
            x |= 1 << v
            if r_size + p.bit_count() <= best["size"]:
                return

    order = _degeneracy_order(g)
    later = (1 << g.n) - 1
    for v in order:
        later &= ~(1 << v)
        expand(1 << v, 1, rows[v] & later, rows[v] & ~later)
    return CliqueWitness(best["size"], tuple(_bits(best["mask"])))


def is_kr_free(g: Graph, r: int) -> bool:
    """True iff g has no complete subgraph on r vertices (omega < r)."""
    if r < 1:
        raise ValueError(f"clique order must be >= 1, got {r}")
    return max_clique(g).omega < r


def contains_complete_multipartite(g: Graph, parts) -> bool:
    """Does g contain a complete multipartite subgraph with these part sizes?

    Containment is as a subgraph, not induced: every cross-part pair must be
    adjacent, within-part adjacency is unconstrained.  Backtracking over
    per-part candidate masks; fine for sum(parts) up to about 8.
    """
    parts = sorted(parts, reverse=True)
    if not parts or parts[-1] < 1:
        raise ValueError(f"part sizes must be positive, got {parts}")
    total = sum(parts)
    if total > g.n:
        raise ValueError(f"requested {total} vertices but graph has {g.n}")
    rows = g.rows
    m = len(parts)
    full = (1 << g.n) - 1

    def place(p: int, start: int, cand: list[int], filled: int) -> bool:
        if p == m:
            return True
        if filled == parts[p]:
            return place(p + 1, 0, cand, 0)
        avail = cand[p] >> start << start
        while avail:
            v = (avail & -avail).bit_length() - 1
            avail &= avail - 1
            nxt = [c & rows[v] if q != p else c & ~(1 << v) for q, c in enumerate(cand)]
            feasible = True
            for q in range(p, m):
                need = parts[q] - (filled + 1 if q == p else 0)
                if nxt[q].bit_count() < need:
                    feasible = False
                    break
            if feasible and place(p, v + 1, nxt, filled + 1):
                return True
        return False

    return place(0, 0, [full] * m, 0)

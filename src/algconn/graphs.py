"""Bit-packed simple graphs and the graph families used throughout the package.

A graph on n vertices is stored as n integer bitmasks, one adjacency row per
vertex.  That keeps edge tests O(1) and lets the clique and connectivity code
work on whole neighborhoods with single AND/OR operations.  Everything here is
immutable: operations return new Graph values.  The families are built from
complement, disjoint union and pendant paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

__all__ = [
    "Graph",
    "TailedCliqueSpec",
    "empty",
    "complete",
    "path",
    "cycle",
    "star",
    "turan",
    "turan_edge_count",
    "complete_multipartite",
    "kite",
    "tailed_clique",
    "theta_kite",
    "join",
    "disjoint_union",
    "complement",
    "attach_path",
    "add_edge",
    "remove_edge",
    "induced_subgraph",
    "relabel",
    "pair_index",
    "pairs",
    "adjacency",
    "encode",
    "decode",
    "connected_components",
    "is_connected",
    "min_degree",
    "vertex_connectivity",
    "canonical_code",
    "canonical_codes",
    "is_isomorphic",
]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count plus one adjacency bitmask per vertex."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"graph order must be positive, got {self.n}")
        if len(self.rows) != self.n:
            raise ValueError("row count does not match vertex count")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError(f"row {i} has bits outside 0..{self.n - 1}")
            if row >> i & 1:
                raise ValueError(f"self-loop at vertex {i}")
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if (self.rows[i] >> j & 1) != (self.rows[j] >> i & 1):
                    raise ValueError(f"adjacency not symmetric at ({i}, {j})")

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.rows]

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def edges(self):
        """Yield edges (i, j) with i < j in lexicographic order."""
        for i in range(self.n):
            rest = self.rows[i] >> (i + 1) << (i + 1)
            for j in _bits(rest):
                yield (i, j)

    def adjacency_matrix(self) -> np.ndarray:
        """The (n, n) uint8 0/1 adjacency matrix, at any order."""
        return np.array([[row >> u & 1 for u in range(self.n)] for row in self.rows], np.uint8)

    @property
    def is_complete(self) -> bool:
        return self.edge_count == self.n * (self.n - 1) // 2

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for order {n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def empty(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    return Graph(n, (0,) * n)


def complete(n: int) -> Graph:
    return complement(empty(n))


def path(n: int) -> Graph:
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs order >= 3, got {n}")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star(n: int) -> Graph:
    """Star on n vertices: vertex 0 adjacent to all others."""
    return Graph.from_edges(n, ((0, v) for v in range(1, n)))


def turan(n: int, r: int) -> Graph:
    """Complete r-partite graph on n vertices with near-equal parts.

    With n = k*r + t, the first t parts have size k+1 and the remaining r-t
    have size k; vertices are numbered consecutively part by part, so the
    layout (and hence the graph6 string) is deterministic.
    """
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    k, t = divmod(n, r)
    sizes = [k + 1] * t + [k] * (r - t)
    return complete_multipartite(*sizes)


def turan_edge_count(n: int, r: int) -> int:
    """Edge count of the Turan graph, by complement counting (exact integer)."""
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    k, t = divmod(n, r)
    within = t * (k + 1) * k // 2 + (r - t) * k * (k - 1) // 2
    return n * (n - 1) // 2 - within


def complete_multipartite(*sizes: int) -> Graph:
    """Complement of disjoint cliques of the given sizes (parts numbered in order)."""
    if not sizes:
        raise ValueError("need at least one part")
    if any(s < 1 for s in sizes):
        raise ValueError(f"part sizes must be positive, got {sizes}")
    return complement(reduce(disjoint_union, map(complete, sizes)))


def kite(n: int, r: int) -> Graph:
    """K_r with a pendant path of length n-r attached at clique vertex 0."""
    if not 2 <= r <= n:
        raise ValueError(f"need 2 <= r <= n, got r={r}, n={n}")
    return attach_path(complete(r), 0, n - r)


@dataclass(frozen=True)
class TailedCliqueSpec:
    """K_r carrying pendant paths of lengths k and l at two distinct clique vertices."""

    r: int
    k: int
    l: int

    def __post_init__(self):
        if self.r < 3:
            raise ValueError(f"clique order must be >= 3, got {self.r}")
        if self.k < 0 or self.l < 0:
            raise ValueError(f"tail lengths must be >= 0, got {self.k}, {self.l}")

    @property
    def n(self) -> int:
        return self.r + self.k + self.l


def tailed_clique(r: int, k: int, l: int) -> Graph:
    """Realize a tailed clique: tails of length k at vertex 0 and l at vertex 1.

    Vertex layout: 0..r-1 clique (0 and 1 carry the tails, 2..r-1 are the
    hubs), r..r+k-1 first tail in path order, r+k..n-1 second tail.
    """
    spec = TailedCliqueSpec(r, k, l)
    g = attach_path(complete(spec.r), 0, spec.k)
    return attach_path(g, 1, spec.l)


def theta_kite(r: int, k: int) -> Graph:
    """K_r plus a path of k vertices whose first vertex joins clique vertices 0 and 1."""
    if r < 3:
        raise ValueError(f"clique order must be >= 3, got {r}")
    if k < 1:
        raise ValueError(f"path length must be >= 1, got {k}")
    g = attach_path(complete(r), 0, k)
    return add_edge(g, 1, r)


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus every edge between the two vertex sets."""
    return complement(disjoint_union(complement(g1), complement(g2)))


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    rows = list(g1.rows) + [row << g1.n for row in g2.rows]
    return Graph(g1.n + g2.n, tuple(rows))


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(full ^ row ^ (1 << v) for v, row in enumerate(g.rows)))


def attach_path(g: Graph, v: int, k: int) -> Graph:
    """Append a pendant path of k new vertices rooted at vertex v."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for order {g.n}")
    if k < 0:
        raise ValueError(f"path length must be >= 0, got {k}")
    n = g.n + k
    rows = [row for row in g.rows] + [0] * k
    prev = v
    for w in range(g.n, n):
        rows[prev] |= 1 << w
        rows[w] |= 1 << prev
        prev = w
    return Graph(n, tuple(rows))


def add_edge(g: Graph, u: int, v: int) -> Graph:
    if u == v or not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError(f"invalid edge ({u}, {v})")
    rows = list(g.rows)
    rows[u] |= 1 << v
    rows[v] |= 1 << u
    return Graph(g.n, tuple(rows))


def remove_edge(g: Graph, u: int, v: int) -> Graph:
    if not g.has_edge(u, v):
        raise ValueError(f"edge ({u}, {v}) not present")
    rows = list(g.rows)
    rows[u] &= ~(1 << v)
    rows[v] &= ~(1 << u)
    return Graph(g.n, tuple(rows))


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Subgraph induced on the given vertices, renumbered in the order given."""
    vs = list(vertices)
    pos = {v: i for i, v in enumerate(vs)}
    if len(pos) != len(vs):
        raise ValueError("duplicate vertices")
    rows = [0] * len(vs)
    for i, v in enumerate(vs):
        for u in _bits(g.rows[v]):
            if u in pos:
                rows[i] |= 1 << pos[u]
    return Graph(len(vs), tuple(rows))


def relabel(g: Graph, perm) -> Graph:
    """Image of g under the permutation v -> perm[v]."""
    perm = list(perm)
    if sorted(perm) != list(range(g.n)):
        raise ValueError("not a permutation of the vertex set")
    return induced_subgraph(g, sorted(range(g.n), key=perm.__getitem__))


# ---------------------------------------------------------------------------
# Integer codes (upper-triangle bit packing)
# ---------------------------------------------------------------------------

def pair_index(i: int, j: int) -> int:
    """Bit position of pair {i, j} in column-major upper-triangle order.

    The order is (0,1), (0,2), (1,2), (0,3), (1,3), (2,3), ...: column j
    holds the pairs (i, j) with i < j at bits j(j-1)/2 + i.  graph6 writes
    the bits of a code in this order, so code bit b is graph6 bit b.
    """
    if i == j:
        raise ValueError("no diagonal pairs")
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


def pairs(n: int) -> list[tuple[int, int]]:
    """Vertex pairs of order n in code-bit order: pairs(n)[b] is the pair at bit b."""
    return [(i, j) for j in range(1, n) for i in range(j)]


def adjacency(n: int, codes: np.ndarray) -> np.ndarray:
    """(m, n, n) uint8 0/1 adjacency matrices of an int64 array of order-n codes."""
    adj = np.zeros((len(codes), n, n), np.uint8)
    for b, (i, j) in enumerate(pairs(n)):
        adj[:, i, j] = adj[:, j, i] = codes >> b & 1
    return adj


def encode(g: Graph) -> int:
    """Integer code of g: column j is rows[j] below bit j, at offset j(j-1)/2."""
    code = 0
    for j in range(1, g.n):
        code |= (g.rows[j] & ((1 << j) - 1)) << (j * (j - 1) // 2)
    return code


def decode(n: int, code: int) -> Graph:
    """Graph of order n with the given integer code, unpacked column by column."""
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    if not 0 <= code < 1 << (n * (n - 1) // 2):
        raise ValueError(f"code {code} out of range for order {n}")
    rows = [0] * n
    for j in range(1, n):
        col = code >> (j * (j - 1) // 2) & ((1 << j) - 1)
        rows[j] = col
        for i in _bits(col):
            rows[i] |= 1 << j
    return Graph(n, tuple(rows))


# ---------------------------------------------------------------------------
# Structural queries
# ---------------------------------------------------------------------------

def _component_mask(g: Graph, start: int) -> int:
    seen = 1 << start
    frontier = seen
    while frontier:
        reach = 0
        for v in _bits(frontier):
            reach |= g.rows[v]
        frontier = reach & ~seen
        seen |= frontier
    return seen


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex lists of the connected components, ordered by smallest vertex."""
    remaining = (1 << g.n) - 1
    comps = []
    while remaining:
        start = (remaining & -remaining).bit_length() - 1
        mask = _component_mask(g, start)
        comps.append(_bits(mask))
        remaining &= ~mask
    return comps


def is_connected(g: Graph) -> bool:
    return _component_mask(g, 0) == (1 << g.n) - 1


def min_degree(g: Graph) -> int:
    return min(g.degrees())


def vertex_connectivity(g: Graph) -> int:
    """Minimum vertex cut size; n-1 for complete graphs, 0 when disconnected.

    Menger: for each non-adjacent pair (s, t), the maximum number of
    internally vertex-disjoint s-t paths equals the minimum s-t vertex cut.
    Computed as unit-capacity max flow on the vertex-split digraph.
    """
    if not is_connected(g):
        return 0
    if g.is_complete:
        return g.n - 1
    best = g.n - 2
    for s in range(g.n):
        for t in range(s + 1, g.n):
            if not g.has_edge(s, t):
                best = min(best, _split_flow(g, s, t, best))
                if best == 1:
                    return 1
    return best


def _split_flow(g: Graph, s: int, t: int, limit: int) -> int:
    # Nodes 2v (in) and 2v+1 (out); internal arcs carry capacity 1, edge
    # arcs are uncapacitated. Flow from out(s) to in(t); augmentation stops
    # at `limit` since the caller only needs min(limit, flow).
    n2 = 2 * g.n
    big = g.n
    cap = [[0] * n2 for _ in range(n2)]
    for v in range(g.n):
        cap[2 * v][2 * v + 1] = 1
    for u, v in g.edges():
        cap[2 * u + 1][2 * v] = big
        cap[2 * v + 1][2 * u] = big
    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while flow < limit:
        parent = [-1] * n2
        parent[source] = source
        queue = [source]
        while queue and parent[sink] == -1:
            nxt = []
            for u in queue:
                row = cap[u]
                for v in range(n2):
                    if row[v] > 0 and parent[v] == -1:
                        parent[v] = u
                        nxt.append(v)
            queue = nxt
        if parent[sink] == -1:
            break
        v = sink
        while v != source:
            u = parent[v]
            cap[u][v] -= 1
            cap[v][u] += 1
            v = u
        flow += 1
    return flow


# ---------------------------------------------------------------------------
# Isomorphism
# ---------------------------------------------------------------------------

#: Graphs per canonical search in canonical_codes.  The search's (batch, n, n)
#: int64 arrays grow with it: 128 KiB each for 256 graphs of order 8.
_CANONICAL_BATCH = 256


def _dense_rank(keys: np.ndarray) -> np.ndarray:
    """Rank of each key among the keys of its row, densely from 0.

    keys is (rows, n, d); keys compare lexicographically along the last axis.
    """
    rows, n, d = keys.shape
    flat = keys.reshape(rows * n, d)
    order = np.lexsort((*flat.T[::-1], np.repeat(np.arange(rows), n)))
    ranked = flat[order]
    new = np.ones(rows * n, dtype=np.int64)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    new[::n] = 1
    rank = np.cumsum(new).reshape(rows, n)
    out = np.empty(rows * n, dtype=np.int64)
    out[order] = (rank - rank[:, :1]).ravel()
    return out.reshape(rows, n)


def _equitable(adj: np.ndarray, colors: np.ndarray) -> np.ndarray:
    """Coarsest equitable refinement of each row's vertex colouring.

    Row k colours the graph adj[k] with colours below 2n.  Each round ranks
    every vertex by its key: its colour, then its neighbour count in each
    colour class.  A row is done when a round gains it no class.  Colours
    come back as 0..c-1, ranked by isomorphism-invariant keys.

    Key digits are below base 2n, so each run of `width` digits packs into
    one int64 word that compares as the run does, and a vertex's count
    digits are one product: adj @ (the place value of each neighbour's
    colour digit).
    """
    n = adj.shape[1]
    base, width = 2 * n, 1
    while base ** (width + 1) < 1 << 63:
        width += 1
    words = (2 * n + width) // width  # digit t = 0 (colour), 1 + c (count in colour c)
    digit = np.arange(words * width)
    place = np.zeros((words * width, words), dtype=np.int64)
    place[digit, digit // width] = base ** (width - 1 - digit % width)
    colors = colors.copy()
    classes = np.full(len(colors), -1)
    active = np.arange(len(colors))
    while len(active):
        old = colors[active]
        keys = adj[active] @ place[1 + old, :(old.max() + 1 + width) // width]
        keys[:, :, 0] += place[0, 0] * old
        refined = _dense_rank(keys)
        count = refined.max(axis=1)
        colors[active] = refined
        grew = count != classes[active]
        classes[active] = count
        active = active[grew]
    return colors


def _canonical_words(adj: np.ndarray) -> np.ndarray:
    """Canonical code of each graph in an (m, n, n) 0/1 adjacency batch.

    Row k holds the code of adj[k] in int64 words of 63 bits, least
    significant word first.

    Individualization-refinement (McKay & Piperno, J. Symbolic Comput. 60,
    2014), one search level of the whole batch at a time.  Each search row
    is a graph with a colouring, refined to equitable.  Twins (same
    neighbours apart from each other) are swapped by an automorphism, so a
    row whose colour classes are all twin classes is a leaf: its code is
    the adjacency bits after ordering the vertices by (colour, vertex).
    Any other row splits the first colour class that is not a twin class:
    one child per twin class in it, colouring that class's least vertex 2c
    and the rest 2c+1.  Each graph keeps its least leaf code, compared as
    an integer (highest bit first).
    """
    m, n, _ = adj.shape
    adj = adj.astype(np.int64)
    i, j = np.array(pairs(n), dtype=np.intp).reshape(-1, 2).T
    deg = adj.sum(axis=2)
    # Rows u and v differ off {u, v} in (Hamming distance - 2 adj[u, v]) places.
    twins = deg[:, :, None] + deg[:, None, :] - 2 * (adj @ adj) == 2 * adj
    graph = np.arange(m)
    colors = np.zeros((m, n), dtype=np.int64)
    owners, leaves = [], []
    while len(graph):
        colors = _equitable(adj[graph], colors)
        same = colors[:, :, None] == colors[:, None, :]
        # The least vertex of each vertex's class, and of its twin class
        # within that class.  Being twins is an equivalence relation, so a
        # class is a twin class iff the two agree on all its vertices, and
        # the vertices that are their own least twin are one per twin class.
        first = same.argmax(axis=1)
        least_twin = (same & twins[graph]).argmax(axis=1)
        clean = least_twin == first
        leaf = clean.all(axis=1)
        order = np.argsort(colors[leaf], axis=1, kind="stable")
        owners.append(graph[leaf])
        leaves.append(adj[graph[leaf][:, None], order[:, i], order[:, j]])
        colors, graph, clean, least_twin = (
            a[~leaf] for a in (colors, graph, clean, least_twin))
        split = np.where(clean, n, colors).min(axis=1)
        row, w = np.nonzero((colors == split[:, None]) & (least_twin == np.arange(n)))
        colors = 2 * colors[row] + (np.arange(n) != w[:, None])
        graph = graph[row]
    owner = np.concatenate(owners)
    bits = np.concatenate(leaves)
    size = len(i)  # code bits
    words = np.stack([bits[:, a:a + 63] @ (np.int64(1) << np.arange(min(63, size - a)))
                      for a in range(0, max(size, 1), 63)], axis=1)
    best = np.lexsort((*words.T, owner))
    return words[best[np.unique(owner[best], return_index=True)[1]]]


def canonical_codes(n: int, codes: np.ndarray) -> np.ndarray:
    """Canonical code of each order-n graph code (n <= 11), in batches.

    Each batch of _CANONICAL_BATCH graphs is one search (_canonical_words);
    the batch size bounds its memory and does not change any code.
    """
    codes = np.asarray(codes, dtype=np.int64)
    out = np.empty(len(codes), dtype=np.int64)
    for start in range(0, len(codes), _CANONICAL_BATCH):
        chunk = codes[start:start + _CANONICAL_BATCH]
        out[start:start + len(chunk)] = _canonical_words(adjacency(n, chunk))[:, 0]
    return out


def canonical_code(g: Graph) -> int:
    """Integer code that is equal exactly for isomorphic graphs of one order.

    The one-graph batch of _canonical_words, at any order.  Intended for
    small orders (n <= 10 or so); large twin-free vertex-transitive graphs
    still get the exact code, just slowly.
    """
    words = _canonical_words(g.adjacency_matrix()[None])[0]
    return sum(int(word) << 63 * k for k, word in enumerate(words))


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test: same order, same edge count, same canonical code.

    Intended for small orders, like canonical_code.
    """
    return (
        g1.n == g2.n
        and g1.edge_count == g2.edge_count
        and canonical_code(g1) == canonical_code(g2)
    )

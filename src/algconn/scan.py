"""Exhaustive small-order verification of the extremal statements.

The labeled graphs of order n are identified with integer codes 0 ..
2^(n(n-1)/2) - 1 (one bit per vertex pair, in graphs.pair_index order).
Every table is built by _table over a code array, in one pass of chunks on
one thread pool: per chunk, a clique-and-connectivity kernel computes each
code's clique number and connectivity, the rows the caller keeps are picked
from those two columns, and an alpha kernel eigensolves only the kept
connected rows.  The kernel reads only each code's columns (vertex v's lower
neighbours): a cached table holds the clique number of every graph on the
first n // 2 vertices within every vertex mask, each clique among the other
vertices adds its size to one lookup, and connectivity sweeps the columns.
The extremal scans keep only the graphs their theorem covers (omega <= r on
the max side, omega == r and connected on the min side), so every row of
their GraphTable is eligible and no other graph is eigensolved.  Of those,
a screen that reads the kept rows' code bits picks the rows a verdict can
depend on: on the max side those of minimum degree at least the Turan bound
(alpha <= minimum degree on a non-complete graph, Fiedler 1973), on the min
side those a Cholesky elimination cannot certify above the kite's alpha
plus SETTLE_MARGIN.  Only the picked rows' Laplacians are assembled.  The
other rows hold alpha NaN; _extremal_scan settles them unsolved when no
verdict can depend on them and eigensolves them otherwise, on the table's
thread count.  A chunk is 16,384 codes: the Python steps between NumPy's
loops hold the GIL, and at that width they are a small share of a chunk,
so pool threads overlap.  The kernel's columns and masks are uint16, which
keeps such a chunk to about 1.5 MB at order 8.

The max/min scans by enumeration and the supersaturation check run over
isomorphism classes instead: the omega, alpha and connectivity of a graph do
not depend on its labeling, so order n needs one row per class (1,044 at
n = 7, not 2^21 codes; 12,346 at n = 8, the highest order the max/min scans
enumerate), weighted by the number of labelings of the class.  The classes
are grown order by order from the previous order's representatives and
keyed in batches by graphs.canonical_codes; the weights are counted during
that growth.  The supersaturation check grows only the classes of bounded
maximum degree (the complements of its pruned candidates), which reaches
order 9.  A corpus scan tables its codes as given: the CLI hands over int64
code arrays decoded a block of graph6 text at a time
(graph6.read_code_blocks), with no Python object per record, and the Python
API also takes (order, code) pairs and Graphs, encoded once on the way in.
build_graph_table still tables every labeled code of an order up to 7, as
an independent labeled route to check the class route against; it solves
each code directly, through the same _table call as a corpus scan.

Scans emit certificates: the theoretical bound, the scanned extremum
(over every labeling of the achievers; a class table eigensolves those
labelings directly, with no second table),
the achievers up to isomorphism (each class as its first labeling in scan
order), the characterization verdict, and any counterexamples (there must
be none).  Labeled counts and listed graphs are the same as a scan over
every labeled graph in code order would give.  Certificates are
deterministic: identical inputs give byte-identical JSON.
"""

from __future__ import annotations

import functools
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from itertools import combinations, permutations

import numpy as np

from .cliques import contains_complete_multipartite, is_kr_free
from .graph6 import write_graph6
from .graphs import (
    Graph,
    adjacency,
    canonical_codes,
    complement,
    connected_components,
    decode,
    encode,
    induced_subgraph,
    is_isomorphic,
    kite,
    pairs,
    turan,
)
from .spectra import (
    BOUND_TOL,
    EQUALITY_TOL,
    PIVOT_TOL,
    SETTLE_MARGIN,
    STRICT_TOL,
    algebraic_connectivity,
    laplacians,
)

__all__ = [
    "GraphTable",
    "ExtremalCertificate",
    "SupersaturationReport",
    "DEFAULT_GUARD",
    "build_graph_table",
    "clear_table_cache",
    "verify_max_theorem",
    "verify_min_theorem",
    "check_join_characterization",
    "erdos_stone_trend",
    "verify_supersaturation",
]

DEFAULT_GUARD = 7

#: Codes per table chunk: wide enough that each NumPy call outweighs its
#: Python step (which holds the GIL), narrow enough that an order-8 corpus
#: table on two threads holds a few MB (tests/test_scan.py::TestWorkingSet).
_CHUNK = 1 << 14
#: Codes per eigensolve call where every code is solved (a screen's fallback,
#: a class's achiever labelings): a (_SOLVE_CHUNK, n, n) Laplacian batch.
_SOLVE_CHUNK = 1 << 12
#: Most violating labelings a supersaturation report lists; each is one graph6 string.
_MAX_VIOLATIONS = 1 << 20


@dataclass(frozen=True)
class GraphTable:
    """Per-row invariants over graphs of one order.

    Row i holds the graph with code codes[i].  Without weights each row is
    one labeled graph.  With weights each row is one isomorphism class:
    codes[i] is one of its labelings and weights[i] the number of them.
    """

    n: int
    omega: np.ndarray      # uint8
    alpha: np.ndarray      # float64; exactly 0.0 for disconnected codes, NaN if screened
    connected: np.ndarray  # bool
    codes: np.ndarray      # int64
    weights: np.ndarray | None = None  # int64

    @property
    def size(self) -> int:
        return len(self.omega)

    def labeled(self, rows: np.ndarray, first: int | None = None) -> np.ndarray:
        """Codes of the labeled graphs in these rows, in scan order.

        Labeled rows keep their order.  Class rows expand to every labeling
        of their class, or to the `first` lowest codes of it, sorted by code,
        as a scan over all codes meets them.
        """
        if self.weights is None:
            return self.codes[rows]
        parts = [_labelings(self.n, int(self.codes[row]))[:first] for row in rows]
        return np.sort(np.concatenate([np.zeros(0, np.int64), *parts]))


@functools.cache
def _clique_table(a: int) -> np.ndarray:
    """T[c, M]: clique number of the order-a graph with code c, induced on the vertex mask M.

    A uint8 array of shape (2^(a(a-1)/2), 2^a), read-only, as the cache
    shares it: the precomputed clique numbers of Östergård's maximum-clique
    algorithm (Discrete Appl. Math. 120, 2002), over every code at once.
    Filled in increasing M, with v = top(M) and col_v(c) its lower neighbours:
    T[c, M] = max(T[c, M - v], 1 + T[c, (M - v) & col_v(c)]).
    """
    codes = np.arange(1 << (a * (a - 1) // 2), dtype=np.int64)
    table = np.zeros((len(codes), 1 << a), np.uint8)
    for mask in range(1, 1 << a):
        v = mask.bit_length() - 1
        rest = mask ^ (1 << v)
        lower = codes >> (v * (v - 1) // 2) & rest  # v's neighbours in M - v
        table[:, mask] = np.maximum(table[:, rest], 1 + table[codes, lower])
    table.flags.writeable = False
    return table


def _clique_kernel(n: int, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(omega, connected) for each code, read from its code columns alone.

    Column v of a code (bits v(v-1)/2 on) holds v's lower neighbours.  The
    vertices split into A = {0..a-1}, a = n // 2, and B = {a..n-1}: G[A]'s
    code is the low a(a-1)/2 bits, and column v of a B vertex holds its A
    neighbours in its low a bits, then its lower B neighbours.  The subsets S
    of B are walked in increasing order: with t = top(S), S is a clique iff
    S - t is one and t's B neighbours cover S - t, and S's common A
    neighbourhood is that of S - t within t's A neighbours.  omega is the
    best |S| + T_a[G[A], common A neighbours of S] over the cliques S of B
    (_clique_table), 2^(n-a) steps.  Connectivity repeats, from vertex 0, an
    ascending pass (v joins if a lower neighbour is reached) and a descending
    one (a reached v adds its lower neighbours) until a round adds nothing:
    each edge u < v is a bit of column v, so the passes cross it both ways.
    """
    m, a = len(codes), n // 2
    low = (1 << a) - 1
    # Up to order 11 every column, mask and reach set is below 2^11 and every
    # lookup index below 2^15, so all of them are held as uint16.
    cols = [(codes >> (v * (v - 1) // 2) & ((1 << v) - 1)).astype(np.uint16) for v in range(n)]

    lookup = _clique_table(a).ravel()  # T_a[c, M] at c << a | M
    base = (codes & ((1 << (a * (a - 1) // 2)) - 1)).astype(np.uint16) << a
    omega = lookup[base | low]
    a_nbrs = [col & low for col in cols[a:]]
    b_nbrs = [col >> a for col in cols[a:]]  # bit i: vertex a + i
    clique, common = [np.ones(m, bool)], [np.full(m, low, np.uint16)]
    for s in range(1, 1 << (n - a)):
        t = s.bit_length() - 1
        rest = s ^ (1 << t)
        clique.append(clique[rest] & ((b_nbrs[t] & rest) == rest))
        common.append(common[rest] & a_nbrs[t])
        np.maximum(omega, (lookup[base | common[s]] + s.bit_count()) * clique[s], out=omega)

    reach, before = np.ones(m, np.uint16), None
    while not np.array_equal(reach, before):
        before = reach.copy()
        for v in range(1, n):
            reach |= ((cols[v] & reach) != 0).astype(np.uint16) << v
        for v in range(n - 1, 0, -1):
            reach |= cols[v] * (reach >> v & 1)
    return omega, reach == (1 << n) - 1


def _alpha_kernel(n: int, codes: np.ndarray, screen=None) -> np.ndarray:
    """Second-smallest Laplacian eigenvalue of each code, from one eigensolve of spectra.laplacians.

    `screen` maps the code array to a boolean mask of the rows to eigensolve
    (None: every row); the others hold NaN.  Only those rows' Laplacians are
    assembled for the eigensolve.
    """
    rows = slice(None) if screen is None else screen(codes)
    alpha = np.full(len(codes), np.nan)
    alpha[rows] = np.linalg.eigvalsh(laplacians(adjacency(n, codes[rows])))[:, 1]
    return alpha


def _pooled(solve, starts: range, jobs: int | None) -> list:
    """solve(start) for each chunk start, in order, on one thread pool.

    The pool has at most `jobs` threads (None: one per CPU the process may
    run on) and at most one per chunk.
    """
    if jobs is None:
        jobs = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=max(min(jobs, len(starts)), 1)) as pool:
        return list(pool.map(solve, starts))


def _alphas(n: int, codes: np.ndarray, jobs: int | None = 1) -> np.ndarray:
    """_alpha_kernel over a nonempty code array, _SOLVE_CHUNK codes at a time.

    At jobs=1 the chunks are solved on the calling thread, otherwise on
    _pooled's pool of up to `jobs` threads.
    """
    def solve(start: int) -> np.ndarray:
        return _alpha_kernel(n, codes[start:start + _SOLVE_CHUNK])

    starts = range(0, len(codes), _SOLVE_CHUNK)
    return np.concatenate([solve(start) for start in starts] if jobs == 1
                          else _pooled(solve, starts, jobs))


def _code_bits(n: int, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ends, bits, degrees) of an array of m order-n codes, one code per last-axis entry.

    ends[b] is the vertex pair of code bit b (graphs.pairs order), bits[b]
    that bit of every code as 0.0 or 1.0, shape (C(n,2), m), and degrees[v]
    vertex v's degree in every code, shape (n, m): one product of the bits
    with the pair-vertex incidence matrix.  The codes run along the last,
    contiguous axis, so every later step is one long NumPy loop.
    """
    ends = np.array(pairs(n), np.intp).reshape(-1, 2)
    bits = (codes >> np.arange(len(ends))[:, None] & 1).astype(np.float64)
    incidence = np.zeros((n, len(ends)))
    incidence[ends, np.arange(len(ends))[:, None]] = 1
    return ends, bits, incidence @ bits


def _min_degree(n: int, codes: np.ndarray) -> np.ndarray:
    """Minimum degree of each order-n code, counted from its bits."""
    return _code_bits(n, codes)[2].min(axis=0)


def _exceeds(n: int, codes: np.ndarray, floor: float) -> np.ndarray:
    """Which order-n codes have an alpha that provably exceeds floor.

    L + J has L's eigenvalues with the 0 of the all-ones vector raised to n,
    and alpha <= n, so L + J - floor*I is positive definite iff alpha > floor.
    That matrix is built from the code bits as one float64 stack with the
    codes on its last axis (1 - a_uv off the diagonal, the degree plus
    1 - floor on it), and a Cholesky elimination runs over the stack in
    place, n steps of row updates.  It certifies each code whose pivots all
    stay above PIVOT_TOL; a failed code's later steps update nothing.
    """
    ends, bits, degrees = _code_bits(n, codes)
    (i, j), diag = ends.T, np.arange(n)
    mat = np.empty((n, n, len(codes)))
    mat[i, j] = mat[j, i] = np.subtract(1, bits, out=bits)
    mat[diag, diag] = degrees + (1 - floor)
    ok = np.ones(len(codes), bool)
    for k in range(n):
        pivot = mat[k, k]
        ok &= pivot > PIVOT_TOL
        col = mat[k + 1:, k] * (ok / np.where(ok, pivot, 1))
        for row, scale in enumerate(col, k + 1):  # row by row: no (n-k-1)^2-entry temporary
            mat[row, k + 1:] -= scale * mat[k, k + 1:]
    return ok


def _table(n: int, codes: np.ndarray, weights: np.ndarray | None = None,
           jobs: int | None = None, keep=None, screen=None) -> GraphTable:
    """The invariant table over a code array, its rows in the array's order.

    One pass maps contiguous chunks of _CHUNK codes on _pooled's thread pool
    of at most `jobs` threads (None: one per CPU the process may run on; the
    eigenvalue kernel releases the GIL).  Each chunk computes its codes'
    omega and connectivity, keeps the rows `keep` picks (a function of those
    two columns returning a boolean row mask; None keeps every row and the
    table holds `codes` and `weights` as given) and eigensolves its kept
    connected rows: alpha is exactly 0.0 on the others.  `screen` is
    _alpha_kernel's, applied to those rows' codes: a kept connected row it
    leaves out holds alpha NaN, and no Laplacian is assembled for it.  The
    chunks' rows are joined in order, so the table is identical regardless
    of jobs.
    """
    def solve(start: int):
        chunk = codes[start:start + _CHUNK]
        omega, connected = _clique_kernel(n, chunk)
        kept = np.ones(len(chunk), bool) if keep is None else keep(omega, connected)
        omega, connected = omega[kept], connected[kept]
        alpha = np.zeros(len(omega))
        alpha[connected] = _alpha_kernel(n, chunk[kept][connected], screen)
        return kept, omega, alpha, connected

    parts = _pooled(solve, range(0, len(codes), _CHUNK), jobs)
    empty = (np.zeros(0, bool), np.zeros(0, np.uint8), np.zeros(0), np.zeros(0, bool))
    kept, omega, alpha, connected = (np.concatenate(column) for column in zip(empty, *parts))
    if keep is not None:
        codes, weights = codes[kept], None if weights is None else weights[kept]
    return GraphTable(n, omega, alpha, connected, codes, weights)


#: The labeled tables build_graph_table has built, by order.
_labeled_tables: dict[int, GraphTable] = {}


def build_graph_table(n: int, jobs: int | None = None) -> GraphTable:
    """Compute (or fetch from cache) the table of every labeled code of order n.

    The cache is keyed on n alone: `jobs` sets the threads of a build and
    changes no row.
    """
    if n < 2:
        raise ValueError(f"table needs order >= 2, got {n}")
    if n > 7:
        raise ValueError(
            f"full table for order {n} would hold 2^{n * (n - 1) // 2} codes; "
            "use corpus mode beyond order 7"
        )
    if n not in _labeled_tables:
        _labeled_tables[n] = _table(n, np.arange(1 << (n * (n - 1) // 2), dtype=np.int64),
                                    jobs=jobs)
    return _labeled_tables[n]


clear_table_cache = _labeled_tables.clear


@functools.cache
def _classes(n: int, dcap: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(codes, weights): the isomorphism classes of order n, as int64 arrays.

    codes[i] is a class's canonical code, ascending, and weights[i] its
    number of labelings; both are read-only, as the cache shares them.
    With dcap, only the classes of maximum degree <= dcap; None means all.
    Order n grows from the order n-1 representatives: the new vertex n-1
    takes each of its 2^(n-1) neighbour sets, and all the (parent, neighbour
    set) children are keyed by one graphs.canonical_codes call, which
    searches them in fixed batches (the growth of McKay, "Isomorph-free
    exhaustive generation", J. Algorithms 26, 1998, without its canonical
    augmentation).  Order 7 keys 9,984 children, order 8 133,632.
    Each labeled order-n graph is exactly one labeled order-(n-1) graph plus
    one neighbour set of vertex n-1, and relabeling a parent maps its
    neighbour sets onto those of the same classes.  So a class's labelings
    number the sum of its parent classes' labelings over the (parent,
    neighbour set) pairs that land in it: no automorphism group is counted.
    A degree cap keeps that exact, because deleting a vertex raises no
    degree: the capped graphs grow from the capped parents alone, and only
    the children within the cap (a neighbour set of at most dcap vertices,
    each still below dcap in the parent's adjacency degrees) are keyed.
    """
    if n == 1:
        codes, weights = np.zeros(1, np.int64), np.ones(1, np.int64)
    else:
        shift = (n - 1) * (n - 2) // 2  # bit offset of column n-1 in a code
        parents, parent_weights = _classes(n - 1, dcap)
        sets = np.arange(1 << (n - 1), dtype=np.int64)
        children = (parents[:, None] | sets << shift).ravel()
        inherited = np.repeat(parent_weights, len(sets))
        if dcap is not None:
            at_cap = (adjacency(n - 1, parents).sum(axis=2) >= dcap) @ (1 << np.arange(n - 1))
            size = adjacency(n, sets << shift)[:, n - 1].sum(axis=1)
            within = (((at_cap[:, None] & sets) == 0) & (size <= dcap)).ravel()
            children, inherited = children[within], inherited[within]
        codes, owner = np.unique(canonical_codes(n, children), return_inverse=True)
        weights = np.zeros(len(codes), dtype=np.int64)
        np.add.at(weights, owner, inherited)
    codes.flags.writeable = weights.flags.writeable = False
    return codes, weights


@functools.cache
def _pair_images(n: int) -> np.ndarray:
    """images[b, p]: the code bit that the p-th permutation of range(n) sends bit b to."""
    i, j = np.array(pairs(n), dtype=np.intp).reshape(-1, 2).T
    bit = np.zeros((n, n), np.uint8)  # bit[u, v]: the code bit of pair {u, v}
    bit[i, j] = bit[j, i] = np.arange(len(i))
    perms = np.array(list(permutations(range(n))), dtype=np.uint8)
    return np.ascontiguousarray(bit[perms[:, i], perms[:, j]].T)


def _labelings(n: int, code: int) -> np.ndarray:
    """Sorted codes of every labeling of the order-n graph with this code."""
    images = _pair_images(n)
    out = np.zeros(images.shape[1], np.int64)
    for b in range(len(images)):
        if code >> b & 1:
            out |= np.left_shift(1, images[b], dtype=np.int64)  # int64 under any promotion rules
    out.sort()
    return out[np.diff(out, prepend=-1) != 0]  # np.unique would import numpy.ma


def _corpus_table(corpus, n: int, jobs: int | None, keep=None, screen=None) -> GraphTable:
    """Invariant table over a corpus of order-n graphs, consumed once, rows in order.

    Each item is a Graph, encoded here, an (order, code) pair as
    graph6.read_codes yields, or an (order, codes) pair whose codes are an
    int64 array, as graph6.read_code_blocks yields for a run of records.
    Codes are tabled as given if 0 <= code < 2^(n(n-1)/2); `keep` and
    `screen` are _table's.
    """
    if n > 11:
        raise ValueError(f"corpus order {n} beyond 11: its codes would not fit in 64 bits")
    blocks, run = [], []
    for item in corpus:
        order, code = (item.n, encode(item)) if isinstance(item, Graph) else item
        if order != n:
            raise ValueError(f"corpus graph of order {order}, expected {n}")
        if isinstance(code, np.ndarray):
            blocks += [np.array(run, np.int64), code]
            run = []
        else:
            run.append(code)
    codes = np.concatenate([*blocks, np.array(run, np.int64)])
    if len(bad := np.flatnonzero(codes >> (n * (n - 1) // 2))):
        raise ValueError(f"corpus item {bad[0]}: code {codes[bad[0]]} out of range for order {n}")
    return _table(n, codes, jobs=jobs, keep=keep, screen=screen)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass
class ExtremalCertificate:
    """Outcome of one exhaustive extremal scan."""

    n: int
    r: int
    mode: str
    bound: float
    achieved: float
    achievers: list[str]
    characterization_ok: bool
    counterexamples: list[dict]
    graphs_scanned: int
    source: str

    @property
    def ok(self) -> bool:
        return self.characterization_ok and not self.counterexamples

    to_dict = asdict  # keys in field order

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _scan_input(n: int, guard: int, jobs: int | None, corpus, keep=None,
                screen=None) -> GraphTable:
    """The table a scan reads.

    A corpus gives a labeled table over its graphs; enumeration gives the
    class table.  Both are built by _table on up to `jobs` threads, hold
    only the rows `keep` picks (None: every row) and eigensolve only the
    connected rows `screen` picks (None: every one).
    """
    if corpus is not None:
        return _corpus_table(corpus, n, jobs, keep, screen)
    if n > guard:
        raise ValueError(
            f"order {n} exceeds the enumeration guard {guard}; supply a corpus"
        )
    if n > 8:
        # Order n has at least the 12,346 classes of order 8, each grown by
        # 2^(n-1) neighbour sets.
        raise ValueError(
            f"order {n} would key at least {12_346 << (n - 1):,} grown graphs, "
            "against 133,632 at order 8; supply a corpus beyond order 8"
        )
    return _table(n, *_classes(n), jobs, keep, screen)


def _counterexample(g: Graph, reason: str) -> dict:
    return {"graph6": write_graph6(g), "alpha": algebraic_connectivity(g), "reason": reason}


def _extremal_scan(
    table: GraphTable, r: int, mode: str, *, bound: float, beyond, settled: float,
    target: Graph, achieves, jobs: int | None = None,
) -> ExtremalCertificate:
    """Certificate for one side of an extremal statement over a graph table.

    Every row of the table is one the statement covers; `beyond` maps alphas
    to the mask of those that break the bound.  The extremum of alpha must
    equal the bound, attained by `target`; every equality achiever, up to
    isomorphism, must pass `achieves`.  `achieved` is the extremum over every
    labeling of the achievers (rows within EQUALITY_TOL of the extremum): a
    labeled table's rows are those labelings, and a class table's are
    eigensolved directly, on the calling thread.  That is exact because every
    achiever is connected: the min side keeps only connected rows, and on the
    max side the class table holds T_{n,r}, whose alpha is at least 1, so
    every row within EQUALITY_TOL of the extremum has alpha > 0.

    A row the table's screen left unsolved (alpha NaN) has alpha at most
    `settled` on the max side and above it on the min side.  Settle or
    solve: if settled lies more than EQUALITY_TOL inside the extremum of the
    solved rows and is not beyond, no unsolved row can be an achiever or a
    counterexample, and settled stands in for each of them.  Otherwise, as
    when every row was screened, the unsolved rows are eigensolved, on up to
    `jobs` threads as the table was.
    """
    if not table.size:
        raise ValueError("corpus contained no eligible graphs")
    alpha = table.alpha
    unsolved = np.isnan(alpha)
    if unsolved.any():
        solved = alpha[~unsolved]
        inside = solved.size and (settled < solved.max() - EQUALITY_TOL if mode == "max"
                                  else settled > solved.min() + EQUALITY_TOL)
        if inside and not beyond(settled):
            alpha = np.where(unsolved, settled, alpha)
        else:
            alpha = alpha.copy()
            alpha[unsolved] = _alphas(table.n, table.codes[unsolved], jobs)
    extremum = alpha.max() if mode == "max" else alpha.min()
    hits = np.nonzero(np.abs(alpha - extremum) <= EQUALITY_TOL)[0]
    exact = alpha[hits] if table.weights is None else _alphas(table.n, table.labeled(hits))
    achieved = float(exact.max() if mode == "max" else exact.min())
    reason = "bound-exceeded" if mode == "max" else "bound-undershot"
    counterexamples = [
        _counterexample(decode(table.n, int(code)), reason)
        for code in table.labeled(np.nonzero(beyond(alpha))[0], first=20)[:20]
    ]
    if abs(achieved - bound) > EQUALITY_TOL:
        counterexamples.append(
            {"graph6": write_graph6(target), "alpha": bound, "reason": "extremum-mismatch"}
        )
    # Each row's first labeling; labeled rows of one class share a canonical code.
    firsts = table.labeled(hits, first=1)
    keys = canonical_codes(table.n, firsts)
    reps = [decode(table.n, int(code))
            for code in firsts[np.sort(np.unique(keys, return_index=True)[1])]]
    failing = [g for g in reps if not achieves(g)]
    counterexamples += [_counterexample(g, "characterization-failed") for g in failing[:20]]
    return ExtremalCertificate(
        n=table.n, r=r, mode=mode, bound=bound, achieved=achieved,
        achievers=[write_graph6(g) for g in reps],
        characterization_ok=not failing,
        counterexamples=counterexamples,
        graphs_scanned=int(table.size if table.weights is None else table.weights.sum()),
        source="corpus" if table.weights is None else "enumeration",
    )


def verify_max_theorem(
    n: int,
    r: int,
    *,
    guard: int = DEFAULT_GUARD,
    tol: float = BOUND_TOL,
    jobs: int | None = None,
    corpus=None,
) -> ExtremalCertificate:
    """Scan every non-complete K_{r+1}-free labeled graph of order n.

    Verifies that alpha never exceeds the Turan value n - ceil(n/r), and
    that the equality achievers match the characterization: the Turan graph
    alone when n is 0 or r-1 mod r, otherwise a join of empty parts onto a
    sufficiently connected remainder (see check_join_characterization).
    With a corpus (an iterable of order-n graphs, of (order, code) pairs as
    graph6.read_codes yields, or of (order, code array) pairs as
    graph6.read_code_blocks yields) only its graphs are scanned.
    """
    if not 2 <= r < n:
        raise ValueError(f"need 2 <= r < n, got r={r}, n={n}")
    bound = float(n - -(n // -r))
    target = turan(n, r)
    if n % r in (0, r - 1):
        achieves = lambda g: is_isomorphic(g, target)
    else:
        achieves = lambda g: check_join_characterization(g, r, tol)
    # omega <= r < n also excludes the complete graph, so Fiedler's alpha <=
    # minimum degree holds on every row: below the integer bound, alpha <= bound - 1.
    table = _scan_input(n, guard, jobs, corpus, keep=lambda omega, connected: omega <= r,
                        screen=lambda codes: _min_degree(n, codes) >= bound)
    return _extremal_scan(
        table, r, "max", bound=bound, beyond=lambda alpha: alpha > bound + tol,
        settled=bound - 1, target=target, achieves=achieves, jobs=jobs,
    )


def verify_min_theorem(
    n: int,
    r: int,
    *,
    guard: int = DEFAULT_GUARD,
    tol: float = BOUND_TOL,
    jobs: int | None = None,
    corpus=None,
) -> ExtremalCertificate:
    """Scan every connected labeled graph of order n with clique number exactly r.

    Verifies that alpha never drops below the kite graph's value and that
    every equality achiever is isomorphic to the kite.  With a corpus (an
    iterable of order-n graphs, of (order, code) pairs as graph6.read_codes
    yields, or of (order, code array) pairs as graph6.read_code_blocks
    yields) only its graphs are scanned.
    """
    if not 2 <= r <= n:
        raise ValueError(f"need 2 <= r <= n, got r={r}, n={n}")
    target = kite(n, r)
    bound = algebraic_connectivity(target)
    settled = bound + SETTLE_MARGIN
    table = _scan_input(n, guard, jobs, corpus,
                        keep=lambda omega, connected: (omega == r) & connected,
                        screen=lambda codes: ~_exceeds(n, codes, settled))
    return _extremal_scan(
        table, r, "min", bound=bound, beyond=lambda alpha: alpha < bound - tol,
        settled=settled, target=target, achieves=lambda g: is_isomorphic(g, target), jobs=jobs,
    )


def check_join_characterization(g: Graph, r: int, tol: float = BOUND_TOL) -> bool:
    """Test the join form required of equality achievers when 0 < n mod r < r-1.

    With n = g.n = kr + t, g passes iff it has t independent (k+1)-sets, each
    joined to every other vertex, whose removal leaves an induced subgraph H
    that is K_{r+1-t}-free with alpha(H) >= n - (k+1)(t+1).  Those sets are
    exactly the complement components of order k+1 with no edge in g.
    """
    n = g.n
    if not 2 <= r < n:
        raise ValueError(f"need 2 <= r < n, got r={r}, n={n}")
    k, t = divmod(n, r)
    if not 0 < t < r - 1:
        raise ValueError(f"characterization applies only for 0 < n mod r < r-1, got t={t}")
    parts = [
        c for c in connected_components(complement(g))
        if len(c) == k + 1 and induced_subgraph(g, c).edge_count == 0
    ]
    floor = n - (k + 1) * (t + 1)
    for chosen in combinations(parts, t):
        taken = {v for part in chosen for v in part}
        h = induced_subgraph(g, [v for v in range(n) if v not in taken])
        if is_kr_free(h, r + 1 - t) and algebraic_connectivity(h) >= floor - tol:
            return True
    return False


def erdos_stone_trend(r: int, n_max: int) -> list[tuple[int, Fraction]]:
    """Exact ratios alpha(T_{n,r})/n for n = r..n_max.

    Each ratio is (n - ceil(n/r))/n as a Fraction; it equals 1 - 1/r exactly
    when r divides n and deviates by (r - n mod r)/(rn) < 1/n otherwise.
    """
    from fractions import Fraction  # only the trend needs it; a scan command skips the import

    if r < 2:
        raise ValueError(f"need r >= 2, got {r}")
    if n_max < r:
        raise ValueError(f"need n_max >= r, got {n_max}")
    return [
        (n, Fraction(n - -(n // -r), n))
        for n in range(r, n_max + 1)
    ]


@dataclass
class SupersaturationReport:
    """Check that high connectivity forces a balanced multipartite subgraph.

    Every graph of order n with alpha >= n - ceil(n/r) + epsilon*n must
    contain the complete r-partite graph with parts of size k (as a
    subgraph).  graphs_scanned is the full labeled space the verdict covers;
    candidates_examined counts the labeled graphs the sound spectral prune
    leaves (see source), whose isomorphism classes had alpha evaluated.
    """

    n: int
    r: int
    k: int
    epsilon: float
    threshold: float
    parts: list[int]
    qualifying: int
    violations: list[str]
    vacuous: bool
    graphs_scanned: int
    candidates_examined: int
    source: str

    @property
    def ok(self) -> bool:
        return not self.violations

    to_dict = asdict  # keys in field order

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def verify_supersaturation(
    n: int,
    r: int,
    k: int,
    epsilon: float,
    *,
    guard: int = DEFAULT_GUARD,
) -> SupersaturationReport:
    """Desk-scale supersaturation check over all labeled graphs of order n.

    The scan stays exhaustive at every order 2..9 via a sound prune:
    alpha(G) = n - lambda_1(complement), and lambda_1 >= max degree + 1 for
    any graph with an edge, so only graphs whose complement has max degree
    <= dcap = n - threshold - 1 can qualify.  Those complements are grown
    as isomorphism classes (_classes(n, dcap)), and their graphs are tabled
    one row per class.  Counts are weighted by the classes' labelings, and
    each violating class lists all its labelings, so the report is the one
    a scan over every labeled candidate in code order would give.  A report
    that would list more than _MAX_VIOLATIONS labelings is refused.
    """
    if r < 2 or k < 1:
        raise ValueError(f"need r >= 2 and k >= 1, got r={r}, k={k}")
    if k * r > 8:
        raise ValueError(f"containment guard: k*r = {k * r} > 8")
    if epsilon <= 0:
        raise ValueError(f"need epsilon > 0, got {epsilon}")
    if n > guard:
        raise ValueError(
            f"order {n} exceeds the enumeration guard {guard}; raise it explicitly"
        )
    if n < 2:
        raise ValueError(f"table needs order >= 2, got {n}")
    if n > 9:
        raise ValueError(f"order {n} beyond the exhaustive range (max 9)")
    threshold = n - -(n // -r) + epsilon * n
    parts = [k] * r
    total = 1 << (n * (n - 1) // 2)
    dcap = max(int(n - threshold - 1 + STRICT_TOL), 0)
    complements, weights = _classes(n, dcap)
    table = _table(n, (total - 1) ^ complements, weights)

    hit = np.nonzero(table.alpha >= threshold - STRICT_TOL)[0]
    failing = np.array([
        row for row in hit
        if n < k * r or not contains_complete_multipartite(decode(n, int(table.codes[row])), parts)
    ], dtype=np.int64)
    qualifying = int(weights[hit].sum())
    listed = int(weights[failing].sum())
    if listed > _MAX_VIOLATIONS:
        raise ValueError(
            f"{listed:,} violating labelings to list, above the limit of {_MAX_VIOLATIONS:,}"
        )
    return SupersaturationReport(
        n=n, r=r, k=k, epsilon=epsilon, threshold=threshold, parts=parts,
        qualifying=qualifying,
        violations=[write_graph6(decode(n, int(code))) for code in table.labeled(failing)],
        vacuous=qualifying == 0, graphs_scanned=total,
        candidates_examined=int(weights.sum()),
        source=f"pruned-enumeration (complement max degree <= {dcap})",
    )

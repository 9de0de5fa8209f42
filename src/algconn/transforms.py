"""Pendant-path rewrites and their effect on algebraic connectivity.

Three rewrites on graphs carrying pendant paths ("tails"):

  * grafting: detach a tail from its root and splice it onto the end of the
    other tail (two symmetric variants);
  * sliding: move the last vertex of the shorter of two same-root tails to
    the end of the longer one;
  * switching: on a clique with two tails, re-attach the hub vertices so one
    tail grows and the other shrinks.

Each rewrite preserves vertex and edge counts.  The checkers below verify
numerically that alpha moves the way the corresponding monotonicity claims
say it must, and report Fiedler sign structure where that structure is the
hypothesis of a claim.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CounterexampleError
from .graphs import (
    Graph,
    TailedCliqueSpec,
    add_edge,
    kite,
    remove_edge,
    tailed_clique,
    theta_kite,
)
from .spectra import STRICT_TOL, algebraic_connectivity, fiedler_vector

__all__ = [
    "TailSpec",
    "GraftCheck",
    "SlideCheck",
    "FiedlerSignReport",
    "tailed_clique_tails",
    "graft_endpoints",
    "slide_tail",
    "switch_clique_attachment",
    "check_graft_inequality",
    "check_slide_inequality",
    "fiedler_sign_report",
    "theta_vs_kite",
    "kite_minimality_chain",
    "tailed_clique_sweep",
]


@dataclass(frozen=True)
class TailSpec:
    """A pendant path: its root in the base graph and its vertices in path order."""

    root: int
    vertices: tuple[int, ...]

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("tail must have at least one vertex")
        if self.root in self.vertices or len(set(self.vertices)) != len(self.vertices):
            raise ValueError("tail vertices must be distinct and exclude the root")

    @property
    def length(self) -> int:
        return len(self.vertices)

    @property
    def end(self) -> int:
        return self.vertices[-1]

    def validate(self, g: Graph) -> None:
        """Check that this really is a pendant path of g."""
        chain = (self.root,) + self.vertices
        for v in chain:
            if not 0 <= v < g.n:
                raise ValueError(f"vertex {v} out of range")
        for a, b in zip(chain, chain[1:]):
            if not g.has_edge(a, b):
                raise ValueError(f"missing tail edge ({a}, {b})")
        for v in self.vertices[:-1]:
            if g.degree(v) != 2:
                raise ValueError(f"tail vertex {v} has extra edges")
        if g.degree(self.end) != 1:
            raise ValueError(f"tail end {self.end} is not pendant")


def tailed_clique_tails(spec: TailedCliqueSpec) -> tuple[TailSpec, TailSpec]:
    """The two tails of the canonical tailed-clique layout (roots 0 and 1)."""
    if spec.k < 1 or spec.l < 1:
        raise ValueError("both tails must be nonempty")
    first = TailSpec(0, tuple(range(spec.r, spec.r + spec.k)))
    second = TailSpec(1, tuple(range(spec.r + spec.k, spec.n)))
    return first, second


def _check_disjoint(p: TailSpec, q: TailSpec) -> None:
    if p.root == q.root:
        raise ValueError("tails share a root")
    pset = {p.root, *p.vertices}
    qset = {q.root, *q.vertices}
    if pset & qset:
        raise ValueError("tails overlap")


def graft_endpoints(g: Graph, p: TailSpec, q: TailSpec) -> tuple[Graph, Graph]:
    """Both end-graftings: p spliced onto q's end, and q spliced onto p's end.

    The first result removes the root edge of p and joins p's first vertex to
    q's end; the second does the mirror image.  Orders and edge counts are
    unchanged.
    """
    p.validate(g)
    q.validate(g)
    _check_disjoint(p, q)
    onto_q = add_edge(remove_edge(g, p.root, p.vertices[0]), p.vertices[0], q.end)
    onto_p = add_edge(remove_edge(g, q.root, q.vertices[0]), q.vertices[0], p.end)
    return onto_q, onto_p


def slide_tail(g: Graph, p: TailSpec, q: TailSpec) -> Graph:
    """Move the last vertex of q to extend p; both tails must share their root."""
    p.validate(g)
    q.validate(g)
    if p.root != q.root:
        raise ValueError("sliding needs tails at the same root")
    if set(p.vertices) & set(q.vertices):
        raise ValueError("tails overlap")
    if p.length < q.length:
        raise ValueError("first tail must be at least as long as the second")
    prev = q.vertices[-2] if q.length >= 2 else q.root
    return add_edge(remove_edge(g, prev, q.end), p.end, q.end)


def switch_clique_attachment(spec: TailedCliqueSpec) -> tuple[Graph, Graph]:
    """Re-attach the hub vertices of a tailed clique toward one tail or the other.

    Returns (grow-first-tail, grow-second-tail); they are isomorphic to the
    tailed cliques with parameters (k+1, l-1) and (k-1, l+1).
    """
    if spec.k < 1 or spec.l < 1:
        raise ValueError("switching needs both tails nonempty")
    g = tailed_clique(spec.r, spec.k, spec.l)
    hubs = range(2, spec.r)
    u, v = 0, 1
    u1, v1 = spec.r, spec.r + spec.k
    grow_first = g
    grow_second = g
    for w in hubs:
        grow_first = add_edge(remove_edge(grow_first, u, w), v1, w)
        grow_second = add_edge(remove_edge(grow_second, v, w), u1, w)
    return grow_first, grow_second


@dataclass(frozen=True)
class GraftCheck:
    """Numeric check of the end-grafting inequality on one instance."""

    alpha: float
    alpha_onto_q: float
    alpha_onto_p: float
    end_product: float
    multiplicity: int
    hypothesis_holds: bool
    conclusion_ok: bool | None  # None when the hypothesis fails or alpha is degenerate


def check_graft_inequality(g: Graph, p: TailSpec, q: TailSpec) -> GraftCheck:
    """Verify alpha(g) >= min over both graftings, when the sign hypothesis holds.

    The claim is conditional on the Fiedler products of the two tail ends
    being nonnegative, and only meaningful for a simple alpha; other cases
    are reported with conclusion_ok = None rather than asserted.
    """
    onto_q, onto_p = graft_endpoints(g, p, q)
    fv = fiedler_vector(g)
    product = float(fv.values[p.end] * fv.values[q.end])
    alpha = fv.alpha
    a_q = algebraic_connectivity(onto_q)
    a_p = algebraic_connectivity(onto_p)
    hypothesis = product >= 0
    if not hypothesis or fv.multiplicity > 1:
        return GraftCheck(alpha, a_q, a_p, product, fv.multiplicity, hypothesis, None)
    ok = alpha >= min(a_q, a_p) - STRICT_TOL
    if not ok:
        raise CounterexampleError(
            f"grafting inequality violated: alpha={alpha} < min({a_q}, {a_p})"
        )
    return GraftCheck(alpha, a_q, a_p, product, fv.multiplicity, hypothesis, ok)


@dataclass(frozen=True)
class SlideCheck:
    """Numeric check of the tail-sliding inequality on one instance."""

    alpha: float
    alpha_slid: float
    strict: bool
    first_coords: tuple[float, float]


def check_slide_inequality(g: Graph, p: TailSpec, q: TailSpec) -> SlideCheck:
    """Verify alpha does not increase under sliding (k >= l >= 1).

    Strictness depends on which Fiedler vector the solver returns when alpha
    is degenerate, so it is reported, not asserted.
    """
    slid = slide_tail(g, p, q)
    alpha = algebraic_connectivity(g)
    alpha_slid = algebraic_connectivity(slid)
    if alpha < alpha_slid - STRICT_TOL:
        raise CounterexampleError(
            f"sliding inequality violated: alpha={alpha} < {alpha_slid}"
        )
    fv = fiedler_vector(g)
    coords = (float(fv.values[p.vertices[0]]), float(fv.values[q.vertices[0]]))
    return SlideCheck(alpha, alpha_slid, alpha > alpha_slid + STRICT_TOL, coords)


@dataclass(frozen=True)
class FiedlerSignReport:
    """Fiedler sign structure of a tailed clique.

    hub_spread is the max-min range over the hub coordinates (they must
    coincide for a simple alpha); end_product is X(end of first tail) times
    X(end of second tail); monotone_ok records whether the coordinates rise
    strictly from hub through root to the end along the positive-end tail.
    Degenerate alpha (multiplicity > 1) marks the report skipped: an
    arbitrary basis vector need not show the structure coordinate-wise.
    """

    spec: TailedCliqueSpec
    alpha: float
    multiplicity: int
    skipped: bool
    hub_spread: float | None
    end_product: float | None
    monotone_ok: bool | None


def fiedler_sign_report(spec: TailedCliqueSpec) -> FiedlerSignReport:
    if spec.k < 1 or spec.l < 1:
        raise ValueError("sign structure needs both tails nonempty")
    g = tailed_clique(spec.r, spec.k, spec.l)
    fv = fiedler_vector(g)
    if fv.multiplicity > 1:
        return FiedlerSignReport(spec, fv.alpha, fv.multiplicity, True, None, None, None)
    x = fv.values
    hubs = x[2:spec.r]
    spread = float(hubs.max() - hubs.min()) if len(hubs) else 0.0
    first_end = spec.r + spec.k - 1
    second_end = spec.n - 1
    product = float(x[first_end] * x[second_end])
    # Orient so the hubs sit on the nonnegative side, then walk out along
    # whichever tail has the positive end.
    hub_value = float(hubs.mean()) if len(hubs) else 0.0
    if hub_value < 0:
        x = -x
        hub_value = -hub_value
    if x[first_end] > 0:
        root, tail = 0, list(range(spec.r, spec.r + spec.k))
    else:
        root, tail = 1, list(range(spec.r + spec.k, spec.n))
    walk = [hub_value, float(x[root])] + [float(x[t]) for t in tail]
    monotone = all(a < b for a, b in zip(walk, walk[1:]))
    return FiedlerSignReport(spec, fv.alpha, fv.multiplicity, False, spread, product, monotone)


def theta_vs_kite(r: int, k: int) -> tuple[float, float]:
    """Alpha of the theta-kite versus the kite of the same order; first must win."""
    alpha_theta = algebraic_connectivity(theta_kite(r, k))
    alpha_kite = algebraic_connectivity(kite(r + k, r))
    if not alpha_theta > alpha_kite + STRICT_TOL:
        raise CounterexampleError(
            f"theta-kite comparison failed at (r={r}, k={k}): "
            f"{alpha_theta} <= {alpha_kite}"
        )
    return alpha_theta, alpha_kite


def kite_minimality_chain(r: int, n: int) -> list[tuple[int, int, float]]:
    """Alpha over all two-tail splits of n - r, shown strictly above the kite.

    Entries (k, l, alpha) for k + l = n - r with k >= l >= 1, ascending in k.
    Verifies that alpha strictly decreases as the split becomes more lopsided
    and that every entry strictly exceeds alpha(kite(n, r)).
    """
    if r < 3:
        raise ValueError(f"clique order must be >= 3, got {r}")
    total = n - r
    if total < 2:
        raise ValueError(f"need n >= r + 2, got n={n}, r={r}")
    rows = []
    for k in range((total + 1) // 2, total):
        l = total - k
        rows.append((k, l, algebraic_connectivity(tailed_clique(r, k, l))))
    alpha_kite = algebraic_connectivity(kite(n, r))
    for (k1, l1, a1), (k2, l2, a2) in zip(rows, rows[1:]):
        if not a1 > a2 + STRICT_TOL:
            raise CounterexampleError(
                f"switch monotonicity failed at r={r}: "
                f"alpha({k1},{l1})={a1} <= alpha({k2},{l2})={a2}"
            )
    for k, l, a in rows:
        if not a > alpha_kite + STRICT_TOL:
            raise CounterexampleError(
                f"kite minimality failed at r={r}: alpha({k},{l})={a} "
                f"<= alpha(kite({n},{r}))={alpha_kite}"
            )
    return rows


def tailed_clique_sweep(rs=(3, 4, 5), max_total: int = 10) -> list[tuple[int, int, int, float]]:
    """(r, k, l, alpha) over the standard verification grid, deterministic order."""
    out = []
    for r in rs:
        for total in range(2, max_total + 1):
            for k in range((total + 1) // 2, total):
                l = total - k
                out.append((r, k, l, algebraic_connectivity(tailed_clique(r, k, l))))
    return out

"""Closed-form bounds linking algebraic connectivity, clique number, and degrees.

For a connected non-complete graph with clique number r:

    n/(n - alpha) <= r <= n + 1 - 4/(n * alpha)
    alpha <= nu <= delta <= 2e/n

The lower bound is tight exactly at Turan graphs whose part count divides n;
the upper bound comes from the kite graph being alpha-minimal at fixed r.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

from .cliques import max_clique
from .errors import CompleteGraphError, CounterexampleError, DisconnectedGraphError
from .graph6 import write_graph6
from .graphs import Graph, is_connected, min_degree, vertex_connectivity
from .spectra import BOUND_TOL, EQUALITY_TOL, algebraic_connectivity

__all__ = [
    "BoundsReport",
    "clique_lower_bound",
    "clique_upper_bound",
    "kite_alpha_floor",
    "degree_chain",
    "sandwich_report",
]


def clique_lower_bound(n: int, alpha: float) -> float:
    """Lower bound n/(n - alpha) on the clique number."""
    if alpha <= 0:
        raise DisconnectedGraphError("lower bound needs alpha > 0 (connected graph)")
    if alpha >= n:
        raise CompleteGraphError("bound undefined for complete graphs (alpha = n)")
    return n / (n - alpha)


def clique_upper_bound(n: int, alpha: float) -> float:
    """Upper bound n + 1 - 4/(n*alpha) on the clique number."""
    if alpha <= 0:
        raise DisconnectedGraphError("upper bound needs alpha > 0 (connected graph)")
    return n + 1 - 4 / (n * alpha)


def kite_alpha_floor(n: int, r: int) -> float:
    """Closed-form floor 4/(n(n-r+1)) under the kite graph's connectivity."""
    if not 2 <= r <= n:
        raise ValueError(f"need 2 <= r <= n, got r={r}, n={n}")
    return 4 / (n * (n - r + 1))


def degree_chain(g: Graph, tol: float = BOUND_TOL) -> tuple[float, int, int, float]:
    """(alpha, nu, delta, 2e/n) for a connected non-complete graph, chain verified to tol."""
    if not is_connected(g):
        raise DisconnectedGraphError("degree chain needs a connected graph")
    if g.is_complete:
        raise CompleteGraphError("chain not applicable: alpha(K_n) = n > nu = n - 1")
    alpha = algebraic_connectivity(g)
    nu = vertex_connectivity(g)
    delta = min_degree(g)
    avg = 2 * g.edge_count / g.n
    if not (alpha <= nu + tol and nu <= delta and delta <= avg + tol):
        raise CounterexampleError(
            f"degree chain violated: alpha={alpha}, nu={nu}, delta={delta}, 2e/n={avg}"
        )
    return alpha, nu, delta, avg


@dataclass(frozen=True)
class BoundsReport:
    """Two-sided clique bounds plus the degree chain for one graph.

    `lower` and `upper` are None for complete graphs, where the bounds are
    inapplicable and omega = n is reported directly.  `lower_ceil` and
    `upper_floor` are the integer brackets implied by integrality of omega.
    """

    n: int
    alpha: float
    omega: int
    lower: float | None
    upper: float | None
    lower_ceil: int | None
    upper_floor: int | None
    nu: int
    delta: int
    avg2e_n: float
    flags: dict = field(default_factory=dict)

    to_dict = asdict  # keys in field order

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def sandwich_report(g: Graph, tol: float = BOUND_TOL) -> BoundsReport:
    """Evaluate both clique bounds and the degree chain on one connected graph.

    Raises CounterexampleError if, for a non-complete graph, the degree
    chain or lower <= omega <= upper fails by more than tol.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("bounds need a connected graph")
    omega = max_clique(g).omega
    if g.is_complete:
        # K_1's one Laplacian eigenvalue, 0, stands in for its alpha.
        alpha = algebraic_connectivity(g) if g.n > 1 else 0.0
        return BoundsReport(
            n=g.n, alpha=alpha, omega=omega, lower=None, upper=None,
            lower_ceil=None, upper_floor=None, nu=vertex_connectivity(g),
            delta=min_degree(g), avg2e_n=2 * g.edge_count / g.n,
            flags={"complete": True, "lower_equality": False, "upper_equality": False},
        )
    alpha, nu, delta, avg = degree_chain(g, tol)
    lower = clique_lower_bound(g.n, alpha)
    upper = clique_upper_bound(g.n, alpha)
    if not (lower <= omega + tol and omega <= upper + tol):
        raise CounterexampleError(
            f"clique bounds violated by {write_graph6(g)}: "
            f"{lower} <= {omega} <= {upper} fails"
        )
    return BoundsReport(
        n=g.n, alpha=alpha, omega=omega, lower=lower, upper=upper,
        lower_ceil=math.ceil(lower - EQUALITY_TOL),
        upper_floor=math.floor(upper + EQUALITY_TOL),
        nu=nu, delta=delta, avg2e_n=avg,
        flags={
            "complete": False,
            "lower_equality": abs(lower - omega) <= EQUALITY_TOL,
            "upper_equality": abs(upper - omega) <= EQUALITY_TOL,
        },
    )

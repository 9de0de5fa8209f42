"""Laplacian spectra: full eigendecompositions, algebraic connectivity, Fiedler vectors.

The Laplacian of a graph is L = D - A (degree matrix minus adjacency).  Its
eigenvalues are reported in descending order lambda_1 >= ... >= lambda_n = 0;
the second-smallest, lambda_{n-1}, is the algebraic connectivity alpha, which
is positive exactly when the graph is connected.  laplacians is the one
Laplacian builder, for one graph and for the batched tables alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedGraphError, NumericalError
from .graphs import Graph, complement, is_connected

__all__ = [
    "Spectrum",
    "FiedlerVector",
    "laplacian",
    "laplacians",
    "eig_sym",
    "algebraic_connectivity",
    "fiedler_vector",
    "lambda_max",
    "complement_alpha_check",
    "BOUND_TOL",
    "EQUALITY_TOL",
    "STRICT_TOL",
    "MULTIPLICITY_TOL",
    "SETTLE_MARGIN",
    "PIVOT_TOL",
]

# The package's tolerances, each defined once and imported where used.

#: Verdict tolerance for bound violations and eigen residuals; the default
#: of the CLI's --tolerance.
BOUND_TOL = 1e-8
#: Classification tolerance for "the bound or the extremum is attained".
EQUALITY_TOL = 1e-6
#: Margin demanded of every strict ">" claim and granted to the
#: supersaturation threshold; spectra at these orders are separated by far
#: more, the margin only guards rounding.
STRICT_TOL = 1e-9
#: Eigenvalues within this distance of alpha count toward its multiplicity.
MULTIPLICITY_TOL = 1e-7
#: How far above the kite's alpha a min-side screen settles a row unsolved.
SETTLE_MARGIN = 1e-3
#: Least pivot of a Cholesky elimination that certifies positive definiteness.
PIVOT_TOL = 1e-9

_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted descending with an aligned orthonormal eigenvector set."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @property
    def alpha(self) -> float:
        """Second-smallest eigenvalue (lambda_{n-1})."""
        if self.n < 2:
            raise ValueError("alpha needs order >= 2")
        return float(self.eigenvalues[-2])

    def fiedler(self) -> FiedlerVector:
        """The alpha eigenvector, sign-normalized as fiedler_vector documents."""
        alpha = self.alpha
        vec = self.eigenvectors[:, -2].copy()
        multiplicity = int(np.sum(np.abs(self.eigenvalues - alpha) <= MULTIPLICITY_TOL))
        for x in vec:
            if abs(x) > 1e-9:
                if x < 0:
                    vec = -vec
                break
        return FiedlerVector(vec, alpha, multiplicity)


@dataclass(frozen=True)
class FiedlerVector:
    """Unit eigenvector for alpha, sign-normalized, with the eigenvalue's multiplicity."""

    values: np.ndarray
    alpha: float
    multiplicity: int


def laplacians(adj: np.ndarray) -> np.ndarray:
    """D - A of an (n, n) 0/1 adjacency matrix or an (m, n, n) stack, in float64.

    Non-edges hold -0.0.  LAPACK sees the sign of zero, so every alpha, per
    graph or batched, is solved from this one layout and agrees bit for bit.
    """
    lap = np.negative(adj, dtype=np.float64)
    diag = np.arange(adj.shape[-1])
    lap[..., diag, diag] = adj.sum(axis=-1)
    return lap


def laplacian(g: Graph) -> np.ndarray:
    """Laplacian matrix D - A of g, as laplacians builds it."""
    return laplacians(g.adjacency_matrix())


def eig_sym(m: np.ndarray, tol: float = BOUND_TOL) -> Spectrum:
    """Full eigendecomposition of a symmetric matrix, eigenvalues descending.

    Backed by LAPACK via numpy.  The input must be symmetric to within
    1e-12; the result is residual-checked against `tol` (scaled by the
    matrix norm) so a failed factorization cannot go unnoticed.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    asym = np.max(np.abs(m - m.T)) if m.size else 0.0
    if asym > _SYMMETRY_TOL:
        raise ValueError(f"matrix not symmetric: max asymmetry {asym:.3e}")
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver did not converge: {exc}") from None
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    scale = max(1.0, float(np.linalg.norm(m)))
    resid = np.max(np.abs(m @ vecs - vecs * vals))
    if resid > tol * scale:
        raise NumericalError(f"residual {resid:.3e} exceeds {tol:.1e} * norm")
    return Spectrum(vals, vecs)


def algebraic_connectivity(g: Graph) -> float:
    """alpha(g) = lambda_{n-1} of the Laplacian; exactly 0 for disconnected graphs."""
    if g.n < 2:
        raise ValueError("algebraic connectivity needs order >= 2")
    if not is_connected(g):
        # Structural zero; skips eigensolver noise around the double root at 0.
        return 0.0
    return float(np.linalg.eigvalsh(laplacian(g))[1])


def fiedler_vector(g: Graph) -> FiedlerVector:
    """Unit eigenvector for alpha, orthogonal to the all-ones vector.

    The sign is fixed so the first coordinate of nonnegligible size is
    positive.  `multiplicity` counts eigenvalues within MULTIPLICITY_TOL of
    alpha; sign-structure conclusions are only meaningful when it is 1.
    """
    if g.n < 2:
        raise ValueError("Fiedler vector needs order >= 2")
    if not is_connected(g):
        raise DisconnectedGraphError("Fiedler vector undefined for disconnected graphs")
    return eig_sym(laplacian(g)).fiedler()


def lambda_max(g: Graph) -> float:
    """Largest Laplacian eigenvalue lambda_1 (0 for a single vertex)."""
    return float(np.linalg.eigvalsh(laplacian(g))[-1])


def complement_alpha_check(g: Graph) -> tuple[float, float]:
    """Return (alpha(g), n - lambda_1 of the complement).

    L(G) + L(G-complement) = n*I - J, so the two values agree for every
    graph; comparing them cross-checks the eigensolver against itself on a
    different matrix.
    """
    if g.n < 2:
        raise ValueError("needs order >= 2")
    return algebraic_connectivity(g), g.n - lambda_max(complement(g))

"""Algebraic connectivity versus clique number.

Constructions for the relevant graph families, exact spectra and clique
computations, the two-sided clique bounds, pendant-path rewrites, and
exhaustive small-order verification of the extremal characterizations.
"""

import importlib
import os

# Before NumPy loads: every table parallelises over its own thread pool, and
# no BLAS call here is large enough to thread.  A caller's own value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cliques import CliqueWitness, contains_complete_multipartite, is_kr_free, max_clique
from .errors import (
    CompleteGraphError,
    CounterexampleError,
    DisconnectedGraphError,
    Graph6Error,
    NumericalError,
)
from .graph6 import parse_graph6, read_corpus, write_graph6
from .graphs import (
    Graph,
    TailedCliqueSpec,
    attach_path,
    complement,
    complete,
    complete_multipartite,
    cycle,
    decode,
    disjoint_union,
    empty,
    encode,
    induced_subgraph,
    is_connected,
    is_isomorphic,
    join,
    kite,
    path,
    relabel,
    star,
    tailed_clique,
    theta_kite,
    turan,
    turan_edge_count,
    vertex_connectivity,
)
from .scan import (
    ExtremalCertificate,
    SupersaturationReport,
    build_graph_table,
    check_join_characterization,
    erdos_stone_trend,
    verify_max_theorem,
    verify_min_theorem,
    verify_supersaturation,
)
from .spectra import (
    FiedlerVector,
    Spectrum,
    algebraic_connectivity,
    complement_alpha_check,
    eig_sym,
    fiedler_vector,
    lambda_max,
    laplacian,
)

# bounds and transforms are imported on first use of one of their names, so
# a command that needs neither (every scan) does not load or compile them.
_LAZY = {
    "bounds": ("BoundsReport", "clique_lower_bound", "clique_upper_bound", "degree_chain",
               "kite_alpha_floor", "sandwich_report"),
    "transforms": ("FiedlerSignReport", "TailSpec", "check_graft_inequality",
                   "check_slide_inequality", "fiedler_sign_report", "graft_endpoints",
                   "kite_minimality_chain", "slide_tail", "switch_clique_attachment",
                   "tailed_clique_sweep", "theta_vs_kite"),
}
_LAZY_HOME = {name: module for module, names in _LAZY.items() for name in names}

# The public names imported above (not the modules) and the lazy ones.
__all__ = sorted(
    [name for name, value in globals().items()
     if not name.startswith("_") and not isinstance(value, type(os))]
    + list(_LAZY_HOME)
)


def __getattr__(name: str):
    if name not in _LAZY_HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

"""Algebraic connectivity versus clique number.

Constructions for the relevant graph families, exact spectra and clique
computations, the two-sided clique bounds, pendant-path rewrites, and
exhaustive small-order verification of the extremal characterizations.
"""

import os

# Before NumPy loads: every table parallelises over its own thread pool, and
# no BLAS call here is large enough to thread.  A caller's own value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .bounds import (
    BoundsReport,
    clique_lower_bound,
    clique_upper_bound,
    degree_chain,
    kite_alpha_floor,
    sandwich_report,
)
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
from .transforms import (
    FiedlerSignReport,
    TailSpec,
    check_graft_inequality,
    check_slide_inequality,
    fiedler_sign_report,
    graft_endpoints,
    kite_minimality_chain,
    slide_tail,
    switch_clique_attachment,
    tailed_clique_sweep,
    theta_vs_kite,
)

__version__ = "0.1.0"

"""Connectivity-keeping subtrees in triangle-free, bipartite, and high-girth
graphs, with independently checkable certificates.

The library finds, in a k-connected host meeting a case-dependent minimum-
degree threshold, a subtree isomorphic to a given tree whose removal keeps
the graph k-connected, and certifies every structural claim (connected
triples, saturating matchings, embeddings, connectivity values) so a
verifier can re-check them from scratch.
"""

from .errors import (
    GuardExceeded,
    HypothesisFailure,
    KeeptreeError,
    ParseError,
    PreconditionError,
    SearchExhausted,
    TheoremViolation,
)
from .graphs import (
    Graph,
    Tree,
    bipartition,
    components,
    degree_stats,
    girth,
    is_triangle_free,
)
from .connectivity import global_connectivity, is_k_connected_after_removal
from .matching import HallViolator, Matching, saturating_matching_or_violator
from .embed import (
    Embedding,
    bipartite_embed,
    exhaustive_embed,
    greedy_embed,
    sparse_embed,
)
from .triples import (
    ConnectedTriple,
    SaturatedTriple,
    enumerate_triples,
    find_triple,
    hall_refine,
    validate_triple,
)
from .certificate import (
    CaseSelector,
    Certificate,
    compute_beta,
    degree_threshold,
    verify_certificate,
)
from .pipeline import check_hypotheses, find_keeping_tree
from .families import FamilySpec, enumerate_trees, gen_graph, gen_tree
from .harness import oracle_exists, run_suite

__version__ = "0.1.0"

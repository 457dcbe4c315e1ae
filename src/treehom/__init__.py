"""Exact H-coloring counts of trees and path-minimality verification tools."""

from .graphs import (
    GraphParseError,
    SizeLimitError,
    TargetGraph,
    Tree,
    add_looped_dominating,
    blow_up,
    disjoint_union,
    format_graph,
    parse_graph,
    tensor_product,
)
from .trees import (
    CanonicalTree,
    all_trees,
    bare_path,
    canonical_code,
    kc_closure,
    kc_move,
    kc_sites,
    kc_successors,
    path,
    star,
    tree_count,
)
from .automorphy import (
    SimilarityMatrix,
    automorphisms,
    find_increasing_ordering,
    has_increasing_columns,
    orbit_partition,
    similarity_matrix,
)
from .homcount import (
    activities,
    check_blowup_identity,
    hom_brute_force,
    hom_count,
    hom_vector,
    kc_decompositions,
    kc_difference_decomposition,
    path_pair_counts,
    tree_hom,
    tree_partition_function,
)
from .extremal import (
    HLVerdict,
    MinimizerReport,
    SMALL_TARGETS,
    StrongHLCertificate,
    check_strong_hl_certificate,
    classify_small_targets,
    is_loop_threshold,
    make_capacity_graph,
    make_folkman_plus_dominating,
    make_H_abl,
    make_widom_rowlinson,
    minimizers,
    sidorenko_check,
    verify_hoffman_london,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

"""Canonical Prüfer codes for vertex-colored arborescences.

Encode colored rooted trees as 2 x n codes whose equality decides
isomorphism, test sub-arborescence containment directly on the codes,
and run corpus-level structure queries, with brute-force oracles for
independent verification.
"""

from .canonical import (
    CanonicalOrder,
    canonical_order,
    canonicalize,
    full_ld_array,
    ld_array,
    reconstruct,
)
from .codec import (
    PruneTrace,
    Vcpc,
    classical_prufer,
    decode,
    encode,
    encode_canonical,
    prufer_to_edges,
    validate_code,
)
from .corpus import (
    CorpusPoset,
    IsoClass,
    most_representative,
    partition_by_isomorphism,
    subtree_poset,
)
from .matching import (
    adjacent_pairs,
    branch_partition,
    code_adjacent,
    codes_isomorphic,
    color_matching_index_sets,
    incident_edge_ok,
    is_subarborescence,
    shape,
    subtree_search,
    undirected_subtree,
)
from .oracle import (
    GenParams,
    brute_canonical,
    enumerate_embeddings,
    has_embedding,
    random_corpus,
    random_trees,
)
from .trees import (
    ColoredArborescence,
    build_tree,
    iter_corpus,
    leaves,
    load_color_table,
    parse_corpus,
    subtree_vertices,
    tree_to_json,
    write_corpus,
)

__all__ = [
    "CanonicalOrder",
    "ColoredArborescence",
    "CorpusPoset",
    "GenParams",
    "IsoClass",
    "PruneTrace",
    "Vcpc",
    "adjacent_pairs",
    "branch_partition",
    "brute_canonical",
    "build_tree",
    "canonical_order",
    "canonicalize",
    "classical_prufer",
    "code_adjacent",
    "codes_isomorphic",
    "color_matching_index_sets",
    "decode",
    "encode",
    "encode_canonical",
    "enumerate_embeddings",
    "full_ld_array",
    "has_embedding",
    "incident_edge_ok",
    "is_subarborescence",
    "iter_corpus",
    "ld_array",
    "leaves",
    "load_color_table",
    "most_representative",
    "parse_corpus",
    "partition_by_isomorphism",
    "prufer_to_edges",
    "random_corpus",
    "random_trees",
    "reconstruct",
    "shape",
    "subtree_poset",
    "subtree_vertices",
    "subtree_search",
    "tree_to_json",
    "undirected_subtree",
    "validate_code",
    "write_corpus",
]

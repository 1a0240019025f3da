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
    prune_labels,
    validate_code,
)
from .corpus import (
    IsoClass,
    most_representative,
    partition_by_isomorphism,
    poset_pairs,
)
from .matching import (
    code_adjacent,
    is_subarborescence,
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
    load_color_table,
    tree_to_json,
    write_corpus,
)

__all__ = [
    "CanonicalOrder",
    "ColoredArborescence",
    "GenParams",
    "IsoClass",
    "PruneTrace",
    "Vcpc",
    "brute_canonical",
    "build_tree",
    "canonical_order",
    "canonicalize",
    "classical_prufer",
    "code_adjacent",
    "decode",
    "encode",
    "encode_canonical",
    "enumerate_embeddings",
    "full_ld_array",
    "has_embedding",
    "is_subarborescence",
    "iter_corpus",
    "load_color_table",
    "most_representative",
    "partition_by_isomorphism",
    "poset_pairs",
    "prufer_to_edges",
    "prune_labels",
    "random_corpus",
    "random_trees",
    "reconstruct",
    "subtree_search",
    "tree_to_json",
    "undirected_subtree",
    "validate_code",
    "write_corpus",
]

"""Universal hitting sets, decycling sets and selection schemes on de Bruijn graphs."""

from .core import (
    Alphabet,
    BudgetError,
    DEFAULT_NODE_BUDGET,
    Kmer,
    NecklaceTable,
    conjugacy_class,
    debruijn_sequence,
    enumerate_classes,
    kmer_decode,
    kmer_encode,
    necklace_count,
    necklaces,
    pure_rotation,
    successor,
)
from .kmerset import KmerSet, hits
from .paths import (
    ACYCLIC,
    CYCLIC,
    PathReport,
    is_decycling,
    is_uhs,
    longest_remaining_path,
    string_length_for_walk,
    verify_witness,
)
from .schemes import (
    COMPATIBLE,
    DensityResult,
    MINIMIZER,
    SelectionScheme,
    TABLE,
    build_compatible_minimizer,
    estimate_density,
    expected_density,
    is_forward,
    lexicographic_minimizer,
    minimizer_scheme,
    particular_density,
    select,
    table_scheme,
)
from .contexts import (
    ContextSet,
    build_context_set_forward,
    build_context_set_local,
)
from .forbidden import (
    FsmMatrix,
    bracket_holds,
    build_forbidden_set,
    char_poly_eval,
    dominant_eigenvector,
    dominant_root,
    eigenpair_residual,
    forbidden_cardinality,
    forbidden_d,
    fsm_matrix,
    min_w_for_construction,
    remaining_path_bound,
    remaining_path_witness,
    survival_probability,
)
from .mykkeltveit import (
    ComplexPoint,
    LongPath,
    RingState,
    build_long_path,
    build_mykkeltveit_set,
    embedding,
    im_sign,
    in_mykkeltveit,
    rotation_identity_check,
    weight,
    weight_in_embedding,
)
from .mds import MdsCensus, enumerate_mds

__version__ = "0.1.0"

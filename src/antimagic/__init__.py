"""Distance-set antimagic and magic labelings on oriented graphs.

A distance set D picks, for each vertex, the set of vertices reachable
at a directed distance in D; the weight of a vertex is the label sum
over that neighborhood.  A bijective labeling with pairwise distinct
weights is D-antimagic, one with a single shared weight is D-magic.
This package builds the known closed-form labelings on oriented paths,
trees, and linear forests, verifies arbitrary labelings, and re-checks
the characterization theorems by exhaustive search at small orders.
"""

from .constructions import (
    ConstructionResult,
    forest_label_value,
    label_forest,
    label_mpn,
    label_mpn_general,
    label_theta_double_prime,
    label_theta_prime,
    label_unidirectional_path,
)
from .digraph import (
    OTHER,
    THETA_DOUBLE_PRIME,
    THETA_PRIME,
    UNIDIRECTIONAL,
    DistanceMatrix,
    OrientationCensus,
    OrientedGraph,
    all_pairs_distances,
    classify_path_orientation,
    is_strongly_connected,
    is_unidirectional_path,
    normalize_distance_set,
    orientation_census,
    partial_diameter,
    path_vertex_order,
    validate_distance_set,
    weak_components,
)
from .errors import (
    AntimagicError,
    InvalidDistanceSetError,
    InvalidParameterError,
    NotAPathError,
    TheoremPreconditionError,
)
from .generators import (
    EXPLICIT,
    FORWARD,
    PHI,
    LinearForestSpec,
    build_cycle,
    build_forest,
    build_path,
    enumerate_path_orientations,
    enumerate_trees,
    forest_vertex_index,
    mpn_spec,
    parse_forest_spec,
)
from .labeling import (
    DualityReport,
    WeightProfile,
    check_duality,
    check_labeling,
    complement_distance_set,
    d_neighborhood,
    is_d_antimagic,
    is_d_magic,
    necessary_condition_distinct_neighborhoods,
    neighborhood_table,
    weight_profile,
)
from .search import (
    ABORTED_BUDGET,
    EXHAUSTED_NONE,
    FOUND,
    CharacterizationCheck,
    NeighborhoodSurvey,
    SearchReport,
    UnionBreakdown,
    check_forest_lemmas,
    check_path_characterizations,
    check_tree_characterization,
    check_union_counterexample,
    duality_sweep,
    duality_sweep_graph,
    enumerate_oriented_graphs,
    exhaustive_labeling_search,
    exhaustive_magic_search,
    find_magic_graph,
    magic_bound_sweep,
    render_checks_table,
    survey_neighborhood_sufficiency,
)
from .serialize import (
    canonical_json,
    check_to_dict,
    construction_to_dict,
    graph_from_dict,
    graph_to_dict,
    graph_to_dot,
    labels_from_dict,
    labels_to_dict,
    load_graph,
    load_labels,
    search_report_to_dict,
    write_text,
)

__version__ = "0.1.0"

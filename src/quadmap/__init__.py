"""Discrete combinatorics of random quadrangulations.

Plane-tree encodings, the chord bijection between well-labeled trees and
rooted quadrangulations, rerooting group actions, exact small-size laws,
and grid-path samplers for the n^(1/4) scaling experiments.
"""

from .trees import PlaneTree, Walk, dfw, height_process, mirror, same_node, walk_to_tree
from .labeled import (
    Encoding,
    LabeledTree,
    MarkedTree,
    decode,
    encode,
    from_marked,
    is_well_labeled,
    minima_set,
    reroot,
    stabilizer_size,
    to_marked,
    to_positive,
)
from .planar_map import (
    HalfEdgeMap,
    PointedMap,
    PointedQuadrangulation,
    RootedMap,
    RootedQuadrangulation,
    bfs_distances,
    canonical_code,
    load_map,
    map_of_quad,
    profile,
    quad_of_map,
    radius,
    save_map,
    validate_quadrangulation,
)
from .schaeffer import (
    DodderingTree,
    PredecessorTable,
    assemble,
    doddering,
    fiber,
    point,
    predecessor_table,
    quad_of_tree,
    tree_of_quad,
)
from .snake import (
    SnakePath,
    class_distances,
    first_argmin,
    normalize_encoding,
    positive_representatives,
    reroot_path,
    sample_snake,
)
from .snake import distance as snake_distance
from .enumeration import (
    enumerate_family,
    law_tables,
    orbit_decomposition,
    tv_distance,
    walkup_count,
)
from .harness import (
    EdgeLengthModel,
    ExperimentConfig,
    ks_statistic,
    perturbed_walk,
    run_experiment,
    sample_labeled_uniform,
    sample_pointed_ps,
    sample_rooted_pd,
)

__version__ = "0.1.0"

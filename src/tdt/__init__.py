"""Consensus input-format analysis from program accept/reject behavior.

Build a relation (which programs accept which inputs), project it to a
weighted Venn diagram and Dowker complex, find the consistent core, score and
distill away inconsistency, and attribute what remains to input features.
"""

import os

# tdt makes no BLAS calls (its only matrix products are int64, which numpy
# computes without BLAS), so OpenBLAS's worker thread would only spin at load.
# OpenBLAS reads the variable once, when numpy loads it; removing it again
# leaves the environment that parsers and other children inherit unchanged.
if "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .classify import (
    ClassifierReport,
    GroundTruth,
    evaluate,
    load_ground_truth,
    score_rule_classifier,
    vote_classifier,
)
from .diagram import (
    WeightedDiagram,
    build_diagram,
    deficient_regions,
    is_consistent,
    pair_inconsistent_inputs,
    project_diagram,
)
from .distill import (
    DistillTrace,
    ScoreVector,
    distill,
    inconsistency_scores,
    select_inputs,
    singleton_screen,
)
from .dowker import (
    DowkerComplex,
    DowkerGraph,
    betti_numbers,
    build_complex,
    build_graph,
    connected_components,
    consistent_core,
    dual_complex,
    graph_dot,
    inconsistent_inputs,
)
from .errors import (
    CapacityError,
    ConfigurationError,
    EmptyScreenError,
    FormatError,
    InconsistentDiagramError,
    StatisticUndefinedError,
    TdtError,
    ValidationError,
)
from .features import (
    FeatureAttribution,
    attribute_features,
    greedy_feature_pruning,
    relation_product,
    variation_of_information,
)
from .harness import KeywordTable, RunConfig, RunResult, keyword_table, load_run_config, run_corpus
from .relation import (
    FeatureRelation,
    MAX_PROGRAMS,
    Relation,
    acceptance_rates,
    column_masks,
    conditional_acceptance,
    load_feature_relation,
    load_relation,
    mask_from_names,
    names_from_mask,
    restrict_inputs,
    restrict_programs,
    save_relation,
)
from .sheaf import SheafAssignment, build_assignment, consistency_at, display_vector

__version__ = "0.1.0"

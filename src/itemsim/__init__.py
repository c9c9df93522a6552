"""Similarity measures for introductory-programming items.

Feature pipelines over statements, solutions, worlds, and performance logs;
edit-distance and correlation similarity matrices; agreement evaluation at
three levels; clustering, projections, stability analysis, and a synthetic
corpus generator.
"""

from .analysis import (
    AgreementMatrix,
    Partition,
    agreement_correlation,
    agreement_matrix,
    agreement_topn,
    cluster_eval,
    hierarchical_order,
    kmeans,
    meta_agreement,
    rand_index,
    split_half_stability,
)
from .corpus import (
    Corpus,
    Item,
    PerformanceTable,
    Solution,
    WorldSpec,
    load_corpus,
    load_performance,
    save_corpus,
    save_performance,
    select_solutions,
)
from .editdist import NwScoring, levenshtein, needleman_wunsch, tree_edit_distance
from .errors import ConfigError, ItemsimError, ParseError
from .features import (
    FeatureMatrix,
    apply_transform,
    apply_transforms,
    combine_matrices,
    concat_features,
    performance_features,
    restrict_items,
    solution_keyword_features,
    statement_bow,
    structural_features,
    world_features,
)
from .heatmap import heatmap_svg
from .measures import (
    MeasureName,
    MeasureParams,
    build_features,
    compute_measure,
    format_measure,
    parse_measure,
)
from .projection import Embedding, mds_project, pca_project
from .robot import parse_robot_program, pretty_print
from .similarity import (
    SimilarityMatrix,
    edit_similarity,
    performance_similarity,
    restrict,
    similarity_from_features,
)
from .synth import CorpusSpec, PerfSpec, generate_corpus, generate_performance, level_partition
from .tree import AstNode, action_sequence, ast_from_document, canonize, max_depth, node, node_count

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

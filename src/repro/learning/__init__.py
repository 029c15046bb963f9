"""Learning substrate: CART trees, ERF, metrics, CV, gain-ratio ranking.

Implemented from scratch (scikit-learn is unavailable offline) with the
paper's exact configuration as defaults: 20 trees, ``log2(F)+1`` features
per split, probability-averaging vote (Section V-A).
"""

from repro.learning.compiled import CompiledForest, compile_forest
from repro.learning.crossval import CrossValResult, cross_validate, stratified_kfold
from repro.learning.forest import EnsembleRandomForest, default_max_features
from repro.learning.metrics import (
    ConfusionMatrix,
    auc,
    confusion,
    evaluate_scores,
    roc_auc,
    roc_curve,
)
from repro.learning.persistence import (
    forest_from_dict,
    forest_to_dict,
    load_forest,
    save_forest,
)
from repro.learning.grower import (
    ColumnRanks,
    compute_column_ranks,
    grow_tree_presorted,
)
from repro.learning.ranking import RankedFeature, rank_features
from repro.learning.tree import DecisionTreeClassifier

__all__ = [
    "ColumnRanks",
    "CompiledForest",
    "ConfusionMatrix",
    "CrossValResult",
    "DecisionTreeClassifier",
    "EnsembleRandomForest",
    "RankedFeature",
    "auc",
    "compile_forest",
    "compute_column_ranks",
    "confusion",
    "cross_validate",
    "default_max_features",
    "grow_tree_presorted",
    "evaluate_scores",
    "forest_from_dict",
    "forest_to_dict",
    "load_forest",
    "save_forest",
    "rank_features",
    "roc_auc",
    "roc_curve",
    "stratified_kfold",
]

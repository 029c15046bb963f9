"""The 37 payload-agnostic features of Table II and their extractor."""

from repro.features.extractor import (
    FeatureExtractor,
    extract_features,
    extract_matrix,
)
from repro.features.graph import scalar_graph_features
from repro.features.header import header_features
from repro.features.high_level import high_level_features
from repro.features.registry import (
    FEATURES,
    NUM_FEATURES,
    FeatureGroup,
    FeatureSpec,
    feature_names,
    indices_of_groups,
    spec_by_name,
)
from repro.features.temporal import temporal_features

__all__ = [
    "FEATURES",
    "FeatureExtractor",
    "FeatureGroup",
    "FeatureSpec",
    "NUM_FEATURES",
    "extract_features",
    "extract_matrix",
    "feature_names",
    "header_features",
    "high_level_features",
    "indices_of_groups",
    "scalar_graph_features",
    "spec_by_name",
    "temporal_features",
]

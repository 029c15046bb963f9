"""Unit tests for the Table II feature registry."""

import pytest

from repro.features.registry import (
    FEATURES,
    NUM_FEATURES,
    FeatureGroup,
    feature_names,
    indices_of_groups,
    spec_by_name,
)


class TestRegistryShape:
    def test_thirty_seven_features(self):
        assert NUM_FEATURES == 37

    def test_fids_sequential(self):
        assert [s.fid for s in FEATURES] == [f"f{i}" for i in
                                             range(1, 38)]

    def test_group_sizes_match_table2(self):
        by_group = {}
        for spec in FEATURES:
            by_group[spec.group] = by_group.get(spec.group, 0) + 1
        assert by_group[FeatureGroup.HIGH_LEVEL] == 6   # f1-f6
        assert by_group[FeatureGroup.GRAPH] == 19       # f7-f25
        assert by_group[FeatureGroup.HEADER] == 10      # f26-f35
        assert by_group[FeatureGroup.TEMPORAL] == 2     # f36-f37

    def test_twenty_seven_novel_features(self):
        # The paper introduces 27 of the 37 features.
        assert sum(1 for s in FEATURES if s.novel) == 27

    def test_unique_names(self):
        names = feature_names()
        assert len(set(names)) == len(names)


class TestLookups:
    def test_indices_of_groups(self):
        graph = indices_of_groups({FeatureGroup.GRAPH})
        assert graph == list(range(6, 25))

    def test_indices_of_multiple_groups(self):
        non_graph = indices_of_groups(
            {FeatureGroup.HIGH_LEVEL, FeatureGroup.HEADER,
             FeatureGroup.TEMPORAL}
        )
        assert len(non_graph) == 18
        assert not set(non_graph) & set(
            indices_of_groups({FeatureGroup.GRAPH})
        )

    def test_spec_by_name(self):
        spec = spec_by_name("avg_pagerank")
        assert spec.fid == "f25"
        assert spec.group is FeatureGroup.GRAPH

    def test_spec_by_name_unknown(self):
        with pytest.raises(KeyError, match="unknown feature"):
            spec_by_name("not_a_feature")

    def test_temporal_features_are_f36_f37(self):
        temporal = [s for s in FEATURES
                    if s.group is FeatureGroup.TEMPORAL]
        assert [s.fid for s in temporal] == ["f36", "f37"]

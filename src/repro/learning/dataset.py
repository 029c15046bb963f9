"""Dataset container and train/test utilities for WCG classification."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import LearningError

__all__ = ["LabeledDataset", "dataset_from_graphs", "train_test_split"]


@dataclass
class LabeledDataset:
    """A design matrix with labels and feature names."""

    X: np.ndarray
    y: np.ndarray
    feature_names: list[str]

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y)
        if len(self.X) != len(self.y):
            raise LearningError("X and y length mismatch")
        if self.X.ndim != 2 or self.X.shape[1] != len(self.feature_names):
            raise LearningError(
                "X column count must match feature_names length"
            )

    def __len__(self) -> int:
        return len(self.y)

    @property
    def n_features(self) -> int:
        """Number of feature columns."""
        return self.X.shape[1]

    @property
    def positives(self) -> int:
        """Count of infection (label 1) samples."""
        return int(np.sum(self.y == 1))

    @property
    def negatives(self) -> int:
        """Count of benign (label 0) samples."""
        return int(np.sum(self.y == 0))

    def select(self, indices: list[int]) -> "LabeledDataset":
        """Column-subset view (for feature-group ablations)."""
        return LabeledDataset(
            X=self.X[:, indices],
            y=self.y,
            feature_names=[self.feature_names[i] for i in indices],
        )

    def subset(self, rows: np.ndarray) -> "LabeledDataset":
        """Row-subset view."""
        return LabeledDataset(
            X=self.X[rows], y=self.y[rows], feature_names=self.feature_names
        )


def dataset_from_graphs(
    graphs: list, labels: list[float] | np.ndarray
) -> LabeledDataset:
    """A :class:`LabeledDataset` from pre-built WCGs.

    Rides :func:`repro.features.extractor.extract_matrix_batch`: one
    extractor for the whole matrix, so topology is shared across
    repeated conversation shapes.
    """
    from repro.features.extractor import extract_matrix_batch
    from repro.features.registry import feature_names

    labels = np.asarray(labels)
    if len(graphs) != len(labels):
        raise LearningError("graphs and labels length mismatch")
    return LabeledDataset(
        X=extract_matrix_batch(list(graphs)),
        y=labels,
        feature_names=feature_names(),
    )


def train_test_split(
    dataset: LabeledDataset,
    test_fraction: float = 0.3,
    seed: int = 0,
) -> tuple[LabeledDataset, LabeledDataset]:
    """Stratified random split into train and test partitions."""
    if not 0.0 < test_fraction < 1.0:
        raise LearningError("test_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    test_rows: list[int] = []
    for cls in np.unique(dataset.y):
        indices = np.where(dataset.y == cls)[0]
        rng.shuffle(indices)
        # Cap the take so the train partition keeps at least one sample
        # of every class — a 1–2 sample class must not vanish from it.
        take = min(
            max(1, int(round(len(indices) * test_fraction))),
            len(indices) - 1,
        )
        test_rows.extend(int(i) for i in indices[:take])
    test_mask = np.zeros(len(dataset), dtype=bool)
    test_mask[test_rows] = True
    return dataset.subset(~test_mask), dataset.subset(test_mask)

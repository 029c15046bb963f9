"""Reference forest inference: combine the per-tree table walks
(``DecisionTreeClassifier.predict_proba``, plain Python per row) — what
``EnsembleRandomForest.predict_proba`` computed before the compiled
arena became the only inference path — and one tree's hard vote."""

import numpy as np


def tree_predict(tree, X: np.ndarray) -> np.ndarray:
    """One tree's predicted class labels: the argmax of its
    ``predict_proba`` rows (ties break to the first index, i.e. the
    lowest label — ``_classes`` is sorted)."""
    return tree._classes[tree.predict_proba(X).argmax(axis=1)]


def predict_proba_reference(forest, X: np.ndarray) -> np.ndarray:
    """Mean of per-tree probabilities, or hard-vote fractions.

    ``searchsorted`` aligns a tree that saw fewer classes than the
    forest (degenerate bootstrap); the divisor is the trees actually
    present, not ``forest.n_trees``.
    """
    X = np.asarray(X, dtype=np.float64)
    total = np.zeros((len(X), len(forest._classes)))
    rows = np.arange(len(X))
    for tree in forest.trees_:
        if forest.voting == "average":
            columns = np.searchsorted(forest._classes, tree._classes)
            total[:, columns] += tree.predict_proba(X)
        else:
            votes = np.searchsorted(forest._classes, tree_predict(tree, X))
            total[rows, votes] += 1
    return total / len(forest.trees_)

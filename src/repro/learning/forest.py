"""Ensemble Random Forest with probability averaging (Section V-A).

The paper's classifier: bootstrap-sampled CART trees with per-split
random feature subsets, combined by **averaging probabilistic
predictions** rather than majority vote ("which reduces variance").  The
paper's tuned hyper-parameters are the defaults here:
``n_trees = 20`` and ``max_features = log2(n_features) + 1``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import LearningError, NotFittedError
from repro.learning.compiled import compile_forest
from repro.learning.grower import compute_column_ranks
from repro.learning.tree import DecisionTreeClassifier
from repro.obs import get_registry
from repro.parallel import parallel_map

__all__ = ["EnsembleRandomForest", "default_max_features"]


def default_max_features(n_features: int) -> int:
    """The paper's ``N_f = log2(NumFeatures) + 1`` rule."""
    return max(1, int(math.log2(max(2, n_features))) + 1)


def _bootstrap_indices(y: np.ndarray, n_classes: int, seed: int) -> np.ndarray:
    """Bootstrap row indices, resampled until every class is present.

    A bootstrap may drop a class entirely on tiny datasets; the retry
    loop draws the exact sequence the original sampler drew, so the
    accepted sample — and every tree grown from it — is unchanged.
    """
    rng = np.random.default_rng(seed)
    n_samples = len(y)
    sample = rng.integers(0, n_samples, size=n_samples)
    attempts = 0
    while len(np.unique(y[sample])) < n_classes and attempts < 32:
        sample = rng.integers(0, n_samples, size=n_samples)
        attempts += 1
    return sample


#: Per-worker fit context installed by :func:`_init_fit_context`.  The
#: training matrix (and its presorted rank codes) cross the process
#: pool once per worker through the pool initializer instead of being
#: pickled into every per-tree job.
_FIT_CONTEXT: tuple | None = None


def _init_fit_context(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    params: dict,
    bootstrap: bool,
    ranks,
) -> None:
    global _FIT_CONTEXT
    _FIT_CONTEXT = (X, y, n_classes, params, bootstrap, ranks)


def _clear_fit_context() -> None:
    global _FIT_CONTEXT
    _FIT_CONTEXT = None


def _fit_tree(job: tuple) -> DecisionTreeClassifier:
    """Pool worker: bootstrap-sample and fit one tree.

    The shared inputs live in the worker's :data:`_FIT_CONTEXT`; the job
    carries only this tree's pre-drawn seeds, so the result depends only
    on the job — never on which worker runs it or in what order — and
    the matrix is never serialized per tree.
    """
    bootstrap_seed, tree_seed = job
    X, y, n_classes, params, bootstrap, ranks = _FIT_CONTEXT
    if bootstrap:
        sample = _bootstrap_indices(y, n_classes, bootstrap_seed)
        Xb, yb = X[sample], y[sample]
        # The rank codes are row-aligned with X: the bootstrap
        # restriction is a column gather, far cheaper than the
        # per-column argsorts they replace.
        ranks = ranks._replace(codes=ranks.codes[:, sample])
    else:
        Xb, yb = X, y
    tree = DecisionTreeClassifier(random_state=tree_seed, **params)
    return tree.fit(Xb, yb, column_ranks=ranks)


class EnsembleRandomForest:
    """Probability-averaging random forest.

    Args:
        n_trees: ensemble size (paper-tuned ``N_t = 20``).
        max_features: features per split; ``None`` applies the paper's
            ``log2(F) + 1`` rule at fit time.
        max_depth / min_samples_split / min_samples_leaf / criterion:
            forwarded to each :class:`DecisionTreeClassifier`.
        voting: ``"average"`` (the paper's ERF) or ``"majority"``
            (kept for the ablation bench).
        random_state: master seed; tree seeds and bootstrap draws derive
            from it.
    """

    def __init__(
        self,
        n_trees: int = 20,
        max_features: int | None = None,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        criterion: str = "gini",
        voting: str = "average",
        bootstrap: bool = True,
        random_state: int | None = None,
    ):
        if n_trees < 1:
            raise LearningError("n_trees must be >= 1")
        if voting not in ("average", "majority"):
            raise LearningError(f"unknown voting mode {voting!r}")
        self.n_trees = n_trees
        self.max_features = max_features
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.criterion = criterion
        self.voting = voting
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.trees_: list[DecisionTreeClassifier] = []
        self._classes: np.ndarray | None = None
        #: Compiled struct-of-arrays arena (repro.learning.compiled);
        #: rebuilt on fit/load, dropped from pickles and rebuilt lazily.
        self._compiled = None

    def fit(
        self, X: np.ndarray, y: np.ndarray, n_jobs: int | None = None
    ) -> "EnsembleRandomForest":
        """Fit the ensemble; returns self.

        Args:
            n_jobs: per-tree fitting processes (``None`` = serial,
                ``-1`` = all cores).  Both the bootstrap seed and the
                split seed of tree *i* are drawn up front from the
                master ``random_state``, so every value — serial
                included — grows byte-identical trees.
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if len(X) != len(y):
            raise LearningError("X and y length mismatch")
        if len(X) == 0:
            raise LearningError("cannot fit on an empty dataset")
        self._classes = np.unique(y)
        n_features = X.shape[1]
        k = (
            self.max_features
            if self.max_features is not None
            else default_max_features(n_features)
        )
        rng = np.random.default_rng(self.random_state)
        seeds = rng.integers(0, 2**31 - 1, size=(self.n_trees, 2))
        params = {
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": k,
            "criterion": self.criterion,
        }
        # Presort the matrix once; every bootstrap restricts the rank
        # codes by a column gather inside the worker.
        ranks = compute_column_ranks(X)
        jobs = [
            (int(seeds[index, 0]), int(seeds[index, 1]))
            for index in range(self.n_trees)
        ]
        try:
            self.trees_ = parallel_map(
                _fit_tree,
                jobs,
                n_jobs=n_jobs,
                initializer=_init_fit_context,
                initargs=(X, y, len(self._classes), params,
                          self.bootstrap, ranks),
            )
        finally:
            # The serial path installs the context in this process.
            _clear_fit_context()
        # Refit replaces the previous arena.
        self.compile()
        return self

    def _check_fitted(self) -> None:
        if not self.trees_:
            raise NotFittedError("fit() must be called before predict")

    # -- compiled-arena plumbing --------------------------------------------

    def compile(self):
        """(Re)build the vectorized inference arena; returns it.

        Called automatically at the end of :meth:`fit` and by the
        persistence loader; call manually after mutating ``trees_`` in
        place (tests do) to resynchronize.
        """
        self._check_fitted()
        get_registry().counter("forest.arena_rebuilds").inc()
        self._compiled = compile_forest(self)
        return self._compiled

    def _compiled_forest(self):
        """The current arena, compiled on first use and guarded against
        a swapped-out tree list (stale arenas must never score)."""
        compiled = self._compiled
        if compiled is None or compiled.n_trees != len(self.trees_):
            compiled = self.compile()
        return compiled

    # -- pickling -------------------------------------------------------------
    # Process pools ship forests between workers; the arena is derived
    # data, so drop it to keep payloads lean — it rebuilds lazily on
    # first predict.

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_compiled"] = None
        return state

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class-probability matrix.

        ``"average"`` voting returns the mean of per-tree probabilistic
        predictions; ``"majority"`` returns hard-vote fractions.
        """
        self._check_fitted()
        registry = get_registry()
        if registry.enabled:
            registry.counter("forest.rows_scored").inc(len(X))
            registry.histogram("forest.batch_rows").observe(len(X))
        compiled = self._compiled_forest()
        if self.voting == "average":
            return compiled.predict_proba(X)
        return compiled.vote_fractions(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted class labels."""
        proba = self.predict_proba(X)
        return self._classes[np.argmax(proba, axis=1)]

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        """Probability of the infection class (label 1).

        The score swept to draw the ROC curve (Figure 10).  The column
        is resolved from the fitted classes: a forest that never saw
        class 1 (e.g. trained on benign-only data) scores every sample
        0.0 rather than returning its only column — which is class 0 —
        as the infection probability.
        """
        proba = self.predict_proba(X)
        column = self._infection_column()
        if column is None:
            return np.zeros(len(proba))
        return proba[:, column]

    def _infection_column(self) -> int | None:
        """The infection class's column in :meth:`predict_proba`, or
        ``None`` when the forest never saw class 1 and saw one class
        only.  A non-0/1 labelling keeps the largest-label convention."""
        positive = np.flatnonzero(self._classes == 1)
        if positive.size:
            return int(positive[0])
        if len(self._classes) > 1:
            return len(self._classes) - 1
        return None

    def explain_row(self, x: np.ndarray) -> dict:
        """Per-tree decision-path explanation of one feature row.

        Returns a dict of plain-Python values (pickles cleanly inside
        alert provenance):

        * ``tree_votes`` — each tree's predicted class label;
        * ``tree_scores`` — each tree's infection-class probability
          (0.0 when the forest never saw class 1, mirroring
          :meth:`decision_scores`);
        * ``vote_tally`` — ``(benign votes, infectious votes)``;
        * ``feature_path_counts`` — how many split nodes across all
          trees tested each feature on this row's paths.

        One vectorized pass over the compiled arena (see
        :meth:`CompiledForest.explain <repro.learning.compiled.
        CompiledForest.explain>`) that bypasses the
        ``forest.rows_scored`` instrumentation — explanation must not
        perturb the scoring metrics.
        """
        self._check_fitted()
        compiled = self._compiled_forest()
        leaves, counts = compiled.explain(x)
        vote_columns = compiled.leaf_vote[leaves]
        column = self._infection_column()
        if column is None:
            scores = np.zeros(len(leaves))
            infectious = 0
        else:
            scores = compiled.leaf_proba[leaves, column]
            infectious = int((vote_columns == column).sum())
        return {
            "tree_votes": tuple(
                int(label) for label in self._classes[vote_columns]
            ),
            "tree_scores": tuple(float(score) for score in scores),
            "vote_tally": (len(self.trees_) - infectious, infectious),
            "feature_path_counts": tuple(int(c) for c in counts),
        }

    def feature_importances(self) -> np.ndarray:
        """Mean split-frequency importances across trees."""
        self._check_fitted()
        stacked = np.vstack([t.feature_importances() for t in self.trees_])
        return stacked.mean(axis=0)

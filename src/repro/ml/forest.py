"""Decision-tree and random-forest regressors.

These are the paper's scikit-learn comparators ("linear regression and
decision forests", Section VI-A), rebuilt on the shared histogram tree
engine in :mod:`repro.ml.tree`.  A squared-error CART tree is the special
case of the second-order engine with ``g = -y``, ``h = 1``,
``lambda = 0`` — the leaf weight reduces to the group mean and the split
gain to variance reduction.  Multi-output targets get vector leaves with
the gain averaged over outputs.
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import Binner, FlatEnsemble, Tree, TreeParams, grow_tree

__all__ = ["DecisionTreeRegressor", "RandomForestRegressor"]


class DecisionTreeRegressor:
    """Single multi-output CART regression tree (histogram splits).

    Parameters mirror :class:`repro.ml.tree.TreeParams`; ``n_bins``
    controls histogram resolution.
    """

    def __init__(
        self,
        max_depth: int = 8,
        min_samples_leaf: int = 1,
        n_bins: int = 64,
    ):
        self.params = TreeParams(
            max_depth=max_depth,
            min_child_weight=0.0,
            reg_lambda=0.0,
            gamma=0.0,
            min_samples_leaf=min_samples_leaf,
        )
        self.n_bins = n_bins
        self.binner_: Binner | None = None
        self.tree_: Tree | None = None
        self.n_features_ = 0
        self.n_outputs_ = 0

    def fit(self, X: np.ndarray, Y: np.ndarray) -> "DecisionTreeRegressor":
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        if Y.ndim == 1:
            Y = Y[:, None]
        if X.ndim != 2 or Y.shape[0] != X.shape[0]:
            raise ValueError(f"bad shapes X={X.shape} Y={Y.shape}")
        self.n_features_ = X.shape[1]
        self.n_outputs_ = Y.shape[1]
        self.binner_ = Binner(self.n_bins)
        Xb = self.binner_.fit_transform(X)
        # g = -y, h = 1 makes the engine's leaf weight the group mean.
        self.tree_ = grow_tree(
            Xb, -Y, np.ones_like(Y), self.params, self.n_bins
        )
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.tree_ is None or self.binner_ is None:
            raise RuntimeError("predict called before fit")
        Xb = self.binner_.transform(np.asarray(X, dtype=np.float64))
        return self.tree_.predict_binned(Xb)

    def predict_binned(self, Xb: np.ndarray) -> np.ndarray:
        """Predict from pre-binned features (skips ``binner_.transform``)."""
        if self.tree_ is None:
            raise RuntimeError("predict called before fit")
        return self.tree_.predict_binned(np.asarray(Xb))

    def feature_importances(self) -> np.ndarray:
        """Average-gain importances (normalized to sum to 1)."""
        if self.tree_ is None:
            raise RuntimeError("feature_importances called before fit")
        gains = self.tree_.feature_gains()
        counts = self.tree_.feature_split_counts()
        raw = np.where(counts > 0, gains / np.maximum(counts, 1), 0.0)
        s = raw.sum()
        return raw / s if s > 0 else raw


class RandomForestRegressor:
    """Bagged ensemble of multi-output CART trees.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth, min_samples_leaf, n_bins:
        Per-tree growth controls.
    max_features:
        Fraction of features considered per tree (column subsampling);
        1.0 uses all features.
    bootstrap:
        Sample rows with replacement per tree (classic bagging).
    random_state:
        Seed controlling bootstrap and feature subsampling.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int = 10,
        min_samples_leaf: int = 2,
        n_bins: int = 64,
        max_features: float = 1.0,
        bootstrap: bool = True,
        random_state: int | None = None,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0 < max_features <= 1:
            raise ValueError("max_features must be in (0, 1]")
        self.n_estimators = n_estimators
        self.params = TreeParams(
            max_depth=max_depth,
            min_child_weight=0.0,
            reg_lambda=0.0,
            gamma=0.0,
            min_samples_leaf=min_samples_leaf,
        )
        self.n_bins = n_bins
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.binner_: Binner | None = None
        self.trees_: list[Tree] = []
        self.n_features_ = 0
        self.n_outputs_ = 0
        # Lazily-built flat stacked ensemble, keyed by strong references
        # to the trees themselves so replacing trees_ (e.g.
        # deserialization, a serve hot-swap) always invalidates it —
        # an id-based key could false-hit on recycled ids.
        self._flat_cache: tuple[tuple[Tree, ...], FlatEnsemble] | None = None

    def fit(self, X: np.ndarray, Y: np.ndarray) -> "RandomForestRegressor":
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        if Y.ndim == 1:
            Y = Y[:, None]
        if X.ndim != 2 or Y.shape[0] != X.shape[0]:
            raise ValueError(f"bad shapes X={X.shape} Y={Y.shape}")
        n, f = X.shape
        self.n_features_ = f
        self.n_outputs_ = Y.shape[1]
        rng = np.random.default_rng(self.random_state)
        self.binner_ = Binner(self.n_bins)
        Xb = self.binner_.fit_transform(X)
        G = -Y
        H = np.ones_like(Y)
        self.trees_ = []
        self._flat_cache = None
        for _ in range(self.n_estimators):
            rows = rng.integers(0, n, size=n) if self.bootstrap else None
            cols = None
            if self.max_features < 1.0:
                m = max(1, int(round(self.max_features * f)))
                cols = np.sort(rng.choice(f, size=m, replace=False))
            self.trees_.append(
                grow_tree(Xb, G, H, self.params, self.n_bins,
                          rows=rows, feature_subset=cols)
            )
        return self

    #: Forests always carry an uncertainty estimate: the bagging spread.
    has_uncertainty = True

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Mean prediction over trees; shape ``(n, n_outputs)``."""
        return self.predict_per_tree(X).mean(axis=0)

    def predict_with_uncertainty(
        self, X: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(mean, std)`` over trees, each ``(n, n_outputs)``.

        The mean is computed by the same ``per_tree.mean(axis=0)``
        expression as :meth:`predict`, so it is bit-identical to the
        plain prediction — uncertainty is a second output, never a
        different answer.
        """
        per_tree = self.predict_per_tree(X)
        return per_tree.mean(axis=0), per_tree.std(axis=0)

    def predict_binned_with_uncertainty(
        self, Xb: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(mean, std)`` over trees from pre-binned features."""
        per_tree = self.predict_binned_per_tree(Xb)
        return per_tree.mean(axis=0), per_tree.std(axis=0)

    def predict_per_tree(self, X: np.ndarray) -> np.ndarray:
        """Every tree's prediction; shape ``(n_trees, n, n_outputs)``.

        The spread across trees is the standard bagging uncertainty
        estimate (see :meth:`predict_with_uncertainty`)."""
        if not self.trees_ or self.binner_ is None:
            raise RuntimeError("predict called before fit")
        Xb = self.binner_.transform(np.asarray(X, dtype=np.float64))
        return self.predict_binned_per_tree(Xb)

    def predict_binned(self, Xb: np.ndarray) -> np.ndarray:
        """Mean prediction from pre-binned features; ``(n, n_outputs)``."""
        return self.predict_binned_per_tree(Xb).mean(axis=0)

    def predict_binned_per_tree(self, Xb: np.ndarray) -> np.ndarray:
        """Per-tree predictions from pre-binned features.

        All trees are walked in one flat vectorized pass; the gathered
        leaf values are bit-identical to stacking each tree's own
        ``predict_binned`` output.
        """
        if not self.trees_:
            raise RuntimeError("predict called before fit")
        key = tuple(self.trees_)
        cached = self._flat_cache
        if cached is not None and cached[0] == key:
            flat = cached[1]
        else:
            flat = FlatEnsemble(self.trees_)
            self._flat_cache = (key, flat)
        leaves = flat.predict_leaves(np.asarray(Xb))
        return flat.values[leaves]

    def __getstate__(self) -> dict:
        # Never pickle the derived flat cache: a deserialized copy's
        # trees are new objects so the entry could only sit stale (see
        # GradientBoostedTrees.__getstate__).
        state = self.__dict__.copy()
        state["_flat_cache"] = None
        return state

    def feature_importances(self) -> np.ndarray:
        """Average-gain importances over all trees (normalized)."""
        if not self.trees_:
            raise RuntimeError("feature_importances called before fit")
        gains = np.zeros(self.n_features_)
        counts = np.zeros(self.n_features_)
        for tree in self.trees_:
            gains += tree.feature_gains()
            counts += tree.feature_split_counts()
        raw = np.where(counts > 0, gains / np.maximum(counts, 1), 0.0)
        s = raw.sum()
        return raw / s if s > 0 else raw

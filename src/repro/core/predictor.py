"""CrossArchPredictor: the user-facing counters-to-RPV model.

Wraps a regression model behind the feature pipeline so downstream code
(the scheduler, the examples) can go straight from a profiled run to a
predicted relative-performance vector:

>>> # doctest-style sketch; see examples/quickstart.py for a real run
>>> # predictor = CrossArchPredictor.train(dataset)
>>> # rpv = predictor.predict_record(run_record(profile))
"""

from __future__ import annotations

import pickle
import time
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.arch.machines import SYSTEM_ORDER
from repro.errors import PackingError
from repro.dataset.features import (
    FeatureNormalizer,
    check_record,
    featurize_records,
)
from repro.dataset.generate import MPHPCDataset
from repro.dataset.schema import FEATURE_COLUMNS, FEATURE_LABELS
from repro.frame import Frame
from repro.ml import MODELS

__all__ = ["CrossArchPredictor"]


class CrossArchPredictor:
    """Predicts RPVs (relative to the slowest system) from run counters.

    Parameters
    ----------
    model:
        One of ``"xgboost"`` (default; the paper's best model),
        ``"forest"``, ``"linear"``, ``"mean"``.
    feature_columns:
        Feature subset to use (default: all 21; pass the output of
        :func:`repro.core.pipeline.select_top_features` to retrain on
        the most important features, Section VI-B).
    random_state, **model_kwargs:
        Forwarded to the underlying model.
    """

    def __init__(
        self,
        model: str = "xgboost",
        feature_columns: tuple[str, ...] = FEATURE_COLUMNS,
        random_state: int | None = 0,
        **model_kwargs,
    ):
        self.kind = model
        self.feature_columns = tuple(feature_columns)
        self.model = MODELS[model](random_state=random_state,
                                   **model_kwargs)
        self.normalizer: FeatureNormalizer | None = None
        self.systems = tuple(SYSTEM_ORDER)

    # ------------------------------------------------------------------
    @classmethod
    def train(
        cls,
        dataset: MPHPCDataset,
        model: str = "xgboost",
        rows: np.ndarray | None = None,
        **kwargs,
    ) -> "CrossArchPredictor":
        """Fit a predictor on (a subset of) the MP-HPC dataset."""
        predictor = cls(model=model, **kwargs)
        predictor.fit(dataset, rows=rows)
        return predictor

    def fit(
        self, dataset: MPHPCDataset, rows: np.ndarray | None = None
    ) -> "CrossArchPredictor":
        frame = dataset.frame if rows is None else dataset.frame.take(rows)
        X = frame.to_matrix(list(self.feature_columns))
        Y = frame.to_matrix(list(dataset.target_columns))
        self.model.fit(X, Y)
        self.normalizer = dataset.normalizer
        return self

    # ------------------------------------------------------------------
    def _rows(self, X: np.ndarray) -> tuple[np.ndarray, bool]:
        """Validate a feature matrix: float rows, or the uint8 codes
        :meth:`pack` returns.  Returns ``(X, packed)``."""
        X = np.asarray(X)
        packed = X.dtype == np.uint8
        if packed and getattr(self.model, "binner_", None) is None:
            raise PackingError(
                f"{self.kind} model has no feature binner; "
                "it cannot score packed features"
            )
        if not packed:
            X = X.astype(np.float64, copy=False)
        if X.ndim != 2 or X.shape[1] != len(self.feature_columns):
            error = PackingError if packed else ValueError
            raise error(
                f"{'packed matrix' if packed else 'X'} has shape "
                f"{X.shape}, expected (n, {len(self.feature_columns)})"
            )
        return X, packed

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict RPVs from feature rows or from :meth:`pack` codes.

        Packed codes answer bit-identically to the floats they came
        from: binning is exactly the transform float rows go through
        first, so only the quantile searchsorted is skipped.
        """
        X, packed = self._rows(X)
        score = self.model.predict_binned if packed else self.model.predict
        if not telemetry.metrics_enabled():
            return score(X)
        # Instrumented here — at the batch boundary — so the flat-
        # ensemble kernel underneath stays telemetry-free.
        t0 = time.perf_counter()
        result = score(X)
        telemetry.histogram("predict.batch_seconds").observe(
            time.perf_counter() - t0
        )
        telemetry.histogram(
            "predict.batch_rows", telemetry.SIZE_BUCKETS
        ).observe(X.shape[0])
        return result

    def pack(self, X: np.ndarray) -> np.ndarray:
        """Pack a float feature matrix into uint8 bin codes, once.

        Tree models discretize features into at most 256 quantile bins
        before any traversal, so repeated scoring of the same rows
        (every scheduler wake-up, every sweep cell, every serve
        hot-batch) can skip both the quantile transform and the float64
        matrix entirely: a packed matrix streams 1 byte per cell
        instead of 8.  Feed the result to :meth:`predict` or
        :meth:`predict_with_uncertainty`.

        Raises :class:`repro.errors.PackingError` when the underlying
        model has no binner (linear/mean models traverse nothing, so
        there is no packing to do).
        """
        binner = getattr(self.model, "binner_", None)
        if binner is None:
            raise PackingError(
                f"{self.kind} model has no feature binner; "
                "pack() applies to tree models only"
            )
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != len(self.feature_columns):
            raise PackingError(
                f"X has shape {X.shape}, expected "
                f"(n, {len(self.feature_columns)})"
            )
        return binner.transform(X)

    def predict_frame(self, frame: Frame) -> np.ndarray:
        """Predict RPVs for rows of a frame containing feature columns."""
        return self.predict(frame.to_matrix(list(self.feature_columns)))

    def predict_record(self, record: dict) -> np.ndarray:
        """Predict the RPV for one raw run record.

        *record* is the output of :func:`repro.hatchet_lite.run_record`
        (canonical counters + run metadata).  Features are derived with
        the normalizer fitted during training, matching the deployment
        path: profile once on one machine, predict everywhere.

        Raises ``KeyError`` when a required counter field is absent and
        ``ValueError`` when one is NaN or ±inf (a truncated or garbled
        measurement) — defined failure modes that
        :class:`repro.resilience.ResilientPredictor` turns into graceful
        degradation instead.
        """
        if self.normalizer is None:
            raise RuntimeError("predict_record called before fit")
        check_record(record)
        return self.predict(featurize_records(
            [record], self.normalizer, self.feature_columns
        ))[0]

    def rank_systems(self, record: dict) -> list[str]:
        """System names ordered fastest to slowest for one run record."""
        order = np.argsort(self.predict_record(record), kind="stable")
        return [self.systems[i] for i in order]

    @property
    def has_uncertainty(self) -> bool:
        """Whether the wrapped model exposes an uncertainty estimate."""
        return getattr(self.model, "has_uncertainty", False)

    def predict_with_uncertainty(
        self, X: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Predict RPVs with a per-component uncertainty estimate.

        Takes feature rows or :meth:`pack` codes, like :meth:`predict`.
        The spread is the ensemble spread for forests and the
        inter-quantile half-width for boosting fitted with
        ``quantile_heads``; the mean stays bit-identical to
        :meth:`predict` (uncertainty is a second output, never a
        different answer).  Returns ``(mean, spread)``, both shaped
        ``(n, n_outputs)``.  A scheduler can use the spread to fall
        back to safer placements when the model is unsure which system
        wins.
        """
        if not self.has_uncertainty:
            raise TypeError(
                f"{self.kind} model has no uncertainty estimate; "
                "use model='forest' or fit xgboost with quantile_heads"
            )
        X, packed = self._rows(X)
        if packed:
            return self.model.predict_binned_with_uncertainty(X)
        return self.model.predict_with_uncertainty(X)

    # ------------------------------------------------------------------
    def feature_importances(self) -> dict[str, float]:
        """Per-feature importance (average gain), highest first.

        Only tree models expose importances, matching the paper ("the
        best set of features using those reported by XGBoost and the
        decision forest, since these models expose feature importances").
        """
        if not hasattr(self.model, "feature_importances"):
            raise TypeError(f"{self.kind} model has no feature importances")
        values = self.model.feature_importances()
        pairs = sorted(
            zip(self.feature_columns, values), key=lambda kv: -kv[1]
        )
        return {name: float(v) for name, v in pairs}

    def feature_importances_labeled(self) -> dict[str, float]:
        """Importances keyed by the paper's Fig. 6 feature labels."""
        return {
            FEATURE_LABELS.get(name, name): value
            for name, value in self.feature_importances().items()
        }

    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Persist the trained predictor ("This model is exported and
        used in downstream relative performance prediction tasks")."""
        Path(path).write_bytes(pickle.dumps(self))

    @classmethod
    def load(cls, path: str | Path) -> "CrossArchPredictor":
        obj = pickle.loads(Path(path).read_bytes())
        if not isinstance(obj, cls):
            raise TypeError(f"{path} does not contain a CrossArchPredictor")
        return obj

"""Graceful degradation for RPV prediction.

A scheduler that calls :meth:`repro.core.CrossArchPredictor.predict_record`
directly dies the moment one job arrives with a truncated counter file,
a NaN in a PAPI field, or after the model pickle failed to load.
:class:`ResilientPredictor` wraps the model behind a four-tier
degradation chain so prediction *always* returns an RPV, each answer
labeled with the tier that produced it:

1. ``model``     — the wrapped model on clean inputs (full quality).
2. ``imputed``   — corrupt/missing fields repaired with training-set
   feature means, then the model (slightly degraded).
3. ``mean_rpv``  — the training-set mean RPV, the paper's Section VI-A
   baseline (coarse but honest).
4. ``heuristic`` — no model and no training stats at all: a fixed
   RPV mimicking the paper's User+RR placement intuition (GPU-capable
   work is assumed much faster on GPU systems, CPU work mildly faster
   on the CPU systems).

Imputation happens in *feature* space: the record is derived with
placeholder values where counters are broken, then every feature
tainted by a broken counter is overwritten with its training-set mean.
This keeps the intact counters contributing real signal instead of
throwing the whole vector away.

Tier usage is counted in :attr:`ResilientPredictor.tier_counts` so
experiments can report what fraction of decisions ran degraded
(:func:`repro.sched.metrics.degraded_prediction_fraction`).
"""

from __future__ import annotations

import pickle
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.arch.machines import MACHINES, SYSTEM_ORDER
from repro.core.predictor import CrossArchPredictor
from repro.dataset.features import (
    RAW_FOR_MAGNITUDE,
    RATIO_SOURCES,
    REQUIRED_RECORD_FIELDS,
    featurize_records,
    finite_counter,
)
from repro.dataset.schema import ARCH_COLUMNS, CONFIG_FEATURES, RATIO_FEATURES
from repro.errors import ReproError

__all__ = [
    "ResilientPredictor",
    "PredictionOutcome",
    "CorruptingPredictor",
    "TierSnapshot",
]

#: Degradation tiers, best first.
TIERS = ("model", "imputed", "mean_rpv", "heuristic")

#: Heuristic RPVs (time ratios, canonical system order) for the last
#: tier: relative times a GPU-capable vs CPU-only code typically shows
#: across CPU (Quartz, Ruby) and GPU (Lassen, Corona) systems.
_HEURISTIC_GPU = {"Quartz": 1.0, "Ruby": 0.85, "Lassen": 0.25, "Corona": 0.3}
_HEURISTIC_CPU = {"Quartz": 0.8, "Ruby": 0.65, "Lassen": 1.0, "Corona": 0.95}

#: Which derived features a broken raw field taints.
_TAINTS: dict[str, tuple[str, ...]] = {
    **{raw: (feat,) for feat, raw in RATIO_SOURCES.items()},
    **{raw: (feat,) for feat, raw in RAW_FOR_MAGNITUDE.items()},
    **{name: (name,) for name in CONFIG_FEATURES},
    "total_instructions": tuple(RATIO_FEATURES),
    "machine": tuple(ARCH_COLUMNS),
}


@dataclass
class PredictionOutcome:
    """One prediction plus the tier that served it."""

    rpv: np.ndarray
    tier: str
    repaired: tuple[str, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class TierSnapshot:
    """Point-in-time view of the degradation chain's tier usage.

    Unlike the run-dir telemetry counters (merged only when a run
    finalizes), a snapshot is readable at any moment — the admission
    controller in :mod:`repro.serve` polls one per ``/metrics`` scrape,
    and tests can assert tier transitions mid-stream.
    """

    counts: tuple[tuple[str, int], ...]
    total: int
    degraded_fraction: float

    def count(self, tier: str) -> int:
        return dict(self.counts).get(tier, 0)

    def delta(self, earlier: "TierSnapshot") -> "TierSnapshot":
        """Tier usage between *earlier* and this snapshot."""
        before = dict(earlier.counts)
        counts = tuple(
            (tier, n - before.get(tier, 0)) for tier, n in self.counts
        )
        total = sum(n for _, n in counts)
        degraded = total - dict(counts).get("model", 0)
        return TierSnapshot(
            counts=counts,
            total=total,
            degraded_fraction=degraded / total if total else 0.0,
        )

    def to_dict(self) -> dict:
        """JSON-ready form (what ``/metrics`` serves)."""
        return {
            "counts": dict(self.counts),
            "total": self.total,
            "degraded_fraction": self.degraded_fraction,
        }


def _heuristic_rpv(uses_gpu: bool, systems: tuple[str, ...]) -> np.ndarray:
    table = _HEURISTIC_GPU if uses_gpu else _HEURISTIC_CPU
    # Unknown systems (non-Table-I clusters) get a neutral 1.0.
    return np.array([table.get(name, 1.0) for name in systems])


class ResilientPredictor:
    """Never-failing RPV prediction with tier-labeled degradation.

    Parameters
    ----------
    predictor:
        The wrapped :class:`CrossArchPredictor`, or None when the model
        is unavailable (tiers 3-4 only).
    feature_fill:
        Per-feature fill values (training-set column means), aligned
        with ``predictor.feature_columns``, used to impute broken
        entries.
    mean_rpv:
        Training-set mean RPV (the tier-3 answer).
    """

    def __init__(
        self,
        predictor: CrossArchPredictor | None = None,
        feature_fill: np.ndarray | None = None,
        mean_rpv: np.ndarray | None = None,
        systems: tuple[str, ...] = SYSTEM_ORDER,
    ):
        self.predictor = predictor
        self.feature_fill = (
            None if feature_fill is None
            else np.asarray(feature_fill, dtype=np.float64)
        )
        self.mean_rpv = (
            None if mean_rpv is None else np.asarray(mean_rpv, dtype=np.float64)
        )
        self.systems = tuple(predictor.systems if predictor else systems)
        self.tier_counts: Counter[str] = Counter()
        if (
            self.predictor is not None
            and self.feature_fill is not None
            and len(self.feature_fill) != len(self.predictor.feature_columns)
        ):
            raise ValueError(
                "feature_fill length does not match predictor features"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_training(
        cls, predictor: CrossArchPredictor, dataset
    ) -> "ResilientPredictor":
        """Build the full chain from a trained predictor and its dataset.

        Fill values are the training-set means of the predictor's
        feature columns; the baseline tier answers the training-set
        mean RPV.
        """
        fill = dataset.frame.to_matrix(
            list(predictor.feature_columns)
        ).mean(axis=0)
        return cls(
            predictor=predictor,
            feature_fill=fill,
            mean_rpv=dataset.Y().mean(axis=0),
        )

    @classmethod
    def load(cls, path: str | Path, dataset=None) -> "ResilientPredictor":
        """Load a saved predictor, degrading instead of raising.

        A missing or unreadable model file yields a chain whose best
        tier is ``mean_rpv`` (when *dataset* supplies statistics) or
        ``heuristic`` (cold start) — prediction keeps working either
        way.
        """
        try:
            predictor = CrossArchPredictor.load(path)
        except (ReproError, ValueError, TypeError, OSError, EOFError,
                AttributeError, pickle.UnpicklingError):
            # Exactly the decoder failures a missing/garbage/stale model
            # file produces — anything else is a genuine bug and raises.
            predictor = None
        if predictor is not None and dataset is not None:
            return cls.from_training(predictor, dataset)
        if dataset is not None:
            return cls(predictor=None, mean_rpv=dataset.Y().mean(axis=0))
        return cls(predictor=predictor)

    # ------------------------------------------------------------------
    def _count(self, tier: str, n: int = 1) -> None:
        """The single accounting point for tier usage: the local counter
        (experiment summaries) and the telemetry counter (run-dir
        metrics) can never disagree."""
        self.tier_counts[tier] += n
        telemetry.counter(f"resilience.tier.{tier}").inc(n)

    def baseline(self, uses_gpu: bool = False) -> PredictionOutcome:
        """Answer from the model-free tiers (``mean_rpv``/``heuristic``).

        Public entry point for callers that must *not* touch the model:
        the serving layer's admission controller sheds overload here —
        an O(1) answer instead of a queued model prediction — and the
        tier counters record the degradation honestly.
        """
        return self._baseline(uses_gpu)

    def _baseline(self, uses_gpu: bool) -> PredictionOutcome:
        if self.mean_rpv is not None:
            self._count("mean_rpv")
            return PredictionOutcome(self.mean_rpv.copy(), "mean_rpv")
        self._count("heuristic")
        return PredictionOutcome(
            _heuristic_rpv(uses_gpu, self.systems), "heuristic"
        )

    def _repair_and_predict(self, record: dict, bad: list[str]) -> np.ndarray:
        """Tier 2: derive features around the damage, impute the rest.

        Broken raw fields get placeholder values so derivation runs,
        then every feature they taint is overwritten with its
        training-set mean before the model sees it.
        """
        repaired = dict(record)
        for name in bad:
            # The placeholder never reaches the model (the tainted
            # features are overwritten below); it only has to keep the
            # derivation arithmetic finite.
            repaired[name] = SYSTEM_ORDER[0] if name == "machine" else 1.0
        columns = self.predictor.feature_columns
        X = featurize_records([repaired], self.predictor.normalizer, columns)
        tainted = set()
        for name in bad:
            tainted.update(_TAINTS.get(name, ()))
        for i, column in enumerate(columns):
            if column in tainted or not np.isfinite(X[0, i]):
                X[0, i] = self.feature_fill[i]
        return self.predictor.predict(X)[0]

    def predict_record_detailed(self, record: dict) -> PredictionOutcome:
        """Predict one raw run record, reporting the tier used.

        Never raises: any defect in *record* (missing keys, NaN/inf
        counters, unknown machine) or in the model itself drops the
        prediction down the chain instead.
        """
        uses_gpu = bool(record.get("uses_gpu", False))
        bad = [
            name for name in REQUIRED_RECORD_FIELDS
            if name not in record or not finite_counter(record[name])
        ]
        if str(record.get("machine", "")) not in MACHINES:
            bad.append("machine")

        if self.predictor is not None and not bad:
            try:
                rpv = self.predictor.predict_record(record)
            except (ReproError, ValueError, KeyError):
                # Record defects the screen above cannot see (e.g. a
                # non-positive total_instructions).  Genuine model bugs
                # surface instead of being absorbed as "degraded mode".
                return self._baseline(uses_gpu)
            self._count("model")
            return PredictionOutcome(np.asarray(rpv, dtype=np.float64), "model")

        if self.predictor is not None and self.feature_fill is not None:
            try:
                rpv = self._repair_and_predict(record, bad)
            except (ReproError, ValueError, KeyError):
                return self._baseline(uses_gpu)
            self._count("imputed")
            return PredictionOutcome(
                np.asarray(rpv, dtype=np.float64), "imputed", tuple(sorted(bad))
            )

        return self._baseline(uses_gpu)

    def predict_record(self, record: dict) -> np.ndarray:
        """Drop-in for :meth:`CrossArchPredictor.predict_record`."""
        return self.predict_record_detailed(record).rpv

    # ------------------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Batch predict with per-row degradation (drop-in for
        :meth:`CrossArchPredictor.predict`).

        Rows containing non-finite entries are imputed with the
        training feature means (tier ``imputed``); rows beyond repair —
        or every row, when no model is loaded — get the baseline tier.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        n = X.shape[0]
        if self.predictor is None:
            base = (
                self.mean_rpv if self.mean_rpv is not None
                else _heuristic_rpv(False, self.systems)
            )
            tier = "mean_rpv" if self.mean_rpv is not None else "heuristic"
            self._count(tier, n)
            return np.tile(base, (n, 1))

        finite = np.isfinite(X)
        clean_rows = finite.all(axis=1)
        out = np.empty((n, len(self.systems)))
        if clean_rows.any():
            out[clean_rows] = self.predictor.predict(X[clean_rows])
            self._count("model", int(clean_rows.sum()))
        dirty = ~clean_rows
        if dirty.any():
            if self.feature_fill is not None:
                repaired = X[dirty].copy()
                fill = np.broadcast_to(self.feature_fill, repaired.shape)
                mask = ~np.isfinite(repaired)
                repaired[mask] = fill[mask]
                out[dirty] = self.predictor.predict(repaired)
                self._count("imputed", int(dirty.sum()))
            else:
                base = (
                    self.mean_rpv if self.mean_rpv is not None
                    else _heuristic_rpv(False, self.systems)
                )
                out[dirty] = base
                tier = "mean_rpv" if self.mean_rpv is not None else "heuristic"
                self._count(tier, int(dirty.sum()))
        return out

    # ------------------------------------------------------------------
    def degraded_fraction(self) -> float:
        """Fraction of predictions served below the ``model`` tier."""
        total = sum(self.tier_counts.values())
        if total == 0:
            return 0.0
        return 1.0 - self.tier_counts.get("model", 0) / total

    def summary(self) -> dict[str, int]:
        """Tier usage counts, best tier first."""
        return {tier: self.tier_counts.get(tier, 0) for tier in TIERS}

    def tier_snapshot(self) -> TierSnapshot:
        """A live, immutable :class:`TierSnapshot` of tier usage so far.

        Cheap enough to call per request; two snapshots bracketing a
        window yield the window's transitions via
        :meth:`TierSnapshot.delta`.
        """
        counts = tuple(
            (tier, self.tier_counts.get(tier, 0)) for tier in TIERS
        )
        total = sum(n for _, n in counts)
        degraded = total - self.tier_counts.get("model", 0)
        return TierSnapshot(
            counts=counts,
            total=total,
            degraded_fraction=degraded / total if total else 0.0,
        )


class CorruptingPredictor:
    """Experiment adapter: corrupt features with an injector, then predict.

    Lets :func:`repro.workloads.build_workload` exercise the degradation
    chain without knowing about fault injection — it just sees an object
    with ``predict``.
    """

    def __init__(self, resilient: ResilientPredictor, injector):
        self.resilient = resilient
        self.injector = injector

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.resilient.predict(self.injector.corrupt_features(X))

"""The descriptor-conditioned zero-shot predictor.

What must hold:

* it scores machines through their descriptors, so a machine held out
  of training (or invented on the spot) still gets a prediction;
* ``predict_with_uncertainty``'s mean is bit-identical to ``predict``;
* the wide-row expansion path (``predict_wide`` — the serve path)
  agrees with scoring long rows directly.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro import native
from repro.arch.descriptor import MachineDescriptor, descriptor_from_spec
from repro.arch.machines import MACHINES, SYSTEM_ORDER
from repro.core.zeroshot import DescriptorConditionedPredictor
from repro.dataset.longform import build_longform
from repro.dataset.schema import FEATURE_COLUMNS, LONG_FEATURE_COLUMNS
from repro.serve.loadgen import synthesize_payloads

#: SHA-256 of ``(scores, spread)`` from the ``zeroshot`` fixture over
#: every ``small_dataset`` row against the four SYSTEM_ORDER descriptors,
#: recorded when the quantile heads were still walked one Tree at a time.
GOLDEN_SCORES = Path(__file__).parent / "golden" / "zeroshot_wide.sha256"


@pytest.fixture(scope="module")
def longform(small_dataset):
    return build_longform(small_dataset)


@pytest.fixture(scope="module")
def zeroshot(longform) -> DescriptorConditionedPredictor:
    return DescriptorConditionedPredictor.train(
        longform, n_estimators=40, max_depth=4, n_quantile_rounds=40,
    )


@pytest.fixture(scope="module")
def holdout_zeroshot(longform) -> DescriptorConditionedPredictor:
    """Trained with Corona completely absent (source AND target)."""
    return DescriptorConditionedPredictor.train(
        longform.exclude_machine("Corona"),
        n_estimators=40, max_depth=4, n_quantile_rounds=40,
    )


def _descriptors(names=SYSTEM_ORDER):
    return [descriptor_from_spec(MACHINES[n]) for n in names]


class TestPredict:
    def test_long_row_prediction_shape(self, zeroshot, longform):
        X = longform.X()[:32]
        pred = zeroshot.predict(X)
        assert pred.shape == (32,)
        assert np.isfinite(pred).all()

    def test_learns_rel_time(self, zeroshot, longform):
        """In-sample fit must beat the trivial all-ones predictor."""
        X, y = longform.X(), longform.y()
        model_mae = np.abs(zeroshot.predict(X) - y).mean()
        ones_mae = np.abs(1.0 - y).mean()
        # rel_time is heavy-tailed (CPU<->GPU ratios span ~100x), so
        # the bar is a clear improvement, not a tight fit.
        assert model_mae < 0.8 * ones_mae

    def test_rejects_wrong_width(self, zeroshot):
        with pytest.raises(ValueError, match="expected"):
            zeroshot.predict(np.zeros((3, len(LONG_FEATURE_COLUMNS) + 1)))

    def test_uncertainty_mean_bit_identical(self, zeroshot, longform):
        X = longform.X()[:64]
        mean, spread = zeroshot.predict_with_uncertainty(X)
        assert np.array_equal(mean, zeroshot.predict(X))
        assert spread.shape == mean.shape
        assert (spread >= 0).all()

    def test_forest_model_uncertainty(self, longform):
        forest = DescriptorConditionedPredictor.train(
            longform, model="forest", n_estimators=8, max_depth=6,
        )
        X = longform.X()[:16]
        mean, spread = forest.predict_with_uncertainty(X)
        assert np.array_equal(mean, forest.predict(X))
        assert (spread >= 0).all() and spread.any()

    def test_no_uncertainty_model_raises(self, longform):
        linear = DescriptorConditionedPredictor.train(longform,
                                                      model="linear")
        assert not linear.has_uncertainty
        with pytest.raises(TypeError, match="uncertainty"):
            linear.predict_with_uncertainty(longform.X()[:2])


class TestWideExpansion:
    def test_predict_wide_matches_long_path(self, zeroshot, small_dataset,
                                            longform):
        """Scoring wide rows against SYSTEM_ORDER descriptors must equal
        scoring the equivalent long rows directly."""
        n = 8
        wide = zeroshot.predict_wide(small_dataset.X()[:n], _descriptors())
        direct = zeroshot.predict(
            longform.X()[:n * len(SYSTEM_ORDER)]
        ).reshape(n, len(SYSTEM_ORDER))
        assert np.array_equal(wide, direct)

    def test_wide_uncertainty_shapes(self, zeroshot, small_dataset):
        descs = _descriptors(("Ruby", "Corona"))
        scores, spread = zeroshot.predict_wide_with_uncertainty(
            small_dataset.X()[:5], descs
        )
        assert scores.shape == spread.shape == (5, 2)
        assert (spread >= 0).all()

    def test_rejects_bad_onehot(self, zeroshot):
        X = np.zeros((1, len(FEATURE_COLUMNS)))  # no source machine set
        with pytest.raises(ValueError, match="one-hot"):
            zeroshot.predict_wide(X, _descriptors())

    def test_rejects_empty_machines(self, zeroshot, small_dataset):
        with pytest.raises(ValueError, match="at least one"):
            zeroshot.predict_wide(small_dataset.X()[:1], [])


class TestZeroShotGeneralization:
    def test_scores_held_out_machine(self, holdout_zeroshot,
                                     small_dataset):
        """The model never saw a Corona measurement, yet scores it."""
        assert "Corona" not in holdout_zeroshot.train_targets
        rows = small_dataset.frame["machine"].astype(str) != "Corona"
        X = small_dataset.X()[np.flatnonzero(rows)[:16]]
        scores, spread = holdout_zeroshot.predict_wide_with_uncertainty(
            X, _descriptors()
        )
        corona = list(SYSTEM_ORDER).index("Corona")
        assert np.isfinite(scores[:, corona]).all()
        assert np.isfinite(spread[:, corona]).all()

    def test_scores_invented_machine(self, zeroshot, small_dataset):
        """A descriptor for hardware that never existed still scores —
        the whole point of conditioning on descriptors."""
        ruby = descriptor_from_spec(MACHINES["Ruby"]).to_dict()
        ruby.update(name="RubyPrime", cores=ruby["cores"] * 2,
                    mem_bw_gbs=ruby["mem_bw_gbs"] * 2)
        invented = MachineDescriptor.from_dict(ruby)
        scores = zeroshot.predict_wide(small_dataset.X()[:4], [invented])
        assert scores.shape == (4, 1)
        assert np.isfinite(scores).all()

    def test_score_record(self, zeroshot):
        record = synthesize_payloads(1, seed=3)[0]["record"]
        scores, spread = zeroshot.score_record(record, _descriptors())
        assert scores.shape == spread.shape == (len(SYSTEM_ORDER),)
        assert np.isfinite(scores).all()

    def test_ranking_consistency_with_rel_time(self, zeroshot, longform):
        """argmin over machine scores = predicted-fastest machine; the
        scalar rel_time target makes rankings fall out of one argsort."""
        X = longform.X()[:4 * len(SYSTEM_ORDER)]
        per_row = zeroshot.predict(X).reshape(-1, len(SYSTEM_ORDER))
        fastest = per_row.argmin(axis=1)
        assert fastest.shape == (4,)
        assert (fastest < len(SYSTEM_ORDER)).all()


class TestGoldenScores:
    """Main ensemble and quantile heads both route through the flat
    kernel; natively and through the numpy fallback they must give the
    exact bits the per-tree traversal gave."""

    @pytest.mark.parametrize("kernel", ["native", "numpy"])
    def test_wide_scores_match_golden_digest(self, zeroshot, small_dataset,
                                             kernel):
        saved = native._state
        if kernel == "numpy":
            native._state = (None, "forced off for the golden test")
        try:
            scores, spread = zeroshot.predict_wide_with_uncertainty(
                small_dataset.X(), _descriptors()
            )
        finally:
            native._state = saved
        digest = hashlib.sha256(scores.tobytes() + spread.tobytes())
        assert digest.hexdigest() == GOLDEN_SCORES.read_text().strip()


class TestNonFiniteInputs:
    """The binner files NaN under its last bin, so a broken counter
    would otherwise come back as a finite, confident score."""

    @pytest.mark.parametrize("field", ["total_instructions", "load",
                                       "mem_stall_cycles", "nodes"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_score_record_rejects_non_finite_counter(self, zeroshot,
                                                     field, value):
        record = dict(synthesize_payloads(1, seed=3)[0]["record"])
        record[field] = value
        with pytest.raises(ValueError, match=f"non-finite.*{field}"):
            zeroshot.score_record(record, _descriptors())

    def test_score_record_rejects_missing_counter(self, zeroshot):
        record = dict(synthesize_payloads(1, seed=3)[0]["record"])
        del record["total_instructions"]
        with pytest.raises(KeyError, match="total_instructions"):
            zeroshot.score_record(record, _descriptors())

    def test_wide_rows_must_be_finite(self, zeroshot, small_dataset):
        X = small_dataset.X()[:3].copy()
        X[1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            zeroshot.predict_wide_with_uncertainty(X, _descriptors())
        with pytest.raises(ValueError, match="finite"):
            zeroshot.predict_wide(X, _descriptors())


class TestPersistence:
    def test_pickle_round_trip(self, zeroshot, longform, tmp_path):
        path = tmp_path / "zeroshot.pkl"
        zeroshot.save(path)
        loaded = DescriptorConditionedPredictor.load(path)
        X = longform.X()[:16]
        assert np.array_equal(loaded.predict(X), zeroshot.predict(X))
        assert loaded.train_targets == zeroshot.train_targets

    def test_load_rejects_wrong_type(self, tmp_path):
        import pickle

        path = tmp_path / "junk.pkl"
        path.write_bytes(pickle.dumps({"not": "a predictor"}))
        with pytest.raises(TypeError, match="DescriptorConditioned"):
            DescriptorConditionedPredictor.load(path)

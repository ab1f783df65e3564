"""Zero-shot serving: inline machine descriptors over the wire.

The contract pinned here: a ``/predict`` payload carrying a
``machines`` array of full descriptors is answered with one score and
one **non-null uncertainty** per machine — including machines the
4-slot RPV head has never heard of — while classic payloads keep the
exact RPV answer they always had.  Runs trained without ``--zeroshot``
refuse such requests with a typed 503 instead of guessing.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.arch.descriptor import descriptor_from_spec
from repro.arch.machines import MACHINES, SYSTEM_ORDER
from repro.artifacts import RunDir
from repro.config import ExperimentConfig, TrainConfig
from repro.core.zeroshot import DescriptorConditionedPredictor
from repro.dataset.longform import build_longform
from repro.errors import ArtifactError, ServeError
from repro.resilience import ResilientPredictor
from repro.serve import (
    ModelManager,
    PredictionService,
    parse_predict_payload,
    synthesize_payloads,
)
from repro.serve.model_manager import ZEROSHOT_MODEL_NAME


def _descriptor_payload(machine, **overrides):
    payload = descriptor_from_spec(MACHINES[machine]).to_dict()
    payload.update(overrides)
    return payload


def make_zeroshot_run(root, predictor, zeroshot, dataset, seed=0) -> str:
    """Finalize a train run dir carrying BOTH heads (the --zeroshot
    layout): predictor.pkl + zeroshot.pkl + resilience.json."""
    experiment = ExperimentConfig("train", TrainConfig(seed=seed,
                                                       zeroshot=True))
    run = RunDir.create(root, experiment)
    predictor.save(run.file("predictor.pkl"))
    zeroshot.save(run.file(ZEROSHOT_MODEL_NAME))
    resilient = ResilientPredictor.from_training(predictor, dataset)
    run.save_json("resilience.json", {
        "feature_fill": [float(v) for v in resilient.feature_fill],
        "mean_rpv": [float(v) for v in resilient.mean_rpv],
    })
    run.finalize()
    return experiment.content_hash()


@pytest.fixture(scope="module")
def zeroshot_head(small_dataset) -> DescriptorConditionedPredictor:
    """Trained with Corona held out, so serving it is truly zero-shot."""
    longform = build_longform(small_dataset).exclude_machine("Corona")
    return DescriptorConditionedPredictor.train(
        longform, n_estimators=40, max_depth=4, n_quantile_rounds=40,
    )


@pytest.fixture(scope="module")
def zs_registry(tmp_path_factory, trained_xgb, zeroshot_head,
                small_dataset):
    root = tmp_path_factory.mktemp("zs_registry")
    chash = make_zeroshot_run(root, trained_xgb, zeroshot_head,
                              small_dataset)
    return root, chash


@pytest.fixture(scope="module")
def payload():
    return synthesize_payloads(1, seed=42)[0]


def make_service(registry_root, **kwargs) -> PredictionService:
    manager = ModelManager(registry_root, poll_interval_s=0.05)
    manager.promote(manager.resolve_hash(None))
    return PredictionService(manager, **kwargs)


class TestProtocolMachines:
    def test_machines_parsed_into_descriptors(self, payload):
        request = parse_predict_payload({
            "record": payload["record"],
            "machines": [_descriptor_payload("Ruby")],
        })
        assert len(request.machines) == 1
        assert request.machines[0].name == "Ruby"

    def test_absent_machines_is_none(self, payload):
        request = parse_predict_payload({"record": payload["record"]})
        assert request.machines is None

    @pytest.mark.parametrize("bad", [[], {}, "Ruby", 7])
    def test_rejects_non_list_or_empty(self, payload, bad):
        with pytest.raises(ServeError, match="non-empty array") as err:
            parse_predict_payload({"record": payload["record"],
                                   "machines": bad})
        assert err.value.reason == "bad-descriptor"

    def test_rejects_malformed_descriptor_with_index(self, payload):
        broken = _descriptor_payload("Ruby")
        broken.pop("mem_bw_gbs")
        with pytest.raises(ServeError, match=r"'machines'\[1\]") as err:
            parse_predict_payload({
                "record": payload["record"],
                "machines": [_descriptor_payload("Quartz"), broken],
            })
        assert err.value.reason == "bad-descriptor"

    def test_rejects_duplicate_names(self, payload):
        with pytest.raises(ServeError, match="repeats name.*Ruby") as err:
            parse_predict_payload({
                "record": payload["record"],
                "machines": [_descriptor_payload("Ruby"),
                             _descriptor_payload("Ruby")],
            })
        assert err.value.reason == "bad-descriptor"

    def test_rejects_oversized_list(self, payload):
        machines = [_descriptor_payload("Ruby", name=f"m{i}")
                    for i in range(65)]
        with pytest.raises(ServeError, match="limit 64"):
            parse_predict_payload({"record": payload["record"],
                                   "machines": machines})

    def test_unknown_keys_still_rejected(self, payload):
        with pytest.raises(ServeError, match="unknown request key"):
            parse_predict_payload({
                "record": payload["record"],
                "machines": [_descriptor_payload("Ruby")],
                "machine": "Ruby",
            })


class TestZeroShotServing:
    def test_scores_inline_machines(self, zs_registry, payload):
        root, chash = zs_registry
        service = make_service(root)
        response = asyncio.run(service.handle_predict({
            "record": payload["record"],
            "machines": [_descriptor_payload("Ruby"),
                         _descriptor_payload("Quartz")],
        }))
        assert response["tier"] == "zeroshot"
        assert response["machines"] == ["Ruby", "Quartz"]
        assert response["model_hash"] == chash
        assert len(response["scores"]) == 2
        assert all(np.isfinite(response["scores"]))
        assert all(s >= 0 for s in response["uncertainty"])
        assert set(response["ranked"]) == {"Ruby", "Quartz"}
        assert response["recommended"] == response["ranked"][0]

    def test_held_out_machine_gets_non_null_uncertainty(
        self, zs_registry, payload, zeroshot_head
    ):
        """Corona never appeared in the zero-shot head's training rows,
        yet the service scores it with a real spread — the acceptance
        criterion for onboarding an unseen machine."""
        assert "Corona" not in zeroshot_head.train_targets
        service = make_service(zs_registry[0])
        response = asyncio.run(service.handle_predict({
            "record": payload["record"],
            "machines": [_descriptor_payload("Corona")],
        }))
        assert response["machines"] == ["Corona"]
        assert np.isfinite(response["scores"][0])
        assert response["uncertainty"][0] is not None
        assert np.isfinite(response["uncertainty"][0])

    def test_invented_machine_scored(self, zs_registry, payload):
        ghost = _descriptor_payload("Ruby", name="RubyPrime")
        ghost["cores"] *= 2
        service = make_service(zs_registry[0])
        response = asyncio.run(service.handle_predict({
            "record": payload["record"], "machines": [ghost],
        }))
        assert response["recommended"] == "RubyPrime"
        assert np.isfinite(response["scores"][0])

    def test_features_path_works_too(self, zs_registry, small_dataset):
        """Pre-featurized rows ride the same zero-shot path as records."""
        service = make_service(zs_registry[0])
        features = [float(v) for v in small_dataset.X()[0]]
        response = asyncio.run(service.handle_predict({
            "features": features,
            "machines": [_descriptor_payload("Lassen")],
        }))
        assert response["tier"] == "zeroshot"
        assert np.isfinite(response["scores"][0])

    def test_features_width_validated(self, zs_registry):
        service = make_service(zs_registry[0])
        with pytest.raises(ServeError, match="features"):
            asyncio.run(service.handle_predict({
                "features": [1.0, 2.0],
                "machines": [_descriptor_payload("Lassen")],
            }))

    @pytest.mark.parametrize("field", ["total_instructions",
                                       "l1_load_miss"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_record_is_a_400(self, zs_registry, payload, field,
                                        value):
        """There is no degraded tier for unseen machines: a broken
        counter fails the zero-shot request, while the RPV path
        degrades the very same record."""
        record = dict(payload["record"], **{field: value})
        service = make_service(zs_registry[0])
        with pytest.raises(ServeError, match="non-finite") as err:
            asyncio.run(service.handle_predict({
                "record": record,
                "machines": [_descriptor_payload("Ruby")],
            }))
        assert (err.value.code, err.value.reason) == (400, "bad-payload")
        rpv = asyncio.run(service.handle_predict({"record": record}))
        assert rpv["tier"] == "imputed"

    def test_non_finite_features_are_a_400(self, zs_registry,
                                           small_dataset):
        features = [float(v) for v in small_dataset.X()[0]]
        features[0] = float("nan")
        service = make_service(zs_registry[0])
        with pytest.raises(ServeError, match="finite") as err:
            asyncio.run(service.handle_predict({
                "features": features,
                "machines": [_descriptor_payload("Lassen")],
            }))
        assert (err.value.code, err.value.reason) == (400, "bad-payload")

    def test_classic_requests_unchanged(self, zs_registry, payload):
        """The RPV path must not notice the zero-shot head exists."""
        service = make_service(zs_registry[0])
        response = asyncio.run(
            service.handle_predict(dict(payload))
        )
        assert response["tier"] == "model"
        assert len(response["rpv"]) == len(SYSTEM_ORDER)

    def test_ranking_orders_by_score(self, zs_registry, payload):
        service = make_service(zs_registry[0])
        response = asyncio.run(service.handle_predict({
            "record": payload["record"],
            "machines": [_descriptor_payload(n) for n in SYSTEM_ORDER],
        }))
        by_name = dict(zip(response["machines"], response["scores"]))
        ranked_scores = [by_name[n] for n in response["ranked"]]
        assert ranked_scores == sorted(ranked_scores)


class TestRunsWithoutZeroShotHead:
    def test_typed_503(self, registry_without_head, payload):
        service = make_service(registry_without_head)
        with pytest.raises(ServeError, match="retrain with --zeroshot") \
                as err:
            asyncio.run(service.handle_predict({
                "record": payload["record"],
                "machines": [_descriptor_payload("Ruby")],
            }))
        assert err.value.code == 503
        assert err.value.reason == "no-zeroshot-model"

    def test_describe_reports_head_presence(
        self, registry_without_head, zs_registry
    ):
        plain = make_service(registry_without_head)
        armed = make_service(zs_registry[0])
        assert plain.manager.active.describe()["zeroshot"] is False
        assert armed.manager.active.describe()["zeroshot"] is True


@pytest.fixture(scope="module")
def registry_without_head(tmp_path_factory, trained_xgb, small_dataset):
    """A registry whose armed run predates --zeroshot (no zeroshot.pkl)."""
    root = tmp_path_factory.mktemp("plain_registry")
    experiment = ExperimentConfig("train", TrainConfig(seed=0))
    run = RunDir.create(root, experiment)
    trained_xgb.save(run.file("predictor.pkl"))
    resilient = ResilientPredictor.from_training(trained_xgb,
                                                 small_dataset)
    run.save_json("resilience.json", {
        "feature_fill": [float(v) for v in resilient.feature_fill],
        "mean_rpv": [float(v) for v in resilient.mean_rpv],
    })
    run.finalize()
    return root


class TestArtifactValidation:
    def test_corrupt_zeroshot_pickle_rejected(self, tmp_path, trained_xgb,
                                              small_dataset):
        """A run dir whose zeroshot.pkl is not a usable head must fail
        at load time, not at first request."""
        import pickle

        experiment = ExperimentConfig("train", TrainConfig(seed=9))
        run = RunDir.create(tmp_path, experiment)
        trained_xgb.save(run.file("predictor.pkl"))
        with open(run.file(ZEROSHOT_MODEL_NAME), "wb") as fh:
            pickle.dump({"not": "a head"}, fh)
        resilient = ResilientPredictor.from_training(trained_xgb,
                                                     small_dataset)
        run.save_json("resilience.json", {
            "feature_fill": [float(v) for v in resilient.feature_fill],
            "mean_rpv": [float(v) for v in resilient.mean_rpv],
        })
        run.finalize()
        manager = ModelManager(tmp_path, poll_interval_s=0.05)
        with pytest.raises(ArtifactError):
            manager.load_model(manager.resolve_hash(None))

    def test_head_without_uncertainty_rejected(self, tmp_path,
                                               trained_xgb,
                                               small_dataset):
        """The wire contract promises non-null uncertainty, so a head
        that cannot produce it is an invalid artifact."""
        longform = build_longform(small_dataset)
        no_heads = DescriptorConditionedPredictor.train(
            longform, model="linear",
        )
        experiment = ExperimentConfig("train", TrainConfig(seed=10))
        run = RunDir.create(tmp_path, experiment)
        trained_xgb.save(run.file("predictor.pkl"))
        no_heads.save(run.file(ZEROSHOT_MODEL_NAME))
        resilient = ResilientPredictor.from_training(trained_xgb,
                                                     small_dataset)
        run.save_json("resilience.json", {
            "feature_fill": [float(v) for v in resilient.feature_fill],
            "mean_rpv": [float(v) for v in resilient.mean_rpv],
        })
        run.finalize()
        manager = ModelManager(tmp_path, poll_interval_s=0.05)
        with pytest.raises(ArtifactError, match="uncertainty"):
            manager.load_model(manager.resolve_hash(None))

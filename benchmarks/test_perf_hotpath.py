"""Microbenchmark: the perf-campaign hot paths, gated by speedup ratios.

Covers the three optimizations the self-profiler (``repro perf``)
pointed at, each verified for exactness before any throughput claim:

* **native tree routing** — the compiled ``route_leaves`` kernel vs the
  numpy fallback inside ``FlatEnsemble.predict_leaves`` (bit-identical
  leaves, then the speedup ratio);
* **uint8 packed predict** — ``CrossArchPredictor.predict`` on a
  pre-packed matrix vs ``predict`` re-binning floats every call
  (bit-identical predictions);
* **sharded replicas** — ``run_replicas`` across processes vs inline,
  pinned bit-identical through ``schedule_digest``.

Ratios land in ``benchmarks/BENCH_hotpath.json``.  Like
``BENCH_sched.json``, the committed file is read before being
overwritten and a measured ratio below half its committed value fails
the run — ratio gates survive differently-sized CI hosts where absolute
wall-time gates cannot.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro import native
from repro.arch.machines import SYSTEM_ORDER
from repro.core.predictor import CrossArchPredictor
from repro.dataset.generate import generate_dataset
from repro.ml.boosting import GradientBoostedTrees
from repro.sched import Job, ReplicaSpec, run_replicas, schedule_digest

BENCH_PATH = Path(__file__).parent / "BENCH_hotpath.json"

#: A measured ratio below half its committed value is a regression.
REGRESSION_FACTOR = 2.0
#: Ratio keys the gate checks (section, key).
GATED = (("native_routing", "speedup_vs_numpy"),
         ("packed_predict", "speedup_vs_unpacked"))


def _baseline() -> dict:
    if BENCH_PATH.exists():
        return json.loads(BENCH_PATH.read_text())
    return {}


def _replica_jobs(n: int, seed: int = 7) -> list[Job]:
    rng = np.random.default_rng(seed)
    jobs = []
    t = 0.0
    for i in range(n):
        t += float(rng.exponential(4.0))
        rpv = rng.uniform(0.5, 3.0, size=len(SYSTEM_ORDER))
        base = float(rng.uniform(10.0, 600.0))
        jobs.append(Job(
            job_id=i, app="CoMD", uses_gpu=bool(rng.integers(2)),
            nodes_required=int(rng.integers(1, 16)),
            runtimes={s: base * float(r)
                      for s, r in zip(SYSTEM_ORDER, rpv)},
            submit_time=t,
            predicted_rpv=rpv * rng.uniform(0.9, 1.1, size=rpv.shape),
            true_rpv=rpv,
        ))
    return jobs


def test_perf_hotpath():
    results: dict = {}

    # --- native routing kernel vs numpy fallback -----------------------
    rng = np.random.default_rng(0)
    X = rng.normal(size=(2000, 12))
    Y = rng.normal(size=(2000, 4))
    gbt = GradientBoostedTrees(n_estimators=80, max_depth=5,
                               random_state=0).fit(X, Y)
    Xb = gbt.binner_.transform(rng.normal(size=(20_000, 12)))
    flat = gbt._flat_ensemble()

    flat.predict_leaves(Xb)  # warm (compiles the kernel on first use)
    t0 = time.perf_counter()
    leaves_fast = flat.predict_leaves(Xb)
    t_fast = time.perf_counter() - t0

    saved_state = native._state
    native._state = (None, "disabled for fallback timing")
    try:
        flat.predict_leaves(Xb)  # warm the numpy path too
        t0 = time.perf_counter()
        leaves_numpy = flat.predict_leaves(Xb)
        t_numpy = time.perf_counter() - t0
    finally:
        native._state = saved_state

    assert np.array_equal(leaves_fast, leaves_numpy), (
        "native kernel routes different leaves than the numpy path")
    results["native_routing"] = {
        "available": native.available(),
        "n_rows": Xb.shape[0],
        "n_trees": flat.n_trees,
        "wall_s_native": round(t_fast, 4),
        "wall_s_numpy": round(t_numpy, 4),
        "speedup_vs_numpy": round(t_numpy / t_fast, 2),
    }

    # --- uint8 packed predict vs float re-binning ----------------------
    dataset = generate_dataset(inputs_per_app=3, seed=0)
    predictor = CrossArchPredictor.train(dataset, n_estimators=40)
    Xf = dataset.frame.to_matrix(list(predictor.feature_columns))
    Xf = np.tile(Xf, (4, 1))
    packed = predictor.pack(Xf)
    assert packed.dtype == np.uint8

    assert np.array_equal(predictor.predict(packed),
                          predictor.predict(Xf)), (
        "packed predictions differ from the float path")
    predictor.predict(Xf)
    t0 = time.perf_counter()
    for _ in range(3):
        predictor.predict(Xf)
    t_float = (time.perf_counter() - t0) / 3
    predictor.predict(packed)
    t0 = time.perf_counter()
    for _ in range(3):
        predictor.predict(packed)
    t_packed = (time.perf_counter() - t0) / 3
    results["packed_predict"] = {
        "n_rows": Xf.shape[0],
        "wall_s_unpacked": round(t_float, 4),
        "wall_s_packed": round(t_packed, 4),
        "speedup_vs_unpacked": round(t_float / t_packed, 2),
    }

    # --- sharded replicas: bit-identical ordered merge -----------------
    jobs = _replica_jobs(1500)
    specs = [ReplicaSpec(strategy=s, seed=11,
                         node_counts={m: 32 for m in SYSTEM_ORDER})
             for s in ("round_robin", "random", "user_rr", "model")]
    t0 = time.perf_counter()
    sequential = run_replicas(jobs, specs, workers=1)
    t_seq = time.perf_counter() - t0
    t0 = time.perf_counter()
    sharded = run_replicas(jobs, specs, workers=2)
    t_shard = time.perf_counter() - t0
    digests_seq = [schedule_digest(r) for r in sequential]
    digests_shard = [schedule_digest(r) for r in sharded]
    assert digests_seq == digests_shard, (
        "sharded replica results differ from the sequential merge")
    results["replica_shard"] = {
        "n_jobs": len(jobs),
        "n_replicas": len(specs),
        "wall_s_sequential": round(t_seq, 3),
        "wall_s_sharded": round(t_shard, 3),
        "digest": digests_seq[0][:16],
    }

    # --- record + ratio gates ------------------------------------------
    baseline = _baseline()
    BENCH_PATH.write_text(json.dumps(results, indent=2) + "\n")

    for section, key in GATED:
        if section == "native_routing" and not results[section]["available"]:
            continue  # no compiler on this host: the ratio is meaningless
        committed = baseline.get(section, {}).get(key)
        if committed is None:
            continue
        measured = results[section][key]
        assert measured * REGRESSION_FACTOR >= committed, (
            f"{section}.{key} regressed >{REGRESSION_FACTOR}x: "
            f"measured {measured} vs committed baseline {committed}")

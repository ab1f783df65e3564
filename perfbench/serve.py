"""``/predict`` over HTTP against a ``repro serve`` process.

The served model is trained by the code being measured: the first run
in a checkout builds a model registry with ``repro train --zeroshot``
(predictor + descriptor-conditioned head) and keeps it under
``perfbench/.cache`` keyed by a digest of ``src/``, so it is never
shared between two versions of the program.  That training is timed by
no metric: the ``pipeline`` workload's pipeline stage fits the same
predictor (same corpus, split and hyperparameters), cold, in
``pipeline_s``.

Load comes from one client process (``client.py``) over at most
``nproc`` keep-alive connections, open loop on seeded Poisson arrivals:
first ``REFERENCE_REQUESTS`` at the reference rate (the latency
metrics), then a fixed ladder of higher rates (``serve.max_rate_rps``).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from client import Phase, Sample, closed_loop, open_loop
from pipeline import CORPUS_SEED, INPUTS_PER_APP, SPLIT_SEED
from stats import median, tail

#: Open-loop connections: at most one per core of this host.
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: Reference rate for the latency metrics, and requests sent at it in
#: all (at least; more when --seconds asks for longer): p99 then has at
#: least ten samples beyond it.  Each request holds its connection for
#: the 5 ms batch deadline plus service time, so two connections top
#: out near 200/s.  At 50/s the server stays near a quarter busy even
#: when this host runs 1.5x slow, so queueing adds little to that
#: slowdown in the latency figures (at 75/s, p99 read either ~25 or
#: ~35-39 ms with the host's speed; at 50/s, 17-20 ms).
REFERENCE_RPS = 50.0
REFERENCE_REQUESTS = 1000
#: Fixed ladder above the reference rate; each rung sends RUNG_S
#: seconds' worth of requests, and the ladder stops at the first rung
#: that fails.  Rungs (the reference rate among them) pass when their
#: tail latency stays within LATENCY_LIMIT_MS, every answer is a
#: full-model 200, and neither the client-side wait nor the generator
#: lag grows from the first third to the last by more than
#: BACKLOG_GROWTH_MS.  Poisson bursts at 85% of capacity move the mean
#: wait of a third by up to ~30 ms; a rate 10% above capacity grows it
#: by ~100 ms per second.
LADDER_RPS = (100.0, 140.0, 200.0, 280.0, 400.0)
RUNG_S = 1.5
LATENCY_LIMIT_MS = 100.0
BACKLOG_GROWTH_MS = 50.0
#: The reference-rate requests go in slices of REFERENCE_SLICE (one
#: second's worth), and after each slice, after the warm-up and after
#: each rung, PROBE_SHARE zero-shot requests are sent closed loop, one
#: at a time on the otherwise idle server: the zeroshot_* metrics.
#: Zero-shot scoring is almost all CPU, and host CPU speed drifts by
#: +-20% from second to second: a probe sent in a few large blocks
#: catches one speed level per block, while small shares spread over
#: the whole session sample every level in proportion to its time.
#: Zero-shot requests inside an open-loop mix are too few per run for a
#: steady p90; their effect there is the head-of-line blocking they add
#: to record latency.
REFERENCE_SLICE = 50
PROBE_SHARE = 10
#: Untimed requests (one zero-shot in ten) sent at the reference rate
#: first, so that the timed ones meet no lazy set-up in the fresh server.
WARMUP_REQUESTS = 50
#: Zero-shot requests carry every ZEROSHOT_STRIDE-th record of the pool
#: (40 records), which bounds the offline re-scoring of the check.
ZEROSHOT_STRIDE = 6
#: Distinct record payloads per (application, machine) pair.
RECORDS_PER_PAIR = 3
#: Requests replayed in-process in the traced run.
REPLAY_REQUESTS = 400
START_TIMEOUT_S = 60.0
#: Client wait + HTTP round trip must equal each request's latency to
#: within this (they share their timestamps; only rounding remains).
RECONCILE_TOLERANCE_MS = 1e-6


# ----------------------------------------------------------------------
# The served model
# ----------------------------------------------------------------------
def source_digest(root: Path) -> str:
    """SHA-256 over every source file of the program."""
    h = hashlib.sha256()
    src = root / "src" / "repro"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def ensure_registry(root: Path, cache: Path, env: dict, log) -> Path:
    """The model registry for this source tree, trained on first use."""
    args = ["train", "--zeroshot",
            "--inputs-per-app", str(INPUTS_PER_APP),
            "--seed", str(CORPUS_SEED), "--split-seed", str(SPLIT_SEED)]
    key = hashlib.sha256(
        (source_digest(root) + " ".join(args)).encode()
    ).hexdigest()[:16]
    registry = cache / f"registry-{key}"
    if registry.is_dir():
        return registry
    building = cache / f"registry-{key}.partial"
    shutil.rmtree(building, ignore_errors=True)
    building.mkdir(parents=True)
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro.cli", *args,
         "--output", "predictor.pkl", "--run-dir", "."],
        cwd=building, env=env, stdout=log, stderr=subprocess.STDOUT,
        check=True, timeout=600,
    )
    building.rename(registry)
    print(f"trained the served model in {time.perf_counter() - t0:.1f} s "
          f"({registry.name})", flush=True)
    return registry


@dataclass
class Models:
    """The registry's models, loaded in the benchmark for checking."""

    predictor: object
    zeroshot: object

    @classmethod
    def load(cls, registry: Path) -> "Models":
        from repro.core import CrossArchPredictor, DescriptorConditionedPredictor

        run = next(p for p in registry.iterdir()
                   if p.is_dir() and (p / "manifest.json").is_file())
        return cls(CrossArchPredictor.load(run / "predictor.pkl"),
                   DescriptorConditionedPredictor.load(run / "zeroshot.pkl"))


# ----------------------------------------------------------------------
# Payloads
# ----------------------------------------------------------------------
def zeroshot_machines() -> list[dict]:
    """The four Table I machines plus one descriptor no model has seen."""
    from repro.arch.descriptor import descriptor_from_spec
    from repro.arch.machines import MACHINES, SYSTEM_ORDER

    machines = [descriptor_from_spec(MACHINES[name]).to_dict()
                for name in SYSTEM_ORDER]
    unseen = {key: (value * 1.25 if isinstance(value, float) else value)
              for key, value in machines[1].items()}
    unseen["name"] = "perfbench-unseen"
    return machines + [unseen]


def record_pool(seed: int) -> list[dict]:
    """Clean record payloads covering every application x machine pair."""
    from repro.apps import APPLICATIONS
    from repro.arch import SYSTEM_ORDER
    from repro.serve import synthesize_payloads

    pool = []
    pairs = [(a, m) for a in sorted(APPLICATIONS) for m in SYSTEM_ORDER]
    for k, (app, machine) in enumerate(pairs):
        pool += synthesize_payloads(RECORDS_PER_PAIR, seed=seed * 1000 + k,
                                    apps=(app,), machines=(machine,))
    # As the server will parse them: JSON has no numpy scalars.
    return [json.loads(json.dumps(p)) for p in pool]


class Mix:
    """Draws the requests of one phase from a pool of record payloads."""

    def __init__(self, zeroshot_every: int, seed: int):
        #: Every this-many-th request carries inline machine descriptors
        #: (0: none).  Evenly spaced, so that how often zero-shot
        #: requests bunch up does not vary from seed to seed.
        self.zeroshot_every = zeroshot_every
        self.seed = seed
        self.records = record_pool(seed)
        self.machines = zeroshot_machines()
        self._draws = 0

    def _rng(self) -> np.random.Generator:
        self._draws += 1
        return np.random.default_rng([self.seed, self._draws])

    def requests(self, n: int) -> list[tuple]:
        """*n* open-loop requests."""
        rng = self._rng()
        picks = rng.integers(len(self.records), size=n)
        zeroshot = (set(range(int(rng.integers(self.zeroshot_every)), n,
                              self.zeroshot_every))
                    if self.zeroshot_every else set())
        return [self.zeroshot_request(int(i) - int(i) % ZEROSHOT_STRIDE)
                if k in zeroshot else (int(i), "record", self.records[i])
                for k, i in enumerate(picks)]

    def zeroshot_requests(self, n: int) -> list[tuple]:
        """*n* zero-shot requests for the closed-loop probe."""
        picks = self._rng().integers(len(self.records) // ZEROSHOT_STRIDE,
                                     size=n)
        return [self.zeroshot_request(int(i) * ZEROSHOT_STRIDE)
                for i in picks]

    def zeroshot_request(self, index: int) -> tuple:
        payload = self.records[index]
        return (index, "zeroshot",
                {"record": payload["record"],
                 "nodes_required": payload["nodes_required"],
                 "machines": self.machines})


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve`` process on a free loopback port."""

    def __init__(self, root: Path, registry: Path, env: dict, log):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--registry", str(registry), "--port", "0"],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=log,
        )
        self.port = self._read_port()

    def _read_port(self) -> int:
        deadline = self.t0 + START_TIMEOUT_S
        line = b""
        while not line.endswith(b"\n"):
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(0.0, deadline - time.perf_counter()))
            if not ready:
                self.stop()
                raise RuntimeError("repro serve did not start in time")
            chunk = os.read(self.proc.stdout.fileno(), 1)
            if not chunk:
                self.stop()
                raise RuntimeError(
                    f"repro serve exited with {self.proc.returncode}"
                )
            line += chunk
        return int(line.decode().strip().rsplit(":", 1)[1])

    async def first_answer(self, payload: dict) -> float:
        """Seconds from launch to the first successful /predict."""
        from repro.serve.loadgen import HttpSession

        session = HttpSession("127.0.0.1", self.port)
        try:
            while True:
                try:
                    status, _ = await session.request("POST", "/predict",
                                                      payload)
                    if status == 200:
                        return time.perf_counter() - self.t0
                except OSError:
                    pass
                if time.perf_counter() - self.t0 > START_TIMEOUT_S:
                    raise RuntimeError("repro serve never answered /predict")
                await asyncio.sleep(0.01)
        finally:
            await session.aclose()

    def peak_rss_mb(self) -> float:
        """The process's peak resident set (Linux ``VmHWM``)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------
def rung_verdict(phase: Phase, rate: float) -> dict:
    """Whether *rate* is sustained, and the figures that decide it."""
    samples = phase.samples
    latency = tail([s.latency_s * 1e3 for s in samples], 99.0)
    wait_growth = _growth_ms([s.wait_s for s in samples])
    lag_growth = _growth_ms(phase.generator_lag_s)
    ok = sum(s.ok for s in samples)
    passed = (latency["value"] <= LATENCY_LIMIT_MS and ok == len(samples)
              and wait_growth <= BACKLOG_GROWTH_MS
              and lag_growth <= BACKLOG_GROWTH_MS)
    return {
        "rate_rps": rate,
        "sent": len(samples),
        "ok": ok,
        "achieved_rps": ok / phase.span_s,
        "tail_ms": latency["value"],
        "tail_q": latency["q"],
        "wait_growth_ms": wait_growth,
        "lag_growth_ms": lag_growth,
        "passed": passed,
    }


def _growth_ms(values: list[float]) -> float:
    """Mean of the last third minus mean of the first third, in ms."""
    third = max(1, len(values) // 3)
    return 1e3 * (float(np.mean(values[-third:]))
                  - float(np.mean(values[:third])))


class Session:
    """Everything one run sends to the server, in order: an untimed
    warm-up, the reference-rate requests and, when *climb* is set, the
    ladder, with shares of the closed-loop zero-shot probe in between.
    All of it goes over the same CONNECTIONS keep-alive sessions, opened
    by the warm-up; the probe uses the first of them while the others
    are idle."""

    def __init__(self, port: int, mix: Mix, seconds: float, tracer,
                 climb: bool):
        self.port = port
        self.mix = mix
        self.tracer = tracer
        self.climb = climb
        self.n_reference = max(REFERENCE_REQUESTS,
                               round(REFERENCE_RPS * seconds))
        self.warmup: Phase | None = None
        self.reference: Phase | None = None
        self.ladder: list[Phase] = []
        self.probe: list[Sample] = []
        #: Connections opened in all (CONNECTIONS unless one dropped).
        self.connects = 0
        self._sessions: list = []
        self._phases = 0

    async def _open_loop(self, requests: list[tuple], rate: float,
                         tracer=None) -> Phase:
        self._phases += 1
        return await open_loop(self._sessions, requests, rate,
                               seed=self.mix.seed * 1000 + self._phases,
                               tracer=tracer)

    async def _probe(self, n: int) -> None:
        self.probe += await closed_loop(self._sessions[0],
                                        self.mix.zeroshot_requests(n))

    async def run(self) -> None:
        from repro.serve.loadgen import HttpSession

        self._sessions = [HttpSession("127.0.0.1", self.port)
                          for _ in range(CONNECTIONS)]
        try:
            await self._send()
        finally:
            for session in self._sessions:
                await session.aclose()
            self.connects = sum(s.connects for s in self._sessions)

    async def _send(self) -> None:
        warmup = self.mix.requests(WARMUP_REQUESTS)
        warmup[::10] = self.mix.zeroshot_requests(len(warmup[::10]))
        self.warmup = await self._open_loop(warmup, REFERENCE_RPS)
        await self._probe(PROBE_SHARE)
        slices = []
        for start in range(0, self.n_reference, REFERENCE_SLICE):
            n = min(REFERENCE_SLICE, self.n_reference - start)
            slices.append(await self._open_loop(
                self.mix.requests(n), REFERENCE_RPS, self.tracer
            ))
            await self._probe(PROBE_SHARE)
        self.reference = Phase.joined(slices)
        passed = rung_verdict(self.reference, REFERENCE_RPS)["passed"]
        for rate in LADDER_RPS if self.climb and passed else ():
            phase = await self._open_loop(
                self.mix.requests(round(rate * RUNG_S)), rate
            )
            self.ladder.append(phase)
            await self._probe(PROBE_SHARE)
            if not rung_verdict(phase, rate)["passed"]:
                break

    def rungs(self) -> list[dict]:
        return [rung_verdict(self.reference, REFERENCE_RPS)] + [
            rung_verdict(phase, phase.rate) for phase in self.ladder
        ]

    def samples(self) -> list[Sample]:
        phases = [self.warmup, self.reference, *self.ladder]
        return [s for phase in phases for s in phase.samples] + self.probe


def sustained_rate(rungs: list[dict]) -> float:
    """The highest rate that meets every rung condition.

    The ladder stops at its first failure, so the passing rungs are a
    prefix (and if the reference rate fails, nothing above it counts).
    Between the last passing rung and the failing one, the rate is
    interpolated to where tail latency meets the limit (log-linear in
    latency), so the figure moves smoothly instead of in whole rungs.
    When the failing rung failed on backlog or answers rather than
    latency, the last passing rate stands; when not even the reference
    rate is sustained, its goodput is reported.
    """
    passed = 0
    while passed < len(rungs) and rungs[passed]["passed"]:
        passed += 1
    if not passed:
        return rungs[0]["achieved_rps"]
    best = rungs[passed - 1]
    if passed == len(rungs):
        return best["rate_rps"]
    failing = rungs[passed]
    lo, hi = best["tail_ms"], failing["tail_ms"]
    if hi <= LATENCY_LIMIT_MS:
        return best["rate_rps"]
    share = math.log(LATENCY_LIMIT_MS / lo) / math.log(hi / lo)
    return best["rate_rps"] + share * (failing["rate_rps"]
                                       - best["rate_rps"])


def serve_metrics(session: Session) -> dict:
    """End-to-end serve metrics from one session's samples."""
    reference = session.reference.samples
    latency_ms = [s.latency_s * 1e3 for s in reference if s.kind == "record"]
    in_mix = [s.latency_s * 1e3 for s in reference if s.kind == "zeroshot"]
    zeroshot_ms = [s.latency_s * 1e3 for s in session.probe]
    rungs = session.rungs()
    p99 = tail(latency_ms, 99.0)
    p90 = tail(zeroshot_ms, 90.0)
    return {
        "metrics": {
            "latency_p50_ms": median(latency_ms),
            "zeroshot_p50_ms": median(zeroshot_ms),
        },
        # The tails and the sustained rate follow how much CPU time the
        # host's other guests take (steal): their run-to-run spread is
        # wider than any bound they could be held to, so they are
        # reported with the serve layer, not bounded end to end.
        "layers": {
            "serve.latency_p99_ms": p99["value"],
            **({"serve.max_rate_rps": sustained_rate(rungs)}
               if session.climb else {}),
            "serve.zeroshot_p90_ms": p90["value"],
        },
        "samples": {
            "latency": {"n": p99["n"], "tail_q": p99["q"],
                        "beyond": p99["beyond"]},
            "zeroshot": {"n": p90["n"], "tail_q": p90["q"],
                         "beyond": p90["beyond"]},
            "connects": session.connects,
            "zeroshot_in_mix_ms": ({"n": len(in_mix),
                                    "p50": median(in_mix),
                                    "max": max(in_mix)} if in_mix else None),
            "rates": rungs,
        },
    }


def check_answers(samples: list[Sample], mix: Mix, models: Models
                  ) -> list[str]:
    """Every 200 answer equals the offline model bit for bit."""
    from repro.arch.descriptor import MachineDescriptor

    machines = [MachineDescriptor.from_dict(m) for m in mix.machines]
    names = [m["name"] for m in mix.machines]
    expected: dict = {}
    mismatches = []
    for s in samples:
        if s.status != 200:
            continue
        key = (s.kind, s.index)
        if key not in expected:
            record = mix.records[s.index]["record"]
            if s.kind == "zeroshot":
                expected[key] = models.zeroshot.score_record(record,
                                                             machines)
            else:
                expected[key] = models.predictor.predict_record(record)
        want = expected[key]
        body = s.body
        if s.kind == "zeroshot":
            same = (body.get("tier") == "zeroshot"
                    and body.get("machines") == names
                    and np.array_equal(np.asarray(body["scores"]), want[0])
                    and np.array_equal(np.asarray(body["uncertainty"]),
                                       want[1]))
        else:
            same = (body.get("tier") == "model"
                    and np.array_equal(np.asarray(body["rpv"]), want))
        if not same:
            mismatches.append(f"{s.kind} payload {s.index}")
    if mismatches:
        return [f"{len(mismatches)} answers differ from the offline model "
                f"(first: {mismatches[0]})"]
    return []


# ----------------------------------------------------------------------
# Traced run only: the layers under the HTTP answer
# ----------------------------------------------------------------------
def core_layers(mix: Mix, models: Models, tracer) -> dict:
    """Per-call costs of the public featurize/predict/score functions."""
    from repro.arch.descriptor import MachineDescriptor
    from repro.dataset import derive_feature_frame
    from repro.frame import Frame

    predictor, zeroshot = models.predictor, models.zeroshot
    machines = [MachineDescriptor.from_dict(m) for m in mix.machines]
    records = [p["record"] for p in mix.records]
    columns = list(predictor.feature_columns)
    featurize, predict_record, predict_row, score = [], [], [], []
    rows = []
    for record in records:
        frame = Frame.from_records([record])
        t0 = time.perf_counter()
        featured, _ = derive_feature_frame(frame,
                                           normalizer=predictor.normalizer)
        t1 = time.perf_counter()
        tracer.add("core.featurize_record", t0, t1)
        featurize.append(t1 - t0)
        rows.append(featured.to_matrix(columns)[0])
    for record, row in zip(records, rows):
        t0 = time.perf_counter()
        predictor.predict_record(record)
        t1 = time.perf_counter()
        predictor.predict(row[None, :])
        t2 = time.perf_counter()
        zeroshot.score_record(record, machines)
        t3 = time.perf_counter()
        tracer.add("core.predict_record", t0, t1)
        tracer.add("core.predict_row", t1, t2)
        tracer.add("core.zeroshot_score", t2, t3)
        predict_record.append(t1 - t0)
        predict_row.append(t2 - t1)
        score.append(t3 - t2)
    X = np.vstack(rows)
    mean_only, with_unc = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        zeroshot.predict_wide(X, machines)
        t1 = time.perf_counter()
        zeroshot.predict_wide_with_uncertainty(X, machines)
        t2 = time.perf_counter()
        tracer.add("core.predict_wide", t0, t1)
        tracer.add("core.predict_wide_with_uncertainty", t1, t2)
        mean_only.append(t1 - t0)
        with_unc.append(t2 - t1)
    base = median(mean_only)
    return {
        "core.featurize_record_us": 1e6 * median(featurize),
        "core.predict_record_us": 1e6 * median(predict_record),
        "core.predict_row_us": 1e6 * median(predict_row),
        "core.zeroshot_score_us": 1e6 * median(score),
        "core.uncertainty_ratio": median(with_unc) / base,
        "core.uncertainty_base_us_per_row": 1e6 * base / len(X),
    }


async def replay_in_process(registry: Path, mix: Mix, tracer) -> dict:
    """Replay reference-rate requests into an in-process service.

    Times ``protocol.parse_predict_payload`` and
    ``PredictionService.handle_predict`` (coalescer wait and placement
    included), then reads batch and admission figures from the
    service's own ``/metrics``.
    """
    from repro import telemetry
    from repro.serve import ModelManager, PredictionService, parse_predict_payload
    from repro.serve.loadgen import HttpSession
    from repro.workloads import poisson_arrivals

    requests = mix.requests(REPLAY_REQUESTS)
    parse_s = []
    for _, _, payload in requests:
        t0 = time.perf_counter()
        parse_predict_payload(payload)
        t1 = time.perf_counter()
        tracer.add("serve.parse", t0, t1)
        parse_s.append(t1 - t0)

    telemetry.configure("metrics")
    telemetry.reset()
    manager = ModelManager(registry)
    manager.promote(manager.resolve_hash(None))
    service = PredictionService(manager)
    host, port = await service.start("127.0.0.1", 0)
    handle_s = []
    offsets = poisson_arrivals(len(requests), REFERENCE_RPS, seed=mix.seed)
    t_start = time.perf_counter()

    async def one(offset: float, payload: dict) -> None:
        delay = t_start + offset - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        t0 = time.perf_counter()
        await service.handle_predict(payload)
        t1 = time.perf_counter()
        tracer.add("serve.handle", t0, t1)
        handle_s.append(t1 - t0)

    try:
        await asyncio.gather(*(one(float(o), p)
                               for o, (_, _, p) in zip(offsets, requests)))
        session = HttpSession(host, port)
        try:
            status, metrics = await session.request("GET", "/metrics")
        finally:
            await session.aclose()
        # Let the server's connection handler see the close and finish
        # before the service stops.
        await asyncio.sleep(0.05)
    finally:
        await service.stop()
        telemetry.configure("off")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    snap = metrics["telemetry"]
    rows = snap["histograms"]["serve.coalescer.batch_rows"]
    flushes = {k.rsplit(".", 1)[1]: v for k, v in snap["counters"].items()
               if k.startswith("serve.coalescer.flush.")}
    decisions = metrics["service"]["admission"]["decisions"]
    return {
        "serve.parse_us": 1e6 * median(parse_s),
        "serve.handle_ms": 1e3 * median(handle_s),
        "serve.batch_size_mean": rows["sum"] / rows["count"],
        "serve.flush_by_size_frac": (flushes.get("size", 0)
                                     / sum(flushes.values())),
        "serve.admission_degraded": decisions.get("degraded", 0),
        "serve.admission_shed": decisions.get("shed", 0),
    }


def client_layers(session: Session) -> dict:
    """Client-side wait and round trip at the reference rate, and how
    they reconcile with each request's latency."""
    samples = session.reference.samples
    wait = [s.wait_s * 1e3 for s in samples]
    rtt = [s.rtt_s * 1e3 for s in samples]
    residual = max(abs(s.latency_s - s.wait_s - s.rtt_s) for s in samples)
    everything = session.samples()
    return {
        "serve.client_wait_ms_p50": median(wait),
        "serve.client_wait_ms_tail": tail(wait, 99.0)["value"],
        "serve.http_rtt_ms_p50": median(rtt),
        "serve.http_rtt_ms_tail": tail(rtt, 99.0)["value"],
        "serve.generator_lag_ms_max":
            1e3 * max(session.reference.generator_lag_s),
        "serve.sent": len(everything),
        "serve.ok": sum(s.status == 200 for s in everything),
        "serve.failed": sum(s.status != 200 for s in everything),
        "recon.latency_unaccounted_ms": 1e3 * residual,
    }

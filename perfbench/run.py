"""One benchmark for the paper pipeline and the ``/predict`` service.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Every workload runs the whole system once: a cold offline pipeline
(dataset -> train -> evaluate -> fig7 schedule) and then ``/predict``
traffic against a ``repro serve`` process.  The workloads differ in how
big the pipeline is, what the traffic carries and what set-up means
(see README.md).  With ``--trace 0`` the last line of standard output
is a JSON object with every end-to-end metric; with ``--trace 1`` it
carries every per-layer metric instead, taken from spans the benchmark
records around its calls into the program.  The process exits non-zero
when any correctness check fails.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CACHE = BENCH / ".cache"
OUT = BENCH / ".out"


@dataclass(frozen=True)
class Workload:
    name: str
    #: Jobs in the pipeline's fig7 scheduling stage.
    n_jobs: int
    #: Every this-many-th /predict request carries inline machine
    #: descriptors (0: none).
    zeroshot_every: int
    #: What setup_s measures: "imports" or "server".
    setup: str


WORKLOADS = {
    w.name: w for w in (
        # The reduced-scale paper pipeline, on the served model's own
        # corpus and split, and record-payload traffic: the two top-line
        # numbers.
        Workload("pipeline", 10_000, 0, "imports"),
        # The same corpus with a 4k-job fig7 trace, so more of the run
        # goes to traffic in which every 20th request is zero-shot.
        Workload("serve_zeroshot_mix", 4_000, 20, "server"),
    )
}

#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 3
#: Code timed by the ``imports`` set-up: a fresh interpreter importing
#: every layer the pipeline calls and loading the native routing kernel.
IMPORT_SETUP = (
    "import repro.dataset, repro.core, repro.ml, repro.workloads, "
    "repro.sched\n"
    "from repro import native\n"
    "native.kernel_info()\n"
)


def declared_metrics() -> dict:
    """Metric name -> unit, per kind, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def parse_args(argv) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A termination request unwinds normally, so the server is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run "
              "from the root of a checkout", file=sys.stderr)
        return 2
    # The native kernel's compile cache, and the compiler's scratch
    # files, stay in the checkout too.
    os.environ["REPRO_NATIVE_CACHE"] = str(CACHE / "native")
    os.environ["TMPDIR"] = str(CACHE / "tmp")
    (CACHE / "tmp").mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.log", "w") as log:
        report = run(WORKLOADS[args.workload], args, env, log)
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    print_report(report)
    return 0 if report["correct"] else 1


def run(workload: Workload, args, env: dict, log) -> dict:
    from pipeline import run_pipeline
    from tracing import Tracer

    import serve

    registry = serve.ensure_registry(ROOT, CACHE, env, log)
    from repro import native

    native.kernel_info()  # compile or load the kernel before timing
    tracer = Tracer(enabled=bool(args.trace))
    mix = serve.Mix(workload.zeroshot_every, args.seed)

    setup_samples = []
    if workload.setup == "imports":
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", IMPORT_SETUP], env=env,
                           check=True, timeout=120)
            setup_samples.append(time.perf_counter() - t0)

    ticks0 = cpu_ticks()
    offline = run_pipeline(workload.n_jobs, args.seed, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    server = None
    try:
        launches = SETUP_REPEATS if workload.setup == "server" else 1
        for k in range(launches):
            server = serve.Server(ROOT, registry, env, log)
            elapsed = asyncio.run(server.first_answer(mix.records[0]))
            if workload.setup == "server":
                setup_samples.append(elapsed)
            if k < launches - 1:
                server.stop()
        # The ladder feeds serve.max_rate_rps alone, a per-layer metric:
        # only the traced run climbs it.
        session = serve.Session(server.port, mix, args.seconds, tracer,
                                climb=bool(args.trace))
        t0 = time.perf_counter()
        asyncio.run(session.run())
        session_s = time.perf_counter() - t0
        steal = steal_frac(ticks0, cpu_ticks())
        # What tracing cost the timed part of the run: the pipeline and
        # the session.  Later calls are made for the traced run only.
        tracing_s = tracer.overhead_s
        if workload.setup == "server":
            peak_rss_mb = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    served = serve.serve_metrics(session)
    samples = session.samples()
    models = serve.Models.load(registry)
    failures = offline["failures"] + serve.check_answers(samples, mix,
                                                         models)
    failed = sum(s.status != 200 for s in samples)
    attempted = offline["operations"] + len(samples)

    metrics = {
        "setup_s": statistics.median(setup_samples),
        **offline["metrics"],
        **served["metrics"],
        "success_rate": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    # Measured in every run; printed by the traced one.
    layers: dict = dict(served["layers"])
    if args.trace:
        layers.update(offline["layers"])
        layers.update(serve.core_layers(mix, models, tracer))
        layers.update(asyncio.run(serve.replay_in_process(registry, mix,
                                                          tracer)))
        layers.update(serve.client_layers(session))
        layers["recon.rtt_minus_handle_ms"] = (
            layers["serve.http_rtt_ms_p50"] - layers["serve.handle_ms"]
        )
        layers["telemetry.overhead_frac"] = tracing_s / (
            offline["metrics"]["pipeline_s"] + session_s
        )
        if (layers["recon.latency_unaccounted_ms"]
                > serve.RECONCILE_TOLERANCE_MS):
            failures.append(
                "client wait + HTTP round trip differ from request latency "
                f"by {layers['recon.latency_unaccounted_ms']:.6f} ms"
            )
        tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.json")

    return {
        "workload": workload.name,
        "host": {**fingerprint(args), "steal_frac": steal},
        "correct": not failures,
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "layers": layers,
        "setup_samples_s": setup_samples,
        "serve_samples": served["samples"],
        "pipeline": {"rows": offline["rows"], "test_rows": offline["test_rows"],
                     "makespans_h": offline["makespans_h"]},
        "trace": bool(args.trace),
    }


def fingerprint(args) -> dict:
    import numpy

    from repro import native

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "native_kernel": native.kernel_info(),
        "machine": platform.machine(),
        "seed": args.seed,
        "seconds": args.seconds,
    }


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of this Linux guest, or None elsewhere."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    except OSError:
        return None
    # user nice system idle iowait irq softirq steal; guest time is
    # already counted in user and nice.
    ticks = [int(f) for f in fields[1:9]]
    return ticks[7], sum(ticks)


def steal_frac(before, after) -> float | None:
    """Share of CPU time the hypervisor gave to other guests between two
    ``cpu_ticks`` readings: the timing metrics, the tails most, rise
    with it."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def print_report(report: dict) -> None:
    host = report["host"]
    print(f"workload {report['workload']}  seed {host['seed']}  "
          f"nproc {host['nproc']}  python {host['python']}  "
          f"numpy {host['numpy']}  steal {host['steal_frac']}")
    print(f"native kernel: {host['native_kernel']}")
    for rung in report["serve_samples"]["rates"]:
        print(f"  rate {rung['rate_rps']:6.1f}/s  sent {rung['sent']:5d}  "
              f"tail p{rung['tail_q']:g} {rung['tail_ms']:8.2f} ms  "
              f"{'pass' if rung['passed'] else 'FAIL'}")
    declared = declared_metrics()
    values, kind = ((report["layers"], "per_layer") if report["trace"]
                    else (report["metrics"], "end_to_end"))
    shown = {name: (values[name], unit)
             for name, unit in declared[kind].items()}
    for name, (value, unit) in shown.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    if not report["trace"]:
        # The serve tails every run measures: shown, but not bounded.
        for name, value in report["layers"].items():
            print(f"  {name:36s} {value:14.6g} "
                  f"{declared['per_layer'][name]}  (per layer, no bound)")
    for failure in report["failures"]:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in shown.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())

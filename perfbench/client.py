"""Open-loop HTTP load for ``/predict``.

Requests are due on a seeded Poisson schedule
(``repro.workloads.poisson_arrivals``) whatever the server is doing: a
dispatcher hands each one to a queue at its due time, and the given
keep-alive sessions (``repro.serve.loadgen.HttpSession``) take them
from that queue in order.  The caller opens the sessions once and keeps
them across phases, so no timed request pays for a new connection.
When every session is busy, due requests wait in the queue, so each
request is timed from when it was due, not from when it was sent, and a
stall shows in the latency of the requests behind it.  Every request
records three times:

* ``due``  - when the schedule said to send it;
* ``sent`` - when a session started writing it;
* ``done`` - when its answer had been read.

``sent - due`` is the client-side wait (growth marks a backlog) and
``done - sent`` the HTTP round trip.  The dispatcher's own lateness
(how far behind the schedule it woke) is the generator lag.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass


@dataclass
class Sample:
    """One request as the client saw it."""

    index: int
    kind: str
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: dict | None = None
    error: str | None = None

    @property
    def latency_s(self) -> float:
        return self.done - self.due

    @property
    def wait_s(self) -> float:
        return self.sent - self.due

    @property
    def rtt_s(self) -> float:
        return self.done - self.sent

    @property
    def ok(self) -> bool:
        """Answered 200 from the model (no failed, shed or degraded)."""
        return (self.status == 200 and self.body is not None
                and self.body.get("tier") in ("model", "zeroshot"))


@dataclass
class Phase:
    """The outcome of open-loop traffic at one rate."""

    rate: float
    samples: list[Sample]
    generator_lag_s: list[float]
    #: Seconds from the first request due to the last answer read.
    span_s: float

    @classmethod
    def joined(cls, slices: list["Phase"]) -> "Phase":
        """Slices sent at one rate, with pauses between them, as one."""
        return cls(slices[0].rate,
                   [s for part in slices for s in part.samples],
                   [lag for part in slices for lag in part.generator_lag_s],
                   sum(part.span_s for part in slices))


async def open_loop(sessions: list, requests: list[tuple], rate: float,
                    seed: int, tracer=None) -> Phase:
    """Send *requests* — ``(pool_index, kind, payload)`` tuples — over
    *sessions*, due at seeded Poisson offsets for *rate* requests per
    second."""
    from repro.workloads import poisson_arrivals

    offsets = poisson_arrivals(len(requests), rate, seed=seed)
    samples: list[Sample] = []
    lags: list[float] = []
    queue: asyncio.Queue = asyncio.Queue()
    t0 = time.perf_counter() + 0.01

    async def dispatch() -> None:
        for (index, kind, payload), offset in zip(requests, offsets):
            due = t0 + float(offset)
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append(time.perf_counter() - due)
            sample = Sample(index, kind, due)
            samples.append(sample)
            queue.put_nowait((sample, payload))
        for _ in sessions:
            queue.put_nowait(None)

    async def drive(session) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            sample, payload = item
            sample.sent = time.perf_counter()
            try:
                sample.status, sample.body = await session.request(
                    "POST", "/predict", payload
                )
            except (OSError, asyncio.TimeoutError, ValueError,
                    asyncio.IncompleteReadError) as exc:
                sample.error = f"{type(exc).__name__}: {exc}"
            sample.done = time.perf_counter()
            if tracer is not None and tracer.enabled:
                root = tracer.add("serve.request", sample.due, sample.done,
                                  kind=sample.kind)
                tracer.add("serve.client_wait", sample.due, sample.sent,
                           parent=root)
                tracer.add("serve.http_rtt", sample.sent, sample.done,
                           parent=root)

    await asyncio.gather(dispatch(), *(drive(s) for s in sessions))
    return Phase(rate, samples, lags,
                 max(s.done for s in samples) - min(s.due for s in samples))


async def closed_loop(session, requests: list[tuple]) -> list[Sample]:
    """Send *requests* one at a time on *session*; each is due when the
    previous answer arrived."""
    samples = []
    for index, kind, payload in requests:
        sample = Sample(index, kind, time.perf_counter())
        sample.sent = sample.due
        try:
            sample.status, sample.body = await session.request(
                "POST", "/predict", payload
            )
        except (OSError, asyncio.TimeoutError, ValueError,
                asyncio.IncompleteReadError) as exc:
            sample.error = f"{type(exc).__name__}: {exc}"
        sample.done = time.perf_counter()
        samples.append(sample)
    return samples

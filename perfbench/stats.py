"""Order statistics shared by every stage of the benchmark."""

from __future__ import annotations

import statistics

import numpy as np

#: A tail percentile is reported only where at least this many samples
#: lie beyond it; with fewer, the highest percentile that has them is
#: reported instead and named in the result.
TAIL_SAMPLES_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail(values, want: float) -> dict:
    """The *want* percentile, or the highest one the sample supports.

    Returns ``{"value", "q", "n", "beyond"}``: the percentile reported,
    which percentile it is, the sample count and how many samples lie
    beyond it.
    """
    n = len(values)
    supported = 100.0 * (1.0 - TAIL_SAMPLES_BEYOND / n) if n else 0.0
    q = min(want, supported)
    if q <= 0:
        raise ValueError(
            f"{n} samples cannot support a tail percentile "
            f"(need more than {TAIL_SAMPLES_BEYOND})"
        )
    value = float(np.percentile(values, q))
    return {"value": value, "q": round(q, 3), "n": n,
            "beyond": sum(1 for v in values if v > value)}

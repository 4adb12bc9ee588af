"""Order statistics used by the benchmark report."""

from __future__ import annotations

import statistics
from typing import Iterable, Sequence

import numpy as np

#: Virtual-time resolution used to merge tied latencies (0.1 ns).  The
#: cost model's constants are far coarser; float rounding in
#: ``end - start`` would otherwise split one modeled latency into many.
TIE_RESOLUTION = 1e-10

#: A tail percentile is reported only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def mid_quantile(values: Sequence[float], q: float) -> float:
    """The mid-distribution quantile (Parzen) of ``values`` at ``q``.

    Modeled latencies are discrete: most ops of one kind take exactly
    the same virtual time, so an ordinary order statistic sits on a
    plateau and cannot move until a whole plateau's mass shifts past
    it.  The mid-quantile interpolates the inverse of the
    mid-distribution function ``F(x) - P(X = x) / 2`` between the
    distinct values, so it moves with the mass of each value.  On
    distinct samples it equals the Hazen (type 5) quantile.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("no samples")
    keys, counts = np.unique(np.rint(arr / TIE_RESOLUTION), return_counts=True)
    xs = keys * TIE_RESOLUTION
    mid = (np.cumsum(counts) - counts / 2.0) / arr.size
    return float(np.interp(q, mid, xs))


def tail_mean(values: Sequence[float], q: float) -> float:
    """Mean of the samples beyond quantile ``q`` (at least
    :data:`MIN_TAIL_SAMPLES` of the largest).

    Unlike a tail quantile it moves continuously with how many samples
    are slow: on a workload where a rare stall hits about ``1 - q`` of
    the ops, the quantile itself flips between the stall and the body
    of the distribution from one input to the next.
    """
    arr = np.sort(np.asarray(values, dtype=float))
    if arr.size == 0:
        raise ValueError("no samples")
    k = min(arr.size, max(MIN_TAIL_SAMPLES, tail_samples(arr.size, q)))
    return float(arr[-k:].mean())


def order_quantile(values: Sequence[float], q: float) -> float:
    """The conventional (linear-interpolation) quantile, for reference."""
    return float(np.quantile(np.asarray(values, dtype=float), q))


def tail_samples(n: int, q: float) -> int:
    """Samples strictly beyond quantile ``q`` of ``n`` samples."""
    return int(round(n * (1.0 - q)))


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))

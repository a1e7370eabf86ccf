"""Aggregate statistics over repeated simulation runs."""

from __future__ import annotations

import math

import numpy as np


def confidence_interval(samples):
    """Mean and two-sided 95% Student-t half-width of `samples`.

    With fewer than two samples the half-width is not applicable and is
    returned as nan.
    """
    xs = np.asarray(list(samples), dtype=float)
    if xs.size == 0:
        raise ValueError("confidence_interval needs at least one sample")
    mean = float(xs.mean())
    if xs.size < 2:
        return mean, float("nan")
    from scipy.special import stdtrit  # loaded only for a half-width: see README, Dependencies

    s = float(xs.std(ddof=1))
    tq = float(stdtrit(xs.size - 1, 0.975))  # the t quantile, as scipy.stats.t.ppf gives it
    return mean, tq * s / math.sqrt(xs.size)

"""Stationary complex path-gain processes and their closed-form statistics.

Every tap is one record, ``GaussianTap(alpha, a)``: the zero-mean,
circularly-symmetric first-order Gauss-Markov process
``H[k] = a * H[k-1] + sqrt(alpha * (1 - |a|^2)) * U[k]`` with ``|a| < 1``
and IID standard circularly-symmetric innovations ``U[k]``, initialised
from the stationary marginal ``CN(0, alpha)``.  ``alpha = 0`` is the
identically-zero tap and ``a = 0`` gives white gains; the config kinds
``zero``, ``iid`` and ``ar1`` only name these cases.

One closed form each gives the variance, differential entropy rate and mean
log-magnitude (all in nats).  Standard library only.
"""

from __future__ import annotations

import math
from typing import Optional

from .record import Record

EULER_GAMMA = 0.5772156649015329
LOG_PI = math.log(math.pi)
LOG_PI_E = LOG_PI + 1.0
LOG10 = math.log(10.0)


class GaussianTap(Record):
    """Stationary complex Gauss-Markov gains: variance ``alpha`` >= 0, pole ``a`` with ``|a| < 1``."""

    alpha: float
    a: complex = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha < math.inf):
            raise ValueError(f"alpha must be nonnegative and finite, got {self.alpha}")
        if not abs(self.a) < 1.0:
            raise ValueError(f"|a| must be below 1 for stationarity, got |a| = {abs(self.a)}")


class PathStats(Record):
    """Closed-form per-path statistics, in nats.

    ``entropy_rate`` and ``mean_log_gain`` are ``None`` for the zero tap,
    which carries no statistics and is excluded from every infimum over
    active paths.
    """

    alpha: float
    entropy_rate: Optional[float]
    mean_log_gain: Optional[float]

    @property
    def active(self) -> bool:
        return self.alpha > 0.0


def stats_of(spec: GaussianTap) -> PathStats:
    """Closed-form variance, entropy rate and mean log squared magnitude.

    The marginal is ``CN(0, alpha)``, so ``E[log|H|^2] = log(alpha) - gamma``
    (Euler's constant enters through the log of a unit-mean exponential).
    The entropy rate is ``log(pi*e*alpha*(1-|a|^2))``, the innovation
    variance being the one-step prediction error.
    """
    if not isinstance(spec, GaussianTap):
        raise TypeError(f"not a path-gain spec: {spec!r}")
    if spec.alpha == 0.0:
        return PathStats(alpha=0.0, entropy_rate=None, mean_log_gain=None)
    return PathStats(
        alpha=spec.alpha,
        entropy_rate=LOG_PI_E + math.log(spec.alpha) + math.log1p(-abs(spec.a) ** 2),
        mean_log_gain=math.log(spec.alpha) - EULER_GAMMA,
    )

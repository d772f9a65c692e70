"""Stationary complex path-gain processes and their closed-form statistics.

Three families of zero-mean, circularly-symmetric gain processes are
supported:

* ``Ar1Gaussian(alpha, a)`` -- first-order Gauss-Markov recursion
  ``H[k] = a * H[k-1] + sqrt(alpha * (1 - |a|^2)) * U[k]`` with ``|a| < 1``
  and IID standard circularly-symmetric innovations ``U[k]``, initialised
  from the stationary marginal ``CN(0, alpha)``;
* ``IidGaussian(alpha)``    -- white complex Gaussian, variance ``alpha``:
  the pole-0 case ``a = 0`` of the Gauss-Markov family in every closed form,
  sampler and quadrature (only its config kind is its own);
* ``ZeroPath()``            -- the identically-zero tap.

The Gaussian families share one closed form each for the variance,
differential entropy rate and mean log-magnitude (all in nats).  Standard
library only: ``channel.sample_paths`` and the Szego oracle ``oracle.entropy_rate_szego``
read a tap's ``alpha`` and ``a``; only this module and ``config`` name the families.
"""

from __future__ import annotations

import math
from typing import Optional, Union

from .record import Record

EULER_GAMMA = 0.5772156649015329
LOG_PI = math.log(math.pi)
LOG_PI_E = LOG_PI + 1.0
LOG10 = math.log(10.0)


class IidGaussian(Record):
    """White circularly-symmetric complex Gaussian gains with variance ``alpha``.

    The pole-0 Gauss-Markov process: ``a = 0`` in every closed form.
    """

    alpha: float
    a = 0.0

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < math.inf):
            raise ValueError(f"IidGaussian requires 0 < alpha < inf, got {self.alpha}")


class Ar1Gaussian(Record):
    """Stationary complex Gauss-Markov gains: variance ``alpha``, pole ``a``."""

    alpha: float
    a: complex

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < math.inf):
            raise ValueError(f"Ar1Gaussian requires 0 < alpha < inf, got {self.alpha}")
        if not abs(self.a) < 1.0:
            raise ValueError(f"Ar1Gaussian requires |a| < 1 for stationarity, got |a| = {abs(self.a)}")


class ZeroPath(Record):
    """The identically-zero tap (no scattered energy on this delay)."""

    alpha = 0.0


PathGainSpec = Union[IidGaussian, Ar1Gaussian, ZeroPath]


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


def stats_of(spec: PathGainSpec) -> PathStats:
    """Closed-form variance, entropy rate and mean log squared magnitude.

    The marginal of every Gaussian family is ``CN(0, alpha)``, so
    ``E[log|H|^2] = log(alpha) - gamma`` (Euler's constant enters through
    the log of a unit-mean exponential).  The entropy rate is
    ``log(pi*e*alpha*(1-|a|^2))``, the innovation variance being the
    one-step prediction error; the white family is its ``a = 0`` case.
    """
    if isinstance(spec, ZeroPath):
        return PathStats(alpha=0.0, entropy_rate=None, mean_log_gain=None)
    if isinstance(spec, (IidGaussian, Ar1Gaussian)):
        return PathStats(
            alpha=spec.alpha,
            entropy_rate=LOG_PI_E + math.log(spec.alpha) + math.log1p(-abs(spec.a) ** 2),
            mean_log_gain=math.log(spec.alpha) - EULER_GAMMA,
        )
    raise TypeError(f"not a path-gain spec: {spec!r}")

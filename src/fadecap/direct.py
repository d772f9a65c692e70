"""Zero-guarded block inputs with log-uniform magnitudes, and the rate they achieve.

The transmit scheme splits time into IID blocks of length L + tau: L guard
zeros (decoupling the block from earlier inputs) followed by tau independent
circularly-symmetric symbols whose log squared magnitude is uniform on a
per-slot interval.  The canonical slot schedule for transmit power P > 1 is

    log x2_max[v] = (v/tau) * log P,
    log x2_min[v] = ((v-1)/tau) * log P + log log P,      v = 1..tau,

which is admissible iff P^(1/tau) > log P; construction fails loudly when
the inequality is violated.  The per-slot mutual-information lower bound and
the resulting rate

    R(snr, tau) = tau/(L+tau) * [ log log(P^(1/tau) / log P) + Xi_P ]

are evaluated from log-SNR throughout (P = SNR * sigma^2), so the scheme can
be analyzed far beyond floating-point power ranges.
"""

from __future__ import annotations

import math
from typing import Tuple

from .config import ChannelConfig, aggregate_gain, positive_finite
from .fading import LOG_PI, stats_of
from .record import Record


class LogUniformX2(Record):
    """Law of a circularly-symmetric symbol with log|X|^2 ~ Uniform[log_min, log_max].

    Its closed forms are here; its quadrature and samplers are ``oracle``'s.
    """

    log_min: float
    log_max: float

    def __post_init__(self) -> None:
        if not (self.log_min <= self.log_max):
            raise ValueError(f"need log_min <= log_max, got [{self.log_min}, {self.log_max}]")
        if not (math.isfinite(self.log_min) and math.isfinite(self.log_max)):
            raise ValueError("slot bounds must be finite")

    @property
    def spread(self) -> float:
        return self.log_max - self.log_min

    @property
    def mean_log_x2(self) -> float:
        return 0.5 * (self.log_min + self.log_max)

    @property
    def entropy_log_x2(self) -> float:
        """Differential entropy of log|X|^2; -inf for a degenerate slot."""
        return math.log(self.spread) if self.spread > 0.0 else -math.inf

    @property
    def entropy_x(self) -> float:
        """Differential entropy of the complex symbol X itself.

        For circularly-symmetric X:  h(X) = E[log|X|^2] + h(log|X|^2) + log(pi).
        """
        return self.mean_log_x2 + self.entropy_log_x2 + LOG_PI

    @property
    def log_mean_power(self) -> float:
        """log E|X|^2 for the exponentiated-uniform law, stable in log domain.

        E|X|^2 = (x2_max - x2_min) / log(x2_max / x2_min); the degenerate
        slot has E|X|^2 = x2_max.
        """
        a, b = self.log_min, self.log_max
        if b == a:
            return b
        return b + math.log(-math.expm1(a - b)) - math.log(b - a)


class SchemeParams(Record):
    """The canonical block scheme for (tau, P, L): tau slots behind L guard zeros.

    Construction fails unless tau >= 1, 0 < log P < inf and the schedule is admissible, P^(1/tau) > log P.
    """

    tau: int
    log_power: float
    num_taps: int

    def __post_init__(self) -> None:
        if self.num_taps < 0:
            raise ValueError(f"num_taps must be >= 0, got {self.num_taps}")
        log_log_ratio(self.log_power, self.tau)  # raises unless tau >= 1 and 0 < log P < inf, and on inversion

    @property
    def block_len(self) -> int:
        return self.num_taps + self.tau

    def slot_law(self, nu: int) -> LogUniformX2:
        """Magnitude law of slot ``nu`` (1-based), on the schedule in the module docstring."""
        if not 1 <= nu <= self.tau:
            raise ValueError(f"slot index must lie in 1..{self.tau}, got {nu}")
        log_p = self.log_power
        return LogUniformX2((nu - 1) / self.tau * log_p + math.log(log_p), nu / self.tau * log_p)


def schedule_is_valid(log_power: float, tau: int) -> bool:
    """Whether tau >= 1 and the canonical schedule has nonempty slots: P^(1/tau) > log P."""
    return tau >= 1 and log_power > 0.0 and log_power / tau > math.log(log_power)


def log_block_average_power(params: SchemeParams) -> float:
    """log of the block-average power (1/(L+tau)) sum_v E|X_v|^2."""
    slot_logs = sorted(params.slot_law(nu).log_mean_power for nu in range(1, params.tau + 1))
    top = slot_logs.pop()  # shift by the largest term, which enters through log1p
    return top + math.log1p(sum(math.exp(v - top) for v in slot_logs)) - math.log(params.block_len)


class DirectStats(Record):
    """Channel statistics the achievable-rate bound consumes: its five fields, nothing more.

    The terms that depend on the power alone, log log P and Xi_P, are not kept
    here: ``optimize_tau`` evaluates them once per point and passes them to
    ``lower_bound``.
    """

    mean_log_gain_0: float
    alpha_0: float
    alpha_total: float
    sigma2: float
    num_taps: int

    def __post_init__(self) -> None:
        if not (self.alpha_0 > 0.0):
            raise ValueError("the delay-0 path must carry energy (alpha_0 > 0)")
        positive_finite(self.sigma2, "noise variance")
        if self.alpha_total < self.alpha_0:
            raise ValueError("total variance cannot be smaller than alpha_0")
        if not math.isfinite(self.mean_log_gain_0):
            raise ValueError("mean log gain of the delay-0 path must be finite")
        if self.mean_log_gain_0 > math.log(self.alpha_0):
            raise ValueError(
                f"mean log gain of the delay-0 path ({self.mean_log_gain_0}) exceeds "
                f"Jensen's cap log alpha_0 = {math.log(self.alpha_0)}"
            )

    @classmethod
    def from_config(cls, config: ChannelConfig) -> "DirectStats":
        stats0 = stats_of(config.path_specs[0])
        return cls(
            mean_log_gain_0=stats0.mean_log_gain,
            alpha_0=stats0.alpha,
            alpha_total=aggregate_gain(config),
            sigma2=config.noise_variance,
            num_taps=config.num_paths,
        )


def log_log_ratio(log_power: float, tau: int) -> float:
    """log log(P^(1/tau) / log P), computed stably from log P.

    Raises a one-line ValueError unless 0 < log P < inf and tau >= 1, and where
    ``math.log`` rejects the inadmissible schedule, P^(1/tau) <= log P.
    """
    log_log_power = math.log(_check_power(log_power))
    _check_tau(tau)
    try:
        return math.log(log_power / tau - log_log_power)
    except ValueError:
        raise _inversion(log_power, tau, log_log_power) from None


def _check_power(log_power: float) -> float:
    """``log_power`` itself, if it lies in the scheme's domain 0 < log P < inf (P > 1); raises otherwise."""
    if not 0.0 < log_power < math.inf:
        raise ValueError(f"the scheme requires P > 1 and a finite log P, got log P = {log_power}")
    return log_power


def _check_tau(tau: int) -> int:
    """``tau`` itself, if it is a block length, tau >= 1; raises otherwise, unchained inside an ``except``."""
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}") from None
    return tau


def _inversion(log_power: float, tau: int, log_log_power: float) -> ValueError:
    """The one-line error for an inadmissible schedule, P^(1/tau) <= log P; ``_check_tau``'s for tau < 1."""
    return ValueError(
        f"schedule inversion at tau = {_check_tau(tau)}: P^(1/tau) <= log P "
        f"(log P / tau = {log_power / tau:.6g} <= log log P = {log_log_power:.6g})"
    )


def xi_p(log_power: float, stats: DirectStats) -> float:
    """The SNR-dependent constant of the rate bound.

    Xi_P = E[log|H^(0)|^2] - 1 - 2 log( sqrt(alpha_0)
             + sqrt((alpha_total + sigma^2) / log P) ).
    """
    return _xi(stats, (stats.alpha_total + stats.sigma2) / _check_power(log_power))


def _xi(stats: DirectStats, residual_variance: float) -> float:
    """E[log|H^(0)|^2] - 1 - 2 log(sqrt(alpha_0) + sqrt(residual_variance))."""
    return stats.mean_log_gain_0 - 1.0 - 2.0 * math.log(math.sqrt(stats.alpha_0) + math.sqrt(residual_variance))


def sharp_slot_bound(nu: int, params: SchemeParams, stats: DirectStats) -> float:
    """Slot-dependent per-symbol bound, sharper than the slot-uniform one.

    The slot-uniform bound ``log_log_ratio + xi_p`` (the bracket of
    ``lower_bound``) relaxes the residual noise term sigma^2 / x2_min[nu]
    = sigma^2 / (P^((nu-1)/tau) log P) of slot nu to sigma^2 / log P; this
    one keeps it.
    """
    log_p = params.log_power
    residual = stats.sigma2 * math.exp(-params.slot_law(nu).log_min)
    return log_log_ratio(log_p, params.tau) + _xi(stats, stats.alpha_total / log_p + residual)


def lower_bound(
    log_snr: float, tau: int, stats: DirectStats, terms: Tuple[float, float, float] | None = None
) -> float:
    """Achievable rate of the scheme, nats per channel use.

    R = tau/(L+tau) * [ log log(P^(1/tau)/log P) + Xi_P ]  with P = SNR * sigma^2.
    ``terms`` is the point's ``(log P, log log P, Xi_P)`` from
    ``_power_terms(log_snr, stats)``, which a tau scan at one point evaluates
    once; without it the terms are evaluated here, with the same bits.  Raises
    unless 0 < log P < inf, and with ``log_log_ratio``'s messages at P^(1/tau) <= log P,
    where callers should lower tau, and at tau < 1 where the expression fails (from log P >= 1 on:
    only the error path checks tau, to keep the scan's calls lean).  NaN terms give a NaN rate.
    """
    log_power, log_log_power, xi = _power_terms(log_snr, stats) if terms is None else terms
    try:
        return tau / (stats.num_taps + tau) * (math.log(log_power / tau - log_log_power) + xi)
    except (ValueError, ZeroDivisionError):
        raise _inversion(log_power, tau, log_log_power) from None


def _power_terms(log_snr: float, stats: DirectStats) -> Tuple[float, float, float]:
    """The tau-independent terms ``(log P, log log P, Xi_P)``; raises unless 0 < log P < inf."""
    log_power = log_snr + math.log(stats.sigma2)
    xi = xi_p(log_power, stats)  # checks the domain before log log P is taken
    return log_power, math.log(log_power), xi


def optimize_tau(
    log_snr: float, stats: DirectStats, tau_max: int
) -> Tuple[int, float]:
    """Maximize the rate bound over the admissible tau in 1..tau_max.

    Admissibility is monotone in tau (log P / tau never grows), so the last
    admissible tau is found by bisection on ``schedule_is_valid``; the scan
    then makes one ``lower_bound`` call, one expression, at every tau up to
    it, passing the point's ``(log P, log log P, Xi_P)`` from ``_power_terms``,
    evaluated once, and stops at the first negative rate.  No larger tau can beat that
    rate: the bracket log log(P^(1/tau)/log P) + Xi_P never grows with tau
    and the weight tau/(L+tau) never shrinks, so a negative bracket times a
    larger weight is no larger.  Each floating-point step is monotone in tau
    as well, so the stop returns the bits of the full scan.  R(1) < 0 at every
    log P <= 1, where every tau is admissible, for a channel with
    E log|H^(0)|^2 <= log alpha_0 (Jensen; from a config it is
    log alpha_0 - gamma), so the scan ends at tau = 1.  Returns the maximizing
    (tau, rate), ties broken toward the smaller tau.  Raises unless
    0 < log P < inf; tau = 1 is admissible at every such log P, since
    log P > log log P.
    """
    if tau_max < 1:
        raise ValueError(f"tau_max must be >= 1, got {tau_max}")
    terms = _power_terms(log_snr, stats)
    log_power = terms[0]
    last, above = 1, tau_max + 1  # tau = last is admissible, tau = above is not (or out of range)
    while above - last > 1:
        mid = (last + above) // 2
        if schedule_is_valid(log_power, mid):
            last = mid
        else:
            above = mid
    best_tau, best = 1, -math.inf
    for tau in range(1, last + 1):
        value = lower_bound(log_snr, tau, stats, terms)
        if value > best:
            best_tau, best = tau, value
        if value < 0.0:
            break
    return best_tau, best

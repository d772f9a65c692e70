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

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Tuple

from .channel import ChannelConfig, aggregate_gain
from .fading import LOG_PI, LOG_PI_E, stats_of

if TYPE_CHECKING:
    import numpy as np


@functools.lru_cache(maxsize=8)
def _legendre_rule(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule on [-1, 1], built once per n.

    ``leggauss(512)`` costs tens of milliseconds, and every caller shares the
    cached arrays, so they are read-only.
    """
    import numpy as np

    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@dataclass(frozen=True)
class LogUniformX2:
    """Law of a circularly-symmetric symbol with log|X|^2 ~ Uniform[log_min, log_max]."""

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

    def quadrature(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """Nodes u and weights w of the n-node Gauss-Legendre rule for E[f(log|X|^2)].

        The nodes lie in [log_min, log_max] and the weights sum to one, so
        ``w @ f(u)`` approximates the average of f over the law.  A degenerate
        slot has the single node log_min with weight 1.
        """
        import numpy as np

        a, b = self.log_min, self.log_max
        if b == a:
            return np.array([a]), np.array([1.0])
        nodes, weights = _legendre_rule(n)
        return 0.5 * (b - a) * nodes + 0.5 * (a + b), 0.5 * weights

    def sample_log_x2(self, rng: np.random.Generator, size=None) -> np.ndarray:
        return rng.uniform(self.log_min, self.log_max, size=size)

    def sample_x(self, rng: np.random.Generator, size=None) -> np.ndarray:
        import numpy as np

        u = self.sample_log_x2(rng, size)
        phase = rng.uniform(0.0, 2.0 * math.pi, size=size)
        return np.exp(0.5 * u + 1j * phase)


@dataclass(frozen=True)
class SchemeParams:
    """The canonical block scheme for (tau, P, L): tau slots behind L guard zeros.

    Construction fails when the schedule is inadmissible, P^(1/tau) <= log P.
    """

    tau: int
    log_power: float
    num_taps: int

    def __post_init__(self) -> None:
        if self.tau < 1:
            raise ValueError(f"tau must be >= 1, got {self.tau}")
        if self.num_taps < 0:
            raise ValueError(f"num_taps must be >= 0, got {self.num_taps}")
        if self.log_power <= 0.0:
            raise ValueError(f"the scheme requires P > 1, got log P = {self.log_power}")
        log_log_ratio(self.log_power, self.tau)  # raises on schedule inversion

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
    """Whether the canonical schedule has nonempty slots: P^(1/tau) > log P."""
    return log_power > 0.0 and log_power / tau > math.log(log_power)


def log_block_average_power(params: SchemeParams) -> float:
    """log of the block-average power (1/(L+tau)) sum_v E|X_v|^2."""
    slot_logs = sorted(params.slot_law(nu).log_mean_power for nu in range(1, params.tau + 1))
    top = slot_logs.pop()  # shift by the largest term, which enters through log1p
    return top + math.log1p(sum(math.exp(v - top) for v in slot_logs)) - math.log(params.block_len)


@dataclass(frozen=True)
class DirectStats:
    """Channel statistics the achievable-rate bound consumes.

    ``log_sigma2`` and ``sqrt_alpha_0`` are derived once here rather than on
    every bound evaluation.  ``power_memo`` holds the tau-independent terms
    of the last validated power that ``lower_bound`` saw, the triple
    ``(log P, log log P, Xi_P)``, as one tuple in a one-element list that is
    replaced in a single step, so a tau scan at one power evaluates
    ``log log P`` and ``xi_p`` once.  None of the three is a constructor
    argument or takes part in ``repr``, ``==`` or ``hash``.
    """

    mean_log_gain_0: float
    alpha_0: float
    alpha_total: float
    sigma2: float
    num_taps: int
    log_sigma2: float = field(init=False, repr=False, compare=False)
    sqrt_alpha_0: float = field(init=False, repr=False, compare=False)
    power_memo: list = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (self.alpha_0 > 0.0):
            raise ValueError("the delay-0 path must carry energy (alpha_0 > 0)")
        if not (self.sigma2 > 0.0):
            raise ValueError("noise variance must be positive")
        if self.alpha_total < self.alpha_0:
            raise ValueError("total variance cannot be smaller than alpha_0")
        if not math.isfinite(self.mean_log_gain_0):
            raise ValueError("mean log gain of the delay-0 path must be finite")
        if self.mean_log_gain_0 > math.log(self.alpha_0):
            raise ValueError(
                f"mean log gain of the delay-0 path ({self.mean_log_gain_0}) exceeds "
                f"Jensen's cap log alpha_0 = {math.log(self.alpha_0)}"
            )
        object.__setattr__(self, "log_sigma2", math.log(self.sigma2))
        object.__setattr__(self, "sqrt_alpha_0", math.sqrt(self.alpha_0))
        object.__setattr__(self, "power_memo", [(math.nan, math.nan, math.nan)])  # nan matches no power

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


def lemma_mi_lower_bound(
    mean_log_h2: float,
    sigma_h: float,
    sigma_w: float,
    x2_law: LogUniformX2,
) -> float:
    """Mutual-information lower bound for the scalar model Y = H*X + W.

    Returns  h(X) - E[log|X|^2] + E[log|H|^2] - E[log(pi e (sigma_h + sigma_w/|X|)^2)]
    for X of law ``x2_law``, valid whenever X is independent of (H, W),
    X -- H -- W is Markov, and all second moments are finite.  The last expectation is a deterministic
    512-node Gauss-Legendre quadrature over the log-uniform magnitude law
    (``LogUniformX2.quadrature``; no estimator noise on the bound side).
    """
    import numpy as np

    if sigma_h <= 0.0:
        raise ValueError(f"sigma_h must be positive, got {sigma_h}")
    if sigma_w < 0.0:
        raise ValueError(f"sigma_w must be nonnegative, got {sigma_w}")
    u, w = x2_law.quadrature(512)
    # log(sigma_h + sigma_w e^(-u/2)) in log form, finite however small |X| gets
    log_sigma_w = math.log(sigma_w) if sigma_w > 0.0 else -math.inf
    last_term = LOG_PI_E + 2.0 * float(w @ np.logaddexp(math.log(sigma_h), log_sigma_w - 0.5 * u))
    return x2_law.entropy_x - x2_law.mean_log_x2 + mean_log_h2 - last_term


def log_log_ratio(log_power: float, tau: int) -> float:
    """log log(P^(1/tau) / log P), computed stably from log P.

    Raises a one-line ValueError when the schedule is inadmissible,
    P^(1/tau) <= log P.
    """
    return _log_log_ratio(log_power, tau, math.log(log_power))


def _log_log_ratio(log_power: float, tau: int, log_log_power: float) -> float:
    """``log_log_ratio`` given log log P, which does not depend on tau."""
    inner = log_power / tau - log_log_power
    if inner <= 0.0:
        raise ValueError(
            f"schedule inversion: P^(1/tau) <= log P "
            f"(log P / tau = {log_power / tau:.6g} <= log log P = {log_log_power:.6g})"
        )
    return math.log(inner)


def xi_p(log_power: float, stats: DirectStats) -> float:
    """The SNR-dependent constant of the rate bound.

    Xi_P = E[log|H^(0)|^2] - 1 - 2 log( sqrt(alpha_0)
             + sqrt((alpha_total + sigma^2) / log P) ).
    """
    if log_power <= 0.0:
        raise ValueError(f"requires P > 1, got log P = {log_power}")
    return _xi(stats, (stats.alpha_total + stats.sigma2) / log_power)


def _xi(stats: DirectStats, residual_variance: float) -> float:
    """E[log|H^(0)|^2] - 1 - 2 log(sqrt(alpha_0) + sqrt(residual_variance))."""
    return stats.mean_log_gain_0 - 1.0 - 2.0 * math.log(stats.sqrt_alpha_0 + math.sqrt(residual_variance))


def sharp_slot_bound(nu: int, params: SchemeParams, stats: DirectStats) -> float:
    """Slot-dependent per-symbol bound, sharper than the slot-uniform one.

    The slot-uniform bound ``log_log_ratio + xi_p`` (the bracket of
    ``lower_bound``) relaxes the residual noise term
    sigma^2 / (P^((nu-1)/tau) log P) of slot nu to sigma^2 / log P; this one
    keeps it.
    """
    if not 1 <= nu <= params.tau:
        raise ValueError(f"slot index must lie in 1..{params.tau}, got {nu}")
    log_p = params.log_power
    residual = stats.sigma2 * math.exp(-(nu - 1) / params.tau * log_p) / log_p
    return log_log_ratio(log_p, params.tau) + _xi(stats, stats.alpha_total / log_p + residual)


def lower_bound(log_snr: float, tau: int, stats: DirectStats) -> float:
    """Achievable rate of the scheme, nats per channel use.

    R = tau/(L+tau) * [ log log(P^(1/tau)/log P) + Xi_P ]  with P = SNR * sigma^2.
    log log P and Xi_P are reused from ``stats.power_memo`` when log P equals
    the stored power, which only a validated power can; otherwise the power
    is checked, both are evaluated and the triple is stored.  A call at a
    stored power then costs one division, one subtraction, one ``math.log``
    and the weight.  Raises when P <= 1, log P is not finite or the slot
    schedule is inadmissible for this (P, tau); callers should then lower tau.
    """
    log_power = log_snr + stats.log_sigma2
    memo_power, log_log_power, xi = stats.power_memo[0]
    if log_power != memo_power:
        if not 0.0 < log_power < math.inf:
            raise _power_error(log_power)
        log_log_power = math.log(log_power)
        xi = xi_p(log_power, stats)
        stats.power_memo[0] = (log_power, log_log_power, xi)
    weight = tau / (stats.num_taps + tau)
    return weight * (_log_log_ratio(log_power, tau, log_log_power) + xi)


def _power_error(log_power: float) -> ValueError:
    return ValueError(f"the scheme requires P > 1 and a finite log P, got log P = {log_power}")


def optimize_tau(
    log_snr: float, stats: DirectStats, tau_max: int
) -> Tuple[int, float]:
    """Maximize the rate bound over the admissible tau in 1..tau_max.

    Admissibility is monotone in tau (log P / tau never grows), so the last
    admissible tau is found by bisection on ``schedule_is_valid``; the scan
    then evaluates ``lower_bound`` at every tau up to it, and stops at the
    first negative rate.  No larger tau can beat that rate: the bracket
    log log(P^(1/tau)/log P) + Xi_P never grows with tau and the weight
    tau/(L+tau) never shrinks, so a negative bracket times a larger weight
    is no larger.  Each floating-point step is monotone in tau as well, so
    the stop returns the bits of the full scan.  R(1) < 0 at every
    log P <= 1, where every tau is admissible, for a channel with
    E log|H^(0)|^2 <= log alpha_0 (Jensen; from a config it is
    log alpha_0 - gamma), so the scan ends at tau = 1.  Returns the maximizing
    (tau, rate), ties broken toward the smaller tau.  Raises if log P is
    not finite or no tau is admissible (P too small).
    """
    if tau_max < 1:
        raise ValueError(f"tau_max must be >= 1, got {tau_max}")
    log_power = log_snr + stats.log_sigma2
    if not math.isfinite(log_power):
        raise _power_error(log_power)
    if not schedule_is_valid(log_power, 1):
        raise ValueError(
            f"no admissible block length up to tau_max = {tau_max}: "
            f"P^(1/tau) <= log P for every tau (log P = {log_power:.6g})"
        )
    last, above = 1, tau_max + 1  # tau = last is admissible, tau = above is not (or out of range)
    while above - last > 1:
        mid = (last + above) // 2
        if schedule_is_valid(log_power, mid):
            last = mid
        else:
            above = mid
    best_tau, best = 1, -math.inf
    for tau in range(1, last + 1):
        value = lower_bound(log_snr, tau, stats)
        if value > best:
            best_tau, best = tau, value
        if value < 0.0:
            break
    return best_tau, best

"""Exact finite-SNR capacity upper bound for the noncoherent multipath channel.

The bound per channel use, in nats, is

    U(snr) = -g + xi * (1 + log(1 + A*SNR) + Psi) + logGamma(xi) - xi*log(xi) + log(pi)

with ``A`` the total path variance, ``g = inf_l (h_l - alpha_l)`` over the
active taps, and the free parameter ``xi`` in (0, 1] defaulting to
``1 / (1 + log(1 + A*SNR))``, which collapses the bracket so that

    U(snr) = 1 + xi*Psi + logGamma(xi) - xi*log(xi) + log(pi) - g.

``Psi`` collects the SNR-independent constants

    Psi = log(1/delta^2) + 2*eps(delta, eta) + (2/eta)*(2/e + log(pi*e)) - (2/eta)*g,

where ``eps(delta, eta)`` is not derived here: it enters as the nonnegative
constant ``eps_const`` (default 0).  The absolute level of the bound is
therefore not certified (``CONSTANTS_CERTIFIED`` is False and every output
says so); every pre-loglog statement is unaffected because ``Psi`` does not
grow with SNR.

``logGamma`` is evaluated exactly (no small-argument asymptote) by
``_lgam``, a ``math`` port of the branch of cephes ``lgam`` (Moshier,
*Methods and Programs for Mathematical Functions*, 1989; the routine behind
``scipy.special.gammaln``) that xi in (0, 1] takes, in cephes' operation
order, so it returns ``gammaln``'s value bit for bit and the pinned sweep
outputs do not move; ``math.lgamma`` differs from it in the last bit on many
xi values.  Every formula consumes log-SNR in nats so that astronomically
large SNR values remain in range.  All operations are pure functions.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .config import BoundParams, ChannelConfig, aggregate_gain, positive_finite, snr_of
from .fading import EULER_GAMMA, LOG_PI, LOG_PI_E, stats_of
from .record import Record

TWO_OVER_E = 2.0 / math.e


# eps(delta, eta) is a constant here, not derived from the paper's proof
CONSTANTS_CERTIFIED = False


class ConverseStats(Record):
    """Channel statistics the upper bound consumes."""

    inf_gap: float
    alpha_total: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.inf_gap):
            raise ValueError("inf_gap must be finite (every active path needs a finite entropy rate)")
        if not (self.alpha_total > 0.0):
            raise ValueError("total path variance must be positive")

    @classmethod
    def from_config(cls, config: ChannelConfig) -> "ConverseStats":
        gaps = [s.entropy_rate - s.alpha for s in map(stats_of, config.path_specs) if s.active]
        return cls(inf_gap=min(gaps), alpha_total=aggregate_gain(config))


def _lgam(x: float) -> float:
    """log Gamma(x) for 0 < x <= 1, equal to ``scipy.special.gammaln(x)`` bit for bit.

    Cephes ``lgam``'s branch for such x: shift up into [2, 3), then the
    rational ``x B(x) / C(x)``, in cephes' operation order (``polevl`` and
    ``p1evl``); a reassociated step can change the last bit.
    """
    # shift the argument into [2, 3), keeping the product of the shifts in z
    z = 1.0
    p = 0.0
    u = x
    while u < 2.0:
        z /= u
        p += 1.0
        u = x + p
    if u == 2.0:
        return math.log(z)
    p -= 2.0
    x = x + p
    # log Gamma(2 + x) = x * B(x) / C(x) on [0, 1)
    b = (
        ((((-1.37825152569120859100e3 * x - 3.88016315134637840924e4) * x
           - 3.31612992738871184744e5) * x - 1.16237097492762307383e6) * x
         - 1.72173700820839662146e6) * x
        - 8.53555664245765465627e5
    )
    c = (
        (((((x - 3.51815701436523470549e2) * x - 1.70642106651881159223e4) * x
           - 2.20528590553854454839e5) * x - 1.13933444367982507207e6) * x
         - 2.53252307177582951285e6) * x
        - 2.01889141433532773231e6
    )
    return math.log(z) + x * b / c


def log1p_alpha_snr(log_snr: float, alpha_total: float) -> float:
    """log(1 + alpha_total * SNR) from log-SNR, stable for any magnitude.

    The same branches as ``np.logaddexp(0, x)``, in ``math``: exp never
    overflows, and the result equals the ufunc's bit for bit.
    """
    if not math.isfinite(log_snr):
        raise ValueError(f"log_snr must be finite, got {log_snr}")
    x = math.log(positive_finite(alpha_total, "alpha_total")) + log_snr
    if x > 0.0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def _xi_of(log1p_snr: float) -> float:
    return 1.0 / (1.0 + log1p_snr)


def xi_default(log_snr: float, alpha_total: float) -> float:
    """The closed-form choice xi = 1 / (1 + log(1 + alpha_total * SNR))."""
    return _xi_of(log1p_alpha_snr(log_snr, alpha_total))


def psi(params: BoundParams, inf_gap: float) -> float:
    """The SNR-independent constant block of the bound."""
    return (
        -2.0 * math.log(params.delta)
        + 2.0 * params.eps_const
        + (2.0 / params.eta) * (TWO_OVER_E + LOG_PI_E)
        - (2.0 / params.eta) * inf_gap
    )


def upper_bound(log_snr: float, stats: ConverseStats, params: BoundParams) -> float:
    """Capacity upper bound in nats per channel use at the given log-SNR."""
    log1p_snr = log1p_alpha_snr(log_snr, stats.alpha_total)
    xi = params.xi if params.xi is not None else _xi_of(log1p_snr)
    return _bound_at(xi, 1.0 + log1p_snr + psi(params, stats.inf_gap), stats.inf_gap)


def _bound_at(xi: float, bracket: float, inf_gap: float) -> float:
    """The bound at ``xi`` given its bracket B = 1 + log(1 + A*SNR) + Psi."""
    return -inf_gap + xi * bracket + _lgam(xi) - xi * math.log(xi) + LOG_PI


def upsilon(
    config: ChannelConfig,
    per_symbol_powers: Sequence[float],
    params: BoundParams,
    stats: Optional[ConverseStats] = None,
) -> float:
    """The n-letter correction term for an explicit power allocation.

    Evaluates, for powers p_k = E|X_k|^2,

        (1 + (1/n) sum_k log(1 + sum_l alpha_l p_{k-l} / sigma^2) + Psi)
            / (1 + log(1 + alpha_total * SNR))  - inf_gap + log(pi),

    with alpha_l = 0 beyond the last tap (the inner sum truncates at k <= L
    exactly as the channel does).
    """
    try:
        powers = [float(p) for p in per_symbol_powers]
    except TypeError:  # not a sequence of numbers
        powers = []
    if not powers:
        raise ValueError("per-symbol powers must be a nonempty 1-D sequence")
    if any(p < 0.0 for p in powers):
        raise ValueError("per-symbol powers must be nonnegative")
    if stats is None:
        stats = ConverseStats.from_config(config)
    alphas, n = config.alphas, len(powers)
    # the convolution sum_l alpha_l p_{k-l}, truncated at k <= L, and its log mean, each sum rounded once
    weighted = (math.fsum(a * powers[k - ell] for ell, a in enumerate(alphas[: k + 1])) for k in range(n))
    interior = math.fsum(math.log1p(w / config.noise_variance) for w in weighted) / n
    denom = 1.0 + log1p_alpha_snr(snr_of(config), stats.alpha_total)
    return (1.0 + interior + psi(params, stats.inf_gap)) / denom - stats.inf_gap + LOG_PI


def jensen_cap(stats: ConverseStats, params: BoundParams) -> float:
    """Allocation-independent cap on ``upsilon``: 1 + Psi - inf_gap + log(pi)."""
    return 1.0 + psi(params, stats.inf_gap) - stats.inf_gap + LOG_PI


def optimize_xi(log_snr: float, stats: ConverseStats, params: BoundParams) -> tuple[float, float]:
    """The bound minimized over xi in (0, 1]: ``(xi, upper_bound at that xi)``.

    Off the default evaluation path; the closed-form xi is canonical.  The
    bound is convex in xi (its second derivative is psi'(xi) - 1/xi > 0), so
    its minimizer xi* is the one root of B + psi(xi) - log xi - 1 = 0, with
    B = 1 + log(1 + A*SNR) + Psi the bracket of ``upper_bound``.  For a
    channel built from a config Psi > 0, so B > 1 + gamma and xi* < 1; for
    statistics with B <= 1 + gamma the bound falls on all of (0, 1] and xi* = 1.
    Newton's method finds the root in t = 1/xi, started from
    t = max(B - 1 - gamma + log B, 1), in at most five steps in every case
    tried (one at most points, up to five only where B < 2.5); writing
    psi(xi) = psi(1 + xi) - t keeps the O(t) terms exact, so the root keeps
    its accuracy up to log SNR ~ 1e300 nats.  The value is ``upper_bound`` at
    xi*, or at the closed-form xi where that evaluates lower: from log SNR
    ~ 1e8 nats on the two agree to within rounding, and taking the smaller
    keeps the result from exceeding the default bound by an ulp.
    """
    log1p_snr = log1p_alpha_snr(log_snr, stats.alpha_total)
    bracket = 1.0 + log1p_snr + psi(params, stats.inf_gap)
    t = 1.0  # the bound's slope at xi = 1 is B - 1 - gamma; if that is <= 0 it falls on all of (0, 1]
    if bracket > 1.0 + EULER_GAMMA:
        t = max(bracket - 1.0 - EULER_GAMMA + math.log(bracket), 1.0)
        for _ in range(8):
            xi = 1.0 / t
            digamma, trigamma = _digamma_trigamma(1.0 + xi)
            # F(t) = B + psi(1/t) + log t - 1, with B - t formed first, and dF/dt
            residual = (bracket - t) - 1.0 + math.log(t) + digamma
            slope = xi - 1.0 - xi * xi * trigamma
            step = residual / slope
            t = max(t - step, 1.0)
            if abs(step) <= 1e-12 * t:  # converging quadratically, so t is now exact to rounding
                break
        else:
            raise RuntimeError(f"Newton's method did not converge on xi* at log SNR {log_snr!r}")
    value, xi = min((_bound_at(xi, bracket, stats.inf_gap), xi) for xi in (1.0 / t, _xi_of(log1p_snr)))
    return xi, value


def _digamma_trigamma(x: float) -> tuple[float, float]:
    """psi(x) and psi'(x) for x >= 1: shifted to x >= 7, then the asymptotic series.

    The digamma series is cut after its 1/x^16 term, so on [1, 2] it is within
    3e-15 of psi; the trigamma series, which only steers Newton, after 1/x^9.
    """
    shift, shift_sq = 0.0, 0.0
    while x < 7.0:
        shift += 1.0 / x
        shift_sq += 1.0 / (x * x)
        x += 1.0
    r = 1.0 / (x * x)
    # sum_k B_2k / (2k x^2k), k = 1..8
    tail = r * (1 / 12 - r * (1 / 120 - r * (1 / 252 - r * (1 / 240 - r * (
        1 / 132 - r * (691 / 32760 - r * (1 / 12 - r * (3617 / 8160))))))))
    digamma = math.log(x) - 0.5 / x - tail - shift
    trigamma = (1.0 + 0.5 / x + r * (1 / 6 - r * (1 / 30 - r * (1 / 42 - r / 30)))) / x + shift_sq
    return digamma, trigamma

"""Pre-loglog behavior in the converged regime.

The slope-fit acceptance bands (criteria 1, 2a, 2b) are limits as SNR tends
to infinity; tests/test_acceptance.py checks them as limits, on a sequence of
windows that starts at the stated grid.  Because every bound consumes
log-SNR in nats, the code can be evaluated at log SNR up to ~1e300, deep
inside the regime where the loglog asymptotics have converged; these tests
pin the limit behavior there and show that the slopes move monotonically
toward it as the window moves out.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from fadecap import cli
from fadecap.config import BoundParams, ChannelConfig, GridSpec
from fadecap.converse import ConverseStats, log1p_alpha_snr, psi, upper_bound
from fadecap.direct import DirectStats, lower_bound, optimize_tau
from fadecap.fading import EULER_GAMMA, LOG10, LOG_PI, Ar1Gaussian, IidGaussian

PARAMS = BoundParams()
DEMO = cli.load_config(Path(__file__).resolve().parent.parent / "configs" / "demo.json")
DEMO_CSTATS = ConverseStats.from_config(DEMO.channel)
DEMO_DSTATS = DirectStats.from_config(DEMO.channel)


def l8_stats() -> DirectStats:
    chan = ChannelConfig(
        path_specs=tuple(Ar1Gaussian(alpha=0.5**l, a=0.5) for l in range(9)),
        noise_variance=1.0,
        log_power=3.0 * math.log(10.0),
    )
    return DirectStats.from_config(chan)


def ols_slope(grid, values) -> float:
    return float(np.polyfit(np.log(grid), values, 1)[0])


class TestConverseLimit:
    def test_slope_reaches_one(self):
        grid = np.logspace(8, 16, 9)
        slope = ols_slope(grid, [upper_bound(s, DEMO_CSTATS, PARAMS) for s in grid])
        assert abs(slope - 1.0) < 1e-3
        assert 0.95 <= slope <= 1.05  # the criterion-1 band, met in this regime

    def test_increment_matches_loglog_difference(self):
        lo, hi = 1e20, 1e40
        delta = upper_bound(hi, DEMO_CSTATS, PARAMS) - upper_bound(lo, DEMO_CSTATS, PARAMS)
        assert abs(delta - math.log(hi / lo)) < 1e-2

    def test_residual_converges_to_its_limit(self):
        def residual(log_snr):
            loglog_term = math.log(1.0 + log1p_alpha_snr(log_snr, DEMO_CSTATS.alpha_total))
            return upper_bound(log_snr, DEMO_CSTATS, PARAMS) - loglog_term

        assert abs(residual(2e4 * math.log(10)) - residual(1e4 * math.log(10))) < 1e-2
        limit = 1.0 + LOG_PI - DEMO_CSTATS.inf_gap
        assert abs(residual(1e15) - limit) < 1e-10

    def test_ratio_to_loglog_approaches_one_from_above(self):
        ratios = [
            upper_bound(s, DEMO_CSTATS, PARAMS) / math.log(s) for s in (1e3, 1e10, 1e50, 1e100)
        ]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] == pytest.approx(1.0, abs=0.01)


class TestDirectLimit:
    def test_fixed_tau_slope_is_the_slot_fraction(self):
        grid = np.logspace(10, 20, 11)
        stats = l8_stats()
        slope = ols_slope(grid, [lower_bound(s, 8, stats) for s in grid])
        assert abs(slope - 0.5) < 1e-3  # tau/(L+tau) with tau=8, L=8

    def test_fixed_tau_slope_demo_channel(self):
        grid = np.logspace(10, 20, 11)
        slope = ols_slope(grid, [lower_bound(s, 8, DEMO_DSTATS) for s in grid])
        assert abs(slope - 0.8) < 0.02  # tau/(L+tau) with tau=8, L=2

    def test_tau_search_slope_exceeds_099(self):
        grid = np.logspace(100, 290, 12)
        stats = l8_stats()
        slope = ols_slope(grid, [optimize_tau(s, stats, 4096)[1] for s in grid])
        assert slope >= 0.99

    def test_ratio_to_loglog_approaches_one_from_below(self):
        ratios = [
            optimize_tau(s, DEMO_DSTATS, 4096)[1] / math.log(s) for s in (1e3, 1e10, 1e50, 1e100)
        ]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] == pytest.approx(1.0, abs=0.05)

    def test_bounds_sandwich_tightens(self):
        s = 1e100
        upper = upper_bound(s, DEMO_CSTATS, PARAMS)
        _, lower = optimize_tau(s, DEMO_DSTATS, 4096)
        assert lower <= upper
        assert upper / math.log(s) == pytest.approx(1.0, abs=0.01)
        assert lower / math.log(s) == pytest.approx(1.0, abs=0.05)


class TestFiniteGridMissesShrink:
    """Slopes on two-decade windows of log SNR rise monotonically toward their limits."""

    def test_upper_slope_rises_toward_one_with_the_window(self):
        slopes = []
        for k in (1.7, 4.0, 8.0, 12.0):
            grid = np.logspace(k, k + 2, 8)
            slopes.append(ols_slope(grid, [upper_bound(s, DEMO_CSTATS, PARAMS) for s in grid]))
        assert all(b > a for a, b in zip(slopes, slopes[1:]))
        assert slopes[0] < 0.95 < slopes[-1] <= 1.0 + 1e-9

    def test_lower_slope_rises_toward_one_with_the_window(self):
        slopes = []
        for k in (1.7, 4.0, 8.0, 12.0):
            grid = np.logspace(k, k + 2, 8)
            slopes.append(
                ols_slope(grid, [optimize_tau(s, DEMO_DSTATS, 4096)[1] for s in grid])
            )
        assert all(b > a for a, b in zip(slopes, slopes[1:]))
        assert slopes[-1] > 0.95



def xi_inf(stats: DirectStats) -> float:
    """The limit of Xi_P as P grows: E log|H^(0)|^2 - 1 - log alpha_0 (-1 - gamma for a Gaussian tap)."""
    return stats.mean_log_gain_0 - 1.0 - math.log(stats.alpha_0)


def second_order_remainder(log_snr, tau, stats, rate) -> float:
    """R - w (log log SNR - log tau) - w Xi_inf with w = tau/(L+tau); it tends to 0."""
    w = tau / (stats.num_taps + tau)
    return rate - w * (math.log(log_snr) - math.log(tau)) - w * xi_inf(stats)


def next_terms(log_snr, tau, stats) -> float:
    """A bound on |remainder| from the three terms the limit drops (README "Second-order asymptotics").

    With t = tau log log P / log P and c = (alpha_total + sigma^2) / (alpha_0 log P)
    the remainder is w [log(1 + log sigma^2 / log SNR) + log(1 - t) - 2 log(1 + sqrt c)],
    and |log(1 - t)| <= t / (1 - t), 2 log(1 + sqrt c) <= 2 sqrt c.
    """
    w = tau / (stats.num_taps + tau)
    log_power = log_snr + math.log(stats.sigma2)
    t = tau * math.log(log_power) / log_power
    c = (stats.alpha_total + stats.sigma2) / (stats.alpha_0 * log_power)
    return w * (abs(math.log1p(math.log(stats.sigma2) / log_snr)) + t / (1.0 - t) + 2.0 * math.sqrt(c))


def float_allowance(log_snr) -> float:
    """16 ulps of the rate's log log SNR term, for the rounding of R and of the subtracted terms."""
    return 16.0 * sys.float_info.epsilon * math.log(log_snr)


def decade_windows(count=100, last_log_snr=1e290) -> list:
    """One-decade windows of log SNR, 19 points each, from the stated grid out to ``last_log_snr`` nats."""
    first = DEMO.grid.log10_snr_start  # the stated grid, log10 SNR in [20, 200]
    starts = np.logspace(math.log10(first), math.log10(last_log_snr / 10.0 / LOG10), count)
    return [GridSpec(s, 10.0 * s, DEMO.grid.points).log_snr_values() for s in starts]


FLAT = DirectStats.from_config(ChannelConfig((IidGaussian(1.0),), 1.0, 0.0))  # L = 0
SLOW_QUIET = DirectStats.from_config(ChannelConfig((Ar1Gaussian(2.0, 0.5),), 0.1, 0.0))  # L = 0, sigma^2 < 1


def assert_windows_shrink(remainder_at):
    """``remainder_at(log_snr)`` gives a remainder and its dropped terms. In every
    window each point's remainder lies within those terms plus the float
    allowance, the window's largest |remainder| never grows, and in the last
    window it is float noise."""
    previous = math.inf
    for window in decade_windows():
        worst = 0.0
        for log_snr in window:
            remainder, dropped = remainder_at(log_snr)
            assert abs(remainder) <= dropped + float_allowance(log_snr), log_snr
            worst = max(worst, abs(remainder))
        assert worst <= previous + float_allowance(window[-1]), window[0]
        previous = worst
    assert worst <= float_allowance(window[-1])


def assert_remainder_tends_to_zero(stats, rate_at):
    def remainder_at(log_snr):
        tau, rate = rate_at(log_snr)
        return second_order_remainder(log_snr, tau, stats, rate), next_terms(log_snr, tau, stats)

    assert_windows_shrink(remainder_at)


def c_upper(stats: ConverseStats) -> float:
    """The limit of U - log log SNR: c_U = 1 + log pi - g (README "Second-order asymptotics")."""
    return 1.0 + LOG_PI - stats.inf_gap


def converse_remainder(log_snr, stats) -> float:
    """U - log log SNR - c_U at the default xi; it tends to 0."""
    return upper_bound(log_snr, stats, PARAMS) - math.log(log_snr) - c_upper(stats)


def converse_next_terms(log_snr, stats) -> float:
    """A bound on |converse_remainder| from the terms the limit drops.

    With l = log(1 + A SNR) and xi = 1 / (1 + l) the remainder is
    log((1 + l) / log SNR) + xi (Psi - gamma + log(1 + l)) + E, where
    E = log Gamma(1 + xi) + gamma xi lies in [0, pi^2 xi^2 / 12].
    """
    log1p_snr = log1p_alpha_snr(log_snr, stats.alpha_total)
    xi = 1.0 / (1.0 + log1p_snr)
    shift = psi(PARAMS, stats.inf_gap) - EULER_GAMMA + math.log1p(log1p_snr)
    return abs(math.log((1.0 + log1p_snr) / log_snr)) + xi * abs(shift) + math.pi**2 * xi * xi / 12.0


def iid_cstats(alpha: float) -> ConverseStats:
    return ConverseStats.from_config(ChannelConfig((IidGaussian(alpha),), 1.0, 0.0))


class TestSecondOrderLimit:
    """Each rate minus its pre-loglog term tends to w Xi_inf, on windows out to 1e290 nats."""

    @pytest.mark.parametrize("stats", [FLAT, SLOW_QUIET], ids=["iid-sigma2-1", "ar1-sigma2-0.1"])
    def test_single_tap_search_picks_tau_one_and_tends_to_xi_inf(self, stats):
        # with L = 0 the weight is 1 for every tau and the bracket shrinks with tau, so tau* = 1
        def rate_at(log_snr):
            tau, rate = optimize_tau(log_snr, stats, 1024)
            assert tau == 1, log_snr
            return tau, rate

        assert_remainder_tends_to_zero(stats, rate_at)

    @pytest.mark.parametrize("tau", [1, 8])
    def test_fixed_tau_tends_to_w_xi_inf(self, tau):
        assert_remainder_tends_to_zero(DEMO_DSTATS, lambda log_snr: (tau, lower_bound(log_snr, tau, DEMO_DSTATS)))

    def test_readme_remainders(self):
        # L = 0 on the iid channel, then L = 2 on the demo channel at tau = 1 and 8
        flat = [second_order_remainder(s, 1, FLAT, optimize_tau(s, FLAT, 1024)[1]) for s in (20 * LOG10, 1e3, 1e10)]
        assert flat == pytest.approx([-0.4654, -0.09443, -2.829e-5], rel=1e-3)
        log_snr = 20 * LOG10
        demo = [second_order_remainder(log_snr, t, DEMO_DSTATS, lower_bound(log_snr, t, DEMO_DSTATS)) for t in (1, 8)]
        assert demo == pytest.approx([-0.1747, -1.2254], abs=1e-4)


class TestConverseSecondOrderLimit:
    """U - log log SNR tends to c_U = 1 + log pi - g, on windows out to 1e290 nats."""

    FADING_NUMBER = -1.0 - EULER_GAMMA  # of Gaussian fading; the lower bound's limit at L = 0

    def test_demo_upper_tends_to_c_u(self):
        assert c_upper(DEMO_CSTATS) == pytest.approx(1.9239764335717, abs=1e-12)
        assert_windows_shrink(lambda s: (converse_remainder(s, DEMO_CSTATS), converse_next_terms(s, DEMO_CSTATS)))

    def test_readme_remainders(self):
        near = [converse_remainder(s, DEMO_CSTATS) for s in (1e2, 1e5, 1e10)]
        assert near == pytest.approx([0.1601, 2.313e-4, 3.465e-9], rel=1e-3)
        far = [abs(converse_remainder(s, DEMO_CSTATS)) for s in np.logspace(30, 290, 27)]
        assert max(far) < 7e-14

    @pytest.mark.parametrize("alpha, limit", [(0.01, 4.615170185988), (1.0, 1.0), (100.0, 95.394829814)])
    def test_iid_tap_limit_is_alpha_minus_log_alpha(self, alpha, limit):
        stats = iid_cstats(alpha)
        assert c_upper(stats) == pytest.approx(alpha - math.log(alpha), abs=1e-12)
        assert c_upper(stats) == pytest.approx(limit, abs=1e-9)
        far = upper_bound(1e290, stats, PARAMS) - math.log(1e290)
        assert far == pytest.approx(c_upper(stats), abs=float_allowance(1e290))
        assert far >= self.FADING_NUMBER  # no upper bound's limit lies below capacity's

    def test_fading_number_condition_catches_a_sign_error_in_g(self):
        # with +g in place of -g the limit would be 1 + log pi + g, about -91 at alpha = 100
        stats = iid_cstats(100.0)
        flipped = ConverseStats(inf_gap=-stats.inf_gap, alpha_total=stats.alpha_total)
        far = upper_bound(1e290, flipped, PARAMS) - math.log(1e290)
        assert far == pytest.approx(-91.105, abs=1e-3)
        assert far < self.FADING_NUMBER

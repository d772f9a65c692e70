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
from pathlib import Path

import numpy as np
import pytest

from fadecap import cli
from fadecap.channel import ChannelConfig
from fadecap.converse import BoundParams, ConverseStats, log1p_alpha_snr, upper_bound
from fadecap.direct import DirectStats, lower_bound, optimize_tau
from fadecap.fading import LOG_PI, Ar1Gaussian

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

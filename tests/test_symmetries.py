"""The channel's exact scale symmetries, checked on the demo channel.

Capacity is invariant under H -> cH with P -> P/c^2, since (cH)(X/c) = HX,
and under sigma^2 -> c^2 sigma^2 with P -> c^2 P at a fixed SNR, since
Y -> cY.  Every bound and every statistic that has to be invariant on these
orbits gives a deterministic check that can fail.  ``upper`` is not invariant
on the gain orbit and ``lower`` not on the noise orbit (README, "Scale
behaviour"), so those two are not asserted here.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from fadecap import cli
from fadecap.config import snr_of
from fadecap.converse import ConverseStats, upper_bound
from fadecap.direct import DirectStats, optimize_tau, xi_p
from fadecap.fading import stats_of
from fadecap.record import replace

LOG10 = math.log(10.0)
LOG_PI_E = math.log(math.pi * math.e)
DEMO = cli.load_config(Path(__file__).resolve().parent.parent / "configs" / "demo.json")
NOISE_SCALES = (1e-6, 1.0, 1e6)
GAIN_SCALES = (0.25, 0.5, 2.0, 4.0, 100.0)


def at_log10_power(log10_power):
    return replace(DEMO.channel, log_power=log10_power * LOG10)


def noise_scaled(channel, c):
    """sigma^2 -> c sigma^2 and P -> c P: the same SNR."""
    noise_variance, log_power = channel.noise_variance * c, channel.log_power + math.log(c)
    return replace(channel, noise_variance=noise_variance, log_power=log_power)


def gain_scaled(channel, c):
    """Every alpha_l -> c alpha_l (H -> sqrt(c) H) and P -> P / c."""
    specs = tuple(replace(spec, alpha=spec.alpha * c) for spec in channel.path_specs)
    return replace(channel, path_specs=specs, log_power=channel.log_power - math.log(c))


def upper_of(channel):
    return upper_bound(snr_of(channel), ConverseStats.from_config(channel), DEMO.bound_params)


@pytest.mark.parametrize("log10_power", [3.0, 20.0, 100.0])
def test_upper_is_invariant_on_the_noise_orbit(log10_power):
    base = upper_of(at_log10_power(log10_power))
    for c in NOISE_SCALES:
        assert upper_of(noise_scaled(at_log10_power(log10_power), c)) == pytest.approx(base, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("c", (1.0,) + GAIN_SCALES)
def test_entropy_gap_and_xi_limit_are_invariant_on_the_gain_orbit(c):
    # A Gauss-Markov tap's entropy rate sits log(1 - |a|^2) below that of a
    # white tap of the same variance, log(pi e alpha), whatever alpha is
    channel = gain_scaled(DEMO.channel, c)
    for spec in channel.path_specs:
        gap = stats_of(spec).entropy_rate - (LOG_PI_E + math.log(spec.alpha))
        assert gap == pytest.approx(math.log1p(-abs(spec.a) ** 2), abs=1e-12)
    # Xi_P -> E log|H0|^2 - 1 - log alpha_0 as P -> inf, and E log|H0|^2 =
    # log alpha_0 - gamma for every Gaussian tap
    stats = DirectStats.from_config(channel)
    xi_limit = stats.mean_log_gain_0 - 1.0 - math.log(stats.alpha_0)
    assert xi_limit == pytest.approx(-1.0 - np.euler_gamma, abs=1e-12)
    assert xi_p(1e300, stats) == pytest.approx(-1.0 - np.euler_gamma, abs=1e-12)


@pytest.mark.parametrize("log10_snr", [2.0, 5.0, 20.0, 100.0, 300.0])
def test_every_lower_stays_below_every_upper_on_both_orbits(log10_snr):
    # Every point of an orbit has the same capacity, so every achievable rate
    # on it lies below every upper bound on it.  The demo channel has
    # sigma^2 = 1, so its log P is its log SNR.  Measured margin: over 5 nats.
    base = at_log10_power(log10_snr)
    orbit = [noise_scaled(base, c) for c in NOISE_SCALES] + [gain_scaled(base, c) for c in GAIN_SCALES]
    rates = []
    for channel in orbit:
        try:
            rates.append(optimize_tau(snr_of(channel), DirectStats.from_config(channel), DEMO.tau_max)[1])
        except ValueError:  # P too small for any block length
            continue
    assert rates
    assert max(rates) < min(map(upper_of, orbit))

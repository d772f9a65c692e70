"""Both bounds, the tau search and the minimum over xi against mpmath.

The reference re-derives every closed form from the channel parameters in
mpmath at 60 digits, and the upper bound's minimum over xi from a root found
in mpmath, so a float evaluator that drops precision anywhere between log SNR
1.5 and 1e300 nats, or deviates from the stated formula (a slot weight, a
constant), is off by far more than the 1e-14 relative tolerance.
"""

import math

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fadecap.config import BoundParams, ChannelConfig
from fadecap.converse import ConverseStats, optimize_xi, upper_bound
from fadecap.direct import DirectStats, lower_bound, optimize_tau
from fadecap.fading import GaussianTap
from fadecap.record import replace

REL_TOL = 1e-14
DPS = 60
LOG10_LOG_SNR_MIN = math.log10(1.5)
LOG10_LOG_SNR_MAX = 300.0

CHANNELS = {
    "demo": ChannelConfig(
        path_specs=(GaussianTap(1.0, 0.5), GaussianTap(0.5, 0.5), GaussianTap(0.25, 0.5)),
        noise_variance=1.0,
        log_power=0.0,
    ),
    "flat_iid": ChannelConfig(path_specs=(GaussianTap(2.0),), noise_variance=1.0, log_power=0.0),
    "gapped": ChannelConfig(
        path_specs=(GaussianTap(0.7), GaussianTap(0.0), GaussianTap(0.3, 0.2 - 0.6j)),
        noise_variance=3.0,
        log_power=0.0,
    ),
}
PARAMS = {
    "default": BoundParams(),
    "tuned": BoundParams(delta=0.5, eta=0.8, eps_const=0.1),
}


def _mp_path(spec):
    """(alpha, entropy rate) of one tap at working precision; None for the zero tap."""
    if spec.alpha == 0.0:
        return None
    alpha = mpmath.mpf(spec.alpha)
    pole_term = mpmath.log(1 - mpmath.mpf(spec.a.real) ** 2 - mpmath.mpf(spec.a.imag) ** 2)
    return alpha, mpmath.log(mpmath.pi * mpmath.e * alpha) + pole_term


def _mp_upper_terms(log_snr, config, params):
    """(g, log(1 + A*SNR), Psi) of the upper bound at the working precision."""
    taps = [_mp_path(s) for s in config.path_specs]
    inf_gap = min(rate - alpha for alpha, rate in filter(None, taps))
    total = mpmath.fsum(alpha for alpha, _ in filter(None, taps))
    delta, eta = mpmath.mpf(params.delta), mpmath.mpf(params.eta)
    eps = mpmath.mpf(params.eps_const)
    psi = (
        -2 * mpmath.log(delta)
        + 2 * eps
        + (2 / eta) * (2 / mpmath.e + mpmath.log(mpmath.pi * mpmath.e))
        - (2 / eta) * inf_gap
    )
    return inf_gap, mpmath.log(1 + total * mpmath.exp(mpmath.mpf(log_snr))), psi


def _mp_upper_at(inf_gap, bracket, xi):
    return -inf_gap + xi * bracket + mpmath.loggamma(xi) - xi * mpmath.log(xi) + mpmath.log(mpmath.pi)


def mp_upper(log_snr, config, params, xi=None):
    with mpmath.workdps(DPS):
        inf_gap, log1p_snr, psi = _mp_upper_terms(log_snr, config, params)
        xi = 1 / (1 + log1p_snr) if xi is None else mpmath.mpf(xi)
        return _mp_upper_at(inf_gap, 1 + log1p_snr + psi, xi)


def mp_min_upper(log_snr, config, params):
    """The upper bound at its argmin over xi, the root of B + psi(xi) - log xi - 1 = 0.

    psi(xi) ~ -1/xi ~ -B cancels B, so the precision is 50 digits past log10 B.
    The root is solved for in s = 1/(xi B), which is of order 1 at every SNR.
    """
    with mpmath.workdps(50 + max(0, math.ceil(math.log10(log_snr)))):
        inf_gap, log1p_snr, psi = _mp_upper_terms(log_snr, config, params)
        bracket = 1 + log1p_snr + psi
        scaled = mpmath.findroot(
            lambda s: bracket + mpmath.digamma(1 / (bracket * s)) + mpmath.log(bracket * s) - 1,
            1,
            tol=mpmath.mpf(10) ** -60,
        )
        return _mp_upper_at(inf_gap, bracket, 1 / (bracket * scaled))


def mp_lower_by_tau(log_snr, config, tau_max):
    """{tau: rate} at working precision for every admissible tau <= tau_max."""
    with mpmath.workdps(DPS):
        alphas = [mpmath.mpf(s.alpha) for s in config.path_specs]
        sigma2 = mpmath.mpf(config.noise_variance)
        log_p = mpmath.mpf(log_snr) + mpmath.log(sigma2)
        taps = len(alphas) - 1
        xi_p = (
            mpmath.log(alphas[0])
            - mpmath.euler
            - 1
            - 2 * mpmath.log(mpmath.sqrt(alphas[0]) + mpmath.sqrt((mpmath.fsum(alphas) + sigma2) / log_p))
        )
        rates = {}
        for tau in range(1, tau_max + 1):
            inner = log_p / tau - mpmath.log(log_p)
            if inner <= 0:
                break
            rates[tau] = mpmath.mpf(tau) / (taps + tau) * (mpmath.log(inner) + xi_p)
        return rates


def rel_err(value, exact):
    with mpmath.workdps(DPS):
        return float(abs(mpmath.mpf(value) - exact) / abs(exact))


log_snr_strategy = st.floats(min_value=LOG10_LOG_SNR_MIN, max_value=LOG10_LOG_SNR_MAX).map(
    lambda u: 10.0**u
)


class TestUpperBound:
    @settings(max_examples=200, deadline=None)
    @given(
        log_snr=log_snr_strategy,
        channel=st.sampled_from(sorted(CHANNELS)),
        params=st.sampled_from(sorted(PARAMS)),
    )
    @example(log_snr=1.5, channel="demo", params="default")
    @example(log_snr=1e300, channel="demo", params="default")
    def test_matches_60_digits(self, log_snr, channel, params):
        config, bound_params = CHANNELS[channel], PARAMS[params]
        got = upper_bound(log_snr, ConverseStats.from_config(config), bound_params)
        assert rel_err(got, mp_upper(log_snr, config, bound_params)) <= REL_TOL

    @settings(max_examples=50, deadline=None)
    @given(
        log_snr=log_snr_strategy,
        channel=st.sampled_from(sorted(CHANNELS)),
        params=st.sampled_from(sorted(PARAMS)),
    )
    @example(log_snr=1.5, channel="demo", params="default")
    @example(log_snr=1e11, channel="demo", params="default")  # xi* ~ 1e-11: it needs relative, not absolute, precision
    @example(log_snr=1e13, channel="demo", params="default")
    @example(log_snr=1e13, channel="flat_iid", params="default")  # U at the root rounds 1 ulp above the closed form
    @example(log_snr=1e20, channel="demo", params="default")
    @example(log_snr=1e300, channel="demo", params="default")
    def test_optimize_xi_is_the_minimum_over_xi(self, log_snr, channel, params):
        config, bound_params = CHANNELS[channel], PARAMS[params]
        stats = ConverseStats.from_config(config)
        xi, best = optimize_xi(log_snr, stats, bound_params)
        assert 0.0 < xi <= 1.0
        assert rel_err(best, mp_min_upper(log_snr, config, bound_params)) <= REL_TOL
        assert best <= upper_bound(log_snr, stats, bound_params)  # never above the closed-form xi

    @pytest.mark.parametrize("log_snr", [1.5, 30.0, 1e6, 1e300])
    def test_optimize_xi_value_is_the_bound_at_its_argmin(self, log_snr):
        config, params = CHANNELS["demo"], PARAMS["default"]
        stats = ConverseStats.from_config(config)
        xi_star, best = optimize_xi(log_snr, stats, params)
        at_xi_star = replace(params, xi=xi_star)
        assert best == upper_bound(log_snr, stats, at_xi_star)
        assert rel_err(best, mp_upper(log_snr, config, params, xi=xi_star)) <= REL_TOL


class TestLowerBound:
    @settings(max_examples=200, deadline=None)
    @given(
        log_snr=log_snr_strategy,
        channel=st.sampled_from(sorted(CHANNELS)),
        tau=st.integers(min_value=1, max_value=1024),
    )
    @example(log_snr=1.5, channel="demo", tau=1)
    @example(log_snr=1e300, channel="demo", tau=1024)
    def test_matches_60_digits(self, log_snr, channel, tau):
        config = CHANNELS[channel]
        exact = mp_lower_by_tau(log_snr, config, tau).get(tau)
        if exact is None:  # schedule inadmissible at this (P, tau)
            return
        got = lower_bound(log_snr, tau, DirectStats.from_config(config))
        assert rel_err(got, exact) <= REL_TOL

    @pytest.mark.parametrize("channel", sorted(CHANNELS))
    @pytest.mark.parametrize("log_snr", [1.5, 1e2, 1e6, 1e59, 1e300])
    def test_optimize_tau_matches_60_digit_argmax(self, log_snr, channel):
        config = CHANNELS[channel]
        rates = mp_lower_by_tau(log_snr, config, 1024)
        exact_best = max(rates.values())
        tau_star, got = optimize_tau(log_snr, DirectStats.from_config(config), 1024)
        assert rel_err(got, exact_best) <= REL_TOL
        # a float near-tie may pick a neighbour; its exact rate must tie too
        assert rel_err(rates[tau_star], exact_best) <= REL_TOL

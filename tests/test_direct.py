"""Block scheme and achievable rate: schedule identities, power, bounds."""

import copy
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fadecap.oracle
from fadecap.config import ChannelConfig
from fadecap.direct import (
    DirectStats,
    LogUniformX2,
    SchemeParams,
    log_block_average_power,
    log_log_ratio,
    lower_bound,
    optimize_tau,
    schedule_is_valid,
    sharp_slot_bound,
    _power_terms,
    xi_p,
)
from fadecap.fading import EULER_GAMMA, LOG_PI, LOG_PI_E, GaussianTap
from fadecap.channel import substream
from fadecap.oracle import _scheme_log_inputs, lemma_mi_lower_bound, quadrature, sample_log_x, sample_log_x2
from fadecap.record import asdict, fields, replace
from test_acceptance import DEMO, GAP_NOISE, LimitApproach, slope_windows, window_slopes

LOG10 = math.log(10.0)
DOMAIN_ERROR = "the scheme requires P > 1 and a finite log P, got log P = {}"  # outside 0 < log P < inf
INVERSION_ERROR = "schedule inversion at tau = {}: P^(1/tau) <= log P (log P / tau = {:.6g} <= log log P = {:.6g})"


def stats_for(alpha_0=1.0, alpha_total=1.75, sigma2=1.0, num_taps=2, mean_log_gain=None):
    return DirectStats(
        mean_log_gain_0=-EULER_GAMMA if mean_log_gain is None else mean_log_gain,
        alpha_0=alpha_0,
        alpha_total=alpha_total,
        sigma2=sigma2,
        num_taps=num_taps,
    )


SCAN_CAP = 4096  # candidates the reference scans where every tau is admissible


def reference_search(log_snr, stats, tau_max):
    """The plain scan: every tau until the first inadmissible one, first strict maximum kept.

    At log P <= 1 every tau is admissible, so the scan ends after SCAN_CAP
    candidates; there every rate is negative and none beats R(1).
    """
    log_power = log_snr + math.log(stats.sigma2)
    best = None
    for tau in range(1, tau_max + 1):
        if not schedule_is_valid(log_power, tau) or (log_power <= 1.0 and tau > SCAN_CAP):
            break
        value = lower_bound(log_snr, tau, stats)
        if best is None or value > best[1]:
            best = (tau, value)
    return best


def searched_optimum(log_snr, stats, tau_max):
    """``reference_search``'s result by bisection and galloping, in tens of calls rather than a scan.

    The last admissible tau comes from a bisection on ``schedule_is_valid``.
    The search then gallops on tau = 1, 2, 4, ... while R(tau+1) > R(tau)
    and bisects on that sign, so it finds the first maximum of any rate
    that rises strictly up to its maximum and never rises after it.
    """
    log_power = log_snr + math.log(stats.sigma2)
    if not schedule_is_valid(log_power, 1):
        return None
    last, over = (tau_max, tau_max + 1) if schedule_is_valid(log_power, tau_max) else (1, tau_max)
    while over - last > 1:  # last is admissible; over is not, or lies past tau_max
        mid = (last + over) // 2
        last, over = (mid, over) if schedule_is_valid(log_power, mid) else (last, mid)

    def rises(tau):
        return tau < last and lower_bound(log_snr, tau + 1, stats) > lower_bound(log_snr, tau, stats)

    below, probe = 0, 1  # rises(below), unless below = 0; the first maximum lies in (below, probe]
    while rises(probe):
        below, probe = probe, min(2 * probe, last)
    while probe - below > 1:
        mid = (below + probe) // 2
        below, probe = (mid, probe) if rises(mid) else (below, mid)
    return probe, lower_bound(log_snr, probe, stats)


def admissibility_edge(tau):
    """The larger root of log P = tau * log log P (tau >= 3): tau is admissible just above it, not just below."""
    x = float(tau * tau)
    for _ in range(200):
        x = tau * math.log(x)
    return x


@st.composite
def random_stats(draw):
    """DirectStats with sigma2 != 1 and alpha_0 != 1, E log|H^(0)|^2 at or below Jensen's cap log alpha_0."""
    alpha_0 = draw(st.floats(0.05, 5.0).filter(lambda a: a != 1.0))
    return stats_for(
        alpha_0=alpha_0,
        alpha_total=alpha_0 + draw(st.floats(0.0, 5.0)),
        sigma2=math.exp(draw(st.floats(-4.0, 4.0).filter(lambda v: v != 0.0))),
        num_taps=draw(st.integers(0, 6)),
        mean_log_gain=math.log(alpha_0) - draw(st.floats(0.0, 4.0)),
    )


@st.composite
def search_cases(draw):
    """(log_snr, stats, tau_max) of ``random_stats``, log P on both sides of an admissibility edge."""
    tau_max = draw(st.sampled_from([1, 2, 3, 7, 50, 1024, 10**12]))
    stats = draw(random_stats())
    kind = draw(st.sampled_from(["edge", "edge", "small", "nonpositive"]))
    if kind == "edge":
        # the last admissible tau is edge_tau - 1 just below the edge and at least edge_tau above it
        log_power = admissibility_edge(draw(st.integers(3, 2049)))
        ulps = draw(st.integers(-4, 4))
        for _ in range(abs(ulps)):
            log_power = math.nextafter(log_power, math.inf if ulps > 0 else 0.0)
        log_power *= 1.0 + draw(st.sampled_from([0.0, 1e-12, -1e-12, 1e-6, -1e-6, 1e-2, -1e-2]))
    elif kind == "small":
        # log P <= 1 admits every tau
        log_power = draw(st.floats(0.01, 3.0))
    else:
        log_power = -draw(st.floats(0.0, 5.0))
    return log_power - math.log(stats.sigma2), stats, tau_max


@st.composite
def config_stats(draw):
    """``DirectStats.from_config`` of a random channel, so E log|H^(0)|^2 = log alpha_0 - gamma."""
    alpha = st.floats(1e-3, 1e3)
    pole = st.one_of(st.just(0.0), st.complex_numbers(max_magnitude=0.99))  # white or Gauss-Markov
    paths = [GaussianTap(draw(alpha), draw(pole))]
    paths += [GaussianTap(draw(st.one_of(st.just(0.0), alpha)), draw(pole)) for _ in range(draw(st.integers(0, 4)))]
    noise_variance = math.exp(draw(st.floats(-8.0, 8.0)))
    return DirectStats.from_config(ChannelConfig(tuple(paths), noise_variance, 0.0))


# R(1) > 0 > R(29) while every tau up to 51 is admissible: the scan stops at tau = 29
MID_SCAN_STOP = (
    admissibility_edge(51) * (1.0 + 1e-9) - math.log(2.5),
    stats_for(alpha_0=0.7, alpha_total=1.9, sigma2=2.5, num_taps=3),
    1024,
)


class CountingMath:
    """The ``math`` module with a count of ``log`` calls."""

    def __init__(self):
        self.log_calls = 0

    def log(self, x):
        self.log_calls += 1
        return math.log(x)

    def __getattr__(self, name):
        return getattr(math, name)


def reference_log_block_average_power(scheme):
    from scipy.special import logsumexp

    slot_logs = [scheme.slot_law(nu).log_mean_power for nu in range(1, scheme.tau + 1)]
    return float(logsumexp(slot_logs)) - math.log(scheme.block_len)


DEMO_STATS = DirectStats.from_config(DEMO.channel)


class TestSchedule:
    def test_single_slot_at_p_ten(self):
        law = SchemeParams(1, math.log(10.0), 0).slot_law(1)
        assert law.log_min == pytest.approx(math.log(math.log(10.0)))
        assert law.log_max == pytest.approx(math.log(10.0))

    def test_ratio_identity_every_slot(self):
        scheme = SchemeParams(4, 100.0, 3)
        expected = 100.0 / 4 - math.log(100.0)
        for nu in range(1, 5):
            law = scheme.slot_law(nu)
            assert law.spread == pytest.approx(expected, rel=1e-12)
            # ratio in linear terms: exp(25) / 100 for every slot
            assert math.exp(law.spread) == pytest.approx(math.exp(25.0) / 100.0, rel=1e-9)

    def test_preceding_peak_over_floor(self):
        # max_{l < nu} x2_max[l] / x2_min[nu] is 0 for nu=1 and 1/log P after
        scheme = SchemeParams(5, 40.0, 0)
        log_p = 40.0
        for nu in range(2, 6):
            peak = max(scheme.slot_law(l).log_max for l in range(1, nu))
            assert peak - scheme.slot_law(nu).log_min == pytest.approx(-math.log(log_p), abs=1e-10)
        # nu = 1: no earlier slot carries energy, the convention is a zero peak
        assert scheme.slot_law(1).log_min == pytest.approx(math.log(log_p))

    @settings(max_examples=60, deadline=None)
    @given(
        tau=st.integers(min_value=1, max_value=64),
        log10_power=st.floats(min_value=1.0, max_value=180.0),
    )
    def test_property_schedule_ratio_and_ordering(self, tau, log10_power):
        log_p = log10_power * LOG10
        if not schedule_is_valid(log_p, tau):
            with pytest.raises(ValueError, match="schedule inversion"):
                SchemeParams(tau, log_p, 0)
            return
        scheme = SchemeParams(tau, log_p, 0)
        spread = log_p / tau - math.log(log_p)
        for nu in range(1, tau + 1):
            assert scheme.slot_law(nu).spread == pytest.approx(spread, rel=1e-9, abs=1e-12)
        peaks = [scheme.slot_law(nu).log_max for nu in range(1, tau + 1)]
        assert all(a < b for a, b in zip(peaks, peaks[1:]))

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError, match="P > 1"):
            SchemeParams(1, -0.5, 0)

    def test_inversion_error_names_inequality(self):
        with pytest.raises(ValueError, match=r"P\^\(1/tau\) <= log P"):
            SchemeParams(4, 3.0 * LOG10, 2)


def whole_scheme_block(params, n_draws, rng):
    """All k = L + tau inputs of one scheme block: L guard zeros, then slots 1..tau."""
    x = np.zeros((n_draws, params.block_len), dtype=complex)
    for nu in range(1, params.tau + 1):
        x[:, params.num_taps + nu - 1] = np.exp(sample_log_x(params.slot_law(nu), rng, n_draws))
    return x


SYMBOL_LAWS = [(0.0, math.log(100.0)), (1.9, 6.9), (-300.0, 700.0)]


class TestSampling:
    def test_guard_zeros_and_slot_support(self):
        # L = 4, tau = 3: the L+1 inputs reaching Y_7 are two guard zeros and the three slots
        scheme = SchemeParams(3, 6 * LOG10, 4)
        blocks = np.exp(_scheme_log_inputs(scheme, 200, substream(21, 0)))
        assert blocks.shape == (200, 5)
        assert np.all(blocks[:, :2] == 0.0)
        for nu in range(1, 4):
            law = scheme.slot_law(nu)
            log_mag = np.log(np.abs(blocks[:, 2 + nu - 1]) ** 2)
            assert np.all((law.log_min - 1e-9 <= log_mag) & (log_mag <= law.log_max + 1e-9))

    def test_guard_columns_exponentiate_to_exact_zeros_without_warnings(self):
        # L = 4, tau = 2: three guard columns, whose log is -inf
        scheme = SchemeParams(2, 6 * LOG10, 4)
        log_x = _scheme_log_inputs(scheme, 300, substream(26, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = np.exp(log_x)
            power = np.exp(2.0 * log_x.real)
        assert x[:, :3].tobytes() == np.zeros((300, 3), dtype=complex).tobytes()  # +0+0j, no -0 or nan
        assert power[:, :3].tobytes() == np.zeros((300, 3)).tobytes()
        assert np.all(power[:, 3:] > 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        num_taps=st.integers(0, 4),
        tau_vs_window=st.sampled_from(["below", "at", "above"]),
        n_draws=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_inputs_are_the_last_columns_of_the_whole_block(self, num_taps, tau_vs_window, n_draws, seed):
        # tau below, at or above the L+1 inputs reaching Y_k: the window then
        # holds guard zeros, exactly the slots, or drops the first slots
        tau = {"below": num_taps, "at": num_taps + 1, "above": num_taps + 3}[tau_vs_window]
        assume(tau >= 1)
        scheme = SchemeParams(tau, 60 * LOG10, num_taps)
        rng, reference = substream(seed, 0), substream(seed, 0)
        got = np.exp(_scheme_log_inputs(scheme, n_draws, rng))
        want = whole_scheme_block(scheme, n_draws, reference)[:, -(num_taps + 1) :]
        assert got.tobytes() == want.tobytes()
        assert rng.standard_normal() == reference.standard_normal()  # dropped slots are still drawn

    def test_log_magnitude_uniform_midpoint(self):
        law = LogUniformX2(0.0, math.log(50.0))
        u = sample_log_x2(law, substream(22, 0), 1_000_000)
        sem = np.std(u, ddof=1) / 1000.0
        assert abs(np.mean(u) - law.mean_log_x2) <= 3.0 * sem

    def test_symbols_drawn_into_a_column_equal_those_returned(self):
        law = LogUniformX2(0.0, 1.0)
        log_x = np.zeros((1000, 3), dtype=complex)
        column = log_x[:, 1]
        assert sample_log_x(law, substream(24, 0), 1000, out=column) is column
        assert column.tobytes() == sample_log_x(law, substream(24, 0), 1000).tobytes()
        assert not log_x[:, [0, 2]].any()

    @pytest.mark.parametrize("log_min, log_max", SYMBOL_LAWS)
    def test_symbols_are_the_exponential_of_their_exponent_bit_for_bit(self, log_min, log_max):
        law = LogUniformX2(log_min, log_max)
        reference = substream(25, 0)
        u = sample_log_x2(law, reference, 1000)
        exponent = 0.5 * u + 1j * reference.uniform(0.0, 2.0 * math.pi, size=1000)
        log_x = sample_log_x(law, substream(25, 0), 1000)
        assert log_x.tobytes() == exponent.tobytes()
        assert np.exp(log_x).tobytes() == np.exp(exponent).tobytes()
        x = np.zeros((1000, 3), dtype=complex)
        sample_log_x(law, substream(25, 0), 1000, out=x[:, 1])  # a strided column, as _scheme_log_inputs passes it
        assert np.exp(x[:, 1]).tobytes() == np.exp(exponent).tobytes()

    @pytest.mark.parametrize("log_min, log_max", SYMBOL_LAWS)
    def test_power_from_the_real_part_is_within_8_ulps_of_the_symbols(self, log_min, log_max):
        # exp(2 Re log X) is e^u itself; |exp(log X)|^2 rounds the complex exponential and its modulus
        law = LogUniformX2(log_min, log_max)
        log_x = sample_log_x(law, substream(27, 0), 200_000)
        power = np.exp(2.0 * log_x.real)
        modulus = np.abs(np.exp(log_x)) ** 2
        assert power.tobytes() == np.exp(sample_log_x2(law, substream(27, 0), 200_000)).tobytes()
        assert np.all(np.abs(power - modulus) <= 8 * np.spacing(np.maximum(power, modulus)))

    def test_phases_cover_circle(self):
        law = LogUniformX2(0.0, 1.0)
        x = np.exp(sample_log_x(law, substream(23, 0), 200_000))
        mean = np.mean(x)
        assert abs(mean) < 0.01  # circular symmetry kills the mean


class TestBlockPower:
    def test_degenerate_slot_limit(self):
        target = math.log(7.0)
        for eps in (1e-3, 1e-6, 1e-9):
            law = LogUniformX2(target - eps, target)
            assert law.log_mean_power == pytest.approx(target, abs=eps)
        assert LogUniformX2(target, target).log_mean_power == target

    def test_single_slot_closed_form(self):
        scheme = SchemeParams(1, math.log(10.0), 0)
        expected = (10.0 - math.log(10.0)) / (math.log(10.0) - math.log(math.log(10.0)))
        assert math.exp(log_block_average_power(scheme)) == pytest.approx(expected, rel=1e-12)

    def test_admissible_on_power_tau_grid(self):
        # every admissible (P, tau, L) combination obeys the power constraint
        checked = 0
        for log10_p in (1.0, 3.0, 6.0):
            for tau in (1, 4, 16):
                log_p = log10_p * LOG10
                if not schedule_is_valid(log_p, tau):
                    continue
                for num_taps in (0, 2):
                    scheme = SchemeParams(tau, log_p, num_taps)
                    assert log_block_average_power(scheme) <= log_p
                    assert log_block_average_power(scheme) == pytest.approx(
                        reference_log_block_average_power(scheme), rel=1e-15, abs=0.0
                    )
                    checked += 1
        assert checked >= 4

    def test_stable_at_astronomical_power(self):
        scheme = SchemeParams(8, 460.0, 2)
        log_power = log_block_average_power(scheme)
        assert math.isfinite(log_power)
        assert log_power <= 460.0
        assert log_power == pytest.approx(reference_log_block_average_power(scheme), rel=1e-15, abs=0.0)


class TestLemma:
    def test_noiseless_case_drops_magnitude_dependence(self):
        law = LogUniformX2(0.0, math.log(100.0))
        got = lemma_mi_lower_bound(
            mean_log_h2=-EULER_GAMMA,
            sigma_h=2.0,
            sigma_w=0.0,
            x2_law=law,
        )
        expected = law.entropy_x - law.mean_log_x2 - EULER_GAMMA - (LOG_PI_E + 2.0 * math.log(2.0))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_slot_law_entropy_identity(self):
        # h(X) - E[log|X|^2] = log log(x2_max/x2_min) + log(pi), exactly
        law = LogUniformX2(math.log(2.0), math.log(512.0))
        assert law.entropy_x - law.mean_log_x2 == pytest.approx(
            math.log(law.spread) + LOG_PI, abs=1e-10
        )

    def test_quadrature_matches_monte_carlo(self):
        law = LogUniformX2(0.0, math.log(100.0))
        sigma_h, sigma_w = 1.0, 0.7
        u = sample_log_x2(law, substream(24, 0), 400_000)
        samples = LOG_PI_E + 2.0 * np.log(sigma_h + sigma_w * np.exp(-0.5 * u))
        sem = np.std(samples, ddof=1) / math.sqrt(u.size)
        quad_term = (
            law.entropy_x
            - law.mean_log_x2
            - EULER_GAMMA
            - lemma_mi_lower_bound(
                mean_log_h2=-EULER_GAMMA,
                sigma_h=sigma_h,
                sigma_w=sigma_w,
                x2_law=law,
            )
        )
        assert abs(quad_term - np.mean(samples)) <= 3.0 * sem

    def test_quadrature_builds_each_rule_once_and_keeps_its_bits(self):
        law = LogUniformX2(0.0, math.log(100.0))
        rule = fadecap.oracle._legendre_rule
        rule.cache_clear()
        u, w = quadrature(law, 37)
        first = (u.tobytes(), w.tobytes())
        nodes, weights = rule(37)
        assert first == ((0.5 * law.spread * nodes + 0.5 * law.spread).tobytes(), (0.5 * weights).tobytes())
        u[0] = w[0] = math.nan  # the caller's arrays are its own
        again_u, again_w = quadrature(law, 37)
        assert (again_u.tobytes(), again_w.tobytes()) == first
        assert (rule.cache_info().misses, rule.cache_info().hits) == (1, 2)  # built on the first call only
        with pytest.raises(ValueError, match="read-only"):
            rule(37)[0][0] = 0.0

    @pytest.mark.parametrize("sigma_h, sigma_w", [(1.0, 1.0), (0.3, 3.0)])  # the demo channel first
    @pytest.mark.parametrize(
        "log_min, log_max",
        [(0.0, math.log(100.0))] + [(-spread / 2, spread / 2) for spread in (10.0, 50.0, 200.0, 400.0)],
    )
    def test_quadrature_matches_adaptive_reference(self, sigma_h, sigma_w, log_min, log_max):
        from scipy.integrate import quad

        def integrand(u):
            return LOG_PI_E + 2.0 * math.log(sigma_h + sigma_w * math.exp(-0.5 * u))

        law = LogUniformX2(log_min, log_max)
        integral, _ = quad(integrand, log_min, log_max, epsabs=1e-12, epsrel=1e-12, limit=200)
        lemma = lemma_mi_lower_bound(0.0, sigma_h, sigma_w, law)
        got = law.entropy_x - law.mean_log_x2 - lemma  # the averaged term alone
        assert got == pytest.approx(integral / law.spread, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("sigma_h, sigma_w", [(1.0, 1.0), (0.3, 3.0), (2.0, 0.0)])
    @pytest.mark.parametrize("log_min, log_max", [(-1500.0, -1400.0), (-1e5, -9e4)])
    def test_finite_below_exp_underflow_against_mpmath(self, sigma_h, sigma_w, log_min, log_max):
        # e^(-u/2) overflows a float once u < -1419; the bound stays finite and warning-free
        law = LogUniformX2(log_min, log_max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lemma = lemma_mi_lower_bound(0.0, sigma_h, sigma_w, law)
        got = law.entropy_x - law.mean_log_x2 - lemma  # the averaged term alone
        with mpmath.workdps(60):
            sh, sw = mpmath.mpf(sigma_h), mpmath.mpf(sigma_w)
            a, b = mpmath.mpf(log_min), mpmath.mpf(log_max)
            mean = mpmath.quad(lambda u: mpmath.log(sh + sw * mpmath.exp(-u / 2)), [a, b]) / (b - a)
            reference = float(mpmath.log(mpmath.pi * mpmath.e) + 2 * mean)
        assert got == pytest.approx(reference, rel=1e-13, abs=0.0)

    def test_nonpositive_sigma_h_rejected(self):
        law = LogUniformX2(0.0, 1.0)
        with pytest.raises(ValueError):
            lemma_mi_lower_bound(0.0, 0.0, 1.0, law)


def mp_legendre_root(n, x):
    """The root of P_n next to the float node x, and its Gauss weight, at 40 digits.

    One Newton step from x, an ulp or so from the root, leaves it within
    O(n^2 ulp^2) ~ 1e-26; P_n' is carried to the new point by its Taylor step,
    with P_n'' from Legendre's equation (1 - x^2) P'' = 2x P' - n(n+1) P.
    """
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        p_prev, p = mpmath.mpf(1), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = n * (p_prev - x * p) / (1 - x * x)
        ddp = (2 * x * dp - n * (n + 1) * p) / (1 - x * x)
        step = p / dp
        root, dp = x - step, dp - ddp * step
        return root, 2 / ((1 - root * root) * dp**2)


class TestLegendreRule:
    # The rule is mirror-symmetric bit for bit (test_symmetric_ascending_and_sums_to_two),
    # so checking its nonnegative nodes checks every node.
    @pytest.mark.parametrize(
        "n, indices, weight_tol",
        [
            (1, [0], 1e-12),
            (2, [1], 1e-12),
            (37, range(18, 37), 1e-12),
            (512, range(256, 512), 1e-12),
            (1024, [*range(512, 1016, 29), *range(1016, 1024)], 5e-12),  # a strided sample, then the outer nodes
        ],
    )
    def test_matches_40_digit_roots(self, n, indices, weight_tol):
        nodes, weights = fadecap.oracle._legendre_rule(n)
        for k in indices:
            root, weight = mp_legendre_root(n, nodes[k])
            assert float(abs(nodes[k] - root)) <= 2.0**-52, k  # within an ulp of 1
            assert float(abs(weights[k] - weight) / weight) <= weight_tol, k

    @pytest.mark.parametrize("n", [1, 2, 3, 37, 512, 1024])
    def test_symmetric_ascending_and_sums_to_two(self, n):
        nodes, weights = fadecap.oracle._legendre_rule(n)
        assert nodes.shape == weights.shape == (n,)
        assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
        assert np.all(np.diff(nodes) > 0.0) and -1.0 < nodes[0] and np.all(weights > 0.0)
        assert math.fsum(weights) == pytest.approx(2.0, rel=1e-14)

    def test_builds_in_linear_memory(self):
        rule = fadecap.oracle._legendre_rule
        rule.cache_clear()
        tracemalloc.start()
        try:
            rule(1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak  # an n x n eigenproblem would hold 8 MiB

    def test_lemma_bound_imports_no_numpy_polynomial(self):
        probe = (
            "import sys\n"
            "from fadecap.direct import LogUniformX2\nfrom fadecap.oracle import lemma_mi_lower_bound\n"
            "lemma_mi_lower_bound(0.0, 1.0, 1.0, LogUniformX2(0.0, 4.6))\n"
            "print(sorted(m for m in ('numpy', 'numpy.polynomial') if m in sys.modules))\n"
        )
        src = str(Path(fadecap.oracle.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert run.stdout.split() == ["['numpy']"]


class TestDirectStats:
    @settings(max_examples=100, deadline=None)
    @given(stats=st.one_of(config_stats(), random_stats()), log_power=st.floats(2.0, 1e12))
    @example(stats=MID_SCAN_STOP[1], log_power=MID_SCAN_STOP[0] + math.log(2.5))
    def test_asdict_round_trips_and_astuple_hashes(self, stats, log_power):
        optimize_tau(log_power - math.log(stats.sigma2), stats, 64)  # evaluating the bound leaves nothing behind
        names = fields(DirectStats)
        assert names == ("mean_log_gain_0", "alpha_0", "alpha_total", "sigma2", "num_taps")
        assert DirectStats(*(getattr(stats, name) for name in names)) == stats  # every field is an argument, in order
        assert DirectStats(**asdict(stats)) == stats
        assert hash(tuple(asdict(stats).values())) == hash(tuple(asdict(replace(stats)).values())) == hash(stats)

    def test_mean_log_gain_above_jensens_cap_rejected(self):
        # E log|H|^2 <= log E|H|^2 for every channel; with these stats the rate
        # stays positive at 0 < log P <= 1, where every tau up to tau_max is admissible
        with pytest.raises(ValueError, match=r"^mean log gain of the delay-0 path \(4\.0\) exceeds Jensen's cap"):
            DirectStats(4.0, 1.0, 1.75, 1.0, 2)
        assert DirectStats(0.0, 1.0, 1.75, 1.0, 2).mean_log_gain_0 == 0.0  # the cap itself is allowed


def reference_lower_bound(log_snr, tau, stats):
    """``lower_bound`` with Xi_P evaluated afresh on every call."""
    log_power = log_snr + math.log(stats.sigma2)
    if not 0.0 < log_power < math.inf:
        raise ValueError(DOMAIN_ERROR.format(log_power))
    return tau / (stats.num_taps + tau) * (log_log_ratio(log_power, tau) + xi_p(log_power, stats))


def outcome(bound, log_snr, tau, stats):
    """The rate's hex digits, or the message of the ValueError raised in its place."""
    try:
        return bound(log_snr, tau, stats).hex()
    except ValueError as err:
        return f"error: {err}"


def lower_bound_with_terms(log_snr, tau, stats):
    """``lower_bound`` with the point's terms passed, as ``optimize_tau`` passes them."""
    return lower_bound(log_snr, tau, stats, _power_terms(log_snr, stats))


@st.composite
def memo_channels(draw):
    # a shared sigma2 gives both instances the same log P at the same log SNR
    alpha_0 = draw(st.sampled_from([0.5, 1.0]))
    return stats_for(
        alpha_0=alpha_0,
        alpha_total=draw(st.sampled_from([1.0, 1.75, 4.0])),
        sigma2=draw(st.sampled_from([1.0, 2.5])),
        num_taps=draw(st.integers(0, 3)),
        mean_log_gain=math.log(alpha_0) - draw(st.sampled_from([EULER_GAMMA, 0.0])),
    )


EDGES = [(e, math.nextafter(e, 0.0), math.nextafter(e, math.inf)) for e in map(admissibility_edge, (3, 51))]


class TestXiPMemo:
    """log log P and Xi_P are evaluated once per point and passed to ``lower_bound``; nothing is stored."""

    @settings(max_examples=300, deadline=None)
    @given(
        stats=st.one_of(random_stats(), memo_channels()),
        log_power=st.one_of(
            st.floats(-3.0, 1e12),
            st.floats(0.0, 1.0),
            st.sampled_from([0.0, *EDGES[0], *EDGES[1]]),
        ),
        non_finite=st.sampled_from([None, math.nan, math.inf, -math.inf]),
        tau=st.integers(1, 60),
    )
    @example(stats=stats_for(sigma2=1.0), log_power=EDGES[0][1], non_finite=None, tau=3)
    @example(stats=stats_for(sigma2=1.0), log_power=EDGES[1][2], non_finite=None, tau=51)
    def test_passed_terms_give_the_bits_of_a_fresh_evaluation(self, stats, log_power, non_finite, tau):
        log_snr = log_power - math.log(stats.sigma2) if non_finite is None else non_finite
        got = outcome(lower_bound_with_terms, log_snr, tau, stats)
        assert got == outcome(lower_bound, log_snr, tau, stats)
        assert got == outcome(reference_lower_bound, log_snr, tau, stats)

    @settings(max_examples=200, deadline=None)
    @given(
        channels=st.lists(memo_channels(), min_size=2, max_size=2),
        log_snrs=st.lists(
            st.one_of(
                st.floats(-3.0, 1e12),
                st.sampled_from([0.0, -math.log(2.5), math.nan, math.inf, -math.inf]),
            ),
            min_size=1,
            max_size=4,
        ),
        calls=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 3), st.integers(1, 40)), max_size=30),
    )
    # sigma2 = 1, so log P is the log SNR itself: at the edges of tau = 3 and 51,
    # where tau is admissible 1 ulp above the edge but not 1 ulp below, and
    # log log P of a neighbouring power differs in its last bit
    @example(
        channels=[stats_for(sigma2=1.0), stats_for(alpha_0=0.5, alpha_total=4.0, sigma2=1.0, num_taps=3, mean_log_gain=math.log(0.5) - EULER_GAMMA)],
        log_snrs=list(EDGES[0]),
        calls=[(0, 0, 3), (0, 1, 3), (0, 0, 3), (0, 2, 3), (0, 1, 3), (1, 1, 2), (1, 0, 3), (1, 2, 3), (0, 0, 3)],
    )
    @example(
        channels=[stats_for(sigma2=1.0), stats_for(sigma2=1.0, num_taps=0)],
        log_snrs=list(EDGES[1]),
        calls=[(0, 1, 51), (0, 0, 51), (0, 2, 51), (0, 1, 51), (1, 2, 51), (1, 1, 50), (0, 1, 51), (1, 0, 51)],
    )
    def test_interleaved_powers_match_a_fresh_instance(self, channels, log_snrs, calls):
        for which, k, tau in calls:
            stats, log_snr = channels[which], log_snrs[k % len(log_snrs)]
            got = outcome(lower_bound, log_snr, tau, stats)
            assert got == outcome(lower_bound_with_terms, log_snr, tau, replace(stats))
            assert got == outcome(reference_lower_bound, log_snr, tau, stats)

    @pytest.mark.parametrize("log_power", [math.nan, math.inf, -math.inf, 0.0, -1.0, -1e300])
    def test_invalid_power_after_a_valid_one_raises_the_power_error(self, log_power):
        stats = stats_for(sigma2=2.5)
        valid = lower_bound(50.0, 4, stats)
        log_snr = log_power - math.log(stats.sigma2)
        with pytest.raises(ValueError) as raised:
            lower_bound(log_snr, 4, stats)
        assert str(raised.value) == DOMAIN_ERROR.format(log_snr + math.log(stats.sigma2))
        assert "\n" not in str(raised.value)
        assert lower_bound(50.0, 4, stats) == valid

    @pytest.mark.parametrize("edge_tau", [3, 8, 51])
    def test_inadmissible_tau_at_a_stored_power_raises_the_log_log_ratio_error(self, edge_tau):
        stats = stats_for(sigma2=2.5)
        log_snr = admissibility_edge(edge_tau) * (1.0 - 1e-9) - math.log(stats.sigma2)  # edge_tau - 1 is the last admissible
        log_power = log_snr + math.log(stats.sigma2)
        terms = _power_terms(log_snr, stats)
        assert lower_bound(log_snr, edge_tau - 1, stats, terms) == lower_bound(log_snr, edge_tau - 1, stats)
        for tau in (edge_tau, 4 * edge_tau):
            with pytest.raises(ValueError) as expected:
                log_log_ratio(log_power, tau)
            for passed in (None, terms):
                with pytest.raises(ValueError) as raised:
                    lower_bound(log_snr, tau, stats, passed)
                assert str(raised.value) == str(expected.value)
                assert str(raised.value).startswith("schedule inversion") and "\n" not in str(raised.value)

    def test_replace_and_copy_never_return_a_stale_xi_p(self):
        stats = stats_for(alpha_0=2.0, alpha_total=3.0, sigma2=2.5)
        log_snr = 60.0
        lower_bound(log_snr, 5, stats)
        # same log P, different Xi_P: a carried-over pair would be stale
        for changed in (
            replace(stats, alpha_total=4.0),
            replace(stats, alpha_0=1.0),
            replace(stats, mean_log_gain_0=0.25),
            replace(stats, sigma2=7.0),
        ):
            assert lower_bound(log_snr, 5, changed).hex() == reference_lower_bound(log_snr, 5, changed).hex()
        for twin in (copy.copy(stats), copy.deepcopy(stats)):
            assert twin == stats
            for value in (log_snr, 61.0, log_snr):
                assert lower_bound(value, 5, twin).hex() == reference_lower_bound(value, 5, stats).hex()
        assert lower_bound(log_snr, 5, stats).hex() == reference_lower_bound(log_snr, 5, stats).hex()

    def test_threads_sharing_one_instance_get_fresh_values(self):
        # the threads alternate between the same two powers out of step on one
        # shared instance, so any state kept between calls would be overwritten
        stats = stats_for(sigma2=2.5)
        powers = (100.0, 1e6)
        expected = {p: reference_lower_bound(p, 5, stats) for p in powers}
        wrong, finished = [], []

        def work(phase):
            for i in range(phase, phase + 20000):
                log_snr = powers[i % 2]
                if lower_bound(log_snr, 5, stats) != expected[log_snr]:
                    wrong.append(log_snr)
            finished.append(phase)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(phase,)) for phase in (0, 1, 0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(finished) == len(threads) and wrong == []

    def test_optimize_tau_evaluates_xi_p_once_per_point(self, monkeypatch):
        counts = {"xi_p": 0, "lower_bound": 0}

        def counted(name, function):
            def wrapper(*args):
                counts[name] += 1
                return function(*args)

            return wrapper

        monkeypatch.setattr(fadecap.direct, "xi_p", counted("xi_p", fadecap.direct.xi_p))
        monkeypatch.setattr(fadecap.direct, "lower_bound", counted("lower_bound", fadecap.direct.lower_bound))
        stats, tau_max = stats_for(sigma2=2.5), 64
        points = [1e4, 1e5, 1e6, 1e9, 1e5]
        for log_snr in points:
            assert schedule_is_valid(log_snr + math.log(stats.sigma2), tau_max)  # every tau is admissible
            optimize_tau(log_snr, stats, tau_max)
        assert counts == {"xi_p": len(points), "lower_bound": tau_max * len(points)}


class TestRateBound:
    def test_xi_p_increasing_in_power(self):
        stats = stats_for()
        values = [xi_p(lp, stats) for lp in (2.0, 5.0, 20.0, 100.0, 1e6)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_xi_p_big_power_substitution(self):
        stats = stats_for(alpha_0=1.0, alpha_total=1.0, sigma2=1.0, num_taps=0)
        log_p = math.exp(10.0)
        expected = -EULER_GAMMA - 1.0 - 2.0 * math.log(1.0 + math.sqrt(2.0) * math.exp(-5.0))
        assert xi_p(log_p, stats) == pytest.approx(expected, rel=1e-12)

    def test_xi_p_vanishes_against_loglog(self):
        stats = stats_for()
        for log_snr in (1e3, 1e6, 1e9):
            log_p = log_snr  # sigma2 = 1
            assert abs(xi_p(log_p, stats)) / math.log(log_snr) < 0.3
        assert abs(xi_p(1e9, stats)) / math.log(1e9) < 0.08

    def test_per_symbol_bound_slot_independent(self):
        # the slot-uniform bound depends on (P, tau) alone: it is slot 1's sharp
        # bound, whose residual noise sigma^2 / log P every later slot improves on
        stats = stats_for()
        log_p = 30 * LOG10
        for tau in (1, 6, 12):
            uniform = log_log_ratio(log_p, tau) + xi_p(log_p, stats)
            first = sharp_slot_bound(1, SchemeParams(tau, log_p, stats.num_taps), stats)
            assert uniform == pytest.approx(first, rel=1e-14)

    def test_sharp_bound_dominates_uniform_bound(self):
        scheme = SchemeParams(6, 30 * LOG10, 2)
        stats = stats_for()
        uniform = log_log_ratio(scheme.log_power, scheme.tau) + xi_p(scheme.log_power, stats)
        for nu in range(1, 7):
            assert sharp_slot_bound(nu, scheme, stats) >= uniform - 1e-12

    def test_subtracted_term_limit(self):
        # as P grows the subtracted log tends to log(alpha_0)
        stats = stats_for(alpha_0=4.0, alpha_total=4.0)
        limit = stats.mean_log_gain_0 - 1.0 - math.log(4.0)
        assert xi_p(1e12, stats) == pytest.approx(limit, abs=1e-5)

    def test_flat_fading_single_slot_weight_is_one(self):
        stats = stats_for(alpha_0=1.0, alpha_total=1.0, num_taps=0)
        log_snr = 20 * LOG10
        expected = log_log_ratio(log_snr, 1) + xi_p(log_snr, stats)
        assert lower_bound(log_snr, 1, stats) == pytest.approx(expected, rel=1e-14)

    def test_consistency_with_per_symbol_form(self):
        stats = stats_for()
        log_snr = 40 * LOG10
        tau = 5
        scheme = SchemeParams(tau, log_snr, stats.num_taps)  # sigma2 = 1 so log P = log SNR
        per_symbol = log_log_ratio(scheme.log_power, tau) + xi_p(scheme.log_power, stats)
        expected = tau / (stats.num_taps + tau) * per_symbol
        assert lower_bound(log_snr, tau, stats) == pytest.approx(expected, rel=1e-14)

    def test_invalid_schedule_raises(self):
        stats = stats_for()
        with pytest.raises(ValueError, match="schedule inversion"):
            lower_bound(3 * LOG10, 4, stats)
        with pytest.raises(ValueError, match="P > 1"):
            lower_bound(-1.0, 1, stats)

    # Hand-made terms put the log's argument log P / tau - log log P at and
    # below zero; math.log rejects each, and lower_bound raises the one
    # schedule-inversion line in its place, without math's error as context.
    @pytest.mark.parametrize(
        "log_power, log_log_power, argument",
        [
            (2.0, 2.0, 0.0),
            (-0.0, 0.0, -0.0),
            (0.0, 5e-324, -5e-324),  # the negative float nearest zero
            (1.0, math.inf, -math.inf),
        ],
    )
    def test_log_argument_at_or_below_zero_raises_the_inversion_line(self, log_power, log_log_power, argument):
        assert (log_power / 1 - log_log_power).hex() == argument.hex()
        with pytest.raises(ValueError) as raised:
            lower_bound(50.0, 1, stats_for(), (log_power, log_log_power, -1.0))
        message = str(raised.value)
        assert message == INVERSION_ERROR.format(1, log_power, log_log_power)
        assert "math domain error" not in message and "\n" not in message
        assert raised.value.__suppress_context__ and raised.value.__cause__ is None

    @pytest.mark.parametrize(
        "terms", [(math.nan, 1.0, -1.0), (50.0, math.nan, -1.0), (50.0, 1.0, math.nan), (math.inf, math.inf, -1.0)]
    )
    def test_nan_terms_give_a_nan_rate(self, terms):
        assert math.isnan(lower_bound(50.0, 4, stats_for(), terms))

    # tau = 3 just below its admissibility edge, where log P / 3 - log log P
    # rounds to +0.0 and, two ulps of log P lower, to -2^-52
    @pytest.mark.parametrize(
        "log_power_hex, argument", [("0x1.22546ffee43c2p+2", 0.0), ("0x1.22546ffee43c0p+2", -(2.0**-52))]
    )
    def test_inadmissible_edge_raises_one_message_from_each_entry(self, log_power_hex, argument):
        log_power, stats = float.fromhex(log_power_hex), stats_for(sigma2=1.0)  # log SNR = log P
        assert (log_power / 3 - math.log(log_power)).hex() == argument.hex()
        assert not schedule_is_valid(log_power, 3)
        expected = INVERSION_ERROR.format(3, log_power / 3, math.log(log_power))
        for call in (
            lambda: log_log_ratio(log_power, 3),
            lambda: lower_bound(log_power, 3, stats),
            lambda: lower_bound(log_power, 3, stats, _power_terms(log_power, stats)),
            lambda: SchemeParams(3, log_power, 2),
        ):
            with pytest.raises(ValueError) as raised:
                call()
            assert str(raised.value) == expected
            assert raised.value.__suppress_context__ and raised.value.__cause__ is None

    # a block length below 1: at tau = 0 each entry divided by zero, and at
    # tau = -1 each reported a schedule inversion
    @pytest.mark.parametrize("tau", [0, -1])
    def test_block_length_below_one_raises_one_message_from_each_entry(self, tau):
        log_power, stats = 100.0, stats_for(sigma2=1.0)  # log SNR = log P
        assert not schedule_is_valid(log_power, tau)
        for call in (
            lambda: log_log_ratio(log_power, tau),
            lambda: lower_bound(log_power, tau, stats),
            lambda: lower_bound(log_power, tau, stats, _power_terms(log_power, stats)),
            lambda: SchemeParams(tau, log_power, 2),
        ):
            with pytest.raises(ValueError) as raised:
                call()
            assert str(raised.value) == f"tau must be >= 1, got {tau}"
            assert raised.value.__suppress_context__ and raised.value.__cause__ is None

    # below log P = 1 a negative tau makes log P / tau - log log P positive, so
    # the schedule's own inequality does not reject it
    @pytest.mark.parametrize("tau", [-1, -3])
    def test_negative_block_length_is_no_schedule_below_log_power_one(self, tau):
        log_power = 0.3
        assert log_power / tau - math.log(log_power) > 0.0
        assert not schedule_is_valid(log_power, tau)
        for call in (lambda: log_log_ratio(log_power, tau), lambda: SchemeParams(tau, log_power, 2)):
            with pytest.raises(ValueError, match=f"^tau must be >= 1, got {tau}$"):
                call()

    @pytest.mark.parametrize("log_snr", [math.nan, math.inf])
    def test_non_finite_log_snr_raises(self, log_snr):
        with pytest.raises(ValueError, match="finite log P") as raised:
            lower_bound(log_snr, 4, stats_for())
        assert "\n" not in str(raised.value)


class TestSchemeDomain:
    """The scheme's domain 0 < log P < inf is one check with one message, whichever function meets it."""

    @staticmethod
    def entry_points(log_power):
        """Each public function that takes a power, called at ``log_power``, with the log P it sees."""
        stats = stats_for(sigma2=1.0)  # log SNR + log sigma^2 = log SNR, except that -0.0 + 0.0 is 0.0
        seen_from_snr = log_power + math.log(stats.sigma2)
        return {
            "SchemeParams": (lambda: SchemeParams(1, log_power, 2), log_power),
            "log_log_ratio": (lambda: log_log_ratio(log_power, 1), log_power),
            "xi_p": (lambda: xi_p(log_power, stats), log_power),
            "lower_bound": (lambda: lower_bound(log_power, 1, stats), seen_from_snr),
            "optimize_tau": (lambda: optimize_tau(log_power, stats, 8), seen_from_snr),
        }

    @pytest.mark.parametrize("log_power", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1e-300, -1.0, -1e300])
    def test_outside_the_domain_each_raises_the_one_message(self, log_power):
        for name, (call, seen) in self.entry_points(log_power).items():
            with pytest.raises(ValueError) as raised:
                call()
            assert str(raised.value) == DOMAIN_ERROR.format(seen), name

    @pytest.mark.parametrize("log_power", [5e-324, 1.0, 1e308])
    def test_inside_the_domain_none_raises(self, log_power):
        for call, _ in self.entry_points(log_power).values():
            call()  # SchemeParams(1, log P, 2) among them constructs


class TestOptimizeTau:
    def test_tau_max_one(self):
        stats = stats_for()
        tau, value = optimize_tau(30 * LOG10, stats, 1)
        assert tau == 1
        assert value == pytest.approx(lower_bound(30 * LOG10, 1, stats), rel=1e-14)

    def test_argmax_against_exhaustive_rescan(self):
        stats = stats_for()
        log_snr = 120 * LOG10
        tau_star, best = optimize_tau(log_snr, stats, 64)
        candidates = {
            tau: lower_bound(log_snr, tau, stats)
            for tau in range(1, 65)
            if schedule_is_valid(log_snr, tau)
        }
        assert best == max(candidates.values())
        assert tau_star == min(t for t, v in candidates.items() if v == max(candidates.values()))

    def test_tau_star_grows_then_saturates_with_budget(self):
        stats = stats_for()
        log_snr = 1e6  # huge power, optimum deep in the tau grid
        taus = [optimize_tau(log_snr, stats, tau_max)[0] for tau_max in (1, 4, 16, 64, 256)]
        assert all(b >= a for a, b in zip(taus, taus[1:]))
        assert taus[0] == 1 and taus[-1] > 16

    def test_no_admissible_tau_raises(self):
        stats = stats_for()
        with pytest.raises(ValueError, match="requires P > 1"):
            optimize_tau(-0.1, stats, 8)  # P <= 1: no slot schedule exists

    @pytest.mark.parametrize("log_snr", [math.inf, -math.inf, math.nan])
    def test_non_finite_log_snr_raises_lower_bound_message(self, log_snr):
        stats = stats_for(sigma2=2.0)
        with pytest.raises(ValueError) as expected:
            lower_bound(log_snr, 1, stats)
        with pytest.raises(ValueError, match="finite log P") as raised:
            optimize_tau(log_snr, stats, 8)
        assert str(raised.value) == str(expected.value)
        assert "\n" not in str(raised.value)

    @pytest.mark.parametrize("tau_max", [1, 2, 3, 7, 50, 1024, 10**12])
    @pytest.mark.parametrize("edge_tau", [3, 4, 8, 51, 1025])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_bit_for_bit_at_admissibility_edges(self, tau_max, edge_tau, side):
        # just below the edge of edge_tau the last admissible tau is edge_tau - 1
        # (interior, or tau_max when tau_max is smaller); just above it is at least edge_tau
        stats = stats_for(alpha_0=0.7, alpha_total=1.9, sigma2=2.5, num_taps=3)
        log_power = admissibility_edge(edge_tau) * (1.0 + side * 1e-9)
        log_snr = log_power - math.log(stats.sigma2)
        last = max(t for t in range(1, min(tau_max, 4 * edge_tau) + 1) if schedule_is_valid(log_power, t))
        if side < 0:
            assert last == min(tau_max, edge_tau - 1)
        else:
            assert last >= min(tau_max, edge_tau)
        tau, rate = optimize_tau(log_snr, stats, tau_max)
        ref_tau, ref_rate = reference_search(log_snr, stats, tau_max)
        assert (tau, rate.hex()) == (ref_tau, ref_rate.hex())

    def test_log_calls_per_point_stay_near_one_per_candidate(self, monkeypatch):
        # log log P is taken once per point, so each candidate tau costs one log
        stats, tau_max = stats_for(sigma2=2.5), 64
        points = [1e4, 1e6, 1e9]
        for log_snr in points:
            assert schedule_is_valid(log_snr + math.log(stats.sigma2), tau_max)
            assert lower_bound(log_snr, tau_max, stats) > 0.0  # so the scan runs to tau_max
        counting = CountingMath()
        monkeypatch.setattr(fadecap.direct, "math", counting)
        for log_snr in points:
            counting.log_calls = 0
            optimize_tau(log_snr, stats, tau_max)
            assert counting.log_calls < tau_max + 2 * math.ceil(math.log2(tau_max)) + 4

    def test_stops_at_the_first_negative_rate(self, monkeypatch):
        log_snr, stats, tau_max = MID_SCAN_STOP
        log_power = log_snr + math.log(stats.sigma2)
        rates = [lower_bound(log_snr, tau, stats) for tau in range(1, 52)]
        first_negative = next(tau for tau, rate in enumerate(rates, 1) if rate < 0.0)
        assert rates[0] > 0.0 and first_negative < 51
        assert schedule_is_valid(log_power, 51) and not schedule_is_valid(log_power, 52)
        calls = []
        original = fadecap.direct.lower_bound
        monkeypatch.setattr(fadecap.direct, "lower_bound", lambda *args: calls.append(args[1]) or original(*args))
        tau, rate = optimize_tau(log_snr, stats, tau_max)
        assert calls == list(range(1, first_negative + 1))
        ref_tau, ref_rate = reference_search(log_snr, stats, tau_max)
        assert (tau, rate.hex()) == (ref_tau, ref_rate.hex())

    @settings(max_examples=300, deadline=None)
    @given(
        stats=config_stats(),
        log_power=st.floats(0.0, 1.0, exclude_min=True),
        gap=st.one_of(st.just(EULER_GAMMA), st.floats(0.0, EULER_GAMMA)),
    )
    def test_config_channels_at_log_p_at_most_one_return_tau_one(self, stats, log_power, gap):
        # every tau is admissible at 0 < log P <= 1, and R(1) < 0 there when
        # E log|H^(0)|^2 = log alpha_0 - gap: gap = gamma from a config, 0 at Jensen's cap
        stats = replace(stats, mean_log_gain_0=math.log(stats.alpha_0) - gap)
        log_snr = log_power - math.log(stats.sigma2)
        assume(0.0 < log_snr + math.log(stats.sigma2) <= 1.0)
        tau, rate = optimize_tau(log_snr, stats, 10**12)
        assert (tau, rate.hex()) == (1, lower_bound(log_snr, 1, stats).hex())
        assert rate < 0.0

    @settings(max_examples=300, deadline=None)
    @given(case=search_cases())
    @example(case=MID_SCAN_STOP)
    def test_property_bit_for_bit_against_plain_scan(self, case):
        log_snr, stats, tau_max = case
        expected = reference_search(log_snr, stats, tau_max)
        if expected is None:
            with pytest.raises(ValueError, match="requires P > 1"):
                optimize_tau(log_snr, stats, tau_max)
            return
        tau, rate = optimize_tau(log_snr, stats, tau_max)
        assert (tau, rate.hex()) == (expected[0], expected[1].hex())


class TestSearchedOptimum:
    """R* = max over every admissible tau of the rate, found without a cap on tau.

    The paper's pre-loglog is 1 for every L; ``optimize_tau``'s scan of
    tau <= tau_max can only show tau_max / (L + tau_max) (criterion 2a).
    """

    @settings(max_examples=300, deadline=None)
    @given(case=search_cases())
    @example(case=MID_SCAN_STOP)
    @example(case=(1e300, DEMO_STATS, 2048))
    def test_property_bit_for_bit_against_plain_scan(self, case):
        expected, got = reference_search(*case), searched_optimum(*case)
        if expected is None:
            assert got is None
        else:
            assert (got[0], got[1].hex()) == (expected[0], expected[1].hex())

    def test_demo_optimum_at_1e300_nats(self):
        assert searched_optimum(1e300, DEMO_STATS, 10**12) == (1362, 680.9816297220475)
        assert optimize_tau(1e300, DEMO_STATS, 2048) == (1362, 680.9816297220475)

    @pytest.mark.parametrize("num_taps", [0, 1, 2, 8])
    def test_slope_of_the_optimum_approaches_one(self, num_taps):
        # criterion 1's windows, out to 1e290 nats, where tau* reaches 5253 at L = 8
        stats = stats_for(alpha_0=1.0, alpha_total=1.0 + num_taps / 2, sigma2=1.0, num_taps=num_taps)
        windows = slope_windows(DEMO.grid)
        slopes = window_slopes(windows, lambda log_snr: searched_optimum(log_snr, stats, 10**12)[1])
        approach = LimitApproach.of(windows, slopes, 1.0, lambda slope: True)
        assert approach.gap_rise <= GAP_NOISE, approach.detail
        if num_taps == 8:  # past the limit of the tau <= 1024 scan
            assert slopes[-1] > 1024 / 1032, approach.detail

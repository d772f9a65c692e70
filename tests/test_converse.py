"""Upper-bound machinery: closed-form identities, Jensen cap, stability."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from fadecap.config import BoundParams, ChannelConfig
from fadecap.converse import (
    ConverseStats,
    _lgam,
    jensen_cap,
    log1p_alpha_snr,
    optimize_xi,
    psi,
    upper_bound,
    upsilon,
    xi_default,
)
from fadecap.fading import Ar1Gaussian, IidGaussian, ZeroPath, stats_of

LOG10 = math.log(10.0)
LOG_PI = math.log(math.pi)
LOG_PI_E = LOG_PI + 1.0
TWO_OVER_E = 2.0 / math.e


def demo_channel(log_power=3 * LOG10, noise_variance=1.0):
    return ChannelConfig(
        path_specs=(
            Ar1Gaussian(1.0, 0.5),
            Ar1Gaussian(0.5, 0.5),
            Ar1Gaussian(0.25, 0.5),
        ),
        noise_variance=noise_variance,
        log_power=log_power,
    )


DEMO_STATS = ConverseStats.from_config(demo_channel())


class TestStats:
    def test_inf_gap_over_active_set_only(self):
        config = ChannelConfig(
            path_specs=(IidGaussian(1.0), ZeroPath(), IidGaussian(0.25)),
            noise_variance=1.0,
            log_power=0.0,
        )
        stats = ConverseStats.from_config(config)
        gaps = [
            stats_of(IidGaussian(1.0)).entropy_rate - 1.0,
            stats_of(IidGaussian(0.25)).entropy_rate - 0.25,
        ]
        assert stats.inf_gap == pytest.approx(min(gaps), rel=1e-14)
        assert stats.alpha_total == pytest.approx(1.25)

    def test_demo_values(self):
        assert DEMO_STATS.alpha_total == pytest.approx(1.75)
        # the weakest tap is the smallest-variance one here
        weakest = stats_of(Ar1Gaussian(0.25, 0.5))
        assert DEMO_STATS.inf_gap == pytest.approx(weakest.entropy_rate - 0.25, rel=1e-14)


class TestXiDefault:
    def test_inner_log_equal_one(self):
        # alpha_total * SNR = e - 1 makes the inner log equal 1
        log_snr = math.log((math.e - 1.0) / 1.75)
        assert xi_default(log_snr, 1.75) == pytest.approx(0.5, rel=1e-12)

    def test_unit_snr_unit_gain(self):
        assert xi_default(0.0, 1.0) == pytest.approx(1.0 / (1.0 + math.log(2.0)), rel=1e-14)

    def test_extreme_snr_stays_stable(self):
        xi = xi_default(500.0, 1.0)
        assert xi == pytest.approx(1.0 / 501.0, rel=1e-12)
        assert math.isfinite(xi_default(1e300, 1.0))

    def test_matches_naive_at_moderate_snr(self):
        log_snr = 5.0
        naive = 1.0 / (1.0 + math.log(1.0 + 1.75 * math.exp(log_snr)))
        assert xi_default(log_snr, 1.75) == pytest.approx(naive, rel=1e-13)

    def test_nonpositive_gain_rejected(self):
        with pytest.raises(ValueError):
            xi_default(1.0, 0.0)


def _assert_same_bits(xs):
    xs = np.asarray(xs, dtype=float)
    ours = np.array([_lgam(float(x)) for x in xs])
    differ = np.flatnonzero(ours.view(np.int64) != gammaln(xs).view(np.int64))
    assert differ.size == 0, [(xs[i], ours[i], gammaln(xs[i])) for i in differ[:5]]


class TestLgam:
    """``_lgam`` returns scipy's ``gammaln`` bit for bit, so pinned outputs hold."""

    def test_xi_of_demo_and_search_grids(self):
        demo = np.linspace(20.0, 200.0, 19) * LOG10
        search = np.linspace(1e6 / LOG10, 1e9 / LOG10, 2000) * LOG10
        _assert_same_bits([xi_default(float(s), DEMO_STATS.alpha_total) for s in np.concatenate([demo, search])])

    def test_seeded_uniform_and_log_uniform(self):
        rng = np.random.default_rng(20260809)
        _assert_same_bits(rng.uniform(0.0, 1.0, 100_000))
        _assert_same_bits(np.exp(rng.uniform(math.log(5e-324), 0.0, 100_000)))

    def test_branch_edges_and_their_neighbours(self):
        # at and below 2**-52, x + 2.0 rounds to 2.0 and the rational is skipped
        tiny = 2.0**-52
        _assert_same_bits(
            [math.nextafter(1.0, 0.0), 1.0, math.nextafter(tiny, 0.0), tiny, math.nextafter(tiny, 1.0), 5e-324]
        )


class TestLog1pAlphaSnr:
    @settings(max_examples=300, deadline=None)
    @given(
        log_snr=st.floats(min_value=-700.0, max_value=1e300),
        alpha_total=st.sampled_from([1e-300, 1e-6, 0.25, 1.0, 1.75, 37.0, 1e6, 1e300]),
    )
    @example(log_snr=0.0, alpha_total=1.0)  # x == 0, the ufunc's separate branch
    @example(log_snr=-math.log(1.75), alpha_total=1.75)  # x == 0 again
    @example(log_snr=36.0, alpha_total=1.0)  # exp(-x) near the float epsilon
    @example(log_snr=-700.0, alpha_total=1e-300)  # exp(x) subnormal
    def test_bit_identical_to_numpy_logaddexp(self, log_snr, alpha_total):
        reference = float(np.logaddexp(0.0, math.log(alpha_total) + log_snr))
        assert log1p_alpha_snr(log_snr, alpha_total) == reference


class TestPsi:
    def test_unit_delta_half_eta_zero_gap(self):
        params = BoundParams(delta=1.0, eta=0.5)
        assert psi(params, 0.0) == pytest.approx(4.0 * (TWO_OVER_E + LOG_PI_E), rel=1e-14)

    def test_full_substitution(self):
        params = BoundParams(delta=0.5, eta=0.5, eps_const=0.1)
        expected = math.log(4.0) + 0.2 + 4.0 * (TWO_OVER_E + LOG_PI_E) - 4.0
        assert psi(params, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_decreasing_in_eta_when_gap_below_constant(self):
        inf_gap = 0.1  # below 2/e + log(pi e)
        values = [psi(BoundParams(eta=eta), inf_gap) for eta in (0.2, 0.4, 0.6, 0.8)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BoundParams(delta=0.0)
        with pytest.raises(ValueError):
            BoundParams(delta=1.5)
        with pytest.raises(ValueError):
            BoundParams(eta=1.0)
        with pytest.raises(ValueError):
            BoundParams(eps_const=-1.0)
        with pytest.raises(ValueError):
            BoundParams(xi=0.0)


class TestXiDomain:
    @pytest.mark.parametrize("xi", [math.nextafter(1.0, 2.0), 2.0, 13.0, 1e300, math.nan, math.inf, -math.inf])
    def test_outside_zero_one_raises_the_one_line(self, xi):
        with pytest.raises(ValueError, match=r"^xi must lie in \(0, 1\], got ") as raised:
            BoundParams(xi=xi)
        assert "\n" not in str(raised.value)

    @pytest.mark.parametrize("xi", [1.0, 0.5, 5e-324])
    def test_inside_zero_one_constructs(self, xi):
        assert BoundParams(xi=xi).xi == xi

    @pytest.mark.parametrize("inf_gap", [LOG_PI_E - 1.0, 0.0, -5.0, -50.0, LOG_PI_E])
    def test_no_xi_above_one_beats_xi_one(self, inf_gap):
        # README, "Config schema": U rises on xi >= 1, and its slope at xi = 1, B - 1 - gamma with
        # B = 1 + log(1 + A SNR) + Psi, is at least 2(1 + 2/e) - gamma = 2.894 for every Gaussian
        # tap (g <= log(pi e) - 1) and 2(2/e) - gamma = 0.894 for g <= log(pi e); evaluated with
        # math.lgamma, which shares no code with _lgam
        floor = 2.89 if inf_gap <= LOG_PI_E - 1.0 else 0.89
        xis = [1.0, 1.0 + 1e-9, 1.0 + 1e-6, 1.5, 2.0, 13.0, 1e3, 1e8]
        for alpha_total in (1e-300, 1e-6, 1.0, 1e6, 1e300):
            for eta in (1e-6, 0.5, 1.0 - 2.0**-53):
                for log_snr in (-700.0, 1.0 + 1e-7, 46.0, 1e6, 1e300):
                    bracket = 1.0 + log1p_alpha_snr(log_snr, alpha_total) + psi(BoundParams(eta=eta), inf_gap)
                    values = [
                        -inf_gap + xi * bracket + math.lgamma(xi) - xi * math.log(xi) + LOG_PI for xi in xis
                    ]
                    assert all(b > a for a, b in zip(values, values[1:])), (alpha_total, eta, log_snr)
                    assert values[2] - values[0] >= 1e-6 * floor, (alpha_total, eta, log_snr)


class TestUpperBound:
    def test_xi_override_one_drops_gamma_terms(self):
        params = BoundParams(xi=1.0)
        log_snr = 10.0
        expected = (
            -DEMO_STATS.inf_gap
            + (1.0 + log1p_alpha_snr(log_snr, DEMO_STATS.alpha_total) + psi(params, DEMO_STATS.inf_gap))
            + LOG_PI
        )
        assert upper_bound(log_snr, DEMO_STATS, params) == pytest.approx(expected, rel=1e-14)

    def test_default_xi_collapses_bracket(self):
        params = BoundParams()
        log_snr = 50.0
        xi = xi_default(log_snr, DEMO_STATS.alpha_total)
        expected = (
            1.0
            + xi * psi(params, DEMO_STATS.inf_gap)
            + float(gammaln(xi))
            - xi * math.log(xi)
            + LOG_PI
            - DEMO_STATS.inf_gap
        )
        assert upper_bound(log_snr, DEMO_STATS, params) == pytest.approx(expected, rel=1e-14)

    def test_limit_after_removing_loglog_term(self):
        # bound - log(1 + log(1 + alpha_total SNR)) -> 1 + log(pi) - inf_gap
        params = BoundParams()
        target = 1.0 + LOG_PI - DEMO_STATS.inf_gap
        residuals = []
        for log_snr in np.logspace(6, 14, 5):
            value = upper_bound(log_snr, DEMO_STATS, params)
            residuals.append(value - math.log(1.0 + log1p_alpha_snr(log_snr, DEMO_STATS.alpha_total)))
        gaps = np.abs(np.array(residuals) - target)
        assert np.all(np.diff(gaps) < 0)  # monotone approach along a geometric grid
        assert gaps[-1] < 1e-6

    def test_invariant_under_joint_power_noise_rescaling(self):
        params = BoundParams()
        base = demo_channel(log_power=5 * LOG10, noise_variance=1.0)
        scaled = demo_channel(log_power=5 * LOG10 + math.log(37.0), noise_variance=37.0)
        from fadecap.config import snr_of

        assert upper_bound(snr_of(base), ConverseStats.from_config(base), params) == pytest.approx(
            upper_bound(snr_of(scaled), ConverseStats.from_config(scaled), params), rel=1e-12
        )

    @pytest.mark.parametrize("log_snr", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("xi", [None, 0.5])
    def test_non_finite_log_snr_rejected_whatever_xi(self, log_snr, xi):
        with pytest.raises(ValueError, match="log_snr must be finite") as raised:
            upper_bound(log_snr, DEMO_STATS, BoundParams(xi=xi))
        assert "\n" not in str(raised.value)

    def test_nondecreasing_on_demo_grid(self):
        params = BoundParams()
        grid = np.linspace(20.0, 200.0, 19) * LOG10
        values = [upper_bound(s, DEMO_STATS, params) for s in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestUpsilonAndJensen:
    def test_zero_powers_closed_form(self):
        config = demo_channel()
        params = BoundParams()
        stats = ConverseStats.from_config(config)
        denom = 1.0 + log1p_alpha_snr(3 * LOG10, stats.alpha_total)
        expected = (1.0 + psi(params, stats.inf_gap)) / denom - stats.inf_gap + LOG_PI
        assert upsilon(config, np.zeros(16), params) == pytest.approx(expected, rel=1e-14)

    def test_constant_full_power_below_cap(self):
        config = demo_channel()
        params = BoundParams()
        stats = ConverseStats.from_config(config)
        powers = np.full(64, math.exp(config.log_power))
        assert upsilon(config, powers, params) <= jensen_cap(stats, params)

    def test_cap_value(self):
        params = BoundParams()
        stats = ConverseStats.from_config(demo_channel())
        assert jensen_cap(stats, params) == pytest.approx(
            1.0 + psi(params, stats.inf_gap) - stats.inf_gap + LOG_PI, rel=1e-14
        )

    def test_cap_ignores_allocation_length(self):
        # the cap depends on neither n nor the allocation, by construction
        params = BoundParams()
        stats = ConverseStats.from_config(demo_channel())
        assert jensen_cap(stats, params) == jensen_cap(stats, params)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=64),
        log10_power=st.sampled_from([2.0, 10.0, 20.0]),
        fill=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_property_upsilon_never_exceeds_cap(self, seed, n, log10_power, fill):
        # any admissible allocation (time-average power <= P), exact arithmetic
        config = demo_channel(log_power=log10_power * LOG10)
        params = BoundParams()
        stats = ConverseStats.from_config(config)
        rng = np.random.default_rng(seed)
        raw = rng.random(n) + 1e-12
        powers = raw / raw.mean() * math.exp(config.log_power) * fill
        assert upsilon(config, powers, params, stats) <= jensen_cap(stats, params)

    def test_negative_powers_rejected(self):
        with pytest.raises(ValueError):
            upsilon(demo_channel(), [-1.0, 2.0], BoundParams())


class TestOptimizeXi:
    def test_never_worse_than_default_choice(self):
        params = BoundParams()
        for log_snr in (2.0, 20.0, 200.0):
            xi_star, best = optimize_xi(log_snr, DEMO_STATS, params)
            assert 0.0 < xi_star <= 1.0
            assert best <= upper_bound(log_snr, DEMO_STATS, params) + 1e-12

    @pytest.mark.parametrize("inf_gap", [-20.0, 0.0, 2.5, 2.9, 3.0, 3.2, 10.0])
    def test_minimum_over_a_grid_of_xi_including_a_falling_bound(self, inf_gap):
        # at SNR 1 the bracket B = 1 + log 2 + Psi is 13.215 - 4 g: at g = 2.9 it is just above
        # 1 + gamma, and from g = 2.91 on below it, where the bound falls on all of (0, 1]
        stats, params = ConverseStats(inf_gap=inf_gap, alpha_total=1.0), BoundParams()
        xi_star, best = optimize_xi(0.0, stats, params)
        grid = [upper_bound(0.0, stats, BoundParams(xi=k / 2000)) for k in range(1, 2001)]
        assert 0.0 < xi_star <= 1.0
        assert best <= min(grid) + 1e-15 * abs(best)
        assert (xi_star == 1.0) == (inf_gap >= 3.0)

    def test_override_reproduces_search_value(self):
        log_snr = 30.0
        xi_star, best = optimize_xi(log_snr, DEMO_STATS, BoundParams())
        direct_eval = upper_bound(log_snr, DEMO_STATS, BoundParams(xi=xi_star))
        assert direct_eval == pytest.approx(best, rel=1e-12)

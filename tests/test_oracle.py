"""Monte Carlo oracles: correctness, determinism, sharding and chunked merges."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import fadecap.oracle
from fadecap.channel import complex_normal, output_at, substream
from fadecap.config import ChannelConfig
from fadecap.direct import LogUniformX2, SchemeParams
from fadecap.fading import GaussianTap, stats_of
from fadecap.oracle import (
    _CHUNK,
    _SHARDS,
    _TILE,
    CheckReport,
    McEstimate,
    _Accumulator,
    _block_powers,
    _log_abs2,
    _log_mixture_density,
    _scheme_log_inputs,
    mc_block_power,
    mc_log_gain,
    mi_scalar_gaussian,
    quadrature,
    sample_log_x2,
    verify_log_moment_bounds,
)
from fadecap.record import replace

LOG10 = math.log(10.0)
LAW_1_100 = LogUniformX2(0.0, math.log(100.0))


def law_1_100_mixture(h_variance, w_variance):
    """log_c and s_nodes of the 512-node output mixture for LAW_1_100, as mi_scalar_gaussian builds them."""
    u, weights = quadrature(LAW_1_100, 512)
    s_nodes = h_variance * np.exp(u) + w_variance
    return np.log(weights) - math.log(math.pi) - np.log(s_nodes), s_nodes


def demo_channel(log_power):
    return ChannelConfig(
        path_specs=(
            GaussianTap(1.0, 0.5),
            GaussianTap(0.5, 0.5),
            GaussianTap(0.25, 0.5),
        ),
        noise_variance=1.0,
        log_power=log_power,
    )


class TestMcLogGain:
    @pytest.mark.parametrize(
        "spec",
        [GaussianTap(1.0), GaussianTap(math.e), GaussianTap(1.0, 0.9)],
    )
    def test_matches_closed_form(self, spec):
        est = mc_log_gain(spec, 200_000, seed=101)
        assert abs(est.value - stats_of(spec).mean_log_gain) <= 3.0 * est.std_error

    def test_zero_path_rejected(self):
        with pytest.raises(ValueError):
            mc_log_gain(GaussianTap(0.0), 100, seed=0)

    @pytest.mark.parametrize("size", [1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
    def test_log_gains_are_those_of_the_complex_draws_bit_for_bit(self, size):
        rng, reference = substream(3, 1), substream(3, 1)
        got = _log_abs2(rng, size, math.e)
        want = np.abs(complex_normal(reference, size, math.e))
        np.square(want, out=want)
        np.log(want, out=want)
        assert got.tobytes() == want.tobytes()
        assert rng.standard_normal() == reference.standard_normal()

    def test_deterministic_given_seed(self):
        a = mc_log_gain(GaussianTap(1.0), 10_000, seed=5)
        b = mc_log_gain(GaussianTap(1.0), 10_000, seed=5)
        assert a == b


class TestMiScalarGaussian:
    def test_degenerate_magnitude_carries_no_information(self):
        law = LogUniformX2(math.log(4.0), math.log(4.0))
        est = mi_scalar_gaussian(1.0, 1.0, law, n_outer=50_000, seed=7)
        assert abs(est.value) <= 3.0 * est.std_error

    def test_noise_swamps_the_signal(self):
        est = mi_scalar_gaussian(1.0, 1e6, LAW_1_100, n_outer=50_000, seed=8)
        assert abs(est.value) <= 3.0 * est.std_error + 1e-3

    def test_nonnegative_within_tolerance(self):
        for seed, w2 in ((9, 0.01), (10, 1.0), (11, 100.0)):
            est = mi_scalar_gaussian(2.0, w2, LAW_1_100, n_outer=30_000, seed=seed)
            assert est.value >= -3.0 * est.std_error

    def test_more_noise_never_helps(self):
        # data-processing direction: larger noise variance, no larger MI
        quiet = mi_scalar_gaussian(1.0, 0.5, LAW_1_100, n_outer=60_000, seed=12)
        loud = mi_scalar_gaussian(1.0, 4.0, LAW_1_100, n_outer=60_000, seed=13)
        assert loud.value <= quiet.value + 3.0 * math.hypot(quiet.std_error, loud.std_error)

    def test_deterministic_given_seed(self):
        a = mi_scalar_gaussian(1.0, 1.0, LAW_1_100, n_outer=5_000, seed=3)
        b = mi_scalar_gaussian(1.0, 1.0, LAW_1_100, n_outer=5_000, seed=3)
        assert a == b

    def test_bad_variances_rejected(self):
        with pytest.raises(ValueError):
            mi_scalar_gaussian(0.0, 1.0, LAW_1_100, n_outer=100, seed=0)
        with pytest.raises(ValueError):
            mi_scalar_gaussian(1.0, -1.0, LAW_1_100, n_outer=100, seed=0)

    def test_memory_does_not_grow_with_the_draw_block(self):
        # a full (65536 x 512) float64 density matrix alone is 256 MiB
        tracemalloc.start()
        try:
            mi_scalar_gaussian(1.0, 1.0, LAW_1_100, n_outer=100_000, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_a_chunk_is_freed_before_the_next_chunk_draws(self):
        # one chunk per shard.  The first call caches the 512-node Legendre
        # rule, which then lasts the process.
        mi_scalar_gaussian(1.0, 1.0, LAW_1_100, n_outer=2, seed=0)
        tracemalloc.start()
        try:
            mi_scalar_gaussian(1.0, 1.0, LAW_1_100, n_outer=_SHARDS * _CHUNK, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 3.15 MiB: the 1 MiB log-density tile and one chunk's arrays; with a
        # 1024-row tile 6.17 MiB
        assert peak < 4 * 2**20

    def test_mixture_density_matches_closed_form_without_noise(self):
        # w_variance = 0, h_variance = 1: f_Y(y) = (e^{-v_min} - e^{-v_max}) / (pi |y|^2 spread)
        # with v_min = |y|^2 e^{-log_max} and v_max = |y|^2 e^{-log_min}
        a, b = LAW_1_100.log_min, LAW_1_100.log_max
        log_c, s_nodes = law_1_100_mixture(1.0, 0.0)
        y2 = np.logspace(-3.0, 3.0, 5001)
        assert y2.size % _TILE != 0  # the last tile is a partial one
        v_min, v_max = y2 * math.exp(-b), y2 * math.exp(-a)
        exact = -v_min + np.log(-np.expm1(v_min - v_max)) - np.log(math.pi * y2 * (b - a))
        got = _log_mixture_density(y2, log_c, s_nodes)
        np.testing.assert_allclose(got, exact, rtol=0.0, atol=1e-11)

    @pytest.mark.parametrize("w_variance", [1.0, 100.0])
    def test_mixture_density_matches_full_matrix_logsumexp(self, w_variance):
        log_c, s_nodes = law_1_100_mixture(2.0, w_variance)
        y2 = np.random.default_rng(4).exponential(size=3001) * s_nodes.max()
        full = logsumexp(log_c[None, :] - y2[:, None] / s_nodes[None, :], axis=1)
        got = _log_mixture_density(y2, log_c, s_nodes)
        np.testing.assert_allclose(got, full, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("tile", [1, 7, 256, 1024])
    def test_mixture_density_does_not_depend_on_the_tile(self, tile, monkeypatch):
        log_c, s_nodes = law_1_100_mixture(2.0, 1.0)
        y2 = np.random.default_rng(5).exponential(size=3001) * s_nodes.max()
        assert all(y2.size % t for t in (7, 256, 1024))  # every tile but 1 row leaves a partial last tile
        want = _log_mixture_density(y2, log_c, s_nodes)
        monkeypatch.setattr(fadecap.oracle, "_TILE", tile)
        assert _log_mixture_density(y2, log_c, s_nodes).tobytes() == want.tobytes()


class TestBlockPowerOracle:
    def test_matches_analytic_value(self):
        from fadecap.direct import log_block_average_power

        scheme = SchemeParams(3, 3 * LOG10, 2)
        est = mc_block_power(scheme, 400_000, seed=31)
        assert abs(est.value - math.exp(log_block_average_power(scheme))) <= 3.0 * est.std_error

    @pytest.mark.parametrize("size", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
    def test_block_powers_are_those_of_whole_slot_draws_bit_for_bit(self, size):
        scheme = SchemeParams(3, 3 * LOG10, 2)
        rng, reference = substream(6, 1), substream(6, 1)
        want = np.zeros(size)
        for nu in range(1, scheme.tau + 1):
            want += np.exp(sample_log_x2(scheme.slot_law(nu), reference, size))
        want /= scheme.block_len
        assert _block_powers(scheme, size, rng).tobytes() == want.tobytes()
        assert rng.standard_normal() == reference.standard_normal()


def lagged_output_at(config, k, x, seed):
    """Y_k with the inputs shifted one step, so tap l acts at lag l + 1.

    The input that would enter at lag L + 1 is not in the window; at
    tau = 3 it is X_2, a guard zero.
    """
    shifted = np.zeros_like(x)
    shifted[:, 1:] = x[:, :-1]
    return output_at(config, k, shifted, seed)


def louder_output_at(config, k, x, seed):
    """Y_k drawn from a channel whose every tap variance alpha_l is 4 times the config's."""
    louder = [replace(spec, alpha=4.0 * spec.alpha) for spec in config.path_specs]
    return output_at(replace(config, path_specs=tuple(louder)), k, x, seed)


class TestLogMomentChecks:
    def test_scheme_checks_pass(self):
        config = demo_channel(log_power=3 * LOG10)
        scheme = SchemeParams(3, config.log_power, config.num_paths)
        reports = verify_log_moment_bounds(config, scheme, n_samples=150_000, seed=42)
        assert [r.check for r in reports] == ["log_moment_upper", "second_moment_identity"]
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize(
        "channel, passed",
        [
            pytest.param(output_at, [True, True], id="clean"),
            pytest.param(lagged_output_at, [True, False], id="wrong_lag"),
            pytest.param(louder_output_at, [False, False], id="wrong_tap_variance"),
        ],
    )
    def test_each_check_can_fail(self, channel, passed, monkeypatch):
        monkeypatch.setattr(fadecap.oracle, "output_at", channel)
        config = demo_channel(log_power=3 * LOG10)
        scheme = SchemeParams(3, config.log_power, config.num_paths)
        reports = verify_log_moment_bounds(config, scheme, n_samples=200_000, seed=7)
        assert [r.passed for r in reports] == passed, reports

    def test_deterministic_given_seed(self):
        config = demo_channel(log_power=3 * LOG10)
        scheme = SchemeParams(2, config.log_power, config.num_paths)
        a = verify_log_moment_bounds(config, scheme, n_samples=50_000, seed=43)
        b = verify_log_moment_bounds(config, scheme, n_samples=50_000, seed=43)
        assert a == b

    def test_memory_is_one_chunk_whatever_the_budget(self):
        config = demo_channel(log_power=3 * LOG10)
        scheme = SchemeParams(3, config.log_power, config.num_paths)

        def peak(n_samples):
            tracemalloc.start()
            try:
                verify_log_moment_bounds(config, scheme, n_samples, seed=44)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak(_SHARDS * _CHUNK)  # one full chunk per shard
        # 7.51 MiB: the chunk's (65536 x (L+1)) inputs take 3 MiB and an AR(1)
        # tap's real innovation parts 2 MiB; with all k input columns and each
        # tap's whole (65536 x (k-1)) complex innovations it took 12.0 MiB
        assert one < 9 * 2**20
        assert peak(8 * _CHUNK) < one + 2 * 2**20

    def test_right_side_is_that_of_the_symbols_within_rounding(self):
        # The right side of (a) reads |X|^2 = exp(2 Re log X) from the window's
        # logs; per draw it is within 2e-15 of sigma^2 + |X|^2 @ alpha on the
        # exponentiated window of the same stream (at most 7.6e-16 on these draws).
        config = demo_channel(log_power=3 * LOG10)
        scheme = SchemeParams(3, config.log_power, config.num_paths)
        alphas, sigma2 = np.asarray(config.alphas), config.noise_variance
        acc = _Accumulator()
        for w in range(_SHARDS):
            log_x = _scheme_log_inputs(scheme, _CHUNK, substream(45, 2, w, 0))
            got = sigma2 + np.exp(2.0 * log_x.real[:, ::-1]) @ alphas
            want = sigma2 + np.abs(np.exp(log_x)[:, ::-1]) ** 2 @ alphas
            assert np.max(np.abs(got - want) / want) <= 2e-15
            acc.add(np.log(got))
        reports = verify_log_moment_bounds(config, scheme, _SHARDS * _CHUNK, seed=45)
        assert reports[0].rhs == acc.estimate().value

    def test_mismatched_guard_length_rejected(self):
        config = demo_channel(log_power=3 * LOG10)
        scheme = SchemeParams(2, config.log_power, 1)
        with pytest.raises(ValueError):
            verify_log_moment_bounds(config, scheme, n_samples=1000, seed=0)


class TestMemoryPerMillionSamples:
    # 1e6 samples: the complex draws take 15.3 MiB, one float64 array 7.6 MiB
    # and complex_normal's block of normals 0.5 MiB.  The estimators hold one
    # float64 array per shard, half of that (3.8 MiB), and square its
    # deviations in place: mc_block_power adds a 0.5 MiB chunk of draws
    # (4.32 MiB), mc_log_gain a 1 MiB chunk of complex gains and a block of
    # normals (5.32 MiB).  With the deviations in a second shard array and
    # each slot drawn whole, both took 7.63 MiB.
    @pytest.mark.parametrize(
        "call, bound_mib",
        [
            pytest.param(lambda: complex_normal(substream(0, 0), 10**6, 1.0), 16.5, id="complex_normal"),
            pytest.param(lambda: mc_block_power(SchemeParams(3, 3 * LOG10, 2), 10**6, 0), 5.5, id="mc_block_power"),
            pytest.param(lambda: mc_log_gain(GaussianTap(1.0), 10**6, 0), 6.5, id="mc_log_gain"),
        ],
    )
    def test_peak(self, call, bound_mib):
        # numpy's first draw in a process allocates lasting state of its own;
        # one small draw beforehand keeps that out of the peak
        complex_normal(substream(0, 0), 16, 1.0)
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20


BUDGETED = {
    "mc_log_gain": ("n_samples", lambda n: mc_log_gain(GaussianTap(1.0), n, seed=0)),
    "mc_block_power": ("n_samples", lambda n: mc_block_power(SchemeParams(3, 3 * LOG10, 2), n, seed=0)),
    "verify_log_moment_bounds": (
        "n_samples",
        lambda n: verify_log_moment_bounds(demo_channel(3 * LOG10), SchemeParams(3, 3 * LOG10, 2), n, seed=0),
    ),
    "mi_scalar_gaussian": ("n_outer", lambda n: mi_scalar_gaussian(1.0, 1.0, LAW_1_100, n_outer=n, seed=0)),
}


class TestSampleBudget:
    @pytest.mark.parametrize("estimator", list(BUDGETED))
    @pytest.mark.parametrize("budget", [0, 1])
    def test_bad_budget_is_named(self, estimator, budget):
        name, call = BUDGETED[estimator]
        with pytest.raises(ValueError, match=rf"^{name} must be at least 2, got {budget}$"):
            call(budget)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(2, 400),
        parts=st.integers(1, 500),
        chunk=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=2, parts=5, chunk=1, seed=0)
    @example(n=400, parts=1, chunk=1, seed=1)
    @example(n=397, parts=3, chunk=64, seed=2)
    def test_accumulator_matches_numpy_of_the_concatenation(self, n, parts, chunk, seed):
        # The common offset is 1000 standard deviations, where E[x^2] - E[x]^2
        # loses about 6 of its 16 digits to cancellation.  A merged M2 carries
        # the rounding of the stored mean to first order, about offset * 1e-16
        # relative, so at an offset of 1e8 it is off by up to 8e-9.
        values = 1e3 + np.random.default_rng(seed).standard_normal(n)
        base, extra = divmod(n, parts)
        sizes = [base + (p < extra) for p in range(min(parts, n))]  # min(parts, n) non-empty parts
        acc, offset = _Accumulator(), 0
        for size in sizes:
            for start in range(0, size, chunk):
                # add overwrites what it is given with its squared deviations
                acc.add(values[offset + start : offset + min(start + chunk, size)].copy())
            offset += size
        est = acc.estimate()
        assert est.n_samples == n
        assert est.value == pytest.approx(np.mean(values), rel=1e-12, abs=0.0)
        assert est.std_error == pytest.approx(np.std(values, ddof=1) / math.sqrt(n), rel=1e-12, abs=0.0)


class TestAcceptanceRule:
    @pytest.mark.parametrize(
        "relation, rhs, std_error, slack, lhs_at_margin, beyond",
        [
            ("<=", 1.0, 0.25, 0.0, 1.75, math.inf),
            (">=", 1.0, 0.25, 0.0, 0.25, -math.inf),
            ("==", 1.0, 0.25, 0.0, 1.75, math.inf),
            ("==", 0.0, 0.25, 0.0, -0.75, -math.inf),  # rhs 0: 1.0 - nextafter(0.25, -inf) rounds to 0.75
            ("==", 0.0, 0.0, 1e-5, 1e-5, math.inf),  # the entropy-rate check's fixed slack
            ("<=", 2.0, 0.0, 0.0, 2.0, math.inf),  # an exact inequality
        ],
    )
    def test_passes_at_the_margin_and_fails_one_step_beyond(
        self, relation, rhs, std_error, slack, lhs_at_margin, beyond
    ):
        def judge(lhs):
            return CheckReport.judge("demo", lhs, relation, rhs, std_error, slack=slack)

        at = judge(lhs_at_margin)
        assert at.passed
        assert (at.lhs, at.rhs, at.std_error) == (lhs_at_margin, rhs, std_error)
        assert not judge(math.nextafter(lhs_at_margin, beyond)).passed

    @pytest.mark.parametrize("relation", ["==", "<=", ">="])
    @pytest.mark.parametrize(
        "lhs, rhs, std_error, slack",
        [
            (1.0, 2.0, math.inf, 0.0),  # an infinite tolerance would hold any lhs
            (1.0, 1.0, 0.0, math.inf),
            (1.0, 1.0, math.nan, 0.0),
            (math.inf, math.inf, 0.0, 0.0),
            (-math.inf, 1.0, 0.0, 0.0),
            (1.0, math.inf, 0.0, 0.0),
            (math.nan, 1.0, 0.0, 0.0),
        ],
    )
    def test_a_non_finite_side_or_tolerance_fails(self, relation, lhs, rhs, std_error, slack):
        assert not CheckReport.judge("demo", lhs, relation, rhs, std_error, slack=slack).passed


class TestReportSerialization:
    def test_json_fields(self):
        report = CheckReport(check="demo", lhs=1.0, rhs=2.0, std_error=0.1, passed=True)
        decoded = json.loads(json.dumps(report.to_dict(), sort_keys=True))
        assert decoded == {
            "check": "demo",
            "lhs": 1.0,
            "rhs": 2.0,
            "std_error": 0.1,
            "pass": True,
        }

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            McEstimate(value=0.0, std_error=-1.0, n_samples=10)

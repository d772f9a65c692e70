"""Channel operator: exactness of the truncated sum, causality, moments."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fadecap.channel
from fadecap.channel import ChannelRealization, output_at, realize_many, sample_paths, simulate, substream
from fadecap.config import ChannelConfig, aggregate_gain, config_from_dict, config_to_dict, snr_of
from fadecap.fading import EULER_GAMMA, GaussianTap

LOG10 = math.log(10.0)


def two_tap_config(log_power=0.0):
    return ChannelConfig(
        path_specs=(GaussianTap(1.0), GaussianTap(0.5)),
        noise_variance=1.0,
        log_power=log_power,
    )


def fixed_realization(gains, noise):
    return ChannelRealization(gains=np.asarray(gains, dtype=complex), noise=np.asarray(noise, dtype=complex))


def realize_one(config, n, seed):
    """The single realization of a batch of one (gains shape (L+1, n))."""
    batch = realize_many(config, n, 1, seed)
    return fixed_realization(batch.gains[0], batch.noise[0])


class TestConfig:
    def test_zero_alpha0_rejected(self):
        with pytest.raises(ValueError):
            ChannelConfig(path_specs=(GaussianTap(0.0), GaussianTap(1.0)), noise_variance=1.0, log_power=0.0)

    def test_bad_noise_rejected(self):
        with pytest.raises(ValueError):
            ChannelConfig(path_specs=(GaussianTap(1.0),), noise_variance=0.0, log_power=0.0)

    def test_active_set_skips_zero_paths(self):
        config = ChannelConfig(
            path_specs=(GaussianTap(1.0), GaussianTap(0.0), GaussianTap(2.0)),
            noise_variance=1.0,
            log_power=0.0,
        )
        assert aggregate_gain(config) == pytest.approx(3.0)
        assert config.num_paths == 2

    def test_aggregate_gain_arithmetic(self):
        config = ChannelConfig(
            path_specs=(GaussianTap(1.0), GaussianTap(0.5), GaussianTap(0.25)),
            noise_variance=1.0,
            log_power=0.0,
        )
        assert aggregate_gain(config) == pytest.approx(1.75)

    def test_single_path_gain(self):
        config = ChannelConfig(path_specs=(GaussianTap(1.0),), noise_variance=1.0, log_power=0.0)
        assert aggregate_gain(config) == pytest.approx(1.0)


def echo_of_log10_power(log10_power):
    raw = {"paths": [{"kind": "iid", "alpha": 1.0}], "noise_variance": 1.0, "log10_power": log10_power}
    return config_to_dict(config_from_dict(raw))["log10_power"]


class TestLog10PowerEcho:
    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=-3.0, max_value=200.0).map(lambda v: float(f"{v:.3g}")))
    @example(114.0)  # log_power / LOG10 reads 114.00000000000001
    @example(3.0)  # every pinned config
    def test_three_significant_digits_are_echoed_as_written(self, log10_power):
        assert echo_of_log10_power(log10_power) == log10_power

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=-300.0, max_value=300.0))
    def test_echo_rereads_to_the_same_power(self, log10_power):
        echo = echo_of_log10_power(log10_power)
        assert echo * LOG10 == log10_power * LOG10


class TestSnr:
    def test_definition(self):
        assert snr_of(two_tap_config(log_power=math.log(100.0))) == pytest.approx(math.log(100.0))

    def test_unit_snr(self):
        assert snr_of(two_tap_config(log_power=0.0)) == 0.0

    def test_log_domain_no_overflow(self):
        assert snr_of(two_tap_config(log_power=500.0)) == 500.0

    def test_rescaling_power_and_noise_preserves_snr(self):
        base = ChannelConfig(path_specs=(GaussianTap(1.0),), noise_variance=1.0, log_power=3 * LOG10)
        scaled = ChannelConfig(
            path_specs=(GaussianTap(1.0),),
            noise_variance=100.0,
            log_power=3 * LOG10 + math.log(100.0),
        )
        assert snr_of(base) == pytest.approx(snr_of(scaled), abs=1e-12)


class TestSimulate:
    def test_zero_input_passes_noise_through(self):
        config = two_tap_config()
        real = realize_one(config, 16, seed=1)
        y = simulate(config, np.zeros(16), real)
        assert np.array_equal(y, real.noise)

    def test_hand_evaluated_two_tap(self):
        # L=1, unit gains, no noise, x=(1,1): Y_1 = x_1, Y_2 = x_2 + x_1
        config = two_tap_config()
        real = fixed_realization(np.ones((2, 2)), np.zeros(2))
        y = simulate(config, np.array([1.0, 1.0]), real)
        assert np.allclose(y, [1.0, 2.0])

    def test_truncation_never_reads_prehistory(self):
        # first output sample sees only x_1 regardless of deeper taps
        config = ChannelConfig(
            path_specs=(GaussianTap(1.0), GaussianTap(1.0), GaussianTap(1.0)),
            noise_variance=1.0,
            log_power=0.0,
        )
        real = fixed_realization(np.full((3, 4), 2.0), np.zeros(4))
        y = simulate(config, np.array([1.0, 0.0, 0.0, 0.0]), real)
        assert np.allclose(y, [2.0, 2.0, 2.0, 0.0])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_linearity_with_zero_noise(self, seed):
        config = two_tap_config()
        rng = substream(seed, 9)
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        c = complex(rng.standard_normal(), rng.standard_normal())
        real = realize_one(config, 8, seed=seed)
        quiet = ChannelRealization(gains=real.gains, noise=np.zeros(8, dtype=complex))
        assert np.allclose(simulate(config, c * x, quiet), c * simulate(config, x, quiet), rtol=1e-12)

    def test_causality(self):
        # perturbing x_j for j > k never changes Y_k
        config = two_tap_config()
        real = realize_one(config, 10, seed=3)
        rng = substream(3, 1)
        x = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        y = simulate(config, x, real)
        for k in range(1, 10):
            x_pert = x.copy()
            x_pert[k:] += 10.0 + 5.0j
            y_pert = simulate(config, x_pert, real)
            assert np.array_equal(y[:k], y_pert[:k])

    def test_finite_memory(self):
        # perturbing x_j for j < k - L never changes Y_k
        config = two_tap_config()  # L = 1
        real = realize_one(config, 10, seed=4)
        rng = substream(4, 1)
        x = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        y = simulate(config, x, real)
        for k in range(2, 11):  # 1-based output index
            x_pert = x.copy()
            x_pert[: k - 2] += 3.0 - 1.0j  # 0-based inputs strictly before k - L
            y_pert = simulate(config, x_pert, real)
            assert y[k - 1] == y_pert[k - 1]

    def test_dimension_mismatch_rejected(self):
        config = two_tap_config()
        real = realize_one(config, 8, seed=5)
        with pytest.raises(ValueError):
            simulate(config, np.zeros(7), real)
        with pytest.raises(ValueError):
            simulate(ChannelConfig(path_specs=(GaussianTap(1.0),), noise_variance=1.0, log_power=0.0),
                     np.zeros(8), real)


ACTIVE_TAPS = st.one_of(
    st.floats(0.01, 10.0).map(GaussianTap),
    st.builds(
        lambda alpha, mag, phase: GaussianTap(alpha, mag * complex(math.cos(phase), math.sin(phase))),
        st.floats(0.01, 10.0),
        st.floats(0.0, 0.99),
        st.floats(0.0, 2.0 * math.pi),
    ),
)


class TestOutputAt:
    @settings(max_examples=60, deadline=None)
    @given(
        first_tap=ACTIVE_TAPS,
        later_taps=st.lists(st.one_of(ACTIVE_TAPS, st.just(GaussianTap(0.0))), max_size=3),
        n_samples=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_is_the_last_column_of_simulate_bit_for_bit(self, first_tap, later_taps, n_samples, seed, data):
        config = ChannelConfig(path_specs=(first_tap, *later_taps), noise_variance=0.7, log_power=0.0)
        k = data.draw(st.integers(1, config.num_paths + 3), label="k")  # k <= L truncates the sum
        rng = substream(seed, 9)
        x = rng.standard_normal((n_samples, k)) + 1j * rng.standard_normal((n_samples, k))
        want = simulate(config, x, realize_many(config, k, n_samples, seed))[:, k - 1]
        got = output_at(config, k, x[:, k - min(k, config.num_paths + 1) :], seed)
        assert got.shape == (n_samples,)
        assert got.tobytes() == want.tobytes()

    def test_draws_each_tap_that_reaches_time_k_through_the_traced_name(self, monkeypatch):
        # the benchmark traces fadecap.channel.sample_paths and counts n * n_paths
        # gains per call, reading those two arguments by name
        calls = []

        def spy(*args, **kwargs):
            bound = inspect.signature(sample_paths).bind(*args, **kwargs)
            calls.append((bound.arguments["spec"], bound.arguments["n"], bound.arguments["n_paths"]))
            return sample_paths(*args, **kwargs)

        monkeypatch.setattr(fadecap.channel, "sample_paths", spy)
        taps = (GaussianTap(1.0), GaussianTap(0.5, 0.5j), GaussianTap(0.0), GaussianTap(0.25))
        config = ChannelConfig(path_specs=taps, noise_variance=1.0, log_power=0.0)
        output_at(config, 3, np.ones((17, 3), dtype=complex), seed=0)
        assert calls == [(spec, 3, 17) for spec in taps[:3]]  # tap 3 cannot reach time 3

    def test_inputs_must_be_a_batch_of_sequences(self):
        with pytest.raises(ValueError, match=r"shape \(n_samples, min\(k, L\+1\)\)"):
            output_at(two_tap_config(), 2, np.zeros(2), seed=0)

    @pytest.mark.parametrize("k, width", [(2, 1), (2, 3), (5, 3), (1, 2)])
    def test_inputs_must_be_those_reaching_time_k(self, k, width):
        # two taps: min(k, L+1) is 1 at k = 1 and 2 from k = 2 on
        with pytest.raises(ValueError, match=rf"got \(4, {width}\) at k = {k}$"):
            output_at(two_tap_config(), k, np.zeros((4, width)), seed=0)

    @pytest.mark.parametrize(
        "k, shape", [(0, (4, 0)), (3, (0, 2)), (0, (0, 0))], ids=["no_times", "no_samples", "neither"]
    )
    def test_empty_inputs_rejected(self, k, shape):
        with pytest.raises(ValueError, match=r"n_samples, k >= 1"):
            output_at(two_tap_config(), k, np.zeros(shape), seed=0)

    def test_zero_input_log_moment_gap_is_euler_gamma(self):
        # with no input Y_k is the noise, CN(0, sigma^2): E|Y|^2 = sigma^2 and
        # E log|Y|^2 = log sigma^2 - gamma
        config = ChannelConfig(
            path_specs=(GaussianTap(1.0, 0.5), GaussianTap(0.5, 0.5), GaussianTap(0.25, 0.5)),
            noise_variance=2.0,
            log_power=3 * LOG10,
        )
        y2 = np.abs(output_at(config, 3, np.zeros((200_000, 3)), seed=41)) ** 2
        for values, expected in ((np.log(y2), math.log(2.0) - EULER_GAMMA), (y2, 2.0)):
            sem = np.std(values, ddof=1) / math.sqrt(values.size)
            assert abs(np.mean(values) - expected) <= 3.0 * sem


class TestMoments:
    def test_noise_only_second_moment(self):
        config = ChannelConfig(path_specs=(GaussianTap(1.0),), noise_variance=2.0, log_power=0.0)
        real = realize_many(config, 1, 1_000_000, seed=6)
        y = simulate(config, np.zeros(1), real)
        power = np.abs(y[:, 0]) ** 2
        sem = np.std(power, ddof=1) / math.sqrt(power.size)
        assert abs(np.mean(power) - 2.0) <= 3.0 * sem

    def test_second_moment_identity_deterministic_input(self):
        # E|Y_k|^2 = sigma^2 + sum_l alpha_l |x_{k-l}|^2, exercised at every k
        config = ChannelConfig(
            path_specs=(GaussianTap(1.0), GaussianTap(0.5), GaussianTap(0.25)),
            noise_variance=1.5,
            log_power=0.0,
        )
        x = np.array([2.0, 0.5j, -1.0, 1.0 + 1.0j, 0.25])
        n = x.size
        alphas = np.asarray(config.alphas)
        expected = config.noise_variance + np.convolve(np.abs(x) ** 2, alphas)[:n]
        total = np.zeros(n)
        total_sq = np.zeros(n)
        m_chunk, chunks = 100_000, 10
        for i in range(chunks):
            real = realize_many(config, n, m_chunk, seed=7_000 + i)
            power = np.abs(simulate(config, x, real)) ** 2
            total += power.sum(axis=0)
            total_sq += (power**2).sum(axis=0)
        m = m_chunk * chunks
        mean = total / m
        sem = np.sqrt((total_sq / m - mean**2) / m)
        assert np.all(np.abs(mean - expected) <= 3.0 * sem)

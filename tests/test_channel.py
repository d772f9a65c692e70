"""Channel operator: exactness of the truncated sum, causality, moments."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fadecap.channel import (
    ChannelConfig,
    ChannelRealization,
    aggregate_gain,
    output_at,
    realize_many,
    simulate,
    snr_of,
)
from fadecap.fading import Ar1Gaussian, IidGaussian, ZeroPath
from fadecap.streams import substream

LOG10 = math.log(10.0)


def two_tap_config(log_power=0.0):
    return ChannelConfig(
        path_specs=(IidGaussian(1.0), IidGaussian(0.5)),
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
            ChannelConfig(path_specs=(ZeroPath(), IidGaussian(1.0)), noise_variance=1.0, log_power=0.0)

    def test_bad_noise_rejected(self):
        with pytest.raises(ValueError):
            ChannelConfig(path_specs=(IidGaussian(1.0),), noise_variance=0.0, log_power=0.0)

    def test_active_set_skips_zero_paths(self):
        config = ChannelConfig(
            path_specs=(IidGaussian(1.0), ZeroPath(), IidGaussian(2.0)),
            noise_variance=1.0,
            log_power=0.0,
        )
        assert aggregate_gain(config) == pytest.approx(3.0)
        assert config.num_paths == 2

    def test_aggregate_gain_arithmetic(self):
        config = ChannelConfig(
            path_specs=(IidGaussian(1.0), IidGaussian(0.5), IidGaussian(0.25)),
            noise_variance=1.0,
            log_power=0.0,
        )
        assert aggregate_gain(config) == pytest.approx(1.75)

    def test_single_path_gain(self):
        config = ChannelConfig(path_specs=(IidGaussian(1.0),), noise_variance=1.0, log_power=0.0)
        assert aggregate_gain(config) == pytest.approx(1.0)


class TestSnr:
    def test_definition(self):
        assert snr_of(two_tap_config(log_power=math.log(100.0))) == pytest.approx(math.log(100.0))

    def test_unit_snr(self):
        assert snr_of(two_tap_config(log_power=0.0)) == 0.0

    def test_log_domain_no_overflow(self):
        assert snr_of(two_tap_config(log_power=500.0)) == 500.0

    def test_rescaling_power_and_noise_preserves_snr(self):
        base = ChannelConfig(path_specs=(IidGaussian(1.0),), noise_variance=1.0, log_power=3 * LOG10)
        scaled = ChannelConfig(
            path_specs=(IidGaussian(1.0),),
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
            path_specs=(IidGaussian(1.0), IidGaussian(1.0), IidGaussian(1.0)),
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
            simulate(ChannelConfig(path_specs=(IidGaussian(1.0),), noise_variance=1.0, log_power=0.0),
                     np.zeros(8), real)


ACTIVE_TAPS = st.one_of(
    st.floats(0.01, 10.0).map(IidGaussian),
    st.builds(
        lambda alpha, mag, phase: Ar1Gaussian(alpha, mag * complex(math.cos(phase), math.sin(phase))),
        st.floats(0.01, 10.0),
        st.floats(0.0, 0.99),
        st.floats(0.0, 2.0 * math.pi),
    ),
)


class TestOutputAt:
    @settings(max_examples=60, deadline=None)
    @given(
        first_tap=ACTIVE_TAPS,
        later_taps=st.lists(st.one_of(ACTIVE_TAPS, st.just(ZeroPath())), max_size=3),
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
        got = output_at(config, x, seed)
        assert got.shape == (n_samples,)
        assert got.tobytes() == want.tobytes()

    def test_inputs_must_be_a_batch_of_sequences(self):
        with pytest.raises(ValueError, match=r"shape \(n_samples, k\)"):
            output_at(two_tap_config(), np.zeros(4), seed=0)


class TestMoments:
    def test_noise_only_second_moment(self):
        config = ChannelConfig(path_specs=(IidGaussian(1.0),), noise_variance=2.0, log_power=0.0)
        real = realize_many(config, 1, 1_000_000, seed=6)
        y = simulate(config, np.zeros(1), real)
        power = np.abs(y[:, 0]) ** 2
        sem = np.std(power, ddof=1) / math.sqrt(power.size)
        assert abs(np.mean(power) - 2.0) <= 3.0 * sem

    def test_second_moment_identity_deterministic_input(self):
        # E|Y_k|^2 = sigma^2 + sum_l alpha_l |x_{k-l}|^2, exercised at every k
        config = ChannelConfig(
            path_specs=(IidGaussian(1.0), IidGaussian(0.5), IidGaussian(0.25)),
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

"""Path-gain families: closed forms vs independent oracles, sampler contracts."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fadecap.config import path_spec_from_dict, path_spec_to_dict
from fadecap.fading import (
    _BLOCK,
    _ROW_BLOCK,
    EULER_GAMMA,
    LOG_PI_E,
    Ar1Gaussian,
    IidGaussian,
    ZeroPath,
    complex_normal,
    entropy_rate_szego,
    sample_paths,
    spectral_density,
    stats_of,
)
from fadecap.streams import substream

class TestClosedForms:
    def test_unit_iid_gaussian(self):
        stats = stats_of(IidGaussian(1.0))
        assert stats.entropy_rate == pytest.approx(2.1447298858494002, abs=1e-12)
        assert stats.mean_log_gain == pytest.approx(-EULER_GAMMA, abs=1e-12)
        assert stats.alpha == 1.0
        assert stats.active
        # the white family is the a = 0 case of the Gauss-Markov formulas,
        # whose pole term log1p(-0.0) adds nothing
        for alpha in (1e-300, 0.3, 1.0, 2.0, math.e, 1e300):
            stats = stats_of(IidGaussian(alpha))
            assert stats.entropy_rate.hex() == (LOG_PI_E + math.log(alpha)).hex()
            assert stats.mean_log_gain.hex() == (math.log(alpha) - EULER_GAMMA).hex()

    def test_ar1_with_zero_pole_degenerates_to_iid(self):
        assert stats_of(Ar1Gaussian(1.0, 0.0)) == stats_of(IidGaussian(1.0))

    def test_ar1_entropy_rate_closed_form(self):
        stats = stats_of(Ar1Gaussian(2.0, 0.5))
        assert stats.entropy_rate == pytest.approx(LOG_PI_E + math.log(2.0 * 0.75), rel=1e-14)

    def test_zero_path_has_no_statistics(self):
        stats = stats_of(ZeroPath())
        assert stats.alpha == 0.0
        assert stats.entropy_rate is None
        assert stats.mean_log_gain is None
        assert not stats.active

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            IidGaussian(-1.0)
        with pytest.raises(ValueError):
            IidGaussian(0.0)
        with pytest.raises(ValueError):
            Ar1Gaussian(1.0, 1.0)
        with pytest.raises(ValueError):
            Ar1Gaussian(1.0, 0.8 + 0.7j)
        with pytest.raises(ValueError):
            Ar1Gaussian(math.inf, 0.1)


class TestSzegoOracle:
    def test_flat_spectrum(self):
        assert entropy_rate_szego(lambda lam: np.ones_like(lam)) == pytest.approx(
            LOG_PI_E, abs=1e-12
        )

    def test_constant_scaling(self):
        got = entropy_rate_szego(lambda lam: 3.0 * np.ones_like(lam))
        assert got == pytest.approx(LOG_PI_E + math.log(3.0), abs=1e-12)

    @pytest.mark.parametrize(
        "alpha,a",
        [(1.0, 0.5), (2.0, 0.5), (1.0, 0.9), (0.25, -0.6), (1.0, 0.3 + 0.4j)],
    )
    def test_ar1_matches_closed_form(self, alpha, a):
        # the pole factor integrates to zero, leaving the innovation variance
        got = entropy_rate_szego(spectral_density(Ar1Gaussian(alpha, a)))
        assert abs(got - stats_of(Ar1Gaussian(alpha, a)).entropy_rate) < 1e-6

    def test_iid_spectral_density_matches(self):
        got = entropy_rate_szego(spectral_density(IidGaussian(2.0)))
        assert abs(got - stats_of(IidGaussian(2.0)).entropy_rate) < 1e-10
        # flat: the a = 0 case of the Gauss-Markov density, bit for bit
        lam = np.linspace(-math.pi, math.pi, 2**17)
        for alpha in (1e-300, 0.3, 2.0, 1e300):
            density = spectral_density(IidGaussian(alpha))(lam)
            assert density.tobytes() == np.full_like(lam, alpha).tobytes()

    def test_zero_path_has_no_spectral_density(self):
        with pytest.raises(ValueError, match="no spectral density"):
            spectral_density(ZeroPath())

    def test_fast_fading_keeps_the_first_grid(self):
        # the first grid agrees with the next, so its estimate is returned as is
        density = spectral_density(Ar1Gaussian(1.0, 0.5))
        lam = -math.pi + 2.0 * math.pi * np.arange(2**16) / 2**16
        assert entropy_rate_szego(density) == LOG_PI_E + float(np.mean(np.log(density(lam))))

    @pytest.mark.parametrize("a", [0.99999, 0.999999])
    def test_slow_fading_refines_the_grid(self, a):
        # the 2^16-point grid's error is 2.2e-5 at |a| = 0.99999
        got = entropy_rate_szego(spectral_density(Ar1Gaussian(1.0, a)))
        assert abs(got - stats_of(Ar1Gaussian(1.0, a)).entropy_rate) < 1e-7

    def test_unresolved_peak_raises(self):
        with pytest.raises(ValueError, match="did not converge"):
            entropy_rate_szego(spectral_density(Ar1Gaussian(1.0, 0.9999999)))

    def test_nonpositive_density_rejected(self):
        with pytest.raises(ValueError):
            entropy_rate_szego(lambda lam: np.cos(lam))

    @settings(max_examples=25, deadline=None)
    @given(
        alpha=st.floats(min_value=0.05, max_value=20.0),
        a_mag=st.floats(min_value=0.0, max_value=0.95),
        a_phase=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    def test_property_szego_agrees_for_random_ar1(self, alpha, a_mag, a_phase):
        a = a_mag * complex(math.cos(a_phase), math.sin(a_phase))
        spec = Ar1Gaussian(alpha, a)
        got = entropy_rate_szego(spectral_density(spec))
        assert abs(got - stats_of(spec).entropy_rate) < 1e-5


def ar1_reference(spec, n, n_paths, rng):
    """The AR(1) recursion written out over a whole (n_paths, n) array."""
    out = np.empty((n_paths, n), dtype=complex)
    out[:, 0] = complex_normal(rng, n_paths, spec.alpha)
    if n > 1:
        innovations = complex_normal(rng, (n_paths, n - 1), spec.alpha * (1.0 - abs(spec.a) ** 2))
        for t in range(1, n):
            out[:, t] = innovations[:, t - 1] + spec.a * out[:, t - 1]
    return out


def rows_near_a_block(n, where):
    """A count of rows of ``n`` normals: one, or just below, at or above a whole _BLOCK of rows."""
    return {"one": 1, "below": _BLOCK // n - 1, "at": _BLOCK // n, "above": _BLOCK // n + 1}[where]


def rows_in_row_blocks(n, whole_blocks, last_rows):
    """A count of AR(1) paths of length ``n`` filling ``whole_blocks`` of the row blocks
    sample_paths(last=True) recurses on, then one, half of or all the rows of one more."""
    per_block = max(1, _ROW_BLOCK // (n - 1))
    return whole_blocks * per_block + {"one": 1, "half": (per_block + 1) // 2, "all": per_block}[last_rows]


AR1_TAPS = st.one_of(
    st.builds(Ar1Gaussian, st.floats(0.01, 10.0), st.floats(-0.99, 0.99)),
    st.builds(
        lambda alpha, mag, phase: Ar1Gaussian(alpha, mag * complex(math.cos(phase), math.sin(phase))),
        st.floats(0.01, 10.0),
        st.floats(0.0, 0.99),
        st.floats(0.0, 2.0 * math.pi),
    ),
)
TAPS = st.one_of(st.just(ZeroPath()), st.floats(0.01, 10.0).map(IidGaussian), AR1_TAPS)
NEAR_A_BLOCK = st.sampled_from(["one", "below", "at", "above"])


class TestSamplers:
    def test_zero_path_samples_are_zero(self):
        assert np.array_equal(
            sample_paths(ZeroPath(), 5, 1, substream(0, 0))[0], np.zeros(5, dtype=complex)
        )

    def test_same_stream_gives_bit_identical_paths(self):
        for spec in (IidGaussian(1.0), Ar1Gaussian(1.0, 0.4 + 0.2j)):
            a = sample_paths(spec, 128, 1, substream(11, 3))
            b = sample_paths(spec, 128, 1, substream(11, 3))
            assert np.array_equal(a, b)

    def test_different_streams_differ(self):
        a = sample_paths(IidGaussian(1.0), 64, 1, substream(11, 0))
        b = sample_paths(IidGaussian(1.0), 64, 1, substream(11, 1))
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("a, atol", [(0.5, 0.0), (-0.99, 0.0), (0.9 + 0.3j, 1e-14)])
    def test_ar1_recursion_matches_lfilter(self, a, atol):
        from scipy.signal import lfilter

        spec = Ar1Gaussian(1.3, a)
        got = sample_paths(spec, 37, 1000, substream(5, 1))
        rng = substream(5, 1)  # the same draws, in the order sample_paths makes them
        first = complex_normal(rng, 1000, spec.alpha)
        innovations = complex_normal(rng, (1000, 36), spec.alpha * (1.0 - abs(a) ** 2))
        rest, _ = lfilter([1.0], [1.0, -a], innovations, axis=1, zi=(a * first)[:, None])
        assert got[:, 0].tolist() == first.tolist()
        np.testing.assert_allclose(got[:, 1:], rest, rtol=0.0, atol=atol)

    def test_iid_empirical_variance(self):
        h = sample_paths(IidGaussian(4.0), 1, 1_000_000, substream(42, 0))[:, 0]
        power = np.abs(h) ** 2
        sem = np.std(power, ddof=1) / math.sqrt(power.size)
        assert abs(np.mean(power) - 4.0) <= 3.0 * sem

    def test_ar1_lag_one_correlation(self):
        paths = sample_paths(Ar1Gaussian(1.0, 0.9), 2, 500_000, substream(43, 0))
        prod = (paths[:, 1] * np.conj(paths[:, 0])).real
        sem = np.std(prod, ddof=1) / math.sqrt(prod.size)
        assert abs(np.mean(prod) - 0.9) <= 3.0 * sem

    def test_ar1_lag_one_correlation_single_long_path(self):
        h = sample_paths(Ar1Gaussian(1.0, 0.9), 1_000_000, 1, substream(46, 0))[0]
        corr = float(np.mean(h[1:] * np.conj(h[:-1])).real)
        assert abs(corr - 0.9) < 0.01  # samples are dependent; coarse tolerance

    def test_ar1_variance_stationary_at_every_sampled_index(self):
        paths = sample_paths(Ar1Gaussian(2.0, 0.7), 6, 300_000, substream(44, 0))
        for k in range(6):
            power = np.abs(paths[:, k]) ** 2
            sem = np.std(power, ddof=1) / math.sqrt(power.size)
            assert abs(np.mean(power) - 2.0) <= 3.0 * sem

    def test_mean_log_gain_stationary_at_every_sampled_index(self):
        spec = Ar1Gaussian(1.5, 0.8)
        expected = stats_of(spec).mean_log_gain
        paths = sample_paths(spec, 4, 400_000, substream(45, 0))
        for k in range(4):
            logs = np.log(np.abs(paths[:, k]) ** 2)
            sem = np.std(logs, ddof=1) / math.sqrt(logs.size)
            assert abs(np.mean(logs) - expected) <= 3.0 * sem

    @pytest.mark.parametrize(
        "shape", [7, (3, 5), _BLOCK, _BLOCK + 1, (3, _BLOCK // 2 + 3), (2, 3 * _BLOCK)]
    )
    def test_complex_normal_draws_as_one_standard_normal_call(self, shape):
        # real parts first, then imaginary parts, scaled to E|Z|^2 = variance
        rng, reference = substream(8, 2), substream(8, 2)
        got = complex_normal(rng, shape, 2.5)
        z = reference.standard_normal((2,) + tuple(np.atleast_1d(shape))) * math.sqrt(2.5 / 2.0)
        assert got.shape == z.shape[1:]
        assert got.real.tobytes() == z[0].tobytes() and got.imag.tobytes() == z[1].tobytes()
        assert rng.standard_normal() == reference.standard_normal()  # the streams are left in step

    @settings(max_examples=60, deadline=None)
    @given(spec=TAPS, n=st.integers(1, 8), where=NEAR_A_BLOCK, seed=st.integers(0, 2**32 - 1))
    # writing the recursion in place, np.multiply(spec.a, h, out=h), changes these bits
    @example(spec=Ar1Gaussian(1.0, 0.2701511529340699 + 0.42073549240394825j), n=8, where="one", seed=17)
    def test_gains_at_time_n_are_the_last_column_of_sample_paths(self, spec, n, where, seed):
        # last=True against the full draw, bit for bit, with the streams left in step
        n_paths = rows_near_a_block(n, where)
        rng, reference = substream(seed, 0), substream(seed, 0)
        got = sample_paths(spec, n, n_paths, rng, last=True)
        paths = sample_paths(spec, n, n_paths, reference)
        assert got.shape == (n_paths,)
        assert got.tobytes() == paths[:, n - 1].tobytes()
        assert rng.standard_normal() == reference.standard_normal()
        if isinstance(spec, Ar1Gaussian):
            assert paths.tobytes() == ar1_reference(spec, n, n_paths, substream(seed, 0)).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        spec=AR1_TAPS,
        n=st.integers(2, 8),
        whole_blocks=st.integers(0, 2),
        last_rows=st.sampled_from(["one", "half", "all"]),
        seed=st.integers(0, 2**32 - 1),
    )
    # recursing in place on a block of one row, np.multiply(spec.a, h, out=h), changes these bits
    @example(
        spec=Ar1Gaussian(1.0, 0.2701511529340699 + 0.42073549240394825j), n=8, whole_blocks=2, last_rows="one", seed=8
    )
    def test_ar1_gains_at_time_n_by_row_blocks(self, spec, n, whole_blocks, last_rows, seed):
        # one to three row blocks, the last one possibly of a single row, whose
        # recursion must round as the whole column's does
        n_paths = rows_in_row_blocks(n, whole_blocks, last_rows)
        rng, reference = substream(seed, 0), substream(seed, 0)
        got = sample_paths(spec, n, n_paths, rng, last=True)
        assert got.tobytes() == ar1_reference(spec, n, n_paths, reference)[:, n - 1].tobytes()
        assert rng.standard_normal() == reference.standard_normal()

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 8), where=NEAR_A_BLOCK, variance=st.floats(0.01, 10.0), seed=st.integers(0, 2**32 - 1))
    def test_noise_column_is_the_last_column_of_complex_normal(self, n, where, variance, seed):
        n_rows = rows_near_a_block(n, where)
        rng, reference = substream(seed, 1), substream(seed, 1)
        got = complex_normal(rng, (n_rows, n), variance, last=True)
        assert got.tobytes() == complex_normal(reference, (n_rows, n), variance)[:, n - 1].tobytes()
        assert rng.standard_normal() == reference.standard_normal()

    def test_bad_lengths_rejected(self):
        for last in (False, True):
            with pytest.raises(ValueError, match="path length"):
                sample_paths(IidGaussian(1.0), 0, 1, substream(0, 0), last=last)
            with pytest.raises(ValueError, match="n_paths"):
                sample_paths(Ar1Gaussian(1.0, 0.5), 3, 0, substream(0, 0), last=last)
        with pytest.raises(ValueError, match="at least one column"):
            complex_normal(substream(0, 0), (4, 0), 1.0, last=True)


class TestSerialization:
    @pytest.mark.parametrize(
        "spec",
        [IidGaussian(1.5), Ar1Gaussian(0.5, 0.25 - 0.1j), ZeroPath()],
    )
    def test_round_trip(self, spec):
        assert path_spec_from_dict(path_spec_to_dict(spec)) == spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            path_spec_from_dict({"kind": "rayleigh", "alpha": 1.0})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            path_spec_from_dict({"kind": "iid", "alpha": 1.0, "beta": 2.0})

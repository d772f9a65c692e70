"""Config ingestion, sweep orchestration, slope fits, emission contracts."""

import contextlib
import copy
import importlib
import io
import json
import math
import os
import re
import runpy
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from array import array
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fadecap.config
import fadecap.direct
from fadecap import cli
from fadecap.cli import COLUMNS, Sweep, emit, fit_preloglog_slope, load_config, run_sweep, write_outputs
from fadecap.config import GridSpec, sweep_config_from_dict, sweep_config_to_dict
from fadecap.converse import ConverseStats, upper_bound
from fadecap.direct import DirectStats, lower_bound, optimize_tau
from fadecap.fading import GaussianTap
from fadecap.oracle import CheckReport
from fadecap.record import fields, replace

LOG10 = math.log(10.0)
MAX_GRID_STOP = math.nextafter(sys.float_info.max / LOG10, 0.0)  # the largest stop GridSpec accepts
REPO_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "demo.json"
README = REPO_CONFIG.parent.parent / "README.md"
LOW_POWER_CONFIG = REPO_CONFIG.with_name("low_power.json")
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
DEMO = load_config(REPO_CONFIG)
DEMO_RAW = json.loads(REPO_CONFIG.read_text())

# JSON sweep output: an array of per-grid-point objects with exactly these keys.
OUTPUT_SCHEMA = {
    "type": "array",
    "minItems": 1,
    "items": {
        "type": "object",
        "properties": {
            "log_snr": {"type": "number"},
            "upper": {"type": "number"},
            "lower": {"type": "number"},
            "tau_star": {"type": "integer", "minimum": 1},
            "loglog_snr": {"type": "number"},
            "ratio_upper": {"type": "number"},
            "ratio_lower": {"type": "number"},
        },
        "required": [
            "log_snr",
            "upper",
            "lower",
            "tau_star",
            "loglog_snr",
            "ratio_upper",
            "ratio_lower",
        ],
        "additionalProperties": False,
    },
}


STORED = ("log_snr", "upper", "lower", "tau_star")  # the fields of Sweep; rows() derives the rest of COLUMNS


def sweep_of(rows):
    """A Sweep holding ``rows``, each a tuple of the four STORED values."""
    columns = list(zip(*rows)) or [()] * len(STORED)
    return Sweep(*(array("q" if name == "tau_star" else "d", c) for name, c in zip(STORED, columns)))


def same_bits(a, b):
    """Bit-exact equality of two sweeps, column by column."""
    return all(getattr(a, name).tobytes() == getattr(b, name).tobytes() for name in STORED)


def derived_row(log_snr, upper, lower, tau):
    """The row ``Sweep.rows()`` yields for these stored values, in COLUMNS order."""
    loglog = math.log(log_snr)
    return (log_snr, upper, lower, tau, loglog, upper / loglog, lower / loglog)


def bits(row):
    """A row with every float as ``float.hex``, so == compares bits (-0.0, nan and all)."""
    return tuple(v.hex() if isinstance(v, float) else v for v in row)


def column(sweep, name):
    """Column ``name`` of ``sweep.rows()``, stored or derived."""
    index = COLUMNS.index(name)
    return [row[index] for row in sweep.rows()]


def parse_emitted(text, output_format):
    """Inverse of ``emit``; round-trips values bit-exactly.

    Every row's loglog_snr, ratio_upper and ratio_lower must be, bit for bit,
    the values recomputed from its log_snr, upper and lower.
    """
    if output_format == "csv":
        lines = [line for line in text.splitlines() if line]
        assert lines and lines[0] == cli.CSV_HEADER
        types = [int if name == "tau_star" else float for name in COLUMNS]
        rows = [tuple(t(f) for t, f in zip(types, line.split(","), strict=True)) for line in lines[1:]]
    else:
        assert output_format == "json"
        entries = json.loads(text)
        assert all(entry.keys() == set(COLUMNS) for entry in entries)
        rows = [tuple(entry[name] for name in COLUMNS) for entry in entries]
    for row in rows:
        assert bits(row) == bits(derived_row(*row[:4])), row
    return sweep_of([row[:4] for row in rows])


def demo_config_with(path, changes):
    """Write configs/demo.json to ``path`` with each key path of ``changes`` set to its value."""
    raw = copy.deepcopy(DEMO_RAW)
    for key_path, value in changes.items():
        _at(raw, key_path[:-1])[key_path[-1]] = value
    path.write_text(json.dumps(raw, indent=2, sort_keys=True))
    return path


def synthetic_sweep(num=6, slope=1.0, intercept=0.0, step=0.5):
    rows = []
    for i in range(num):
        loglog = 1.0 + step * i
        value = slope * loglog + intercept
        rows.append((math.exp(loglog), value, value, 1 + i))
    return sweep_of(rows)


class TestConfig:
    def test_repo_demo_file_round_trips(self):
        # the echo written to every sidecar is the file itself
        assert sweep_config_to_dict(DEMO) == json.loads(REPO_CONFIG.read_text())
        assert sweep_config_from_dict(sweep_config_to_dict(DEMO)) == DEMO

    def test_unknown_top_level_key_rejected(self):
        raw = sweep_config_to_dict(DEMO)
        raw["extra"] = 1
        with pytest.raises(ValueError, match="unknown keys"):
            sweep_config_from_dict(raw)

    def test_unknown_nested_key_rejected(self):
        raw = sweep_config_to_dict(DEMO)
        raw["grid"]["spacing"] = "log"
        with pytest.raises(ValueError, match="unknown keys"):
            sweep_config_from_dict(raw)
        raw = sweep_config_to_dict(DEMO)
        raw["channel"]["paths"][0]["color"] = "red"
        with pytest.raises(ValueError, match="unknown keys"):
            sweep_config_from_dict(raw)

    def test_schema_version_enforced(self):
        raw = sweep_config_to_dict(DEMO)
        raw["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            sweep_config_from_dict(raw)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(log10_snr_start=10.0, log10_snr_stop=5.0, points=4)
        with pytest.raises(ValueError):
            GridSpec(log10_snr_start=1.0, log10_snr_stop=2.0, points=1)

    @settings(max_examples=200, deadline=None)
    @given(
        ends=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2, unique=True),
        points=st.integers(min_value=2, max_value=2000),
    )
    @example(ends=[1.0, 2.0], points=2)
    @example(ends=[3.0, 6.0], points=100_000)
    @example(ends=[1.0, MAX_GRID_STOP], points=1000)
    @example(ends=[-MAX_GRID_STOP, MAX_GRID_STOP], points=5)  # stop - start overflows
    @example(ends=[0.0, 5e-324], points=4)  # the step underflows to 0
    def test_grid_equals_numpy_linspace_bit_for_bit(self, ends, points):
        start, stop = sorted(ends)
        assume(math.isfinite(stop * LOG10))
        grid = GridSpec(log10_snr_start=start, log10_snr_stop=stop, points=points)
        with np.errstate(all="ignore"):
            expected = np.linspace(start, stop, points) * LOG10
        assert grid.log_snr_values().tobytes() == expected.tobytes()


class TestRunSweep:
    def test_two_point_grid(self):
        small = cli.SweepConfig(
            channel=DEMO.channel,
            bound_params=DEMO.bound_params,
            grid=GridSpec(log10_snr_start=20.0, log10_snr_stop=30.0, points=2),
            tau_max=16,
            seed=1,
            output_format="csv",
        )
        sweep, metadata = run_sweep(small)
        assert len(sweep) == 2
        assert sweep.log_snr[0] < sweep.log_snr[1]
        assert metadata["constants_certified"] is False
        assert metadata["config"]["grid"]["points"] == 2

    def test_loglog_domain_guard(self):
        bad = cli.SweepConfig(
            channel=DEMO.channel,
            bound_params=DEMO.bound_params,
            grid=GridSpec(log10_snr_start=0.2, log10_snr_stop=10.0, points=3),
            tau_max=4,
            seed=1,
            output_format="csv",
        )
        with pytest.raises(ValueError, match="log log SNR"):
            run_sweep(bad)

    def test_demo_grid_frozen_bands_at_top(self):
        # bands frozen from the first evaluation of the implemented formulas
        sweep, _ = run_sweep(DEMO)
        *_, (_, _, _, tau, _, ratio_upper, ratio_lower) = sweep.rows()
        assert tau == 4
        assert 1.30 <= ratio_upper <= 1.34
        assert 0.31 <= ratio_lower <= 0.34

    def test_upper_dominates_lower_everywhere(self):
        sweep, _ = run_sweep(DEMO)
        assert all(u >= l for u, l in zip(sweep.upper, sweep.lower))

    def test_gap_ratios_shrink_along_the_grid(self):
        sweep, _ = run_sweep(DEMO)
        upper_excess = [r - 1.0 for r in column(sweep, "ratio_upper")]
        lower_deficit = [1.0 - r for r in column(sweep, "ratio_lower")]
        assert all(b < a for a, b in zip(upper_excess, upper_excess[1:]))
        assert all(b < a for a, b in zip(lower_deficit, lower_deficit[1:]))

    def test_sweep_only_orchestrates_the_bound_modules(self):
        # every emitted value must equal a direct call into converse/direct
        sweep, _ = run_sweep(DEMO)
        cstats = ConverseStats.from_config(DEMO.channel)
        dstats = DirectStats.from_config(DEMO.channel)
        for log_snr, upper, lower, tau, loglog, ratio_upper, ratio_lower in list(sweep.rows())[:: len(sweep) // 4]:
            assert upper == upper_bound(log_snr, cstats, DEMO.bound_params)
            assert (tau, lower) == optimize_tau(log_snr, dstats, DEMO.tau_max)
            assert loglog == math.log(log_snr)
            assert (ratio_upper, ratio_lower) == (upper / loglog, lower / loglog)

    def test_low_power_sweep_evaluates_one_tau_per_point(self, monkeypatch):
        # log P runs from 0.04 to 3.9 nats, so every tau is admissible at the
        # first points; R(1) < 0 at every point, so tau = 1 is taken at once
        config = replace(load_config(LOW_POWER_CONFIG), tau_max=10**6)
        calls = []
        monkeypatch.setattr(fadecap.direct, "lower_bound", lambda *args: calls.append(args[1]) or lower_bound(*args))
        sweep, _ = run_sweep(config)
        assert calls == [1] * config.grid.points
        dstats = DirectStats.from_config(config.channel)
        assert list(sweep.tau_star) == [1] * config.grid.points
        assert list(sweep.lower) == [lower_bound(log_snr, 1, dstats) for log_snr in sweep.log_snr]
        assert min(s + math.log(dstats.sigma2) for s in sweep.log_snr) < 1.0


class TestSweepColumns:
    def test_stores_the_four_computed_columns(self):
        assert fields(Sweep) == STORED
        assert COLUMNS == STORED + ("loglog_snr", "ratio_upper", "ratio_lower")
        assert cli.CSV_HEADER == "log_snr,upper,lower,tau_star,loglog_snr,ratio_upper,ratio_lower"

    @settings(max_examples=30, deadline=None)
    @given(
        start=st.floats(min_value=0.5, max_value=300.0),
        width=st.floats(min_value=1e-3, max_value=1e6),
        points=st.integers(min_value=2, max_value=40),
        tau=st.sampled_from([None, 1, 3, 8]),  # None searches 1..tau_max
    )
    def test_property_rows_derive_loglog_and_ratios(self, start, width, points, tau):
        assume(tau is None or start >= 20.0)  # where tau <= 8 is admissible
        grid = GridSpec(log10_snr_start=start, log10_snr_stop=start + width, points=points)
        sweep, _ = run_sweep(replace(DEMO, grid=grid, tau=tau))
        stored = zip(sweep.log_snr, sweep.upper, sweep.lower, sweep.tau_star, strict=True)
        assert [bits(row) for row in sweep.rows()] == [bits(derived_row(*values)) for values in stored]


class TestSlopeFit:
    def test_exact_linear_data(self):
        fit = fit_preloglog_slope(synthetic_sweep(slope=1.0, intercept=0.3), "upper")
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(0.3, abs=1e-12)
        assert fit.residual == pytest.approx(0.0, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least 3"):
            fit_preloglog_slope(synthetic_sweep(num=2), "upper")

    def test_degenerate_grid(self):
        row = (math.e, 1.0, 1.0, 1)
        with pytest.raises(ValueError, match="degenerate"):
            fit_preloglog_slope(sweep_of([row, row, row]), "upper")

    @pytest.mark.parametrize(
        "sweep",
        [
            run_sweep(DEMO)[0],
            synthetic_sweep(),
            synthetic_sweep(num=7, slope=-2.5, intercept=7.25),
            synthetic_sweep(num=100_000, step=1e-4),
        ],
        ids=["demo", "line", "planted", "100k"],
    )
    @pytest.mark.parametrize("which", ["upper", "lower"])
    def test_matches_polyfit(self, sweep, which):
        x, y = np.asarray(column(sweep, "loglog_snr")), np.asarray(getattr(sweep, which))
        slope, intercept = np.polyfit(x, y, 1)
        residual = np.sqrt(np.mean((y - (slope * x + intercept)) ** 2))
        fit = fit_preloglog_slope(sweep, which)
        scale = 1e-12 * np.abs(y).max()  # floor for a value that is 0 on an exact line
        assert fit.slope == pytest.approx(slope, rel=1e-12, abs=scale)
        assert fit.intercept == pytest.approx(intercept, rel=1e-12, abs=scale)
        assert fit.residual == pytest.approx(residual, rel=1e-12, abs=scale)

    def test_unknown_series_name(self):
        with pytest.raises(ValueError):
            fit_preloglog_slope(synthetic_sweep(), "middle")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_names_its_row_and_log_snr(self, bad):
        for index in (0, 3, 5):
            sweep = synthetic_sweep()
            sweep.upper[index] = bad
            where = f"row {index}, upper = {bad!r} at log SNR {sweep.log_snr[index]!r} nats"
            with pytest.raises(ValueError) as raised:
                fit_preloglog_slope(sweep, "upper")
            assert str(raised.value) == f"cannot fit the slope of a non-finite bound: {where}"
            fit_preloglog_slope(sweep, "lower")

    @settings(max_examples=40, deadline=None)
    @given(
        slope=st.floats(min_value=-3.0, max_value=3.0),
        intercept=st.floats(min_value=-10.0, max_value=10.0),
    )
    def test_property_recovers_planted_line(self, slope, intercept):
        fit = fit_preloglog_slope(synthetic_sweep(num=7, slope=slope, intercept=intercept), "lower")
        assert fit.slope == pytest.approx(slope, abs=1e-9)
        assert fit.residual < 1e-9


class TestEmission:
    def test_single_point_csv_has_two_lines(self):
        text = emit(synthetic_sweep(num=1), "csv")
        assert len(text.strip().splitlines()) == 2
        assert text.splitlines()[0] == cli.CSV_HEADER

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            emit(sweep_of([]), "csv")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_round_trip_bit_exact(self, fmt):
        sweep, _ = run_sweep(DEMO)
        assert same_bits(parse_emitted(emit(sweep, fmt), fmt), sweep)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        # run_sweep emits only log SNR > 1 nat, where log log SNR > 0
        st.floats(min_value=1.0, exclude_min=True, allow_infinity=False),
    )
    @example(-0.0, 3.0)
    @example(5e-324, 3.0)  # the smallest subnormal
    @example(-2.225073858507201e-308, 3.0)  # the largest subnormal
    @example(1e300, 3.0)
    @example(-1e300, sys.float_info.max)
    @example(1.0, math.e)
    @example(-3.0, 1e300)
    @example(2.0**53, 3.0)
    @example(1e16, 3.0)  # integral, written in exponent form
    @example(5e-324, math.nextafter(1.0, 2.0))  # the smallest log log SNR
    @example(1e300, math.nextafter(1.0, 2.0))  # its ratios overflow to inf
    def test_property_csv_floats_round_trip(self, value, log_snr):
        """CSV round-trips every float; JSON is json.dumps' text byte for byte."""
        row = (log_snr, value, value / 3.0, 7)
        sweep = sweep_of([row])
        assert same_bits(parse_emitted(emit(sweep, "csv"), "csv"), sweep)
        sweep = sweep_of([row, (log_snr, -value, value / 3.0, 1024)])
        rows = list(sweep.rows())
        if not all(math.isfinite(v) for r in rows for v in r):
            with pytest.raises(ValueError, match="^cannot write a non-finite value as JSON: row 0, ratio_"):
                emit(sweep, "json")
            return
        expected = json.dumps([dict(zip(COLUMNS, r)) for r in rows], indent=2, sort_keys=True) + "\n"
        assert emit(sweep, "json") == expected
        assert same_bits(parse_emitted(emit(sweep, "json"), "json"), sweep)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_json_rejects_non_finite_and_writes_nothing(self, bad, tmp_path):
        # in the last point the bad value arrives after the other rows were written
        for index in (0, 3, 5):
            sweep = synthetic_sweep()
            sweep.lower[index] = bad
            message = f"^cannot write a non-finite value as JSON: row {index}, lower = {bad!r}$"
            with pytest.raises(ValueError, match=message):
                emit(sweep, "json")
            with pytest.raises(ValueError, match=message):
                write_outputs(sweep, {"schema": 1}, tmp_path / "sweep.json", "json")
            assert list(tmp_path.iterdir()) == [], index

    def test_json_output_validates_against_documented_schema(self):
        sweep, _ = run_sweep(DEMO)
        jsonschema.validate(json.loads(emit(sweep, "json")), OUTPUT_SCHEMA)

    def test_write_outputs_and_sidecar(self, tmp_path):
        sweep, metadata = run_sweep(DEMO)
        out = tmp_path / "sweep.csv"
        sidecar = write_outputs(sweep, metadata, out, "csv")
        assert out.exists() and sidecar.name == "sweep.csv.meta.json"
        meta = json.loads(sidecar.read_text())
        assert meta["constants_certified"] is False
        assert meta["config"] == sweep_config_to_dict(DEMO)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_write_memory_does_not_grow_with_the_output(self, fmt, tmp_path):
        # the 100 000-row JSON text alone is 24 MB
        sweep = synthetic_sweep(num=100_000, step=1e-4)
        out = tmp_path / f"sweep.{fmt}"
        tracemalloc.start()
        try:
            write_outputs(sweep, {"schema": 1}, out, fmt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert out.read_bytes() == emit(sweep, fmt).encode()

    def test_write_failure_carries_path_context(self, tmp_path):
        sweep, metadata = run_sweep(DEMO)
        missing = tmp_path / "no" / "such" / "dir" / "sweep.csv"
        with pytest.raises(OSError, match="sweep.csv"):
            write_outputs(sweep, metadata, missing, "csv")


class TestSweepMemory:
    def test_fixed_tau_sweep_peak_stays_below_the_boxed_rows(self, tmp_path):
        # 100 000 points as one object per point held 22.9 MiB; as the four
        # stored typed columns they take 3.2 MB, and writing streams row by
        # row, deriving the other three columns as it goes
        grid = GridSpec(log10_snr_start=20.0, log10_snr_stop=4.34e8, points=100_000)
        config = replace(DEMO, grid=grid, tau=8, output_format="json")
        tracemalloc.start()
        try:
            sweep, metadata = run_sweep(config)
            write_outputs(sweep, metadata, tmp_path / "sweep.json", "json")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(sweep) == 100_000
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.2f} MiB"


class TestVerifyMemory:
    def test_default_size_audit_peak_is_one_shard_array_and_chunks(self):
        # the largest audit sets the peak: the log-moment chunk, 7.51 MiB.  With
        # a second shard array for the deviations, each slot drawn whole, every
        # input column and tap innovation held and a 1024-row MI tile, 12.0 MiB
        cli.run_verification_suite(DEMO, samples_mi=2, samples_moments=2)  # lasting numpy and quadrature state
        tracemalloc.start()
        try:
            reports = cli.run_verification_suite(DEMO, samples_mi=10**5, samples_moments=10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(r.passed for r in reports)
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.2f} MiB"


class TestGoldenDemoSweep:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_demo_sweep_reproduces_golden_bytes(self, fmt, tmp_path):
        config = demo_config_with(tmp_path / "config.json", {("output_format",): fmt})
        out = tmp_path / f"demo_sweep.{fmt}"
        assert cli.main(["sweep", "--config", str(config), "--output", str(out)]) == 0
        for name in (out.name, out.name + ".meta.json"):
            assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name


class TestGoldenDemoVerify:
    # Odd budgets split into uneven shards; the 200 003 moment draws give
    # each shard more than one chunk, the last chunk partial. Repeated runs in
    # one process must each give the golden: no cache or stream state carries
    # over from one run to the next.
    @pytest.mark.parametrize("runs", [1, 3])
    def test_demo_verify_reproduces_golden_report(self, runs, tmp_path):
        argv = ["verify", "--config", str(REPO_CONFIG), "--samples-mi", "5001", "--samples-moments", "200003"]
        golden = (GOLDEN_DIR / "demo_verify.json").read_bytes()
        for run in range(runs):
            out = tmp_path / f"report{run}.json"
            assert cli.main(argv + ["--output", str(out)]) == 0
            assert out.read_bytes() == golden

    # The two edges of the log-moment audit's window of L + 1 = 3 inputs
    # reaching the block's last output: at log10_power 1 the scheme has
    # tau = 2, so the window opens on a guard zero; at 30 it has tau = 8, so
    # slots 1-5 are drawn and dropped before it.
    @pytest.mark.parametrize("edge, log10_power", [("guard", 1.0), ("dropped", 30.0)])
    def test_window_edge_reproduces_golden_report(self, edge, log10_power, tmp_path):
        config = demo_config_with(tmp_path / "config.json", {("channel", "log10_power"): log10_power})
        out = tmp_path / "report.json"
        argv = ["verify", "--config", str(config), "--samples-mi", "5001", "--samples-moments", "200003"]
        assert cli.main(argv + ["--output", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / f"demo_verify_{edge}.json").read_bytes()


class _RecordingEnviron(dict):
    """A copy of the environment that records every lookup of a FADECAP variable."""

    def __init__(self, environ):
        super().__init__(environ)
        self.fadecap_reads = []

    def _record(self, key):
        if key.startswith("FADECAP"):
            self.fadecap_reads.append(key)

    def __getitem__(self, key):
        self._record(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self._record(key)
        return super().__contains__(key)

    def get(self, key, default=None):
        self._record(key)
        return super().get(key, default)


class TestNoEnvironmentKnob:
    def test_commands_read_no_fadecap_variable(self, tmp_path, monkeypatch):
        environ = _RecordingEnviron(os.environ)
        monkeypatch.setattr(os, "environ", environ)
        config = ["--config", str(REPO_CONFIG)]
        for fmt in ("csv", "json"):
            fmt_config = demo_config_with(tmp_path / f"{fmt}.config.json", {("output_format",): fmt})
            out = tmp_path / f"demo_sweep.{fmt}"
            assert cli.main(["sweep", "--config", str(fmt_config), "--output", str(out)]) == 0
            for name in (out.name, out.name + ".meta.json"):
                assert (tmp_path / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name
        assert cli.main(["stats", *config]) == 0
        assert cli.main(["verify", *config, "--samples-mi", "200", "--samples-moments", "200"]) == 0
        assert environ.fadecap_reads == []


class TestMainEntry:
    def test_sweep_reproducible_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["sweep", "--config", str(REPO_CONFIG), "--output", str(out_a)]) == 0
        assert cli.main(["sweep", "--config", str(REPO_CONFIG), "--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (tmp_path / "a.csv.meta.json").read_bytes() == (tmp_path / "b.csv.meta.json").read_bytes()

    def test_printed_fits_equal_polyfit_of_the_golden_csv(self, tmp_path, capsys):
        assert cli.main(["sweep", "--config", str(REPO_CONFIG), "--output", str(tmp_path / "s.csv")]) == 0
        printed = capsys.readouterr().out.splitlines()
        header, *lines = (GOLDEN_DIR / "demo_sweep.csv").read_text().splitlines()
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        x = np.array([float(row["loglog_snr"]) for row in rows])
        sweep, _ = run_sweep(DEMO)
        expected = []
        for which in ("upper", "lower"):
            y = np.array([float(row[which]) for row in rows])
            slope, intercept = np.polyfit(x, y, 1)
            residual = np.sqrt(np.mean((y - (slope * x + intercept)) ** 2))
            expected.append(f"{which}: slope {slope:.6f}, intercept {intercept:.6f}, rms residual {residual:.3g}")
            fit = fit_preloglog_slope(sweep, which)
            assert fit.slope == pytest.approx(slope, rel=1e-12)
            assert fit.intercept == pytest.approx(intercept, rel=1e-12)
            assert fit.residual == pytest.approx(residual, rel=1e-12)
        assert printed[:2] == expected == [
            "upper: slope 0.891954, intercept 2.600276, rms residual 0.0217",
            "lower: slope 0.629546, intercept -1.917210, rms residual 0.0271",
        ]

    def test_large_tap_variance_sweeps_cleanly(self):
        # upper is about alpha_0 = 1e200, so the squares of its misfits overflow but their rms does not
        raw = copy.deepcopy(DEMO_RAW)
        raw["channel"]["paths"][0]["alpha"] = 1e200
        rc, err, files = run_sweep_cli(json.dumps(raw))
        assert (rc, err, files) == (0, "", ["sweep.csv", "sweep.csv.meta.json"])
        residual = fit_preloglog_slope(run_sweep(sweep_config_from_dict(raw))[0], "upper").residual
        assert 1e196 < residual < math.inf

    def test_demo_script_fits_before_writing(self, tmp_path, monkeypatch, capsys):
        # the largest grid stop: the upper bound overflows to inf at the last of 19 points
        config = demo_config_with(tmp_path / "config.json", {("grid", "log10_snr_stop"): MAX_GRID_STOP})
        outdir = tmp_path / "out"
        outdir.mkdir()
        script = runpy.run_path(str(REPO_CONFIG.parent.parent / "scripts" / "run_demo_sweep.py"))
        monkeypatch.setattr(sys, "argv", ["run_demo_sweep.py", "--config", str(config), "--outdir", str(outdir)])
        assert script["main"]() == 1
        where = f"row 18, upper = inf at log SNR {MAX_GRID_STOP * LOG10!r} nats"
        assert capsys.readouterr().err == f"error: cannot fit the slope of a non-finite bound: {where}\n"
        assert list(outdir.iterdir()) == []

    # The next four tests set a config key in a copy of the demo config.
    def test_sweep_json_output_format_key(self, tmp_path):
        config = demo_config_with(tmp_path / "config.json", {("output_format",): "json"})
        out = tmp_path / "sweep.json"
        assert cli.main(["sweep", "--config", str(config), "--output", str(out)]) == 0
        jsonschema.validate(json.loads(out.read_text()), OUTPUT_SCHEMA)

    def test_sweep_xi_key_changes_bound(self, tmp_path):
        config = demo_config_with(tmp_path / "config.json", {("bounds", "xi"): 1.0})
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["sweep", "--config", str(REPO_CONFIG), "--output", str(out_a)]) == 0
        assert cli.main(["sweep", "--config", str(config), "--output", str(out_b)]) == 0
        pa = parse_emitted(out_a.read_text(), "csv")
        pb = parse_emitted(out_b.read_text(), "csv")
        assert all(b > a for a, b in zip(pa.upper, pb.upper))  # xi=1 is far off-optimum here

    @pytest.mark.parametrize(
        "value, echo_path",
        [
            (0.5, ("bounds", "delta")),
            (0.8, ("bounds", "eta")),
            (0.1, ("bounds", "eps_const")),
            (1.0, ("bounds", "xi")),
            (2, ("tau_max",)),  # the demo grid's tau* reaches 4, so 2 binds
        ],
        ids=lambda v: ".".join(v) if isinstance(v, tuple) else None,
    )
    def test_sweep_config_key_is_echoed_and_applied(self, tmp_path, value, echo_path):
        config = demo_config_with(tmp_path / "config.json", {echo_path: value})
        base, out = tmp_path / "base.csv", tmp_path / "key.csv"
        assert cli.main(["sweep", "--config", str(REPO_CONFIG), "--output", str(base)]) == 0
        assert cli.main(["sweep", "--config", str(config), "--output", str(out)]) == 0
        meta = json.loads((tmp_path / "key.csv.meta.json").read_text())
        assert _at(meta["config"], echo_path) == value
        if echo_path == ("tau_max",):
            assert max(parse_emitted(out.read_text(), "csv").tau_star) == value
        else:
            # the bound parameters only enter the upper bound
            lower = [[line.split(",")[2] for line in path.read_text().splitlines()] for path in (base, out)]
            assert lower[0] == lower[1]

    def test_sweep_fixed_tau_key(self, tmp_path):
        config = demo_config_with(tmp_path / "config.json", {("tau",): 8})
        out = tmp_path / "fixed.csv"
        assert cli.main(["sweep", "--config", str(config), "--output", str(out)]) == 0
        sweep = parse_emitted(out.read_text(), "csv")
        assert all(tau == 8 for tau in sweep.tau_star)
        dstats = DirectStats.from_config(DEMO.channel)
        from fadecap.direct import lower_bound

        assert sweep.lower[-1] == lower_bound(sweep.log_snr[-1], 8, dstats)
        meta = json.loads((tmp_path / "fixed.csv.meta.json").read_text())
        assert meta["config"]["tau"] == 8

    def test_stats_subcommand(self, capsys):
        assert cli.main(["stats", "--config", str(REPO_CONFIG)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["paths"]) == 3
        assert payload["alpha_total"] == pytest.approx(1.75)
        assert payload["constants_certified"] is False

    def test_verify_subcommand_quick(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = cli.main(
            [
                "verify",
                "--config", str(REPO_CONFIG),
                "--samples-mi", "5000",
                "--samples-moments", "20000",
                "--output", str(report_path),
            ]
        )
        assert rc == 0
        reports = cli.run_verification_suite(DEMO, samples_mi=5000, samples_moments=20000)
        expected = json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True) + "\n"
        assert report_path.read_text() == expected
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
        assert all(r.passed for r in reports)
        assert set(reports[0].to_dict()) == {"check", "lhs", "rhs", "std_error", "pass"}

    def test_verify_output_into_missing_directory_fails_cleanly(self, tmp_path, capsys):
        report_path = tmp_path / "no" / "such" / "report.json"
        argv = ["verify", "--config", str(REPO_CONFIG), "--samples-mi", "200", "--samples-moments", "200"]
        assert cli.main(argv + ["--output", str(report_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "report.json" in err, err
        assert list(tmp_path.iterdir()) == []

    def test_verify_non_finite_report_value_fails_cleanly(self, tmp_path, capsys, monkeypatch):
        # JSON has no NaN: the report is not written, and the error names the check
        reports = [CheckReport("finite", 1.0, 1.0, 0.0, True), CheckReport("not_finite", 1.0, 1.0, math.nan, False)]
        monkeypatch.setattr(cli, "run_verification_suite", lambda *args: reports)
        report_path = tmp_path / "report.json"
        assert cli.main(["verify", "--config", str(REPO_CONFIG), "--output", str(report_path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: cannot write a non-finite value as JSON: check not_finite\n", err
        assert list(tmp_path.iterdir()) == []

    def test_import_leaves_unused_scipy_subpackages_out(self, tmp_path):
        # scipy is a test-only reference: importing fadecap loads none of it,
        # and a sweep and an audit run with every scipy import blocked.
        # numpy is loaded only by the audit: importing fadecap.cli loads none
        # of it, and sweep and stats run with numpy blocked too. verify with
        # numpy blocked is a one-line error that writes no report, and verify
        # imports numpy once it is unblocked. The records are not dataclasses,
        # so the import adds neither dataclasses nor the inspect and ast it loads.
        # The numpy layer (fadecap.oracle and fadecap.channel) is first loaded
        # by verify, and argparse by main, so neither importing fadecap nor
        # importing fadecap.cli adds any of them, and fadecap.cli loads only
        # the standard-library core of the package.
        probe = (
            "import contextlib, importlib, io, json, sys\n"
            "unused = ('numpy', 'scipy', 'dataclasses', 'inspect', 'ast', 'argparse', 'fadecap.oracle', 'fadecap.channel')\n"
            "before, loaded = set(sys.modules), {}\n"
            "for name in ('fadecap', 'fadecap.cli'):\n"
            "    importlib.import_module(name)\n"
            "    loaded[name] = sorted(m for m in set(sys.modules) - before if m in unused or m.split('.')[0] in unused)\n"
            "cli = sys.modules['fadecap.cli']\n"
            "package = sorted(m for m in sys.modules if m.split('.')[0] == 'fadecap')\n"
            "sys.modules['scipy'] = sys.modules['numpy'] = None\n"
            "no_numpy, audit, report = json.loads(sys.argv[1])\n"
            "codes = [cli.main(argv) for argv in no_numpy]\n"
            "with contextlib.redirect_stderr(io.StringIO()) as err:\n"
            "    codes.append(cli.main(audit + ['--output', report]))\n"
            "del sys.modules['numpy']\n"
            "codes.append(cli.main(audit))\n"
            "audit_loaded = 'fadecap.oracle' in sys.modules\n"
            "print(json.dumps({'loaded': loaded, 'package': package, 'codes': codes, 'audit_loaded': audit_loaded,"
            " 'stderr': err.getvalue()}))\n"
        )
        json_config = demo_config_with(tmp_path / "config.json", {("output_format",): "json"})
        runs = [
            [
                ["sweep", "--config", str(REPO_CONFIG), "--output", str(tmp_path / "sweep.csv")],
                ["sweep", "--config", str(json_config), "--output", str(tmp_path / "sweep.json")],
                ["stats", "--config", str(REPO_CONFIG)],
            ],
            ["verify", "--config", str(REPO_CONFIG), "--samples-mi", "200", "--samples-moments", "200"],
            str(tmp_path / "report.json"),
        ]
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run(
            [sys.executable, "-c", probe, json.dumps(runs)], env=env, capture_output=True, text=True, check=True
        )
        result = json.loads(run.stdout.splitlines()[-1])
        stderr = result.pop("stderr").splitlines()
        assert result == {
            "loaded": {"fadecap": [], "fadecap.cli": []},
            "package": [f"fadecap{m}" for m in ("", ".cli", ".config", ".converse", ".direct", ".fading", ".record")],
            "codes": [0, 0, 0, 1, 0],
            "audit_loaded": True,
        }, run.stderr
        assert len(stderr) == 1 and stderr[0].startswith("error: verify needs numpy"), stderr
        assert not (tmp_path / "report.json").exists()

    def test_audit_names_resolve_on_first_access(self):
        # cli serves the oracle names its audit calls without importing oracle
        # up front; the package root serves none of the numpy layer's names,
        # and any other missing name is an AttributeError naming it
        oracle = importlib.import_module("fadecap.oracle")
        served = [
            "CheckReport",
            "check_audit_power",
            "entropy_rate_szego",
            "lemma_mi_lower_bound",
            "mc_block_power",
            "mc_log_gain",
            "mi_scalar_gaussian",
            "verify_log_moment_bounds",
        ]
        for name in served:
            assert getattr(cli, name) is getattr(oracle, name), name
        with pytest.raises(AttributeError, match="^module 'fadecap' has no attribute 'mc_log_gain'$"):
            fadecap.mc_log_gain  # noqa: B018
        with pytest.raises(ImportError, match="cannot import name 'McEstimate' from 'fadecap'"):
            from fadecap import McEstimate  # noqa: F401
        for module in (fadecap, cli):
            with pytest.raises(AttributeError, match="no_such_name"):
                module.no_such_name  # noqa: B018

    def test_every_package_export_is_the_object_that_defines_it(self):
        # the package root binds the standard-library core and nothing else;
        # each of the numpy layer's names is imported from the module that
        # defines it, and the root has no attribute of that name
        core = {
            "config": ["BoundParams", "ChannelConfig", "aggregate_gain", "snr_of"],
            "converse": ["ConverseStats", "jensen_cap", "optimize_xi", "psi", "upper_bound", "upsilon", "xi_default"],
            "direct": [
                "DirectStats",
                "LogUniformX2",
                "SchemeParams",
                "log_block_average_power",
                "lower_bound",
                "optimize_tau",
                "schedule_is_valid",
                "sharp_slot_bound",
                "xi_p",
            ],
            "fading": ["EULER_GAMMA", "GaussianTap", "PathStats", "stats_of"],
        }
        numpy_layer = {
            "channel": ["ChannelRealization", "realize_many", "sample_paths", "simulate", "substream"],
            "oracle": [
                "CheckReport",
                "McEstimate",
                "entropy_rate_szego",
                "lemma_mi_lower_bound",
                "mc_block_power",
                "mc_log_gain",
                "mi_scalar_gaussian",
                "verify_log_moment_bounds",
            ],
        }
        for module, names in core.items():
            defining = importlib.import_module(f"fadecap.{module}")
            for name in names:
                assert vars(fadecap)[name] is getattr(defining, name), name
        exported = [
            name
            for name, value in vars(fadecap).items()
            if not name.startswith("_") and not isinstance(value, type(fadecap))
        ]
        assert sorted(exported) == sorted(name for names in core.values() for name in names)
        for module, names in numpy_layer.items():
            defining = importlib.import_module(f"fadecap.{module}")
            for name in names:
                assert getattr(defining, name).__module__ == f"fadecap.{module}", name
                with pytest.raises(AttributeError, match=f"^module 'fadecap' has no attribute {name!r}$"):
                    getattr(fadecap, name)
        with pytest.raises(AttributeError, match="module 'fadecap' has no attribute 'no_such_name'"):
            fadecap.no_such_name  # noqa: B018

    def test_bad_config_is_a_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 1, "grid": {}}))
        assert cli.main(["sweep", "--config", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


class TestOptionSets:
    # every setting of a run comes from --config; the options left are the
    # output path and verify's sample sizes
    @pytest.mark.parametrize(
        "command, options",
        [
            ("sweep", {"--config", "--output"}),
            ("verify", {"--config", "--samples-mi", "--samples-moments", "--output"}),
            ("stats", {"--config"}),
        ],
    )
    def test_each_subcommand_takes_only_its_options(self, command, options, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, "--help"])
        assert exit_info.value.code == 0
        assert set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) == options | {"--help"}


def verify_config(tmp_path, changes):
    """The demo config with ``changes``, written to ``tmp_path`` and loaded."""
    return load_config(demo_config_with(tmp_path / "config.json", changes))


class TestAuditCallsThroughCli:
    # perfbench's tracer counts an audit call only if the call goes through the
    # name bound in fadecap.cli: it reads each name there and sets a wrapper over it
    CALLS = {"mc_log_gain": 3, "mc_block_power": 1, "mi_scalar_gaussian": 1, "verify_log_moment_bounds": 1}

    def test_wrappers_bound_in_cli_are_what_the_suite_calls(self, monkeypatch):
        budget = {"samples_mi": 5001, "samples_moments": 20000}
        plain = cli.run_verification_suite(DEMO, **budget)
        calls = dict.fromkeys(self.CALLS, 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in self.CALLS:  # unbound, as after a fresh import, so getattr binds them
            monkeypatch.delitem(vars(cli), name, raising=False)
        for name in self.CALLS:
            monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
        assert cli.run_verification_suite(DEMO, **budget) == plain
        assert calls == self.CALLS


class TestAuditPowerRange:
    # Unchecked, the sums of squares of |Y_k|^2 over 20 000 draws overflow
    # float64 from about log10 P = 153: std_error comes out inf (a vacuous
    # pass) or nan (a fail), and at 400 math.exp(log P) overflows.
    @pytest.mark.parametrize("log10_power", [154.0, 160.0, 400.0])
    def test_unrepresentable_power_fails_cleanly(self, log10_power, tmp_path, capsys):
        config = demo_config_with(tmp_path / "config.json", {("channel", "log10_power"): log10_power})
        report = tmp_path / "report.json"
        argv = ["verify", "--config", str(config), "--samples-mi", "200", "--samples-moments", "20000"]
        assert cli.main(argv + ["--output", str(report)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: log10_power") and err.count("\n") == 1 and "20000 draws" in err, err
        assert not report.exists()

    def test_inadmissible_power_fails_before_any_draw(self, tmp_path, capsys, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("verify drew before it checked the scheme's power")

        for audit in ("mc_log_gain", "mc_block_power", "verify_log_moment_bounds", "mi_scalar_gaussian"):
            monkeypatch.setattr(cli, audit, no_draws)
        config = demo_config_with(tmp_path / "config.json", {("channel", "log10_power"): 0.0})
        report = tmp_path / "report.json"
        assert cli.main(["verify", "--config", str(config), "--output", str(report)]) == 1
        err = capsys.readouterr().err
        assert err == "error: no admissible scheme at the configured power (log10 P = 0); raise the channel power\n"
        assert not report.exists()

    def test_power_below_the_limit_gives_finite_reports(self, tmp_path):
        config = verify_config(tmp_path, {("channel", "log10_power"): 150.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow in the sums would warn
            reports = cli.run_verification_suite(config, samples_mi=200, samples_moments=20000)
        values = [v for r in reports for v in (r.lhs, r.rhs, r.std_error)]
        assert all(map(math.isfinite, values)) and all(r.passed for r in reports)


class TestReadmeExampleChannel:
    # the README schema example's channel has one tap of each kind
    def test_every_path_kind_through_verify_and_stats(self, tmp_path, capsys):
        example = README.read_text().split("```json\n", 1)[1].split("```", 1)[0]
        config_path = tmp_path / "readme.json"
        config_path.write_text(example)
        config = load_config(config_path)
        assert config.channel.path_specs == (GaussianTap(1.0, 0.5), GaussianTap(0.5), GaussianTap(0.0))
        reports = cli.run_verification_suite(config, samples_mi=5000, samples_moments=20000)
        checks = [r.check for r in reports]
        assert {"mean_log_gain_path_1", "entropy_rate_path_1", "mean_log_gain_path_0"} <= set(checks)
        assert not [check for check in checks if check.endswith("_path_2")], checks
        assert all(r.passed for r in reports), [r for r in reports if not r.passed]
        assert cli.main(["stats", "--config", str(config_path)]) == 0
        paths = json.loads(capsys.readouterr().out)["paths"]
        assert [path["active"] for path in paths] == [True, True, False]


class TestReadmeLibraryExample:
    def test_runs_without_numpy(self):
        # README's one python block, run as it stands: a renamed library name breaks it here
        example = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
        probe = example + "import sys\nprint(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'))\n"
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        printed, numpy_modules = run.stdout.splitlines()
        assert numpy_modules == "[]", run.stdout
        upper, lower, tau, loglog_snr = printed.split()
        assert float(upper) > float(lower) and int(tau) >= 1 and float(loglog_snr) == math.log(100.0)


class TestSlowFadingEntropyRate:
    def test_slow_fading_path_passes(self, tmp_path):
        # the fixed 2^16-point grid was 2.2e-5 off here, beyond the check's 1e-5
        config = verify_config(tmp_path, {("channel", "paths", 0, "a_re"): 0.99999})
        reports = cli.run_verification_suite(config, samples_mi=200, samples_moments=200)
        (entropy,) = [r for r in reports if r.check == "entropy_rate_path_0"]
        assert entropy.passed and abs(entropy.lhs - entropy.rhs) < 1e-6

    def test_unresolvable_peak_names_the_path(self, tmp_path, capsys):
        config = demo_config_with(tmp_path / "config.json", {("channel", "paths", 1, "a_re"): 0.9999999})
        argv = ["verify", "--config", str(config), "--samples-mi", "200", "--samples-moments", "200"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: entropy_rate_path_1:") and err.count("\n") == 1, err


RAW_1E400 = "__raw_1e400__"  # written into the config text as the literal 1e400


def _key_paths(node, prefix=()):
    """Key path of every value below the config root."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _key_paths(child, prefix + (key,))


def _at(raw, path):
    for key in path:
        raw = raw[key]
    return raw


KEY_PATHS = list(_key_paths(DEMO_RAW))
SECTIONS = [path for path in KEY_PATHS if isinstance(_at(DEMO_RAW, path), (dict, list))]


def _field_tables(raw, prefix=(), table=fadecap.config.CONFIG_FIELDS):
    """(key path, field table) of every section of ``raw``, as ``fadecap.config`` reads it:
    the root, each object section by its ``<KEY>_FIELDS`` and each path by its kind's fields."""
    yield prefix, table
    for key, (kind, _) in table.items():
        if kind is dict:
            yield from _field_tables(raw, prefix + (key,), getattr(fadecap.config, f"{key.upper()}_FIELDS"))
        elif kind is list:
            for i, path in enumerate(_at(raw, prefix + (key,))):
                path_fields = {"kind": (str, fadecap.config.REQUIRED), **fadecap.config._PATH_FIELDS[path["kind"]]}
                yield prefix + (key, i), path_fields


# every count (kind int) and every required key of the field tables, so a new key is probed too
FIELDS = [
    (prefix + (key,), kind, default)
    for prefix, table in _field_tables(DEMO_RAW)
    for key, (kind, default) in table.items()
]
COUNTS = [path for path, kind, _ in FIELDS if kind is int]
REQUIRED_KEYS = [path for path, _, default in FIELDS if default is fadecap.config.REQUIRED]


def malformed(mutation):
    """The demo config text with one mutation applied; every mutation is invalid."""
    action, path = mutation
    raw = copy.deepcopy(DEMO_RAW)
    parent = _at(raw, path[:-1])
    if action == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = action
    return json.dumps(raw).replace(f'"{RAW_1E400}"', "1e400")


def run_sweep_cli(config_text):
    """(exit code, stderr, files left in the output directory) of one sweep."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(config_text)
        outdir = Path(tmp) / "out"
        outdir.mkdir()
        err = io.StringIO()
        with (
            contextlib.redirect_stderr(err),
            contextlib.redirect_stdout(io.StringIO()),
            warnings.catch_warnings(),
        ):
            warnings.simplefilter("error")  # a warning would be a second stderr line
            rc = cli.main(["sweep", "--config", str(config), "--output", str(outdir / "sweep.csv")])
        return rc, err.getvalue(), sorted(p.name for p in outdir.iterdir())


class TestMalformedConfig:
    @pytest.mark.parametrize(
        "mutation, field",
        [
            (("delete", ("channel", "paths", 0, "alpha")), "channel.paths[0]"),
            (("delete", ("channel", "noise_variance")), "noise_variance"),
            ((None, ("bounds",)), "bounds"),
            ((2.7, ("grid", "points")), "grid.points"),
            ((2, ("grid", "points")), "at least 3 points"),
            ((RAW_1E400, ("grid", "log10_snr_stop")), "grid.log10_snr_stop"),
            (("x", ("grid",)), "config.grid"),
            ((True, ("tau",)), "config.tau"),
            (([], ("channel", "paths", 1, "kind")), "channel.paths[1].kind"),  # unhashable
            ((2, ("bounds", "xi")), "xi must lie in (0, 1], got 2.0"),
        ],
    )
    def test_named_probe_fails_cleanly(self, mutation, field):
        rc, err, files = run_sweep_cli(malformed(mutation))
        assert (rc, files) == (1, [])
        assert err.startswith("error:") and err.count("\n") == 1 and field in err, err

    @pytest.mark.parametrize(
        "path, tap, message",
        [
            (2, {"kind": "iid", "alpha": 0}, "channel.paths[2].alpha must be positive and finite, got 0.0"),
            (
                1,
                {"kind": "ar1", "alpha": 0.5, "a_re": 0.5, "a_im": 0.9},
                "channel.paths[1]: |a| must be below 1 for stationarity, got |a| = 1.0295630140987",
            ),
        ],
    )
    def test_a_tap_outside_its_domain_is_named_by_its_path(self, path, tap, message):
        raw = copy.deepcopy(DEMO_RAW)
        raw["channel"]["paths"][path] = tap
        rc, err, files = run_sweep_cli(json.dumps(raw))
        assert (rc, files) == (1, [])
        assert err == f"error: {message}\n", err

    def test_overflowing_upper_bound_names_its_row_and_writes_nothing(self):
        # the largest grid stop: the upper bound overflows to inf at the last of 19 points
        raw = copy.deepcopy(DEMO_RAW)
        raw["tau"], raw["grid"]["log10_snr_stop"] = 8, MAX_GRID_STOP
        rc, err, files = run_sweep_cli(json.dumps(raw))
        assert (rc, files) == (1, [])
        where = f"row 18, upper = inf at log SNR {MAX_GRID_STOP * LOG10!r} nats"
        assert err == f"error: cannot fit the slope of a non-finite bound: {where}\n", err

    def test_inadmissible_fixed_tau_is_one_error_line_and_writes_nothing(self):
        # tau = 50 at the demo grid's first point, log P = 20 log 10: P^(1/50) <= log P
        raw = copy.deepcopy(DEMO_RAW)
        raw["tau"] = 50
        rc, err, files = run_sweep_cli(json.dumps(raw))
        assert (rc, files) == (1, [])
        assert err == (
            "error: schedule inversion at tau = 50: P^(1/tau) <= log P "
            "(log P / tau = 0.921034 <= log log P = 3.82976)\n"
        ), err

    @pytest.mark.parametrize("flag", ["--samples-mi", "--samples-moments"])
    @pytest.mark.parametrize("count", ["0", "-5", "1"])
    def test_verify_sample_count_below_two_fails_cleanly(self, flag, count, tmp_path, capsys):
        report = tmp_path / "report.json"
        argv = ["verify", "--config", str(REPO_CONFIG), flag, count, "--output", str(report)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and flag in err, err
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            st.tuples(st.just("delete"), st.sampled_from(REQUIRED_KEYS)),
            st.tuples(st.none(), st.sampled_from(SECTIONS)),
            st.tuples(
                st.sampled_from(["x", True, False, RAW_1E400, math.nan]), st.sampled_from(KEY_PATHS)
            ),
            st.tuples(st.just(2.7), st.sampled_from(COUNTS)),
        )
    )
    def test_any_malformed_config_is_one_error_line_and_no_files(self, mutation):
        rc, err, files = run_sweep_cli(malformed(mutation))
        assert (rc, files) == (1, [])
        assert err.startswith("error:") and err.count("\n") == 1, err

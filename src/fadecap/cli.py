"""Config ingestion, SNR sweeps, pre-loglog slope fits and output emission.

This module only orchestrates the bound evaluators and oracles; it never
re-derives a formula.  Sweep outputs are deterministic functions of the
config (grid points are independent and evaluated in grid order), so two
runs with the same config and seed produce byte-identical files.

``sweep`` and ``stats`` run on the standard library alone.  The audit layer
is first loaded by ``verify``: ``oracle``, and numpy through it.  The oracle
names that ``run_verification_suite`` calls are bound into this module's
globals on first access (PEP 562), so they can be read or replaced here
before any audit has run, and the suite calls whatever they hold.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
from array import array
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import __version__
from .config import SCHEMA_VERSION, SweepConfig, snr_of, sweep_config_from_dict, sweep_config_to_dict
from .converse import CONSTANTS_CERTIFIED, ConverseStats, upper_bound
from .direct import (
    DirectStats,
    LogUniformX2,
    SchemeParams,
    lemma_mi_lower_bound,
    log_block_average_power,
    lower_bound,
    optimize_tau,
    schedule_is_valid,
)
from .fading import LOG10, entropy_rate_szego, spectral_density, stats_of
from .record import Record, asdict
from .streams import _SHARDS

if TYPE_CHECKING:
    from .oracle import CheckReport

SAMPLES_MI = 100_000  # default outer draws of the mutual-information oracle
SAMPLES_MOMENTS = 1_000_000  # default draws of every other Monte Carlo audit


class Sweep(Record):
    """The grid points in grid order as typed columns, 8 bytes per value.

    Floats are ``array('d')`` (``tau_star`` is ``array('q')``), so an element
    reads back as the float that was stored; rates are in nats per channel use.
    Only what the bounds compute is stored; ``rows()`` derives the rest.
    """

    log_snr: array
    upper: array
    lower: array
    tau_star: array

    def __len__(self) -> int:
        return len(self.log_snr)

    def rows(self) -> Iterator[tuple]:
        """One tuple per grid point, in ``CSV_HEADER`` order: the stored values,
        then ``loglog_snr = log(log_snr)`` and each bound divided by it."""
        for log_snr, upper, lower, tau in zip(self.log_snr, self.upper, self.lower, self.tau_star, strict=True):
            loglog = math.log(log_snr)
            yield log_snr, upper, lower, tau, loglog, upper / loglog, lower / loglog


COLUMNS = ("log_snr", "upper", "lower", "tau_star", "loglog_snr", "ratio_upper", "ratio_lower")
CSV_HEADER = ",".join(COLUMNS)


def load_config(path) -> SweepConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return sweep_config_from_dict(json.load(handle))


def run_sweep(config: SweepConfig) -> Tuple[Sweep, dict]:
    """Evaluate both bounds on the grid; returns the sweep and a metadata echo."""
    if config.grid.log10_snr_start * LOG10 <= 1.0:
        raise ValueError(
            "grid contains SNR <= e, outside the domain of log log SNR; "
            "raise log10_snr_start above 1/ln(10) ~= 0.4343"
        )
    cstats = ConverseStats.from_config(config.channel)
    dstats = DirectStats.from_config(config.channel)
    log_snrs = config.grid.log_snr_values()
    upper, lower, tau_star = array("d"), array("d"), array("q")
    for log_snr in log_snrs:
        upper.append(upper_bound(log_snr, cstats, config.bound_params))
        if config.tau is None:
            tau, rate = optimize_tau(log_snr, dstats, config.tau_max)
        else:
            tau, rate = config.tau, lower_bound(log_snr, config.tau, dstats)
        tau_star.append(tau)
        lower.append(rate)
    sweep = Sweep(log_snrs, upper, lower, tau_star)
    metadata = {
        "schema": SCHEMA_VERSION,
        "version": __version__,
        "seed": config.seed,
        "constants_certified": CONSTANTS_CERTIFIED,
        # perfbench/golden.json pins this sidecar's SHA-256, recorded with the
        # audit's fixed shard count here; ROADMAP items 1 and 3 drop the key.
        "workers": _SHARDS,
        "config": sweep_config_to_dict(config),
    }
    return sweep, metadata


class SlopeFit(Record):
    slope: float
    intercept: float
    residual: float


def fit_preloglog_slope(sweep: Sweep, which: str) -> SlopeFit:
    """Ordinary least squares of a bound against log log SNR.

    The sums are taken about the means and each is rounded once
    (``math.fsum``).  ``residual`` is the root-mean-square misfit; a perfect
    pre-loglog line has slope 1 and residual 0.  A non-finite bound value is
    rejected with one line naming its 0-based row and log SNR.
    """
    if which not in ("upper", "lower"):
        raise ValueError(f"which must be 'upper' or 'lower', got {which!r}")
    n = len(sweep)
    if n < 3:
        raise ValueError(f"need at least 3 points for a slope fit, got {n}")
    x, y = array("d", map(math.log, sweep.log_snr)), getattr(sweep, which)
    bad = next((i for i, v in enumerate(y) if not math.isfinite(v)), None)
    if bad is not None:
        where = f"row {bad}, {which} = {y[bad]!r} at log SNR {sweep.log_snr[bad]!r} nats"
        raise ValueError(f"cannot fit the slope of a non-finite bound: {where}")
    if max(x) == min(x):
        raise ValueError("degenerate grid: all log log SNR values coincide")
    x_mean, y_mean = math.fsum(x) / n, math.fsum(y) / n
    sxx = math.fsum((u - x_mean) ** 2 for u in x)
    sxy = math.fsum((u - x_mean) * (v - y_mean) for u, v in zip(x, y))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    sse = math.fsum((v - (slope * u + intercept)) ** 2 for u, v in zip(x, y))
    return SlopeFit(slope=slope, intercept=intercept, residual=math.sqrt(sse / n))


def emit(sweep: Sweep, output_format: str) -> str:
    """Render the sweep as CSV (17 significant digits) or JSON.

    The JSON text is ``json.dumps([dict(zip(COLUMNS, row)) for row in
    sweep.rows()], indent=2, sort_keys=True) + "\\n"`` byte for byte, rendered
    from one template per row: the keys in sorted order and every float
    through ``float.__repr__``, which is how ``json`` writes floats.  ``json``
    would write a non-finite float as ``NaN`` or ``Infinity``, which is not
    JSON, so such a value is rejected instead, naming its 0-based row.
    """
    return "".join(_pieces(sweep, output_format))


def _pieces(sweep: Sweep, output_format: str) -> Iterator[str]:
    """The text of ``emit``, one header, row or framing piece at a time."""
    if not len(sweep):
        raise ValueError("nothing to emit: no sweep points")
    if output_format == "csv":
        yield CSV_HEADER + "\n"
        for log_snr, upper, lower, tau, loglog, ratio_upper, ratio_lower in sweep.rows():
            yield (
                f"{log_snr:.17g},{upper:.17g},{lower:.17g},{tau},"
                f"{loglog:.17g},{ratio_upper:.17g},{ratio_lower:.17g}\n"
            )
    elif output_format == "json":
        finite = math.isfinite
        separator = "[\n"
        for i, row in enumerate(sweep.rows()):
            if not all(map(finite, row)):
                name, value = next((n, v) for n, v in zip(COLUMNS, row) if not finite(v))
                raise ValueError(f"cannot write a non-finite value as JSON: row {i}, {name} = {value!r}")
            log_snr, upper, lower, tau, loglog, ratio_upper, ratio_lower = row
            yield (
                f'{separator}  {{\n    "log_snr": {log_snr!r},\n    "loglog_snr": {loglog!r},\n'
                f'    "lower": {lower!r},\n    "ratio_lower": {ratio_lower!r},\n'
                f'    "ratio_upper": {ratio_upper!r},\n    "tau_star": {tau:d},\n'
                f'    "upper": {upper!r}\n  }}'
            )
            separator = ",\n"
        yield "\n]\n"
    else:
        raise ValueError(f"output format must be 'csv' or 'json', got {output_format!r}")


def write_outputs(sweep: Sweep, metadata: dict, out_path, output_format: str) -> Path:
    """Write the data file and its JSON metadata sidecar; returns the sidecar path.

    The data file is written row by row, so writing it adds no memory in
    proportion to the size of the output.  Both files are written under
    temporary names in the target directory and then renamed into place, so
    a failure leaves no partial or temporary file.
    """
    out_path = Path(out_path)
    sidecar = out_path.with_name(out_path.name + ".meta.json")
    _write_atomically(
        {
            out_path: _pieces(sweep, output_format),
            sidecar: [json.dumps(metadata, indent=2, sort_keys=True) + "\n"],
        },
        f"sweep output near {out_path}",
    )
    return sidecar


def _write_atomically(pieces_by_target: Dict[Path, Iterable[str]], description: str) -> None:
    """Write each target's text pieces, then rename every target into place.

    Each file is written under a temporary name in its target's directory, and
    only once all are complete are they renamed, so an error (including one
    raised by a piece iterator partway through a file) leaves no partial or
    temporary file.  A write error is re-raised as an ``OSError`` naming
    ``description``.
    """
    temps = {target: target.with_name(f".{target.name}.{os.getpid()}.tmp") for target in pieces_by_target}
    try:
        for target, pieces in pieces_by_target.items():
            with open(temps[target], "w", encoding="utf-8") as handle:
                handle.writelines(pieces)
        for target, temp in temps.items():
            os.replace(temp, target)
    except OSError as err:
        raise OSError(f"failed writing {description}: {err}") from err
    finally:
        for temp in temps.values():
            with contextlib.suppress(OSError):
                temp.unlink()


_ORACLE_NAMES = (
    "CheckReport",
    "check_audit_power",
    "mc_block_power",
    "mc_log_gain",
    "mi_scalar_gaussian",
    "verify_log_moment_bounds",
)


def _bind_oracle() -> None:
    """Bind each of ``_ORACLE_NAMES`` not yet bound here to ``oracle``'s."""
    from . import oracle

    for name in _ORACLE_NAMES:
        globals().setdefault(name, getattr(oracle, name))


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        _bind_oracle()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def run_verification_suite(
    config: SweepConfig,
    samples_mi: int = SAMPLES_MI,
    samples_moments: int = SAMPLES_MOMENTS,
) -> List[CheckReport]:
    """The oracle audit behind the ``verify`` subcommand.

    Checks closed-form path statistics against Monte Carlo and quadrature
    oracles, scheme power admissibility, the output log-moment identities,
    and the scalar mutual-information bound, at the channel's configured
    transmit power.  The oracles are called through this module's globals,
    never through local names, so a replacement bound here is what runs.
    """
    _bind_oracle()
    chan, seed = config.channel, config.seed
    reports: List[CheckReport] = []
    check_audit_power(chan, samples_moments)
    log_p = chan.log_power
    tau_verify = max((t for t in range(1, 9) if schedule_is_valid(log_p, t)), default=None)
    if tau_verify is None:
        raise ValueError(
            f"no admissible scheme at the configured power (log10 P = {log_p / LOG10:.4g}); "
            f"raise the channel power"
        )
    scheme = SchemeParams(tau_verify, log_p, chan.num_paths)

    for ell, spec in enumerate(chan.path_specs):
        stats = stats_of(spec)
        if not stats.active:
            continue
        try:
            szego = entropy_rate_szego(spectral_density(spec))
        except ValueError as err:
            raise ValueError(f"entropy_rate_path_{ell}: {err}") from err
        est = mc_log_gain(spec, samples_moments, seed=_sub_seed(seed, "log_gain", ell))
        reports += [
            CheckReport.judge(f"mean_log_gain_path_{ell}", est.value, "==", stats.mean_log_gain, est.std_error),
            CheckReport.judge(f"entropy_rate_path_{ell}", szego, "==", stats.entropy_rate, 0.0, slack=1e-5),
        ]

    log_block = log_block_average_power(scheme)
    block_mc = mc_block_power(scheme, samples_moments, seed=_sub_seed(seed, "block_power"))
    reports += [
        CheckReport.judge("block_power_admissible", log_block, "<=", log_p, 0.0),
        CheckReport.judge("block_power_mc", block_mc.value, "==", math.exp(log_block), block_mc.std_error),
    ]

    reports.extend(
        verify_log_moment_bounds(chan, scheme, n_samples=samples_moments, seed=_sub_seed(seed, "log_moments"))
    )

    law = LogUniformX2(0.0, math.log(100.0))
    stats0 = stats_of(chan.path_specs[0])
    lemma = lemma_mi_lower_bound(
        mean_log_h2=stats0.mean_log_gain,
        sigma_h=math.sqrt(stats0.alpha),
        sigma_w=math.sqrt(chan.noise_variance),
        x2_law=law,
    )
    mi = mi_scalar_gaussian(
        h_variance=stats0.alpha,
        w_variance=chan.noise_variance,
        x2_law=law,
        n_outer=samples_mi,
        seed=_sub_seed(seed, "mi"),
    )
    reports.append(CheckReport.judge("lemma_mi_bound", mi.value, ">=", lemma, mi.std_error))
    return reports


def _sub_seed(seed: int, label: str, index: int = 0) -> int:
    digest = sum(ord(c) * (31**i) for i, c in enumerate(label)) % (2**20)
    return (int(seed) << 24) ^ (digest << 4) ^ int(index)


def _stats_payload(config: SweepConfig) -> dict:
    chan = config.channel
    per_path = [
        {"path": ell, **asdict(stats), "active": stats.active}
        for ell, stats in enumerate(map(stats_of, chan.path_specs))
    ]
    cstats = ConverseStats.from_config(chan)
    return {
        "paths": per_path,
        "alpha_total": cstats.alpha_total,
        "inf_entropy_gap": cstats.inf_gap,
        "log_snr": snr_of(chan),
        "constants_certified": CONSTANTS_CERTIFIED,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="fadecap",
        description="Capacity bounds and Monte Carlo audits for noncoherent multipath fading channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep_p = sub.add_parser("sweep", help="evaluate both bounds over an SNR grid")
    sweep_p.add_argument("--config", required=True, help="JSON config path; every setting comes from it")
    sweep_p.add_argument("--output", default=None, help="output data file (default: sweep.<output_format>)")

    verify_p = sub.add_parser("verify", help="run the Monte Carlo oracle audit")
    verify_p.add_argument("--config", required=True)
    verify_p.add_argument("--samples-mi", type=int, default=SAMPLES_MI)
    verify_p.add_argument("--samples-moments", type=int, default=SAMPLES_MOMENTS)
    verify_p.add_argument("--output", default=None, help="write the JSON report here")

    stats_p = sub.add_parser("stats", help="print per-path statistics for a config")
    stats_p.add_argument("--config", required=True)

    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        if args.command == "sweep":
            sweep, metadata = run_sweep(config)
            fits = {which: fit_preloglog_slope(sweep, which) for which in ("upper", "lower")}
            out_path = args.output or f"sweep.{config.output_format}"
            sidecar = write_outputs(sweep, metadata, out_path, config.output_format)
            for which, fit in fits.items():
                print(
                    f"{which}: slope {fit.slope:.6f}, intercept {fit.intercept:.6f}, "
                    f"rms residual {fit.residual:.3g}"
                )
            print(f"wrote {out_path} and {sidecar}")
            return 0

        if args.command == "verify":
            for flag, count in (("--samples-mi", args.samples_mi), ("--samples-moments", args.samples_moments)):
                if count < 2:  # a mean and its standard error need two samples
                    raise ValueError(f"{flag} must be at least 2, got {count}")
            try:
                reports = run_verification_suite(config, args.samples_mi, args.samples_moments)
            except ModuleNotFoundError as err:  # numpy, which only the audit imports
                raise ValueError(f"verify needs {err.name}: {err}") from err
            for r in reports:
                values = f"lhs={r.lhs:.6g} rhs={r.rhs:.6g} std_error={r.std_error:.3g}"
                print(f"[{'PASS' if r.passed else 'FAIL'}] {r.check}: {values}")
            if args.output:
                rows = [r.to_dict() for r in reports]
                try:
                    report_text = json.dumps(rows, indent=2, sort_keys=True, allow_nan=False) + "\n"
                except ValueError:  # JSON has no NaN or Infinity
                    bad = next(r.check for r in reports if not all(map(math.isfinite, (r.lhs, r.rhs, r.std_error))))
                    raise ValueError(f"cannot write a non-finite value as JSON: check {bad}") from None
                _write_atomically({Path(args.output): [report_text]}, f"verify report {args.output}")
            return 0 if all(r.passed for r in reports) else 2

        print(json.dumps(_stats_payload(config), indent=2, sort_keys=True))  # stats
        return 0
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

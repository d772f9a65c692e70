#!/usr/bin/env python3
"""Sweep both capacity bounds over the demo channel and fit pre-loglog slopes.

Writes sweep.csv (+ metadata sidecar) into --outdir and prints the slope
fits on the configured grid.  Both bounds are fitted before anything is
written, so a config whose sweep cannot be fitted exits 1 with one
``error:`` line and leaves no files.
"""

import argparse
import math
import sys
from pathlib import Path

from fadecap import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=Path(__file__).resolve().parent.parent / "configs" / "demo.json")
    parser.add_argument("--outdir", default="outputs")
    args = parser.parse_args()

    try:
        config = cli.load_config(args.config)
        sweep, metadata = cli.run_sweep(config)
        fits = {which: cli.fit_preloglog_slope(sweep, which) for which in ("upper", "lower")}
        outdir = Path(args.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        out = outdir / f"sweep.{config.output_format}"
        sidecar = cli.write_outputs(sweep, metadata, out, config.output_format)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(f"wrote {out} and {sidecar}")

    print(f"\n{'log10 SNR':>10} {'loglog':>8} {'upper':>9} {'lower':>9} {'tau*':>6} {'u/loglog':>9} {'l/loglog':>9}")
    for log_snr, upper, lower, tau_star, loglog, ratio_upper, ratio_lower in sweep.rows():
        print(
            f"{log_snr / math.log(10):>10.1f} {loglog:>8.4f} {upper:>9.4f} "
            f"{lower:>9.4f} {tau_star:>6d} {ratio_upper:>9.4f} {ratio_lower:>9.4f}"
        )

    for which, fit in fits.items():
        print(f"\n{which} bound on the configured grid: slope {fit.slope:.4f} (rms residual {fit.residual:.3g})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Workload definitions: each maps a benchmark seed to one fadecap config.

The seed belongs to the benchmark. The program only ever sees the config
file generated here, so the same seed always produces the same inputs.
"""

from __future__ import annotations

import math
import random

LN10 = math.log(10.0)
DEFAULT_SEED = 0  # the seed whose sweep outputs are pinned by golden.json

# The demo channel of configs/demo.json, restated so that the benchmark's
# inputs do not move when the repository's demo file is edited.
DEMO_CHANNEL = {
    "log10_power": 3.0,
    "noise_variance": 1.0,
    "paths": [
        {"kind": "ar1", "alpha": 1.0, "a_re": 0.5, "a_im": 0.0},
        {"kind": "ar1", "alpha": 0.5, "a_re": 0.5, "a_im": 0.0},
        {"kind": "ar1", "alpha": 0.25, "a_re": 0.5, "a_im": 0.0},
    ],
}
DEMO_BOUNDS = {"delta": 1.0, "eps_const": 0.0, "eta": 0.5, "xi": None}
DEMO_SEED = 20260809

WORKLOADS = ("sweep_search", "sweep_fixed_tau", "verify_demo")
SWEEPS = ("sweep_search", "sweep_fixed_tau")


def _shifted(value: float, rng: random.Random) -> float:
    """``value`` moved by at most 0.1 %, rounded to 9 significant digits."""
    return float(f"{value * (1.0 + rng.uniform(-1e-3, 1e-3)):.9g}")


def make_config(workload: str, seed: int) -> dict:
    """The config dict that ``workload`` runs at benchmark seed ``seed``."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = random.Random(f"{workload}:{seed}")
    config = {
        "schema": 1,
        "channel": DEMO_CHANNEL,
        "bounds": DEMO_BOUNDS,
        "seed": DEMO_SEED,
        "tau_max": 1024,
    }
    if workload == "sweep_search":
        # log SNR from 1e6 to 1e9 nats: every tau in 1..1024 is admissible,
        # so optimize_tau evaluates all 1024 candidates at every point.
        config["grid"] = {
            "log10_snr_start": _shifted(1e6 / LN10, rng),
            "log10_snr_stop": _shifted(1e9 / LN10, rng),
            "points": 2000,
        }
        config.update(tau=None, output_format="csv")
    elif workload == "sweep_fixed_tau":
        config["grid"] = {
            "log10_snr_start": _shifted(20.0, rng),
            "log10_snr_stop": _shifted(4.34e8, rng),
            "points": 100_000,
        }
        config.update(tau=8, output_format="json")
    elif workload == "verify_demo":
        config["grid"] = {"log10_snr_start": 20.0, "log10_snr_stop": 200.0, "points": 19}
        config.update(tau=None, output_format="csv", seed=seed)
    else:
        raise ValueError(f"unknown workload {workload!r} (expected one of {', '.join(WORKLOADS)})")
    return config

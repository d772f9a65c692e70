"""The config file format: each section's field table, the one validator and the records built.

Configs are JSON with a versioned ``schema`` field.  ``read_fields`` checks
every section against its table, so unknown keys are rejected everywhere.
User-facing SNR/power values are base-10 logs; ``ChannelConfig`` carries
``log_power``, the natural log of P, so SNRs far beyond float range stay
representable.  Standard library only, importing nothing from fadecap but
``record`` and ``fading``'s path-gain families.
"""

from __future__ import annotations

import math
from array import array
from typing import Optional, Tuple

from .fading import LOG10, Ar1Gaussian, IidGaussian, PathGainSpec, ZeroPath
from .record import Record, asdict, fields

SCHEMA_VERSION = 1
REQUIRED = object()
_KIND_NAMES = {
    float: "a finite number",
    int: "an integer",
    str: "a string",
    dict: "an object",
    list: "a list",
}


def read_fields(data, where: str, fields: dict) -> dict:
    """Validate one config section and return its values with defaults filled in.

    ``fields`` maps every allowed key to ``(kind, default)``.  ``kind`` is
    ``float`` (a finite number), ``int`` (an integral number, a count),
    ``str``, ``dict`` or ``list``; bools are never numbers.  The default
    ``REQUIRED`` marks a key that must be present, and a default of ``None``
    also admits an explicit null.  Each rejection -- a section that is not an
    object, unknown keys, missing required keys, a value of the wrong kind --
    is a ``ValueError`` naming the field as ``where.key``.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be an object, got {data!r}")
    unknown = set(data) - set(fields)
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)} in {where} (allowed: {sorted(fields)})")
    missing = [key for key, (_, default) in fields.items() if default is REQUIRED and key not in data]
    if missing:
        raise ValueError(f"{where} is missing required keys {missing}")
    values = {}
    for key, (kind, default) in fields.items():
        value = data.get(key, default)
        if value is None and default is None:
            values[key] = None
        elif kind in (float, int):
            values[key] = _number(value, kind, f"{where}.{key}")
        elif isinstance(value, kind):
            values[key] = value
        else:
            raise ValueError(f"{where}.{key} must be {_KIND_NAMES[kind]}, got {value!r}")
    return values


def _number(value, kind, name: str):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if isinstance(value, int) and kind is int:
            return value
        try:
            number = float(value)
        except OverflowError:  # an integer literal beyond float range
            number = math.inf
        if math.isfinite(number) and (kind is float or number.is_integer()):
            return kind(number)
    raise ValueError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")


def positive_finite(value: float, name: str) -> float:
    """``value`` itself if 0 < value < inf; otherwise, NaN included, a ValueError naming ``name``."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


_PATH_FIELDS = {
    "zero": {},
    "iid": {"alpha": (float, REQUIRED)},
    "ar1": {"alpha": (float, REQUIRED), "a_re": (float, 0.0), "a_im": (float, 0.0)},
}


def path_spec_from_dict(data: dict, where: str = "path") -> PathGainSpec:
    """Parse the config-schema form; unknown kinds and keys are errors."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be an object, got {data!r}")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _PATH_FIELDS:
        raise ValueError(f"{where}.kind must be one of {sorted(_PATH_FIELDS)}, got {kind!r}")
    fields = read_fields(data, where, {"kind": (str, REQUIRED), **_PATH_FIELDS[kind]})
    if kind == "zero":
        return ZeroPath()
    if kind == "iid":
        return IidGaussian(alpha=fields["alpha"])
    return Ar1Gaussian(alpha=fields["alpha"], a=complex(fields["a_re"], fields["a_im"]))


def path_spec_to_dict(spec: PathGainSpec) -> dict:
    """Serialize to the config-schema form ``{kind, alpha, a_re, a_im}``."""
    if isinstance(spec, ZeroPath):
        return {"kind": "zero"}
    if isinstance(spec, IidGaussian):
        return {"kind": "iid", "alpha": spec.alpha}
    if isinstance(spec, Ar1Gaussian):
        return {"kind": "ar1", "alpha": spec.alpha, "a_re": spec.a.real, "a_im": spec.a.imag}
    raise TypeError(f"not a path-gain spec: {spec!r}")


class ChannelConfig(Record):
    """A channel instance: L+1 path specs, noise variance and log transmit power."""

    path_specs: Tuple[PathGainSpec, ...]
    noise_variance: float
    log_power: float

    def __post_init__(self) -> None:
        if len(self.path_specs) < 1:
            raise ValueError("need at least the delay-0 path")
        object.__setattr__(self, "path_specs", tuple(self.path_specs))
        if self.path_specs[0].alpha <= 0.0:
            raise ValueError("the delay-0 path must carry energy (alpha_0 > 0)")
        positive_finite(self.noise_variance, "noise variance")
        if not math.isfinite(self.log_power):
            raise ValueError(f"log_power must be finite, got {self.log_power}")

    @property
    def num_paths(self) -> int:
        """L: number of delayed paths (the channel has L+1 taps)."""
        return len(self.path_specs) - 1

    @property
    def alphas(self) -> Tuple[float, ...]:
        return tuple(spec.alpha for spec in self.path_specs)


def snr_of(config: ChannelConfig) -> float:
    """log SNR = log P - log sigma^2, in nats."""
    return config.log_power - math.log(config.noise_variance)


def aggregate_gain(config: ChannelConfig) -> float:
    """Total path variance, sum of alpha_l over all L+1 taps."""
    return float(sum(config.alphas))


CHANNEL_FIELDS = {"paths": (list, REQUIRED), "noise_variance": (float, REQUIRED), "log10_power": (float, REQUIRED)}


def config_from_dict(data: dict) -> ChannelConfig:
    fields = read_fields(data, "channel", CHANNEL_FIELDS)
    if not fields["paths"]:
        raise ValueError("channel.paths must be a nonempty list")
    return ChannelConfig(
        path_specs=tuple(
            path_spec_from_dict(p, f"channel.paths[{i}]") for i, p in enumerate(fields["paths"])
        ),
        noise_variance=fields["noise_variance"],
        log_power=fields["log10_power"] * LOG10,
    )


def config_to_dict(config: ChannelConfig) -> dict:
    # echo the shortest decimal d with d * LOG10 == log P: 114.0, not 114.00000000000001
    log10_power = config.log_power / LOG10
    for digits in range(1, 17):
        shorter = float(f"{log10_power:.{digits}g}")
        if shorter * LOG10 == config.log_power:
            log10_power = shorter
            break
    return {
        "paths": [path_spec_to_dict(spec) for spec in config.path_specs],
        "noise_variance": config.noise_variance,
        "log10_power": log10_power,
    }


class BoundParams(Record):
    """Free parameters of the upper bound, named as in the ``bounds`` config section.

    ``eps_const`` stands in for eps(delta, eta); ``xi``, when set, replaces
    the closed-form choice of xi and must lie in (0, 1]: no larger xi
    beats xi = 1 (README, "Config schema").
    """

    delta: float = 1.0
    eta: float = 0.5
    eps_const: float = 0.0
    xi: Optional[float] = None

    def __post_init__(self) -> None:
        if not (0.0 < self.delta <= 1.0):
            raise ValueError(f"delta must lie in (0, 1], got {self.delta}")
        if not (0.0 < self.eta < 1.0):
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")
        if not (0.0 <= self.eps_const < math.inf):
            raise ValueError(f"eps_const must be nonnegative and finite, got {self.eps_const}")
        if self.xi is not None and not (0.0 < self.xi <= 1.0):
            raise ValueError(f"xi must lie in (0, 1], got {self.xi}")


BOUNDS_FIELDS = {name: (float, getattr(BoundParams, name)) for name in fields(BoundParams)}


class GridSpec(Record):
    """A base-10 logarithmic SNR grid."""

    log10_snr_start: float
    log10_snr_stop: float
    points: int

    def __post_init__(self) -> None:
        if not self.log10_snr_start < self.log10_snr_stop:
            raise ValueError("grid start must lie below grid stop")
        if self.points < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.points}")
        if not math.isfinite(self.log10_snr_stop * LOG10):
            raise ValueError(f"grid stop {self.log10_snr_stop} overflows log SNR in nats")

    def log_snr_values(self) -> array:
        """Grid in nats of log-SNR, ascending.

        Bit for bit ``np.linspace(start, stop, points) * LOG10``: point i is
        ``i * step + start``, or ``(i / div) * delta + start`` when the step
        underflows to 0 as in numpy, and the last point is ``stop`` itself.
        """
        start, stop, div = self.log10_snr_start, self.log10_snr_stop, self.points - 1
        delta = stop - start
        step = delta / div
        if step == 0.0:
            points = ((i / div) * delta + start for i in range(div))
        else:
            points = (i * step + start for i in range(div))
        values = array("d", (point * LOG10 for point in points))
        values.append(stop * LOG10)
        return values


GRID_FIELDS = {"log10_snr_start": (float, REQUIRED), "log10_snr_stop": (float, REQUIRED), "points": (int, REQUIRED)}


class SweepConfig(Record):
    channel: ChannelConfig
    bound_params: BoundParams
    grid: GridSpec
    tau_max: int
    seed: int
    output_format: str
    tau: Optional[int] = None  # fixed block length; None searches 1..tau_max

    def __post_init__(self) -> None:
        if self.tau_max < 1:
            raise ValueError(f"tau_max must be >= 1, got {self.tau_max}")
        if self.tau is not None and self.tau < 1:
            raise ValueError(f"tau must be >= 1, got {self.tau}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.output_format not in ("csv", "json"):
            raise ValueError(f"output format must be 'csv' or 'json', got {self.output_format!r}")


CONFIG_FIELDS = {
    "schema": (int, REQUIRED),
    "channel": (dict, REQUIRED),
    "bounds": (dict, {}),
    "grid": (dict, REQUIRED),
    "tau": (int, None),
    "tau_max": (int, 1024),
    "seed": (int, 0),
    "output_format": (str, "csv"),
}


def sweep_config_from_dict(data: dict) -> SweepConfig:
    fields = read_fields(data, "config", CONFIG_FIELDS)
    if fields["schema"] != SCHEMA_VERSION:
        raise ValueError(f"unsupported config schema {fields['schema']!r}, expected {SCHEMA_VERSION}")
    return SweepConfig(
        channel=config_from_dict(fields["channel"]),
        bound_params=BoundParams(**read_fields(fields["bounds"], "bounds", BOUNDS_FIELDS)),
        grid=GridSpec(**read_fields(fields["grid"], "grid", GRID_FIELDS)),
        tau_max=fields["tau_max"],
        seed=fields["seed"],
        output_format=fields["output_format"],
        tau=fields["tau"],
    )


def sweep_config_to_dict(config: SweepConfig) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "channel": config_to_dict(config.channel),
        "bounds": asdict(config.bound_params),
        "grid": asdict(config.grid),
        "tau": config.tau,
        "tau_max": config.tau_max,
        "seed": config.seed,
        "output_format": config.output_format,
    }

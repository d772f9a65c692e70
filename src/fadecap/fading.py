"""Stationary complex path-gain processes and their closed-form statistics.

Three families of zero-mean, circularly-symmetric gain processes are
supported:

* ``IidGaussian(alpha)``    -- white complex Gaussian, variance ``alpha``;
* ``Ar1Gaussian(alpha, a)`` -- first-order Gauss-Markov recursion
  ``H[k] = a * H[k-1] + sqrt(alpha * (1 - |a|^2)) * U[k]`` with ``|a| < 1``
  and IID standard circularly-symmetric innovations ``U[k]``, initialised
  from the stationary marginal ``CN(0, alpha)``;
* ``ZeroPath()``            -- the identically-zero tap.

Each non-zero family has a closed-form variance, differential entropy rate
and mean log-magnitude, all in nats.  ``entropy_rate_szego`` provides an
independent quadrature oracle for the entropy rate from the spectral
density (entropy rate of a stationary complex Gaussian process equals
``log(pi*e)`` plus the mean log spectral density).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

EULER_GAMMA = 0.5772156649015329
LOG_PI = math.log(math.pi)
LOG_PI_E = LOG_PI + 1.0
_BLOCK = 65536  # normals per draw in complex_normal


@dataclass(frozen=True)
class IidGaussian:
    """White circularly-symmetric complex Gaussian gains with variance ``alpha``."""

    alpha: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < math.inf):
            raise ValueError(f"IidGaussian requires 0 < alpha < inf, got {self.alpha}")


@dataclass(frozen=True)
class Ar1Gaussian:
    """Stationary complex Gauss-Markov gains: variance ``alpha``, pole ``a``."""

    alpha: float
    a: complex

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < math.inf):
            raise ValueError(f"Ar1Gaussian requires 0 < alpha < inf, got {self.alpha}")
        if not abs(self.a) < 1.0:
            raise ValueError(f"Ar1Gaussian requires |a| < 1 for stationarity, got |a| = {abs(self.a)}")


@dataclass(frozen=True)
class ZeroPath:
    """The identically-zero tap (no scattered energy on this delay)."""

    alpha = 0.0


PathGainSpec = Union[IidGaussian, Ar1Gaussian, ZeroPath]


@dataclass(frozen=True)
class PathStats:
    """Closed-form per-path statistics, in nats.

    ``entropy_rate`` and ``mean_log_gain`` are ``None`` for the zero tap,
    which carries no statistics and is excluded from every infimum over
    active paths.
    """

    alpha: float
    entropy_rate: Optional[float]
    mean_log_gain: Optional[float]

    @property
    def active(self) -> bool:
        return self.alpha > 0.0


def stats_of(spec: PathGainSpec) -> PathStats:
    """Closed-form variance, entropy rate and mean log squared magnitude.

    The marginal of every non-zero family is ``CN(0, alpha)``, so
    ``E[log|H|^2] = log(alpha) - gamma`` (Euler's constant enters through
    the log of a unit-mean exponential).  Entropy rates: ``log(pi*e*alpha)``
    for the white family, ``log(pi*e*alpha*(1-|a|^2))`` for the Gauss-Markov
    family (the innovation variance is the one-step prediction error).
    """
    if isinstance(spec, ZeroPath):
        return PathStats(alpha=0.0, entropy_rate=None, mean_log_gain=None)
    if isinstance(spec, IidGaussian):
        return PathStats(
            alpha=spec.alpha,
            entropy_rate=LOG_PI_E + math.log(spec.alpha),
            mean_log_gain=math.log(spec.alpha) - EULER_GAMMA,
        )
    if isinstance(spec, Ar1Gaussian):
        return PathStats(
            alpha=spec.alpha,
            entropy_rate=LOG_PI_E + math.log(spec.alpha) + math.log1p(-abs(spec.a) ** 2),
            mean_log_gain=math.log(spec.alpha) - EULER_GAMMA,
        )
    raise TypeError(f"not a path-gain spec: {spec!r}")


def complex_normal(rng: np.random.Generator, shape, variance: float) -> np.ndarray:
    """Circularly-symmetric complex Gaussian samples with E|Z|^2 = variance.

    The draws are those of one ``rng.standard_normal((2,) + shape)`` call,
    real parts first, but they are made _BLOCK normals at a time into one
    reused buffer, so memory is the result plus one block.
    """
    out = np.empty(tuple(np.atleast_1d(shape)), dtype=complex)
    flat = out.reshape(-1)
    scale = math.sqrt(variance / 2.0)
    buf = np.empty(min(_BLOCK, flat.size))
    for part in (flat.real, flat.imag):
        for start in range(0, flat.size, _BLOCK):
            block = buf[: min(_BLOCK, flat.size - start)]
            rng.standard_normal(out=block)
            block *= scale
            part[start : start + block.size] = block
    return out


def sample_paths(spec: PathGainSpec, n: int, n_paths: int, rng: np.random.Generator) -> np.ndarray:
    """``n_paths`` independent stationary sample paths of length ``n``, shape (n_paths, n)."""
    if n < 1:
        raise ValueError(f"path length must be >= 1, got {n}")
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if isinstance(spec, ZeroPath):
        return np.zeros((n_paths, n), dtype=complex)
    if isinstance(spec, IidGaussian):
        return complex_normal(rng, (n_paths, n), spec.alpha)
    if isinstance(spec, Ar1Gaussian):
        out = np.empty((n_paths, n), dtype=complex)
        out[:, 0] = complex_normal(rng, n_paths, spec.alpha)
        if n > 1:
            innovation_var = spec.alpha * (1.0 - abs(spec.a) ** 2)
            innovations = complex_normal(rng, (n_paths, n - 1), innovation_var)
            for t in range(1, n):
                out[:, t] = innovations[:, t - 1] + spec.a * out[:, t - 1]
        return out
    raise TypeError(f"not a path-gain spec: {spec!r}")


def spectral_density(spec: PathGainSpec) -> Callable[[np.ndarray], np.ndarray]:
    """Power spectral density on [-pi, pi] of a non-zero gain process."""
    if isinstance(spec, IidGaussian):
        alpha = spec.alpha
        return lambda lam: np.full_like(np.asarray(lam, dtype=float), alpha)
    if isinstance(spec, Ar1Gaussian):
        return ar1_spectral_density(spec.alpha, spec.a)
    raise ValueError(f"no spectral density for {spec!r}")


def ar1_spectral_density(alpha: float, a: complex) -> Callable[[np.ndarray], np.ndarray]:
    """Spectral density ``alpha (1-|a|^2) / |1 - a e^{-i lam}|^2`` of the AR(1) family."""
    if not abs(a) < 1.0:
        raise ValueError(f"requires |a| < 1, got {abs(a)}")
    top = alpha * (1.0 - abs(a) ** 2)

    def density(lam: np.ndarray) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        return top / np.abs(1.0 - a * np.exp(-1j * lam)) ** 2

    return density


def entropy_rate_szego(
    spectral_density: Callable[[np.ndarray], np.ndarray], grid_points: int
) -> float:
    """Entropy rate ``log(pi e) + (1/2 pi) int log S`` by periodic composite quadrature.

    The integrand is 2*pi-periodic, so the equal-weight rule on a uniform
    grid converges spectrally fast for smooth densities.  Raises if the
    density is not strictly positive and finite on the grid.
    """
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    lam = -math.pi + 2.0 * math.pi * np.arange(grid_points) / grid_points
    values = np.asarray(spectral_density(lam), dtype=float)
    if values.shape != lam.shape:
        raise ValueError("spectral density must evaluate elementwise on the grid")
    if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
        raise ValueError("spectral density must be strictly positive and finite on the grid")
    return LOG_PI_E + float(np.mean(np.log(values)))


def path_spec_to_dict(spec: PathGainSpec) -> dict:
    """Serialize to the config-schema form ``{kind, alpha, a_re, a_im}``."""
    if isinstance(spec, ZeroPath):
        return {"kind": "zero"}
    if isinstance(spec, IidGaussian):
        return {"kind": "iid", "alpha": spec.alpha}
    if isinstance(spec, Ar1Gaussian):
        return {
            "kind": "ar1",
            "alpha": spec.alpha,
            "a_re": spec.a.real,
            "a_im": spec.a.imag,
        }
    raise TypeError(f"not a path-gain spec: {spec!r}")


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
    if kind not in ("iid", "ar1", "zero"):
        raise ValueError(f"{where}.kind must be 'iid', 'ar1' or 'zero', got {kind!r}")
    fields = read_fields(data, where, {"kind": (str, REQUIRED), **_PATH_FIELDS[kind]})
    if kind == "zero":
        return ZeroPath()
    if kind == "iid":
        return IidGaussian(alpha=fields["alpha"])
    return Ar1Gaussian(alpha=fields["alpha"], a=complex(fields["a_re"], fields["a_im"]))

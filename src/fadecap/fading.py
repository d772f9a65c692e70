"""Stationary complex path-gain processes and their closed-form statistics.

Three families of zero-mean, circularly-symmetric gain processes are
supported:

* ``Ar1Gaussian(alpha, a)`` -- first-order Gauss-Markov recursion
  ``H[k] = a * H[k-1] + sqrt(alpha * (1 - |a|^2)) * U[k]`` with ``|a| < 1``
  and IID standard circularly-symmetric innovations ``U[k]``, initialised
  from the stationary marginal ``CN(0, alpha)``;
* ``IidGaussian(alpha)``    -- white complex Gaussian, variance ``alpha``:
  the pole-0 case ``a = 0`` of the Gauss-Markov family in every closed form
  (only its sampler and config kind are its own);
* ``ZeroPath()``            -- the identically-zero tap.

The Gaussian families share one closed form each for the variance,
differential entropy rate, mean log-magnitude (all in nats) and spectral
density.  ``entropy_rate_szego`` provides an
independent quadrature oracle for the entropy rate from the spectral
density on a uniform grid of at least 2^16 points, doubled until it converges
(entropy rate of a stationary complex Gaussian process equals ``log(pi*e)``
plus the mean log spectral density).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Optional, Union

from .record import Record

if TYPE_CHECKING:
    import numpy as np

EULER_GAMMA = 0.5772156649015329
LOG_PI = math.log(math.pi)
LOG_PI_E = LOG_PI + 1.0
LOG10 = math.log(10.0)
_BLOCK = 65536  # normals per draw in complex_normal
_ROW_BLOCK = _BLOCK // 4  # AR(1) innovations per block of rows in sample_paths(last=True): 0.25 MiB complex
_SZEGO_GRID = 2**16  # points of entropy_rate_szego's first grid, and of each block it evaluates
_SZEGO_MAX_GRID = 2**23  # its finest grid
_SZEGO_TOL = 1e-7  # successive grids' estimates that differ by more are refined


class IidGaussian(Record):
    """White circularly-symmetric complex Gaussian gains with variance ``alpha``.

    The pole-0 Gauss-Markov process: ``a = 0`` in every closed form.
    """

    alpha: float
    a = 0.0

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < math.inf):
            raise ValueError(f"IidGaussian requires 0 < alpha < inf, got {self.alpha}")


class Ar1Gaussian(Record):
    """Stationary complex Gauss-Markov gains: variance ``alpha``, pole ``a``."""

    alpha: float
    a: complex

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < math.inf):
            raise ValueError(f"Ar1Gaussian requires 0 < alpha < inf, got {self.alpha}")
        if not abs(self.a) < 1.0:
            raise ValueError(f"Ar1Gaussian requires |a| < 1 for stationarity, got |a| = {abs(self.a)}")


class ZeroPath(Record):
    """The identically-zero tap (no scattered energy on this delay)."""

    alpha = 0.0


PathGainSpec = Union[IidGaussian, Ar1Gaussian, ZeroPath]


class PathStats(Record):
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

    The marginal of every Gaussian family is ``CN(0, alpha)``, so
    ``E[log|H|^2] = log(alpha) - gamma`` (Euler's constant enters through
    the log of a unit-mean exponential).  The entropy rate is
    ``log(pi*e*alpha*(1-|a|^2))``, the innovation variance being the
    one-step prediction error; the white family is its ``a = 0`` case.
    """
    if isinstance(spec, ZeroPath):
        return PathStats(alpha=0.0, entropy_rate=None, mean_log_gain=None)
    if isinstance(spec, (IidGaussian, Ar1Gaussian)):
        return PathStats(
            alpha=spec.alpha,
            entropy_rate=LOG_PI_E + math.log(spec.alpha) + math.log1p(-abs(spec.a) ** 2),
            mean_log_gain=math.log(spec.alpha) - EULER_GAMMA,
        )
    raise TypeError(f"not a path-gain spec: {spec!r}")


def fill_normals(rng: np.random.Generator, dest: np.ndarray, scale: float, row_len: int = 1) -> None:
    """Fill ``dest``, shape (rows, width), with ``scale`` times the last ``width``
    of each run of ``row_len`` standard normals, row after row.

    The draws are those of one ``rng.standard_normal(rows * row_len)`` call,
    made whole rows at a time, about _BLOCK normals per draw, into one reused
    buffer; normals outside ``dest`` are drawn and dropped.
    """
    import numpy as np

    rows, width = dest.shape
    per_draw = max(1, _BLOCK // row_len)
    buf = np.empty(min(per_draw, rows) * row_len)
    for start in range(0, rows, per_draw):
        stop = min(start + per_draw, rows)
        block = buf[: (stop - start) * row_len]
        rng.standard_normal(out=block)
        np.multiply(block.reshape(stop - start, row_len)[:, row_len - width :], scale, out=dest[start:stop])


def complex_normal(rng: np.random.Generator, shape, variance: float, last: bool = False) -> np.ndarray:
    """Circularly-symmetric complex Gaussian samples with E|Z|^2 = variance.

    The draws are those of one ``rng.standard_normal((2,) + shape)`` call,
    real parts first, but they are made _BLOCK normals at a time into one
    reused buffer, so memory is the result plus one block.

    With ``last=True`` only the last entry along ``shape``'s last axis is
    held: ``complex_normal(rng, shape, variance)[..., -1]``, bit for bit.
    Every normal of the full draw is still drawn, in the same order, so
    ``rng`` is left where the full draw leaves it.
    """
    import numpy as np

    shape = tuple(np.atleast_1d(shape).tolist())
    row_len = shape[-1] if last else 1
    if row_len < 1:
        raise ValueError(f"rows must have at least one column, got shape {shape}")
    out = np.empty(shape[:-1] if last else shape, dtype=complex)
    flat = out.reshape(-1)
    for part in (flat.real, flat.imag):
        fill_normals(rng, part[:, None], math.sqrt(variance / 2.0), row_len)
    return out


def sample_paths(
    spec: PathGainSpec, n: int, n_paths: int, rng: np.random.Generator, last: bool = False
) -> np.ndarray:
    """``n_paths`` independent stationary sample paths of length ``n``, shape (n_paths, n).

    With ``last=True`` only the gains at time n are returned, shape
    (n_paths,): the full draw's column n - 1, bit for bit.  The same draws
    are made in the same order, so ``rng`` is left where the full draw
    leaves it, but no (n_paths, n) array is held: white gains are drawn
    whole rows at a time, and the AR(1) recursion holds the real parts of
    its innovations, which come first in the draw, and meets them with the
    imaginary parts _ROW_BLOCK innovations (whole rows) at a time.
    """
    import numpy as np

    if n < 1:
        raise ValueError(f"path length must be >= 1, got {n}")
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if isinstance(spec, ZeroPath):
        return np.zeros((n_paths,) if last else (n_paths, n), dtype=complex)
    if isinstance(spec, IidGaussian):
        return complex_normal(rng, (n_paths, n), spec.alpha, last=last)
    if isinstance(spec, Ar1Gaussian):
        h = complex_normal(rng, n_paths, spec.alpha)
        variance = spec.alpha * (1.0 - abs(spec.a) ** 2)
        if last:
            if n > 1:
                _ar1_last(spec.a, h, n - 1, variance, rng)
            return h
        innovations = complex_normal(rng, (n_paths, n - 1), variance)
        out = np.empty((n_paths, n), dtype=complex)
        out[:, 0] = h
        for t in range(1, n):
            h = _ar1_step(spec.a, innovations[:, t - 1], h)
            out[:, t] = h
        return out
    raise TypeError(f"not a path-gain spec: {spec!r}")


def _ar1_step(a: complex, innovation: np.ndarray, h: np.ndarray) -> np.ndarray:
    # not in place: np.multiply(a, h, out=h) rounds differently when h has one entry
    return innovation + a * h


def _ar1_last(a: complex, h: np.ndarray, steps: int, variance: float, rng: np.random.Generator) -> None:
    """Run the AR(1) recursion ``steps`` times on ``h`` in place, drawing the
    (len(h), steps) innovations as ``complex_normal`` does, a block of rows at a time."""
    import numpy as np

    scale = math.sqrt(variance / 2.0)
    real = np.empty((h.size, steps))
    fill_normals(rng, real, scale, steps)
    per_block = max(1, _ROW_BLOCK // steps)
    block = np.empty((min(per_block, h.size), steps), dtype=complex)
    for start in range(0, h.size, per_block):
        stop = min(start + per_block, h.size)
        innovations = block[: stop - start]
        innovations.real = real[start:stop]
        fill_normals(rng, innovations.imag, scale, steps)
        h_rows = h[start:stop]
        for t in range(steps):
            h_rows = _ar1_step(a, innovations[:, t], h_rows)
        h[start:stop] = h_rows


def spectral_density(spec: PathGainSpec) -> Callable[[np.ndarray], np.ndarray]:
    """Power spectral density ``alpha (1-|a|^2) / |1 - a e^{-i lam}|^2`` on [-pi, pi]
    of a Gaussian gain process (flat for the white family, ``a = 0``)."""
    import numpy as np

    if not isinstance(spec, (IidGaussian, Ar1Gaussian)):
        raise ValueError(f"no spectral density for {spec!r}")
    top, a = spec.alpha * (1.0 - abs(spec.a) ** 2), spec.a

    def density(lam: np.ndarray) -> np.ndarray:
        return top / np.abs(1.0 - a * np.exp(-1j * np.asarray(lam, dtype=float))) ** 2

    return density


def entropy_rate_szego(spectral_density: Callable[[np.ndarray], np.ndarray]) -> float:
    """Entropy rate ``log(pi e) + (1/2 pi) int log S`` by periodic composite quadrature.

    The integrand is 2*pi-periodic, so the equal-weight rule on a uniform grid
    converges spectrally fast for smooth densities, but only once the grid
    resolves the density's narrowest peak (width about 1 - |a| for AR(1)).
    The grid starts at ``_SZEGO_GRID`` points and is doubled, adding the
    midpoints, while two successive estimates differ by more than
    ``_SZEGO_TOL``; the estimate of the first grid that agrees with the next
    is returned.  Raises if that takes more than ``_SZEGO_MAX_GRID`` points,
    or if the density is not strictly positive and finite on the grid.
    """
    import numpy as np

    def mean_log(lam: np.ndarray) -> float:
        values = np.asarray(spectral_density(lam), dtype=float)
        if values.shape != lam.shape:
            raise ValueError("spectral density must evaluate elementwise on the grid")
        if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
            raise ValueError("spectral density must be strictly positive and finite on the grid")
        return float(np.mean(np.log(values)))

    points = _SZEGO_GRID
    estimate = LOG_PI_E + mean_log(-math.pi + 2.0 * math.pi * np.arange(points) / points)
    odd = 2.0 * np.arange(_SZEGO_GRID) + 1.0
    while points < _SZEGO_MAX_GRID:
        # the 2 * points grid's new nodes are the old grid's midpoints, _SZEGO_GRID at a time
        midpoints = [
            mean_log(-math.pi + math.pi * (odd + 2.0 * start) / points) for start in range(0, points, _SZEGO_GRID)
        ]
        finer = 0.5 * (estimate + LOG_PI_E + math.fsum(midpoints) / len(midpoints))
        if abs(finer - estimate) <= _SZEGO_TOL:
            return estimate
        points, estimate = 2 * points, finer
    raise ValueError(
        f"the Szego quadrature did not converge to {_SZEGO_TOL:g} within {_SZEGO_MAX_GRID} grid points"
    )


def path_spec_to_dict(spec: PathGainSpec) -> dict:
    """Serialize to the config-schema form ``{kind, alpha, a_re, a_im}``."""
    if isinstance(spec, ZeroPath):
        return {"kind": "zero"}
    if isinstance(spec, IidGaussian):
        return {"kind": "iid", "alpha": spec.alpha}
    if isinstance(spec, Ar1Gaussian):
        return {"kind": "ar1", "alpha": spec.alpha, "a_re": spec.a.real, "a_im": spec.a.imag}
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
    if not isinstance(kind, str) or kind not in _PATH_FIELDS:
        raise ValueError(f"{where}.kind must be one of {sorted(_PATH_FIELDS)}, got {kind!r}")
    fields = read_fields(data, where, {"kind": (str, REQUIRED), **_PATH_FIELDS[kind]})
    if kind == "zero":
        return ZeroPath()
    if kind == "iid":
        return IidGaussian(alpha=fields["alpha"])
    return Ar1Gaussian(alpha=fields["alpha"], a=complex(fields["a_re"], fields["a_im"]))

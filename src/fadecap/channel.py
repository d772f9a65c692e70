"""The draws and the channel operator: every random path gain, noise sample and stream.

The channel output at time k (1-based) for inputs x_1..x_n is

    Y_k = sum_{l=0}^{min(k-1, L)} H_k^(l) * x_{k-l} + Z_k,

where the L+1 path-gain processes are mutually independent stationary
processes (uncorrelated scattering), jointly independent of the IID
``CN(0, sigma^2)`` noise, and independent of the input.  The sum is
truncated for k <= L: no input before time 1 exists.

Every stochastic component draws from its own substream, identified by a
master seed plus a small integer key path.  Substreams with different key
paths are statistically independent, and the mapping ``(seed, key) ->
stream`` is stable across processes and platforms, so any result is
reproducible from the master seed alone.

This module and ``oracle`` are the only ones that import numpy; the closed
forms they sample and check live in the standard-library core.
"""

from __future__ import annotations

import math

import numpy as np

# perfbench/checks.py reads config_from_dict from this module
from .config import ChannelConfig, config_from_dict  # noqa: F401
from .fading import GaussianTap, stats_of
from .record import Record

_BLOCK = 65536  # normals per draw in complex_normal
_ROW_BLOCK = _BLOCK // 4  # AR(1) innovations per block of rows in sample_paths(last=True): 0.25 MiB complex


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Return an independent Philox generator for ``(master_seed, key)``."""
    seq = np.random.SeedSequence(int(master_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seq))


def fill_normals(rng: np.random.Generator, dest: np.ndarray, scale: float, row_len: int = 1) -> None:
    """Fill ``dest``, shape (rows, width), with ``scale`` times the last ``width``
    of each run of ``row_len`` standard normals, row after row.

    The draws are those of one ``rng.standard_normal(rows * row_len)`` call,
    made whole rows at a time, about _BLOCK normals per draw, into one reused
    buffer; normals outside ``dest`` are drawn and dropped.
    """
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
    spec: GaussianTap, n: int, n_paths: int, rng: np.random.Generator, last: bool = False
) -> np.ndarray:
    """``n_paths`` independent stationary sample paths of length ``n``, shape (n_paths, n).

    The sampler follows from what the tap is, not its config kind: the zero
    tap gives zeros, a tap with pole 0 white gains, any other the AR(1) recursion.

    With ``last=True`` only the gains at time n are returned, shape
    (n_paths,): the full draw's column n - 1, bit for bit.  The same draws
    are made in the same order, so ``rng`` is left where the full draw
    leaves it, but no (n_paths, n) array is held: white gains are drawn
    whole rows at a time, and the AR(1) recursion holds the real parts of
    its innovations, which come first in the draw, and meets them with the
    imaginary parts _ROW_BLOCK innovations (whole rows) at a time.
    """
    if n < 1:
        raise ValueError(f"path length must be >= 1, got {n}")
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if not stats_of(spec).active:  # the zero tap; stats_of raises on what is not a tap
        return np.zeros((n_paths,) if last else (n_paths, n), dtype=complex)
    if spec.a == 0:  # the white tap, whatever its config kind
        return complex_normal(rng, (n_paths, n), spec.alpha, last=last)
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


def _ar1_step(a: complex, innovation: np.ndarray, h: np.ndarray) -> np.ndarray:
    # not in place: np.multiply(a, h, out=h) rounds differently when h has one entry
    return innovation + a * h


def _ar1_last(a: complex, h: np.ndarray, steps: int, variance: float, rng: np.random.Generator) -> None:
    """Run the AR(1) recursion ``steps`` times on ``h`` in place, drawing the
    (len(h), steps) innovations as ``complex_normal`` does, a block of rows at a time."""
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


class ChannelRealization(Record):
    """One (or a batch of) joint draws of all path gains and the noise.

    ``gains`` has shape ``(..., L+1, n)`` and ``noise`` shape ``(..., n)``;
    a leading batch dimension holds independent realizations.  Instances are
    immutable after construction.
    """

    gains: np.ndarray
    noise: np.ndarray

    def __post_init__(self) -> None:
        if self.gains.ndim < 2:
            raise ValueError("gains must have shape (..., L+1, n)")
        if self.gains.shape[:-2] + self.gains.shape[-1:] != self.noise.shape:
            raise ValueError(
                f"gains shape {self.gains.shape} inconsistent with noise shape {self.noise.shape}"
            )

    @property
    def n(self) -> int:
        return self.gains.shape[-1]

    @property
    def num_paths(self) -> int:
        return self.gains.shape[-2] - 1


def realize_many(config: ChannelConfig, n: int, n_samples: int, seed: int) -> ChannelRealization:
    """Batch of ``n_samples`` independent realizations, gains shape (n_samples, L+1, n).

    Tap l's gains come from substream ``(seed, 0, l)``, the noise from ``(seed, 1)``.
    """
    gains = np.empty((n_samples, config.num_paths + 1, n), dtype=complex)
    for ell in range(config.num_paths + 1):
        gains[:, ell, :] = sample_paths(config.path_specs[ell], n, n_samples, substream(seed, 0, ell))
    noise = complex_normal(substream(seed, 1), (n_samples, n), config.noise_variance)
    return ChannelRealization(gains=gains, noise=noise)


def simulate(config: ChannelConfig, x, realization: ChannelRealization) -> np.ndarray:
    """Channel output for a deterministic input sequence, exactly per the model.

    ``x`` may carry leading batch dimensions matching (or broadcasting
    against) the realization.  The truncated sum for k <= L is realized by
    starting tap l at output index l; no fictitious pre-history is touched.
    Pure function: safe for concurrent use.
    """
    x = np.asarray(x, dtype=complex)
    n = realization.n
    if x.shape[-1] != n:
        raise ValueError(f"input length {x.shape[-1]} != realization length {n}")
    if realization.num_paths != config.num_paths:
        raise ValueError(
            f"realization has {realization.num_paths} delayed paths, config has {config.num_paths}"
        )
    out_shape = np.broadcast_shapes(x.shape, realization.noise.shape)
    y = np.zeros(out_shape, dtype=complex)
    y += realization.noise
    for ell in range(config.num_paths + 1):
        if ell >= n:
            break
        y[..., ell:] += realization.gains[..., ell, ell:] * x[..., : n - ell]
    return y


def output_at(config: ChannelConfig, k: int, x, seed: int) -> np.ndarray:
    """The output Y_k for a batch of the inputs that reach it.

    ``x`` has shape (n_samples, w), w = min(k, L+1): the inputs x_{k-w+1},
    ..., x_k.  Bit for bit equal to
    ``simulate(config, full, realize_many(config, k, n_samples, seed))[:, k - 1]``
    for any (n_samples, k) inputs ``full`` whose last w columns are ``x``:
    the same substreams and the same draws, summed in the same order (noise,
    then taps 0, 1, ...), but only the time-k column of the noise and of
    each tap's gains is held (``last=True``), and taps that cannot reach
    time k are not drawn.
    """
    x = np.asarray(x, dtype=complex)
    reach = min(k, config.num_paths + 1)
    if k < 1 or x.ndim != 2 or x.shape[0] == 0 or x.shape[1] != reach:
        raise ValueError(
            f"inputs must have shape (n_samples, min(k, L+1)) with n_samples, k >= 1, "
            f"got {x.shape} at k = {k}"
        )
    n_samples = x.shape[0]
    y = np.zeros(n_samples, dtype=complex)
    y += complex_normal(substream(seed, 1), (n_samples, k), config.noise_variance, last=True)
    for ell in range(reach):
        rng = substream(seed, 0, ell)
        y += sample_paths(config.path_specs[ell], k, n_samples, rng, last=True) * x[:, reach - 1 - ell]
    return y

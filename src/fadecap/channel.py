"""Discrete-time multipath fading channel with additive Gaussian noise.

The channel output at time k (1-based) for inputs x_1..x_n is

    Y_k = sum_{l=0}^{min(k-1, L)} H_k^(l) * x_{k-l} + Z_k,

where the L+1 path-gain processes are mutually independent stationary
processes (uncorrelated scattering), jointly independent of the IID
``CN(0, sigma^2)`` noise, and independent of the input.  The sum is
truncated for k <= L: no input before time 1 exists.

Transmit power is carried as ``log_power`` (natural log of P) end to end,
so SNR values far beyond direct floating-point range stay representable;
``snr_of`` returns ``log(P) - log(sigma^2)`` in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .fading import PathGainSpec, complex_normal, sample_paths
from .streams import substream


@dataclass(frozen=True)
class ChannelConfig:
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
        if not (0.0 < self.noise_variance < math.inf):
            raise ValueError(f"noise variance must be positive and finite, got {self.noise_variance}")
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


@dataclass(frozen=True)
class ChannelRealization:
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


def _tap_gains(config: ChannelConfig, ell: int, n: int, n_samples: int, seed: int) -> np.ndarray:
    """Tap ``ell``'s gains at times 1..n, shape (n_samples, n), from the tap's own substream."""
    return sample_paths(config.path_specs[ell], n, n_samples, substream(seed, 0, ell))


def _noise(config: ChannelConfig, n: int, n_samples: int, seed: int) -> np.ndarray:
    """The noise at times 1..n, shape (n_samples, n), from the noise substream."""
    return complex_normal(substream(seed, 1), (n_samples, n), config.noise_variance)


def realize_many(config: ChannelConfig, n: int, n_samples: int, seed: int) -> ChannelRealization:
    """Batch of ``n_samples`` independent realizations, gains shape (n_samples, L+1, n)."""
    gains = np.empty((n_samples, config.num_paths + 1, n), dtype=complex)
    for ell in range(config.num_paths + 1):
        gains[:, ell, :] = _tap_gains(config, ell, n, n_samples, seed)
    return ChannelRealization(gains=gains, noise=_noise(config, n, n_samples, seed))


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


def output_at(config: ChannelConfig, x, seed: int) -> np.ndarray:
    """The last output Y_k for a batch of inputs ``x`` of shape (n_samples, k).

    Bit for bit equal to
    ``simulate(config, x, realize_many(config, k, n_samples, seed))[:, k - 1]``:
    the same substreams, summed in the same order (noise, then taps
    0, 1, ...), but each tap's sample paths are held only while their
    time-k gain is read, and taps that cannot reach time k are not drawn.
    """
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2:
        raise ValueError(f"inputs must have shape (n_samples, k), got {x.shape}")
    n_samples, k = x.shape
    y = np.zeros(n_samples, dtype=complex)
    y += _noise(config, k, n_samples, seed)[:, k - 1]
    for ell in range(min(k, config.num_paths + 1)):
        y += _tap_gains(config, ell, k, n_samples, seed)[:, k - 1] * x[:, k - 1 - ell]
    return y


def config_to_dict(config: ChannelConfig) -> dict:
    from .fading import path_spec_to_dict

    return {
        "paths": [path_spec_to_dict(spec) for spec in config.path_specs],
        "noise_variance": config.noise_variance,
        "log10_power": config.log_power / math.log(10.0),
    }


def config_from_dict(data: dict) -> ChannelConfig:
    from .fading import REQUIRED, path_spec_from_dict, read_fields

    fields = read_fields(
        data,
        "channel",
        {"paths": (list, REQUIRED), "noise_variance": (float, REQUIRED), "log10_power": (float, REQUIRED)},
    )
    if not fields["paths"]:
        raise ValueError("channel.paths must be a nonempty list")
    return ChannelConfig(
        path_specs=tuple(
            path_spec_from_dict(p, f"channel.paths[{i}]") for i, p in enumerate(fields["paths"])
        ),
        noise_variance=fields["noise_variance"],
        log_power=fields["log10_power"] * math.log(10.0),
    )

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
from typing import TYPE_CHECKING, Tuple

from .fading import (
    LOG10,
    REQUIRED,
    PathGainSpec,
    complex_normal,
    path_spec_from_dict,
    path_spec_to_dict,
    read_fields,
    sample_paths,
)
from .streams import substream

if TYPE_CHECKING:
    import numpy as np


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


def realize_many(config: ChannelConfig, n: int, n_samples: int, seed: int) -> ChannelRealization:
    """Batch of ``n_samples`` independent realizations, gains shape (n_samples, L+1, n).

    Tap l's gains come from substream ``(seed, 0, l)``, the noise from ``(seed, 1)``.
    """
    import numpy as np

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
    import numpy as np

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
    import numpy as np

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


def config_from_dict(data: dict) -> ChannelConfig:
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
        log_power=fields["log10_power"] * LOG10,
    )

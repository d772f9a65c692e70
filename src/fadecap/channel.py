"""Discrete-time multipath fading channel with additive Gaussian noise.

The channel output at time k (1-based) for inputs x_1..x_n is

    Y_k = sum_{l=0}^{min(k-1, L)} H_k^(l) * x_{k-l} + Z_k,

where the L+1 path-gain processes are mutually independent stationary
processes (uncorrelated scattering), jointly independent of the IID
``CN(0, sigma^2)`` noise, and independent of the input.  The sum is
truncated for k <= L: no input before time 1 exists.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

# perfbench/checks.py reads config_from_dict from this module
from .config import config_from_dict  # noqa: F401
from .fading import complex_normal, sample_paths
from .record import Record
from .streams import substream

if TYPE_CHECKING:
    import numpy as np

    from .config import ChannelConfig


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

"""Deterministic counter-based RNG streams.

Every stochastic component of the package draws from its own substream,
identified by a master seed plus a small integer key path.  Substreams with
different key paths are statistically independent, and the mapping
``(seed, key) -> stream`` is stable across processes and platforms, so any
result is reproducible from the master seed alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Return an independent Philox generator for ``(master_seed, key)``."""
    import numpy as np

    seq = np.random.SeedSequence(int(master_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seq))

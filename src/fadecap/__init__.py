"""Capacity bounds and Monte Carlo oracles for noncoherent multipath fading channels.

The channel has a finite number of delayed paths with stationary random
gains unknown to both ends of the link; at high SNR its capacity grows like
log log SNR.  This package evaluates an exact finite-SNR upper bound on
capacity and the rate achieved by a zero-guarded block scheme, audits both
against independent Monte Carlo oracles, and sweeps them over SNR grids of
essentially unbounded dynamic range (everything consumes log-SNR in nats).

The names of the numpy layer (``channel``'s draws and channel operator,
``oracle``'s estimators and quadratures) are served on first access from
``_LAZY``, so importing the package loads neither module nor numpy.
"""

__version__ = "0.1.0"

from .config import BoundParams, ChannelConfig, aggregate_gain, snr_of
from .converse import (
    ConverseStats,
    jensen_cap,
    optimize_xi,
    psi,
    upper_bound,
    upsilon,
    xi_default,
)
from .direct import (
    DirectStats,
    LogUniformX2,
    SchemeParams,
    log_block_average_power,
    lower_bound,
    optimize_tau,
    schedule_is_valid,
    sharp_slot_bound,
    xi_p,
)
from .fading import EULER_GAMMA, GaussianTap, PathStats, stats_of

# name -> the module of the numpy layer that defines it
_LAZY = {
    "ChannelRealization": "channel",
    "realize_many": "channel",
    "sample_paths": "channel",
    "simulate": "channel",
    "substream": "channel",
    "CheckReport": "oracle",
    "McEstimate": "oracle",
    "entropy_rate_szego": "oracle",
    "lemma_mi_lower_bound": "oracle",
    "mc_block_power": "oracle",
    "mc_log_gain": "oracle",
    "mi_scalar_gaussian": "oracle",
    "verify_log_moment_bounds": "oracle",
}


def __getattr__(name: str):
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

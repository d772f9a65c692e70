"""Capacity bounds and Monte Carlo oracles for noncoherent multipath fading channels.

The channel has a finite number of delayed paths with stationary random
gains unknown to both ends of the link; at high SNR its capacity grows like
log log SNR.  This package evaluates an exact finite-SNR upper bound on
capacity and the rate achieved by a zero-guarded block scheme, audits both
against independent Monte Carlo oracles, and sweeps them over SNR grids of
essentially unbounded dynamic range (everything consumes log-SNR in nats).

The package root binds only the standard-library core, so it loads no numpy:
import the numpy layer's names from ``fadecap.channel`` and ``fadecap.oracle``.
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

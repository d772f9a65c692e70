"""Capacity bounds and Monte Carlo oracles for noncoherent multipath fading channels.

The channel has a finite number of delayed paths with stationary random
gains unknown to both ends of the link; at high SNR its capacity grows like
log log SNR.  This package evaluates an exact finite-SNR upper bound on
capacity and the rate achieved by a zero-guarded block scheme, audits both
against independent Monte Carlo oracles, and sweeps them over SNR grids of
essentially unbounded dynamic range (everything consumes log-SNR in nats).

The audit names (``CheckReport``, ``mc_log_gain`` and the other oracles) are
served on first access, so importing the package does not load ``oracle``.
"""

__version__ = "0.1.0"

from .channel import (
    ChannelConfig,
    ChannelRealization,
    aggregate_gain,
    realize_many,
    simulate,
    snr_of,
)
from .converse import (
    BoundParams,
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
    lemma_mi_lower_bound,
    log_block_average_power,
    lower_bound,
    optimize_tau,
    schedule_is_valid,
    sharp_slot_bound,
    xi_p,
)
from .fading import (
    EULER_GAMMA,
    Ar1Gaussian,
    IidGaussian,
    PathStats,
    ZeroPath,
    entropy_rate_szego,
    sample_paths,
    stats_of,
)
from .streams import substream

_ORACLE_NAMES = (
    "CheckReport",
    "McEstimate",
    "mc_block_power",
    "mc_log_gain",
    "mi_scalar_gaussian",
    "verify_log_moment_bounds",
)


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

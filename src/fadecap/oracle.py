"""Monte Carlo and brute-force oracles for the analytic ingredients.

Everything here is independent of the closed forms it checks: mutual
information on scalar fading instances is estimated from the exact
conditional Gaussian density (bias-controlled, with quantifiable standard
errors), log-moment inequalities are audited by direct channel simulation
(``channel.output_at``, which draws only the output the audit reads), and
per-path statistics by plain sample means.

All estimators are deterministic given (seed, n_samples, n_workers).  The
sample budget is sharded across ``n_workers`` independent substreams (the
default worker count comes from the ``FADECAP_WORKERS`` environment
variable); results are reproducible for a fixed worker count, which is
recorded in every report.  Means and standard errors are merged a chunk at
a time, and every report is judged by the one rule of ``CheckReport.judge``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

# realize_many and simulate are the reference that output_at is tested
# against; they stay bound here, where perfbench/tracing.py wraps them.
from .channel import ChannelConfig, output_at, realize_many, simulate  # noqa: F401
from .direct import LogUniformX2, SchemeParams
from .fading import Ar1Gaussian, IidGaussian, PathGainSpec, ZeroPath, complex_normal
from .streams import substream

_CHUNK = 65536
_TILE = 1024  # rows of the MI oracle's log-density tile (_TILE x n_inner float64)


def default_workers() -> int:
    """Worker count from FADECAP_WORKERS (default 1)."""
    raw = os.environ.get("FADECAP_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"FADECAP_WORKERS must be an integer >= 1, got {raw!r}")
    return workers


def _shards(n_samples: int, n_workers: Optional[int], budget: str = "n_samples") -> List[Tuple[int, int]]:
    """The non-empty ``(worker, size)`` shards of a budget of at least 2 samples (a
    standard error needs two) over ``n_workers >= 1`` workers (None: FADECAP_WORKERS)."""
    if n_samples < 2:
        raise ValueError(f"{budget} must be at least 2, got {n_samples}")
    if n_workers is not None and n_workers < 1:
        raise ValueError(f"n_workers must be at least 1, got {n_workers}")
    workers = default_workers() if n_workers is None else n_workers
    base, extra = divmod(n_samples, workers)
    return [(w, base + (w < extra)) for w in range(min(workers, n_samples))]


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate with its standard error."""

    value: float
    std_error: float
    n_samples: int

    def __post_init__(self) -> None:
        if self.std_error < 0.0:
            raise ValueError("standard error cannot be negative")


class _Accumulator:
    """Count, mean and sum of squared deviations (M2) of values added a chunk at a time.

    Chunks are merged as in Chan, Golub & LeVeque (1979), so no per-sample
    value is kept.  A single chunk gives numpy's mean and
    ``std(ddof=1) / sqrt(n)`` bit for bit.
    """

    def __init__(self) -> None:
        self.n, self.mean, self.m2 = 0, 0.0, 0.0

    def add(self, values: np.ndarray) -> None:
        n_b = values.size
        mean_b = float(np.mean(values))
        n = self.n + n_b
        delta = mean_b - self.mean
        dev = values - mean_b
        np.square(dev, out=dev)
        self.m2 += float(np.sum(dev)) + delta * delta * (self.n * n_b / n)
        self.mean += delta * (n_b / n)
        self.n = n

    def estimate(self) -> McEstimate:
        return McEstimate(self.mean, math.sqrt(self.m2 / (self.n - 1)) / math.sqrt(self.n), self.n)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one numeric audit, JSON-serializable."""

    check: str
    lhs: float
    rhs: float
    std_error: float
    passed: bool
    workers: int = 1

    @classmethod
    def judge(
        cls, check: str, lhs: float, relation: str, rhs: float, std_error: float, workers: int, slack: float = 0.0
    ) -> CheckReport:
        """The report of ``lhs relation rhs``, for ``relation`` one of ``==``,
        ``<=`` and ``>=``: it passes within 3 standard errors plus ``slack``."""
        tol = 3.0 * std_error + slack
        passed = {"==": abs(lhs - rhs) <= tol, "<=": lhs <= rhs + tol, ">=": lhs >= rhs - tol}[relation]
        return cls(check, lhs, rhs, std_error, passed, workers)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "std_error": self.std_error,
            "pass": self.passed,
            "workers": self.workers,
        }


def mc_log_gain(
    spec: PathGainSpec, n_samples: int, seed: int, n_workers: Optional[int] = None
) -> McEstimate:
    """Sample mean of log|H|^2 over independent stationary marginal draws."""
    if isinstance(spec, ZeroPath):
        raise ValueError("the zero tap has no log-gain statistics")
    if not isinstance(spec, (IidGaussian, Ar1Gaussian)):
        raise TypeError(f"not a path-gain spec: {spec!r}")
    acc = _Accumulator()
    for w, size in _shards(n_samples, n_workers):
        log_h2 = np.abs(complex_normal(substream(seed, w), size, spec.alpha))
        np.square(log_h2, out=log_h2)
        np.log(log_h2, out=log_h2)
        acc.add(log_h2)
    return acc.estimate()


def _log_mixture_density(y2: np.ndarray, log_c: np.ndarray, s_nodes: np.ndarray) -> np.ndarray:
    """log sum_j exp(log_c[j] - y2[i] / s_nodes[j]) for every i, _TILE rows at a time.

    Each row is shifted by its largest term, which enters through log1p
    rather than the sum, so the values equal a full-matrix logsumexp bit for
    bit.  One (_TILE x nodes) buffer is reused.
    """
    log_fy = np.empty(y2.size)
    buf = np.empty((min(_TILE, y2.size), s_nodes.size))
    for start in range(0, y2.size, _TILE):
        stop = min(start + _TILE, y2.size)
        t = buf[: stop - start]
        np.divide(y2[start:stop, None], s_nodes, out=t)
        np.subtract(log_c, t, out=t)
        rows = np.arange(stop - start)
        top = t.argmax(axis=1)
        t_max = t[rows, top]
        t -= t_max[:, None]
        np.exp(t, out=t)
        t[rows, top] = 0.0  # the largest term, exp(0) = 1, is the 1 of log1p
        log_fy[start:stop] = np.log1p(t.sum(axis=1)) + t_max
    return log_fy


def mi_scalar_gaussian(
    h_variance: float,
    w_variance: float,
    x2_law: LogUniformX2,
    n_outer: int = 100_000,
    n_inner: int = 512,
    seed: int = 0,
    n_workers: Optional[int] = None,
) -> McEstimate:
    """Monte Carlo mutual information I(X; HX + W) for the scalar fading model.

    H ~ CN(0, h_variance), W ~ CN(0, w_variance), X circularly symmetric with
    the given log-uniform magnitude law.  Conditionally on |X|^2 = t the
    output is CN(0, h_variance*t + w_variance), so

        I(X; Y) = h(Y) - E[ log(pi e (h_variance |X|^2 + w_variance)) ].

    h(Y) is estimated as the average of -log f_Y(Y_i) over n_outer exact
    output draws, with the mixture density f_Y evaluated by n_inner-node
    Gauss-Legendre quadrature over the 1-D magnitude law.  Both terms are
    paired per sample, so the reported standard error is the standard error
    of the full estimator.

    The draws are made in blocks of _CHUNK samples per shard, and log f_Y is
    evaluated over tiles of _TILE rows of a block, so memory is
    O(_TILE * n_inner) whatever n_outer is.  The tiling does not touch the
    draws, so the estimate does not depend on _TILE.
    """
    if h_variance <= 0.0:
        raise ValueError(f"h_variance must be positive, got {h_variance}")
    if w_variance < 0.0:
        raise ValueError(f"w_variance must be nonnegative, got {w_variance}")
    shards = _shards(n_outer, n_workers, "n_outer")
    u, weights = x2_law.quadrature(n_inner)
    s_nodes = h_variance * np.exp(u) + w_variance  # conditional variances at nodes
    # log f_Y(y) for a circularly-symmetric mixture of CN(0, s_j) is
    # logsumexp_j(log_c_j - |y|^2 / s_j)
    log_c = np.log(weights) - math.log(math.pi) - np.log(s_nodes)

    acc = _Accumulator()
    for w, size in shards:
        rng = substream(seed, w)
        for start in range(0, size, _CHUNK):
            m = min(_CHUNK, size - start)
            u_draw = x2_law.sample_log_x2(rng, m)
            s_draw = h_variance * np.exp(u_draw) + w_variance
            y2 = s_draw * rng.exponential(size=m)  # |Y|^2 | X is exponential(mean s)
            log_fy = _log_mixture_density(y2, log_c, s_nodes)
            acc.add(-log_fy - (math.log(math.pi) + 1.0 + np.log(s_draw)))
    return acc.estimate()


def mc_block_power(
    params: SchemeParams, n_samples: int, seed: int, n_workers: Optional[int] = None
) -> McEstimate:
    """Monte Carlo block-average power of the scheme (oracle for the closed form)."""
    acc = _Accumulator()
    for w, size in _shards(n_samples, n_workers):
        rng = substream(seed, w)
        total = np.zeros(size)
        for nu in range(1, params.tau + 1):
            power = params.slot_law(nu).sample_log_x2(rng, size)
            np.exp(power, out=power)
            total += power
            del power
        total /= params.block_len
        acc.add(total)
    return acc.estimate()


def _scheme_inputs(params: SchemeParams, n: int, n_draws: int, rng: np.random.Generator) -> np.ndarray:
    """(n_draws, n) input matrix of IID scheme blocks truncated at length n."""
    x = np.zeros((n_draws, n), dtype=complex)
    block = params.block_len
    for start in range(0, n, block):
        for nu in range(1, params.tau + 1):
            t = start + params.num_taps + nu - 1  # 0-based time of slot nu
            if t >= n:
                break
            x[:, t] = params.slot_law(nu).sample_x(rng, n_draws)
    return x


def _slot_mean_powers(params: SchemeParams, n: int) -> np.ndarray:
    """Analytic E|X_k|^2 of the scheme at times 1..n."""
    powers = np.zeros(n)
    block = params.block_len
    for t in range(n):
        pos = t % block
        if pos >= params.num_taps:
            powers[t] = math.exp(params.slot_law(pos - params.num_taps + 1).log_mean_power)
    return powers


def verify_log_moment_bounds(
    config: ChannelConfig,
    scheme: Optional[SchemeParams],
    k: int,
    n_samples: int = 1_000_000,
    seed: int = 0,
    n_workers: Optional[int] = None,
) -> List[CheckReport]:
    """Audit the two output log-moment identities at time index ``k``.

    (a)  E[log|Y_k|^2]  <=  E[log(sigma^2 + sum_l alpha_l |X_{k-l}|^2)], checked
         from two independently seeded sample sets with a joint standard error;
    (b)  log E|Y_k|^2  ==  log(sigma^2 + sum_l alpha_l E|X_{k-l}|^2), checked
         against the analytic slot powers via the delta method.

    ``scheme=None`` audits the zero-input channel (pure noise).  Both checks
    use a 3-standard-error acceptance threshold.  Y_k comes from
    ``channel.output_at``, which equals the channel operator ``simulate`` on
    ``realize_many``'s draws bit for bit but holds one tap's sample paths at
    a time.
    """
    if k < 1:
        raise ValueError(f"time index must be >= 1, got {k}")
    if scheme is not None and scheme.num_taps != config.num_paths:
        raise ValueError("scheme guard length must match the channel memory")
    shards = _shards(n_samples, n_workers)
    workers = default_workers() if n_workers is None else n_workers
    alphas = np.asarray(config.alphas)
    sigma2 = config.noise_variance
    taps = min(k, config.num_paths + 1)  # number of input symbols reaching Y_k

    def input_batch(rng: np.random.Generator, m: int) -> np.ndarray:
        if scheme is None:
            return np.zeros((m, k), dtype=complex)
        return _scheme_inputs(scheme, k, m, rng)

    def weighted_input_power(x: np.ndarray) -> np.ndarray:
        """sigma^2 + sum_{l=0}^{min(k-1,L)} alpha_l |x_{k-l}|^2 per draw."""
        window = np.abs(x[:, k - taps : k][:, ::-1]) ** 2  # column l is |x_{k-l}|^2
        return sigma2 + window @ alphas[:taps]

    # (a) LHS and RHS from disjoint seeds so their errors combine independently.
    lhs, rhs, second = _Accumulator(), _Accumulator(), _Accumulator()
    for w, size in shards:
        for start in range(0, size, _CHUNK):
            m = min(_CHUNK, size - start)
            chunk_id = start // _CHUNK
            x = input_batch(substream(seed, 0, w, chunk_id), m)
            y2 = np.abs(output_at(config, x, seed=_mix(seed, 1, w, chunk_id)))
            del x  # free this chunk's inputs before the next draws
            np.square(y2, out=y2)
            second.add(y2)
            np.log(y2, out=y2)
            lhs.add(y2)
            rhs.add(np.log(weighted_input_power(input_batch(substream(seed, 2, w, chunk_id), m))))

    lhs, rhs, second = lhs.estimate(), rhs.estimate(), second.estimate()
    if scheme is None:
        analytic = math.log(sigma2)
    else:
        powers = _slot_mean_powers(scheme, k)
        analytic = math.log(sigma2 + float(powers[k - taps : k][::-1] @ alphas[:taps]))
    joint = math.hypot(lhs.std_error, rhs.std_error)
    log_sem = second.std_error / second.value  # delta method
    return [
        CheckReport.judge("log_moment_upper", lhs.value, "<=", rhs.value, joint, workers),
        CheckReport.judge("second_moment_identity", math.log(second.value), "==", analytic, log_sem, workers),
    ]


def _mix(seed: int, *key: int) -> int:
    """Stable derived master seed for components that take a seed, not a stream."""
    mixed = np.random.SeedSequence(seed, spawn_key=tuple(key)).generate_state(2)
    return int(mixed[0]) | (int(mixed[1]) << 32)

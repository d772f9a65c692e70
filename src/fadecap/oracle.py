"""Monte Carlo and brute-force oracles for the analytic ingredients.

Everything here is independent of the closed forms it checks: mutual
information on scalar fading instances is estimated from the exact
conditional Gaussian density (bias-controlled, with quantifiable standard
errors), the output log-moment inequalities are audited at the last slot of
one scheme block by direct channel simulation (``channel.output_at``, which
draws only the output the audit reads), and per-path statistics by plain
sample means.

All estimators are deterministic given the seed and the sample budget.  The
budget is split over ``_SHARDS`` independent substreams; means and standard
errors are merged a chunk at a time, and every report is judged by the one
rule of ``CheckReport.judge``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Tuple

# realize_many and simulate are the reference that output_at is tested
# against; they stay bound here, where perfbench/tracing.py wraps them.
from .channel import ChannelConfig, output_at, realize_many, simulate  # noqa: F401
from .direct import LogUniformX2, SchemeParams
from .fading import Ar1Gaussian, IidGaussian, PathGainSpec, ZeroPath, complex_normal
from .streams import substream

if TYPE_CHECKING:
    import numpy as np

_CHUNK = 65536
_TILE = 1024  # rows of the MI oracle's log-density tile (_TILE x n_inner float64)
# The split the recorded audit values (perfbench/golden.json) were drawn with;
# ROADMAP item 3 removes it together with one re-pin of those values.
_SHARDS = 2


def _shards(n_samples: int, budget: str = "n_samples") -> List[Tuple[int, int]]:
    """The ``(substream, size)`` shards of a budget of at least 2 samples (a
    standard error needs two)."""
    if n_samples < 2:
        raise ValueError(f"{budget} must be at least 2, got {n_samples}")
    base, extra = divmod(n_samples, _SHARDS)
    return [(w, base + (w < extra)) for w in range(_SHARDS)]


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
        import numpy as np

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

    @classmethod
    def judge(
        cls, check: str, lhs: float, relation: str, rhs: float, std_error: float, slack: float = 0.0
    ) -> CheckReport:
        """The report of ``lhs relation rhs``, for ``relation`` one of ``==``,
        ``<=`` and ``>=``: it passes within 3 standard errors plus ``slack``."""
        tol = 3.0 * std_error + slack
        passed = {"==": abs(lhs - rhs) <= tol, "<=": lhs <= rhs + tol, ">=": lhs >= rhs - tol}[relation]
        return cls(check, lhs, rhs, std_error, passed)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "std_error": self.std_error,
            "pass": self.passed,
        }


def mc_log_gain(spec: PathGainSpec, n_samples: int, seed: int) -> McEstimate:
    """Sample mean of log|H|^2 over independent stationary marginal draws."""
    import numpy as np

    if isinstance(spec, ZeroPath):
        raise ValueError("the zero tap has no log-gain statistics")
    if not isinstance(spec, (IidGaussian, Ar1Gaussian)):
        raise TypeError(f"not a path-gain spec: {spec!r}")
    acc = _Accumulator()
    for w, size in _shards(n_samples):
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
    import numpy as np

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
    n_outer: int,
    seed: int,
    n_inner: int = 512,
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
    import numpy as np

    if h_variance <= 0.0:
        raise ValueError(f"h_variance must be positive, got {h_variance}")
    if w_variance < 0.0:
        raise ValueError(f"w_variance must be nonnegative, got {w_variance}")
    shards = _shards(n_outer, "n_outer")
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


def mc_block_power(params: SchemeParams, n_samples: int, seed: int) -> McEstimate:
    """Monte Carlo block-average power of the scheme (oracle for the closed form)."""
    import numpy as np

    acc = _Accumulator()
    for w, size in _shards(n_samples):
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


def _scheme_inputs(params: SchemeParams, n_draws: int, rng: np.random.Generator) -> np.ndarray:
    """(n_draws, L+tau) inputs of one scheme block: L guard zeros, then slots 1..tau."""
    import numpy as np

    x = np.zeros((n_draws, params.block_len), dtype=complex)
    for nu in range(1, params.tau + 1):
        x[:, params.num_taps + nu - 1] = params.slot_law(nu).sample_x(rng, n_draws)
    return x


def verify_log_moment_bounds(
    config: ChannelConfig,
    scheme: SchemeParams,
    n_samples: int,
    seed: int,
) -> List[CheckReport]:
    """Audit the two output log-moment identities at the last slot k = L + tau of one scheme block.

    (a)  E[log|Y_k|^2]  <=  E[log(sigma^2 + sum_l alpha_l |X_{k-l}|^2)], checked
         from two independently seeded sample sets with a joint standard error;
    (b)  log E|Y_k|^2  ==  log(sigma^2 + sum_l alpha_l E|X_{k-l}|^2), checked
         against the analytic slot powers via the delta method.

    Y_k is fed by the L+1 inputs X_{tau}, ..., X_{L+tau} of the block.  Both
    checks use a 3-standard-error acceptance threshold.  (a) catches only
    gross errors: on the demo channel it has about 200 standard errors of
    slack on clean draws, and it passes with every alpha_l x 1.1; (b) is the
    check that sees small tap-variance errors.  Y_k comes from
    ``channel.output_at``, which equals the channel operator ``simulate`` on
    ``realize_many``'s draws bit for bit but holds one tap's sample paths at
    a time.
    """
    import numpy as np

    if scheme.num_taps != config.num_paths:
        raise ValueError("scheme guard length must match the channel memory")
    shards = _shards(n_samples)
    alphas = np.asarray(config.alphas)
    sigma2 = config.noise_variance
    k, taps = scheme.block_len, config.num_paths + 1  # Y_k and the input symbols reaching it

    def weighted_input_power(x: np.ndarray) -> np.ndarray:
        """sigma^2 + sum_{l=0}^{L} alpha_l |x_{k-l}|^2 per draw."""
        window = np.abs(x[:, k - taps : k][:, ::-1]) ** 2  # column l is |x_{k-l}|^2
        return sigma2 + window @ alphas

    # (a) LHS and RHS from disjoint seeds so their errors combine independently.
    lhs, rhs, second = _Accumulator(), _Accumulator(), _Accumulator()
    for w, size in shards:
        for start in range(0, size, _CHUNK):
            m = min(_CHUNK, size - start)
            chunk_id = start // _CHUNK
            x = _scheme_inputs(scheme, m, substream(seed, 0, w, chunk_id))
            y2 = np.abs(output_at(config, x, seed=_mix(seed, 1, w, chunk_id)))
            del x  # free this chunk's inputs before the next draws
            np.square(y2, out=y2)
            second.add(y2)
            np.log(y2, out=y2)
            lhs.add(y2)
            rhs.add(np.log(weighted_input_power(_scheme_inputs(scheme, m, substream(seed, 2, w, chunk_id)))))

    lhs, rhs, second = lhs.estimate(), rhs.estimate(), second.estimate()
    powers = np.zeros(k)  # analytic E|X_t|^2 over the block
    for nu in range(1, scheme.tau + 1):
        powers[scheme.num_taps + nu - 1] = math.exp(scheme.slot_law(nu).log_mean_power)
    analytic = math.log(sigma2 + float(powers[k - taps : k][::-1] @ alphas))
    joint = math.hypot(lhs.std_error, rhs.std_error)
    log_sem = second.std_error / second.value  # delta method
    return [
        CheckReport.judge("log_moment_upper", lhs.value, "<=", rhs.value, joint),
        CheckReport.judge("second_moment_identity", math.log(second.value), "==", analytic, log_sem),
    ]


def _mix(seed: int, *key: int) -> int:
    """Stable derived master seed for components that take a seed, not a stream."""
    import numpy as np

    mixed = np.random.SeedSequence(seed, spawn_key=tuple(key)).generate_state(2)
    return int(mixed[0]) | (int(mixed[1]) << 32)

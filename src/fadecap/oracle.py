"""Monte Carlo and brute-force oracles for the analytic ingredients.

Everything here is independent of the closed forms it checks: mutual
information on scalar fading instances is estimated from the exact
conditional Gaussian density (bias-controlled, with quantifiable standard
errors), the output log-moment inequalities are audited at the last slot of
one scheme block by direct channel simulation (``channel.output_at``, which
makes the channel's draws but holds only the output the audit reads), and
per-path statistics by plain sample means.

All estimators are deterministic given the seed and the sample budget.  The
budget is split over ``_SHARDS`` independent substreams; means and standard
errors are merged a chunk at a time, and every report is judged by the one
rule of ``CheckReport.judge``.

Each audit holds at most one float per sample of a shard, for the
whole-shard means the recorded values were drawn with, plus blocks of
``_CHUNK`` samples.  Tracemalloc peaks on the demo channel at the default
budgets (1e6 moment draws, 1e5 MI draws), each oracle called as
``cli.run_verification_suite`` calls it, in a process that has run the suite
once at 2 draws: ``mc_block_power`` 4.32 MiB, ``mc_log_gain`` 5.32 MiB, one
log-moment chunk 7.51 MiB and the MI oracle 2.68 MiB (3.15 MiB at two full
chunks, 2 x 65 536 draws).  Only merging the shard estimators a chunk at a
time waits for a re-pin of those values.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, List, Tuple

# realize_many and simulate are the reference that output_at is tested
# against; they stay bound here, where perfbench/tracing.py wraps them.
from .channel import output_at, realize_many, simulate  # noqa: F401
from .config import ChannelConfig, positive_finite
from .direct import LogUniformX2, SchemeParams
from .fading import LOG10, LOG_PI, LOG_PI_E, PathGainSpec, fill_normals, stats_of
from .record import Record
from .streams import _SHARDS, substream

if TYPE_CHECKING:
    import numpy as np

_CHUNK = 65536
_TILE = 256  # rows of the MI oracle's log-density tile (_TILE x n_inner float64)
_HEADROOM = 1000.0  # check_audit_power's factor between its bound on the largest sum and float max


def _shards(n_samples: int, budget: str = "n_samples") -> List[Tuple[int, int]]:
    """The ``(substream, size)`` shards of a budget of at least 2 samples (a
    standard error needs two)."""
    if n_samples < 2:
        raise ValueError(f"{budget} must be at least 2, got {n_samples}")
    base, extra = divmod(n_samples, _SHARDS)
    return [(w, base + (w < extra)) for w in range(_SHARDS)]


def check_audit_power(config: ChannelConfig, n_samples: int) -> None:
    """Raise unless the channel's power keeps every audit of ``n_samples`` draws finite in float64.

    The largest value the audits form is the sum of squared deviations of
    |Y_k|^2, the log-moment audit's output power, which is at most the sum of
    |Y_k|^4.  Given the inputs, Y_k is CN(0, s) with s = sigma^2 + sum_l
    alpha_l |X_{k-l}|^2, and no symbol has |X|^2 above P, so that sum has mean
    2n E[s^2] <= 2n (sigma^2 + alpha_total P)^2.  The block-power audit's sum
    of squares is at most n P^2.  The larger bound is held ``_HEADROOM``
    times below the largest float, so by Markov's inequality the sum
    overflows with probability below 1 / ``_HEADROOM``.
    """
    n = max(n_samples, 2)  # a smaller budget is each audit's own error
    half = 0.5 * (math.log(sys.float_info.max) - math.log(2.0 * _HEADROOM * n))  # log of the largest s or P
    room = 1.0 - config.noise_variance * math.exp(-half)
    limit = min(half, half + math.log(room) - math.log(sum(config.alphas))) if room > 0.0 else -math.inf
    if config.log_power > limit:
        raise ValueError(
            f"log10_power {config.log_power / LOG10:.6g} is too large to audit with {n_samples} draws: "
            f"their sums of squares can overflow float64 above log10_power {limit / LOG10:.6g}"
        )


class McEstimate(Record):
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
    ``std(ddof=1) / sqrt(n)`` bit for bit.  ``add`` squares the deviations
    in the array it is given, so it needs no array of its own; each audit
    hands it one shard (``mc_log_gain``, ``mc_block_power``) or one chunk
    at a time.  Merging a shard's chunks instead would move the pinned
    values, so that waits for their re-pin (ROADMAP item 3).
    """

    def __init__(self) -> None:
        self.n, self.mean, self.m2 = 0, 0.0, 0.0

    def add(self, values: np.ndarray) -> None:
        """Merge ``values`` in, overwriting them with their squared deviations from their mean."""
        import numpy as np

        n_b = values.size
        mean_b = float(np.mean(values))
        n = self.n + n_b
        delta = mean_b - self.mean
        values -= mean_b
        np.square(values, out=values)
        self.m2 += float(np.sum(values)) + delta * delta * (self.n * n_b / n)
        self.mean += delta * (n_b / n)
        self.n = n

    def estimate(self) -> McEstimate:
        return McEstimate(self.mean, math.sqrt(self.m2 / (self.n - 1)) / math.sqrt(self.n), self.n)


class CheckReport(Record):
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
        ``<=`` and ``>=``: it passes within 3 standard errors plus ``slack``,
        and fails whenever a side or the tolerance is not finite."""
        tol = 3.0 * std_error + slack
        holds = {"==": abs(lhs - rhs) <= tol, "<=": lhs <= rhs + tol, ">=": lhs >= rhs - tol}[relation]
        return cls(check, lhs, rhs, std_error, holds and all(map(math.isfinite, (lhs, rhs, tol))))

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "std_error": self.std_error,
            "pass": self.passed,
        }


def _log_abs2(rng: np.random.Generator, size: int, variance: float) -> np.ndarray:
    """``log|complex_normal(rng, size, variance)|^2``, bit for bit.

    Every real part is drawn into the result; the imaginary parts, which
    the generator yields after them, then meet them _CHUNK at a time, and
    ``log|H|^2`` is written back in place.
    """
    import numpy as np

    scale = math.sqrt(variance / 2.0)
    out = np.empty(size)
    fill_normals(rng, out[:, None], scale)
    h = np.empty(min(_CHUNK, size), dtype=complex)
    for start in range(0, size, _CHUNK):
        chunk = out[start : start + _CHUNK]
        part = h[: chunk.size]
        part.real = chunk
        fill_normals(rng, part.imag[:, None], scale)
        np.abs(part, out=chunk)
    np.square(out, out=out)
    np.log(out, out=out)
    return out


def mc_log_gain(spec: PathGainSpec, n_samples: int, seed: int) -> McEstimate:
    """Sample mean of log|H|^2 over independent stationary marginal draws.

    Each shard's draws are those of ``complex_normal``, but only one float
    per gain is held (``_log_abs2``).
    """
    if not stats_of(spec).active:
        raise ValueError("the zero tap has no log-gain statistics")
    acc = _Accumulator()
    for w, size in _shards(n_samples):
        acc.add(_log_abs2(substream(seed, w), size, spec.alpha))
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

    positive_finite(h_variance, "h_variance")
    if not 0.0 <= w_variance < math.inf:
        raise ValueError(f"w_variance must be nonnegative and finite, got {w_variance}")
    shards = _shards(n_outer, "n_outer")
    u, weights = x2_law.quadrature(n_inner)
    s_nodes = h_variance * np.exp(u) + w_variance  # conditional variances at nodes
    # log f_Y(y) for a circularly-symmetric mixture of CN(0, s_j) is
    # logsumexp_j(log_c_j - |y|^2 / s_j)
    log_c = np.log(weights) - LOG_PI - np.log(s_nodes)

    acc = _Accumulator()
    for w, size in shards:
        rng = substream(seed, w)
        for start in range(0, size, _CHUNK):
            m = min(_CHUNK, size - start)
            u_draw = x2_law.sample_log_x2(rng, m)
            s_draw = h_variance * np.exp(u_draw) + w_variance
            y2 = s_draw * rng.exponential(size=m)  # |Y|^2 | X is exponential(mean s)
            log_fy = _log_mixture_density(y2, log_c, s_nodes)
            acc.add(-log_fy - (LOG_PI_E + np.log(s_draw)))
            del u_draw, s_draw, y2, log_fy  # not alive while the next chunk draws
    return acc.estimate()


def mc_block_power(params: SchemeParams, n_samples: int, seed: int) -> McEstimate:
    """Monte Carlo block-average power of the scheme (oracle for the closed form)."""
    acc = _Accumulator()
    for w, size in _shards(n_samples):
        acc.add(_block_powers(params, size, substream(seed, w)))
    return acc.estimate()


def _block_powers(params: SchemeParams, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` draws of one block's average power: slot after slot, each slot's
    log-powers drawn _CHUNK at a time, exponentiated and added into the total."""
    import numpy as np

    total = np.zeros(size)
    for nu in range(1, params.tau + 1):
        law = params.slot_law(nu)
        for start in range(0, size, _CHUNK):
            power = law.sample_log_x2(rng, min(_CHUNK, size - start))
            np.exp(power, out=power)
            total[start : start + power.size] += power
            del power  # freed before the next chunk draws
    total /= params.block_len
    return total


def _scheme_log_inputs(params: SchemeParams, n_draws: int, rng: np.random.Generator) -> np.ndarray:
    """The complex logarithms (``LogUniformX2.sample_log_x``) of the (n_draws, L+1)
    inputs X_tau, ..., X_{L+tau} of one scheme block, the ones that reach its
    last output: the block's last L+1 columns.

    The block is L guard zeros, log 0 = -inf (``np.exp`` gives exactly +0+0j),
    then slots 1..tau.  Slots before the window are still drawn, in order,
    and dropped, so the stream moves as for the whole block.
    """
    import numpy as np

    log_x = np.full((n_draws, params.num_taps + 1), -np.inf, dtype=complex)
    for nu in range(1, params.tau + 1):
        column = params.num_taps + nu - params.tau  # the slot's column in the window
        params.slot_law(nu).sample_log_x(rng, n_draws, out=log_x[:, column] if column >= 0 else None)
    return log_x


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

    Y_k is fed by the L+1 inputs X_{tau}, ..., X_{L+tau} of the block, and
    only those are held, as complex logarithms (``_scheme_log_inputs``): Y_k
    reads them exponentiated in place, and the right side of (a) reads only
    |X|^2 = exp(2 Re log X), forming no complex exponential.  Both checks use a
    3-standard-error acceptance threshold.  (a) catches only gross errors:
    on the demo channel it has about 200 standard errors of slack on clean
    draws, and it passes with every alpha_l x 1.1; (b) is the check that
    sees small tap-variance errors.  Y_k comes from ``channel.output_at``,
    which equals the channel operator ``simulate`` on ``realize_many``'s
    draws bit for bit but holds only the time-k column of the noise and of
    each tap's gains.
    """
    import numpy as np

    if scheme.num_taps != config.num_paths:
        raise ValueError("scheme guard length must match the channel memory")
    shards = _shards(n_samples)
    alphas = np.asarray(config.alphas)
    sigma2 = config.noise_variance
    k, taps = scheme.block_len, config.num_paths + 1  # Y_k and the input symbols reaching it

    # (a) LHS and RHS from disjoint seeds so their errors combine independently.
    lhs, rhs, second = _Accumulator(), _Accumulator(), _Accumulator()
    for w, size in shards:
        for start in range(0, size, _CHUNK):
            m = min(_CHUNK, size - start)
            chunk_id = start // _CHUNK
            x = _scheme_log_inputs(scheme, m, substream(seed, 0, w, chunk_id))
            np.exp(x, out=x)
            y2 = np.abs(output_at(config, k, x, seed=_mix(seed, 1, w, chunk_id)))
            del x  # free this chunk's inputs before the next draws
            np.square(y2, out=y2)
            log_y2 = np.log(y2)
            second.add(y2)
            lhs.add(log_y2)
            del y2, log_y2  # and its outputs
            log_x = _scheme_log_inputs(scheme, m, substream(seed, 2, w, chunk_id))
            rhs.add(np.log(sigma2 + np.exp(2.0 * log_x.real[:, ::-1]) @ alphas))  # column l: |X_{k-l}|^2
            del log_x  # not alive while the next chunk draws

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

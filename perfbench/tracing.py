"""Spans and counts at fadecap's module boundaries, recorded from outside ``src/``.

fadecap's modules bind each other's functions with ``from .x import y``, so
a function is wrapped at every module that calls it, not only where it is
defined. Each call through a wrapper records one span (layer name, start,
end, parent span) in flat in-memory arrays; ``summary`` turns them into
per-layer call counts and self times, and ``dump`` writes them out.

A layer's self time is its span's duration minus the time covered by its
child spans. Calls run on one thread, so children never overlap and their
durations add.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Optional

import numpy as np


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_gains(counters, fn, args, kwargs, result) -> None:
    # complex samples drawn: n_paths independent paths of length n
    a = _bound(fn, args, kwargs)
    counters["fading.gains_drawn"] += int(a["n"]) * int(a["n_paths"])


def _count_realization(counters, fn, args, kwargs, result) -> None:
    counters["channel.bytes_computed"] += int(result.gains.nbytes + result.noise.nbytes)


def _count_simulate(counters, fn, args, kwargs, result) -> None:
    counters["channel.bytes_computed"] += int(result.nbytes)


def _count_log_moments(counters, fn, args, kwargs, result) -> None:
    counters["oracle.log_moment_samples"] += int(_bound(fn, args, kwargs)["n_samples"])


def _count_mi(counters, fn, args, kwargs, result) -> None:
    a = _bound(fn, args, kwargs)
    terms = int(a["n_outer"]) * int(a["n_inner"])
    counters["oracle.mi_density_terms"] += terms
    counters["oracle.mi_bytes_computed"] += 8 * terms  # one float64 per mixture term


def _count_written(counters, fn, args, kwargs, result) -> None:
    a = _bound(fn, args, kwargs)
    counters["cli.bytes_written"] += Path(a["out_path"]).stat().st_size + Path(result).stat().st_size


# (module that binds the name, attribute, layer name, counter hook)
TARGETS = (
    ("fadecap.channel", "substream", "streams.substream", None),
    ("fadecap.oracle", "substream", "streams.substream", None),
    ("fadecap.channel", "sample_paths", "fading.sample_paths", _count_gains),
    ("fadecap.cli", "entropy_rate_szego", "fading.entropy_rate_szego", None),
    ("fadecap.oracle", "realize_many", "channel.realize_many", _count_realization),
    ("fadecap.oracle", "simulate", "channel.simulate", _count_simulate),
    ("fadecap.cli", "verify_log_moment_bounds", "oracle.verify_log_moment_bounds", _count_log_moments),
    ("fadecap.cli", "mi_scalar_gaussian", "oracle.mi_scalar_gaussian", _count_mi),
    ("fadecap.cli", "mc_log_gain", "oracle.mc_log_gain", None),
    ("fadecap.cli", "mc_block_power", "oracle.mc_block_power", None),
    ("fadecap.cli", "upper_bound", "converse.upper_bound", None),
    ("fadecap.cli", "optimize_tau", "direct.optimize_tau", None),
    ("fadecap.cli", "lower_bound", "direct.lower_bound", None),
    ("fadecap.direct", "lower_bound", "direct.lower_bound", None),
    ("fadecap.cli", "run_sweep", "cli.run_sweep", None),
    ("fadecap.cli", "emit", "cli.emit", None),
    ("fadecap.cli", "write_outputs", "cli.write_outputs", _count_written),
    ("fadecap.cli", "run_verification_suite", "cli.run_verification_suite", None),
)
LAYERS = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))
COUNTERS = (
    "fading.gains_drawn",
    "channel.bytes_computed",
    "oracle.log_moment_samples",
    "oracle.mi_density_terms",
    "oracle.mi_bytes_computed",
    "cli.bytes_written",
)


class MissingTarget(Exception):
    """A function named in TARGETS is gone from the program."""


class Tracer:
    """Records spans for calls through the wrapped functions while installed."""

    def __init__(self) -> None:
        self.layer_ids = {name: i for i, name in enumerate(LAYERS)}
        self._patched = []
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counters (call between operations)."""
        self.layer = array("h")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counters: Dict[str, int] = defaultdict(int)

    def _wrap(self, fn: Callable, layer: str, hook: Optional[Callable]) -> Callable:
        layer_id = self.layer_ids[layer]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self.stack
            index = len(self.start)
            self.layer.append(layer_id)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counters, fn, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target. A target the program no longer has is an error, so
        that a renamed function forces a benchmark update instead of zero calls."""
        found = []
        for module_name, attr, layer, hook in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                raise MissingTarget(f"{module_name}.{attr} no longer exists; update tracing.TARGETS")
            found.append((module, attr, fn, layer, hook))
        for module, attr, fn, layer, hook in found:
            self._patched.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, layer, hook))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched = []

    def spans(self) -> Dict[str, np.ndarray]:
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict:
        """Per-layer calls and self time, the counters, and the root spans' total time."""
        s = self.spans()
        n_layers = len(LAYERS)
        duration = s["end"] - s["start"]
        child = s["parent"] >= 0
        covered = np.bincount(s["parent"][child], weights=duration[child], minlength=duration.size)
        self_time = duration - covered
        calls = np.bincount(s["layer"], minlength=n_layers)
        self_s = np.bincount(s["layer"], weights=self_time, minlength=n_layers)
        # lower_bound calls made from inside optimize_tau (the tau candidates tried)
        parent_layer = np.where(child, s["layer"][np.maximum(s["parent"], 0)], -1)
        candidates = int(
            np.count_nonzero(
                (s["layer"] == self.layer_ids["direct.lower_bound"])
                & (parent_layer == self.layer_ids["direct.optimize_tau"])
            )
        )
        return {
            "calls": {name: int(calls[i]) for i, name in enumerate(LAYERS)},
            "self_s": {name: float(self_s[i]) for i, name in enumerate(LAYERS)},
            "counters": {name: int(self.counters.get(name, 0)) for name in COUNTERS},
            "tau_candidates": candidates,
            "root_s": float(duration[~child].sum()),
            "spans": int(duration.size),
        }

    def dump(self, path) -> None:
        np.savez(path, layers=np.array(LAYERS), **self.spans())

"""Output checks for every benchmark operation; each returns a list of errors.

Sweeps are checked three ways:

* at the default seed, the data file and sidecar bytes must match the
  digests in ``golden.json`` (recorded at the commit that added the
  benchmark);
* at every seed, each row's ``tau_star`` must equal an exhaustive scan of
  the public ``direct.lower_bound`` over 1..tau_max (or the fixed tau), and
  the derived columns must follow from the bounds;
* at every seed, a sample of rows must agree with a 60-digit ``mpmath``
  evaluation of both closed forms, computed here from the config alone.

``verify_demo`` reports must carry exactly the recorded set of check names,
finite values, ``pass`` true on every check, and an MI standard error no
larger than the recorded one allows, so a faster but coarser MI estimator
fails the check. At the default seed every report's lhs, rhs and std_error
must equal the recorded values to ``REPORT_RTOL``: the audit is
deterministic for a seed and worker count, so any change to an estimator
shows.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path
from typing import List, Sequence

import mpmath
import numpy as np

GOLDEN = json.loads((Path(__file__).resolve().parent / "golden.json").read_text(encoding="utf-8"))
CSV_HEADER = "log_snr,upper,lower,tau_star,loglog_snr,ratio_upper,ratio_lower"
COLUMNS = CSV_HEADER.split(",")
REL_TOL = 1e-14  # today's worst relative error against 60 digits is 2.5e-16
MP_SAMPLE = 32  # rows per sweep checked against mpmath
LN10 = math.log(10.0)
# Reports repeat exactly on one host; the margin absorbs last-digit
# differences of vectorised exp/log between CPU types.
REPORT_RTOL = 1e-9


def _rel_err(actual: np.ndarray, expected: np.ndarray) -> np.ndarray:
    return np.abs(actual - expected) / np.maximum(np.abs(expected), np.finfo(float).tiny)


def parse_rows(text: str, output_format: str) -> dict:
    """Sweep output as column arrays; raises ValueError on a malformed file."""
    if output_format == "csv":
        lines = text.splitlines()
        if not lines or lines[0] != CSV_HEADER:
            raise ValueError("CSV header missing or wrong")
        fields = [line.split(",") for line in lines[1:]]
        if any(len(f) != len(COLUMNS) for f in fields):
            raise ValueError("CSV row with the wrong number of fields")
        rows = [dict(zip(COLUMNS, f)) for f in fields]
    elif output_format == "json":
        rows = json.loads(text)
        if not isinstance(rows, list) or any(
            not isinstance(r, dict) or set(r) != set(COLUMNS) for r in rows
        ):
            raise ValueError("JSON output is not a list of objects with the sweep columns")
    else:
        raise ValueError(f"unknown output format {output_format!r}")
    out = {c: np.array([float(r[c]) for r in rows]) for c in COLUMNS if c != "tau_star"}
    out["tau_star"] = np.array([int(r["tau_star"]) for r in rows], dtype=np.int64)
    return out


def check_golden(workload: str, data: bytes, sidecar: bytes) -> List[str]:
    """Bytes of the default-seed outputs against the recorded digests."""
    golden = GOLDEN["sweeps"][workload]
    errors = []
    for label, blob in (("data", data), ("sidecar", sidecar)):
        if hashlib.sha256(blob).hexdigest() != golden[f"{label}_sha256"]:
            errors.append(f"{label} file differs from the golden copy ({len(blob)} bytes, "
                          f"golden has {golden[f'{label}_bytes']})")
    return errors


def check_sidecar(sidecar: bytes, config: dict) -> List[str]:
    try:
        meta = json.loads(sidecar)
        echo = meta["config"]
    except (ValueError, KeyError, TypeError) as err:
        return [f"sidecar unreadable: {err!r}"]
    errors = []
    if meta.get("constants_certified") is not False:
        errors.append("sidecar must record constants_certified = false")
    if meta.get("seed") != config["seed"]:
        errors.append(f"sidecar seed {meta.get('seed')!r} != config seed {config['seed']}")
    for key in ("grid", "tau", "tau_max", "output_format"):
        if echo.get(key) != config[key]:
            errors.append(f"sidecar config echo differs in {key!r}")
    return errors


def _demo_stats(config: dict):
    """Closed-form channel statistics at 60 digits, straight from the config."""
    mp = mpmath.mp
    paths = config["channel"]["paths"]
    assert all(p["kind"] == "ar1" for p in paths), "the workloads use AR(1) paths only"
    alphas = [mp.mpf(p["alpha"]) for p in paths]
    gaps = [mp.log(mp.pi * mp.e * alpha) + mp.log(1 - mp.mpf(p["a_re"]) ** 2 - mp.mpf(p["a_im"]) ** 2)
            - alpha for p, alpha in zip(paths, alphas)]
    return min(gaps), alphas


def mp_bounds(log_snr: float, tau: int, config: dict):
    """(upper, lower) at 60 digits for the given log SNR (nats) and block length."""
    mp = mpmath.mp
    with mp.workdps(60):
        inf_gap, alphas = _demo_stats(config)
        b = config["bounds"]
        assert b["xi"] is None, "the workloads use the default xi"
        delta, eta, eps = mp.mpf(b["delta"]), mp.mpf(b["eta"]), mp.mpf(b["eps_const"])
        x = mp.mpf(log_snr)
        total = mp.fsum(alphas)
        psi = (-2 * mp.log(delta) + 2 * eps + (2 / eta) * (2 / mp.e + mp.log(mp.pi * mp.e))
               - (2 / eta) * inf_gap)
        log1p_snr = mp.log(1 + total * mp.exp(x))
        xi = 1 / (1 + log1p_snr)
        upper = (-inf_gap + xi * (1 + log1p_snr + psi) + mp.loggamma(xi) - xi * mp.log(xi)
                 + mp.log(mp.pi))

        sigma2 = mp.mpf(config["channel"]["noise_variance"])
        log_p = x + mp.log(sigma2)
        taps = len(alphas) - 1
        mean_log_gain_0 = mp.log(alphas[0]) - mp.euler
        xi_p = mean_log_gain_0 - 1 - 2 * mp.log(mp.sqrt(alphas[0]) + mp.sqrt((total + sigma2) / log_p))
        inner = log_p / tau - mp.log(log_p)
        if inner <= 0:  # schedule inadmissible: no rate exists at this tau
            return float(upper), math.nan
        lower = mp.mpf(tau) / (taps + tau) * (mp.log(inner) + xi_p)
        return float(upper), float(lower)


def check_rows(rows: dict, config: dict, seed: int) -> List[str]:
    """Grid, tau* scan, derived columns and an mpmath sample of one sweep's rows."""
    from fadecap.channel import config_from_dict
    from fadecap.direct import DirectStats, lower_bound

    grid = config["grid"]
    n = grid["points"]
    if rows["log_snr"].size != n:
        return [f"expected {n} rows, got {rows['log_snr'].size}"]
    errors = []
    x = rows["log_snr"]
    steps = np.arange(n) / (n - 1)
    expected_x = (grid["log10_snr_start"] + steps * (grid["log10_snr_stop"] - grid["log10_snr_start"])) * LN10
    if not np.all(_rel_err(x, expected_x) <= 1e-12):
        errors.append("log_snr column is not the configured grid")

    stats = DirectStats.from_config(config_from_dict(config["channel"]))
    wrong_tau, wrong_lower = [], []
    for i, (log_snr, tau_star, lower) in enumerate(zip(x, rows["tau_star"], rows["lower"])):
        if config["tau"] is None:
            best_tau, best = None, -math.inf
            for tau in range(1, config["tau_max"] + 1):
                try:
                    value = lower_bound(float(log_snr), tau, stats)
                except ValueError:  # schedule inadmissible at this (P, tau)
                    continue
                if value > best:
                    best_tau, best = tau, value
        else:
            best_tau, best = config["tau"], lower_bound(float(log_snr), config["tau"], stats)
        if tau_star != best_tau:
            wrong_tau.append(i)
        elif not abs(lower - best) <= REL_TOL * abs(best):
            wrong_lower.append(i)
    if wrong_tau:
        errors.append(f"tau_star differs from the exhaustive scan at {len(wrong_tau)} rows, first {wrong_tau[0]}")
    if wrong_lower:
        errors.append(f"lower differs from lower_bound(tau_star) at {len(wrong_lower)} rows, first {wrong_lower[0]}")

    loglog = np.log(x)
    for column, expected in (
        ("loglog_snr", loglog),
        ("ratio_upper", rows["upper"] / loglog),
        ("ratio_lower", rows["lower"] / loglog),
    ):
        if not np.all(_rel_err(rows[column], expected) <= REL_TOL):
            errors.append(f"{column} does not follow from the other columns")

    pick = sorted(random.Random(seed).sample(range(1, n - 1), min(MP_SAMPLE, n - 2)) + [0, n - 1])
    bad = {"upper": [], "lower": []}
    for i in pick:
        upper, lower = mp_bounds(float(x[i]), int(rows["tau_star"][i]), config)
        for column, exact in (("upper", upper), ("lower", lower)):
            if not abs(rows[column][i] - exact) <= REL_TOL * abs(exact):
                bad[column].append((i, float(rows[column][i]), exact))
    for column, rows_off in bad.items():
        if rows_off:
            i, value, exact = rows_off[0]
            errors.append(f"{column} differs from its 60-digit value at {len(rows_off)} of {len(pick)} "
                          f"sampled rows; row {i}: {value!r} vs {exact!r}")
    return errors


def check_sweep(workload: str, seed: int, config: dict, data: bytes, sidecar: bytes,
                golden: bool) -> List[str]:
    """All checks of one sweep's final data file and sidecar."""
    errors = check_golden(workload, data, sidecar) if golden else []
    errors += check_sidecar(sidecar, config)
    try:
        rows = parse_rows(data.decode("utf-8"), config["output_format"])
    except (ValueError, UnicodeDecodeError, KeyError, TypeError) as err:
        return errors + [f"sweep output unreadable: {err}"]
    return errors + check_rows(rows, config, seed)


def check_reports(reports: Sequence[dict], golden: bool) -> List[str]:
    """One verify operation's reports against the recorded check set and,
    with ``golden``, against the values recorded at the default seed."""
    recorded = GOLDEN["verify"]
    names = [r.get("check") for r in reports]
    errors = []
    if sorted(names) != sorted(recorded["check_names"]):
        errors.append(f"check names {sorted(map(str, names))} differ from the recorded set")
    for r in reports:
        values = [r.get("lhs"), r.get("rhs"), r.get("std_error")]
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
            errors.append(f"{r.get('check')}: non-finite or missing lhs/rhs/std_error")
            continue
        if r["std_error"] < 0.0:
            errors.append(f"{r.get('check')}: negative std_error")
        if r.get("pass") is not True:
            errors.append(f"{r.get('check')}: the check did not pass (pass = {r.get('pass')!r})")
        expected = recorded["reports"].get(r.get("check")) if golden else None
        if expected is not None:
            off = [k for k in ("lhs", "rhs", "std_error")
                   if not math.isclose(r[k], expected[k], rel_tol=REPORT_RTOL, abs_tol=0.0)]
            if off:
                errors.append(f"{r['check']}: {', '.join(off)} differ from the recorded values "
                              f"(lhs {r['lhs']!r} vs {expected['lhs']!r})")
    mi = [r for r in reports if r.get("check") == "lemma_mi_bound"]
    if mi and isinstance(mi[0].get("std_error"), float) and mi[0]["std_error"] > recorded["mi_se_max"]:
        errors.append(f"lemma_mi_bound std_error {mi[0]['std_error']:.6g} exceeds "
                      f"{recorded['mi_se_max']:.6g}: the MI estimate is coarser than recorded")
    return errors

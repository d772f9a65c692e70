"""The fadecap benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, one after another

NAME is one of ``sweep_search``, ``sweep_fixed_tau`` and ``verify_demo``
(see README.md for why each exists). A run generates the workload's config
from the seed, times ``setup_s`` in fresh interpreters, runs the operations
in a separate process (``workload.py``), checks every operation's output
(``checks.py``) and prints one line per metric, then one JSON result line.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics of a traced run.

Exit status: 0 when every output is correct, 1 when an output is wrong or
the workload process crashed, was killed or timed out (the result line still
prints, from the operations completed before), 2 when the benchmark cannot
run (no result line), for instance outside a checkout of the repository.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "_work"
sys.path.insert(0, str(BENCH_DIR))

from workload import HARNESS_EXIT  # noqa: E402
from workloads import DEFAULT_SEED, SWEEPS, WORKLOADS, make_config  # noqa: E402

WORKERS = "2"  # FADECAP_WORKERS for every workload: the host's core count
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120
REFERENCE_TIMEOUT_S = 40

SETUP_PROBE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import fadecap.cli as cli
t1 = time.perf_counter()
cli.load_config(sys.argv[2])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_config_s": t2 - t1}))
"""

REFERENCE_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import fadecap.cli as cli
reports = cli.run_verification_suite(cli.load_config(sys.argv[2]))
print(json.dumps([r.to_dict() for r in reports]))
"""


class HarnessError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def _child(argv, timeout: float):
    """Run a child in a process group of its own to completion.

    On timeout the group is killed and the child reaped. Returns the
    finished process, or None when it timed out."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env={**os.environ, "FADECAP_WORKERS": WORKERS}, cwd=ROOT,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:  # also whatever the child left running
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if proc.returncode is None:
            proc.communicate()
    return None if out is None else subprocess.CompletedProcess(argv, proc.returncode, out, err)


def measure_setup(config_path: Path) -> list:
    """import fadecap.cli + cli.load_config, each time in a fresh interpreter."""
    setup = []
    for _ in range(SETUP_REPEATS):
        proc = _child([sys.executable, "-c", SETUP_PROBE, str(ROOT / "src"), str(config_path)], 60)
        if proc is None or proc.returncode != 0:
            raise HarnessError("set-up probe failed:\n" + (proc.stderr[-4000:] if proc else "timed out"))
        setup.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return setup


def run_operations(workload: str, config_path: Path, workdir: Path, seconds: float,
                   trace: bool) -> tuple:
    """The workload process's operations, and its peak RSS in MiB.

    When the process crashed, was killed or timed out, the operations it
    completed are kept and one failed operation is added for the one it died in.
    """
    started = time.perf_counter()
    proc = _child([sys.executable, str(BENCH_DIR / "workload.py"), str(ROOT), workload,
                   str(config_path), str(workdir), str(seconds), "1" if trace else "0"],
                  CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - started
    if proc is not None and proc.returncode == HARNESS_EXIT:
        raise HarnessError(proc.stderr[-4000:].strip())
    log = workdir / "ops.jsonl"
    lines = log.read_text(encoding="utf-8").splitlines() if log.exists() else []
    ops = []
    for line in lines:
        try:
            ops.append(json.loads(line))
        except ValueError:  # the last line, cut off when the process died
            break
    peak = max((op["peak_rss_mb"] for op in ops), default=0.0)
    if proc is None or proc.returncode != 0:
        died = (f"timed out after {CHILD_TIMEOUT_S} s" if proc is None
                else f"was killed by signal {-proc.returncode}" if proc.returncode < 0
                else f"exited with status {proc.returncode}: {proc.stderr[-2000:].strip()}")
        ops.append({"traced": trace, "wall_s": elapsed - sum(op["wall_s"] for op in ops),
                    "error": f"the workload process {died}"})
        # RUSAGE_CHILDREN covers the reaped workload process too
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
    return ops, peak


def check_reference(workdir: Path) -> list:
    """Errors of one untimed default-seed audit against the recorded reports.

    golden.json pins the reports of the default seed only; this audit pins
    the estimators on a run at any other seed as well."""
    import checks

    path = workdir / "reference.json"
    path.write_text(json.dumps(make_config("verify_demo", DEFAULT_SEED)), encoding="utf-8")
    proc = _child([sys.executable, "-c", REFERENCE_PROBE, str(ROOT / "src"), str(path)],
                  REFERENCE_TIMEOUT_S)
    if proc is None or proc.returncode != 0:
        return ["the default-seed reference audit failed: "
                + (proc.stderr[-2000:].strip() if proc else f"timed out after {REFERENCE_TIMEOUT_S} s")]
    reports = json.loads(proc.stdout.strip().splitlines()[-1])
    return [f"default-seed reference audit: {e}" for e in checks.check_reports(reports, golden=True)]


def _check_ops(workload: str, seed: int, config: dict, ops: list, workdir: Path) -> list:
    """Errors per operation; every operation's output is checked."""
    import checks

    errors = [[op["error"]] if "error" in op else [] for op in ops]
    done = [i for i, op in enumerate(ops) if "error" not in op]
    if not done:
        return errors
    if workload in SWEEPS:
        # Every operation wrote the same config's output to the same files;
        # the first operation's files are checked in full and every
        # operation's digests must equal theirs.
        data_path = workdir / "checked" / f"sweep.{config['output_format']}"
        data = data_path.read_bytes()
        sidecar = data_path.with_name(data_path.name + ".meta.json").read_bytes()
        final = checks.check_sweep(workload, seed, config, data, sidecar, golden=seed == DEFAULT_SEED)
        digests = {"data_sha256": hashlib.sha256(data).hexdigest(),
                   "sidecar_sha256": hashlib.sha256(sidecar).hexdigest()}
        for i in done:
            errors[i] += final
            if ops[i]["output"] != digests:
                errors[i].append("output bytes differ from the checked files")
    else:
        first = ops[done[0]]["output"]["reports"]
        reference = check_reference(workdir) if seed != DEFAULT_SEED else []
        for i in done:
            errors[i] += reference
            reports = ops[i]["output"]["reports"]
            errors[i] += checks.check_reports(reports, golden=seed == DEFAULT_SEED)
            if reports != first:
                errors[i].append("reports differ between operations with the same seed")
    return errors


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def end_to_end_metrics(setup: list, ops: list, ok: list, peak_rss_mb: float) -> dict:
    # Contention on a shared host only ever adds time, so the fastest
    # completed operation is the steadiest estimate of an operation's cost.
    walls = [op["wall_s"] for op in ops if "error" not in op] or [op["wall_s"] for op in ops]
    return {
        "setup_s": (_median([s["import_s"] + s["load_config_s"] for s in setup]), "s"),
        "op_s": (min(walls), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "ops_ok_ratio": (sum(ok) / len(ops), "ratio"),
    }


def per_layer_metrics(setup: list, ops: list) -> tuple:
    """Per-layer metrics from the traced operations, and errors if counts did not repeat."""
    from tracing import LAYERS

    traced = [op for op in ops if op.get("traced") and "trace" in op]
    untraced = [op["wall_s"] for op in ops if not op.get("traced") and "error" not in op]
    if not traced:
        return {}, ["no traced operation completed"]
    first = traced[0]["trace"]
    errors = []
    for op in traced[1:]:
        t = op["trace"]
        if (t["calls"], t["counters"], t["tau_candidates"]) != (
            first["calls"], first["counters"], first["tau_candidates"]
        ):
            errors.append("per-layer counts differ between two traced operations")

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (first["calls"][layer], "count")
        metrics[f"{layer}.self_s"] = (_mean([op["trace"]["self_s"][layer] for op in traced]), "s")
    units = {"fading.gains_drawn": "samples", "oracle.log_moment_samples": "samples",
             "oracle.mi_density_terms": "count"}
    for name, value in first["counters"].items():
        metrics[name] = (value, units.get(name, "bytes"))
    lower_calls = first["tau_candidates"]
    metrics["direct.tau_useful_ratio"] = (
        first["calls"]["direct.optimize_tau"] / lower_calls if lower_calls else 0.0, "ratio")

    reports = traced[-1]["output"].get("reports", [])
    mi = [r["std_error"] for r in reports if r["check"] == "lemma_mi_bound"]
    metrics["oracle.mi_se"] = (mi[0] if mi else 0.0, "nats")
    metrics["cli.checks_failed_ratio"] = (
        sum(not r["pass"] for r in reports) / len(reports) if reports else 0.0, "ratio")

    metrics["setup.import_s"] = (_median([s["import_s"] for s in setup]), "s")
    metrics["cli.load_config.s"] = (_median([s["load_config_s"] for s in setup]), "s")
    traced_op = _mean([op["wall_s"] for op in traced])
    self_total = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
    metrics["trace.op_s"] = (traced_op, "s")
    metrics["trace.remainder_s"] = (traced_op - self_total, "s")
    metrics["trace.overhead_s"] = (
        min(op["wall_s"] for op in traced) - min(untraced, default=0.0), "s")
    metrics["trace.spans"] = (first["spans"], "count")
    return metrics, errors


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload; returns the result object."""
    config = make_config(workload, seed)
    WORK_DIR.mkdir(exist_ok=True)
    workdir = WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        config_path = workdir / "config.json"
        config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        setup = measure_setup(config_path)
        ops, peak_rss_mb = run_operations(workload, config_path, workdir, seconds, trace)
        op_errors = _check_ops(workload, seed, config, ops, workdir)
        ok = [not e for e in op_errors]
        if trace:
            metrics, run_errors = per_layer_metrics(setup, ops)
            if (workdir / "spans.npz").exists():
                shutil.move(str(workdir / "spans.npz"), str(WORK_DIR / f"spans-{workload}.npz"))
        else:
            metrics, run_errors = end_to_end_metrics(setup, ops, ok, peak_rss_mb), []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failing = {}
    for i, errs in enumerate(op_errors):
        for e in errs:
            failing.setdefault(e, []).append(str(i))
    for e, which in failing.items():
        print(f"[{workload}] operations {','.join(which)}: {e}")
    for e in run_errors:
        print(f"[{workload}] {e}")
    print(f"{workload:16s} {'operation wall times (s)':42s} "
          + " ".join(f"{'T' if op.get('traced') else ''}{op['wall_s']:.3f}" for op in ops))
    for name, (value, unit) in metrics.items():
        print(f"{workload:16s} {name:42s} {value:>16.6g} {unit}")
    if workload == "verify_demo" and not trace:
        reports = ops[-1]["output"]["reports"] if "output" in ops[-1] else []
        for r in reports:
            if r["check"] == "lemma_mi_bound":
                print(f"{workload:16s} {'mi_se':42s} {r['std_error']:>16.6g} nats")
        if reports:
            failed = sum(not r["pass"] for r in reports) / len(reports)
            print(f"{workload:16s} {'checks_failed_ratio':42s} {failed:>16.6g} ratio")
    return {
        "correct": all(ok) and not run_errors,
        "attempted": len(ops),
        "failed": sum(not k for k in ok),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "fadecap" / "__init__.py").is_file():
        print(f"benchmark error: no fadecap sources under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    started = time.time()
    try:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except HarnessError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[args.workload]
    else:
        for w, r in results.items():
            print(f"{w} " + json.dumps(r, sort_keys=True))
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(f"elapsed {time.time() - started:.1f} s", file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

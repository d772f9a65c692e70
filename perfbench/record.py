"""Record the benchmark's reference data and baseline entries.

    python3 perfbench/record.py golden
        Rewrite golden.json from the current program: digests of the
        default-seed sweep outputs, the verify check names, the default-seed
        verify reports and the MI standard-error limit. Only for a change
        that alters outputs on purpose.

    python3 perfbench/record.py baseline
        Run every workload for BENCHMARK.json's run_seconds once per seed
        0..9 untraced and twice traced, print each end-to-end metric's median
        and quartile spread against its bound, check that the two traced
        runs' counts are identical, and write results/BENCH_<commit>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from workloads import DEFAULT_SEED, SWEEPS, WORKLOADS, make_config  # noqa: E402

MI_SE_MARGIN = 1.05  # seed-to-seed spread of the MI standard error is about 1 %
RUNS = 10


def record_golden() -> None:
    os.environ["FADECAP_WORKERS"] = run.WORKERS
    sys.path.insert(0, str(ROOT / "src"))
    import fadecap.cli as cli

    golden = {"sweeps": {}, "verify": {}}
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
        for workload in SWEEPS:
            config = cli.sweep_config_from_dict(make_config(workload, DEFAULT_SEED))
            points, metadata = cli.run_sweep(config)
            out = Path(tmp) / f"sweep.{config.output_format}"
            sidecar = cli.write_outputs(points, metadata, out, config.output_format)
            entry = {}
            for label, path in (("data", out), ("sidecar", sidecar)):
                blob = path.read_bytes()
                entry[f"{label}_sha256"] = hashlib.sha256(blob).hexdigest()
                entry[f"{label}_bytes"] = len(blob)
            golden["sweeps"][workload] = entry
    config = cli.sweep_config_from_dict(make_config("verify_demo", DEFAULT_SEED))
    reports = cli.run_verification_suite(config)
    mi_se = next(r.std_error for r in reports if r.check == "lemma_mi_bound")
    golden["verify"] = {
        "check_names": sorted(r.check for r in reports),
        "reports": {r.check: {"lhs": r.lhs, "rhs": r.rhs, "std_error": r.std_error} for r in reports},
        "mi_se_at_default_seed": mi_se,
        "mi_se_max": MI_SE_MARGIN * mi_se,
    }
    (BENCH_DIR / "golden.json").write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


def env_record() -> dict:
    """What a baseline entry was measured on."""
    import mpmath
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "FADECAP_WORKERS": run.WORKERS,
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD of the repository, or None outside one."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}\n{proc.stderr}")
    return result


def spread(values) -> tuple:
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def record_baseline() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    entry = {"env": env_record(), "run_seconds": seconds, "seeds": list(range(RUNS)),
             "end_to_end": {}, "per_layer": {}}
    for workload in WORKLOADS:
        values = {}
        for seed in range(RUNS):
            result = _bench(workload, seed, seconds, 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        entry["end_to_end"][workload] = {}
        for name, vals in values.items():
            median, q1, q3, rel = spread(vals)
            entry["end_to_end"][workload][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": rel, "bound": bounds[name], "values": vals}
            print(f"  {workload:16s} {name:14s} median {median:12.6g}  spread {rel:7.4f}  "
                  f"bound {bounds[name]}", flush=True)
        # Two traced runs in separate processes: every count must repeat exactly.
        first, second = (_bench(workload, DEFAULT_SEED, seconds, 1)["metrics"] for _ in range(2))
        differing = [k for k, v in first.items() if v["unit"] != "s" and v != second[k]]
        if differing:
            raise SystemExit(f"{workload}: per-layer counts differ between traced runs: {differing}")
        entry["per_layer"][workload] = {k: v["value"] for k, v in first.items()}
    commit = (entry["env"]["git_commit"] or "unknown")[:7]
    out = BENCH_DIR / "results" / f"BENCH_{commit}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("what", choices=("golden", "baseline"))
    if parser.parse_args().what == "golden":
        record_golden()
    else:
        record_baseline()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

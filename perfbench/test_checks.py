"""The benchmark's own tests: every output check rejects a corrupted output.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from tracing import MissingTarget, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, make_config  # noqa: E402

from fadecap import cli  # noqa: E402


def small_sweep(workload: str, points: int = 12):
    """A short grid of the workload's config and its output bytes."""
    config = make_config(workload, seed=5)
    config["grid"] = dict(config["grid"], points=points)
    sweep = cli.sweep_config_from_dict(config)
    rows, metadata = cli.run_sweep(sweep)
    data = cli.emit(rows, sweep.output_format).encode()
    sidecar = (json.dumps(metadata, indent=2, sort_keys=True) + "\n").encode()
    return config, data, sidecar


@pytest.fixture(scope="module")
def search():
    return small_sweep("sweep_search")


@pytest.fixture(scope="module")
def fixed():
    return small_sweep("sweep_fixed_tau")


def corrupted_rows(config, data, column, index, change):
    rows = checks.parse_rows(data.decode(), config["output_format"])
    rows[column] = rows[column].copy()
    rows[column][index] = change(rows[column][index])
    return rows


@pytest.mark.parametrize("fixture", ["search", "fixed"])
def test_correct_sweeps_pass(fixture, request):
    config, data, sidecar = request.getfixturevalue(fixture)
    assert checks.check_sweep(f"sweep_{fixture}", 5, config, data, sidecar, golden=False) == []


@pytest.mark.parametrize(
    "column, index, change, message",
    [
        ("tau_star", 4, lambda t: t + 1, "tau_star differs"),
        ("lower", 3, lambda v: v * (1 + 1e-12), "lower differs"),
        ("upper", 0, lambda v: v * (1 + 1e-12), "60-digit"),
        ("lower", 11, lambda v: math.nan, "lower differs"),
        ("log_snr", 6, lambda v: v * (1 + 1e-9), "grid"),
        ("loglog_snr", 2, lambda v: v * (1 + 1e-12), "loglog_snr"),
        ("ratio_upper", 2, lambda v: v * (1 + 1e-12), "ratio_upper"),
    ],
)
def test_search_rows_reject_corruption(search, column, index, change, message):
    config, data, _ = search
    errors = checks.check_rows(corrupted_rows(config, data, column, index, change), config, seed=5)
    assert any(message in e for e in errors), errors


def test_fixed_tau_rejects_another_tau(fixed):
    config, data, _ = fixed
    errors = checks.check_rows(corrupted_rows(config, data, "tau_star", 1, lambda t: 7), config, seed=5)
    assert any("tau_star differs" in e for e in errors), errors


def test_missing_row_is_rejected(search):
    config, data, sidecar = search
    truncated = data.rsplit(b"\n", 2)[0] + b"\n"
    errors = checks.check_sweep("sweep_search", 5, config, truncated, sidecar, golden=False)
    assert any("expected 12 rows" in e for e in errors), errors


@pytest.mark.parametrize(
    "text, fmt",
    [
        ("log_snr,upper\n1,2\n", "csv"),
        (checks.CSV_HEADER + "\n1,2,3\n", "csv"),
        ('[{"log_snr": 1}]', "json"),
        ('{"rows": []}', "json"),
    ],
)
def test_malformed_output_is_rejected(text, fmt):
    with pytest.raises(ValueError):
        checks.parse_rows(text, fmt)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m: m.update(seed=m["seed"] + 1), "seed"),
        (lambda m: m.update(constants_certified=True), "constants_certified"),
        (lambda m: m["config"].update(tau=3), "'tau'"),
        (lambda m: m["config"]["grid"].update(points=7), "'grid'"),
    ],
)
def test_sidecar_rejects_corruption(search, edit, message):
    config, _, sidecar = search
    meta = json.loads(sidecar)
    edit(meta)
    errors = checks.check_sidecar(json.dumps(meta).encode(), config)
    assert any(message in e for e in errors), errors


def test_golden_rejects_a_flipped_byte(monkeypatch):
    data, sidecar = b"log_snr,upper\n1,2\n", b"{}\n"
    entry = {"data_sha256": hashlib.sha256(data).hexdigest(), "data_bytes": len(data),
             "sidecar_sha256": hashlib.sha256(sidecar).hexdigest(), "sidecar_bytes": len(sidecar)}
    monkeypatch.setitem(checks.GOLDEN["sweeps"], "sweep_search", entry)
    assert checks.check_golden("sweep_search", data, sidecar) == []
    assert checks.check_golden("sweep_search", data.replace(b"2", b"3"), sidecar)
    assert checks.check_golden("sweep_search", data, b"{ }\n")


def good_reports():
    """The reports recorded at the default seed, as one operation returns them."""
    return [{"check": name, **values, "pass": True, "workers": 2}
            for name, values in checks.GOLDEN["verify"]["reports"].items()]


def test_recorded_reports_pass():
    assert checks.check_reports(good_reports(), golden=True) == []


def _mi(reports):
    return next(r for r in reports if r["check"] == "lemma_mi_bound")


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda rs: rs.pop(), "differ from the recorded set"),
        (lambda rs: rs[0].update(check="renamed"), "differ from the recorded set"),
        (lambda rs: rs.append(dict(rs[0])), "differ from the recorded set"),
        (lambda rs: rs[1].update(lhs=math.nan), "non-finite"),
        (lambda rs: rs[2].update(std_error=-1.0), "negative std_error"),
        (lambda rs: rs[2].update(**{"pass": False}), "did not pass"),
        (lambda rs: rs[3].update(**{"pass": "yes"}), "did not pass"),
        (lambda rs: _mi(rs).update(std_error=_mi(rs)["std_error"] * 1.1), "coarser"),
    ],
)
@pytest.mark.parametrize("golden", [True, False])
def test_reports_reject_corruption(edit, message, golden):
    reports = good_reports()
    edit(reports)
    errors = checks.check_reports(reports, golden=golden)
    assert any(message in e for e in errors), errors


@pytest.mark.parametrize("key", ["lhs", "rhs", "std_error"])
def test_default_seed_reports_must_equal_the_recorded_values(key):
    reports = good_reports()
    _mi(reports)[key] *= 1 + 1e-6
    errors = checks.check_reports(reports, golden=True)
    assert any(f"{key} differ from the recorded values" in e for e in errors), errors
    # another seed draws other samples: only the pass flags and the MI limit apply
    assert checks.check_reports(reports, golden=False) == []


def test_operations_must_agree(tmp_path):
    ops = [{"output": {"reports": good_reports()}}, {"output": {"reports": good_reports()}}]
    ops[1]["output"]["reports"][0]["lhs"] = 2.0
    errors = run._check_ops("verify_demo", DEFAULT_SEED, {}, ops, tmp_path)
    assert errors[0] == [] and any("differ between operations" in e for e in errors[1])


@pytest.mark.parametrize("shift, message", [(0.0, None), (1e-6, "lhs differ from the recorded"),
                                            (None, "reference audit failed")])
def test_other_seeds_audit_the_default_seed_too(monkeypatch, tmp_path, shift, message):
    reference = good_reports()
    if shift is not None:
        _mi(reference)["lhs"] *= 1 + shift

    def child(argv, timeout):
        assert json.loads(Path(argv[-1]).read_text()) == make_config("verify_demo", DEFAULT_SEED)
        out = json.dumps(reference) if shift is not None else None
        return subprocess.CompletedProcess(argv, 0, out, "") if out else None

    monkeypatch.setattr(run, "_child", child)
    ops = [{"output": {"reports": good_reports()}}] * 2  # outputs at seed 7 that pass on their own
    errors = run._check_ops("verify_demo", 7, {}, ops, tmp_path)
    if message is None:
        assert errors == [[], []]
    else:
        assert all(any(message in e for e in errs) for errs in errors), errors


def test_sweep_operations_must_match_the_checked_files(search, tmp_path):
    config, data, sidecar = search
    (tmp_path / "checked").mkdir()
    (tmp_path / "checked" / "sweep.csv").write_bytes(data)
    (tmp_path / "checked" / "sweep.csv.meta.json").write_bytes(sidecar)
    digest = {"data_sha256": hashlib.sha256(data).hexdigest(),
              "sidecar_sha256": hashlib.sha256(sidecar).hexdigest()}
    ops = [{"output": digest}, {"output": dict(digest, data_sha256="0" * 64)}]
    errors = run._check_ops("sweep_search", 5, config, ops, tmp_path)
    assert errors[0] == [] and any("differ from the checked files" in e for e in errors[1])


def traced_sweep():
    """Trace summaries of two identical small searches."""
    config = cli.sweep_config_from_dict(dict(make_config("sweep_search", 5),
                                             grid={"log10_snr_start": 1e5, "log10_snr_stop": 1e6,
                                                   "points": 4}))
    tracer = Tracer()
    tracer.install()
    summaries = []
    try:
        for _ in range(2):
            tracer.reset()
            cli.run_sweep(config)
            summaries.append(tracer.summary())
    finally:
        tracer.uninstall()
    return summaries


def test_tracer_counts_and_accounts_for_time():
    first, second = traced_sweep()
    assert first["calls"]["direct.optimize_tau"] == 4
    assert first["calls"]["direct.lower_bound"] == first["tau_candidates"] == 4 * 1024
    assert first["calls"]["converse.upper_bound"] == 4
    assert first["calls"]["cli.run_sweep"] == 1
    assert sum(first["self_s"].values()) == pytest.approx(first["root_s"], rel=1e-9)
    assert (first["calls"], first["counters"]) == (second["calls"], second["counters"])
    assert cli.run_sweep.__name__ == "run_sweep" and not hasattr(cli.run_sweep, "__wrapped__")


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    first, second = traced_sweep()
    ops = [{"traced": False, "wall_s": 1.0},
           {"traced": True, "wall_s": 1.0, "trace": first, "output": {}},
           {"traced": True, "wall_s": 1.0, "trace": second, "output": {}}]
    setup = [{"import_s": 1.0, "load_config_s": 0.1}]
    layer, errors = run.per_layer_metrics(setup, ops)
    assert errors == []
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(k, u) for k, (_, u) in layer.items()]
    e2e = run.end_to_end_metrics(setup, ops, [True] * 3, 100.0)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(k, u) for k, (_, u) in e2e.items()]
    assert all(v > 0 for v, _ in e2e.values())


def test_counts_that_differ_between_traced_runs_are_rejected():
    first, second = traced_sweep()
    second["calls"] = dict(second["calls"], **{"direct.lower_bound": 1})
    ops = [{"traced": True, "wall_s": 1.0, "trace": first, "output": {}},
           {"traced": True, "wall_s": 1.0, "trace": second, "output": {}}]
    _, errors = run.per_layer_metrics([{"import_s": 1.0, "load_config_s": 0.1}], ops)
    assert any("counts differ" in e for e in errors)


def test_a_missing_trace_target_is_an_error(monkeypatch):
    monkeypatch.delattr(cli, "optimize_tau")
    with pytest.raises(MissingTarget, match="fadecap.cli.optimize_tau"):
        Tracer().install()
    assert not hasattr(cli.run_sweep, "__wrapped__")  # nothing left wrapped


def fake_child(tmp_path, ops, returncode, tail=""):
    """A run._child stand-in whose workload process completed ``ops`` and then ended."""
    def child(argv, timeout):
        if argv[1].endswith("workload.py"):
            workdir = Path(argv[5])
            (workdir / "ops.jsonl").write_text("".join(json.dumps(op) + "\n" for op in ops) + tail)
        if returncode is None:
            return None
        return subprocess.CompletedProcess(argv, returncode, "", "boom")
    return child


@pytest.mark.parametrize(
    "returncode, message",
    [(-9, "killed by signal 9"), (None, "timed out"), (1, "exited with status 1")],
)
def test_a_dying_workload_process_gives_a_failed_result(monkeypatch, tmp_path, returncode, message):
    op = {"traced": False, "wall_s": 2.5, "output": {"reports": good_reports()}, "peak_rss_mb": 900.0}
    monkeypatch.setattr(run, "_child", fake_child(tmp_path, [op], returncode, tail='{"traced": fa'))
    monkeypatch.setattr(run, "measure_setup", lambda path: [{"import_s": 1.0, "load_config_s": 0.1}])
    monkeypatch.setattr(run, "WORK_DIR", tmp_path)
    result = run.run_workload("verify_demo", DEFAULT_SEED, 1.0, trace=False)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)
    assert result["metrics"]["op_s"]["value"] == 2.5
    assert result["metrics"]["ops_ok_ratio"]["value"] == 0.5
    assert result["metrics"]["peak_rss_mb"]["value"] >= 900.0
    ops, _ = run.run_operations("verify_demo", tmp_path / "c.json", tmp_path, 1.0, False)
    assert message in ops[-1]["error"]


def test_a_harness_exit_is_not_a_program_failure(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "_child", fake_child(tmp_path, [], run.HARNESS_EXIT))
    with pytest.raises(run.HarnessError):
        run.run_operations("verify_demo", tmp_path / "c.json", tmp_path, 1.0, False)


def test_configs_follow_the_seed():
    for workload in ("sweep_search", "sweep_fixed_tau", "verify_demo"):
        assert make_config(workload, 3) == make_config(workload, 3)
        assert make_config(workload, 3) != make_config(workload, 4)
    grid = make_config("sweep_search", 9)["grid"]
    assert np.isclose(grid["log10_snr_start"], 1e6 / math.log(10), rtol=1e-3)

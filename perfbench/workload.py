"""Run one workload's operations in a process of its own and time them.

    python3 perfbench/workload.py ROOT WORKLOAD CONFIG WORKDIR SECONDS TRACE

``run.py`` starts this script once per workload run, so ``peak_rss_mb``
(``getrusage(RUSAGE_SELF)``) covers this workload and nothing else. It
imports fadecap from ``ROOT/src``, loads CONFIG and repeats the operation
until SECONDS have passed (at least ``MIN_OPS`` times). Each operation, as
it finishes, appends one JSON line to ``WORKDIR/ops.jsonl``: its wall time,
output digests or check reports, and the peak RSS so far. So when the
process is killed or crashes, ``run.py`` still has the operations it
completed. A sweep's first outputs are copied to ``WORKDIR/checked/``, the
files ``run.py`` checks in full.

With TRACE=1 the first half of the time runs untraced and the rest traced,
and the traced operations' spans go to ``WORKDIR/spans.npz``. Checking the
outputs is left to ``run.py``. Exit status ``HARNESS_EXIT`` means the
benchmark itself cannot run (wrong fadecap imported, a traced function
missing).
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

MIN_OPS = 3  # per run without tracing; 2 untraced + 2 traced with tracing
HARNESS_EXIT = 3


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv) -> int:
    root, workload, config_path, workdir, seconds, trace = argv
    root, workdir, seconds, trace = Path(root), Path(workdir), float(seconds), trace == "1"

    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import fadecap.cli as cli

    config = cli.load_config(config_path)
    if src not in Path(cli.__file__).resolve().parents:
        print(f"fadecap was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return HARNESS_EXIT

    if workload == "verify_demo":
        def op():
            return cli.run_verification_suite(config)

        def outcome(reports):
            return {"reports": [r.to_dict() for r in reports]}
    else:
        out_path = workdir / f"sweep.{config.output_format}"
        sidecar = out_path.with_name(out_path.name + ".meta.json")

        def op():
            points, metadata = cli.run_sweep(config)
            cli.write_outputs(points, metadata, out_path, config.output_format)

        def outcome(_):
            checked = workdir / "checked"
            if not checked.exists():
                checked.mkdir()
                for path in (out_path, sidecar):
                    shutil.copyfile(path, checked / path.name)
            return {"data_sha256": _sha256(out_path), "sidecar_sha256": _sha256(sidecar)}

    if trace:
        from tracing import MissingTarget, Tracer

        tracer = Tracer()
        try:
            tracer.install()
        except MissingTarget as err:
            print(f"tracing: {err}", file=sys.stderr)
            return HARNESS_EXIT
        tracer.uninstall()
        phases = [(False, 2, seconds / 2.0), (True, 2, seconds)]
    else:
        tracer = None
        phases = [(False, MIN_OPS, seconds)]

    log = (workdir / "ops.jsonl").open("a", encoding="utf-8")
    failed = False
    start = time.perf_counter()
    for traced, min_ops, until in phases:
        if traced:
            tracer.install()
        done = 0
        while done < min_ops or time.perf_counter() - start < until:
            if traced:
                tracer.reset()
            t = time.perf_counter()
            try:
                result = op()
            except Exception as err:  # the program failed this operation: record it, stop
                traceback.print_exc()
                entry = {"traced": traced, "wall_s": time.perf_counter() - t,
                         "error": f"{type(err).__name__}: {err}"}
                failed = True
            else:
                entry = {"traced": traced, "wall_s": time.perf_counter() - t, "output": outcome(result)}
                if traced:
                    entry["trace"] = tracer.summary()
            entry["peak_rss_mb"] = _peak_rss_mb()
            log.write(json.dumps(entry) + "\n")
            log.flush()
            done += 1
            if failed:
                break
        if traced:
            tracer.uninstall()
            tracer.dump(workdir / "spans.npz")  # the last traced operation's spans
        if failed:
            break
    log.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""Bench of record: time GPS end to end and layer by layer.

Run from the repository root::

    python3 bench_record/run.py --workload censys_run --seed 1 --seconds 25 --trace 0

Workloads are ``censys_run``, ``serve_lookup`` and ``serve_swap`` (see
``workloads.py`` and ``RECORD.md``).  ``--trace 0`` measures with tracing
off and reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
wraps each layer's public calls, reports the per-layer metrics and writes
the spans to ``.bench_out/``.  Every run checks the program's outputs
against the single-core reference first: a failed check exits 1 and prints
no result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is a JSON report with every named quantity (units, percentiles, sample
counts) and the host and run metadata.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def _git_commit() -> str:
    """The checked-out commit, read from ``.git`` (``"unknown"`` outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_metadata() -> dict:
    """Host and run facts every result carries."""
    from repro.engine.columns import numpy_available, resolve_column_backend

    numpy_version = None
    if numpy_available():
        import numpy
        numpy_version = numpy.__version__
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "column_backend": resolve_column_backend(None),
        "mp_start_method": multiprocessing.get_context().get_start_method(),
        "git_commit": _git_commit(),
    }


def _expected_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = spec["per_layer" if trace else "end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench_record: no GPS sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"bench_record: unknown workload {args.workload!r} "
              f"(expected one of {sorted(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    expected = _expected_metrics(bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    recorder = layers.Recorder() if args.trace else None
    started = time.time()
    try:
        result = workload(args.seed, args.seconds, OUT_DIR, recorder)
    except workloads.CheckFailed as exc:
        print(f"bench_record: output check failed: {exc}", file=sys.stderr)
        return 1

    produced = {name: unit for name, (_, unit) in result.metrics.items()}
    if produced != expected:
        print(f"bench_record: workload metrics {sorted(produced.items())} do "
              f"not match BENCHMARK.json {sorted(expected.items())}",
              file=sys.stderr)
        return 3
    if recorder is not None:
        recorder.write(str(OUT_DIR / f"spans-{args.workload}-{args.seed}.json"))
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "started": started, "host": host_metadata(),
        "report": result.report}, default=str))
    print(json.dumps({
        "correct": True,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

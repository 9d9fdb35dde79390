"""Sensitivity self-checks of the bench of record.

Each check breaks the program on purpose through the benchmark's own layer
wrappers and asserts that the benchmark notices.  They take a few minutes
and depend on timing, so the repository's test suite does not collect them;
run them explicitly from the repository root::

    python3 -m pytest bench_record/selfcheck.py -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import layers  # noqa: E402
import workloads  # noqa: E402
from repro.serving.schemas import LookupReply  # noqa: E402
from repro.serving.service import GPSService  # noqa: E402

SEED = 3
WORKDIR = ROOT / ".bench_out"
#: Share of a GPS run the injected scan_prefix delay adds.
DELAY_SHARE = 0.3


def _bound(metric: str) -> float:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(row["bound"] for row in spec["end_to_end"]
                if row["name"] == metric)


def _value(result: workloads.Result, metric: str) -> float:
    return result.metrics[metric][0]


def test_scan_prefix_delay_moves_run_time_and_is_attributed():
    WORKDIR.mkdir(exist_ok=True)
    baseline_trace = layers.Recorder()
    traced = workloads.censys_run(SEED, 10, WORKDIR, baseline_trace)
    runs = traced.report["traced_run_s"]["n"]
    calls_per_run = _value(traced, "scanner.pipeline.scan_prefix_calls") / runs
    run_s = traced.report["run_s"]["p50"]
    delay = DELAY_SHARE * run_s / calls_per_run

    # Alternate plain and delayed runs so machine drift hits both alike.
    plain, delayed = [], []
    for _ in range(4):
        plain.append(_value(workloads.censys_run(SEED, 15, WORKDIR),
                            "primary_p50_ms"))
        injected = layers.install(None, {"scanner.pipeline.scan_prefix": delay})
        try:
            delayed.append(_value(workloads.censys_run(SEED, 15, WORKDIR),
                                  "primary_p50_ms"))
        finally:
            injected.uninstall()
    growth = statistics.median(delayed) / statistics.median(plain) - 1.0
    assert growth > _bound("primary_p50_ms"), (plain, delayed)

    injected = layers.install(None, {"scanner.pipeline.scan_prefix": delay})
    try:
        slowed_trace = workloads.censys_run(SEED, 10, WORKDIR, layers.Recorder())
    finally:
        injected.uninstall()

    # The trace charges the added time to scanner.pipeline, not elsewhere.
    added = delay * _value(slowed_trace, "scanner.pipeline.scan_prefix_calls")
    deltas = {layer: _value(slowed_trace, f"{layer}.self_s")
              - _value(traced, f"{layer}.self_s")
              for layer in workloads.LAYER_NAMES}
    assert max(deltas, key=deltas.get) == "scanner.pipeline", deltas
    assert deltas["scanner.pipeline"] > 0.8 * added, (deltas, added)


def _corrupt_one_reply(process_lookups):
    corrupted = []

    def wrapper(self, items):
        out = process_lookups(self, items)
        for i, reply in enumerate(out):
            if not corrupted and isinstance(reply, LookupReply) \
                    and reply.predictions:
                out[i] = dataclasses.replace(
                    reply, predictions=reply.predictions[1:])
                corrupted.append(i)
        return out
    return wrapper


def test_corrupted_reply_fails_the_check():
    WORKDIR.mkdir(exist_ok=True)
    installed = layers.Installed()
    layers.wrap_callable(installed, GPSService, "_process_lookups",
                         _corrupt_one_reply)
    try:
        with pytest.raises(workloads.CheckFailed):
            workloads.serve_lookup(SEED, 3, WORKDIR)
    finally:
        installed.uninstall()


def test_refuses_to_run_without_sources():
    bare = WORKDIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(Path(__file__).resolve().parent, bare / "bench_record",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = subprocess.run(
            [sys.executable, "bench_record/run.py", "--workload", "censys_run",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert done.stdout == ""

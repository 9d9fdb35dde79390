"""The three workloads of the bench of record, with their output checks.

Every workload runs the production path: the persistent ``EngineRuntime``
with ``executor="serial"``, medium scale, the default column backend.  The
workload seed picks the universe seed, the split seeds and the request
order; the program sees only the generated inputs.

* ``censys_run`` -- full ``GPS.run`` through ``run_gps_on_dataset`` on the
  medium Censys-like dataset, one fresh split per run, each followed by the
  dict reference run of the same split.
* ``serve_lookup`` -- a warm ``GPSService``: open-loop point lookups at the
  nominal rate, a rising rate ladder, then closed-loop bulk predictions.
* ``serve_swap`` -- open-loop point lookups while a closed loop keeps
  replacing the model, alternating a rebuild with a snapshot restore.

A workload returns a :class:`Result`.  Untraced, its metrics are the
end-to-end metrics; traced (a :class:`~layers.Recorder` is passed), they are
the per-layer metrics.  A failed output check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import os
import random
import resource
import shutil
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.scenarios import (
    MEDIUM_SCALE,
    make_censys_dataset,
    make_universe,
    run_gps_on_dataset,
)
from repro.core.config import GPSConfig
from repro.core.features import extract_host_features_columns
from repro.datasets.split import split_seed_test
from repro.engine.snapshot import save_snapshot
from repro.scanner.bandwidth import ScanCategory
from repro.scanner.pipeline import ScanPipeline
from repro.scanner.records import group_pairs
from repro.serving.registry import build_prepared_model
from repro.serving.schemas import BulkPredict, PointLookup
from repro.serving.service import GPSService, ServingConfig

import calibrate
import layers
import loadgen

SEED_FRACTION = 0.1
SWAP_FRACTION = 0.3
STEP_SIZE = 16
EXECUTOR = "serial"
MODEL = "m"
SETUP_REPEATS = 3
NOMINAL_RPS = 500.0
SWAP_RPS = 200.0
LADDER_FACTOR = 1.1
LATENCY_LIMIT_MS = 20.0
BULK_OBSERVATIONS = 4000
BULK_REQUESTS = 24
LOOKUP_POOL = 20000
BUILD_SPLITS = 3

Metrics = Dict[str, Tuple[float, str]]


class CheckFailed(Exception):
    """A program output differed from its reference."""


@dataclasses.dataclass
class Result:
    """What one workload run measured.

    Attributes:
        attempted: operations attempted (runs or requests).
        failed: operations that raised, were shed or timed out.
        metrics: metric name -> (value, unit).
        report: every named quantity with unit and sample count, for the
            human-readable report line.
    """

    attempted: int
    failed: int
    metrics: Metrics
    report: Dict[str, Any]


def _ms(seconds: Sequence[float]) -> List[float]:
    return [value * 1000.0 for value in seconds]


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _gps_config(dataset, fraction: float, use_engine: bool = True) -> GPSConfig:
    engine = {"use_engine": True, "executor": EXECUTOR} if use_engine else {}
    return GPSConfig(seed_fraction=fraction, step_size=STEP_SIZE,
                     port_domain=dataset.port_domain, **engine)


def _make_world(universe_seed: int):
    universe = make_universe(MEDIUM_SCALE, seed=universe_seed)
    return universe, make_censys_dataset(universe, MEDIUM_SCALE)


def _end_to_end(setup: calibrate.Timings, primary_ms: Sequence[float],
                secondary_ms: Sequence[float], peak_rss_mb: float) -> Metrics:
    return {"setup_s": (_median(setup.scaled), "s"),
            "primary_p50_ms": (_median(primary_ms), "ms"),
            "secondary_p50_ms": (_median(secondary_ms), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB")}


# -- per-layer metrics ------------------------------------------------------------------

LAYER_NAMES = ("scanner.pipeline", "scanner.zmap", "scanner.lzr",
               "scanner.zgrab", "scanner.filtering", "core.features",
               "core.model", "core.priors", "core.predictions", "core.gps",
               "engine.runtime", "engine.snapshot", "serving.registry")


def layer_metrics(recorder: layers.Recorder, wall_s: float,
                  overhead_ms: float, extra: Metrics) -> Metrics:
    """Per-layer metrics from the recorded spans plus workload extras.

    ``<layer>.self_s`` is the layer's total self time; other ``_s`` / ``_ms``
    metrics are inclusive durations of the named call.
    """
    spans = recorder.spans
    totals = layers.layer_totals(spans)

    def get(key: str, field: str) -> float:
        return totals.get(key, {}).get(field, 0)

    def durations(key: str) -> List[float]:
        return [span.duration for span in spans if span.key == key]

    self_s: Dict[str, float] = defaultdict(float)
    for span in spans:
        self_s[span.layer] += span.self_s
    out: Metrics = {f"{layer}.self_s": (self_s[layer], "s")
                    for layer in LAYER_NAMES}
    filter_in = (get("scanner.filtering.filter", "rows_in")
                 + get("scanner.filtering.filter_batch", "rows_in"))
    filter_out = (get("scanner.filtering.filter", "rows_out")
                  + get("scanner.filtering.filter_batch", "rows_out"))
    for layer, keys in (("zmap", ("scan_prefix", "scan_pair_batch_columns")),
                        ("lzr", ("fingerprint_many", "fingerprint_batch_columns")),
                        ("zgrab", ("grab_many", "grab_batch_columns"))):
        for field in ("rows_in", "rows_out"):
            out[f"scanner.{layer}.{field}"] = (
                sum(get(f"scanner.{layer}.{key}", field) for key in keys),
                "count")
    load_keys = ("engine.runtime.load_shards",
                 "engine.runtime.load_shards_from_snapshot")
    registry_build = durations("serving.registry.build_prepared_model")
    registry_predict = durations("serving.registry.predict")
    out.update({
        "scanner.pipeline.scan_prefix_calls":
            (get("scanner.pipeline.scan_prefix", "calls"), "count"),
        "scanner.pipeline.scan_pair_batches_calls":
            (get("scanner.pipeline.scan_pair_batches", "calls"), "count"),
        "scanner.filtering.kept_ratio":
            (filter_out / filter_in if filter_in else 0.0, "ratio"),
        "core.features.entries":
            (get("core.features.extract_host_features_columns", "rows_out"),
             "count"),
        "core.model.entries":
            (get("core.model.build_model_with_engine", "rows_out"), "count"),
        "core.priors.entries":
            (get("core.priors.build_priors_plan_with_engine", "rows_out"),
             "count"),
        "core.predictions.index_build_s":
            (get("core.predictions.build_prediction_index_with_engine",
                 "total_s"), "s"),
        "core.predictions.predict_s":
            (get("core.predictions.predict", "total_s"), "s"),
        "core.predictions.predict_calls":
            (get("core.predictions.predict", "calls"), "count"),
        "core.predictions.observations_in":
            (get("core.predictions.predict", "rows_in"), "count"),
        "core.predictions.predictions_out":
            (get("core.predictions.predict", "rows_out"), "count"),
        "engine.runtime.load_shards_s":
            (sum(get(key, "total_s") for key in load_keys), "s"),
        "engine.runtime.load_shards_calls":
            (sum(get(key, "calls") for key in load_keys), "count"),
        "engine.runtime.execute_s": (get("engine.runtime.execute", "total_s"), "s"),
        "engine.runtime.execute_calls":
            (get("engine.runtime.execute", "calls"), "count"),
        "engine.runtime.unload_s": (get("engine.runtime.unload", "total_s"), "s"),
        "engine.runtime.unload_calls":
            (get("engine.runtime.unload", "calls"), "count"),
        "engine.snapshot.open_s":
            (get("engine.snapshot.open_snapshot", "total_s"), "s"),
        "engine.snapshot.from_snapshot_s":
            (get("engine.snapshot.from_snapshot", "total_s"), "s"),
        "engine.snapshot.bytes_read":
            (get("engine.snapshot.open_snapshot", "rows_out"), "bytes"),
        "serving.registry.build_p50_s": (_median(registry_build), "s"),
        "serving.registry.build_calls": (len(registry_build), "count"),
        "serving.registry.predict_p50_ms":
            (_median(_ms(registry_predict)), "ms"),
        "serving.registry.predict_calls": (len(registry_predict), "count"),
        "trace.overhead_ms": (overhead_ms, "ms"),
        "trace.wall_s": (wall_s, "s"),
        "trace.accounted_share":
            (sum(self_s.values()) / wall_s if wall_s else 0.0, "ratio"),
        "trace.spans": (len(spans), "count"),
    })
    defaults: Metrics = {
        "scanner.bandwidth.priors_hit_rate": (0.0, "ratio"),
        "scanner.bandwidth.prediction_hit_rate": (0.0, "ratio"),
        "serving.service.queue_wait_p50_ms": (0.0, "ms"),
        "serving.service.coalesced_mean": (0.0, "count"),
        "serving.service.flushes": (0, "count"),
        "loadgen.late_p99_ms": (0.0, "ms"),
    }
    out.update(defaults)
    out.update(extra)
    return out


class _Traced:
    """Installs the span wrappers for one ``with`` block."""

    def __init__(self, recorder: layers.Recorder) -> None:
        self.recorder = recorder
        self.wall_s = 0.0

    def __enter__(self) -> "_Traced":
        self._installed = layers.install(self.recorder)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.wall_s += time.perf_counter() - self._start
        self._installed.uninstall()


# -- censys_run ------------------------------------------------------------------------


def _coverage(result, split) -> float:
    test = split.test_pairs()
    return len(test & result.discovered_pairs()) / len(test)


def _precision(result, pipeline) -> float:
    found = sum(len(batch.pairs) for batch in result.discovery_log
                if batch.phase != "seed")
    ledger = pipeline.ledger
    probes = (ledger.total_probes(ScanCategory.PRIORS)
              + ledger.total_probes(ScanCategory.PREDICTION))
    return found / probes


def _check_run(prod, ref, split_seed: int) -> None:
    if prod.log_as_tuples() != ref.log_as_tuples():
        raise CheckFailed(f"censys_run split {split_seed}: discovery log "
                          "differs from the dict reference run")
    if prod.predictions != ref.predictions:
        raise CheckFailed(f"censys_run split {split_seed}: predictions list "
                          "differs from the dict reference run")


def censys_run(seed: int, seconds: float, workdir: Path,
               recorder: Optional[layers.Recorder] = None) -> Result:
    rng = random.Random(seed)
    universe_seed = rng.randrange(1, 2 ** 31)
    setup = calibrate.Timings()
    for _ in range(SETUP_REPEATS):
        universe = dataset = None
        (universe, dataset), _, _ = setup.time(
            lambda: _make_world(universe_seed))

    def run(split_seed: int, use_engine: bool, timings: calibrate.Timings):
        engine = {"executor": EXECUTOR} if use_engine else {}
        gc.collect()
        (result, pipeline, split), _, _ = timings.time(
            lambda: run_gps_on_dataset(universe, dataset, SEED_FRACTION,
                                       STEP_SIZE, split_seed=split_seed,
                                       **engine))
        return result, pipeline, split

    prod, ref, traced_runs = (calibrate.Timings(), calibrate.Timings(),
                              calibrate.Timings())
    coverage, precision = [], []
    ledger = defaultdict(int)
    traced = _Traced(recorder) if recorder is not None else None
    iterations = max(2, int(seconds // 10)) if traced else None
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        split_seed = rng.randrange(2 ** 31)
        if traced is not None:
            # Alternate which side runs first so drift hits both alike.
            outputs = []
            for side in ((False, True) if k % 2 == 0 else (True, False)):
                if side:
                    recorder.default_rid = k
                    with traced:
                        output, pipeline, split = run(split_seed, True,
                                                      traced_runs)
                    for category in (ScanCategory.PRIORS, ScanCategory.PREDICTION):
                        ledger[category, "probes"] += pipeline.ledger.total_probes(category)
                        ledger[category, "responses"] += \
                            pipeline.ledger.total_responses(category)
                else:
                    output, pipeline, split = run(split_seed, True, prod)
                outputs.append(output)
        else:
            output, pipeline, split = run(split_seed, True, prod)
            outputs = [output]
        reference, _, _ = run(split_seed, False, ref)
        for output in outputs:
            _check_run(output, reference, split_seed)
        coverage.append(_coverage(output, split))
        precision.append(_precision(output, pipeline))
        k += 1
        if (k >= iterations) if traced else time.perf_counter() >= deadline:
            break
    peak = _peak_rss_mb()
    report = {
        "run_s": prod.summary(),
        "reference_run_s": ref.summary(),
        "coverage": {"p50": _median(coverage), "n": len(coverage),
                     "unit": "ratio"},
        "precision": {"p50": _median(precision), "n": len(precision),
                      "unit": "ratio"},
        "setup_s": setup.summary(),
        "peak_rss_mb": peak,
        "error_rate": 0.0,
    }
    attempted = len(prod.raw) + len(traced_runs.raw) + len(ref.raw)
    if traced is None:
        return Result(attempted, 0, _end_to_end(setup, _ms(prod.scaled),
                                                _ms(ref.scaled), peak), report)

    def hit_rate(category) -> float:
        probes = ledger[category, "probes"]
        return ledger[category, "responses"] / probes if probes else 0.0

    overhead = (_median(traced_runs.scaled) - _median(prod.scaled)) * 1000.0
    extra = {"scanner.bandwidth.priors_hit_rate":
                 (hit_rate(ScanCategory.PRIORS), "ratio"),
             "scanner.bandwidth.prediction_hit_rate":
                 (hit_rate(ScanCategory.PREDICTION), "ratio")}
    report["traced_run_s"] = traced_runs.summary()
    return Result(attempted, 0, layer_metrics(recorder, sum(traced_runs.raw),
                                              overhead, extra), report)


# -- serving workloads --------------------------------------------------------------


@dataclasses.dataclass
class _World:
    universe: Any
    dataset: Any
    split: Any
    pipeline: ScanPipeline
    service: GPSService


async def _start_service(universe_seed: int, split_seed: int) -> _World:
    universe, dataset = _make_world(universe_seed)
    split = split_seed_test(dataset, SEED_FRACTION, seed=split_seed)
    pipeline = ScanPipeline(universe)
    service = GPSService(ServingConfig(executor=EXECUTOR))
    await service.load_model(MODEL, pipeline, split.seed_scan_result(),
                             _gps_config(dataset, SEED_FRACTION))
    return _World(universe, dataset, split, pipeline, service)


def _lookup_pool(split, rng: random.Random, size: int) -> List[PointLookup]:
    observations = split.test_observations
    pool = []
    for _ in range(size):
        obs = observations[rng.randrange(len(observations))]
        pool.append(PointLookup(MODEL, (obs,), frozenset({obs.pair()})))
    return pool


def _bulk_requests(split, rng: random.Random) -> List[BulkPredict]:
    by_host: Dict[int, list] = defaultdict(list)
    for obs in split.test_observations:
        by_host[obs.ip].append(obs)
    hosts = sorted(by_host)
    requests = []
    for _ in range(BULK_REQUESTS):
        rng.shuffle(hosts)
        chosen: list = []
        for ip in hosts:
            chosen.extend(by_host[ip])
            if len(chosen) >= BULK_OBSERVATIONS:
                break
        requests.append(BulkPredict(MODEL, tuple(chosen),
                                    frozenset(obs.pair() for obs in chosen)))
    return requests


class _Expected:
    """Memoized reference replies of one reference-built model."""

    def __init__(self, model) -> None:
        self.model = model
        self._memo: Dict[int, tuple] = {}

    def lookup(self, key: int, request) -> tuple:
        if key not in self._memo:
            self._memo[key] = tuple(self.model.predict(
                request.observations, known_pairs=set(request.known_pairs)))
        return self._memo[key]


def _reference(world: _World, seed_result, fraction: float) -> _Expected:
    return _Expected(build_prepared_model(
        "reference", world.pipeline, seed_result,
        _gps_config(world.dataset, fraction, use_engine=False)))


def _lookup_caller(service: GPSService, pool: Sequence[PointLookup],
                   recorder: Optional[layers.Recorder]) -> Callable:
    def call(index: int):
        request = pool[index % len(pool)]
        if recorder is not None:
            recorder.request_ids[id(request.observations)] = index
        return service.lookup(request)
    return call


def _failed(samples: Sequence[loadgen.Sample]) -> int:
    return sum(1 for sample in samples if sample.error is not None)


def _service_extras(samples: Sequence[loadgen.Sample],
                    recorder: layers.Recorder, flushes: int) -> Metrics:
    """Queue wait, coalescing and generator lateness of traced lookups."""
    predict_s = {span.rid: span.duration for span in recorder.spans
                 if span.key == "serving.registry.predict"}
    waits = [(sample.done - sample.sent - predict_s[sample.index]) * 1000.0
             for sample in samples
             if sample.error is None and sample.index in predict_s]
    coalesced = [sample.reply.coalesced for sample in samples
                 if sample.error is None]
    return {"serving.service.queue_wait_p50_ms": (_median(waits), "ms"),
            "serving.service.coalesced_mean":
                (statistics.fmean(coalesced) if coalesced else 0.0, "count"),
            "serving.service.flushes": (flushes, "count"),
            "loadgen.late_p99_ms":
                (loadgen.percentile([s.late_ms for s in samples], 99), "ms")}


async def _setup_service(universe_seed: int, split_seed: int,
                         prepare: Optional[Callable] = None):
    """Set the service up ``SETUP_REPEATS`` times; keep the last one.

    ``prepare(world)`` runs as the last set-up step; its result is returned
    beside the world and the set-up times.
    """
    setup = calibrate.Timings()
    world = prepared = None

    async def start():
        started = await _start_service(universe_seed, split_seed)
        return started, (await prepare(started) if prepare else None)

    for _ in range(SETUP_REPEATS):
        if world is not None:
            await world.service.close()
            world = prepared = None
        (world, prepared), _, _ = await setup.time_async(start)
    return world, prepared, setup


async def _serve_lookup(seed: int, seconds: float, workdir: Path,
                        recorder: Optional[layers.Recorder]) -> Result:
    rng = random.Random(seed)
    universe_seed = rng.randrange(1, 2 ** 31)
    split_seed = rng.randrange(2 ** 31)
    world, _, setup = await _setup_service(universe_seed, split_seed)
    service = world.service
    try:
        pool = _lookup_pool(world.split, rng, LOOKUP_POOL)
        bulk = _bulk_requests(world.split, rng)
        expected = _reference(world, world.split.seed_scan_result(),
                              SEED_FRACTION)
        call = _lookup_caller(service, pool, None)
        counted: List[loadgen.Sample] = []
        bulk_timings = calibrate.Timings()
        report: Dict[str, Any] = {}
        extra: Metrics = {}
        next_index = 0

        def verify(samples: Sequence[loadgen.Sample]) -> None:
            # Replies are checked as each phase ends, outside its timing,
            # then dropped so memory does not grow with the phase count.
            for sample in samples:
                if sample.error is None:
                    key = sample.index % len(pool)
                    if sample.reply.predictions != expected.lookup(key, pool[key]):
                        raise CheckFailed(
                            f"serve_lookup request {sample.index}: served "
                            "reply differs from the reference model")
                    sample.reply = None

        async def open_loop(rate: float, duration: float, caller: Callable):
            nonlocal next_index
            count = int(rate * duration)
            gc.collect()
            samples = await loadgen.open_loop(caller, rate, count, next_index)
            next_index += count
            return samples

        async def bulk_call(key: int,
                            timings: Optional[calibrate.Timings] = None) -> None:
            if timings is None:
                reply = await service.bulk_predict(bulk[key])
            else:
                reply, _, _ = await timings.time_async(
                    lambda: service.bulk_predict(bulk[key]))
            want = expected.lookup(-1 - key, bulk[key])
            if reply.predictions != want or reply.batches != tuple(
                    group_pairs((p.pair() for p in want), bulk[key].prefix_len)):
                raise CheckFailed(f"serve_lookup bulk request {key}: served "
                                  "reply differs from the reference model")

        async def bulk_warmup():
            # One untimed pass: the timed calls then all meet the warm
            # per-address memo of a long-running service, instead of a
            # cold/warm mix whose median flips with the call count.
            for key in range(len(bulk)):
                await bulk_call(key)
            return len(bulk)

        async def bulk_loop(duration: float, minimum: int = 3):
            gc.collect()
            deadline = time.perf_counter() + duration
            i = 0
            while i < minimum or time.perf_counter() < deadline:
                await bulk_call(i % len(bulk), bulk_timings)
                i += 1

        if recorder is None:
            base = await open_loop(NOMINAL_RPS, 0.3 * seconds, call)
            verify(base)
            counted.extend(base)
            report["lookup"] = loadgen.latency_summary(base)
            # The ladder rises until a rate misses the limit.  That last
            # step is overload by design: it is reported, not counted.
            ladder = []
            max_rps = NOMINAL_RPS if _step_ok(base) else 0.0
            rate = NOMINAL_RPS
            ladder_deadline = time.perf_counter() + 0.35 * seconds
            while max_rps == rate and time.perf_counter() < ladder_deadline:
                rate = round(rate * LADDER_FACTOR)
                samples = await open_loop(rate, max(1.0, 1000.0 / rate), call)
                verify(samples)
                ok = _step_ok(samples)
                summary = loadgen.latency_summary(samples)
                ladder.append({"rps": rate, "ok": ok,
                               "p99_ms": summary["latency"]["tail"],
                               "late_p99_ms": summary["late"]["tail"],
                               "attempted": len(samples),
                               "failed": summary["failed"]})
                if ok:
                    max_rps = rate
                    counted.extend(samples)
            report["ladder"] = ladder
            report["lookup_max_rps"] = {
                "value": max_rps, "unit": "1/s",
                "capped": bool(ladder) and ladder[-1]["ok"]}
            warm_calls = await bulk_warmup()
            await bulk_loop(0.35 * seconds)
            primary = [s.latency_ms for s in base if s.error is None]
        else:
            untraced = await open_loop(NOMINAL_RPS, 0.3 * seconds, call)
            warm_calls = await bulk_warmup()
            flushes = service.stats.flushes
            with _Traced(recorder) as traced:
                traced_samples = await open_loop(
                    NOMINAL_RPS, 0.3 * seconds,
                    _lookup_caller(service, pool, recorder))
                flush_count = service.stats.flushes - flushes
                await bulk_loop(0.1 * seconds)
            extra = _service_extras(traced_samples, recorder, flush_count)
            verify(untraced)
            verify(traced_samples)
            counted = untraced + traced_samples
            overhead = (_median([s.latency_ms for s in traced_samples])
                        - _median([s.latency_ms for s in untraced]))
            report["lookup"] = loadgen.latency_summary(untraced)
            report["traced_lookup"] = loadgen.latency_summary(traced_samples)
        peak = _peak_rss_mb()
    finally:
        await service.close()

    attempted = len(counted) + warm_calls + len(bulk_timings.raw)
    failed = _failed(counted)
    report.update({"bulk_s": bulk_timings.summary(),
                   "setup_s": setup.summary(),
                   "peak_rss_mb": peak,
                   "error_rate": failed / attempted})
    if recorder is None:
        metrics = _end_to_end(setup, primary, _ms(bulk_timings.scaled), peak)
    else:
        metrics = layer_metrics(recorder, traced.wall_s, overhead, extra)
    return Result(attempted, failed, metrics, report)


def _step_ok(samples: Sequence[loadgen.Sample]) -> bool:
    """A rate holds when nothing failed and neither latency nor the
    generator's lateness (a growing backlog) passes the limit at p99."""
    if _failed(samples):
        return False
    latency = [s.latency_ms for s in samples]
    late = [s.late_ms for s in samples]
    return (loadgen.percentile(latency, 99) <= LATENCY_LIMIT_MS
            and loadgen.percentile(late, 99) <= LATENCY_LIMIT_MS)


def serve_lookup(seed: int, seconds: float, workdir: Path,
                 recorder: Optional[layers.Recorder] = None) -> Result:
    return asyncio.run(_serve_lookup(seed, seconds, workdir, recorder))


def _candidates(registrations: Sequence[Tuple[str, float, float]],
                sent: float, done: float) -> List[str]:
    """Models that may have been current at some moment of [sent, done].

    Registration ``k`` happens somewhere in its ``[call, return]`` window,
    so model ``k`` may be current from its call until the return of
    registration ``k + 1``.
    """
    names = []
    for k, (name, call, _) in enumerate(registrations):
        until = (registrations[k + 1][2] if k + 1 < len(registrations)
                 else float("inf"))
        if call <= done and sent <= until:
            names.append(name)
    return names


def _same_artifacts(restored, built) -> bool:
    return (restored.model == built.model
            and restored.priors_plan == built.priors_plan
            and restored.index.entries() == built.index.entries()
            and restored.seed_observations == built.seed_observations)


async def _serve_swap(seed: int, seconds: float, workdir: Path,
                      recorder: Optional[layers.Recorder]) -> Result:
    rng = random.Random(seed)
    universe_seed = rng.randrange(1, 2 ** 31)
    split_seed = rng.randrange(2 ** 31)
    snapshot_split_seed = rng.randrange(2 ** 31)
    build_split_seeds = [rng.randrange(2 ** 31) for _ in range(BUILD_SPLITS)]
    snapshot_dir = workdir / f"snapshot-{os.getpid()}"

    async def save(world: _World):
        split = split_seed_test(world.dataset, SWAP_FRACTION,
                                seed=snapshot_split_seed)
        seed_result = split.seed_scan_result()
        config = _gps_config(world.dataset, SWAP_FRACTION)
        built = build_prepared_model("snapshot", world.pipeline, seed_result,
                                     config)
        runtime = world.service.runtime()
        host_features = extract_host_features_columns(
            seed_result.batch, world.universe.topology.asn_db,
            config.feature_config)
        shutil.rmtree(snapshot_dir, ignore_errors=True)
        save_snapshot(str(snapshot_dir), observations=seed_result.batch,
                      host_features=host_features, model=built.model,
                      priors_plan=built.priors_plan, index=built.index,
                      step_size=STEP_SIZE, shard_count=runtime.shard_count,
                      placement_workers=runtime.num_workers)
        return built, seed_result

    world = None
    try:
        world, (snapshot_model, snapshot_seed), setup = await _setup_service(
            universe_seed, split_seed, save)
        service = world.service
        config = _gps_config(world.dataset, SWAP_FRACTION)
        build_seeds = [split_seed_test(world.dataset, SWAP_FRACTION, seed=s)
                       .seed_scan_result() for s in build_split_seeds]
        pool = _lookup_pool(world.split, rng, LOOKUP_POOL)
        registrations: List[Tuple[str, float, float]] = [("initial", 0.0, 0.0)]
        builds, restores = calibrate.Timings(), calibrate.Timings()
        restore_ok: List[bool] = []
        lookups: List[loadgen.Sample] = []
        next_index = 0
        swap_id = 0

        async def phase(duration: float, tracer: Optional[layers.Recorder]):
            nonlocal next_index, swap_id
            stop = asyncio.Event()
            cycles = []

            async def swapper():
                nonlocal swap_id
                while not stop.is_set():
                    index = swap_id % BUILD_SPLITS
                    seed_result = dataclasses.replace(build_seeds[index])
                    path = Path(snapshot_dir)
                    if tracer is not None:
                        tracer.request_ids[id(seed_result)] = 2 * swap_id
                        tracer.request_ids[id(path)] = 2 * swap_id + 1
                    swap_id += 1
                    _, start, end = await builds.time_async(
                        lambda: service.load_model(MODEL, world.pipeline,
                                                   seed_result, config))
                    registrations.append((f"build{index}", start, end))
                    _, start, end = await restores.time_async(
                        lambda: service.load_model_from_snapshot(
                            MODEL, world.pipeline, path, config))
                    registrations.append(("snapshot", start, end))
                    cycles.append(builds.scaled[-1] + restores.scaled[-1])
                    # Check the restore now, off the loop thread and outside
                    # the timed swap: keeping every restored model for a
                    # later check would cost ~30 MB each.
                    same = await asyncio.get_running_loop().run_in_executor(
                        None, _same_artifacts, service.model(MODEL),
                        snapshot_model)
                    restore_ok.append(same)

            gc.collect()
            task = asyncio.get_running_loop().create_task(swapper())
            count = int(SWAP_RPS * duration)
            samples = await loadgen.open_loop(
                _lookup_caller(service, pool, tracer), SWAP_RPS, count,
                next_index)
            next_index += count
            stop.set()
            await task
            lookups.extend(samples)
            return samples, cycles

        extra: Metrics = {}
        if recorder is None:
            samples, cycles = await phase(seconds, None)
            primary = [s.latency_ms for s in samples if s.error is None]
        else:
            untraced, cycles = await phase(0.5 * seconds, None)
            flushes = service.stats.flushes
            with _Traced(recorder) as traced:
                samples, _ = await phase(0.5 * seconds, recorder)
            extra = _service_extras(samples, recorder,
                                    service.stats.flushes - flushes)
            overhead = (_median([s.latency_ms for s in samples])
                        - _median([s.latency_ms for s in untraced]))
        peak = _peak_rss_mb()
        await service.close()

        # Output checks, outside every timed region.
        if not all(restore_ok):
            raise CheckFailed("serve_swap: restored artifacts differ from the "
                              "built ones")
        references = {"initial": _reference(world, world.split.seed_scan_result(),
                                            SEED_FRACTION),
                      "snapshot": _reference(world, snapshot_seed, SWAP_FRACTION)}
        for index, seed_result in enumerate(build_seeds):
            references[f"build{index}"] = _reference(world, seed_result,
                                                     SWAP_FRACTION)
        for sample in lookups:
            if sample.error is not None:
                continue
            key = sample.index % len(pool)
            names = _candidates(registrations, sample.sent, sample.done)
            if not any(sample.reply.predictions
                       == references[name].lookup(key, pool[key])
                       for name in names):
                raise CheckFailed(
                    f"serve_swap request {sample.index}: served reply matches "
                    f"none of the models registered during it ({names})")
    finally:
        if world is not None:
            await world.service.close()
        shutil.rmtree(snapshot_dir, ignore_errors=True)

    attempted = len(lookups) + len(builds.raw) + len(restores.raw)
    failed = _failed(lookups)
    report = {"lookup": loadgen.latency_summary(
                  lookups if recorder is None else untraced),
              "build_s": builds.summary(),
              "restore_s": restores.summary(),
              "swap_cycle_scaled_s": loadgen.summary(cycles, "s"),
              "setup_s": setup.summary(),
              "peak_rss_mb": peak,
              "error_rate": failed / attempted}
    if recorder is None:
        metrics = _end_to_end(setup, primary, _ms(cycles), peak)
    else:
        metrics = layer_metrics(recorder, traced.wall_s, overhead, extra)
    return Result(attempted, failed, metrics, report)


def serve_swap(seed: int, seconds: float, workdir: Path,
               recorder: Optional[layers.Recorder] = None) -> Result:
    return asyncio.run(_serve_swap(seed, seconds, workdir, recorder))


WORKLOADS: Dict[str, Callable[..., Result]] = {
    "censys_run": censys_run,
    "serve_lookup": serve_lookup,
    "serve_swap": serve_swap,
}

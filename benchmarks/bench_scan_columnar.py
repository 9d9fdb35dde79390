"""Columnar observation batches vs the per-object scan path.

The per-object layers allocate one ``FingerprintResult`` /
``ScanObservation`` per hit, copy every banner dict and charge the ledger
once per target.  This benchmark isolates what the columnar layers buy on
the same predictions workload:

* the **per-object pipeline** (the equivalence oracle):
  ``zmap.scan_pair_batches`` -> ``lzr.fingerprint_many`` ->
  ``zgrab.grab_many`` -> ``pseudo_filter.filter``;
* the **columnar pipeline**: ``scan_pair_batches`` folding hits into
  :class:`~repro.scanner.records.ObservationBatch` columns (interned banner
  ids, encoded protocol statuses), filtering on the columns and
  materializing only surviving rows at the API boundary;

plus the per-layer LZR / ZGrab / filter breakdown.  Equivalence (identical
observations, identical ledger charges) is asserted at full strength; the
speedup floor relaxes under ``BENCH_SMOKE=1`` exactly like the sibling
benchmarks.  Results merge into ``BENCH_priors.json`` (the scan-path record
next to the priors-planning record) under the ``"scan_columnar"`` key.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.analysis import format_table
from repro.core.config import FeatureConfig
from repro.core.features import extract_host_features
from repro.core.model import build_model
from repro.core.predictions import PredictiveFeatureIndex
from repro.datasets.split import split_seed_test
from repro.scanner.bandwidth import ScanCategory
from repro.scanner.pipeline import ScanPipeline
from repro.scanner.records import group_pairs

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_priors.json"

#: Same workload knob as bench_priors_scaling, for comparable rows.
PRIORS_SEED_FRACTION = 0.1

REPEATS = 3

#: Floor on the columnar-vs-per-object full-pipeline speedup.  Measured ~2x
#: on a quiet dev machine; BENCH_SMOKE=1 relaxes to "roughly parity" so CI
#: runner jitter cannot fail the build while a real regression still does.
SPEEDUP_FLOOR = 1.05 if os.environ.get("BENCH_SMOKE") == "1" else 1.3


def _best_seconds(func, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def _observation_key(observations):
    return sorted((obs.ip, obs.port, obs.protocol,
                   tuple(sorted(obs.app_features.items())), obs.ttl)
                  for obs in observations)


def _prediction_workload(universe, dataset):
    """The Section 5.4 workload: predictions from first-service observations."""
    split = split_seed_test(dataset, PRIORS_SEED_FRACTION, seed=0)
    host_features = extract_host_features(split.seed_observations,
                                          universe.topology.asn_db, FeatureConfig())
    model = build_model(host_features)
    index = PredictiveFeatureIndex.from_seed(host_features, model,
                                             port_domain=dataset.port_domain)
    seen: set = set()
    firsts = []
    for obs in split.test_observations:
        if obs.ip not in seen:
            seen.add(obs.ip)
            firsts.append(obs)
    predictions = index.predict(firsts, universe.topology.asn_db, FeatureConfig())
    pairs = [prediction.pair() for prediction in predictions]
    return pairs, group_pairs(pairs, 16)


def _object_scan(universe, batches):
    """The per-object pipeline: per-target fingerprint, grab and filter."""
    pipeline = ScanPipeline(universe)
    category = ScanCategory.PREDICTION
    hits = pipeline.zmap.scan_pair_batches(batches, category=category)
    fingerprints = pipeline.lzr.fingerprint_many(hits, category=category)
    observations = pipeline.zgrab.grab_many(fingerprints, category=category)
    return pipeline, pipeline.pseudo_filter.filter(observations)


def run_columnar_scan_benchmark(universe, dataset):
    pairs, batches = _prediction_workload(universe, dataset)

    # Equivalence: per-object and columnar paths observe the same services
    # and charge the same bandwidth (never relaxed).
    object_pipeline, object_obs = _object_scan(universe, batches)
    columnar_pipeline = ScanPipeline(universe)
    columnar_obs = columnar_pipeline.scan_pair_batches(batches)
    assert _observation_key(object_obs) == _observation_key(columnar_obs), \
        "columnar scan observed different services than the per-object scan"
    assert object_pipeline.ledger.probes == columnar_pipeline.ledger.probes
    assert object_pipeline.ledger.responses == columnar_pipeline.ledger.responses

    # End-to-end timings.
    object_seconds = _best_seconds(lambda: _object_scan(universe, batches))
    columnar_seconds = _best_seconds(
        lambda: ScanPipeline(universe).scan_pair_batches(batches))

    # Per-layer breakdown on a fixed set of hits/fingerprints.
    stage = ScanPipeline(universe)
    hits = stage.zmap.scan_pair_batches(batches)
    hit_ips = [ip for ip, _ in hits]
    hit_ports = [port for _, port in hits]
    fingerprints = stage.lzr.fingerprint_many(hits)
    fingerprint_cols = stage.lzr.fingerprint_batch_columns(hit_ips, hit_ports)
    observation_batch = stage.zgrab.grab_batch_columns(fingerprint_cols)
    materialized = observation_batch.materialize()
    lzr_object_seconds = _best_seconds(
        lambda: stage.lzr.fingerprint_many(hits))
    lzr_columnar_seconds = _best_seconds(
        lambda: stage.lzr.fingerprint_batch_columns(hit_ips, hit_ports))
    zgrab_object_seconds = _best_seconds(
        lambda: stage.zgrab.grab_many(fingerprints))
    zgrab_columnar_seconds = _best_seconds(
        lambda: stage.zgrab.grab_batch_columns(fingerprint_cols))
    filter_object_seconds = _best_seconds(
        lambda: stage.pseudo_filter.filter(materialized))
    filter_columnar_seconds = _best_seconds(
        lambda: stage.pseudo_filter.filter_batch(observation_batch))

    return {
        "predictions": len(pairs),
        "batches": len(batches),
        "responsive_targets": len(observation_batch),
        "kept_observations": len(columnar_obs),
        "interned_banners": len(universe.banners),
        "object_seconds": object_seconds,
        "columnar_seconds": columnar_seconds,
        "pipeline_speedup": round(object_seconds / columnar_seconds, 2),
        "layers": {
            "lzr": {"object_seconds": lzr_object_seconds,
                    "columnar_seconds": lzr_columnar_seconds,
                    "speedup": round(lzr_object_seconds / lzr_columnar_seconds, 2)},
            "zgrab": {"object_seconds": zgrab_object_seconds,
                      "columnar_seconds": zgrab_columnar_seconds,
                      "speedup": round(zgrab_object_seconds
                                       / zgrab_columnar_seconds, 2)},
            "filter": {"object_seconds": filter_object_seconds,
                       "columnar_seconds": filter_columnar_seconds,
                       "speedup": round(filter_object_seconds
                                        / filter_columnar_seconds, 2)},
        },
    }


def test_columnar_scan_vs_per_object(run_once, universe, censys_dataset):
    results = run_once(run_columnar_scan_benchmark, universe, censys_dataset)

    # Merge as a section of BENCH_priors.json: this benchmark extends the
    # scan-path record the priors benchmark starts.
    try:
        merged = json.loads(RESULT_PATH.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        merged = {}
    merged["scan_columnar"] = results
    RESULT_PATH.write_text(json.dumps(merged, indent=2) + "\n")

    print()
    layers = results["layers"]
    print(format_table(
        ("stage", "per-object (s)", "columnar (s)", "speedup"),
        [
            ("pipeline", f"{results['object_seconds']:.4f}",
             f"{results['columnar_seconds']:.4f}",
             f"{results['pipeline_speedup']}x"),
            *[(name, f"{row['object_seconds']:.4f}",
               f"{row['columnar_seconds']:.4f}", f"{row['speedup']}x")
              for name, row in layers.items()],
        ],
        title=(f"Columnar scan: {results['predictions']} targets, "
               f"{results['responsive_targets']} responsive, "
               f"{results['interned_banners']} interned banners"),
    ))
    print(f"Columnar pipeline speedup: {results['pipeline_speedup']}x "
          f"(written to {RESULT_PATH.name})")

    assert results["pipeline_speedup"] >= SPEEDUP_FLOOR, \
        (f"columnar scan speedup regressed to {results['pipeline_speedup']:.2f}x "
         f"(floor {SPEEDUP_FLOOR}x)")

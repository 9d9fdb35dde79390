"""Golden behaviour: what GPS discovers, pinned as committed digests.

Each case in ``tests/golden/discovery.json`` fixes a universe, a dataset
split, a step size and an optional bandwidth budget, and stores sha256
digests of everything a GPS run decides: the discovery log, the ordered
predictions, the priors plan, the most-predictive-feature index and the
co-occurrence model.  The differential test below requires the dict
reference (``use_engine=False``) and every runtime executor x column
backend to reproduce those digests exactly, so any change to what GPS finds
shows up here as a digest mismatch.

Regenerate only after a deliberate behaviour change (and say why in
CHANGES.md)::

    PYTHONPATH=src python tests/test_golden_discovery.py --regen

Without ``--regen`` the script compares fresh digests against the committed
file and prints the cases that differ.  ``--case NAME`` prints one case's
digests as JSON (the hash-seed test runs it in subprocesses).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, Optional

import pytest

from repro.analysis.scenarios import (
    MEDIUM_SCALE,
    SMALL_SCALE,
    make_censys_dataset,
    make_universe,
)
from repro.core.config import GPSConfig
from repro.core.gps import GPS
from repro.datasets.split import seed_scan_cost_probes, split_seed_test
from repro.engine.columns import numpy_available
from repro.scanner.pipeline import ScanPipeline

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "discovery.json"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

_SCALES = {"small": SMALL_SCALE, "medium": MEDIUM_SCALE}

#: The pinned scenarios: two scales, different universes, split seeds and
#: step sizes, and one run cut short by a bandwidth budget.
CASES: Dict[str, Dict[str, Any]] = {
    "small-u1-split3-step16": {
        "scale": "small", "universe_seed": 1, "split_seed": 3,
        "seed_fraction": 0.05, "step_size": 16, "max_full_scans": None,
    },
    "medium-u2-split7-step12": {
        "scale": "medium", "universe_seed": 2, "split_seed": 7,
        "seed_fraction": 0.03, "step_size": 12, "max_full_scans": None,
    },
    "small-u3-split5-step20-budget": {
        "scale": "small", "universe_seed": 3, "split_seed": 5,
        "seed_fraction": 0.05, "step_size": 20, "max_full_scans": 5.2,
    },
}

#: Configurations the differential test runs: ``(executor, column backend)``
#: with ``(None, None)`` the dict reference.
CONFIGS = (
    (None, None),
    ("serial", "stdlib"),
    ("serial", "numpy"),
    ("thread", "stdlib"),
    ("thread", "numpy"),
    ("pool", "stdlib"),
    ("pool", "numpy"),
)


@functools.lru_cache(maxsize=None)
def _world(scale: str, universe_seed: int):
    universe = make_universe(_SCALES[scale], seed=universe_seed)
    return universe, make_censys_dataset(universe, _SCALES[scale])


def _sha256(items: Iterable[Any]) -> str:
    digest = hashlib.sha256()
    for item in items:
        digest.update(json.dumps(item, sort_keys=True).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _sorted_sha256(items: Iterable[Any]) -> str:
    """Digest of a collection whose order carries no meaning."""
    return _sha256(sorted(json.dumps(item, sort_keys=True) for item in items))


def run_case(name: str, executor: Optional[str] = None,
             column_backend: Optional[str] = None) -> Dict[str, str]:
    """Run one golden case and return its digests."""
    case = CASES[name]
    universe, dataset = _world(case["scale"], case["universe_seed"])
    split = split_seed_test(dataset, case["seed_fraction"],
                            seed=case["split_seed"])
    engine: Dict[str, Any] = {}
    if executor is not None:
        engine = {"use_engine": True, "executor": executor,
                  "num_workers": 1 if executor == "serial" else 2,
                  "column_backend": column_backend}
    config = GPSConfig(seed_fraction=case["seed_fraction"],
                       step_size=case["step_size"],
                       port_domain=dataset.port_domain,
                       max_full_scans=case["max_full_scans"], **engine)
    with GPS(ScanPipeline(universe), config) as gps:
        result = gps.run(seed=split.seed_scan_result(),
                         seed_cost_probes=seed_scan_cost_probes(
                             dataset, case["seed_fraction"]))
    model = result.model
    return {
        "discovery_log": _sha256(
            (batch.phase, batch.cumulative_probes, batch.pairs)
            for batch in result.discovery_log),
        "predictions": _sha256(
            (p.ip, p.port, repr(p.probability), p.predictor)
            for p in result.predictions),
        "priors_plan": _sha256(
            (entry.port, entry.subnet, entry.coverage)
            for entry in result.priors_plan),
        "index": _sorted_sha256(
            (f.predictor, f.target_port, repr(f.probability))
            for f in result.feature_index.entries()),
        "model": _sha256((
            _sorted_sha256(model.denominators.items()),
            _sorted_sha256((predictor, sorted(targets.items()))
                           for predictor, targets in model.cooccurrence.items()
                           if targets),
        )),
    }


def _committed() -> Dict[str, Dict[str, str]]:
    return json.loads(GOLDEN_PATH.read_text())["cases"]


@pytest.mark.parametrize("executor,column_backend", CONFIGS,
                         ids=["reference" if e is None else f"{e}-{b}"
                              for e, b in CONFIGS])
@pytest.mark.parametrize("name", sorted(CASES))
def test_discovery_matches_golden(name, executor, column_backend):
    if column_backend == "numpy" and not numpy_available():
        pytest.skip("numpy column backend not installed")
    assert run_case(name, executor, column_backend) == _committed()[name]


def test_digests_do_not_depend_on_hash_seed():
    name = "small-u1-split3-step16"
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    outputs = []
    for seed in ("0", "4242"):
        env["PYTHONHASHSEED"] = seed
        proc = subprocess.run(
            [sys.executable, __file__, "--case", name, "--executor", "serial"],
            env=env, capture_output=True, text=True, check=True, timeout=600)
        outputs.append(json.loads(proc.stdout))
    assert outputs[0] == outputs[1] == _committed()[name]


def _main(argv: Optional[Iterable[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--regen", action="store_true",
                        help="rewrite tests/golden/discovery.json from the "
                             "dict reference run of every case")
    parser.add_argument("--case", choices=sorted(CASES),
                        help="print one case's digests as JSON and exit")
    parser.add_argument("--executor", choices=("serial", "thread", "pool"),
                        help="with --case: run on this runtime executor "
                             "instead of the dict reference")
    args = parser.parse_args(argv)
    if args.case:
        print(json.dumps(run_case(args.case, args.executor), sort_keys=True))
        return 0
    fresh = {name: run_case(name) for name in sorted(CASES)}
    committed = _committed() if GOLDEN_PATH.exists() else {}
    changed = sorted(name for name in fresh if committed.get(name) != fresh[name])
    for name in changed:
        keys = sorted(key for key in fresh[name]
                      if committed.get(name, {}).get(key) != fresh[name][key])
        print(f"{name}: {', '.join(keys)} differ")
    if not args.regen:
        print("unchanged" if not changed else "run with --regen to rewrite")
        return 1 if changed else 0
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(
        {"cases": fresh, "case_parameters": CASES}, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(_main())

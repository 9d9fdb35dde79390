"""GPS versus the XGBoost-style sequential scanner (Section 6.4, Figure 4).

The comparison has three parts:

* **Figure 4a** -- bandwidth each system spends collecting its *prior*
  information for a target port: for the XGBoost scanner that is the cost of
  scanning every earlier port in its sequence; for GPS it is the cost of the
  priors-scan entries that discovered the services whose features end up
  predicting the target port.
* **Figure 4b** -- bandwidth each system then spends scanning the target port
  itself: predicted candidates for the XGBoost scanner, predicted (ip, port)
  probes for GPS.
* **Figure 4c** -- the normalized-service coverage curve of both systems over
  the comparison ports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.scenarios import run_gps_on_dataset
from repro.baselines.xgboost_scanner import (
    XGBoostScanRun,
    XGBoostScanner,
    XGBoostScannerConfig,
)
from repro.core.gps import GPSRunResult
from repro.core.metrics import CoveragePoint, coverage_curve
from repro.datasets.builders import GroundTruthDataset
from repro.internet.universe import Universe
from repro.net.ipv4 import prefix_of, subnet_key_parts

Pair = Tuple[int, int]


@dataclass
class PortComparison:
    """Per-port bandwidth comparison (one bar group of Figures 4a/4b).

    All bandwidth figures are in units of 100 % scans of the address space.
    """

    port: int
    gps_prior_full_scans: float
    xgb_prior_full_scans: float
    gps_port_full_scans: float
    xgb_port_full_scans: float
    gps_coverage: float
    xgb_coverage: float


@dataclass
class XGBoostComparison:
    """Full result of the Figure 4 comparison."""

    ports: List[PortComparison]
    gps_normalized_curve: List[CoveragePoint]
    xgb_normalized_curve: List[CoveragePoint]
    gps_run: GPSRunResult
    xgb_run: XGBoostScanRun

    def average_prior_savings(self) -> Optional[float]:
        """Average ratio of XGBoost prior bandwidth to GPS prior bandwidth."""
        ratios = [
            comparison.xgb_prior_full_scans / comparison.gps_prior_full_scans
            for comparison in self.ports
            if comparison.gps_prior_full_scans > 0
        ]
        return sum(ratios) / len(ratios) if ratios else None

    def ports_where_gps_cheaper(self) -> int:
        """How many comparison ports GPS scans with less port bandwidth."""
        return sum(
            1 for comparison in self.ports
            if comparison.gps_port_full_scans < comparison.xgb_port_full_scans
        )


def _gps_per_port_accounting(run: GPSRunResult, universe: Universe,
                             ports: Sequence[int],
                             ground_truth: Set[Pair]) -> Dict[int, Tuple[int, int, int]]:
    """Per-port (prior probes, port probes, found count) for a GPS run.

    The prior cost of a target port is the cost of the priors-plan entries
    that discovered at least one service whose features generated a prediction
    for that port (identified through each prediction's source pair: the
    predicting host and the port embedded in its predictor tuple).

    Every input is bucketed by port once: predictions by target port,
    found pairs by port, and each priors pair is matched only against the
    plan entries of its own port, by prefix key per prefix length present.
    """
    wanted = set(ports)

    # Source pairs (predicting service) and probes per target port.
    sources_per_port: Dict[int, Set[Pair]] = {}
    port_probes: Dict[int, int] = {}
    for prediction in run.predictions:
        if prediction.port in wanted:
            source = (prediction.ip, prediction.predictor[1])
            sources_per_port.setdefault(prediction.port, set()).add(source)
            port_probes[prediction.port] = port_probes.get(prediction.port, 0) + 1

    # Plan entries per port, keyed by (prefix length, prefix base).
    entry_cost: List[int] = []
    entries_by_port: Dict[int, Dict[int, Dict[int, List[int]]]] = {}
    for index, entry in enumerate(run.priors_plan):
        base, prefix_len = subnet_key_parts(entry.subnet)
        entry_cost.append(universe.announced_overlap(base, prefix_len))
        (entries_by_port.setdefault(entry.port, {})
         .setdefault(prefix_len, {})
         .setdefault(prefix_of(base, prefix_len), []).append(index))

    # Which priors entries discovered each priors pair.
    entries_of_pair: Dict[Pair, List[int]] = {}
    for ip, port in {(obs.ip, obs.port) for obs in run.priors_observations}:
        for prefix_len, by_base in entries_by_port.get(port, {}).items():
            indices = by_base.get(prefix_of(ip, prefix_len))
            if indices:
                entries_of_pair.setdefault((ip, port), []).extend(indices)

    found_per_port: Dict[int, int] = {}
    for _, port in run.discovered_pairs() & ground_truth:
        found_per_port[port] = found_per_port.get(port, 0) + 1

    accounting: Dict[int, Tuple[int, int, int]] = {}
    for port in ports:
        entries = {index for source in sources_per_port.get(port, ())
                   for index in entries_of_pair.get(source, ())}
        accounting[port] = (sum(entry_cost[index] for index in entries),
                            port_probes.get(port, 0),
                            found_per_port.get(port, 0))
    return accounting


def run_xgboost_comparison(
    universe: Universe,
    dataset: GroundTruthDataset,
    ports: Optional[Sequence[int]] = None,
    seed_fraction: float = 0.005,
    step_size: int = 16,
    split_seed: int = 0,
    scanner_config: Optional[XGBoostScannerConfig] = None,
) -> XGBoostComparison:
    """Run both systems on the same dataset and compare them per port.

    Args:
        universe: the synthetic universe both systems scan.
        dataset: the ground-truth dataset (the paper uses the Censys dataset).
        ports: the comparison ports (default: the dataset's 19 most popular,
            mirroring the 19 ports of Figure 4).
        seed_fraction: seed size for both systems (the paper uses 0.5 %).
        step_size: GPS scanning step size (the paper uses /16).
        split_seed: RNG seed of the seed/test split (shared by both systems).
        scanner_config: overrides for the XGBoost-style scanner.
    """
    if ports is None:
        ports = dataset.port_registry().top_ports(19)
    ports = list(ports)

    # GPS side.
    gps_run, _, split = run_gps_on_dataset(
        universe, dataset, seed_fraction, step_size=step_size, split_seed=split_seed,
    )
    gps_accounting = _gps_per_port_accounting(gps_run, universe, ports,
                                              dataset.pairs())

    # XGBoost-scanner side (shares the same seed/test split).
    config = scanner_config or XGBoostScannerConfig(
        ports=tuple(ports), neighborhood_prefix=min(24, max(8, step_size + 8)),
    )
    scanner = XGBoostScanner(dataset, config)
    xgb_run = scanner.run(split)
    xgb_by_port = {outcome.port: outcome for outcome in xgb_run.outcomes}

    truth_per_port: Dict[int, int] = {}
    for _, port in dataset.pairs():
        truth_per_port[port] = truth_per_port.get(port, 0) + 1

    space = dataset.address_space_size
    comparisons: List[PortComparison] = []
    for port in ports:
        gps_prior, gps_port, gps_found = gps_accounting.get(port, (0, 0, 0))
        xgb_outcome = xgb_by_port.get(port)
        truth = truth_per_port.get(port, 0)
        comparisons.append(PortComparison(
            port=port,
            gps_prior_full_scans=gps_prior / space,
            xgb_prior_full_scans=(xgb_outcome.prior_probes / space) if xgb_outcome else 0.0,
            gps_port_full_scans=gps_port / space,
            xgb_port_full_scans=(xgb_outcome.probes / space) if xgb_outcome else 0.0,
            gps_coverage=gps_found / truth if truth else 0.0,
            xgb_coverage=xgb_outcome.coverage if xgb_outcome else 0.0,
        ))

    # Figure 4c: normalized coverage over the comparison ports only.
    restricted = dataset.restricted_to_ports(ports)
    restricted_truth = restricted.pairs()
    gps_curve = coverage_curve(gps_run.log_as_tuples(), restricted_truth, space)
    xgb_curve = coverage_curve(xgb_run.discovery_log, restricted_truth, space)

    return XGBoostComparison(
        ports=comparisons,
        gps_normalized_curve=gps_curve,
        xgb_normalized_curve=xgb_curve,
        gps_run=gps_run,
        xgb_run=xgb_run,
    )

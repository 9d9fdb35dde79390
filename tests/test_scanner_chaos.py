"""Chaos tests for the scanner path: seeded probe loss, retries, accounting.

The contract under test is the one the paper's bandwidth results depend on:
a seeded :class:`~repro.engine.faults.FaultPlan` with a non-zero
``probe_loss_rate`` must leave every scan shape's *results* bit-identical to
the lossless run (the loss model bounds consecutive losses below the retry
budget), while the :class:`~repro.scanner.bandwidth.BandwidthLedger` shows
exactly the retry overhead -- retransmits are charged as real bandwidth,
responses are never double-counted, and a loss rate of zero is byte-identical
to not configuring a fault plan at all.
"""

from __future__ import annotations

import pytest

from repro.engine.faults import FaultPlan, ProbeLossModel
from repro.scanner.bandwidth import BandwidthLedger, ScanCategory
from repro.scanner.pipeline import ScanPipeline

#: Loss rate used throughout: high enough that every scan shape sees drops at
#: the test universe's scale, low enough that bounded retries stay cheap.
LOSS = FaultPlan(seed=7, probe_loss_rate=0.35)


def _lossless(universe):
    return ScanPipeline(universe)


def _lossy(universe, plan=LOSS):
    return ScanPipeline(universe, fault_plan=plan)


class TestLossRetryEquivalence:
    """Every scan shape's results are invariant under bounded seeded loss."""

    def test_seed_scan_results_identical_under_loss(self, universe):
        ports = universe.port_registry().top_ports(8)
        clean = _lossless(universe).seed_scan(0.01, seed=3, ports=ports)
        lossy = _lossy(universe).seed_scan(0.01, seed=3, ports=ports)
        assert lossy.sampled_ips == clean.sampled_ips
        assert ([o.pair() for o in lossy.observations]
                == [o.pair() for o in clean.observations])
        assert lossy.removed_pseudo_services == clean.removed_pseudo_services

    def test_prefix_scan_results_identical_under_loss(self, universe):
        port = universe.port_registry().top_ports(1)[0]
        base, length = universe.topology.systems[0].prefixes[0]
        clean = _lossless(universe).scan_prefix(port, (base, length))
        lossy = _lossy(universe).scan_prefix(port, (base, length))
        assert [o.pair() for o in lossy] == [o.pair() for o in clean]

    def test_pair_scan_results_identical_under_loss(self, universe):
        pairs = sorted(universe.real_service_pairs())[:120]
        clean = _lossless(universe).scan_pairs(pairs)
        lossy = _lossy(universe).scan_pairs(pairs)
        assert [o.pair() for o in lossy] == [o.pair() for o in clean]

    def test_batched_pair_scan_results_identical_under_loss(self, universe):
        pairs = sorted(universe.real_service_pairs())[:120]
        clean = _lossless(universe).scan_pairs(pairs, batch_prefix_len=24)
        lossy = _lossy(universe).scan_pairs(pairs, batch_prefix_len=24)
        assert [o.pair() for o in lossy] == [o.pair() for o in clean]

    def test_loss_charges_retransmits_not_responses(self, universe):
        """Loss costs bandwidth (retransmits charged into the probe totals)
        but never responses: the retry layers deduplicate observations."""
        pairs = sorted(universe.real_service_pairs())[:120]
        clean_pipeline = _lossless(universe)
        lossy_pipeline = _lossy(universe)
        clean_pipeline.scan_pairs(pairs)
        lossy_pipeline.scan_pairs(pairs)
        clean_ledger, lossy_ledger = clean_pipeline.ledger, lossy_pipeline.ledger
        assert lossy_ledger.total_retransmits() > 0
        assert clean_ledger.total_retransmits() == 0
        assert lossy_ledger.total_responses() == clean_ledger.total_responses()
        assert (lossy_ledger.total_probes()
                == clean_ledger.total_probes()
                + lossy_ledger.total_retransmits())


class TestLossRateZeroRegression:
    """A zero-loss fault plan is byte-identical to no fault plan at all.

    These pins are the regression guard the satellite asks for: threading a
    (lossless) FaultPlan through the pipeline must not change a single
    coverage or ledger number.
    """

    def test_zero_loss_plan_has_no_loss_model(self):
        assert FaultPlan(probe_loss_rate=0.0).loss_model() is None
        assert LOSS.loss_model() is not None

    def test_zero_loss_pipeline_pins_ledger_and_coverage(self, universe):
        ports = universe.port_registry().top_ports(6)
        plain = _lossless(universe)
        gated = _lossy(universe, FaultPlan(seed=99, probe_loss_rate=0.0))
        assert gated.zmap.loss is None and gated.zmap.max_retries == 0
        plain_seed = plain.seed_scan(0.01, seed=5, ports=ports)
        gated_seed = gated.seed_scan(0.01, seed=5, ports=ports)
        assert ([o.pair() for o in gated_seed.observations]
                == [o.pair() for o in plain_seed.observations])
        assert gated.ledger.snapshot() == plain.ledger.snapshot()
        assert gated.ledger.total_retransmits() == 0


class TestLedgerRetransmitAccounting:
    def test_retransmits_accumulate_and_snapshot(self):
        ledger = BandwidthLedger(address_space_size=100)
        ledger.record(ScanCategory.PREDICTION, probes=50, responses=10,
                      retransmits=5)
        ledger.record(ScanCategory.PREDICTION, probes=20, responses=2,
                      retransmits=3)
        ledger.record(ScanCategory.SEED, probes=30, responses=1)
        assert ledger.total_retransmits() == 8
        assert ledger.total_retransmits(ScanCategory.PREDICTION) == 8
        assert ledger.total_retransmits(ScanCategory.SEED) == 0
        assert ledger.snapshot()["total_retransmits"] == 8.0

    def test_retransmits_survive_merge(self):
        left = BandwidthLedger(address_space_size=100)
        right = BandwidthLedger(address_space_size=100)
        left.record(ScanCategory.PRIORS, probes=10, responses=1, retransmits=4)
        right.record(ScanCategory.PRIORS, probes=6, responses=2, retransmits=1)
        merged = left.merged_with(right)
        assert merged.total_retransmits(ScanCategory.PRIORS) == 5
        assert merged.total_probes(ScanCategory.PRIORS) == 16

    def test_retransmit_validation(self):
        ledger = BandwidthLedger(address_space_size=100)
        with pytest.raises(ValueError):
            ledger.record(ScanCategory.SEED, probes=2, retransmits=3)
        with pytest.raises(ValueError):
            ledger.record(ScanCategory.SEED, probes=2, retransmits=-1)


class TestFaultPlanValidation:
    def test_loss_rate_bounds(self):
        with pytest.raises(ValueError):
            FaultPlan(probe_loss_rate=1.0)
        with pytest.raises(ValueError):
            FaultPlan(probe_loss_rate=-0.1)

    def test_retry_budget_must_cover_consecutive_losses(self):
        with pytest.raises(ValueError):
            FaultPlan(probe_loss_rate=0.2, max_consecutive_losses=3,
                      max_probe_retries=2)
        # Lossless plans may carry any budget: nothing ever retries.
        FaultPlan(probe_loss_rate=0.0, max_consecutive_losses=3,
                  max_probe_retries=0)

    def test_duration_and_bound_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(max_consecutive_losses=0)
        with pytest.raises(ValueError):
            FaultPlan(retry_backoff_s=-1.0)
        with pytest.raises(ValueError):
            FaultPlan(slow_seconds=-0.5)

    def test_scanner_only_plan_does_not_touch_runtime(self):
        assert not LOSS.touches_runtime()
        assert FaultPlan(crash_task="model_pairs").touches_runtime()


class TestProbeLossModel:
    def test_decisions_are_deterministic(self):
        first = ProbeLossModel(seed=3, loss_rate=0.5)
        second = ProbeLossModel(seed=3, loss_rate=0.5)
        draws = [(ip, port, attempt)
                 for ip in range(40) for port in (22, 443)
                 for attempt in range(3)]
        assert ([first.lost("zmap", *d) for d in draws]
                == [second.lost("zmap", *d) for d in draws])

    def test_consecutive_losses_are_bounded(self):
        model = ProbeLossModel(seed=1, loss_rate=0.9, max_consecutive_losses=2)
        for ip in range(200):
            assert not model.lost("zmap", ip, 80, attempt=2)

    def test_layers_draw_independently(self):
        model = ProbeLossModel(seed=1, loss_rate=0.5)
        zmap_draws = [model.lost("zmap", ip, 80, 0) for ip in range(200)]
        lzr_draws = [model.lost("lzr", ip, 80, 0) for ip in range(200)]
        assert zmap_draws != lzr_draws

    def test_empirical_rate_near_nominal(self):
        model = ProbeLossModel(seed=2, loss_rate=0.3)
        drops = sum(model.lost("zmap", ip, 443, 0) for ip in range(4000))
        assert 0.25 < drops / 4000 < 0.35


def _prefix_of(universe, ip):
    """The announced ``(base, prefix_len)`` that contains ``ip``."""
    for system in universe.topology.systems:
        for base, length in system.prefixes:
            if base <= ip < base + (1 << (32 - length)):
                return base, length
    raise AssertionError(f"{ip} is not announced")


def _per_target_prefix_scan(pipeline, port, prefix, apply_filter):
    """The per-object oracle of ``scan_prefix``: fingerprint, grab and
    filter one target at a time."""
    category = ScanCategory.PRIORS
    responders = pipeline.zmap.scan_prefix(port, *prefix, category=category)
    fingerprints = pipeline.lzr.fingerprint_many(
        ((ip, port) for ip in responders), category=category)
    observations = pipeline.zgrab.grab_many(fingerprints, category=category)
    if apply_filter:
        observations = pipeline.pseudo_filter.filter(observations)
    return observations


def _rows(observations):
    return [(o.ip, o.port, o.protocol, dict(o.app_features), o.ttl)
            for o in observations]


def _ledger_state(ledger):
    return (dict(ledger.probes), dict(ledger.responses),
            dict(ledger.retransmits))


class TestColumnarPrefixScan:
    """``scan_prefix`` runs the columnar layers; the per-target chain
    ``filter(grab_many(fingerprint_many(...)))`` is its oracle, with and
    without seeded probe loss."""

    @pytest.fixture(scope="class")
    def sweeps(self, universe):
        """(port, prefix) sweeps over real services, a static-page pseudo
        host, an incident-style pseudo host and a middlebox's prefix."""
        pseudo = [host for host in universe.hosts.values()
                  if host.pseudo_port_range is not None]
        static = next(h for h in pseudo if not h.pseudo_incident_style)
        incident = next(h for h in pseudo if h.pseudo_incident_style)
        middlebox = next(h for h in universe.hosts.values() if h.is_middlebox)
        top_port = universe.port_registry().top_ports(1)[0]
        sweeps = [(top_port, _prefix_of(universe, static.ip)),
                  (static.pseudo_port_range[0], _prefix_of(universe, static.ip)),
                  (incident.pseudo_port_range[0] + 7,
                   _prefix_of(universe, incident.ip)),
                  (top_port, _prefix_of(universe, middlebox.ip))]
        for system in universe.topology.systems[:3]:
            sweeps.append((top_port, system.prefixes[0]))
        return sweeps

    @pytest.mark.parametrize("plan", [None, LOSS], ids=["lossless", "lossy"])
    @pytest.mark.parametrize("apply_filter", [True, False])
    def test_rows_and_ledger_match_per_target_chain(self, universe, sweeps,
                                                    plan, apply_filter):
        columnar = ScanPipeline(universe, fault_plan=plan)
        oracle = ScanPipeline(universe, fault_plan=plan)
        saw_pseudo = saw_incident = False
        for port, prefix in sweeps:
            got = columnar.scan_prefix(port, prefix, apply_filter=apply_filter)
            want = _per_target_prefix_scan(oracle, port, prefix, apply_filter)
            assert _rows(got) == _rows(want)
            for observation in got:
                host = universe.hosts[observation.ip]
                if not host.services.get(observation.port):
                    saw_pseudo = True
                    saw_incident |= host.pseudo_incident_style
        assert saw_pseudo and saw_incident
        assert _ledger_state(columnar.ledger) == _ledger_state(oracle.ledger)
        if plan is not None:
            assert columnar.ledger.total_retransmits() > 0

    @pytest.mark.parametrize("plan", [None, LOSS], ids=["lossless", "lossy"])
    def test_probe_counters_equal_ledger(self, universe, sweeps, plan):
        from repro.telemetry import Telemetry

        pipeline = ScanPipeline(universe, fault_plan=plan,
                                telemetry=Telemetry())
        for port, prefix in sweeps:
            pipeline.scan_prefix(port, prefix)
        samples = pipeline.telemetry.metrics.as_dict()[
            "scan_probes_total"]["samples"]
        counted = {sample["labels"]["category"]: sample["value"]
                   for sample in samples}
        assert counted == {category.value: probes for category, probes
                           in pipeline.ledger.probes.items() if probes}
        assert counted[ScanCategory.PRIORS.value] == \
            pipeline.ledger.total_probes()

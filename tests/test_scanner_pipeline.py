"""Integration tests for the end-to-end scan pipeline."""

from __future__ import annotations

import pytest

from repro.scanner.bandwidth import ScanCategory
from repro.scanner.lzr import PROBES_PER_FINGERPRINT
from repro.scanner.pipeline import ScanPipeline
from repro.scanner.records import ObservationBatch, group_pairs
from repro.telemetry import Telemetry


class TestSampling:
    def test_sample_fraction_bounds(self, pipeline):
        import random
        with pytest.raises(ValueError):
            pipeline.sample_addresses(0.0, random.Random(0))
        with pytest.raises(ValueError):
            pipeline.sample_addresses(1.5, random.Random(0))

    def test_sample_size_and_membership(self, universe, pipeline):
        import random
        sample = pipeline.sample_addresses(0.01, random.Random(0))
        expected = int(round(universe.address_space_size() * 0.01))
        assert len(sample) == expected
        assert len(set(sample)) == len(sample)
        assert all(universe.topology.asn_db.lookup(ip) is not None for ip in sample[:50])


class TestSeedScan:
    def test_seed_scan_charges_all_port_probes(self, universe, pipeline):
        result = pipeline.seed_scan(sample_fraction=0.002, seed=1)
        sampled = len(result.sampled_ips)
        assert pipeline.ledger.total_probes(ScanCategory.SEED) >= sampled * 65535
        # Every observation corresponds to a real or pseudo responder.
        for obs in result.observations[:50]:
            assert (universe.lookup(obs.ip, obs.port) is not None
                    or universe.is_pseudo_responsive(obs.ip, obs.port))

    def test_seed_scan_port_subset(self, universe, pipeline):
        ports = universe.port_registry().top_ports(5)
        result = pipeline.seed_scan(sample_fraction=0.002, seed=2, ports=ports)
        assert all(obs.port in set(ports) for obs in result.observations)
        sampled = len(result.sampled_ips)
        assert pipeline.ledger.total_probes(ScanCategory.SEED) >= sampled * len(ports)

    def test_seed_scan_filter_toggle(self, universe):
        unfiltered = ScanPipeline(universe).seed_scan(0.01, seed=3, apply_filter=False)
        filtered = ScanPipeline(universe).seed_scan(0.01, seed=3, apply_filter=True)
        assert len(filtered.observations) <= len(unfiltered.observations)
        assert filtered.removed_pseudo_services >= 0

    def test_seed_scan_deterministic_given_seed(self, universe):
        first = ScanPipeline(universe).seed_scan(0.005, seed=4)
        second = ScanPipeline(universe).seed_scan(0.005, seed=4)
        assert ([o.pair() for o in first.observations]
                == [o.pair() for o in second.observations])


class TestPrefixAndPairScans:
    def test_scan_prefix_returns_real_services(self, universe, pipeline):
        port = universe.port_registry().top_ports(1)[0]
        system = universe.topology.systems[0]
        base, length = system.prefixes[0]
        observations = pipeline.scan_prefix(port, (base, length))
        expected = {ip for ip in universe.ips_on_port(port)
                    if universe.topology.asn_db.asn_of(ip) == system.asn}
        assert expected <= {obs.ip for obs in observations} | set()
        assert all(obs.port == port for obs in observations)

    def test_scan_prefix_accepts_subnet_key(self, universe, pipeline):
        from repro.net.ipv4 import subnet_key
        port = universe.port_registry().top_ports(1)[0]
        base, length = universe.topology.systems[0].prefixes[0]
        by_tuple = pipeline.scan_prefix(port, (base, length))
        by_key = pipeline.scan_prefix(port, subnet_key(base, length))
        assert {o.pair() for o in by_tuple} == {o.pair() for o in by_key}

    def test_scan_pairs_only_returns_probed_targets(self, universe, pipeline):
        pairs = list(universe.real_service_pairs())[:30] + [(1, 80), (2, 443)]
        observations = pipeline.scan_pairs(pairs)
        assert {obs.pair() for obs in observations} <= set(pairs)
        # One SYN per pair plus the LZR/ZGrab handshake packets for responders.
        probes = pipeline.ledger.total_probes(ScanCategory.PREDICTION)
        assert len(pairs) <= probes <= len(pairs) * 7

    def test_exhaustive_port_scan_costs_one_full_scan(self, universe):
        fresh = ScanPipeline(universe)
        port = universe.port_registry().top_ports(1)[0]
        observations = fresh.exhaustive_port_scan(port)
        zmap_probes = fresh.ledger.total_probes(ScanCategory.EXHAUSTIVE)
        # ZMap cost is exactly the announced space; LZR/ZGrab handshakes on the
        # responders add a small overhead on top.
        assert zmap_probes >= universe.address_space_size()
        assert zmap_probes <= universe.address_space_size() * 1.2
        assert set(universe.ips_on_port(port)) <= {obs.ip for obs in observations}

    def test_ledger_accumulates_across_calls(self, universe, pipeline):
        port = universe.port_registry().top_ports(1)[0]
        base, length = universe.topology.systems[0].prefixes[0]
        pipeline.scan_prefix(port, (base, length))
        first = pipeline.ledger.total_probes()
        pipeline.scan_pairs(list(universe.real_service_pairs())[:10])
        assert pipeline.ledger.total_probes() > first


class TestColumnarPrefixSweep:
    """``scan_prefix`` folds its responders through the columnar layers and
    materializes rows only at its return."""

    def test_rows_carry_read_only_ground_truth_banners(self, universe, pipeline):
        port = universe.port_registry().top_ports(1)[0]
        base, length = universe.topology.systems[0].prefixes[0]
        observations = pipeline.scan_prefix(port, (base, length),
                                            apply_filter=False)
        real = [obs for obs in observations
                if port in universe.hosts[obs.ip].services]
        assert real
        for obs in real:
            record = universe.hosts[obs.ip].services[port]
            assert obs.app_features == record.app_features
            assert (obs.protocol, obs.ttl) == (record.protocol, record.ttl)
        with pytest.raises(TypeError):
            real[0].app_features["protocol"] = "tampered"

    def test_middlebox_only_port_yields_no_rows(self, universe, pipeline):
        # Middleboxes SYN-ACK on every port but never complete a handshake:
        # only the sweep's SYN-ACKs count as responses, and ZGrab is never
        # charged.
        base, length = universe.topology.systems[0].prefixes[0]
        port = next(p for p in range(65535, 1, -1)
                    if all(universe.hosts[ip].is_middlebox for ip in
                           universe.responders_in_prefix(p, base, length)))
        responders = universe.responders_in_prefix(port, base, length)
        assert responders
        assert list(pipeline.scan_prefix(port, (base, length))) == []
        assert pipeline.ledger.total_responses() == len(responders)
        assert pipeline.ledger.total_probes() == \
            universe.announced_overlap(base, length) \
            + PROBES_PER_FINGERPRINT * len(responders)

    def test_status_ids_stay_in_the_pipeline_space(self, universe, pipeline):
        port = universe.port_registry().top_ports(1)[0]
        base, length = universe.topology.systems[0].prefixes[0]
        first = pipeline.scan_prefix(port, (base, length))
        assert first
        protocols = {obs.protocol for obs in first}
        assert len(pipeline.status_encoder) == len(protocols)
        second = pipeline.scan_prefix(port, (base, length))
        assert second == first
        assert len(pipeline.status_encoder) == len(protocols)

    def test_columnar_shapes_return_batches_in_filter_order(self, universe,
                                                             pipeline):
        port = universe.port_registry().top_ports(1)[0]
        base, length = universe.topology.systems[0].prefixes[0]
        assert isinstance(pipeline.scan_prefix(port, (base, length)),
                          ObservationBatch)
        # One host's services probed highest port first: the filtered batch
        # lists them port-ascending, as the object filter does.
        host = next(h for h in universe.hosts.values()
                    if len(h.services) >= 3 and h.pseudo_port_range is None
                    and not h.is_middlebox)
        pairs = [(host.ip, p) for p in sorted(host.services, reverse=True)]
        raw = pipeline.scan_pair_batches(group_pairs(pairs, 16),
                                         apply_filter=False)
        kept = pipeline.scan_pair_batches(group_pairs(pairs, 16))
        assert isinstance(raw, ObservationBatch)
        assert raw.pairs() == pairs
        assert kept.pairs() == sorted(pairs)
        assert list(kept) == pipeline.pseudo_filter.filter(list(raw))

    def test_each_call_counts_one_prefix_sweep(self, universe):
        pipeline = ScanPipeline(universe, telemetry=Telemetry())
        port = universe.port_registry().top_ports(1)[0]
        prefixes = [system.prefixes[0] for system in universe.topology.systems[:3]]
        for prefix in prefixes:
            pipeline.scan_prefix(port, prefix)
        sweeps = pipeline.telemetry.metrics.as_dict()["scan_sweeps_total"]
        assert [(sample["labels"], sample["value"])
                for sample in sweeps["samples"]] == [({"shape": "prefix"}, 3)]

"""Unit tests for the pseudo-service filter (Appendix B)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.scanner.filtering import FilterReport, PseudoServiceFilter, filter_quality
from repro.scanner.records import ObservationBatch, ScanObservation


def _obs(ip: int, port: int, body: str = "page", protocol: str = "http") -> ScanObservation:
    return ScanObservation(ip=ip, port=port, protocol=protocol,
                           app_features={"protocol": protocol, "http_body_hash": body})


class TestFilterRules:
    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            PseudoServiceFilter(max_services_per_host=0)
        with pytest.raises(ValueError):
            PseudoServiceFilter(min_duplicate_services=1)

    def test_normal_hosts_pass_through(self):
        observations = [_obs(1, 80, "a"), _obs(1, 443, "b"), _obs(2, 22, "c")]
        report = PseudoServiceFilter().apply(observations)
        assert sorted(o.pair() for o in report.kept) == [(1, 80), (1, 443), (2, 22)]
        assert report.removed_count() == 0
        assert not report.flagged_hosts

    def test_dense_host_removed_entirely(self):
        observations = [_obs(1, port, body=f"p{port}") for port in range(1000, 1015)]
        observations.append(_obs(2, 80, "ok"))
        report = PseudoServiceFilter(max_services_per_host=10).apply(observations)
        assert {o.ip for o in report.kept} == {2}
        assert len(report.removed_dense_host) == 15
        assert report.flagged_hosts == {1}

    def test_duplicate_content_removed(self):
        observations = [_obs(1, port, body="same") for port in (80, 81, 82, 83, 84)]
        observations.append(_obs(1, 22, body="unique", protocol="ssh"))
        report = PseudoServiceFilter(min_duplicate_services=5).apply(observations)
        kept_ports = {o.port for o in report.kept}
        assert kept_ports == {22}
        assert len(report.removed_duplicate_content) == 5
        assert report.flagged_hosts == {1}

    def test_duplicate_content_below_threshold_kept(self):
        observations = [_obs(1, 80, body="same"), _obs(1, 8080, body="same")]
        report = PseudoServiceFilter(min_duplicate_services=5).apply(observations)
        assert len(report.kept) == 2

    def test_dynamic_fields_are_stripped_before_comparison(self):
        observations = []
        for index, port in enumerate((80, 81, 82, 83, 84)):
            features = {"protocol": "http", "http_body_hash": "same",
                        "http_date": f"day-{index}"}
            observations.append(ScanObservation(ip=1, port=port, protocol="http",
                                                app_features=features))
        report = PseudoServiceFilter(min_duplicate_services=5).apply(observations)
        assert len(report.removed_duplicate_content) == 5

    def test_filter_returns_only_kept(self):
        observations = [_obs(1, port, body="same") for port in range(80, 86)]
        kept = PseudoServiceFilter().filter(observations)
        assert kept == []


def _row_key(observations):
    return sorted((o.ip, o.port, tuple(sorted(o.app_features.items())))
                  for o in observations)


#: Rows over few hosts, ports and bodies, unique per (ip, port), so both
#: rules fire often under small thresholds.
_rows = st.lists(
    st.tuples(st.integers(1, 4), st.integers(1, 8), st.sampled_from("ab")),
    max_size=30, unique_by=lambda row: row[:2],
).map(lambda rows: [_obs(ip, port, body) for ip, port, body in rows])


class TestColumnarFilter:
    """``filter_batch`` / ``apply_batch`` remove exactly what ``apply``
    removes, including on the one-row-per-host batches of a single-port
    sweep, where neither rule can fire."""

    def test_one_row_per_host_keeps_every_row_in_order(self):
        # One port swept across a CDN: the same page on every host is not a
        # duplicate-content host, however many hosts serve it.
        observations = [_obs(ip, 443, body="cdn-default") for ip in range(12, 0, -1)]
        batch = ObservationBatch.from_observations(observations)
        pseudo_filter = PseudoServiceFilter()
        assert list(pseudo_filter.filter_batch(batch)) == observations
        assert pseudo_filter.filter(observations) == observations

    def test_one_row_per_host_returns_the_input_batch(self):
        batch = ObservationBatch.from_observations(
            [_obs(ip, 80, body="same") for ip in (9, 3, 7)])
        assert PseudoServiceFilter().filter_batch(batch) is batch
        assert PseudoServiceFilter().apply_batch(batch)[0] is batch

    def test_several_rows_per_host_come_back_host_first_port_ascending(self):
        # Every row survives, but row order is not the kept order: hosts in
        # first-seen order, ports ascending within each host.
        rows = [(5, 443), (3, 22), (5, 80), (3, 21), (8, 25), (5, 8080),
                (3, 20)]
        observations = [_obs(ip, port, body=f"b{port}") for ip, port in rows]
        batch = ObservationBatch.from_observations(observations)
        kept = PseudoServiceFilter().filter_batch(batch)
        expected = [(5, 80), (5, 443), (5, 8080), (3, 20), (3, 21), (3, 22),
                    (8, 25)]
        assert kept is not batch
        assert kept.pairs() == expected
        assert [obs.pair() for obs in kept] == expected
        assert list(kept) == PseudoServiceFilter().filter(observations)
        assert batch.pairs() == rows

    def test_apply_batch_one_row_per_host_reports_nothing(self):
        observations = [_obs(ip, 80, body="same") for ip in range(1, 9)]
        batch = ObservationBatch.from_observations(observations)
        kept, report = PseudoServiceFilter(max_services_per_host=1,
                                           min_duplicate_services=2
                                           ).apply_batch(batch)
        assert kept.materialize() == observations
        assert report.removed_count() == 0
        assert not report.flagged_hosts

    @pytest.mark.parametrize("thresholds", [
        {}, {"max_services_per_host": 3, "min_duplicate_services": 2},
    ], ids=["default", "tight"])
    @settings(max_examples=80, deadline=None)
    @given(observations=_rows)
    def test_batch_paths_match_apply(self, thresholds, observations):
        pseudo_filter = PseudoServiceFilter(**thresholds)
        batch = ObservationBatch.from_observations(observations)
        expected = pseudo_filter.apply(observations)
        assert list(pseudo_filter.filter_batch(batch)) == expected.kept
        kept, report = pseudo_filter.apply_batch(batch)
        assert kept.materialize() == expected.kept
        assert _row_key(report.removed_duplicate_content) == \
            _row_key(expected.removed_duplicate_content)
        assert _row_key(report.removed_dense_host) == \
            _row_key(expected.removed_dense_host)
        assert report.flagged_hosts == expected.flagged_hosts


class TestOnSyntheticUniverse:
    def test_pseudo_hosts_filtered_with_high_recall(self, universe, pipeline):
        pseudo_hosts = {h.ip for h in universe.hosts.values() if h.is_pseudo_host()}
        # Sweep a handful of ports on every pseudo host plus some real hosts.
        observations = []
        for host in universe.hosts.values():
            if host.is_pseudo_host():
                lo, _ = host.pseudo_port_range
                targets = [(host.ip, lo + offset) for offset in range(15)]
                fingerprints = pipeline.lzr.fingerprint_many(targets)
                observations.extend(pipeline.zgrab.grab_many(fingerprints))
        for ip, port in list(universe.real_service_pairs())[:100]:
            fingerprints = pipeline.lzr.fingerprint_many([(ip, port)])
            observations.extend(pipeline.zgrab.grab_many(fingerprints))

        report = PseudoServiceFilter().apply(observations)
        quality = filter_quality(report, pseudo_hosts)
        assert quality["recall"] == pytest.approx(1.0)
        assert quality["precision"] >= 0.9

    def test_filter_quality_with_no_flags(self):
        report = FilterReport()
        quality = filter_quality(report, pseudo_hosts=set())
        assert quality["recall"] == 1.0
        quality = filter_quality(report, pseudo_hosts={1})
        assert quality["recall"] == 0.0

"""Unit tests for scan records and bandwidth accounting."""

from __future__ import annotations

from collections.abc import Sequence

import pytest
from hypothesis import given, strategies as st

from repro.scanner.bandwidth import BITS_PER_PROBE, BandwidthLedger, ScanCategory
from repro.scanner.records import (
    ObservationBatch,
    ScanObservation,
    observations_by_host,
    unique_pairs,
)


def _obs(ip: int, port: int, protocol: str = "http") -> ScanObservation:
    return ScanObservation(ip=ip, port=port, protocol=protocol,
                           app_features={"protocol": protocol})


class TestScanObservation:
    def test_pair_and_feature(self):
        obs = ScanObservation(ip=7, port=80, protocol="http",
                              app_features={"http_server": "nginx"})
        assert obs.pair() == (7, 80)
        assert obs.feature("http_server") == "nginx"
        assert obs.feature("missing", "d") == "d"

    def test_observations_by_host_groups_and_sorts(self):
        grouped = observations_by_host([_obs(1, 443), _obs(2, 80), _obs(1, 80)])
        assert set(grouped) == {1, 2}
        assert [o.port for o in grouped[1]] == [80, 443]

    def test_unique_pairs_dedupes(self):
        pairs = unique_pairs([_obs(1, 80), _obs(1, 80), _obs(2, 22)])
        assert pairs == [(1, 80), (2, 22)]


def _batch_with_local_banners() -> ObservationBatch:
    """Six rows: four interned banners (two shared) and two batch-local."""
    batch = ObservationBatch.from_observations(
        [_obs(1, 80), _obs(2, 22, "ssh"), _obs(3, 80), _obs(1, 443, "tls")])
    for ip, port in ((4, 8080), (5, 8081)):
        banner_id = batch.add_local_banner({"http_body_hash": f"incident-{ip}"})
        batch.append(ip, port, batch.status_id("http"), banner_id, 64)
    return batch


class TestObservationBatchIndexedMaterialize:
    """``select(indices)`` is the filter's kept batch: exactly the requested
    rows, in the requested order."""

    @given(st.lists(st.integers(min_value=0, max_value=5), max_size=12))
    def test_indices_select_rows_in_the_given_order(self, indices):
        batch = _batch_with_local_banners()
        assert list(batch.select(indices)) == [batch.row(i) for i in indices]
        assert batch.select(indices).materialize() == \
            [batch.materialize()[i] for i in indices]

    def test_indices_accept_any_iterable(self):
        batch = _batch_with_local_banners()
        expected = [batch.row(5), batch.row(0)]
        assert list(batch.select(iter([5, 0]))) == expected
        assert list(batch.select((5, 0))) == expected
        assert list(batch.select(range(len(batch)))) == batch.materialize()
        assert list(batch.select([])) == []

    def test_local_banners_resolve_by_index(self):
        batch = _batch_with_local_banners()
        (row,) = batch.select([4])
        assert (row.ip, row.port, row.protocol) == (4, 8080, "http")
        assert row.app_features == {"http_body_hash": "incident-4"}


class TestObservationBatchSequence:
    """A batch is a read-only ``Sequence`` of rows built when read."""

    def test_len_iteration_and_indexing(self):
        batch = _batch_with_local_banners()
        rows = batch.materialize()
        assert isinstance(batch, Sequence)
        assert len(batch) == 6
        assert list(batch) == rows
        assert [batch[i] for i in range(6)] == rows
        assert batch[-1] == rows[5] and batch[-6] == rows[0]
        assert batch[-2].app_features == {"http_body_hash": "incident-4"}
        assert list(reversed(batch)) == rows[::-1]
        assert rows[3] in batch
        assert _obs(9, 9) not in batch
        for index in (6, -7):
            with pytest.raises(IndexError):
                batch[index]

    @pytest.mark.parametrize("window", [
        slice(None), slice(1, 4), slice(-2, None), slice(None, None, -2),
        slice(4, 1, -1), slice(10, 20), slice(0, 0)])
    def test_slices_are_batches_of_the_same_rows(self, window):
        batch = _batch_with_local_banners()
        sliced = batch[window]
        assert isinstance(sliced, ObservationBatch)
        assert list(sliced) == batch.materialize()[window]
        assert sliced.banners is batch.banners
        assert sliced.statuses is batch.statuses

    def test_a_batch_never_equals_a_list(self):
        # Compare list(batch): a Sequence equals only its own kind.
        assert ObservationBatch.from_observations([]) != []
        batch = _batch_with_local_banners()
        assert batch != batch.materialize()

    def test_feature_rows_read_the_columns(self):
        batch = _batch_with_local_banners()
        assert list(batch.feature_rows()) == [
            (obs.ip, obs.port, obs.app_features) for obs in batch]


def _same_tables_batch(like: ObservationBatch) -> ObservationBatch:
    return ObservationBatch(banners=like.banners, statuses=like.statuses)


class TestObservationBatchExtend:
    """``extend`` appends another batch's rows; batch-local banner ids are
    remapped into a copy of the receiving batch's local table."""

    def test_rows_append_in_order_with_local_banners_on_both_sides(self):
        left = _batch_with_local_banners()
        right = _same_tables_batch(left)
        for ip, port in ((7, 80), (8, 81)):
            banner_id = right.add_local_banner({"http_body_hash": f"right-{ip}"})
            right.append(ip, port, right.status_id("http"), banner_id, 64)
        right.append(1, 80, right.status_id("http"), left.banner_ids[0], 64)
        expected = left.materialize() + right.materialize()
        left_table, right_table = left.local_banners, list(right.local_banners)
        left.extend(right)
        assert list(left) == expected
        assert len(left.local_banners) == 4
        assert left.local_banners is not left_table and len(left_table) == 2
        assert right.local_banners == right_table and list(right) == expected[6:]

    def test_extending_a_selection_never_grows_its_source(self):
        source = _batch_with_local_banners()
        picked = source.select([5, 0])
        assert picked.local_banners is source.local_banners
        other = _same_tables_batch(source)
        banner_id = other.add_local_banner({"http_body_hash": "other"})
        other.append(9, 9090, other.status_id("http"), banner_id, 60)
        before = source.materialize()
        picked.extend(other)
        assert len(source.local_banners) == 2
        assert list(source) == before
        assert list(picked) == [before[5], before[0]] + other.materialize()

    def test_only_referenced_local_banners_are_copied(self):
        source = _batch_with_local_banners()
        run = _same_tables_batch(source)
        run.extend(source.select([4]))
        run.extend(source.select([0, 5]))
        assert [obs.pair() for obs in run] == [(4, 8080), (1, 80), (5, 8081)]
        assert run.local_banners == [{"http_body_hash": "incident-4"},
                                     {"http_body_hash": "incident-5"}]
        assert list(run.banner_ids)[0] == -1 and list(run.banner_ids)[2] == -2

    def test_interned_only_rows_leave_the_local_table_alone(self):
        source = _batch_with_local_banners()
        run = _same_tables_batch(source)
        table = run.local_banners
        run.extend(source.select([0, 1, 2]))
        assert run.local_banners is table and table == []
        assert list(run) == source.materialize()[:3]

    def test_foreign_tables_are_rejected(self):
        batch = _batch_with_local_banners()
        with pytest.raises(ValueError):
            batch.extend(ObservationBatch.from_observations([_obs(1, 80)]))
        with pytest.raises(ValueError):
            batch.extend(ObservationBatch(banners=batch.banners))


class TestBandwidthLedger:
    def test_rejects_non_positive_space(self):
        with pytest.raises(ValueError):
            BandwidthLedger(address_space_size=0)

    def test_record_and_totals(self):
        ledger = BandwidthLedger(address_space_size=1000)
        ledger.record(ScanCategory.SEED, probes=500, responses=5)
        ledger.record(ScanCategory.PREDICTION, probes=100, responses=80)
        assert ledger.total_probes() == 600
        assert ledger.total_probes(ScanCategory.SEED) == 500
        assert ledger.total_responses() == 85
        assert ledger.full_scans() == pytest.approx(0.6)
        assert ledger.full_scans(ScanCategory.PREDICTION) == pytest.approx(0.1)

    def test_precision(self):
        ledger = BandwidthLedger(address_space_size=10)
        assert ledger.precision() == 0.0
        ledger.record(ScanCategory.PRIORS, probes=100, responses=25)
        assert ledger.precision() == pytest.approx(0.25)

    def test_rejects_negative_counts(self):
        ledger = BandwidthLedger(address_space_size=10)
        with pytest.raises(ValueError):
            ledger.record(ScanCategory.SEED, probes=-1)

    def test_rejects_more_responses_than_probes(self):
        ledger = BandwidthLedger(address_space_size=10)
        with pytest.raises(ValueError):
            ledger.record(ScanCategory.SEED, probes=1, responses=2)

    def test_wall_time_model(self):
        ledger = BandwidthLedger(address_space_size=10)
        ledger.record(ScanCategory.SEED, probes=1000)
        assert ledger.wall_time_seconds(rate_bits_per_second=1000 * BITS_PER_PROBE) \
            == pytest.approx(1.0)
        with pytest.raises(ValueError):
            ledger.wall_time_seconds(rate_bits_per_second=0)

    def test_snapshot_contains_category_breakdown(self):
        ledger = BandwidthLedger(address_space_size=10)
        ledger.record(ScanCategory.SEED, probes=10, responses=1)
        snapshot = ledger.snapshot()
        assert snapshot["total_probes"] == 10.0
        assert "full_scans_seed" in snapshot

    def test_merge_requires_same_space(self):
        a = BandwidthLedger(address_space_size=10)
        b = BandwidthLedger(address_space_size=20)
        with pytest.raises(ValueError):
            a.merged_with(b)

    def test_merge_sums_categories(self):
        a = BandwidthLedger(address_space_size=10)
        b = BandwidthLedger(address_space_size=10)
        a.record(ScanCategory.SEED, probes=5, responses=1)
        b.record(ScanCategory.SEED, probes=7, responses=2)
        merged = a.merged_with(b)
        assert merged.total_probes(ScanCategory.SEED) == 12
        assert merged.total_responses(ScanCategory.SEED) == 3

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=10_000),
                              st.integers(min_value=0, max_value=10_000)),
                    max_size=30))
    def test_totals_match_sum_of_records(self, records):
        ledger = BandwidthLedger(address_space_size=1234)
        expected_probes = 0
        expected_responses = 0
        for probes, responses in records:
            responses = min(probes, responses)
            ledger.record(ScanCategory.OTHER, probes=probes, responses=responses)
            expected_probes += probes
            expected_responses += responses
        assert ledger.total_probes() == expected_probes
        assert ledger.total_responses() == expected_responses
        assert ledger.full_scans() == pytest.approx(expected_probes / 1234)

"""Equivalence tests for the engine-backed prediction-index build.

``build_prediction_index_with_engine`` produces the same
:class:`~repro.core.predictions.PredictiveFeatureIndex` as the dict oracle
``PredictiveFeatureIndex.from_seed`` -- entry for entry, probabilities
bit-identical, argmax ties broken identically -- on every runtime executor.
The tests pin the tie-break ladder explicitly (probability, then support,
then smallest predictor tuple), the min-support/fallback tiers and the
cutoff, plus the bounded network-feature memo that ``predict`` keeps across
GPS rounds and its per-call predictor-run memo, checked against a plain
per-observation loop.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.predictions as predictions_module
from repro.core.config import FeatureConfig
from repro.core.features import (
    HostFeatures,
    extract_host_features,
    network_feature_values,
    predictor_tuples_for_observation,
)
from repro.core.model import CooccurrenceModel, build_model
from repro.core.predictions import (
    NET_FEATURE_CACHE_MAX,
    PredictedService,
    PredictiveFeatureIndex,
    build_prediction_index_with_engine,
)
from repro.datasets.split import split_seed_test
from repro.internet.banners import BannerInterner
from repro.net.asn import AsnDatabase, AsnRecord
from repro.scanner.records import ObservationBatch, ScanObservation

from engine_helpers import resident_groups

#: ``(executor, workers, shards)`` runtimes the dataset-level equivalence
#: runs on (``0`` takes the runtime's default).
EXECUTORS = (("serial", 0, 0), ("serial", 1, 3), ("thread", 3, 0), ("pool", 2, 0))


def _engine_index(hosts, model, executor="serial", num_workers=0,
                  shard_count=0, **kwargs):
    with resident_groups(hosts, executor=executor, num_workers=num_workers,
                         shard_count=shard_count) as dataset:
        return build_prediction_index_with_engine(dataset, model, **kwargs)


def _host(ip, ports):
    host = HostFeatures(ip=ip)
    host.ports = {port: list(preds) for port, preds in ports.items()}
    return host


def _model(denominators, cooccurrence):
    model = CooccurrenceModel()
    model.denominators = dict(denominators)
    model.cooccurrence = {p: dict(t) for p, t in cooccurrence.items()}
    return model


def _assert_indices_equal(fused, legacy):
    assert fused.entries() == legacy.entries()
    assert fused.predictors() == legacy.predictors()
    assert len(fused) == len(legacy)


class TestFusedFromSeedEquivalence:
    """Dataset-level engine == oracle, across executors and parameters."""

    @pytest.fixture(scope="class")
    def seed_inputs(self, universe, censys_dataset):
        split = split_seed_test(censys_dataset, seed_fraction=0.1, seed=0)
        hosts = extract_host_features(split.seed_observations,
                                      universe.topology.asn_db, FeatureConfig())
        return hosts, build_model(hosts), censys_dataset.port_domain

    @pytest.mark.parametrize("executor,workers,shards", EXECUTORS,
                             ids=("default", "serial", "thread3", "pool2"))
    def test_matches_oracle_across_backends(self, seed_inputs, executor,
                                            workers, shards):
        hosts, model, port_domain = seed_inputs
        legacy = PredictiveFeatureIndex.from_seed(hosts, model,
                                                  port_domain=port_domain)
        fused = _engine_index(hosts, model, executor, workers, shards,
                              port_domain=port_domain)
        _assert_indices_equal(fused, legacy)

    @pytest.mark.parametrize("min_support", (1, 2, 3))
    def test_matches_oracle_across_min_support(self, seed_inputs, min_support):
        hosts, model, _ = seed_inputs
        legacy = PredictiveFeatureIndex.from_seed(
            hosts, model, min_pattern_support=min_support)
        fused = _engine_index(hosts, model, min_pattern_support=min_support)
        _assert_indices_equal(fused, legacy)

    def test_matches_oracle_with_cutoff(self, seed_inputs):
        hosts, model, _ = seed_inputs
        legacy = PredictiveFeatureIndex.from_seed(hosts, model,
                                                  probability_cutoff=0.3)
        fused = _engine_index(hosts, model, probability_cutoff=0.3)
        _assert_indices_equal(fused, legacy)


class TestArgmaxTieBreaks:
    """Handcrafted tie cases: both paths must select the identical winner."""

    def _both(self, hosts, model, **kwargs):
        legacy = PredictiveFeatureIndex.from_seed(hosts, model,
                                                  probability_cutoff=0.0,
                                                  **kwargs)
        fused = _engine_index(hosts, model, probability_cutoff=0.0, **kwargs)
        _assert_indices_equal(fused, legacy)
        return fused, legacy

    def test_equal_prob_equal_support_smallest_tuple_wins(self):
        # Both predictors score 0.5 with support 4 for port 443; the encoder
        # sees the lexicographically *larger* tuple first, so first-seen id
        # order disagrees with tuple order on purpose.
        pred_late = ("PA", 80, "b_feature", "x")
        pred_early = ("PA", 80, "a_feature", "x")
        hosts = {1: _host(1, {80: [pred_late, pred_early], 443: []})}
        model = _model({pred_late: 4, pred_early: 4},
                       {pred_late: {443: 2}, pred_early: {443: 2}})
        fused, _ = self._both(hosts, model, min_pattern_support=1)
        assert fused.targets_for(pred_early) == {443: 0.5}
        assert fused.targets_for(pred_late) == {}

    def test_equal_prob_higher_support_wins_over_smaller_tuple(self):
        pred_small = ("PA", 80, "a_feature", "x")  # 1/2, support 2
        pred_big = ("PA", 80, "b_feature", "x")    # 2/4, support 4
        hosts = {1: _host(1, {80: [pred_small, pred_big], 443: []})}
        model = _model({pred_small: 2, pred_big: 4},
                       {pred_small: {443: 1}, pred_big: {443: 2}})
        fused, _ = self._both(hosts, model, min_pattern_support=1)
        assert fused.targets_for(pred_big) == {443: 0.5}
        assert fused.targets_for(pred_small) == {}

    def test_supported_tier_beats_stronger_unsupported_pattern(self):
        # A host-unique pattern reaches probability 1.0 but has support 1;
        # min_pattern_support=2 must prefer the weaker supported pattern.
        unique = ("PA", 80, "tls_cert_hash", "deadbeef")
        shared = ("PA", 80, "http_server", "fleet-httpd")
        hosts = {1: _host(1, {80: [unique, shared], 443: []})}
        model = _model({unique: 1, shared: 10},
                       {unique: {443: 1}, shared: {443: 1}})
        fused, _ = self._both(hosts, model, min_pattern_support=2)
        assert fused.targets_for(shared) == {443: 0.1}
        assert fused.targets_for(unique) == {}

    def test_fallback_to_unsupported_when_no_supported_pattern(self):
        unique = ("PA", 80, "tls_cert_hash", "deadbeef")
        hosts = {1: _host(1, {80: [unique], 443: []})}
        model = _model({unique: 1}, {unique: {443: 1}})
        fused, _ = self._both(hosts, model, min_pattern_support=2)
        assert fused.targets_for(unique) == {443: 1.0}

    def test_three_service_host_cross_member_argmax(self):
        # Port 22's predictor is the strongest for 443; port 80's for 8080.
        p22 = ("P", 22)
        p80 = ("P", 80)
        p443 = ("P", 443)
        hosts = {1: _host(1, {22: [p22], 80: [p80], 443: [p443]})}
        model = _model(
            {p22: 10, p80: 10, p443: 10},
            {p22: {443: 9, 80: 1}, p80: {443: 5, 22: 2}, p443: {80: 3}},
        )
        fused, _ = self._both(hosts, model, min_pattern_support=1)
        assert fused.targets_for(p22) == {443: 0.9}
        assert fused.targets_for(p443) == {80: 0.3}
        assert fused.targets_for(p80) == {22: 0.2}

    def test_port_domain_filters_targets_not_candidates(self):
        # 443 is outside the domain: no entry targets it, but the service on
        # 443 still supplies the predictor for the in-domain port 80.
        p443 = ("P", 443)
        p80 = ("P", 80)
        hosts = {1: _host(1, {443: [p443], 80: [p80]})}
        model = _model({p443: 4, p80: 4}, {p443: {80: 2}, p80: {443: 2}})
        fused, _ = self._both(hosts, model, port_domain=(80,),
                              min_pattern_support=1)
        assert fused.targets_for(p443) == {80: 0.5}
        assert fused.targets_for(p80) == {}

    def test_cutoff_applies_identically(self):
        p80 = ("P", 80)
        p443 = ("P", 443)
        hosts = {1: _host(1, {80: [p80], 443: [p443]})}
        model = _model({p80: 100, p443: 100}, {p80: {443: 1}, p443: {80: 1}})
        legacy = PredictiveFeatureIndex.from_seed(hosts, model,
                                                  probability_cutoff=0.05,
                                                  min_pattern_support=1)
        fused = _engine_index(hosts, model, probability_cutoff=0.05,
                              min_pattern_support=1)
        _assert_indices_equal(fused, legacy)
        assert len(fused) == 0

    def test_own_values_never_score_for_their_member(self):
        # Adversarial model: predictor F's count row contains F's own
        # member's label (impossible for real co-occurrence counts, whose
        # tuples embed their port, but the operator must match the oracle
        # for any caller-supplied model).  Without the explicit i != j
        # exclusion, host 1's own F (1/2) would beat G (1/3) for port 80.
        pred_f = ("PA", 80, "http_server", "x")
        pred_g = ("P", 22)
        hosts = {1: _host(1, {80: [pred_f], 22: [pred_g]})}
        model = _model({pred_f: 2, pred_g: 3},
                       {pred_f: {80: 1, 22: 1}, pred_g: {80: 1}})
        fused, _ = self._both(hosts, model, min_pattern_support=1)
        assert fused.targets_for(pred_g) == {80: pytest.approx(1 / 3)}
        assert fused.targets_for(pred_f) == {22: 0.5}

    def test_hosts_with_fewer_than_two_services_contribute_nothing(self):
        hosts = {1: _host(1, {80: [("P", 80)]}),
                 2: _host(2, {80: [("P", 80)]}),
                 3: HostFeatures(ip=3)}
        model = _model({("P", 80): 2}, {("P", 80): {443: 1}})
        fused, _ = self._both(hosts, model, min_pattern_support=1)
        assert len(fused) == 0

    def test_single_service_hosts_compile_to_no_groups(self):
        # The resident argmax fold skips hosts with fewer than two
        # services before selecting: no shard reports a group at all.
        hosts = {ip: _host(ip, {80: [("P", 80)]}) for ip in range(1, 6)}
        model = _model({("P", 80): 5}, {})
        with resident_groups(hosts, shard_count=3) as dataset:
            dataset.ensure_sides(model)
            args = (None, 1, 0.0)
            per_shard = dataset.runtime.execute(
                "index_argmax", dataset.key, [args] * dataset.runtime.shard_count)
            assert per_shard == [[], [], []]
            assert dataset.argmax_winners(model, min_pattern_support=1,
                                          probability_cutoff=0.0) == []

    def test_unknown_predictors_score_nothing(self):
        # A model trained elsewhere: the host's predictors are unknown to
        # it, so no pattern qualifies on either path.
        hosts = {1: _host(1, {80: [("P", 80)], 443: [("P", 443)]})}
        model = _model({("P", 22): 3}, {("P", 22): {80: 2}})
        fused, _ = self._both(hosts, model, min_pattern_support=1)
        assert len(fused) == 0


class TestBoundedNetFeatureCache:
    """predictions.predict's memo must stay bounded across GPS rounds."""

    @pytest.fixture()
    def index(self):
        return PredictiveFeatureIndex([
            predictions_module.PredictiveFeature(("P", 554), 37777, 0.9),
        ])

    @staticmethod
    def _round(index, ips, config=None):
        observations = [ScanObservation(ip=ip, port=554, protocol="rtsp",
                                        app_features={"protocol": "rtsp"})
                        for ip in ips]
        return index.predict(observations, None, config or FeatureConfig())

    def test_cache_persists_between_rounds(self, index):
        self._round(index, range(10))
        assert len(index._net_cache) == 10
        self._round(index, range(10))
        assert len(index._net_cache) == 10

    def test_cache_never_exceeds_bound(self, index, monkeypatch):
        monkeypatch.setattr(predictions_module, "NET_FEATURE_CACHE_MAX", 16)
        for round_index in range(5):
            self._round(index, range(round_index * 40, round_index * 40 + 40))
            assert len(index._net_cache) <= 16

    def test_eviction_does_not_change_predictions(self, index, monkeypatch):
        ips = list(range(100))
        expected = self._round(PredictiveFeatureIndex(
            [predictions_module.PredictiveFeature(("P", 554), 37777, 0.9)]), ips)
        monkeypatch.setattr(predictions_module, "NET_FEATURE_CACHE_MAX", 8)
        for _ in range(3):
            assert self._round(index, ips) == expected
            assert len(index._net_cache) <= 8

    def test_hot_key_survives_eviction_pressure(self, index, monkeypatch):
        """True LRU: a key that keeps hitting outlives streams of cold keys."""
        monkeypatch.setattr(predictions_module, "NET_FEATURE_CACHE_MAX", 8)
        hot_ip = 10_000
        self._round(index, [hot_ip])
        cold = iter(range(1_000_000, 2_000_000))
        for _ in range(10):
            # Refresh the hot key, then shove in almost a full cache of cold
            # keys; under FIFO the hot key would age out regardless of hits,
            # under LRU the refresh keeps it resident every time.
            self._round(index, [hot_ip])
            self._round(index, [next(cold) for _ in range(7)])
            assert hot_ip in index._net_cache
            assert len(index._net_cache) <= 8

    def test_lru_evicts_stalest_not_newest(self, index, monkeypatch):
        monkeypatch.setattr(predictions_module, "NET_FEATURE_CACHE_MAX", 4)
        self._round(index, [1, 2, 3, 4])
        self._round(index, [1])          # 2 is now the least recently used
        self._round(index, [5])          # evicts 2
        assert 1 in index._net_cache
        assert 2 not in index._net_cache
        assert set(index._net_cache) == {1, 3, 4, 5}

    def test_cache_rekeys_on_feature_kind_change(self, index):
        wide = FeatureConfig(network_feature_kinds=("subnet16",))
        narrow = FeatureConfig(network_feature_kinds=("subnet23",))
        self._round(index, range(5), wide)
        first_kinds = index._net_cache_kinds
        self._round(index, range(5), narrow)
        assert index._net_cache_kinds == ("subnet23",)
        assert first_kinds != index._net_cache_kinds
        # A fresh index with the narrow config must agree (no stale reuse).
        fresh = PredictiveFeatureIndex(
            [predictions_module.PredictiveFeature(("P", 554), 37777, 0.9)])
        assert self._round(index, range(5), narrow) == \
            self._round(fresh, range(5), narrow)

    def test_default_bound_is_large(self):
        assert NET_FEATURE_CACHE_MAX >= 1024


class TestNetFeatureCacheThreadSafety:
    """The memo must survive concurrent predict() calls (the serving layer
    folds lookups on a thread pool; pre-lock, a get/move_to_end racing a
    concurrent eviction raised KeyError and could corrupt the OrderedDict)."""

    def _index(self):
        return PredictiveFeatureIndex([
            predictions_module.PredictiveFeature(("P", 554), 37777, 0.9),
        ])

    @staticmethod
    def _observations(ips):
        return [ScanObservation(ip=ip, port=554, protocol="rtsp",
                                app_features={"protocol": "rtsp"})
                for ip in ips]

    def test_concurrent_predicts_under_eviction_pressure(self, monkeypatch):
        """Hammer: many threads, overlapping keys, cache far smaller than the
        working set, so hits, inserts and evictions interleave constantly."""
        from concurrent.futures import ThreadPoolExecutor

        monkeypatch.setattr(predictions_module, "NET_FEATURE_CACHE_MAX", 8)
        index = self._index()
        config = FeatureConfig()
        # Overlapping slices: every thread shares keys with its neighbours.
        slices = [list(range(start, start + 48)) for start in range(0, 128, 16)]
        expected = {}
        for ips in slices:
            key = tuple(ips)
            if key not in expected:
                expected[key] = self._index().predict(
                    self._observations(ips), None, config)

        def hammer(ips):
            rows = []
            for _ in range(25):
                rows.append(index.predict(self._observations(ips), None, config))
            return ips, rows

        with ThreadPoolExecutor(max_workers=8) as pool:
            for ips, rows in pool.map(hammer, slices * 2):
                for row in rows:
                    assert row == expected[tuple(ips)]
        assert len(index._net_cache) <= 8

    def test_concurrent_predicts_correct_at_large_capacity(self):
        """With room for everything, concurrency must not change results or
        lose cache entries."""
        from concurrent.futures import ThreadPoolExecutor

        index = self._index()
        config = FeatureConfig()
        ips = list(range(200))
        expected = self._index().predict(self._observations(ips), None, config)

        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(
                lambda _: index.predict(self._observations(ips), None, config),
                range(12)))
        assert all(result == expected for result in results)
        assert len(index._net_cache) == len(ips)


# -- predict's run memo vs a per-observation reference loop -----------------------------

#: The packed pair key's edges (port 0 and 65535, ip 0 and 2**32 - 1) ride
#: along with the common ports and addresses.
_PORTS = (0, 22, 80, 443, 8080, 65535)
_APP_ITEMS = (("protocol", "http"), ("protocol", "ssh"),
              ("http_server", "nginx"), ("http_server", "lighttpd"),
              ("ssh_banner", "OpenSSH_8.2"))
#: Two /16s, a handful of hosts each: co-located hosts share network values.
_IPS = tuple(base + offset for base in (0x0A000000, 0x0A010000)
             for offset in (1, 2, 3)) + (0, 2 ** 32 - 1)
_ASN_DB = AsnDatabase([AsnRecord(base=0x0A000000, prefix_len=16, asn=64512),
                       AsnRecord(base=0x0A010000, prefix_len=16, asn=64513)])


def _candidate_predictors():
    """Every predictor tuple an observation over the pools can derive."""
    nets = sorted({value for ip in _IPS
                   for value in network_feature_values(
                       ip, _ASN_DB, FeatureConfig().network_feature_kinds)})
    out = []
    for port in _PORTS:
        out.append(("P", port))
        out.extend(("PA", port) + item for item in _APP_ITEMS)
        out.extend(("PN", port) + net for net in nets)
        out.extend(("PAN", port) + item + net
                   for item in _APP_ITEMS for net in nets)
    return out


_PREDICTORS = _candidate_predictors()


@st.composite
def _banners(draw):
    """A banner: one value per key, in a drawn dict order."""
    items = draw(st.lists(st.sampled_from(_APP_ITEMS), max_size=4,
                          unique_by=lambda item: item[0]))
    return dict(draw(st.permutations(items)))


_observations = st.lists(
    st.builds(lambda ip, port, banner: ScanObservation(
        ip=ip, port=port, protocol=banner.get("protocol", "http"),
        app_features=banner),
        st.sampled_from(_IPS), st.sampled_from(_PORTS), _banners()),
    max_size=24)
_index_entries = st.lists(
    st.builds(predictions_module.PredictiveFeature,
              st.sampled_from(_PREDICTORS), st.sampled_from(_PORTS),
              st.sampled_from((0.25, 0.5, 0.75, 1.0))),
    max_size=80)
_known = st.sets(st.tuples(st.sampled_from(_IPS), st.sampled_from(_PORTS)),
                 max_size=8)


def _reference_predict(index, observations, asn_db, config, known_pairs):
    """The per-observation loop predict's run memo must reproduce."""
    known = known_pairs or set()
    best = {}
    for obs in observations:
        net_values = network_feature_values(obs.ip, asn_db,
                                            config.network_feature_kinds)
        for predictor in predictor_tuples_for_observation(obs, net_values,
                                                          config):
            for port, probability in index.targets_for(predictor).items():
                pair = (obs.ip, port)
                if port == obs.port or pair in known:
                    continue
                if pair not in best or probability > best[pair].probability:
                    best[pair] = PredictedService(obs.ip, port, probability,
                                                  predictor)
    return sorted(best.values(), key=lambda p: (-p.probability, p.ip, p.port))


class TestPredictRunMemo:
    """``predict`` derives one run per (port, banner, network values) and
    must still equal the plain per-observation loop: equal banners on
    co-located hosts and across ports, reordered banner dicts, targets equal
    to the observation's own port, known pairs and probability ties."""

    @settings(max_examples=150, deadline=None)
    @given(entries=_index_entries, observations=_observations, known=_known,
           use_asn=st.booleans())
    def test_matches_reference_loop(self, entries, observations, known,
                                    use_asn):
        index = PredictiveFeatureIndex(entries)
        asn_db = _ASN_DB if use_asn else None
        config = FeatureConfig()
        assert index.predict(observations, asn_db, config, known_pairs=known) \
            == _reference_predict(index, observations, asn_db, config, known)

    @settings(max_examples=60, deadline=None)
    @given(entries=_index_entries, observations=_observations,
           first=_known, second=_known)
    def test_back_to_back_calls_share_no_memo_state(self, entries,
                                                    observations, first,
                                                    second):
        index = PredictiveFeatureIndex(entries)
        config = FeatureConfig()
        calls = [(None, first), (_ASN_DB, second), (None, second),
                 (_ASN_DB, first)]
        for asn_db, known in calls:
            assert index.predict(observations, asn_db, config,
                                 known_pairs=known) == \
                _reference_predict(index, observations, asn_db, config, known)

    @pytest.mark.parametrize("config", [
        FeatureConfig().transport_only(),
        FeatureConfig(include_transport_only=False, include_network=False,
                      include_app_network=False),
        FeatureConfig(include_transport_only=False, include_app=False,
                      include_app_network=False),
        FeatureConfig(include_transport_only=False, include_app=False,
                      include_network=False),
        FeatureConfig(app_feature_keys=("http_server",),
                      network_feature_kinds=("asn",)),
    ], ids=["transport_only", "app_only", "network_only", "app_network_only",
            "narrow_keys_and_kinds"])
    @settings(max_examples=60, deadline=None)
    @given(entries=_index_entries, observations=_observations, known=_known)
    def test_matches_reference_loop_across_feature_configs(
            self, config, entries, observations, known):
        # The index vocabulary holds every family and kind; predict must
        # derive (and prune) only what the call's config asks for.
        index = PredictiveFeatureIndex(entries)
        assert index.predict(observations, _ASN_DB, config, known_pairs=known) \
            == _reference_predict(index, observations, _ASN_DB, config, known)

    @settings(max_examples=60, deadline=None)
    @given(entries=_index_entries, observations=_observations)
    def test_columnar_rows_predict_like_object_rows(self, entries,
                                                    observations):
        # Rows materialized from a batch carry interned read-only banner
        # views, not the caller's dicts: the run memo keys on content.
        index = PredictiveFeatureIndex(entries)
        rows = ObservationBatch.from_observations(observations).materialize()
        config = FeatureConfig()
        assert index.predict(rows, _ASN_DB, config) == \
            index.predict(observations, _ASN_DB, config)

    @settings(max_examples=100, deadline=None)
    @given(entries=_index_entries, observations=_observations, known=_known,
           local=st.lists(st.booleans(), min_size=24, max_size=24),
           cut=st.integers(0, 24))
    def test_batch_columns_predict_like_their_rows(self, entries, observations,
                                                   known, local, cut):
        # The scan phase's shape: two sweeps' batches, some banners
        # batch-local, accumulated into one batch by extend.
        index = PredictiveFeatureIndex(entries)
        run = ObservationBatch(banners=BannerInterner())
        sweeps = [ObservationBatch(banners=run.banners, statuses=run.statuses)
                  for _ in range(2)]
        for position, obs in enumerate(observations):
            sweep = sweeps[position >= cut]
            banner_id = (sweep.add_local_banner(dict(obs.app_features))
                         if local[position]
                         else sweep.banners.intern(obs.app_features))
            sweep.append(obs.ip, obs.port, sweep.status_id(obs.protocol),
                         banner_id, obs.ttl)
        for sweep in sweeps:
            run.extend(sweep)
        config = FeatureConfig()
        expected = _reference_predict(index, observations, _ASN_DB, config,
                                      known)
        assert list(run) == observations
        assert index.predict(run, _ASN_DB, config, known_pairs=known) == expected
        assert index.predict(list(run), _ASN_DB, config,
                             known_pairs=known) == expected

    def test_equal_banners_in_other_networks_get_their_own_run(self):
        """The run memo keys on network values too: one banner on one port,
        served from two /16s, joins different network predictors."""
        index = PredictiveFeatureIndex([
            predictions_module.PredictiveFeature(
                ("PN", 80, "asn", 64513), 8080, 0.5),
            predictions_module.PredictiveFeature(
                ("PAN", 80, "protocol", "http", "asn", 64512), 443, 0.7),
        ])
        banner = {"protocol": "http"}
        observations = [ScanObservation(0x0A000001, 80, "http", banner),
                        ScanObservation(0x0A010001, 80, "http", banner)]
        for ordered in (observations, observations[::-1]):
            predicted = index.predict(ordered, _ASN_DB, FeatureConfig())
            assert [(p.ip, p.port, p.probability) for p in predicted] == [
                (0x0A000001, 443, 0.7), (0x0A010001, 8080, 0.5)]

    def test_unindexed_port_predicts_nothing(self):
        index = PredictiveFeatureIndex([
            predictions_module.PredictiveFeature(("P", 80), 443, 0.9),
            predictions_module.PredictiveFeature(
                ("PN", 80, "asn", 64512), 8080, 0.7),
        ])
        banner = {"protocol": "ssh", "ssh_banner": "OpenSSH_8.2"}
        observations = [ScanObservation(ip, 22, "ssh", banner) for ip in _IPS]
        assert index.predict(observations, _ASN_DB, FeatureConfig()) == []
        predicted = index.predict(
            [ScanObservation(_IPS[0], 80, "http", {"protocol": "http"})],
            _ASN_DB, FeatureConfig())
        assert [(p.port, p.probability) for p in predicted] == [
            (443, 0.9), (8080, 0.7)]

    def test_probability_tie_keeps_first_candidate(self):
        """Within a run and across observations, the first candidate wins."""
        index = PredictiveFeatureIndex([
            predictions_module.PredictiveFeature(("P", 80), 8080, 0.5),
            predictions_module.PredictiveFeature(
                ("PA", 80, "protocol", "http"), 8080, 0.5),
            predictions_module.PredictiveFeature(("P", 22), 8080, 0.5),
        ])
        banner = {"protocol": "http"}
        observations = [ScanObservation(0x0A000001, 80, "http", banner),
                        ScanObservation(0x0A000001, 22, "http", banner)]
        for ordered in (observations, observations[::-1]):
            (predicted,) = index.predict(ordered, None, FeatureConfig())
            assert predicted.predictor == ("P", ordered[0].port)

    def test_equal_banners_reordered_share_one_answer(self):
        """Same content in a different key order, on co-located hosts."""
        index = PredictiveFeatureIndex([
            predictions_module.PredictiveFeature(
                ("PA", 80, "http_server", "nginx"), 8080, 0.5),
            predictions_module.PredictiveFeature(("P", 80), 80, 1.0),
        ])
        forward = {"protocol": "http", "http_server": "nginx"}
        backward = {"http_server": "nginx", "protocol": "http"}
        observations = [ScanObservation(0x0A000001, 80, "http", forward),
                        ScanObservation(0x0A000002, 80, "http", backward)]
        predicted = index.predict(observations, None, FeatureConfig())
        assert [(p.ip, p.port, p.probability) for p in predicted] == [
            (0x0A000001, 8080, 0.5), (0x0A000002, 8080, 0.5)]

    def test_known_pair_reached_low_then_high_never_surfaces(self):
        """A known pair first met by a low-probability candidate and later by
        a higher one, on two observations of one ip, stays suppressed."""
        ip = 0x0A000001
        index = PredictiveFeatureIndex([
            predictions_module.PredictiveFeature(("P", 80), 8080, 0.25),
            predictions_module.PredictiveFeature(("P", 22), 8080, 0.75),
            predictions_module.PredictiveFeature(("P", 22), 443, 0.5),
        ])
        observations = [ScanObservation(ip, 80, "http", {"protocol": "http"}),
                        ScanObservation(ip, 22, "ssh", {"protocol": "ssh"})]
        known = {(ip, 8080)}
        predicted = index.predict(observations, None, FeatureConfig(),
                                  known_pairs=known)
        assert [(p.ip, p.port, p.probability) for p in predicted] == [
            (ip, 443, 0.5)]
        assert predicted == _reference_predict(index, observations, None,
                                               FeatureConfig(), known)

    def test_banners_differing_outside_the_vocabulary_share_a_run(
            self, monkeypatch):
        """Banner items no indexed predictor carries never split a run."""
        index = PredictiveFeatureIndex([
            predictions_module.PredictiveFeature(
                ("PA", 80, "protocol", "http"), 443, 0.5),
            predictions_module.PredictiveFeature(
                ("PAN", 80, "http_server", "nginx", "asn", 64512), 8080, 0.75),
        ])
        observations = [
            ScanObservation(0x0A000001, 80, "http",
                            {"protocol": "http", "http_server": "lighttpd",
                             "http_html_title": "A"}),
            ScanObservation(0x0A000002, 80, "http",
                            {"http_html_title": "B", "protocol": "http",
                             "http_server": "apache"}),
        ]
        derived = []
        run = PredictiveFeatureIndex._run

        def counting_run(self, *args):
            derived.append(args)
            return run(self, *args)

        monkeypatch.setattr(PredictiveFeatureIndex, "_run", counting_run)
        predicted = index.predict(observations, _ASN_DB, FeatureConfig())
        assert len(derived) == 1
        assert [(p.ip, p.port, p.probability) for p in predicted] == [
            (0x0A000001, 443, 0.5), (0x0A000002, 443, 0.5)]
        assert predicted == _reference_predict(index, observations, _ASN_DB,
                                               FeatureConfig(), None)


class TestPredictPairKeys:
    """``predict`` packs (ip, target port) into one int and only reads
    ``known_pairs``."""

    @pytest.mark.parametrize("port", [-1, 65536])
    def test_target_port_outside_16_bits_is_rejected(self, port):
        with pytest.raises(ValueError, match="outside 0-65535"):
            PredictiveFeatureIndex([
                predictions_module.PredictiveFeature(("P", 80), port, 0.5)])

    def test_edge_target_ports_are_accepted(self):
        index = PredictiveFeatureIndex([
            predictions_module.PredictiveFeature(("P", 80), 0, 0.5),
            predictions_module.PredictiveFeature(("P", 80), 65535, 0.5),
        ])
        observations = [ScanObservation(ip, 80, "http", {"protocol": "http"})
                        for ip in (2 ** 32 - 1, 0)]
        assert [p.pair() for p in index.predict(
            observations, None, FeatureConfig())] == [
            (0, 0), (0, 65535), (2 ** 32 - 1, 0), (2 ** 32 - 1, 65535)]

    def test_frozenset_known_pairs_match_set_and_are_not_mutated(self):
        index = PredictiveFeatureIndex([
            predictions_module.PredictiveFeature(("P", 80), 443, 0.5),
            predictions_module.PredictiveFeature(("P", 80), 8080, 0.75),
        ])
        observations = [ScanObservation(ip, 80, "http", {"protocol": "http"})
                        for ip in _IPS]
        known = {(_IPS[0], 443), (_IPS[1], 8080), (_IPS[2], 22)}
        snapshot = set(known)
        as_set = index.predict(observations, None, FeatureConfig(),
                               known_pairs=known)
        as_frozenset = index.predict(observations, None, FeatureConfig(),
                                     known_pairs=frozenset(known))
        assert as_set == as_frozenset
        assert known == snapshot
        assert not {p.pair() for p in as_set} & known

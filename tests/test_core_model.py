"""Unit and property tests for the co-occurrence model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import FeatureConfig
from repro.core.features import HostFeatures, extract_host_features
from repro.core.model import CooccurrenceModel, build_model, build_model_with_engine
from repro.engine.columns import numpy_available
from repro.scanner.records import ScanObservation

from engine_helpers import resident_groups

#: Column backends the engine model fold is checked under.
BACKENDS = ["stdlib", pytest.param("numpy", marks=pytest.mark.skipif(
    not numpy_available(), reason="numpy column backend not installed"))]


def _obs(ip: int, port: int, protocol: str = "http", **features) -> ScanObservation:
    app = {"protocol": protocol}
    app.update(features)
    return ScanObservation(ip=ip, port=port, protocol=protocol, app_features=app)


def _hosts(observations, config=None):
    return extract_host_features(observations, None, config or FeatureConfig())


class TestBuildModel:
    def test_simple_cooccurrence_probability(self):
        # Two hosts with {80, 443}, one host with only {80}.
        observations = [_obs(1, 80), _obs(1, 443), _obs(2, 80), _obs(2, 443), _obs(3, 80)]
        model = build_model(_hosts(observations))
        assert model.probability(("P", 80), 443) == pytest.approx(2 / 3)
        assert model.probability(("P", 443), 80) == pytest.approx(1.0)

    def test_unknown_predictor_is_zero(self):
        model = build_model(_hosts([_obs(1, 80)]))
        assert model.probability(("P", 9999), 80) == 0.0
        assert model.targets_for(("P", 9999)) == {}

    def test_single_service_hosts_only_contribute_denominators(self):
        model = build_model(_hosts([_obs(1, 80), _obs(2, 80)]))
        assert model.denominators[("P", 80)] == 2
        assert model.targets_for(("P", 80)) == {}

    def test_application_feature_conditioning(self):
        observations = [
            _obs(1, 80, http_server="camera-httpd"), _obs(1, 554, protocol="rtsp"),
            _obs(2, 80, http_server="nginx"), _obs(2, 22, protocol="ssh"),
            _obs(3, 80, http_server="camera-httpd"), _obs(3, 554, protocol="rtsp"),
        ]
        model = build_model(_hosts(observations))
        camera_predictor = ("PA", 80, "http_server", "camera-httpd")
        nginx_predictor = ("PA", 80, "http_server", "nginx")
        assert model.probability(camera_predictor, 554) == pytest.approx(1.0)
        assert model.probability(camera_predictor, 22) == 0.0
        assert model.probability(nginx_predictor, 22) == pytest.approx(1.0)
        # The bare port predictor is diluted across both device kinds.
        assert model.probability(("P", 80), 554) == pytest.approx(2 / 3)

    def test_best_predictor_prefers_highest_probability(self):
        observations = [
            _obs(1, 80, http_server="camera-httpd"), _obs(1, 554, protocol="rtsp"),
            _obs(2, 80, http_server="nginx"), _obs(2, 22, protocol="ssh"),
            _obs(3, 80, http_server="camera-httpd"), _obs(3, 554, protocol="rtsp"),
        ]
        hosts = _hosts(observations)
        model = build_model(hosts)
        candidates = hosts[1].ports[80]
        predictor, probability = model.best_predictor(candidates, 554)
        assert probability == pytest.approx(1.0)
        assert predictor[0] in ("PA",)  # the camera-specific banner wins over ("P", 80)

    def test_best_predictor_empty_candidates(self):
        model = CooccurrenceModel()
        assert model.best_predictor([], 80) == (None, 0.0)

    def test_known_target_ports(self):
        observations = [_obs(1, 80), _obs(1, 443), _obs(2, 22), _obs(2, 8080)]
        model = build_model(_hosts(observations))
        assert model.known_target_ports() == [22, 80, 443, 8080]

    def test_predictor_count_grows_with_features(self):
        sparse = build_model(_hosts([_obs(1, 80), _obs(1, 443)],
                                    FeatureConfig().transport_only()))
        rich = build_model(_hosts([_obs(1, 80), _obs(1, 443)]))
        assert rich.predictor_count() > sparse.predictor_count()


def _resident_model(hosts, column_backend="stdlib", **runtime):
    with resident_groups(hosts, **runtime) as dataset:
        return build_model_with_engine(dataset, column_backend)


class TestEngineEquivalence:
    def _assert_models_equal(self, a: CooccurrenceModel, b: CooccurrenceModel):
        assert a.denominators == b.denominators
        assert {k: dict(v) for k, v in a.cooccurrence.items() if v} == \
            {k: dict(v) for k, v in b.cooccurrence.items() if v}

    @pytest.mark.parametrize("column_backend", BACKENDS)
    def test_engine_matches_reference_on_handcrafted_hosts(self, column_backend):
        observations = [
            _obs(1, 80, http_server="a"), _obs(1, 443), _obs(1, 22),
            _obs(2, 80, http_server="b"), _obs(2, 8080),
            _obs(3, 22),
        ]
        hosts = _hosts(observations)
        self._assert_models_equal(build_model(hosts),
                                  _resident_model(hosts, column_backend))

    @pytest.mark.parametrize("column_backend", BACKENDS)
    @pytest.mark.parametrize("config", [
        dict(executor="serial", num_workers=1, shard_count=4),
        dict(executor="thread", num_workers=4, shard_count=4),
    ])
    def test_engine_matches_reference_with_parallel_workers(self, config,
                                                            column_backend):
        observations = [
            _obs(ip, port)
            for ip in range(1, 30)
            for port in ((80, 443) if ip % 2 else (22, 80, 8080))
        ]
        hosts = _hosts(observations)
        parallel = _resident_model(hosts, column_backend, **config)
        self._assert_models_equal(build_model(hosts), parallel)

    @pytest.mark.parametrize("column_backend", BACKENDS)
    def test_engine_matches_reference_on_pool_backend(self, column_backend):
        observations = [
            _obs(ip, port, http_server="srv%d" % (ip % 3))
            for ip in range(1, 25)
            for port in ((80, 443) if ip % 2 else (22, 80, 8080))
        ]
        hosts = _hosts(observations)
        parallel = _resident_model(hosts, column_backend, executor="pool",
                                 num_workers=2)
        self._assert_models_equal(build_model(hosts), parallel)

    def test_engine_matches_reference_on_universe_seed(self, universe, censys_split):
        hosts = extract_host_features(censys_split.seed_observations,
                                      universe.topology.asn_db, FeatureConfig())
        self._assert_models_equal(build_model(hosts), _resident_model(hosts))

    def test_hosts_without_services_contribute_nothing(self):
        hosts = _hosts([_obs(1, 80)])
        hosts[2] = HostFeatures(ip=2)
        self._assert_models_equal(build_model(hosts), _resident_model(hosts))
        self._assert_models_equal(build_model({}), _resident_model({}))


ports_strategy = st.lists(
    st.lists(st.sampled_from([22, 80, 443, 8080, 2323]), min_size=1, max_size=4,
             unique=True),
    min_size=1, max_size=25,
)


class TestProperties:
    @settings(deadline=None, max_examples=40)
    @given(ports_strategy)
    def test_probabilities_within_unit_interval(self, host_ports):
        observations = [
            _obs(ip + 1, port) for ip, ports in enumerate(host_ports) for port in ports
        ]
        model = build_model(_hosts(observations, FeatureConfig().transport_only()))
        for predictor, targets in model.cooccurrence.items():
            for port in targets:
                assert 0.0 <= model.probability(predictor, port) <= 1.0

    @settings(deadline=None, max_examples=40)
    @given(ports_strategy, st.booleans(),
           st.sampled_from([("serial", 1), ("serial", 3), ("thread", 4)]))
    def test_engine_and_reference_agree(self, host_ports, full_features,
                                        executor_shards):
        # The full feature set (nested predictor tuples) exercises dictionary
        # encoding and the packed fold; shard counts vary the partitioning.
        executor, shard_count = executor_shards
        observations = [
            _obs(ip + 1, port, http_server="srv%d" % (ip % 2))
            for ip, ports in enumerate(host_ports) for port in ports
        ]
        hosts = _hosts(observations, None if full_features
                       else FeatureConfig().transport_only())
        reference = build_model(hosts)
        engine = _resident_model(hosts, executor=executor,
                               num_workers=2 if executor == "thread" else 1,
                               shard_count=shard_count)
        assert reference.denominators == engine.denominators
        assert {k: v for k, v in engine.cooccurrence.items() if v} == \
            {k: v for k, v in reference.cooccurrence.items() if v}

    @settings(deadline=None, max_examples=40)
    @given(ports_strategy)
    def test_denominator_equals_host_occurrences(self, host_ports):
        observations = [
            _obs(ip + 1, port) for ip, ports in enumerate(host_ports) for port in ports
        ]
        model = build_model(_hosts(observations, FeatureConfig().transport_only()))
        for predictor, denominator in model.denominators.items():
            port = predictor[1]
            expected = sum(1 for ports in host_ports if port in ports)
            assert denominator == expected

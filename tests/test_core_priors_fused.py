"""Equivalence tests for the engine-backed priors planner.

The load-bearing property: :func:`repro.core.priors.build_priors_plan_with_engine`
produces exactly the ordered :class:`~repro.core.priors.PriorsEntry` list of
the dict oracle :func:`~repro.core.priors.build_priors_plan` (called
"legacy" in the test names) -- on handcrafted hosts, on randomized
observation sets (hypothesis), for every step size / port domain, and across
the runtime executors and shard counts.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import FeatureConfig
from repro.core.features import HostFeatures, extract_host_features
from repro.core.model import CooccurrenceModel, build_model
from repro.core.priors import build_priors_plan, build_priors_plan_with_engine
from repro.engine.columns import IntColumn
from repro.engine.shard import shard_group_columns
from repro.net.ipv4 import parse_ip, subnet_key
from repro.scanner.records import ScanObservation

from engine_helpers import host_feature_columns, resident_groups


def _obs(ip: int, port: int, protocol: str = "http", **features) -> ScanObservation:
    app = {"protocol": protocol}
    app.update(features)
    return ScanObservation(ip=ip, port=port, protocol=protocol, app_features=app)


def _model_and_hosts(observations):
    hosts = extract_host_features(observations, None, FeatureConfig())
    return build_model(hosts), hosts


def _engine_plan(hosts, model, step_size, port_domain=None, **runtime):
    with resident_groups(hosts, step_size, **runtime) as dataset:
        return build_priors_plan_with_engine(dataset, model, step_size,
                                             port_domain)


@pytest.fixture()
def camera_fleet():
    """Multi-service camera subnets plus single- and three-service hosts."""
    observations = []
    for subnet_index in range(3):
        base = parse_ip(f"10.{subnet_index}.0.0")
        for host_index in range(4):
            ip = base + host_index + 1
            observations.append(_obs(ip, 554, protocol="rtsp"))
            observations.append(_obs(ip, 37777, http_server="camera-httpd"))
            if host_index % 2:
                observations.append(_obs(ip, 80, http_server="camera-httpd"))
    observations.append(_obs(parse_ip("10.9.0.1"), 80))
    observations.append(_obs(parse_ip("10.9.0.2"), 80))
    return observations


class TestFusedPriorsEquivalence:
    @pytest.mark.parametrize("step_size", [0, 8, 16, 24, 32])
    def test_matches_legacy_across_step_sizes(self, camera_fleet, step_size):
        model, hosts = _model_and_hosts(camera_fleet)
        expected = build_priors_plan(hosts, model, step_size)
        assert _engine_plan(hosts, model, step_size) == expected

    @pytest.mark.parametrize("port_domain", [None, (80,), (554, 37777), (9999,)])
    def test_matches_legacy_with_port_domain(self, camera_fleet, port_domain):
        model, hosts = _model_and_hosts(camera_fleet)
        expected = build_priors_plan(hosts, model, 16, port_domain)
        assert _engine_plan(hosts, model, 16, port_domain) == expected

    @pytest.mark.parametrize("backend,workers", [
        ("serial", 1), ("thread", 2), ("thread", 5), ("pool", 2),
    ])
    def test_matches_legacy_across_backends(self, camera_fleet, backend, workers):
        model, hosts = _model_and_hosts(camera_fleet)
        expected = build_priors_plan(hosts, model, 16)
        assert _engine_plan(hosts, model, 16, executor=backend,
                            num_workers=workers) == expected

    def test_invalid_step_size_rejected(self, camera_fleet):
        model, hosts = _model_and_hosts(camera_fleet)
        with pytest.raises(ValueError):
            _engine_plan(hosts, model, 40)
        with resident_groups(hosts, 16) as dataset:
            with pytest.raises(ValueError):
                build_priors_plan_with_engine(dataset, model, 20)

    def test_empty_hosts(self):
        assert _engine_plan({}, CooccurrenceModel(), 16) == []

    def test_host_without_services_contributes_nothing(self):
        hosts = {1: HostFeatures(ip=1)}
        assert _engine_plan(hosts, CooccurrenceModel(), 16) == []

    def test_foreign_model_with_unknown_predictors(self, camera_fleet):
        # A model trained on different observations: most predictors miss,
        # exercising the zero-support path on both implementations.
        model, _ = _model_and_hosts([_obs(500, 22, protocol="ssh"),
                                     _obs(500, 2222, protocol="ssh"),
                                     _obs(501, 22, protocol="ssh")])
        _, hosts = _model_and_hosts(camera_fleet)
        expected = build_priors_plan(hosts, model, 16)
        assert _engine_plan(hosts, model, 16) == expected


class TestCompiledPlan:
    def test_plan_is_picklable_plain_data(self, camera_fleet):
        # The pool runtime ships each resident shard to its worker pickled:
        # the payload is plain int columns and survives the round trip.
        _, hosts = _model_and_hosts(camera_fleet)
        columns = host_feature_columns(hosts)
        sharded = shard_group_columns(
            columns.ips, [subnet_key(ip, 16) for ip in columns.ips],
            columns.member_starts, columns.ports, columns.value_starts,
            columns.value_ids, 3)
        clone = pickle.loads(pickle.dumps(sharded.shards))
        assert clone == sharded.shards
        for shard in clone:
            assert all(isinstance(column, IntColumn) for column in shard.values())
        assert sum(len(shard["group_order"]) for shard in clone) == len(hosts)

    def test_chunked_execution_is_chunking_invariant(self, camera_fleet):
        model, hosts = _model_and_hosts(camera_fleet)
        expected = build_priors_plan(hosts, model, 16)
        for shards in (1, 2, 3, 7, 50):
            assert _engine_plan(hosts, model, 16, executor="thread",
                                num_workers=2, shard_count=shards) == expected


# Random observation sets: a few hosts, a few ports, shared banner values so
# predictors overlap across hosts (the regime where partner selection has
# real ties to break deterministically).
observation_sets = st.lists(
    st.tuples(st.integers(0, 9),                      # host index
              st.sampled_from([22, 80, 443, 554, 8080]),
              st.sampled_from(["http", "ssh", "rtsp"]),
              st.sampled_from(["srv-a", "srv-b", ""])),
    min_size=1, max_size=60,
)


class TestRandomizedEquivalence:
    @settings(deadline=None, max_examples=60)
    @given(observation_sets, st.sampled_from([0, 12, 16, 24, 32]),
           st.sampled_from([None, (80, 443), (22, 554, 8080)]))
    def test_fused_equals_legacy(self, rows, step_size, port_domain):
        observations = []
        seen = set()
        for host_index, port, protocol, server in rows:
            if (host_index, port) in seen:
                continue
            seen.add((host_index, port))
            # Spread hosts over several /16s with some sharing a subnet.
            ip = parse_ip("10.0.0.0") + host_index * 40000
            features = {"http_server": server} if server else {}
            observations.append(_obs(ip, port, protocol=protocol, **features))
        model, hosts = _model_and_hosts(observations)
        expected = build_priors_plan(hosts, model, step_size, port_domain)
        assert _engine_plan(hosts, model, step_size, port_domain) == expected

    @settings(deadline=None, max_examples=20)
    @given(observation_sets, st.integers(1, 6),
           st.sampled_from(["serial", "thread"]))
    def test_parallel_fused_equals_legacy(self, rows, shards, backend):
        observations = []
        seen = set()
        for host_index, port, protocol, server in rows:
            if (host_index, port) in seen:
                continue
            seen.add((host_index, port))
            ip = parse_ip("10.0.0.0") + host_index * 7 + 1
            features = {"http_server": server} if server else {}
            observations.append(_obs(ip, port, protocol=protocol, **features))
        model, hosts = _model_and_hosts(observations)
        expected = build_priors_plan(hosts, model, 16)
        assert _engine_plan(hosts, model, 16, executor=backend,
                            num_workers=2 if backend == "thread" else 1,
                            shard_count=shards) == expected

"""Tests for the CLI and the known-host prediction mode (paper Section 7)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.core.config import GPSConfig
from repro.core.gps import GPS
from repro.datasets.split import seed_scan_cost_probes
from repro.scanner.pipeline import ScanPipeline
from repro.telemetry import Telemetry


class TestKnownHostPrediction:
    @pytest.fixture()
    def gps(self, universe, censys_dataset):
        pipeline = ScanPipeline(universe)
        return GPS(pipeline, GPSConfig(seed_fraction=0.05, step_size=16,
                                       port_domain=censys_dataset.port_domain))

    def test_predicts_remaining_services_of_known_hosts(self, gps, universe,
                                                        censys_split):
        # Known hosts: test-half hosts, each revealed through one service.
        by_host = {}
        for obs in censys_split.test_observations:
            by_host.setdefault(obs.ip, obs)
        known = list(by_host.values())[:150]

        result = gps.predict_for_known_hosts(censys_split.seed_scan_result(), known)
        assert result.predictions
        # Predictions target only the supplied hosts.
        known_ips = {obs.ip for obs in known}
        assert all(prediction.ip in known_ips for prediction in result.predictions)
        # The scan confirms a substantial share of them.
        confirmed = {obs.pair() for obs in result.prediction_observations}
        truth = set(universe.real_service_pairs())
        assert confirmed
        assert len(confirmed & truth) >= 0.5 * len(confirmed)

    def test_no_priors_bandwidth_spent(self, universe, censys_dataset, censys_split):
        from repro.scanner.bandwidth import ScanCategory
        pipeline = ScanPipeline(universe)
        gps = GPS(pipeline, GPSConfig(seed_fraction=0.05, step_size=16,
                                      port_domain=censys_dataset.port_domain))
        known = censys_split.test_observations[:50]
        gps.predict_for_known_hosts(censys_split.seed_scan_result(), known)
        assert pipeline.ledger.total_probes(ScanCategory.PRIORS) == 0
        assert pipeline.ledger.total_probes(ScanCategory.PREDICTION) > 0

    def test_plan_only_mode_sends_no_probes(self, universe, censys_dataset,
                                            censys_split):
        pipeline = ScanPipeline(universe)
        gps = GPS(pipeline, GPSConfig(seed_fraction=0.05, step_size=16,
                                      port_domain=censys_dataset.port_domain))
        known = censys_split.test_observations[:50]
        result = gps.predict_for_known_hosts(censys_split.seed_scan_result(), known,
                                             scan=False)
        assert result.predictions
        assert not result.prediction_observations
        assert pipeline.ledger.total_probes() == 0

    def test_known_pairs_not_repredicted(self, gps, censys_split):
        known = censys_split.test_observations[:50]
        result = gps.predict_for_known_hosts(censys_split.seed_scan_result(), known)
        known_pairs = {obs.pair() for obs in known}
        assert not (known_pairs & {p.pair() for p in result.predictions})

    @pytest.mark.parametrize("mode", ["run", "known_hosts"])
    def test_prediction_scan_span_in_both_modes(self, universe, censys_dataset,
                                                censys_split, mode):
        telemetry = Telemetry()
        gps = GPS(ScanPipeline(universe),
                  GPSConfig(seed_fraction=0.05, step_size=16,
                            port_domain=censys_dataset.port_domain),
                  telemetry=telemetry)
        seed = censys_split.seed_scan_result()
        if mode == "run":
            result = gps.run(seed=seed, seed_cost_probes=seed_scan_cost_probes(
                censys_dataset, 0.05))
        else:
            by_host = {}
            for obs in censys_split.test_observations:
                by_host.setdefault(obs.ip, obs)
            result = gps.predict_for_known_hosts(
                seed, list(by_host.values())[:150])
        spans = [event for event in telemetry.tracer.flat_events()
                 if event["name"] == "prediction.scan"]
        assert len(spans) == 1
        attrs = spans[0]["attrs"]
        assert attrs["batches"] > 0
        assert attrs["observations"] == len(result.prediction_observations) > 0

    @staticmethod
    def _known_hosts(censys_split, count=150):
        by_host = {}
        for obs in censys_split.test_observations:
            by_host.setdefault(obs.ip, obs)
        return list(by_host.values())[:count]

    def test_prediction_scan_probes_every_slice(self, universe, censys_dataset,
                                                censys_split):
        telemetry = Telemetry()
        gps = GPS(ScanPipeline(universe),
                  GPSConfig(seed_fraction=0.05, step_size=16,
                            port_domain=censys_dataset.port_domain,
                            prediction_batch_size=25),
                  telemetry=telemetry)
        result = gps.predict_for_known_hosts(censys_split.seed_scan_result(),
                                             self._known_hosts(censys_split))
        slices = -(-len(result.predictions) // 25)
        assert slices > 1
        assert not result.truncated_by_budget
        (span,) = [event for event in telemetry.tracer.flat_events()
                   if event["name"] == "prediction.scan"]
        assert span["attrs"]["batches"] == slices
        assert [batch.phase for batch in result.discovery_log].count(
            "prediction") == slices
        predicted = {p.pair() for p in result.predictions}
        assert {o.pair() for o in result.prediction_observations} <= predicted

    def test_prediction_scan_stops_at_the_budget(self, universe, censys_dataset,
                                                 censys_split):
        # A one-probe budget: the first slice goes out, the check before the
        # second one stops the scan.
        pipeline = ScanPipeline(universe)
        gps = GPS(pipeline, GPSConfig(
            seed_fraction=0.05, step_size=16,
            port_domain=censys_dataset.port_domain, prediction_batch_size=25,
            max_full_scans=1.5 / universe.address_space_size()))
        result = gps.predict_for_known_hosts(censys_split.seed_scan_result(),
                                             self._known_hosts(censys_split))
        assert len(result.predictions) > 25
        assert result.truncated_by_budget
        assert [batch.phase for batch in result.discovery_log].count(
            "prediction") == 1
        first_slice = {p.pair() for p in result.predictions[:25]}
        assert {o.pair() for o in result.prediction_observations} <= first_slice


class TestCLI:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parser_rejects_unknown_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["quickstart", "--scale", "galactic"])

    def test_quickstart_command(self, capsys):
        exit_code = main(["quickstart", "--scale", "small", "--seed", "3",
                          "--seed-fraction", "0.05"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "fraction of services found" in output
        assert "bandwidth (100% scans)" in output

    def test_coverage_command_censys(self, capsys):
        exit_code = main(["coverage", "--scale", "small", "--seed", "3",
                          "--dataset", "censys"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "savings vs optimal order" in output
        assert "final fraction of services" in output

    def test_coverage_command_lzr(self, capsys):
        exit_code = main(["coverage", "--scale", "small", "--seed", "3",
                          "--dataset", "lzr"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "lzr" in output

    def test_compare_xgboost_command(self, capsys):
        exit_code = main(["compare-xgboost", "--scale", "small", "--seed", "3",
                          "--ports", "4"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "average prior-bandwidth ratio" in output

    def test_churn_command(self, capsys):
        exit_code = main(["churn", "--scale", "small", "--seed", "3", "--days", "10"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "services that disappeared" in output

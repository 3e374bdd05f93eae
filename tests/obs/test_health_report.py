"""The unified health report: assembly, rendering, CLI integration."""

import json

import pytest

from repro import nn
from repro.core import AGNN, AGNNConfig
from repro import telemetry
from repro.telemetry import events
from repro.telemetry import report as telemetry_report
from repro.telemetry.report import build_report, render_report
from repro.train import TrainConfig

pytestmark = pytest.mark.obs

OBS_CONFIG = AGNNConfig(embedding_dim=6, num_neighbors=3, pool_percent=15.0)
OBS_TRAIN = TrainConfig(epochs=2, batch_size=64, patience=None)


@pytest.fixture()
def fit_events(ics_task):
    """Events + snapshot from a real monitored fit."""
    nn.init.seed(0)
    model = AGNN(OBS_CONFIG, rng_seed=0)
    with telemetry.at_level(telemetry.FULL):
        model.fit(ics_task, OBS_TRAIN)
    return events.get_event_log().events(), telemetry_report.snapshot(note="test")


class TestBuildReport:
    def test_stitches_manifest_history_and_monitors(self, fit_events, tmp_path):
        evts, snapshot = fit_events
        report = build_report(evts, snapshot=snapshot, bench_dir=tmp_path)
        assert report["healthy"]
        (manifest,) = report["runs"]
        assert manifest["model"] == "AGNN"
        assert manifest["run_id"].startswith("run-")
        assert manifest["dataset"]["scenario"] == "item_cold"
        assert report["history"]["total"]  # loss curve recovered from fit_end
        assert report["events"]["epochs"] == OBS_TRAIN.epochs
        assert {"grad_norm", "gate_saturation", "kl_collapse", "nan_watchdog"} <= set(
            report["monitors"]
        )
        # training throughput recovered from the fit/epoch/batch span
        assert report["observed"]["batches_per_sec"] > 0

    def test_missing_bench_files_reported_not_fatal(self, fit_events, tmp_path):
        evts, snapshot = fit_events
        report = build_report(evts, snapshot=snapshot, bench_dir=tmp_path)
        assert all(not entry["present"] for entry in report["bench"].values())

    def test_bench_delta_against_committed_baseline(self, fit_events, tmp_path):
        evts, snapshot = fit_events
        (tmp_path / "BENCH_training.json").write_text(json.dumps({
            "schema_version": 1, "suite": "training", "preset": "full", "ok": True,
            "metrics": {"batches_per_sec": 100.0, "rmse": 0.9, "repeat_runs_bitwise_equal": True},
        }))
        report = build_report(
            evts, snapshot=snapshot, bench_dir=tmp_path, observed={"rmse": 0.9}
        )
        entry = report["bench"]["BENCH_training.json"]
        assert entry["present"] and entry["suite"] == "training"
        assert entry["metrics"]["batches_per_sec"] == 100.0
        throughput = entry["deltas"]["batches_per_sec"]
        assert throughput["committed"] == 100.0
        assert throughput["delta_pct"] == pytest.approx(
            100.0 * (report["observed"]["batches_per_sec"] - 100.0) / 100.0
        )
        assert entry["deltas"]["rmse"]["equal"] is True
        assert "repeat_runs_bitwise_equal" not in entry["deltas"]  # not observed

    def test_health_errors_flip_healthy(self):
        evts = [
            {"seq": 1, "kind": "health_error", "monitor": "nan_watchdog",
             "tensor": "head.w", "epoch": 2, "step": 50, "error": "boom"},
        ]
        report = build_report(evts)
        assert not report["healthy"]
        assert report["events"]["health_errors"][0]["tensor"] == "head.w"

    def test_report_is_json_serialisable(self, fit_events, tmp_path):
        evts, snapshot = fit_events
        json.dumps(build_report(evts, snapshot=snapshot, bench_dir=tmp_path))


class TestRenderReport:
    def test_render_contains_sections(self, fit_events, tmp_path):
        evts, snapshot = fit_events
        text = render_report(build_report(evts, snapshot=snapshot, bench_dir=tmp_path))
        assert "# repro health report" in text
        assert "Status: HEALTHY" in text
        assert "## Run manifest" in text
        assert "## Training" in text
        assert "## Monitors" in text
        assert "## Baseline deltas" in text
        assert "kl_collapse" in text

    def test_unhealthy_render(self):
        evts = [
            {"seq": 1, "kind": "health_error", "monitor": "nan_watchdog",
             "tensor": "head.w", "epoch": 0, "step": 1, "error": "non-finite"},
        ]
        text = render_report(build_report(evts))
        assert "Status: UNHEALTHY" in text
        assert "health error" in text


class TestCLIReport:
    def test_report_on_recorded_events(self, ics_task, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "run.jsonl"
        log = events.EventLog(path=path)
        events.set_event_log(log)
        nn.init.seed(0)
        model = AGNN(OBS_CONFIG, rng_seed=0)
        with telemetry.at_level(telemetry.FULL):
            model.fit(ics_task, OBS_TRAIN)
        log.close()

        exit_code = main(["report", "--events", str(path), "--bench-dir", str(tmp_path), "--json"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["healthy"]
        assert payload["runs"][0]["model"] == "AGNN"

    def test_report_text_mode(self, ics_task, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "run.jsonl"
        log = events.EventLog(path=path)
        events.set_event_log(log)
        nn.init.seed(0)
        model = AGNN(OBS_CONFIG, rng_seed=0)
        with telemetry.at_level(telemetry.FULL):
            model.fit(ics_task, OBS_TRAIN)
        log.close()

        assert main(["report", "--events", str(path), "--bench-dir", str(tmp_path)]) == 0
        assert "# repro health report" in capsys.readouterr().out

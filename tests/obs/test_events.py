"""The structured event log: emission, runs, JSONL persistence, gating."""

import json

import pytest

from repro import telemetry
from repro.telemetry import events
from repro.train import TrainConfig

pytestmark = pytest.mark.obs


class TestEventLog:
    def test_emit_stamps_seq_ts_kind(self):
        log = events.EventLog()
        first = log.emit("alpha", value=1)
        second = log.emit("beta", value=2)
        assert first["seq"] == 1 and second["seq"] == 2
        assert first["kind"] == "alpha"
        assert first["ts"] <= second["ts"]
        assert [e["kind"] for e in log.events()] == ["alpha", "beta"]

    def test_kind_filter(self):
        log = events.EventLog()
        log.emit("a")
        log.emit("b")
        log.emit("a")
        assert len(log.events(kind="a")) == 2

    def test_run_id_stamped_between_start_and_end(self):
        log = events.EventLog()
        log.emit("before")
        run_id = log.start_run({"model": "AGNN"})
        assert run_id.startswith("run-")
        log.emit("during")
        log.end_run(outcome="done")
        log.emit("after")
        by_kind = {e["kind"]: e for e in log.events()}
        assert "run_id" not in by_kind["before"]
        assert by_kind["during"]["run_id"] == run_id
        assert by_kind["run_start"]["manifest"] == {"model": "AGNN"}
        assert by_kind["run_end"]["outcome"] == "done"
        assert "run_id" not in by_kind["after"]

    def test_capacity_ring_drops_oldest(self):
        log = events.EventLog(capacity=3)
        for i in range(5):
            log.emit("e", i=i)
        kept = log.events()
        assert [e["i"] for e in kept] == [2, 3, 4]
        assert log.dropped == 2

    def test_jsonl_persistence_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        log = events.EventLog(path=path)
        log.start_run({"model": "AGNN", "seed": 0})
        log.emit("epoch", epoch=0, losses={"total": 1.5})
        log.close()
        # one JSON object per line, parseable independently
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert all(isinstance(json.loads(line), dict) for line in lines)
        back = events.read_events(path)
        assert [e["kind"] for e in back] == ["run_start", "epoch"]
        assert back[1]["losses"] == {"total": 1.5}

    def test_read_events_skips_corrupt_lines(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"kind": "ok", "seq": 1}\nnot json\n\n{"kind": "ok2", "seq": 2}\n')
        assert [e["kind"] for e in events.read_events(path)] == ["ok", "ok2"]

    def test_events_stamp_emitting_pid(self):
        import os

        log = events.EventLog()
        assert log.emit("x")["pid"] == os.getpid()


class TestMultiProcessLog:
    """The fix for interleaved JSONL from pool workers sharing REPRO_TELEMETRY_LOG."""

    def test_per_process_log_suffixes_pid(self, tmp_path):
        import os

        base = tmp_path / "run.jsonl"
        log = events.EventLog(path=base, per_process=True)
        log.emit("hello")
        log.close()
        assert not base.exists()
        assert (tmp_path / f"run.jsonl.{os.getpid()}").exists()

    def test_env_configured_global_log_is_per_process(self, tmp_path, monkeypatch):
        import os

        base = tmp_path / "global.jsonl"
        monkeypatch.setenv(events.LOG_PATH_ENV_VAR, str(base))
        events.set_event_log(None)
        try:
            log = events.get_event_log()
            assert log.per_process
            assert log.path == base.parent / f"global.jsonl.{os.getpid()}"
        finally:
            events.set_event_log(events.EventLog())

    def test_read_events_stitches_sibling_files_by_ts(self, tmp_path):
        base = tmp_path / "run.jsonl"
        base.write_text(
            '{"kind": "parent_a", "seq": 1, "ts": 1.0, "pid": 1}\n'
            '{"kind": "parent_b", "seq": 2, "ts": 4.0, "pid": 1}\n'
        )
        (tmp_path / "run.jsonl.100").write_text(
            '{"kind": "worker_a", "seq": 1, "ts": 2.0, "pid": 100}\n'
        )
        (tmp_path / "run.jsonl.200").write_text(
            '{"kind": "worker_b", "seq": 1, "ts": 3.0, "pid": 200}\n'
        )
        stitched = events.read_events(base)
        assert [e["kind"] for e in stitched] == [
            "parent_a", "worker_a", "worker_b", "parent_b",
        ]
        # Non-pid siblings (e.g. a .bak copy) are never stitched in.
        (tmp_path / "run.jsonl.bak").write_text('{"kind": "stale", "ts": 0.0}\n')
        assert all(e["kind"] != "stale" for e in events.read_events(base))

    def test_read_events_stitch_false_reads_one_file(self, tmp_path):
        base = tmp_path / "run.jsonl"
        base.write_text('{"kind": "only", "seq": 1, "ts": 1.0}\n')
        (tmp_path / "run.jsonl.99").write_text('{"kind": "other", "ts": 2.0}\n')
        assert [e["kind"] for e in events.read_events(base, stitch=False)] == ["only"]

    def test_stitch_works_without_base_file(self, tmp_path):
        base = tmp_path / "run.jsonl"
        (tmp_path / "run.jsonl.7").write_text('{"kind": "w", "ts": 1.0}\n')
        assert [e["kind"] for e in events.read_events(base)] == ["w"]

    def test_line_atomic_append_from_threads(self, tmp_path):
        import threading

        path = tmp_path / "run.jsonl"
        log = events.EventLog(path=path)
        threads = [
            threading.Thread(
                target=lambda i=i: [log.emit("t", worker=i, n=n) for n in range(50)]
            )
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        log.close()
        back = events.read_events(path)
        assert len(back) == 200  # every line parsed — nothing interleaved

    def test_jsonable_coerces_configs_and_arrays(self):
        import numpy as np

        log = events.EventLog()
        event = log.emit("cfg", train=TrainConfig(epochs=3), arr=np.arange(3), scalar=np.float64(1.5))
        assert event["train"]["epochs"] == 3
        assert event["arr"] == [0, 1, 2]
        assert event["scalar"] == 1.5
        json.dumps(event)  # everything must be JSON-serialisable


class TestGating:
    """Events are recorded only at telemetry level ``full``."""

    def test_default_is_off(self, monkeypatch):
        monkeypatch.delenv(telemetry.ENV_VAR, raising=False)
        telemetry.set_level(None)
        assert telemetry.level() == telemetry.ON
        assert not telemetry.is_full()

    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv(telemetry.ENV_VAR, "full")
        telemetry.set_level(None)
        assert telemetry.is_full()
        monkeypatch.setenv(telemetry.ENV_VAR, "off")
        telemetry.set_level(None)
        assert not telemetry.is_full()

    def test_module_level_emit_respects_gate(self):
        log = events.EventLog()
        events.set_event_log(log)
        for level in (telemetry.OFF, telemetry.ON):
            with telemetry.at_level(level):
                events.emit("dropped")
        assert log.events() == []
        with telemetry.at_level(telemetry.FULL):
            events.emit("kept")
        assert [e["kind"] for e in log.events()] == ["kept"]

    def test_start_run_disabled_returns_none(self):
        with telemetry.at_level(telemetry.ON):
            assert events.start_run({"model": "x"}) is None


class TestManifest:
    def test_build_run_manifest_fields(self):
        manifest = events.build_run_manifest(
            "AGNN",
            train_config=TrainConfig(epochs=2),
            seed=7,
            dataset_shape={"name": "tiny", "num_users": 4},
            extra_field="hello",
        )
        assert manifest["model"] == "AGNN"
        assert manifest["seed"] == 7
        assert manifest["train_config"]["epochs"] == 2
        assert manifest["dataset"]["name"] == "tiny"
        assert manifest["extra_field"] == "hello"
        assert isinstance(manifest["pid"], int)
        assert manifest["git"]  # "unknown" at worst, never empty

    def test_git_describe_cached_and_nonempty(self):
        assert events.git_describe() == events.git_describe()
        assert events.git_describe()

"""The one switch: REPRO_TELEMETRY levels off/on/full and their overrides."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import telemetry
from repro.telemetry import events
from repro.telemetry.metrics import parse_level

pytestmark = pytest.mark.telemetry

SRC = Path(__file__).resolve().parents[2] / "src"


class TestEnvTable:
    @pytest.mark.parametrize("value", [None, "1", "on", "ON", "", "yes"])
    def test_on(self, value):
        assert parse_level(value) == telemetry.ON

    @pytest.mark.parametrize("value", ["0", "off", "false", "no", "disabled", " Off "])
    def test_off(self, value):
        assert parse_level(value) == telemetry.OFF

    @pytest.mark.parametrize("value", ["full", "FULL"])
    def test_full(self, value):
        assert parse_level(value) == telemetry.FULL

    def test_set_level_none_reads_the_environment(self, monkeypatch):
        for value, expected in (("full", telemetry.FULL), ("off", telemetry.OFF), ("1", telemetry.ON)):
            monkeypatch.setenv(telemetry.ENV_VAR, value)
            telemetry.set_level(None)
            assert telemetry.level() == expected
        monkeypatch.delenv(telemetry.ENV_VAR)
        telemetry.set_level(None)
        assert telemetry.level() == telemetry.ON

    def test_environment_is_read_once_not_per_call(self, monkeypatch):
        telemetry.set_level(telemetry.ON)
        monkeypatch.setenv(telemetry.ENV_VAR, "off")
        assert telemetry.is_enabled()  # no set_level call: still on


class TestOverrides:
    def test_set_level_rejects_unknown_levels(self):
        with pytest.raises(ValueError):
            telemetry.set_level("verbose")

    def test_set_level_sets_the_predicates(self):
        expected = {
            telemetry.OFF: (False, False),
            telemetry.ON: (True, False),
            telemetry.FULL: (True, True),
        }
        for value, (is_enabled, is_full) in expected.items():
            telemetry.set_level(value)
            assert (telemetry.is_enabled(), telemetry.is_full()) == (is_enabled, is_full)

    @pytest.mark.parametrize("start", [telemetry.OFF, telemetry.ON, telemetry.FULL])
    def test_scoped_overrides_restore_previous_level(self, start):
        telemetry.set_level(start)
        with telemetry.at_level(telemetry.FULL):
            assert telemetry.level() == telemetry.FULL
            with telemetry.disabled():
                assert telemetry.level() == telemetry.OFF
            assert telemetry.level() == telemetry.FULL
        assert telemetry.level() == start
        with telemetry.disabled():
            assert telemetry.level() == telemetry.OFF
        assert telemetry.level() == start

    def test_scoped_override_restores_on_exception(self):
        telemetry.set_level(telemetry.ON)
        with pytest.raises(RuntimeError):
            with telemetry.at_level(telemetry.OFF):
                raise RuntimeError("boom")
        assert telemetry.level() == telemetry.ON

    def test_enabled_keeps_full_and_lifts_off(self):
        telemetry.set_level(telemetry.FULL)
        with telemetry.enabled():
            assert telemetry.level() == telemetry.FULL
        telemetry.set_level(telemetry.OFF)
        with telemetry.enabled():
            assert telemetry.level() == telemetry.ON
        assert telemetry.level() == telemetry.OFF


class TestWhatEachLevelRecords:
    def _record(self):
        events.set_event_log(events.EventLog())
        telemetry.reset()
        telemetry.reset_spans()
        telemetry.increment("c")
        with telemetry.span("s"):
            pass
        events.emit("e")
        return (
            bool(telemetry.get_registry().counters()),
            bool(telemetry.export_spans()),
            bool(events.get_event_log().events()),
        )

    def test_off_on_full(self):
        with telemetry.at_level(telemetry.OFF):
            assert self._record() == (False, False, False)
        with telemetry.at_level(telemetry.ON):
            assert self._record() == (True, True, False)
        with telemetry.at_level(telemetry.FULL):
            assert self._record() == (True, True, True)


class TestImportHygiene:
    def test_telemetry_is_stdlib_only(self):
        """``import repro.telemetry`` must not load numpy or the model stack."""
        code = (
            "import sys\n"
            "import repro.telemetry\n"
            "heavy = ('numpy', 'repro.autograd', 'repro.nn', 'repro.core')\n"
            "print(','.join(m for m in heavy if m in sys.modules))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == ""

"""No poison rows: a bad observation never reaches the durable log.

A run whose wall time or phase times are not finite is rejected when the
record is built, and a finite run whose residual still overflows is
rejected by ``Calibrator.ingest`` *before* it is appended — so the
JSONL log never holds a row that would make every later
``replay_log()`` raise.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import pytest

from repro.calibrate import Calibrator, ObservationLog
from repro.errors import CalibrationError, MeasurementError
from repro.measure.record import MeasurementRecord


@pytest.fixture()
def record(base_spec, make_record, make_config):
    # A small single-kind run: its predicted time is below one second,
    # so a maximal wall time overflows the relative residual.
    return make_record(base_spec, make_config(0, 0, 8, 1), 400)


class TestRecordConstructors:
    @pytest.mark.parametrize("wall", [math.nan, math.inf, -math.inf])
    def test_non_finite_wall_time_rejected(self, record, wall):
        with pytest.raises(MeasurementError, match="wall time"):
            dataclasses.replace(record, wall_time_s=wall)

    def test_non_finite_wall_time_rejected_from_wire(self, record):
        data = json.loads(json.dumps(record.to_dict()))
        data["wall_s"] = math.nan
        with pytest.raises(MeasurementError, match="wall time"):
            MeasurementRecord.from_dict(data)

    def test_non_finite_phase_rejected_from_wire(self, record):
        data = json.loads(json.dumps(record.to_dict()))
        phases = data["per_kind"][0]["phases"]
        phases[next(iter(phases))] = math.nan
        with pytest.raises(MeasurementError, match="invalid time"):
            MeasurementRecord.from_dict(data)

    def test_overflowing_phase_total_rejected(self, record):
        km = next(k for k in record.per_kind if k.pe_count > 0)
        huge = dataclasses.replace(
            km.phases, update=sys.float_info.max, bcast=sys.float_info.max
        )
        with pytest.raises(MeasurementError, match="non-finite phase total"):
            dataclasses.replace(km, phases=huge)


class TestIngestScoresBeforeLogging:
    def test_bad_record_raises_and_log_stays_empty(
        self, tmp_path, incumbent, record
    ):
        assert incumbent.estimate(record.config(), record.n).total < 1.0
        poison = dataclasses.replace(record, wall_time_s=sys.float_info.max)
        path = tmp_path / "observations.jsonl"
        log = ObservationLog(path)
        calibrator = Calibrator("ns", lambda: incumbent, log=log)

        with pytest.raises(CalibrationError, match="non-finite residual"):
            calibrator.ingest(poison)
        assert len(log) == 0
        assert path.read_text(encoding="utf-8") == ""

        # The loop keeps working, and the log it wrote replays cleanly.
        result = calibrator.ingest(record)
        assert result.seq == 0 and math.isfinite(result.residual)
        log.close()
        resumed = Calibrator("ns", lambda: incumbent, log=ObservationLog(path))
        replayed = resumed.replay_log()
        assert [r.residual for r in replayed] == [result.residual]
        resumed.log.close()

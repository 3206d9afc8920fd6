"""ObservationLog: append-only semantics, persistence, dataset adapter."""

from __future__ import annotations

import json

import pytest

from repro.calibrate import OBSERVATION_TRIAL_BASE, Observation, ObservationLog
from repro.errors import CalibrationError
from repro.measure.dataset import Dataset


@pytest.fixture()
def records(base_spec, make_record, make_config):
    """Three runs: two at the same (config, N) coordinate."""
    c13 = make_config(1, 3, 8, 1)
    c14 = make_config(1, 4, 8, 1)
    return [
        make_record(base_spec, c13, 3200),
        make_record(base_spec, c14, 3200),
        make_record(base_spec, c13, 3200, trial=1),
    ]


class TestAppend:
    def test_sequence_and_source(self, records):
        log = ObservationLog()
        first = log.append(records[0])
        second = log.append(records[1], source="serve")
        assert (first.seq, first.source) == (0, "live")
        assert (second.seq, second.source) == (1, "serve")
        assert len(log) == 2
        assert [o.seq for o in log] == [0, 1]

    def test_duplicate_coordinates_are_kept(self, records):
        log = ObservationLog()
        for record in records:
            log.append(record)
        coordinate = (records[0].config_tuple, records[0].n)
        matching = [
            o
            for o in log
            if (o.record.config_tuple, o.record.n) == coordinate
        ]
        assert len(matching) == 2

    def test_extend_from_dataset(self, records):
        log = ObservationLog()
        added = log.extend_from_dataset(Dataset(records), source="replay")
        assert [o.seq for o in added] == [0, 1, 2]
        assert log.sources() == {"replay": 3}

    def test_queries(self, records):
        log = ObservationLog()
        for record in records:
            log.append(record)
        assert [o.seq for o in log.tail(2)] == [1, 2]
        assert [o.seq for o in log.tail(10)] == [0, 1, 2]
        assert [o.seq for o in log.window(1, 2)] == [1, 2]
        with pytest.raises(CalibrationError):
            log.tail(0)


class TestDatasetAdapter:
    def test_trials_renumbered_into_reserved_band(self, records):
        log = ObservationLog()
        for record in records:
            log.append(record)
        dataset = log.as_dataset()
        assert len(dataset) == 3  # duplicates survive re-trialing
        trials = sorted(record.trial for record in dataset)
        assert trials == [
            OBSERVATION_TRIAL_BASE,
            OBSERVATION_TRIAL_BASE + 1,
            OBSERVATION_TRIAL_BASE + 2,
        ]

    def test_subset_selection(self, records):
        log = ObservationLog()
        for record in records:
            log.append(record)
        dataset = log.as_dataset(log.tail(1))
        assert len(dataset) == 1
        assert next(iter(dataset)).trial == OBSERVATION_TRIAL_BASE + 2


class TestPersistence:
    def test_roundtrip_resumes_sequence(self, tmp_path, records):
        path = tmp_path / "observations.jsonl"
        with ObservationLog(path) as log:
            log.append(records[0], source="a")
            log.append(records[1], source="b")
        with ObservationLog(path) as reopened:
            assert len(reopened) == 2
            assert reopened.sources() == {"a": 1, "b": 1}
            appended = reopened.append(records[2], source="c")
            assert appended.seq == 2
        with ObservationLog(path) as final:
            assert [o.seq for o in final] == [0, 1, 2]
            assert final[2].record.key() == records[2].key()

    def test_corrupt_line_rejected(self, tmp_path, records):
        path = tmp_path / "observations.jsonl"
        with ObservationLog(path) as log:
            log.append(records[0])
        path.write_text(path.read_text() + "not json\n")
        with pytest.raises(CalibrationError, match="corrupt"):
            ObservationLog(path)

    def test_torn_tail_dropped_and_sequence_continues(self, tmp_path, records):
        path = tmp_path / "observations.jsonl"
        with ObservationLog(path) as log:
            for record in records:
                log.append(record)
        data = path.read_bytes()
        intact = data[: data.rindex(b"\n", 0, len(data) - 1) + 1]
        path.write_bytes(data[:-40])  # a crash mid-append of the third line
        with ObservationLog(path) as reopened:
            assert [o.seq for o in reopened] == [0, 1]
            assert path.read_bytes() == intact
            assert reopened.append(records[2]).seq == 2
        with ObservationLog(path) as final:
            assert [o.seq for o in final] == [0, 1, 2]
            assert final[2].record.key() == records[2].key()

    def test_unterminated_whole_tail_is_kept(self, tmp_path, records):
        path = tmp_path / "observations.jsonl"
        with ObservationLog(path) as log:
            log.append(records[0])
            log.append(records[1])
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        with ObservationLog(path) as reopened:
            assert len(reopened) == 2
            assert reopened.append(records[2]).seq == 2
        with ObservationLog(path) as final:
            assert [o.seq for o in final] == [0, 1, 2]

    def test_corrupt_middle_line_rejected(self, tmp_path, records):
        path = tmp_path / "observations.jsonl"
        with ObservationLog(path) as log:
            for record in records:
                log.append(record)
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = lines[1][:40] + "\n"
        path.write_text("".join(lines))
        with pytest.raises(CalibrationError, match=r"corrupt .*:2"):
            ObservationLog(path)

    def test_out_of_sequence_rejected(self, tmp_path, records):
        path = tmp_path / "observations.jsonl"
        with ObservationLog(path) as log:
            entry = log.append(records[0])
        skewed = Observation(seq=5, source="x", record=entry.record)
        with path.open("a") as handle:
            handle.write(json.dumps(skewed.to_dict()) + "\n")
        with pytest.raises(CalibrationError, match="out of sequence"):
            ObservationLog(path)

    def test_malformed_observation_rejected(self):
        with pytest.raises(CalibrationError, match="malformed"):
            Observation.from_dict({"seq": 0, "source": "x"})

    def test_summary_mentions_path_and_sources(self, tmp_path, records):
        with ObservationLog(tmp_path / "log.jsonl") as log:
            assert log.summary() == "ObservationLog(empty)"
            log.append(records[0], source="serve")
            text = log.summary()
        assert "serve: 1" in text
        assert "log.jsonl" in text

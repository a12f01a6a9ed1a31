"""Tests for the JSONL run ledger (repro.runtime.ledger)."""

from __future__ import annotations

import json

import pytest

from repro.errors import LedgerError
from repro.runtime import LedgerHeader, RunLedger, RunRecord, STATUS_OK


def _record(index, seed=None, error=None):
    if error is None:
        return RunRecord(
            index=index,
            seed=seed if seed is not None else 100 + index,
            status=STATUS_OK,
            attempts=1,
            duration=0.01,
            errors={"dm": 0.1 * (index + 1), "dr": 0.05 * (index + 1)},
        )
    return RunRecord(
        index=index,
        seed=seed if seed is not None else 100 + index,
        status="failed",
        attempts=2,
        duration=0.02,
        error_type=type(error).__name__,
        error_message=str(error),
    )


def _write(tmp_path, records, header=None, name="ledger.jsonl"):
    ledger = RunLedger(tmp_path / name)
    with ledger:
        ledger.start(header or LedgerHeader(experiment="fig7a", root_seed=7, runs=10))
        for record in records:
            ledger.append(record)
    return ledger


class TestRoundTrip:
    def test_start_append_read(self, tmp_path):
        written = [_record(0), _record(1), _record(2, error=ValueError("boom"))]
        ledger = _write(tmp_path, written)
        header, records, clean_length = ledger.read()
        assert header.experiment == "fig7a"
        assert header.root_seed == 7
        assert header.runs == 10
        assert records == {record.index: record for record in written}
        assert clean_length == ledger.path.stat().st_size

    def test_header_journals_retry_policy(self, tmp_path):
        header = LedgerHeader(
            experiment="fig7a", root_seed=7, runs=10, retry={"max_attempts": 3}
        )
        ledger = _write(tmp_path, [], header=header)
        read_header, _, _ = ledger.read()
        assert read_header.retry == {"max_attempts": 3}

    def test_start_truncates_previous_ledger(self, tmp_path):
        ledger = _write(tmp_path, [_record(0), _record(1)])
        with ledger:
            ledger.start(LedgerHeader(experiment="fig7a", root_seed=7, runs=10))
        _, records, _ = ledger.read()
        assert records == {}


class TestCorruption:
    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_bytes(b"")
        with pytest.raises(LedgerError, match="empty"):
            RunLedger(path).read()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(LedgerError, match="cannot read"):
            RunLedger(tmp_path / "nope.jsonl").read()

    def test_not_a_ledger_raises(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text(json.dumps({"kind": "something-else"}) + "\n")
        with pytest.raises(LedgerError, match="not a run ledger"):
            RunLedger(path).read()

    def test_corrupt_mid_file_line_raises(self, tmp_path):
        ledger = _write(tmp_path, [_record(0)])
        lines = ledger.path.read_text().splitlines()
        lines.insert(1, "{this is not json")
        ledger.path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LedgerError, match="corrupt ledger line"):
            ledger.read()

    def test_mid_file_corruption_names_the_record_and_refuses_resume(
        self, tmp_path
    ):
        # Three completed records; record #1 (the middle one) is then
        # damaged in place. Resume must refuse with the record named —
        # replaying past it would silently re-run a completed seed.
        ledger = _write(tmp_path, [_record(0), _record(1), _record(2)])
        lines = ledger.path.read_text().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]  # header is line 0
        ledger.path.write_text("\n".join(lines) + "\n")
        with pytest.raises(LedgerError, match=r"record #1 of 3") as excinfo:
            ledger.read()
        assert "refuses" in str(excinfo.value)
        with pytest.raises(LedgerError, match=r"record #1"):
            ledger.load_for_resume("fig7a", 7)

    def test_duplicate_run_index_raises(self, tmp_path):
        ledger = _write(tmp_path, [_record(0)])
        with open(ledger.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(_record(0).to_json()) + "\n")
        with pytest.raises(LedgerError, match="duplicate record"):
            ledger.read()

    def test_append_without_open_raises(self, tmp_path):
        with pytest.raises(LedgerError, match="not open"):
            RunLedger(tmp_path / "l.jsonl").append(_record(0))


class TestTornTail:
    def test_partial_trailing_line_is_tolerated(self, tmp_path):
        ledger = _write(tmp_path, [_record(0), _record(1)])
        clean = ledger.path.read_bytes()
        # A crash mid-append leaves a torn, newline-less trailing write.
        ledger.path.write_bytes(clean + b'{"index": 2, "se')
        header, records, clean_length = ledger.read()
        assert set(records) == {0, 1}
        assert clean_length == len(clean)

    def test_resume_truncates_the_torn_tail(self, tmp_path):
        ledger = _write(tmp_path, [_record(0)])
        clean = ledger.path.read_bytes()
        ledger.path.write_bytes(clean + b'{"torn":')
        records = ledger.load_for_resume("fig7a", 7)
        assert set(records) == {0}
        assert ledger.path.read_bytes() == clean


class TestResumeValidation:
    def test_wrong_experiment_raises(self, tmp_path):
        ledger = _write(tmp_path, [_record(0)])
        with pytest.raises(LedgerError, match="belongs to experiment"):
            ledger.load_for_resume("fig7b", 7)

    def test_wrong_root_seed_raises(self, tmp_path):
        ledger = _write(tmp_path, [_record(0)])
        with pytest.raises(LedgerError, match="root seed"):
            ledger.load_for_resume("fig7a", 8)

    def test_matching_sweep_returns_records(self, tmp_path):
        ledger = _write(tmp_path, [_record(0), _record(3)])
        records = ledger.load_for_resume("fig7a", 7)
        assert set(records) == {0, 3}


class TestStrictHeader:
    @pytest.mark.parametrize(
        "changes, field",
        [
            ({"root_seed": "7"}, "root_seed"),
            ({"runs": 10.5}, "runs"),
            ({"experiment": 7}, "experiment"),
            ({"bogus": 1}, "bogus"),
        ],
    )
    def test_bad_header_field_raises_naming_it(self, tmp_path, changes, field):
        header = LedgerHeader(experiment="fig7a", root_seed=7, runs=10).to_json()
        path = tmp_path / "ledger.jsonl"
        path.write_text(json.dumps({**header, **changes}) + "\n")
        with pytest.raises(LedgerError, match=field):
            RunLedger(path).read()

    def test_header_that_is_not_an_object_raises(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(LedgerError, match="not a run ledger"):
            RunLedger(path).read()

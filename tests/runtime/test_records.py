"""Tests for the structured run records (repro.runtime.records)."""

from __future__ import annotations

import json

import pytest

from repro.errors import LedgerError
from repro.runtime import (
    STATUS_FAILED,
    STATUS_OK,
    RunOutcome,
    RunRecord,
    coerce_outcome,
)


class TestRunOutcome:
    def test_coerce_plain_mapping(self):
        outcome = coerce_outcome({"dm": 0.25, "dr": 0.1})
        assert isinstance(outcome, RunOutcome)
        assert outcome.errors == {"dm": 0.25, "dr": 0.1}
        assert outcome.degradations == {}
        assert outcome.quarantined == {}

    def test_coerce_passes_through_outcome(self):
        outcome = RunOutcome(
            errors={"dr": 0.1},
            degradations={"dr": "dm"},
            quarantined={"bad-propensity": 3},
        )
        assert coerce_outcome(outcome) is outcome


class TestRunRecord:
    def test_ok_round_trips_through_json_exactly(self):
        record = RunRecord(
            index=3,
            seed=123456789,
            status=STATUS_OK,
            attempts=2,
            duration=0.125,
            errors={"dm": 0.1234567890123456789, "dr": 1 / 3},
            degradations={"dr": "snips"},
            quarantined={"non-finite-reward": 2},
        )
        # json floats serialise via repr (shortest exact round-trip), so
        # the replayed record is bit-identical — the property resume
        # relies on.
        replayed = RunRecord.from_json(
            json.loads(json.dumps(record.to_json())), "test"
        )
        assert replayed == record
        assert replayed.errors["dr"] == record.errors["dr"]

    def test_failed_record_round_trips(self):
        record = RunRecord(
            index=0,
            seed=7,
            status=STATUS_FAILED,
            attempts=3,
            duration=0.5,
            error_type="EstimatorError",
            error_message="no overlap",
        )
        replayed = RunRecord.from_json(record.to_json(), "test")
        assert replayed == record
        assert not replayed.ok

    def test_ok_property(self):
        ok = RunRecord(index=0, seed=1, status=STATUS_OK, attempts=1, duration=0.0)
        failed = RunRecord(
            index=0, seed=1, status=STATUS_FAILED, attempts=1, duration=0.0
        )
        assert ok.ok and not failed.ok

    def test_to_json_omits_empty_optionals(self):
        payload = RunRecord(
            index=0, seed=1, status=STATUS_OK, attempts=1, duration=0.0
        ).to_json()
        assert "error_type" not in payload
        assert "degradations" not in payload
        assert "quarantined" not in payload

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"index": 0},
            {"index": "x", "seed": 1, "status": "ok", "attempts": 1, "duration": 0.0},
            {"index": 0, "seed": 1, "status": "bogus", "attempts": 1, "duration": 0.0},
        ],
    )
    def test_malformed_payload_raises_ledger_error(self, payload):
        with pytest.raises(LedgerError):
            RunRecord.from_json(payload, "test")


def _journaled(**changes):
    payload = {
        "index": 2,
        "seed": 17,
        "status": "ok",
        "attempts": 1,
        "duration": 0.0,
        "errors": {"dm": 0.5},
    }
    payload.update(changes)
    return payload


class TestStrictRead:
    """A journaled record is read, not coerced: a value of the wrong
    type is a :class:`LedgerError` naming its field."""

    @pytest.mark.parametrize(
        "changes, field",
        [
            ({"index": 2.9}, "index"),
            ({"index": "2"}, "index"),
            ({"seed": 17.5}, "seed"),
            ({"seed": "17"}, "seed"),
            ({"attempts": True}, "attempts"),
            ({"duration": "0"}, "duration"),
            ({"errors": {"dm": "0.5"}}, "errors"),
            ({"quarantined": {"bad-propensity": 1.5}}, "quarantined"),
            ({"bogus": 1}, "bogus"),
        ],
    )
    def test_bad_field_raises_naming_it(self, changes, field):
        with pytest.raises(LedgerError, match=field):
            RunRecord.from_json(_journaled(**changes), "test")

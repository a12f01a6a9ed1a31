"""Tests for the served-payload schema checker."""

from __future__ import annotations

import json

import pytest

from repro import api, core
from repro.errors import ServeError
from repro.serve.validate import (
    main,
    validate_response_file,
    validate_response_payload,
)

from tests.conftest import make_uniform_trace

GOOD_ERROR = {"kind": "repro.serve.error", "status": 404, "error": "nope"}


class TestErrorBodies:
    def test_valid_error_body(self):
        validate_response_payload(GOOD_ERROR)

    def test_bad_status(self):
        with pytest.raises(ServeError, match="status"):
            validate_response_payload({**GOOD_ERROR, "status": 200})

    def test_empty_message(self):
        with pytest.raises(ServeError, match="error"):
            validate_response_payload({**GOOD_ERROR, "error": ""})

    def test_unknown_error_key(self):
        with pytest.raises(ServeError, match="unknown key"):
            validate_response_payload({**GOOD_ERROR, "extra": 1})


class TestEnvelopes:
    def test_not_an_object(self):
        with pytest.raises(ServeError, match="JSON object"):
            validate_response_payload([1, 2, 3])

    def test_unknown_kind(self):
        with pytest.raises(ServeError, match="kind"):
            validate_response_payload({"kind": "mystery"})

    def test_wrong_version(self):
        with pytest.raises(ServeError, match="version"):
            validate_response_payload(
                {"kind": "repro.serve.response", "version": 42}
            )

    def test_missing_sections(self):
        with pytest.raises(ServeError, match="missing key"):
            validate_response_payload(
                {"kind": "repro.serve.response", "version": 1}
            )

    def test_bad_fingerprint_shape(self):
        # Build a minimal envelope that fails at the fingerprint check.
        payload = {
            "kind": "repro.serve.response",
            "version": 1,
            "endpoint": "evaluate",
            "trace": {
                "name": "t",
                "kind": "jsonl",
                "schema_hash": "abc",
                "records": 1,
            },
            "fingerprints": {"policy": "short", "trace": "x" * 64},
            "report": {},
            "cache": {"hit": False, "coalesced": False, "bypass": False, "key": "k"},
        }
        with pytest.raises(ServeError, match="sha256"):
            validate_response_payload(payload)


class TestFingerprintSection:
    def test_extra_fingerprint_keys_rejected(self, abc_space, rng):
        trace = make_uniform_trace(abc_space, lambda c, d: 1.0, rng, n=50)
        report = api.evaluate(trace, core.UniformRandomPolicy(abc_space), estimator="ips")
        digest = "0" * 64
        payload = {
            "kind": "repro.serve.response",
            "version": 1,
            "endpoint": "evaluate",
            "trace": {"name": "t", "kind": "jsonl", "schema_hash": "abc", "records": 50},
            "fingerprints": {"policy": digest, "trace": digest, "estimator": digest},
            "report": report.to_json_dict(),
            "cache": {"hit": False, "coalesced": False, "bypass": False, "key": digest},
        }
        validate_response_payload(payload)
        payload["fingerprints"].update(estimators=[digest], bogus=digest)
        with pytest.raises(ServeError, match="unknown key"):
            validate_response_payload(payload)


class TestCli:
    def test_file_round_trip(self, tmp_path, capsys):
        path = tmp_path / "err.json"
        path.write_text(json.dumps(GOOD_ERROR))
        assert validate_response_file(path) == GOOD_ERROR
        assert main([str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_invalid_file_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "mystery"}))
        assert main([str(path)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_unreadable_file(self, tmp_path):
        assert main([str(tmp_path / "missing.json")]) == 1

    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

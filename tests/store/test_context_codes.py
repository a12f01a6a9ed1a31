"""Per-context work: shard context codes, and each per-record question
asked once per distinct context.

The shard decoder interns equal feature rows into one context object and
numbers them in ``TraceColumns.context_codes``; the streaming policy
wrapper and the tabular model answer once per code and gather.  None of
that may change what a record decodes to, which record's error surfaces
first, or the fitted tables' layout.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np
import pytest

from repro import api, core
from repro.core.models.tabular import TabularMeanModel
from repro.core.policy import DeterministicPolicy
from repro.errors import PolicyError, ShardDecodeError
from repro.store import ShardedTrace
from repro.store import streaming
from repro.store.format import MANIFEST_NAME, shard_filename
from repro.store.integrity import shard_checksum, verify_store
from repro.store.repair import repair_store
from repro.workloads.synthetic import SyntheticWorkload

from tests.store.conftest import build_trace

RECORDS = 600
SHARD_SIZE = 130
CHUNK_SIZE = 60


@pytest.fixture(scope="module")
def workload():
    return SyntheticWorkload()


@pytest.fixture(scope="module")
def dense(workload):
    old = workload.logging_policy(epsilon=0.3)
    return workload.generate_trace(old, RECORDS, np.random.default_rng(2017))


@pytest.fixture(scope="module")
def shard_dir(dense, tmp_path_factory):
    directory = tmp_path_factory.mktemp("codes") / "shards"
    dense.to_shards(directory, shard_size=SHARD_SIZE)
    return directory


@pytest.fixture
def sequential(monkeypatch):
    # Rule calls are counted in this process, so no fork pool.
    monkeypatch.delenv(streaming.STREAM_WORKERS_VAR, raising=False)


class CountingRule:
    """A deterministic rule that counts its calls."""

    def __init__(self, space):
        self.decisions = space.decisions
        self.calls = 0

    def __call__(self, context):
        self.calls += 1
        return self.decisions[int(context["f0"] == "v0")]


def _sharded(directory):
    return ShardedTrace(directory, chunk_records=CHUNK_SIZE)


def _distinct_per_chunk(trace):
    """Summed over chunks: distinct contexts, and distinct (context,
    decision) pairs, by value."""
    contexts = pairs = 0
    for chunk in trace.iter_chunks():
        columns = chunk.columns()
        contexts += len(set(columns.contexts))
        pairs += len(set(zip(columns.contexts, columns.decisions)))
    return contexts, pairs


class TestPolicyCallsPerContext:
    def test_matrix_rule_runs_once_per_distinct_context_per_chunk(
        self, workload, shard_dir, sequential
    ):
        rule = CountingRule(workload.space())
        policy = DeterministicPolicy(workload.space(), rule)
        trace = _sharded(shard_dir)
        report = api.compare(trace, policy, ("dm",), diagnostics=False)
        contexts, _ = _distinct_per_chunk(trace)
        assert contexts < RECORDS
        assert rule.calls == contexts
        dense = api.compare(trace.materialize(), policy, ("dm",), diagnostics=False)
        assert report.to_json() == dense.to_json()

    def test_panel_asks_each_context_and_pair_once_per_chunk(
        self, workload, shard_dir, sequential
    ):
        rule = CountingRule(workload.space())
        policy = DeterministicPolicy(workload.space(), rule)
        trace = _sharded(shard_dir)
        report = api.compare(trace, policy)
        contexts, _ = _distinct_per_chunk(trace)
        # One matrix row per distinct context; the propensities and the
        # greedy scan reuse the matrix.
        assert rule.calls == contexts
        assert report.to_json() == api.compare(trace.materialize(), policy).to_json()

    def test_raising_rule_fails_alike_dense_and_sharded(
        self, workload, dense, shard_dir, sequential
    ):
        decisions = workload.space().decisions
        # Two bad contexts: the error names the one a record reaches first.
        bad = {dense[200].context, dense[90].context}

        def rule(context):
            if context in bad:
                raise PolicyError(f"no decision for {context!r}")
            return decisions[0]

        policy = DeterministicPolicy(workload.space(), rule)
        raised = []
        for trace in (dense, _sharded(shard_dir)):
            with pytest.raises(PolicyError) as excinfo:
                api.compare(trace, policy)
            raised.append((type(excinfo.value), str(excinfo.value)))
        assert raised[0] == raised[1]
        first = next(record.context for record in dense if record.context in bad)
        assert repr(first) in raised[0][1]


class TestTabularPerContext:
    def test_sharded_fit_equals_dense_fit_in_order(self, dense, shard_dir):
        fitted = []
        for trace in (dense, _sharded(shard_dir)):
            model = TabularMeanModel(key_features=("f0", "f1"))
            model.fit(trace)
            fitted.append(model)
        left, right = fitted
        assert list(left._bucket_means.items()) == list(right._bucket_means.items())
        assert list(left._key_index.items()) == list(right._key_index.items())
        assert np.array_equal(left._mean_matrix, right._mean_matrix)

    def test_key_encoding_matches_per_record_lookup(self, dense, shard_dir):
        model = TabularMeanModel(key_features=("f0",))
        model.fit(dense[: RECORDS // 2])
        for chunk in _sharded(shard_dir).iter_chunks():
            columns = chunk.columns()
            expected = [
                model._key_index.get(context.values_for(("f0",)), -1)
                for context in columns.contexts
            ]
            assert model._encode_keys(columns).tolist() == expected


def _mixed_flag_trace():
    """``flag`` holds True and 1 (equal, hash-equal, but not the same
    feature value), so its shard column is coded."""
    flags = [True, 1, True, 1, 0, False, 1]
    return core.Trace(
        core.TraceRecord(
            context=core.ClientContext(flag=flag, isp="a"),
            decision="d0",
            reward=float(index),
            propensity=0.5,
        )
        for index, flag in enumerate(flags)
    )


class TestContextCodes:
    def test_shard_codes_group_true_and_one_apart(self, tmp_path):
        trace = _mixed_flag_trace().to_shards(tmp_path / "s")
        columns = next(trace.iter_chunks()).columns()
        assert columns.context_codes.tolist() == [0, 1, 0, 1, 2, 3, 1]
        flags = [context["flag"] for context in columns.contexts]
        assert [type(flag) for flag in flags] == [bool, int, bool, int, int, bool, int]
        codes = columns.context_codes
        for left, right in zip(codes, columns.contexts):
            assert columns.contexts[int(np.flatnonzero(codes == left)[0])] is right

    def test_codes_survive_sliced_and_taken(self, tmp_path):
        trace = _mixed_flag_trace().to_shards(tmp_path / "s")
        columns = next(trace.iter_chunks()).columns()
        codes = columns.context_codes
        assert columns.sliced(slice(2, 6)).context_codes.tolist() == codes[2:6].tolist()
        picks = np.array([6, 0, 6, 3], dtype=np.intp)
        taken = columns.taken(picks)
        assert taken.context_codes.tolist() == codes[picks].tolist()
        assert taken.contexts == tuple(columns.contexts[i] for i in picks)

    def test_dense_codes_group_by_identity(self):
        shared = core.ClientContext(isp="a")
        twin = core.ClientContext(isp="a")
        trace = core.Trace(
            core.TraceRecord(context=context, decision="d0", reward=0.0)
            for context in (shared, twin, shared, twin, shared)
        )
        columns = trace.columns()
        assert columns.context_codes.tolist() == [0, 1, 0, 1, 0]
        assert trace[1:4].columns().context_codes.tolist() == [1, 0, 1]
        assert trace.take([4, 3]).columns().context_codes.tolist() == [0, 1]


class TestSignedZero:
    @pytest.mark.parametrize(
        "values, kind",
        [((0.0, -0.0, -0.0, 0.0), "f8"), ((0.0, -0.0, 1, -0.0), "coded")],
    )
    def test_negative_zero_round_trips(self, tmp_path, values, kind):
        trace = core.Trace(
            core.TraceRecord(
                context=core.ClientContext(x=value), decision="d0", reward=0.0
            )
            for value in values
        )
        sharded = trace.to_shards(tmp_path / "s")
        assert sharded.manifest["shards"][0]["feature_kinds"] == [kind]
        decoded = [record.context["x"] for record in sharded.materialize()]
        assert [type(value) for value in decoded] == [type(value) for value in values]
        assert [math.copysign(1.0, value) for value in decoded] == [
            math.copysign(1.0, value) for value in values
        ]


def _rewrite_shard(directory, mutate):
    """Rewrite shard 0 through *mutate* and re-seal its manifest entry,
    so the damage passes the byte-level checks."""
    path = directory / shard_filename(0)
    with np.load(path, allow_pickle=False) as data:
        arrays = {key: data[key].copy() for key in data.files}
    mutate(arrays)
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    payload = buffer.getvalue()
    path.write_bytes(payload)
    manifest_path = directory / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    manifest["shards"][0].update(bytes=len(payload), sha256=shard_checksum(payload))
    manifest_path.write_text(json.dumps(manifest))


class TestOutOfRangeCodes:
    # Sorted schema: count, isp, nat, x — isp and nat are coded.
    @pytest.mark.parametrize("column", ["decision_codes", "feature_1", "feature_2"])
    @pytest.mark.parametrize("code", [-1, -2, 99])
    def test_code_outside_vocabulary_is_a_decode_error(self, tmp_path, column, code):
        directory = tmp_path / "s"
        build_trace(n=12).to_shards(directory, shard_size=12)

        def damage(arrays):
            arrays[column][0] = code

        _rewrite_shard(directory, damage)
        with pytest.raises(ShardDecodeError, match="would not decode"):
            ShardedTrace(directory).materialize()


class TestVerifyAndRepairDecodeLikeTheReader:
    """A resealed shard with a code outside its vocabulary passes the
    byte checks but not the reader's decoder; ``repro verify`` and
    ``repro repair`` must judge it by that decoder."""

    @pytest.fixture(params=["decision_codes", "feature_1"])
    def directory(self, request, tmp_path):
        directory = tmp_path / "s"
        build_trace(n=24).to_shards(directory, shard_size=12)

        def damage(arrays):
            arrays[request.param][0] = -1

        _rewrite_shard(directory, damage)
        return directory

    def test_verify_flags_the_shard_undecodable(self, directory):
        kinds = [shard.kind for shard in verify_store(directory).shards]
        assert kinds == ["undecodable", None]
        assert verify_store(directory, decode=False).ok

    def test_repair_drops_the_shard(self, directory):
        report = repair_store(directory)
        assert report.kept == [shard_filename(1)]
        assert [name for name, _ in report.dropped] == [shard_filename(0)]
        assert len(ShardedTrace(directory).materialize()) == 12


class TestStateCodes:
    """``state_codes`` give ``-1`` a meaning (``None``); every other code
    must index the state vocabulary, like any other coded column."""

    @pytest.fixture
    def directory(self, tmp_path):
        directory = tmp_path / "s"
        core.Trace(
            core.TraceRecord(
                context=core.ClientContext(x=1.0), decision="d0", reward=0.0,
                state=state,
            )
            for state in (None, "s0", "s1")
        ).to_shards(directory)
        return directory

    def _reseal(self, directory, codes):
        def damage(arrays):
            arrays["state_codes"][:] = codes

        _rewrite_shard(directory, damage)

    def test_minus_one_decodes_as_none(self, directory):
        self._reseal(directory, [-1, 1, 0])
        states = [record.state for record in ShardedTrace(directory).materialize()]
        assert states == [None, "s1", "s0"]

    @pytest.mark.parametrize("codes", [[-2, 0, 1], [0, 1, 7], [0, 1, 2]])
    def test_code_outside_minus_one_to_vocabulary_is_a_decode_error(
        self, directory, codes
    ):
        self._reseal(directory, codes)
        with pytest.raises(ShardDecodeError, match="would not decode"):
            ShardedTrace(directory).materialize()

    def test_verify_reports_the_shard(self, directory, capsys):
        from repro.cli import main

        self._reseal(directory, [-2, 0, 1])
        assert [shard.kind for shard in verify_store(directory).shards] == [
            "undecodable"
        ]
        assert main(["verify", str(directory)]) == 1
        assert shard_filename(0) in capsys.readouterr().out

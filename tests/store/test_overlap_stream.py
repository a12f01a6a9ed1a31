"""Overlap diagnostics over chunked traces.

``overlap_report`` makes one pass over chunk columns and reduces the
gathered buffers once, so on a :class:`~repro.store.ShardedTrace` it must
equal the report on the materialised dense trace field for field —
including the first-seen key order of ``decision_coverage`` — for every
chunking and every propensity source, raise the same errors naming the
same absolute records, degrade like the estimators on a quarantining
reader, and never materialise the trace on the ``api.compare`` path.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro import api, core
from repro.core.diagnostics import overlap_report
from repro.core.propensity import EmpiricalPropensityModel
from repro.errors import PropensityError, StoreError
from repro.store import ShardedTrace
from repro.testing.faults import flip_shard_bit
from repro.workloads.synthetic import SyntheticWorkload

from tests.store.conftest import build_trace

RECORDS = 300
SHARD_SIZE = 90
CHUNKINGS = (1, 7, 1024, RECORDS)


def _fields(report):
    """Every report field, with ``decision_coverage`` as an ordered list."""
    return (
        report.n,
        report.ess,
        report.match_fraction,
        report.max_weight,
        report.mean_weight,
        report.zero_weight_fraction,
        report.min_propensity,
        list(report.decision_coverage.items()),
        report.warnings,
    )


def _raised(call):
    with pytest.raises(Exception) as excinfo:
        call()
    return type(excinfo.value), str(excinfo.value)


@pytest.fixture(scope="module")
def workload():
    return SyntheticWorkload()


@pytest.fixture(scope="module")
def old_policy(workload):
    return workload.logging_policy(epsilon=0.3)


@pytest.fixture(scope="module")
def dense(workload, old_policy):
    return workload.generate_trace(old_policy, RECORDS, np.random.default_rng(7))


@pytest.fixture(scope="module")
def shard_dir(dense, tmp_path_factory):
    directory = tmp_path_factory.mktemp("overlap") / "shards"
    dense.to_shards(directory, shard_size=SHARD_SIZE)
    return directory


@pytest.fixture(scope="module")
def candidates(workload):
    space = workload.space()
    last = space.decisions[-1]
    return {
        "epsilon": workload.logging_policy(epsilon=0.1, base_index=1),
        "uniform": core.UniformRandomPolicy(space),
        "deterministic": core.DeterministicPolicy(space, lambda context: last),
    }


@pytest.fixture(scope="module")
def sources(dense, old_policy, workload):
    model = EmpiricalPropensityModel(workload.space()).fit(dense)
    return {
        "logged": {},
        "old-policy": {"old_policy": old_policy},
        "propensity-model": {"propensity_model": model},
    }


class TestShardedEqualsDense:
    @pytest.mark.parametrize("chunk_records", CHUNKINGS)
    @pytest.mark.parametrize("source", ["logged", "old-policy", "propensity-model"])
    @pytest.mark.parametrize("candidate", ["epsilon", "uniform", "deterministic"])
    def test_field_for_field(
        self, dense, shard_dir, candidates, sources, candidate, source, chunk_records
    ):
        policy, kwargs = candidates[candidate], sources[source]
        sharded = ShardedTrace(shard_dir, chunk_records=chunk_records)
        expected = overlap_report(policy, ShardedTrace(shard_dir).materialize(), **kwargs)
        assert _fields(overlap_report(policy, sharded, **kwargs)) == _fields(expected)
        assert _fields(overlap_report(policy, dense, **kwargs)) == _fields(expected)


class TestErrorParity:
    @pytest.mark.parametrize("chunk_records", CHUNKINGS)
    def test_zero_old_propensity(self, shard_dir, candidates, workload, chunk_records):
        # A deterministic "old policy" gives every other decision zero
        # propensity — the denominator IPS cannot divide by.
        first = workload.space().decisions[0]
        old = core.DeterministicPolicy(workload.space(), lambda context: first)
        policy = candidates["uniform"]
        dense = _raised(
            lambda: overlap_report(
                policy, ShardedTrace(shard_dir).materialize(), old_policy=old
            )
        )
        sharded = ShardedTrace(shard_dir, chunk_records=chunk_records)
        assert dense[0] is PropensityError
        assert _raised(lambda: overlap_report(policy, sharded, old_policy=old)) == dense

    @pytest.mark.parametrize("chunk_records", CHUNKINGS)
    def test_missing_logged_propensity_names_the_absolute_record(
        self, tmp_path, monkeypatch, chunk_records
    ):
        records = list(build_trace(n=RECORDS))
        missing = 211
        records[missing] = core.TraceRecord(
            records[missing].context, records[missing].decision, records[missing].reward
        )
        dense = core.Trace(records)
        dense.to_shards(tmp_path / "shards", shard_size=SHARD_SIZE)
        # resolve_propensity_source rejects such a trace up front; claim
        # full coverage so the logged source meets the gap per record.
        monkeypatch.setattr(core.Trace, "has_propensities", lambda self: True)
        monkeypatch.setattr(ShardedTrace, "has_propensities", lambda self: True)
        space = core.DecisionSpace(sorted(dense.decision_set(), key=repr))
        policy = core.UniformRandomPolicy(space)
        expected = _raised(lambda: overlap_report(policy, dense))
        assert expected[0] is PropensityError
        assert f"trace record {missing} " in expected[1]
        sharded = ShardedTrace(tmp_path / "shards", chunk_records=chunk_records)
        assert _raised(lambda: overlap_report(policy, sharded)) == expected


class TestQuarantinedDiagnostics:
    """``api.compare`` with diagnostics on a quarantining reader degrades
    to the surviving records instead of raising from a full read."""

    @pytest.fixture
    def corrupted(self, shard_dir, tmp_path):
        directory = tmp_path / "shards"
        shutil.copytree(shard_dir, directory)
        flip_shard_bit(directory, 1)
        return directory

    def test_compare_reports_over_the_survivors(
        self, dense, corrupted, candidates, old_policy
    ):
        policy = candidates["epsilon"]
        report = api.compare(
            ShardedTrace(corrupted, on_corruption="quarantine"), policy
        )
        survivors = core.Trace(
            list(dense[:SHARD_SIZE]) + list(dense[2 * SHARD_SIZE :])
        )
        assert report.overlap.n == RECORDS - SHARD_SIZE
        assert _fields(report.overlap) == _fields(overlap_report(policy, survivors))
        for result in report.estimates.values():
            assert result.n == RECORDS - SHARD_SIZE
            assert result.diagnostics["store_quarantine"]["dropped_records"] == SHARD_SIZE

    def test_unaccounted_shortfall_raises(self, corrupted, candidates, monkeypatch):
        monkeypatch.setattr(ShardedTrace, "quarantined_records", lambda self: 0)
        trace = ShardedTrace(corrupted, on_corruption="quarantine")
        with pytest.raises(StoreError, match="streaming read"):
            overlap_report(candidates["epsilon"], trace)

    def test_every_shard_quarantined_raises(self, shard_dir, tmp_path, candidates):
        directory = tmp_path / "shards"
        shutil.copytree(shard_dir, directory)
        for shard in range(-(-RECORDS // SHARD_SIZE)):
            flip_shard_bit(directory, shard)
        trace = ShardedTrace(directory, on_corruption="quarantine")
        with pytest.raises(StoreError, match="lost to corruption"):
            overlap_report(candidates["epsilon"], trace)


class TestComparePathNeverMaterialises:
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_compare_with_diagnostics(self, shard_dir, candidates, monkeypatch, workers):
        expected = api.compare(
            ShardedTrace(shard_dir).materialize(), candidates["epsilon"]
        ).to_json()

        def refuse(self):
            raise AssertionError("the compare path materialised the sharded trace")

        monkeypatch.setattr(ShardedTrace, "materialize", refuse)
        monkeypatch.setattr(ShardedTrace, "columns", refuse)
        monkeypatch.setenv("REPRO_STREAM_WORKERS", workers)
        report = api.compare(
            ShardedTrace(shard_dir, chunk_records=32), candidates["epsilon"]
        )
        assert report.overlap is not None
        assert report.to_json() == expected

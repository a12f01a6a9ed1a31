"""Bootstrap and jackknife resample the point estimate's columns.

The oracle here is the protocol column resampling replaced: re-run
``estimator.estimate`` on ``trace.take(indices)`` once per replicate and
once per leave-out.  Every stream registry estimator must reproduce it
bit for bit wherever the per-record columns do not depend on position:
dense and sharded traces, sequential and forked streams, and inside
``api.compare``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import api, core
from repro.core.bootstrap import bootstrap_ci, jackknife_std_error
from repro.core.estimators.nonstationary import ReplayDoublyRobust
from repro.core.models.ensemble import CrossFitModel
from repro.core.models.tabular import TabularMeanModel
from repro.errors import EstimatorError
from repro.runtime.fallback import EstimatorFallbackChain
from repro.runtime.pool import _fork_available
from repro.store import ShardedTrace
from repro.store.streaming import STREAM_WORKERS_VAR
from repro.testing.faults import flip_shard_bit
from repro.workloads.synthetic import SyntheticWorkload

RECORDS = 300
SHARD_SIZE = 70

MODEL_BASED = {
    "dm": lambda model: core.DirectMethod(model),
    "dr": lambda model: core.DoublyRobust(model),
    "sndr": lambda model: core.SelfNormalizedDR(model),
    "switch-dr": lambda model: core.SwitchDR(model),
}
MODEL_FREE = {
    "ips": core.IPS,
    "clipped-ips": core.ClippedIPS,
    "snips": core.SelfNormalizedIPS,
    "matching": core.MatchingEstimator,
}
STREAM_ESTIMATORS = sorted({*MODEL_BASED, *MODEL_FREE})


def _build(name: str, model=None):
    """The estimator the registry builds for *name* (a fresh tabular
    model unless *model* is given)."""
    if name in MODEL_BASED:
        return MODEL_BASED[name](model if model is not None else TabularMeanModel())
    return MODEL_FREE[name]()


def _oracle_bootstrap(estimator, new, trace, old, replicates, seed):
    """One ``estimate`` per resample, after a full-trace point estimate."""
    estimator.estimate(new, trace, old_policy=old)
    generator = np.random.default_rng(seed)
    n = len(trace)
    values = []
    for _ in range(replicates):
        indices = generator.integers(0, n, size=n)
        try:
            values.append(
                estimator.estimate(new, trace.take(indices), old_policy=old).value
            )
        except EstimatorError:
            continue
    return np.asarray(values, dtype=float)


def _oracle_jackknife(estimator, new, trace, old, max_leave_out, seed):
    """One ``estimate`` per leave-out (the model is already fitted)."""
    n = len(trace)
    leave_outs = range(n)
    if max_leave_out is not None and max_leave_out < n:
        generator = np.random.default_rng(seed)
        leave_outs = sorted(
            int(i) for i in generator.choice(n, size=max_leave_out, replace=False)
        )
    values = np.asarray(
        [
            estimator.estimate(
                new, trace.take([i for i in range(n) if i != leave]), old_policy=old
            ).value
            for leave in leave_outs
        ]
    )
    m = values.size
    return float(np.sqrt((m - 1) / m * ((values - values.mean()) ** 2).sum()))


@pytest.fixture(scope="module")
def workload():
    return SyntheticWorkload()


@pytest.fixture(scope="module")
def old(workload):
    return workload.logging_policy(epsilon=0.3)


@pytest.fixture(scope="module")
def trace(workload, old):
    return workload.generate_trace(old, RECORDS, np.random.default_rng(31))


@pytest.fixture(scope="module", params=["optimal", "epsilon-greedy"])
def new(request, workload):
    if request.param == "optimal":
        return workload.optimal_policy()
    return workload.logging_policy(epsilon=0.3, base_index=1)


@pytest.fixture(scope="module")
def shard_dir(trace, tmp_path_factory):
    directory = tmp_path_factory.mktemp("bootstrap-columns") / "shards"
    trace.to_shards(directory, shard_size=SHARD_SIZE)
    return directory


class TestBootstrapMatchesTheOracle:
    @pytest.mark.parametrize("name", STREAM_ESTIMATORS)
    def test_dense(self, name, trace, new, old):
        result = bootstrap_ci(
            _build(name), new, trace, old_policy=old, replicates=50, rng=4
        )
        expected = _oracle_bootstrap(_build(name), new, trace, old, 50, 4)
        assert np.array_equal(result.replicates, expected)
        point = _build(name).estimate(new, trace, old_policy=old).value
        assert result.point_estimate == point

    @pytest.mark.parametrize("workers", [None, "2"])
    @pytest.mark.parametrize("name", STREAM_ESTIMATORS)
    def test_sharded(self, name, workers, shard_dir, new, old, monkeypatch):
        if workers is not None:
            if not _fork_available():
                pytest.skip("fork start method unavailable")
            monkeypatch.setenv(STREAM_WORKERS_VAR, workers)
        sharded = ShardedTrace(shard_dir)
        result = bootstrap_ci(
            _build(name), new, sharded, old_policy=old, replicates=15, rng=5
        )
        expected = _oracle_bootstrap(_build(name), new, sharded, old, 15, 5)
        assert np.array_equal(result.replicates, expected)

    @pytest.mark.parametrize("name", STREAM_ESTIMATORS)
    def test_inside_compare(self, name, trace, shard_dir, new, old):
        for source in (trace, ShardedTrace(shard_dir)):
            report = api.compare(
                source, new, estimators=(name,), propensities=old,
                bootstrap_replicates=15, rng=6,
            )
            expected = _oracle_bootstrap(_build(name), new, source, old, 15, 6)
            assert np.array_equal(report.bootstrap.replicates, expected)
            assert report.bootstrap.point_estimate == report.estimates[name].value


class TestJackknifeMatchesTheOracle:
    @pytest.mark.parametrize("name", sorted(MODEL_FREE))
    def test_model_free(self, name, trace, new, old):
        value = jackknife_std_error(
            _build(name), new, trace, old_policy=old, max_leave_out=40, rng=2
        )
        assert value == _oracle_jackknife(_build(name), new, trace, old, 40, 2)

    @pytest.mark.parametrize("name", sorted(MODEL_BASED))
    def test_pre_fitted_model(self, name, trace, new, old):
        model = TabularMeanModel().fit(trace)
        value = jackknife_std_error(
            _build(name, model), new, trace, old_policy=old, max_leave_out=40, rng=2
        )
        expected = _oracle_jackknife(_build(name, model), new, trace, old, 40, 2)
        assert value == expected

    def test_every_leave_out(self, trace, new, old):
        short = trace.take(range(60))
        snips = core.SelfNormalizedIPS()
        value = jackknife_std_error(snips, new, short, old_policy=old)
        assert value == _oracle_jackknife(snips, new, short, old, None, None)


def test_a_bootstrap_scores_each_chunk_once(shard_dir, workload, old, monkeypatch):
    calls = []
    chunk = core.IPS._stream_chunk

    def counted(self, *arguments):
        calls.append(len(arguments[1]))
        return chunk(self, *arguments)

    monkeypatch.setattr(core.IPS, "_stream_chunk", counted)
    sharded = ShardedTrace(shard_dir)
    bootstrap_ci(
        core.IPS(), workload.optimal_policy(), sharded, old_policy=old,
        replicates=200, rng=0,
    )
    assert calls == [hi - lo for _, lo, hi in sharded.plan_chunks()]


class TestQuarantinedTrace:
    """A bootstrap over a quarantined reader resamples the survivors."""

    @pytest.fixture
    def tolerant(self, workload, tmp_path):
        uniform = workload.uniform_policy()
        dense = workload.generate_trace(uniform, 120, np.random.default_rng(8))
        directory = tmp_path / "shards"
        dense.to_shards(directory, shard_size=30)
        flip_shard_bit(directory, 1, offset=512)
        survivors = dense.take([*range(30), *range(60, 120)])
        return ShardedTrace(directory, on_corruption="quarantine"), survivors

    def test_bootstrap_draws_from_the_survivors(self, tolerant, workload):
        sharded, survivors = tolerant
        new = workload.optimal_policy()
        result = bootstrap_ci(core.IPS(), new, sharded, replicates=20, rng=0)
        assert result.point_estimate == core.IPS().estimate(new, sharded).value
        expected = bootstrap_ci(core.IPS(), new, survivors, replicates=20, rng=0)
        assert result.point_estimate == expected.point_estimate
        assert np.array_equal(result.replicates, expected.replicates)

    def test_compare_keeps_the_quarantine_report(self, tolerant, workload):
        sharded, survivors = tolerant
        new = workload.optimal_policy()
        report = api.compare(
            sharded, new, estimators=("ips",), bootstrap_replicates=20, rng=0
        )
        assert "store_quarantine" in report.estimates["ips"].diagnostics
        expected = api.compare(
            survivors, new, estimators=("ips",), bootstrap_replicates=20, rng=0
        )
        replicates = expected.bootstrap.replicates
        assert np.array_equal(report.bootstrap.replicates, replicates)


class TestRewardModelFolding:
    def test_jackknife_fits_an_unfitted_model_on_every_record(self, trace, new, old):
        unfitted = jackknife_std_error(
            core.DoublyRobust(TabularMeanModel()), new, trace, old_policy=old,
            max_leave_out=40, rng=2,
        )
        fitted = jackknife_std_error(
            core.DoublyRobust(TabularMeanModel().fit(trace)), new, trace,
            old_policy=old, max_leave_out=40, rng=2,
        )
        assert unfitted == fitted

    def test_cross_fit_replicates_keep_held_out_predictions(self, trace, new, old):
        estimator = core.DoublyRobust(CrossFitModel(TabularMeanModel, folds=2))
        result = bootstrap_ci(
            estimator, new, trace, old_policy=old, replicates=30, rng=3
        )
        # Each record's DR term is answered by the fold model that held
        # it out, wherever a resample puts it.
        contributions = estimator.estimate(new, trace, old_policy=old).contributions
        generator = np.random.default_rng(3)
        expected = [
            contributions[generator.integers(0, RECORDS, size=RECORDS)].mean()
            for _ in range(30)
        ]
        assert np.array_equal(result.replicates, expected)


class TestEstimatorsWithoutStreamHooks:
    """The fallback chain and replay-DR still re-estimate each resample."""

    def test_replay_dr_in_compare(self, trace, workload, old):
        new = workload.optimal_policy()
        report = api.compare(
            trace, new, estimators=("replay-dr",), propensities=old,
            bootstrap_replicates=5, rng=0,
        )
        replay = ReplayDoublyRobust(TabularMeanModel())
        expected = _oracle_bootstrap(replay, new, trace, old, 5, 0)
        assert np.array_equal(report.bootstrap.replicates, expected)

    def test_fallback_chain(self, trace, new, old):
        def chain():
            return EstimatorFallbackChain(
                [core.SelfNormalizedIPS(), core.DirectMethod(TabularMeanModel())]
            )

        result = bootstrap_ci(chain(), new, trace, old_policy=old, replicates=20, rng=1)
        expected = _oracle_bootstrap(chain(), new, trace, old, 20, 1)
        assert np.array_equal(result.replicates, expected)

"""Columnar tabular-model fast paths are bit-identical to the batch API.

``TabularMeanModel.predict_trace`` / ``predict_trace_for_decision``
encode a trace's columns into bucket codes once and gather predictions;
they must reproduce ``predict_batch`` exactly, including its error
message and cache invalidation on refit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.models.tabular import TabularMeanModel
from repro.errors import ModelError
from repro.workloads.synthetic import SyntheticWorkload


@pytest.fixture(scope="module")
def workload():
    return SyntheticWorkload()


@pytest.fixture(scope="module")
def trace(workload):
    old = workload.logging_policy(epsilon=0.3)
    return workload.generate_trace(old, 400, np.random.default_rng(11))


class TestTabularTracePaths:
    """predict_trace/predict_trace_for_decision vs the scalar batch API."""

    @pytest.mark.parametrize("fallback", ["decision", "global"])
    def test_predict_trace_matches_predict_batch(self, trace, fallback):
        model = TabularMeanModel(fallback=fallback)
        model.fit(trace)
        columns = trace.columns()
        expected = model.predict_batch(columns.contexts, columns.decisions)
        assert np.array_equal(model.predict_trace(columns), expected)
        positions = np.asarray([0, 3, 7, len(columns) - 1], dtype=np.intp)
        assert np.array_equal(
            model.predict_trace(columns, positions), expected[positions]
        )

    def test_predict_trace_for_decision_matches_predict_batch(self, trace):
        model = TabularMeanModel(fallback="decision")
        model.fit(trace)
        columns = trace.columns()
        decision = columns.decision_vocabulary[0]
        expected = model.predict_batch(
            columns.contexts, [decision] * len(columns)
        )
        assert np.array_equal(
            model.predict_trace_for_decision(columns, decision), expected
        )
        positions = np.asarray([1, 2, 11], dtype=np.intp)
        assert np.array_equal(
            model.predict_trace_for_decision(columns, decision, positions),
            expected[positions],
        )

    def test_error_fallback_raises_the_scalar_message(self, trace):
        # Fit on a prefix so later records hit unseen buckets; the fast
        # path must raise the exact error of the first failing record.
        model = TabularMeanModel(fallback="error")
        model.fit(trace[: len(trace) // 4])
        columns = trace.columns()
        scalar_error = None
        for record in trace:
            try:
                model.predict(record.context, record.decision)
            except ModelError as error:
                scalar_error = str(error)
                break
        if scalar_error is None:
            pytest.skip("prefix covered every bucket; nothing to compare")
        with pytest.raises(ModelError) as caught:
            model.predict_trace(columns)
        assert str(caught.value) == scalar_error

    def test_refit_invalidates_consumer_caches(self, trace):
        model = TabularMeanModel()
        model.fit(trace[: len(trace) // 2])
        columns = trace.columns()
        first = model.predict_trace(columns)
        model.fit(trace)  # refit on more data: new fit token, fresh codes
        second = model.predict_trace(columns)
        expected = model.predict_batch(columns.contexts, columns.decisions)
        assert np.array_equal(second, expected)
        assert not np.array_equal(first, second)

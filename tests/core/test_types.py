"""Tests for the core data model (contexts, records, traces)."""

import math

import numpy as np
import pytest

from repro.core.types import ClientContext, Trace, TraceRecord
from repro.errors import TraceError


class TestClientContext:
    def test_features_roundtrip(self):
        context = ClientContext({"isp": "a", "x": 3})
        assert context.features == {"isp": "a", "x": 3}

    def test_kwargs_construction(self):
        context = ClientContext(isp="a", x=3)
        assert context["isp"] == "a"
        assert context["x"] == 3

    def test_kwargs_override_mapping(self):
        context = ClientContext({"x": 1}, x=2)
        assert context["x"] == 2

    def test_hashable_and_equal(self):
        first = ClientContext(a=1, b="z")
        second = ClientContext(b="z", a=1)
        assert first == second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1

    def test_getitem_missing_raises(self):
        with pytest.raises(KeyError):
            ClientContext(a=1)["b"]

    def test_get_with_default(self):
        context = ClientContext(a=1)
        assert context.get("b", "fallback") == "fallback"
        assert context.get("a") == 1

    def test_contains(self):
        context = ClientContext(a=1)
        assert "a" in context
        assert "b" not in context

    def test_keys_sorted(self):
        context = ClientContext(b=1, a=2, c=3)
        assert context.keys() == ("a", "b", "c")

    def test_values_for_order(self):
        context = ClientContext(a=1, b=2, c=3)
        assert context.values_for(["c", "a"]) == (3, 1)

    def test_values_for_missing_raises(self):
        with pytest.raises(KeyError):
            ClientContext(a=1).values_for(["b"])

    def test_restrict(self):
        context = ClientContext(a=1, b=2, c=3)
        assert context.restrict(["a", "c"]) == ClientContext(a=1, c=3)

    def test_with_features(self):
        context = ClientContext(a=1)
        extended = context.with_features(b=2, a=9)
        assert extended["a"] == 9
        assert extended["b"] == 2
        assert context["a"] == 1  # original untouched

    def test_numeric_vector(self):
        context = ClientContext(x=2.0, y=3)
        np.testing.assert_allclose(context.numeric_vector(["y", "x"]), [3.0, 2.0])

    def test_numeric_vector_rejects_strings(self):
        with pytest.raises((TypeError, ValueError)):
            ClientContext(x="nope").numeric_vector()

    def test_empty_feature_name_rejected(self):
        with pytest.raises(TraceError):
            ClientContext({"": 1})


class TestTraceRecord:
    def _record(self, **overrides):
        defaults = dict(
            context=ClientContext(a=1),
            decision="d",
            reward=1.0,
            propensity=0.5,
        )
        defaults.update(overrides)
        return TraceRecord(**defaults)

    def test_propensity_bounds(self):
        with pytest.raises(TraceError):
            self._record(propensity=0.0)
        with pytest.raises(TraceError):
            self._record(propensity=1.5)
        assert self._record(propensity=1.0).propensity == 1.0

    def test_none_propensity_allowed(self):
        assert self._record(propensity=None).propensity is None

    def test_nonfinite_reward_rejected(self):
        with pytest.raises(TraceError):
            self._record(reward=float("nan"))
        with pytest.raises(TraceError):
            self._record(reward=float("inf"))

    def test_with_reward_preserves_other_fields(self):
        record = self._record(timestamp=7.0, state="peak")
        changed = record.with_reward(9.0)
        assert changed.reward == 9.0
        assert changed.timestamp == 7.0
        assert changed.state == "peak"
        assert changed.propensity == record.propensity

    def test_with_propensity(self):
        assert self._record().with_propensity(0.25).propensity == 0.25

    def test_with_state(self):
        assert self._record().with_state("peak").state == "peak"


class TestTrace:
    def _trace(self, n=5):
        return Trace(
            TraceRecord(
                context=ClientContext(x=float(i)),
                decision="d" if i % 2 == 0 else "e",
                reward=float(i),
                propensity=0.5,
                timestamp=float(i),
            )
            for i in range(n)
        )

    def test_len_iter_getitem(self):
        trace = self._trace()
        assert len(trace) == 5
        assert [r.reward for r in trace] == [0, 1, 2, 3, 4]
        assert trace[2].reward == 2.0

    def test_slice_returns_trace(self):
        trace = self._trace()
        sub = trace[1:3]
        assert isinstance(sub, Trace)
        assert len(sub) == 2

    def test_append_rejects_non_record(self):
        with pytest.raises(TraceError):
            Trace().append("not a record")

    def test_rewards_array(self):
        np.testing.assert_allclose(self._trace(3).rewards(), [0.0, 1.0, 2.0])

    def test_propensities_nan_for_missing(self):
        trace = Trace(
            [
                TraceRecord(ClientContext(x=1), "d", 1.0, propensity=0.5),
                TraceRecord(ClientContext(x=1), "d", 1.0),
            ]
        )
        values = trace.propensities()
        assert values[0] == 0.5
        assert math.isnan(values[1])

    def test_has_propensities(self):
        assert self._trace().has_propensities()
        trace = Trace([TraceRecord(ClientContext(x=1), "d", 1.0)])
        assert not trace.has_propensities()

    def test_decision_set(self):
        assert self._trace().decision_set() == {"d", "e"}

    def test_feature_names_consistent(self):
        assert self._trace().feature_names() == ("x",)

    def test_feature_names_empty_trace_raises(self):
        with pytest.raises(TraceError):
            Trace().feature_names()

    def test_feature_names_inconsistent_schema_raises(self):
        trace = Trace(
            [
                TraceRecord(ClientContext(x=1), "d", 1.0),
                TraceRecord(ClientContext(y=1), "d", 1.0),
            ]
        )
        with pytest.raises(TraceError):
            trace.feature_names()

    def test_feature_names_names_the_first_offending_context(self):
        # Shared context objects are checked once each, in first-seen
        # order; a slice keeps its parent's context codes.
        x, y, z = ClientContext(x=1), ClientContext(y=1), ClientContext(z=1)
        trace = Trace(
            TraceRecord(context, "d", 1.0) for context in (x, z, x, y, z, y)
        )
        with pytest.raises(TraceError, match=r"\('x',\) vs \('z',\)$"):
            trace.feature_names()
        with pytest.raises(TraceError, match=r"\('x',\) vs \('y',\)$"):
            trace[2:].feature_names()
        assert trace[4:5].feature_names() == ("z",)

    def test_filter(self):
        filtered = self._trace().filter(lambda r: r.reward > 2)
        assert len(filtered) == 2

    def test_map_rewards(self):
        doubled = self._trace(3).map_rewards(lambda r: r.reward * 2)
        np.testing.assert_allclose(doubled.rewards(), [0.0, 2.0, 4.0])

    def test_split_deterministic_prefix(self):
        first, second = self._trace(10).split(0.3)
        assert len(first) == 3
        assert len(second) == 7
        assert first[0].reward == 0.0

    def test_split_random_partitions(self):
        rng = np.random.default_rng(0)
        first, second = self._trace(10).split(0.5, rng)
        assert len(first) == 5
        assert len(second) == 5
        rewards = sorted([r.reward for r in first] + [r.reward for r in second])
        assert rewards == list(map(float, range(10)))

    def test_split_bad_fraction(self):
        with pytest.raises(TraceError):
            self._trace().split(1.5)

    def test_subsample(self):
        rng = np.random.default_rng(0)
        sub = self._trace(10).subsample(4, rng)
        assert len(sub) == 4
        # order preserved
        timestamps = [r.timestamp for r in sub]
        assert timestamps == sorted(timestamps)

    def test_subsample_too_many(self):
        with pytest.raises(TraceError):
            self._trace(3).subsample(10, np.random.default_rng(0))

    def test_group_by_decision(self):
        groups = self._trace().group_by_decision()
        assert set(groups) == {"d", "e"}
        assert len(groups["d"]) == 3

    def test_mean_reward(self):
        assert self._trace(5).mean_reward() == 2.0

    def test_mean_reward_empty_raises(self):
        with pytest.raises(TraceError):
            Trace().mean_reward()

    def test_equality(self):
        assert self._trace() == self._trace()
        assert self._trace(3) != self._trace(4)


class TestSerialization:
    def _trace(self):
        return Trace(
            [
                TraceRecord(
                    context=ClientContext(isp="a", x=1.5),
                    decision=("cdn-1", 720),
                    reward=2.5,
                    propensity=0.25,
                    timestamp=3.0,
                    state="peak",
                ),
                TraceRecord(
                    context=ClientContext(isp="b", x=-1.0),
                    decision="direct",
                    reward=-0.5,
                ),
            ]
        )

    def test_jsonl_roundtrip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        original = self._trace()
        original.to_jsonl(path)
        restored = Trace.from_jsonl(path)
        assert restored == original
        # tuple decision survives exactly
        assert restored[0].decision == ("cdn-1", 720)

    def test_csv_roundtrip(self, tmp_path):
        path = str(tmp_path / "trace.csv")
        original = self._trace()
        original.to_csv(path)
        restored = Trace.from_csv(path)
        assert len(restored) == 2
        assert restored[0].decision == ("cdn-1", 720)
        assert restored[0].propensity == 0.25
        assert restored[1].propensity is None
        assert restored[0].context["isp"] == "a"

    def test_jsonl_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(TraceError):
            Trace.from_jsonl(str(path))

    def test_jsonl_missing_field_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"context": {}, "decision": "d"}\n')
        with pytest.raises(TraceError):
            Trace.from_jsonl(str(path))

    def test_empty_csv_roundtrip(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        Trace().to_csv(path)
        assert len(Trace.from_csv(path)) == 0

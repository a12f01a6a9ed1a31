"""Which public calls of the program become which ledger layers.

Every function here only wraps callables through :class:`ledger.Patches`;
nothing under ``src/`` changes.  Layer names follow the module that owns
the call (``store.sharded.chunks_s`` is time inside
``repro.store.sharded.ShardedTrace.iter_chunks``).
"""

from __future__ import annotations

from typing import Iterator, Type

from ledger import Ledger, Patches, counted, flushing, timed

MODEL_FIT = ("fit",)
MODEL_PREDICT = ("predict", "predict_batch", "predict_trace", "predict_trace_for_decision")


def _subclasses(root: Type) -> Iterator[Type]:
    seen = set()
    pending = [root]
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        yield cls
        pending.extend(cls.__subclasses__())


def wrap_models(patches: Patches, ledger: Ledger) -> None:
    """``core.models.fit_s`` / ``predict_s`` on every reward model class."""
    import repro.cbn.wise  # noqa: F401 - registers WiseRewardModel
    import repro.core.models  # noqa: F401 - registers the built-in models
    from repro.core.models.base import RewardModel

    for cls in _subclasses(RewardModel):
        for name in MODEL_FIT + MODEL_PREDICT:
            if name in cls.__dict__:
                layer = "core.models.fit_s" if name in MODEL_FIT else "core.models.predict_s"
                patches.method(cls, name, lambda f, layer=layer: timed(ledger, layer, f))


def wrap_estimators(patches: Patches, ledger: Ledger) -> None:
    """``core.estimators.estimate_s.<name>`` on every ``estimate`` entry."""
    from repro.api.specs import _HistoryEstimatorAdapter
    from repro.core.estimators.base import OffPolicyEstimator

    def layer(self, *args, **kwargs) -> str:
        return f"core.estimators.estimate_s.{self.name}"

    owners = [cls for cls in _subclasses(OffPolicyEstimator) if "estimate" in cls.__dict__]
    owners.append(_HistoryEstimatorAdapter)
    for cls in owners:
        patches.method(cls, "estimate", lambda f: timed(ledger, layer, f))


def wrap_store_reads(patches: Patches, ledger: Ledger, stream_layer: str) -> None:
    """Shard reads, chunking, contracts and the streaming engine."""
    import repro.core.contracts as contracts
    import repro.experiments.harness as harness
    import repro.store.integrity as integrity
    import repro.store.streaming as streaming
    from repro.store.sharded import ShardedTrace

    patches.method(ShardedTrace, "__init__", lambda f: timed(ledger, "store.sharded.open_s", f))
    patches.method(
        ShardedTrace,
        "iter_chunks",
        lambda f: timed(ledger, "store.sharded.chunks_s", f, items="store.sharded.chunks"),
    )
    patches.function(
        integrity,
        "read_shard_with_retry",
        lambda f: counted(ledger, "store.shard_bytes_read", len, f),
    )
    patches.function(
        contracts, "check_trace_columns", lambda f: timed(ledger, "core.contracts.check_s", f)
    )
    patches.function(streaming, "stream_estimate", lambda f: timed(ledger, stream_layer, f))
    # Pool task functions: forked workers persist their ledgers after each task.
    patches.function(streaming, "_stream_block", lambda f: flushing(ledger, f))
    patches.function(harness, "_run_block", lambda f: flushing(ledger, f))

"""Spec fingerprints are pinned: the hex of a fixed set of specs must not
move, whichever way each spec was built (served cache keys and clients'
stored fingerprints depend on it)."""

from __future__ import annotations

import pytest

from repro.api.specs import EstimatorConfig, PolicySpec, TraceRef

CONSTANT_TUPLES = (
    "d00ec881a081652223c52694bb48d1047c0b7977a31c272c519e3af4386d616b"
)

PINNED = [
    (
        PolicySpec.from_dict({"kind": "uniform", "options": {"space": ["a", "b", "c"]}}),
        "bca83c4d239609a5dc4d8dc5e66adacf93f8fedbab12259b090b44ecf2cf5f1c",
    ),
    (
        PolicySpec.from_dict(
            {
                "kind": "constant",
                "options": {
                    "space": [{"__tuple__": ["cdn-1", 720]}, {"__tuple__": ["cdn-2", 1080]}],
                    "decision": {"__tuple__": ["cdn-2", 1080]},
                },
            }
        ),
        CONSTANT_TUPLES,
    ),
    (
        PolicySpec(
            kind="constant",
            options={"space": [("cdn-1", 720), ("cdn-2", 1080)], "decision": ("cdn-2", 1080)},
        ),
        CONSTANT_TUPLES,
    ),
    (
        PolicySpec.from_dict(
            {
                "kind": "epsilon-greedy",
                "options": {
                    "epsilon": 0.25,
                    "base": {"kind": "constant", "options": {"space": ["a", "b"], "decision": "b"}},
                },
            }
        ),
        "c3f8f16148c825ac20e25071956714e0cb59b750475966f821ebf22a08d46e26",
    ),
    (
        PolicySpec.from_dict(
            {
                "kind": "tabular",
                "options": {
                    "space": ["a", "b"],
                    "key_features": ["x"],
                    "table": {"__pairs__": [[{"__tuple__": [1.0]}, {"a": 1.0}]]},
                    "default": {"b": 1.0},
                },
            }
        ),
        "eaeb724d66091811fbeeb4e375db2d842d1106f5f212a121208b3fe1d84f26f0",
    ),
    (
        PolicySpec.from_dict(
            {
                "kind": "mixture",
                "options": {
                    "components": [{"kind": "uniform", "options": {"space": ["a", "b"]}}],
                    "weights": [1],
                },
            }
        ),
        "85e65ce46ace38a4cb69bab8110518de7373cdc2e24cdd4beb21634093a99f56",
    ),
    (PolicySpec(kind="uniform"), "ef19465316ad21c3704b574364bf74111d857e3855a387cb74762d72c8ec1f5a"),
    (
        EstimatorConfig.from_dict({"name": "dr"}),
        "d9ff8c127a13a2d9f9bc39ac1469857d708bbc32c58938e39de2d3cedd5c2b5d",
    ),
    (
        EstimatorConfig.from_dict(
            {"name": "dr", "options": {"clip": 10.0, "model": {"name": "knn", "options": {"k": 7}}}}
        ),
        "d7ced5175c1c7f69a6728ed45462376cd46ec9f32d97ae94dbe535daf9577e62",
    ),
    (
        EstimatorConfig(name="clipped-ips", options={"clip": 2}),
        "3ea03d752744265a2df04a058fde832163a5a7bfd7a9c6de0772568637b4c2ca",
    ),
    (TraceRef.from_dict({"name": "demo"}), "d7d234f759ec34fd6298b7e32318614760070aaef9f4e92ced928324b49a0602"),
]


@pytest.mark.parametrize("spec, expected", PINNED, ids=[repr(spec)[:48] for spec, _ in PINNED])
def test_fingerprint_pinned(spec, expected):
    assert spec.fingerprint == expected
    assert type(spec).from_dict(spec.to_dict()).fingerprint == expected

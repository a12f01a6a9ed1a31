"""Canonical JSON encoding for evaluation payloads and spec fingerprints.

The service tier (:mod:`repro.serve`) and the spec-addressable facade
(:mod:`repro.api.specs`) both need one property from their wire format:
**a JSON round trip must be lossless**, so a served evaluation is
bit-identical to a direct library call and a spec's sha256 fingerprint
is the same however the spec was constructed.  Python's ``json`` module
round-trips finite floats exactly (``repr`` emits the shortest string
that parses back to the same double), so the encoder's job is the
residue JSON cannot carry natively:

* tuples (composite decisions like ``("cdn-1", 720)``) — tagged
  ``{"__tuple__": [...]}``, matching the trace JSONL format;
* non-finite floats (``nan`` standard errors) — tagged
  ``{"__float__": "nan" | "inf" | "-inf"}`` so payloads stay strict
  JSON (``allow_nan=False``);
* dicts with non-string keys (per-decision coverage counts) — tagged
  ``{"__pairs__": [[key, value], ...]}``;
* numpy arrays (contributions, bootstrap replicates) — tagged
  ``{"__ndarray__": [...], "dtype": "float64"}``;
* numpy scalars — demoted to the matching Python ``int``/``float``/
  ``bool`` (``np.float64`` already *is* a ``float``; the integer kinds
  are not JSON-serialisable without this).

:func:`canonical_json` fixes key order and separators on top of the
encoding, and :func:`fingerprint` hashes that canonical form — two specs
fingerprint identically iff they encode identically.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any

import numpy as np

from repro.errors import TraceError

#: Tag keys the decoder recognises; a *plain* payload dict must not use
#: them as ordinary string keys (the encoder rejects the collision).
TAGS = ("__tuple__", "__float__", "__pairs__", "__ndarray__")

_FLOAT_TAGS = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf")}


def encode_value(value: Any) -> Any:
    """Encode *value* into the tagged, JSON-serialisable form.

    Raises :class:`~repro.errors.TraceError` for values with no faithful
    JSON form (sets, arbitrary objects) — an unencodable payload must
    fail loudly at the boundary, not serialise as a lossy ``str()``.
    """
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isfinite(value):
            return value
        if math.isnan(value):
            return {"__float__": "nan"}
        return {"__float__": "inf" if value > 0 else "-inf"}
    if isinstance(value, tuple):
        return {"__tuple__": [encode_value(item) for item in value]}
    if isinstance(value, list):
        return [encode_value(item) for item in value]
    if isinstance(value, np.ndarray):
        return {
            "__ndarray__": [encode_value(item) for item in value.tolist()],
            "dtype": str(value.dtype),
        }
    if isinstance(value, dict):
        if all(isinstance(key, str) for key in value):
            collisions = set(value) & set(TAGS)
            if collisions:
                raise TraceError(
                    f"cannot encode a dict using reserved tag key(s) "
                    f"{sorted(collisions)}"
                )
            return {key: encode_value(item) for key, item in value.items()}
        return {
            "__pairs__": [
                [encode_value(key), encode_value(item)]
                for key, item in value.items()
            ]
        }
    raise TraceError(
        f"value of type {type(value).__name__} has no JSON encoding: {value!r}"
    )


def decode_value(payload: Any) -> Any:
    """Inverse of :func:`encode_value`.

    Idempotent on already-decoded Python values (tuples pass through,
    plain numbers pass through), so spec constructors can decode their
    options whether they came off the wire or straight from Python code.
    """
    if isinstance(payload, tuple):
        return tuple(decode_value(item) for item in payload)
    if isinstance(payload, list):
        return [decode_value(item) for item in payload]
    if not isinstance(payload, dict):
        return payload
    if set(payload) == {"__float__"}:
        try:
            return _FLOAT_TAGS[payload["__float__"]]
        except (KeyError, TypeError):
            raise TraceError(f"unknown float tag {payload['__float__']!r}") from None
    try:
        if set(payload) == {"__tuple__"}:
            return tuple(decode_value(item) for item in payload["__tuple__"])
        if set(payload) == {"__pairs__"}:
            return {
                decode_value(key): decode_value(item)
                for key, item in payload["__pairs__"]
            }
        if set(payload) == {"__ndarray__", "dtype"}:
            return np.asarray(
                [decode_value(item) for item in payload["__ndarray__"]],
                dtype=np.dtype(payload["dtype"]),
            )
    except (TypeError, ValueError) as error:
        # A malformed tag is bad input, like an unknown float tag.
        raise TraceError(
            f"malformed tagged value with keys {sorted(payload)}: {error}"
        ) from None
    return {key: decode_value(item) for key, item in payload.items()}


def canonical_json(value: Any) -> str:
    """The canonical JSON text of *value*: encoded, sorted keys, compact
    separators, strict (``allow_nan=False``) — the form fingerprints
    hash, so it must be a pure function of the value."""
    return json.dumps(
        encode_value(value),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )


def fingerprint(value: Any) -> str:
    """sha256 hex digest of :func:`canonical_json` of *value*.

    This is the identity the service tier caches on: equal fingerprints
    mean byte-equal canonical payloads, which (by the lossless-encoding
    property) mean the same resolved policy/estimator/request.
    """
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def float_list(values: np.ndarray) -> list:
    """A float array as a JSON-ready list (non-finite entries tagged).

    The common all-finite case stays a flat list of numbers — compact
    and directly readable by non-Python clients; :func:`decode_value`
    plus ``np.asarray(..., dtype=float)`` restores the exact doubles.
    """
    array = np.asarray(values, dtype=float)
    if array.size == 0 or bool(np.isfinite(array).all()):
        return [float(item) for item in array.tolist()]
    return [encode_value(float(item)) for item in array.tolist()]

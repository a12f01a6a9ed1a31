"""Declared wire shapes: one field table per JSON object, one checker.

Spec dicts, served requests and responses, and telemetry lines are each
declared once as a tuple of :class:`Field`.  :func:`read` checks a
payload against its table and writers emit with :func:`build` from the
same table, so a validator accepts exactly what its writer produces.
A check maps a value to its (possibly converted) value or raises
:class:`ValueError` with a phrase like ``"must be a boolean, got 3"``,
which :func:`read` re-raises as the caller's error class.
:func:`validate_paths` is the ``python -m ... validate`` loop.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

#: The default of a field that has none: the key must be present.
REQUIRED = object()

_HEX = frozenset("0123456789abcdef")


def anything(value: Any) -> Any:
    """The check of a field whose value is checked elsewhere."""
    return value


class Field(NamedTuple):
    """One declared field: its *name*, value *check* and *default*.

    A field with a default is optional; :func:`read` gives it the
    default, unchecked, when it is absent or ``null``.
    """

    name: str
    check: Callable[[Any], Any] = anything
    default: Any = REQUIRED


Fields = Sequence[Field]


def _key_error(
    payload: Mapping[str, Any], fields: Fields, what: str, error: type
) -> Exception:
    """The error naming every missing and unknown key of *payload*."""
    missing = [f.name for f in fields if f.default is REQUIRED and f.name not in payload]
    unknown = sorted(map(str, set(payload) - {f.name for f in fields}))
    parts = [f"missing key(s) {missing}"] if missing else []
    if unknown:
        parts.append(f"unknown key(s) {unknown}")
    expected = ", ".join(
        f.name if f.default is REQUIRED else f"{f.name} (optional)" for f in fields
    )
    return error(f"{what}: {'; '.join(parts)}; expected keys: {expected}")


def check_keys(payload: Any, fields: Fields, what: str, error: type) -> None:
    """Reject a *payload* that is not an object or has missing or unknown keys."""
    if not isinstance(payload, Mapping):
        raise error(f"{what} must be a JSON object, got {type(payload).__name__}")
    names = {f.name for f in fields}
    if payload.keys() - names or any(
        f.default is REQUIRED and f.name not in payload for f in fields
    ):
        raise _key_error(payload, fields, what, error)


def read(payload: Any, fields: Fields, what: str, error: type) -> Dict[str, Any]:
    """*payload*'s checked values, defaults filled, in declaration order.

    Fields are checked in order, so the first bad value is the one
    reported; a missing required key fails naming every missing and
    unknown key, and unknown keys fail after the last field.  Every
    failure is an *error* whose message starts with *what*.
    """
    if not isinstance(payload, Mapping):
        raise error(f"{what} must be a JSON object, got {type(payload).__name__}")
    values: Dict[str, Any] = {}
    for field in fields:
        value = payload.get(field.name)
        if value is None and field.default is not REQUIRED:
            values[field.name] = field.default
            continue
        if field.name not in payload:
            raise _key_error(payload, fields, what, error)
        try:
            values[field.name] = field.check(value)
        except ValueError as invalid:
            raise error(f"{what}: {field.name} {invalid}") from None
    if payload.keys() - values.keys():
        raise _key_error(payload, fields, what, error)
    return values


def build(fields: Fields, **values: Any) -> Dict[str, Any]:
    """The object *fields* declare, keys in declaration order."""
    return {field.name: values[field.name] for field in fields}


# -- value checks -------------------------------------------------------


def _check(accepts: Callable[[Any], Any], expected: str) -> Callable[[Any], Any]:
    """A check passing the values *accepts* approves, unchanged."""

    def check(value: Any) -> Any:
        if not accepts(value):
            raise ValueError(f"must be {expected}, got {value!r}")
        return value

    return check


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


text = _check(lambda value: isinstance(value, str), "a string")
nonempty_text = _check(lambda value: isinstance(value, str) and value, "a non-empty string")
boolean = _check(lambda value: isinstance(value, bool), "a boolean")
integer = _check(_is_int, "an integer")
count = _check(lambda value: _is_int(value) and value >= 0, "a non-negative integer")
sha256_hex = _check(
    lambda value: isinstance(value, str) and len(value) == 64 and _HEX.issuperset(value),
    "a 64-char sha256 hex digest",
)


def number(value: Any) -> float:
    """A JSON number, as a ``float``."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"must be a number, got {value!r}")
    return float(value)


def mapping(value: Any, item: Callable[[Any], Any] = anything) -> Dict[str, Any]:
    """A string-keyed mapping whose every value passes *item*, as a ``dict``."""
    if not isinstance(value, Mapping) or not all(isinstance(key, str) for key in value):
        raise ValueError(f"must be a string-keyed mapping, got {type(value).__name__}")
    return {key: item(entry) for key, entry in value.items()}


def one_of(*choices: Any) -> Callable[[Any], Any]:
    """A check accepting exactly *choices* (type included: ``true`` is not ``1``)."""
    return _check(
        lambda value: any(type(value) is type(c) and value == c for c in choices),
        " or ".join(repr(choice) for choice in choices),
    )


def list_of(item: Callable[[Any], Any], nonempty: bool = False) -> Callable[[Any], list]:
    """A check accepting a list whose every entry passes *item*."""

    def check(value: Any) -> list:
        if not isinstance(value, (list, tuple)) or (nonempty and not value):
            kind = "a non-empty list" if nonempty else "a list"
            raise ValueError(f"must be {kind}, got {value!r}")
        checked = []
        for index, entry in enumerate(value):
            try:
                checked.append(item(entry))
            except ValueError as invalid:
                raise ValueError(f"entry {index} {invalid}") from None
        return checked

    return check


# -- the validator CLI ----------------------------------------------------


def validate_paths(
    argv: Optional[List[str]],
    usage: str,
    validate: Callable[[str], Any],
    describe: Callable[[Any], str],
    error: type,
) -> int:
    """Validate each path argument: ``OK path: <describe>`` on stdout or
    ``INVALID <error>`` on stderr; exit 0 when all pass, 1 otherwise
    (and on no arguments, after printing *usage*)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print(f"usage: {usage}", file=sys.stderr)
        return 1
    status = 0
    for raw in argv:
        try:
            result = validate(raw)
        except error as invalid:
            print(f"INVALID {invalid}", file=sys.stderr)
            status = 1
        else:
            print(f"OK {raw}: {describe(result)}")
    return status

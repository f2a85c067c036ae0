"""Wire protocol of the ``repro serve`` daemon.

Newline-delimited JSON, version-stamped.  Clients send *requests* —
one JSON object per line, ``op`` selecting the verb — and receive
*responses* (``"ok": true/false``, echoing the request's ``id``) plus,
for jobs they submitted or subscribed to, asynchronous *events*
(``"event": "bound" | "done"``) interleaved on the same connection.

Validation is strict: an unknown op or field is rejected with a
did-you-mean suggestion rather than silently ignored, so a typo'd
``"buget"`` fails loudly instead of running unbudgeted for an hour.
All validation lives here, in pure functions over plain dicts, so the
daemon's network layer stays a thin shell and the exact same checks
run in unit tests with no socket in sight.
"""

from __future__ import annotations

import difflib
import json
from typing import Any, Callable, Dict, Optional, Tuple

from ..sat.types import Budget

__all__ = ["PROTOCOL_VERSION", "ProtocolError", "validate_request",
           "encode_line", "decode_line", "ok_response", "error_response",
           "OPS"]

PROTOCOL_VERSION = 1

MAX_LINE_BYTES = 1 << 20        # 1 MiB: no legitimate request is bigger


class ProtocolError(Exception):
    """A malformed request; the message is sent back verbatim."""


# ----------------------------------------------------------------------
# Field validators: value -> normalized value, or raise ProtocolError.
# ----------------------------------------------------------------------
def _string(name: str) -> Callable[[Any], Any]:
    def check(value: Any) -> str:
        if not isinstance(value, str) or not value:
            raise ProtocolError(f"field {name!r} must be a "
                                f"non-empty string")
        return value
    return check


def _choice(name: str, *allowed: str) -> Callable[[Any], Any]:
    def check(value: Any) -> str:
        if value not in allowed:
            raise ProtocolError(
                f"field {name!r} must be one of "
                f"{', '.join(repr(a) for a in allowed)}, got {value!r}")
        return value
    return check


def _nonneg_int(name: str) -> Callable[[Any], Any]:
    def check(value: Any) -> int:
        if isinstance(value, bool) or not isinstance(value, int) \
                or value < 0:
            raise ProtocolError(f"field {name!r} must be a "
                                f"non-negative integer, got {value!r}")
        return value
    return check


def _any_int(name: str) -> Callable[[Any], Any]:
    def check(value: Any) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ProtocolError(f"field {name!r} must be an integer, "
                                f"got {value!r}")
        return value
    return check


def _pos_number(name: str) -> Callable[[Any], Any]:
    def check(value: Any) -> float:
        if isinstance(value, bool) or \
                not isinstance(value, (int, float)) or value <= 0:
            raise ProtocolError(f"field {name!r} must be a positive "
                                f"number, got {value!r}")
        return float(value)
    return check


def _bool(name: str) -> Callable[[Any], Any]:
    def check(value: Any) -> bool:
        if not isinstance(value, bool):
            raise ProtocolError(f"field {name!r} must be a boolean, "
                                f"got {value!r}")
        return value
    return check


def _budget_dict(name: str) -> Callable[[Any], Any]:
    def check(value: Any) -> Dict[str, Any]:
        if not isinstance(value, dict):
            raise ProtocolError(f"field {name!r} must be an object "
                                f"with budget limits")
        for key, limit in value.items():
            if key not in Budget.FIELDS:
                raise ProtocolError(
                    f"unknown budget limit {key!r}"
                    + _suggest(key, Budget.FIELDS))
            if limit is not None and (isinstance(limit, bool)
                                      or not isinstance(limit, (int, float))
                                      or limit < 0):
                raise ProtocolError(f"budget limit {key!r} must be a "
                                    f"non-negative number or null")
        return Budget.from_dict(value).as_dict()
    return check


def _options_dict(name: str) -> Callable[[Any], Any]:
    def check(value: Any) -> Dict[str, Any]:
        if not isinstance(value, dict) or \
                not all(isinstance(k, str) for k in value):
            raise ProtocolError(f"field {name!r} must be an object "
                                f"with string keys")
        return dict(value)
    return check


# ----------------------------------------------------------------------
# Request schemas: op -> {field: (required, validator)}.
# ----------------------------------------------------------------------
_SUBMIT_FIELDS: Dict[str, Tuple[bool, Callable[[Any], Any]]] = {
    "family": (True, _string("family")),
    "k": (True, _nonneg_int("k")),
    "kind": (False, _choice("kind", "check", "sweep")),
    "method": (False, _string("method")),
    "semantics": (False, _choice("semantics", "exact", "within")),
    "budget": (False, _budget_dict("budget")),
    "options": (False, _options_dict("options")),
    "reduce": (False, _choice("reduce", "auto", "off")),
    "priority": (False, _any_int("priority")),
    "deadline": (False, _pos_number("deadline")),
    "subscribe": (False, _bool("subscribe")),
}

_SUBMIT_DEFAULTS: Dict[str, Any] = {
    "kind": "check",
    "method": "jsat",
    "semantics": "exact",
    "budget": None,
    "options": {},
    "reduce": "auto",
    "priority": 0,
    "deadline": None,
    "subscribe": False,
}

OPS: Dict[str, Dict[str, Tuple[bool, Callable[[Any], Any]]]] = {
    "submit": _SUBMIT_FIELDS,
    "batch": {"jobs": (True, None)},        # validated recursively
    "status": {"job": (False, _string("job"))},
    "cancel": {"job": (True, _string("job"))},
    "subscribe": {"job": (True, _string("job"))},
    "stats": {},
    "ping": {},
    "shutdown": {},
}

_COMMON_FIELDS = ("op", "id", "version")


def _suggest(name: str, candidates) -> str:
    close = difflib.get_close_matches(str(name), list(candidates), n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


def _validate_fields(op: str, obj: Dict[str, Any],
                     schema: Dict[str, Tuple[bool, Callable[[Any], Any]]],
                     defaults: Optional[Dict[str, Any]] = None
                     ) -> Dict[str, Any]:
    out = dict(defaults or {})
    for name, value in obj.items():
        if name in _COMMON_FIELDS:
            continue
        if name not in schema:
            raise ProtocolError(
                f"unknown field {name!r} for op {op!r}"
                + _suggest(name, list(schema) + list(_COMMON_FIELDS)))
        _, validator = schema[name]
        out[name] = value if validator is None else validator(value)
    for name, (required, _) in schema.items():
        if required and name not in out:
            raise ProtocolError(f"op {op!r} requires field {name!r}")
    return out


def validate_submit(obj: Dict[str, Any]) -> Dict[str, Any]:
    """Validate one submit-shaped object (used by submit and batch).

    The returned spec carries ``method_pinned``: True when the client
    named a method explicitly, False when the default was filled in.
    The daemon's simulation pre-solve tier only intercepts unpinned
    submissions — a client that asked for a specific engine gets that
    engine (and its streaming behaviour), never a shortcut.
    """
    spec = _validate_fields("submit", obj, _SUBMIT_FIELDS,
                            _SUBMIT_DEFAULTS)
    spec["method_pinned"] = isinstance(obj, dict) and "method" in obj
    return spec


def validate_request(obj: Any) -> Tuple[str, Dict[str, Any]]:
    """Validate one decoded request; returns ``(op, fields)``.

    ``fields`` has every optional field filled with its default, so
    handlers never touch ``.get`` chains.  Raises
    :class:`ProtocolError` with a client-presentable message on any
    violation.
    """
    if not isinstance(obj, dict):
        raise ProtocolError("request must be a JSON object")
    version = obj.get("version", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version {version!r}; "
                            f"this daemon speaks {PROTOCOL_VERSION}")
    op = obj.get("op")
    if not isinstance(op, str):
        raise ProtocolError("request must carry a string 'op'")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}" + _suggest(op, OPS))
    fields = _validate_fields(op, obj, OPS[op])
    if op == "submit":
        fields = validate_submit(obj)
    elif op == "batch":
        jobs = fields.get("jobs")
        if not isinstance(jobs, list) or not jobs:
            raise ProtocolError("op 'batch' requires a non-empty "
                                "'jobs' array")
        fields["jobs"] = [validate_submit(j) if isinstance(j, dict)
                          else _reject_batch_entry(j) for j in jobs]
    return op, fields


def _reject_batch_entry(entry: Any) -> Dict[str, Any]:
    raise ProtocolError(f"batch entries must be objects, got "
                        f"{type(entry).__name__}")


# ----------------------------------------------------------------------
# Line codec
# ----------------------------------------------------------------------
def encode_line(obj: Dict[str, Any]) -> bytes:
    """One protocol message -> one newline-terminated JSON line."""
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


def decode_line(line: bytes) -> Any:
    """One received line -> decoded object (ProtocolError on bad JSON)."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError("request line exceeds "
                            f"{MAX_LINE_BYTES} bytes")
    try:
        return json.loads(line.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ProtocolError(f"request is not valid JSON: {err}")


def ok_response(request_id: Any = None, **fields: Any) -> Dict[str, Any]:
    out: Dict[str, Any] = {"ok": True}
    if request_id is not None:
        out["id"] = request_id
    out.update(fields)
    return out


def error_response(message: str,
                   request_id: Any = None) -> Dict[str, Any]:
    out: Dict[str, Any] = {"ok": False, "error": message}
    if request_id is not None:
        out["id"] = request_id
    return out

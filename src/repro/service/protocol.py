"""Length-prefixed wire protocol for the quantile service.

Frames are ``u32 big-endian length | body``; the length prefix gives
exact message boundaries over TCP.  A body is one of two kinds, told
apart by its first byte:

* **Canonical JSON** (first byte ``{``, or JSON whitespace in a
  hand-written frame): sorted keys, no whitespace, UTF-8.  Every
  control and query op and every response travels this way, so the
  protocol stays inspectable (``nc`` + a hex dump is a working
  debugger) and a response is a deterministic function of its payload;
  the end-to-end determinism test relies on two identical server runs
  emitting byte-identical frames.
* **Value-batch record** (first byte a record kind, a control byte
  below ``0x20``): a struct-packed header followed by the raw
  little-endian float64 values, so a batch costs a ``memcpy`` instead
  of a per-float JSON walk.  It carries ingest on the wire (client to
  server, proxy to node) and is the payload of every write-ahead-log
  record (:meth:`repro.durability.DurabilityManager.journal`).

Record layout, little-endian::

    kind     u8    1 = ingest request, 2 = journal record
    flags    u8    bit 0: event timestamp present; bit 1: tags present
    ts       f64   event timestamp (0.0 when absent)
    now      f64   journal-time clock reading (0.0 on ingest requests)
    count    u32   number of values
    mlen     u16   metric name length in bytes
    tlen     u32   tags length in bytes (0 when absent)
    metric   mlen bytes of UTF-8
    tags     tlen bytes of canonical JSON (an object)
    values   count x f64

An ingest request decodes to ``{"op": "ingest", "metric", "values"}``
plus ``"tags"`` / ``"timestamp_ms"`` when present; a journal record to
``{"metric", "tags", "values", "ts", "now"}`` with ``None`` for an
absent tag set or timestamp.  Those are exactly the shapes the JSON
form of the same payloads decodes to, so callers never see which kind
travelled.

:func:`encode_message` picks the record when a payload has one of those
two shapes *and* its ``values`` is a 1-D float64 ``numpy`` array;
anything else (a ``values`` list, extra fields) is canonical JSON.
:func:`decode_message` dispatches on the leading byte.  The round-trip
invariant: ``decode_message(encode_message(p)) == p`` for any encodable
*p*, where a float64 array in *p* comes back as a list of floats — bit
for bit, ``-0.0``, subnormals, ``±inf`` and ``NaN`` included (the
record carries raw IEEE-754 bytes).

Requests are objects with an ``"op"`` field; responses always carry
``"ok"``.  Failures are data, not connection state: the server answers
``{"ok": false, "error": <code>, "message": ...}`` and keeps the
connection open, with ``"overloaded"`` as the explicit load-shedding
code (``"shed": true``) a client must not blindly retry.

Non-finite floats in JSON
-------------------------
Bare ``Infinity``/``NaN`` tokens are a Python ``json`` extension, not
valid JSON — emitting them breaks every strict cross-language client.
The JSON codec therefore transports non-finite floats as explicit
sentinel objects, ``{"$float": "inf" | "-inf" | "nan"}``, encoded on
the way out and restored to real floats on the way in.  This keeps
legitimate payloads like ``rank(metric, inf)`` or an empty sketch's
``_min=inf`` on the wire while the body stays strict JSON
(``allow_nan=False`` is the enforcement backstop).  Real payloads can
never collide with the sentinel: a one-key ``{"$float": <str>}``
mapping is reserved.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Any, BinaryIO, Iterable

import numpy as np

from repro.errors import ProtocolError

#: Reserved key marking a non-finite float sentinel object.
FLOAT_SENTINEL_KEY = "$float"

_FLOAT_ENCODE = {math.inf: "inf", -math.inf: "-inf"}
_FLOAT_DECODE = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def _sanitize(value: Any) -> Any:
    """Replace non-finite floats with sentinel objects, recursively."""
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return {FLOAT_SENTINEL_KEY: "nan"}
        return {FLOAT_SENTINEL_KEY: _FLOAT_ENCODE[value]}
    if isinstance(value, dict):
        if FLOAT_SENTINEL_KEY in value:
            raise ProtocolError(
                f"payload object uses the reserved key "
                f"{FLOAT_SENTINEL_KEY!r}"
            )
        return {key: _sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(item) for item in value]
    if isinstance(value, np.ndarray):
        return _sanitize(value.tolist())
    return value


def _restore(value: Any) -> Any:
    """Inverse of :func:`_sanitize`: sentinel objects back to floats."""
    if isinstance(value, dict):
        if set(value) == {FLOAT_SENTINEL_KEY}:
            name = value[FLOAT_SENTINEL_KEY]
            try:
                return _FLOAT_DECODE[name]
            except KeyError:
                raise ProtocolError(
                    f"unknown float sentinel {name!r}; expected one of "
                    f"{sorted(_FLOAT_DECODE)}"
                ) from None
        return {key: _restore(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_restore(item) for item in value]
    return value


#: Hard ceiling on one frame's body, protecting both sides from a
#: corrupt or hostile length prefix.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LENGTH = struct.Struct(">I")

#: Error code the server uses when shedding ingest load.
OVERLOADED = "overloaded"


# ----------------------------------------------------------------------
# Value-batch record
# ----------------------------------------------------------------------

#: Record kinds; any first byte below 0x20 that is not JSON whitespace
#: is read as a record kind.
INGEST_RECORD = 1
JOURNAL_RECORD = 2

_HAS_TS = 1
_HAS_TAGS = 2

_RECORD_HEAD = struct.Struct("<BBddIHI")
_INGEST_FIELDS = frozenset({"op", "metric", "values", "tags", "timestamp_ms"})
_JOURNAL_FIELDS = frozenset({"metric", "tags", "values", "ts", "now"})
_JSON_WHITESPACE = frozenset(b" \t\n\r")
_FLOAT64 = np.dtype("<f8")


def value_batch(values: Iterable[float]) -> np.ndarray:
    """*values* as the 1-D float64 array a value-batch record carries.

    Only converts; the server's ingest handler validates.
    """
    if not isinstance(values, (np.ndarray, list, tuple)):
        values = list(values)
    return np.asarray(values, dtype=np.float64).ravel()


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _record_kind(payload: dict[str, Any]) -> int | None:
    """The record kind *payload* packs as, or ``None`` for JSON."""
    values = payload.get("values")
    if not (
        isinstance(values, np.ndarray)
        and values.dtype == np.float64
        and values.ndim == 1
        and isinstance(payload.get("metric"), str)
        and isinstance(payload.get("tags"), (dict, type(None)))
    ):
        return None
    if payload.get("op") == "ingest":
        # An absent tag set or timestamp is an absent key here, so an
        # explicit null must stay JSON to round-trip.
        if (
            payload.keys() <= _INGEST_FIELDS
            and payload.get("tags", {}) is not None
            and _is_number(payload.get("timestamp_ms", 0.0))
        ):
            return INGEST_RECORD
        return None
    if (
        payload.keys() == _JOURNAL_FIELDS
        and _is_number(payload["now"])
        and (payload["ts"] is None or _is_number(payload["ts"]))
    ):
        return JOURNAL_RECORD
    return None


def _encode_record(kind: int, payload: dict[str, Any]) -> bytes:
    if kind == INGEST_RECORD:
        ts, now = payload.get("timestamp_ms"), 0.0
    else:
        ts, now = payload["ts"], payload["now"]
    tags = payload.get("tags")
    flags = (_HAS_TS if ts is not None else 0) | (
        _HAS_TAGS if tags is not None else 0
    )
    metric = payload["metric"].encode("utf-8")
    tag_bytes = b"" if tags is None else encode_message(tags)
    values: np.ndarray = payload["values"]
    try:
        head = _RECORD_HEAD.pack(
            kind, flags, 0.0 if ts is None else ts, now,
            values.size, len(metric), len(tag_bytes),
        )
    except struct.error as exc:
        raise ProtocolError(f"value-batch record overflows: {exc}") from exc
    raw = values.astype(_FLOAT64, copy=False).tobytes()
    return b"".join((head, metric, tag_bytes, raw))


def _decode_record(body: bytes) -> dict[str, Any]:
    kind = body[0]
    if kind not in (INGEST_RECORD, JOURNAL_RECORD):
        raise ProtocolError(f"unknown record kind {kind:#04x}")
    if len(body) < _RECORD_HEAD.size:
        raise ProtocolError(
            f"truncated record: {len(body)} bytes, header alone is "
            f"{_RECORD_HEAD.size}"
        )
    _kind, flags, ts, now, count, mlen, tlen = _RECORD_HEAD.unpack_from(body)
    if flags & ~(_HAS_TS | _HAS_TAGS):
        raise ProtocolError(f"unknown record flags {flags:#04x}")
    start = _RECORD_HEAD.size + mlen + tlen
    if len(body) != start + 8 * count:
        raise ProtocolError(
            f"record of {len(body)} bytes does not match its header "
            f"({count} values need {start + 8 * count})"
        )
    try:
        metric = body[_RECORD_HEAD.size:_RECORD_HEAD.size + mlen].decode(
            "utf-8"
        )
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"undecodable record metric: {exc}") from exc
    tags = (
        decode_message(body[start - tlen:start])
        if flags & _HAS_TAGS else None
    )
    values = np.frombuffer(
        body, dtype=_FLOAT64, count=count, offset=start
    ).tolist()
    timestamp = ts if flags & _HAS_TS else None
    if kind == JOURNAL_RECORD:
        return {
            "metric": metric, "tags": tags, "values": values,
            "ts": timestamp, "now": now,
        }
    message: dict[str, Any] = {
        "op": "ingest", "metric": metric, "values": values,
    }
    if tags is not None:
        message["tags"] = tags
    if timestamp is not None:
        message["timestamp_ms"] = timestamp
    return message


# ----------------------------------------------------------------------
# Messages and frames
# ----------------------------------------------------------------------


def encode_message(payload: dict[str, Any]) -> bytes:
    """Frame-body bytes for *payload*: a value-batch record or JSON.

    A payload shaped like an ingest request or a journal record whose
    ``values`` is a float64 array packs as a record (see the module
    docstring); everything else is canonical JSON (sorted keys, no
    whitespace), with non-finite floats as sentinel objects and
    ``allow_nan=False`` guaranteeing no bare ``Infinity``/``NaN``
    token can ever reach the wire.
    """
    kind = _record_kind(payload)
    if kind is not None:
        return _encode_record(kind, payload)
    try:
        body = json.dumps(
            _sanitize(payload), sort_keys=True, separators=(",", ":"),
            allow_nan=False,
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"payload is not JSON-encodable: {exc}") from exc
    return body.encode("utf-8")


def encode_frame(payload: dict[str, Any]) -> bytes:
    """Length-prefixed frame for *payload*."""
    body = encode_message(payload)
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _LENGTH.pack(len(body)) + body


def decode_message(body: bytes) -> dict[str, Any]:
    """Parse one frame body back into a message object.

    A leading record kind byte selects the value-batch record; anything
    else is JSON, whose float sentinel objects are restored to real
    non-finite floats.  ``decode_message(encode_message(p)) == p`` for
    any encodable *p* (float64 arrays come back as lists).
    """
    if body and body[0] < 0x20 and body[0] not in _JSON_WHITESPACE:
        return _decode_record(body)
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame body: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    return _restore(payload)


def write_frame(stream: BinaryIO, payload: dict[str, Any]) -> None:
    """Write one frame to a binary stream and flush it."""
    stream.write(encode_frame(payload))
    stream.flush()


def read_frame(stream: BinaryIO) -> dict[str, Any] | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary."""
    header = _read_exact(stream, _LENGTH.size, allow_eof=True)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"incoming frame of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    body = _read_exact(stream, length, allow_eof=False)
    assert body is not None  # allow_eof=False never returns None
    return decode_message(body)


def _read_exact(
    stream: BinaryIO, n: int, allow_eof: bool
) -> bytes | None:
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            if allow_eof and remaining == n:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({n - remaining} of "
                f"{n} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# ----------------------------------------------------------------------
# Response constructors (shared by server and tests)
# ----------------------------------------------------------------------


def ok(**fields: Any) -> dict[str, Any]:
    response: dict[str, Any] = {"ok": True}
    response.update(fields)
    return response


def error(code: str, message: str, **fields: Any) -> dict[str, Any]:
    response: dict[str, Any] = {
        "ok": False, "error": code, "message": message,
    }
    response.update(fields)
    return response


def shed(message: str) -> dict[str, Any]:
    """The load-shedding response: explicit, machine-detectable."""
    return error(OVERLOADED, message, shed=True)

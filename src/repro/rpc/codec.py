"""Tag-length-value message codec (the Protocol Buffers stand-in).

Messages are ``dict[str, value]`` where values are ``None``, ``bool``,
``int``, ``float``, ``bytes``, ``str``, lists of values, or nested dicts.
Encoding is deterministic (keys in insertion order) and self-describing, so
decode needs no schema. Every RPC in the framework round-trips through this
codec, which keeps serialized sizes — and therefore the per-byte RPC cost —
honest.

Wire format (big-endian; docs/architecture.md has the table): one tag byte
per value — 0 ``None``, 1 ``False``, 2 ``True``, 3 zig-zag varint, 4 IEEE
double, 5 bytes and 6 UTF-8 text behind a ``u32`` length, 7 list and 8 dict
behind a ``u32`` count; a dict entry is ``u16`` key length, UTF-8 key, value.

Both directions are one pass: a loop per container that dispatches on the
exact type (encode) or the tag (decode) inline, with no call per field. The
bytes are a contract — every simulated RPC cost is a function of message
sizes — so a change here must leave ``tests/rpc/test_codec_differential.py``
green against the reference implementation kept next to it.
"""

from __future__ import annotations

import struct
import sys
from itertools import repeat

from repro.common.errors import RpcError

_T_NONE = 0
_T_FALSE = 1
_T_TRUE = 2
_T_INT = 3
_T_FLOAT = 4
_T_BYTES = 5
_T_STR = 6
_T_LIST = 7
_T_DICT = 8

_MAX_DEPTH = 16
#: Entries each key memo may hold. The vocabulary is the few dozen field
#: names of ``core/service.py`` and the columnar manifests; a memo that is
#: full stops inserting, so hostile or random keys cannot grow it.
_KEY_MEMO_LIMIT = 512

_pack_tag_u32 = struct.Struct(">BI").pack
_pack_tag_f64 = struct.Struct(">Bd").pack
_pack_u16 = struct.Struct(">H").pack
_unpack_u16 = struct.Struct(">H").unpack_from
_unpack_u32 = struct.Struct(">I").unpack_from
_unpack_f64 = struct.Struct(">d").unpack_from

_NONE = b"\x00"
_FALSE = b"\x01"
_TRUE = b"\x02"
_EMPTY_MESSAGE = _pack_tag_u32(_T_DICT, 0)
#: tag + zig-zag byte of every integer whose varint is a single byte.
_SMALL_INTS = {v: bytes((_T_INT, (v << 1) ^ (v >> 63))) for v in range(-64, 64)}
#: single zig-zag byte -> integer.
_UNZIGZAG = [(b >> 1) ^ -(b & 1) for b in range(128)]
#: tag + u32 length headers for lengths below 256.
_BYTES_HEADERS = [_pack_tag_u32(_T_BYTES, n) for n in range(256)]
_STR_HEADERS = [_pack_tag_u32(_T_STR, n) for n in range(256)]

#: key string -> ``u16 length + utf8`` entry header (encode), and the
#: raw utf8 of a key -> its interned string (decode). Process-wide on
#: purpose: they are pure caches of a pure function, so they change how fast
#: a message is coded and never which bytes or values come out.
_key_headers: dict[str, bytes] = {}
_key_strings: dict[bytes, str] = {}

#: Stands where a dict entry has its key while a list is being encoded;
#: ``zip(_NO_KEYS, items)`` pairs every item of a list with it.
_NO_KEY = object()
_NO_KEYS = repeat(_NO_KEY)


class MessageError(RpcError):
    """Malformed message (encode of unsupported type / corrupt decode)."""


def _key_header(key) -> bytes:
    if not isinstance(key, str):
        raise MessageError(f"message keys must be str, got {type(key).__name__}")
    raw = str.encode(key, "utf-8")
    if len(raw) > 0xFFFF:
        raise MessageError("message key too long")
    header = _pack_u16(len(raw)) + raw
    if type(key) is str and len(_key_headers) < _KEY_MEMO_LIMIT:
        _key_headers[key] = header
    return header


def _exact(value):
    """*value* as the exact built-in type its fast arm encodes: the
    subclasses (``IntEnum`` ...), ``bytearray``, ``memoryview`` and
    ``tuple`` the wire format folds onto ``int``/``bytes``/``list``. The
    unbound slot calls read the underlying value: ``str(member)`` or
    ``int(member)`` would go through an enum's own ``__str__``/``__int__``."""
    if isinstance(value, int):
        return int.__index__(value)
    if isinstance(value, float):
        return float.__float__(value)
    if isinstance(value, (bytes, bytearray, memoryview)):
        return bytes(value)
    if isinstance(value, str):
        return str.__str__(value)
    if isinstance(value, (list, tuple)):
        return list(value)
    if isinstance(value, dict):
        return dict(value.items())
    raise MessageError(f"unsupported message value type {type(value).__name__}")


def _encode_entries(entries, append, depth: int) -> None:
    """Append the wire fragments of *entries* — ``(key, value)`` pairs of a
    dict, or ``(_NO_KEY, value)`` pairs of a list — all at nesting *depth*."""
    if depth > _MAX_DEPTH:
        raise MessageError("message nesting too deep")
    key_header = _key_headers.get
    for key, value in entries:
        if key is not _NO_KEY:
            append(key_header(key) or _key_header(key))
        kind = type(value)
        if kind is bytes:
            n = len(value)
            append(_BYTES_HEADERS[n] if n < 256 else _pack_tag_u32(_T_BYTES, n))
            append(value)
        elif kind is int:
            fragment = _SMALL_INTS.get(value)
            if fragment is None:
                if not -(1 << 63) <= value < (1 << 63):
                    raise MessageError(f"integer out of 64-bit range: {value}")
                # Zig-zag varint: compact for the small non-negative ints
                # that dominate (sizes, counts) while supporting negatives.
                zz = ((value << 1) ^ (value >> 63)) & 0xFFFFFFFFFFFFFFFF
                fragment = bytearray((_T_INT,))
                while zz > 0x7F:
                    fragment.append(zz & 0x7F | 0x80)
                    zz >>= 7
                fragment.append(zz)
            append(fragment)
        elif kind is list:
            append(_pack_tag_u32(_T_LIST, len(value)))
            if value:
                _encode_entries(zip(_NO_KEYS, value), append, depth + 1)
        elif kind is str:
            raw = value.encode("utf-8")
            n = len(raw)
            append(_STR_HEADERS[n] if n < 256 else _pack_tag_u32(_T_STR, n))
            append(raw)
        elif kind is dict:
            append(_pack_tag_u32(_T_DICT, len(value)))
            if value:
                _encode_entries(value.items(), append, depth + 1)
        elif value is True:
            append(_TRUE)
        elif value is False:
            append(_FALSE)
        elif value is None:
            append(_NONE)
        elif kind is float:
            append(_pack_tag_f64(_T_FLOAT, value))
        else:
            _encode_entries(((_NO_KEY, _exact(value)),), append, depth)


def encode_message(message: dict) -> bytes:
    """Serialize a message dict to wire bytes."""
    if not isinstance(message, dict):
        raise MessageError("a message must be a dict")
    if not message:
        return _EMPTY_MESSAGE
    parts = [_pack_tag_u32(_T_DICT, len(message))]
    try:
        _encode_entries(message.items(), parts.append, 1)
    except UnicodeEncodeError as exc:
        raise MessageError(f"text not encodable as UTF-8: {exc}") from exc
    return b"".join(parts)


def _key_string(raw: bytes) -> str:
    key = raw.decode("utf-8")
    if len(_key_strings) < _KEY_MEMO_LIMIT:
        key = _key_strings[raw] = sys.intern(key)
    return key


def _decode_entries(data: bytes, pos: int, end: int, count: int, depth: int, keyed: bool):
    """Decode *count* values starting at ``data[pos]`` — dict entries when
    *keyed* — and return ``(container, position after them)``. Reading past
    *end* raises ``IndexError``/``struct.error`` (``decode_message`` turns
    them into ``MessageError``); slices do not raise, so their ends are
    checked here."""
    if count and depth > _MAX_DEPTH:
        raise MessageError("message nesting too deep")
    if keyed:
        out = {}
        key_string = _key_strings.get
    else:
        out = []
        add = out.append
    for _ in range(count):
        if keyed:
            stop = pos + 2 + _unpack_u16(data, pos)[0]
            if stop > end:
                raise MessageError("truncated message")
            raw = data[pos + 2 : stop]
            key = key_string(raw) or _key_string(raw)
            pos = stop
        tag = data[pos]
        pos += 1
        if tag == _T_BYTES:
            stop = pos + 4 + _unpack_u32(data, pos)[0]
            if stop > end:
                raise MessageError("truncated message")
            value = data[pos + 4 : stop]
            pos = stop
        elif tag == _T_INT:
            b = data[pos]
            pos += 1
            if b < 0x80:
                value = _UNZIGZAG[b]
            else:
                result = b & 0x7F
                shift = 7
                while True:
                    if shift > 70:
                        raise MessageError("varint too long")
                    b = data[pos]
                    pos += 1
                    result |= (b & 0x7F) << shift
                    if b < 0x80:
                        break
                    shift += 7
                value = (result >> 1) ^ -(result & 1)
        elif tag == _T_LIST or tag == _T_DICT:
            value, pos = _decode_entries(
                data, pos + 4, end, _unpack_u32(data, pos)[0], depth + 1, tag == _T_DICT
            )
        elif tag == _T_STR:
            stop = pos + 4 + _unpack_u32(data, pos)[0]
            if stop > end:
                raise MessageError("truncated message")
            value = data[pos + 4 : stop].decode("utf-8")
            pos = stop
        elif tag == _T_TRUE:
            value = True
        elif tag == _T_FALSE:
            value = False
        elif tag == _T_NONE:
            value = None
        elif tag == _T_FLOAT:
            value = _unpack_f64(data, pos)[0]
            pos += 8
        else:
            raise MessageError(f"unknown wire tag {tag}")
        if keyed:
            out[key] = value  # duplicate wire keys resolve last-wins
        else:
            add(value)
    return out, pos


def decode_message(data: bytes) -> dict:
    """Deserialize wire bytes back to a message dict."""
    if type(data) is not bytes:
        data = bytes(data)
    if data == _EMPTY_MESSAGE:
        return {}
    end = len(data)
    try:
        if data[0] != _T_DICT:
            # Whatever else the bytes may hold, it is not a message.
            raise MessageError(f"top-level wire tag {data[0]} is not a message dict")
        message, pos = _decode_entries(data, 5, end, _unpack_u32(data, 1)[0], 1, True)
    except (IndexError, struct.error):
        raise MessageError("truncated message") from None
    except UnicodeDecodeError as exc:
        # Corrupt wire bytes must surface as a codec error, never leak a
        # UnicodeDecodeError into RPC handlers.
        raise MessageError(f"invalid UTF-8 in message: {exc}") from exc
    if pos != end:
        raise MessageError(f"{end - pos} trailing bytes after message")
    return message

"""Reference TLV codec: the recursive, one-call-per-field implementation
``repro.rpc.codec`` shipped until PR 14, kept test-only and unchanged.

It defines the wire format by example: ``test_codec_differential.py`` holds
the production codec to these bytes on encode and to this accept/reject set
on decode. Do not optimise it, and do not import it from ``src/``.
"""

from __future__ import annotations

import struct

from repro.rpc.codec import MessageError

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


def _encode_value(value, out: bytearray, depth: int) -> None:
    if depth > _MAX_DEPTH:
        raise MessageError("message nesting too deep")
    if value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif isinstance(value, int):
        out.append(_T_INT)
        # Zig-zag varint: compact for the small non-negative ints that
        # dominate (sizes, counts) while supporting negatives.
        zz = (value << 1) ^ (value >> 63) if -(1 << 63) <= value < (1 << 63) else None
        if zz is None:
            raise MessageError(f"integer out of 64-bit range: {value}")
        zz &= (1 << 64) - 1
        while True:
            byte = zz & 0x7F
            zz >>= 7
            if zz:
                out.append(byte | 0x80)
            else:
                out.append(byte)
                break
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out += struct.pack(">d", value)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        data = bytes(value)
        out.append(_T_BYTES)
        out += struct.pack(">I", len(data))
        out += data
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(_T_STR)
        out += struct.pack(">I", len(data))
        out += data
    elif isinstance(value, (list, tuple)):
        out.append(_T_LIST)
        out += struct.pack(">I", len(value))
        for item in value:
            _encode_value(item, out, depth + 1)
    elif isinstance(value, dict):
        out.append(_T_DICT)
        out += struct.pack(">I", len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise MessageError(f"message keys must be str, got {type(key).__name__}")
            kdata = key.encode("utf-8")
            if len(kdata) > 0xFFFF:
                raise MessageError("message key too long")
            out += struct.pack(">H", len(kdata))
            out += kdata
            _encode_value(item, out, depth + 1)
    else:
        raise MessageError(f"unsupported message value type {type(value).__name__}")


def encode_message(message: dict) -> bytes:
    """Serialize a message dict to wire bytes."""
    if not isinstance(message, dict):
        raise MessageError("a message must be a dict")
    out = bytearray()
    _encode_value(message, out, 0)
    return bytes(out)


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise MessageError("truncated message")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def byte(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def varint(self) -> int:
        shift = 0
        result = 0
        while True:
            if shift > 70:
                raise MessageError("varint too long")
            b = self.byte()
            result |= (b & 0x7F) << shift
            if not b & 0x80:
                break
            shift += 7
        # un-zig-zag
        return (result >> 1) ^ -(result & 1)


def _decode_value(r: _Reader, depth: int):
    if depth > _MAX_DEPTH:
        raise MessageError("message nesting too deep")
    tag = r.byte()
    if tag == _T_NONE:
        return None
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_INT:
        return r.varint()
    if tag == _T_FLOAT:
        return struct.unpack(">d", r.take(8))[0]
    if tag == _T_BYTES:
        return r.take(r.u32())
    if tag == _T_STR:
        return _decode_utf8(r.take(r.u32()))
    if tag == _T_LIST:
        n = r.u32()
        return [_decode_value(r, depth + 1) for _ in range(n)]
    if tag == _T_DICT:
        n = r.u32()
        out = {}
        for _ in range(n):
            key = _decode_utf8(r.take(r.u16()))
            out[key] = _decode_value(r, depth + 1)
        return out
    raise MessageError(f"unknown wire tag {tag}")


def _decode_utf8(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Corrupt wire bytes must surface as a codec error, never leak a
        # UnicodeDecodeError into RPC handlers.
        raise MessageError(f"invalid UTF-8 in message: {exc}") from exc


def decode_message(data: bytes) -> dict:
    """Deserialize wire bytes back to a message dict."""
    r = _Reader(bytes(data))
    value = _decode_value(r, 0)
    if r.pos != len(r.data):
        raise MessageError(f"{len(r.data) - r.pos} trailing bytes after message")
    if not isinstance(value, dict):
        raise MessageError("top-level wire value is not a message dict")
    return value

"""Differential suite: the one in-region header packer and checker against
the decoded-header codec and checks they replaced (``_reference_layout``).

* :func:`pack_header` writes the reference's 64 bytes for every field
  combination and refuses what the reference refused;
* :func:`unpack_header` trusts exactly the bytes the reference trusted and
  reads the same fields from them;
* ``RemoteBufferSource.timed_view`` reaches the reference's verdict
  (trusted, stale, unsealed, quarantined, payload-CRC mismatch) for a
  single-byte flip at every header offset, and for a retire, realloc,
  unseal, quarantine, in-place repair or flip that races the stream.
"""

from __future__ import annotations

from dataclasses import astuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.checksum import crc32c
from repro.common.errors import ObjectCorruptedError, StaleDescriptorError
from repro.memory.layout import (
    FLAG_QUARANTINED,
    FLAG_SEALED,
    HEADER_SIZE,
    ObjectHeader,
    pack_header,
    unpack_header,
)
from repro.plasma.buffer import RemoteBufferSource, RemoteReadIntegrity

from tests.memory._reference_layout import RefHeader, reference_verdict

u16 = st.integers(0, 0xFFFF)
u32 = st.integers(0, 0xFFFF_FFFF)
u64 = st.integers(0, 2**64 - 1)
object_ids = st.binary(min_size=20, max_size=20)
header_fields = st.fixed_dictionaries(
    {
        "object_id": object_ids,
        "generation": u64,
        "data_size": u64,
        "meta_size": u16,
        "flags": u16,
        "payload_crc": u32,
        "meta_crc": u32,
        "sealed_at_s": u32,
        "version": st.sampled_from([1, 1, 1, 0, 2, 0xFFFF]),
    }
)
flag_words = st.sampled_from(
    [0, FLAG_SEALED, FLAG_SEALED | FLAG_QUARANTINED, FLAG_QUARANTINED]
) | u16
masks = st.integers(1, 0xFF)


def _flip(raw: bytes, at: int, mask: int) -> bytes:
    out = bytearray(raw)
    out[at] ^= mask
    return bytes(out)


def _reference_fields(raw) -> tuple | None:
    """The reference decode as the checker's tuple (every field but
    ``version``, which a trusted header always has at its one value)."""
    header = RefHeader.unpack(raw)
    return None if header is None else astuple(header)[:8]


class TestPacker:
    @given(header_fields)
    def test_writes_the_reference_bytes(self, fields):
        assert pack_header(**fields) == RefHeader(**fields).pack()

    @given(object_ids | st.binary(max_size=24), st.integers(-2, 0x1_0001))
    def test_refuses_what_the_reference_refused(self, object_id, meta_size):
        def outcome(pack):
            try:
                return pack()
            except ValueError as exc:
                return str(exc)

        assert outcome(lambda: pack_header(object_id, 1, 64, meta_size)) == outcome(
            lambda: RefHeader(object_id, 1, 64, meta_size).pack()
        )


class TestChecker:
    @given(header_fields, masks)
    def test_trusts_what_the_reference_trusted(self, fields, mask):
        raw = pack_header(**fields)
        for candidate in [raw, raw + b"tail", raw[:-1], b""] + [
            _flip(raw, at, mask) for at in range(HEADER_SIZE)
        ]:
            want = _reference_fields(candidate)
            assert unpack_header(candidate) == want
            assert unpack_header(memoryview(candidate)) == want
            decoded = ObjectHeader.unpack(candidate)
            assert (None if decoded is None else astuple(decoded)[:8]) == want

    @given(st.binary(min_size=HEADER_SIZE, max_size=HEADER_SIZE))
    def test_random_bytes(self, raw):
        assert unpack_header(raw) == _reference_fields(raw)


class _Remote:
    """A one-extent fabric window ``[header][payload]``. With ``post``
    set, the charged stream overwrites the header with it, as a retire or
    realloc at the home racing the read would."""

    home_name = "home"

    def __init__(self, header: bytes, payload: bytes, post: bytes | None):
        self.mem = bytearray(header + payload)
        self.post = post

    def view(self, offset: int, size: int) -> memoryview:
        return memoryview(self.mem)[offset : offset + size]

    def charge_read(self, nbytes: int) -> float:
        if self.post is not None:
            self.mem[:HEADER_SIZE] = self.post
        return 0.0


def _verdict(pre, post, payload, *, object_id, generation, verify_checksum):
    remote = _Remote(pre, payload, post)
    source = RemoteBufferSource(
        remote,
        HEADER_SIZE,
        RemoteReadIntegrity(
            object_id=object_id,
            generation=generation,
            header_size=HEADER_SIZE,
            verify_checksum=verify_checksum,
        ),
    )
    try:
        view = source.timed_view(0, len(payload))
    except StaleDescriptorError as exc:
        return "retired-mid-stream" if "mid-stream" in str(exc) else "stale"
    except ObjectCorruptedError as exc:
        return "quarantined" if "quarantined" in str(exc) else "crc-mismatch"
    assert bytes(view) == payload
    return "trusted"


@st.composite
def reads(draw):
    """A header as the home wrote it and the descriptor a reader holds."""
    payload = draw(st.binary(min_size=1, max_size=64))
    fields = draw(header_fields)
    fields["version"] = 1
    fields["flags"] = draw(flag_words)
    if draw(st.booleans()):
        fields["data_size"] = len(payload)
    if draw(st.booleans()):
        fields["payload_crc"] = crc32c(payload)
    if draw(st.booleans()):
        payload = _flip(payload, draw(st.integers(0, len(payload) - 1)), 1)
    expect_id = fields["object_id"] if draw(st.booleans()) else draw(object_ids)
    expect_gen = draw(
        st.sampled_from([fields["generation"], 0, fields["generation"] ^ 1])
    )
    return fields, payload, {
        "object_id": expect_id,
        "generation": expect_gen,
        "verify_checksum": draw(st.booleans()),
    }


class TestValidatedRead:
    @settings(max_examples=150)
    @given(reads(), masks)
    def test_single_byte_flip_at_every_offset(self, read, mask):
        fields, payload, descriptor = read
        raw = pack_header(**fields)
        for pre in [raw] + [_flip(raw, at, mask) for at in range(HEADER_SIZE)]:
            assert _verdict(pre, None, payload, **descriptor) == (
                reference_verdict(pre, pre, payload, **descriptor)
            )

    @settings(max_examples=150)
    @given(reads(), st.data())
    def test_retire_racing_the_stream(self, read, data):
        fields, payload, descriptor = read
        pre = pack_header(**fields)
        retired = dict(fields, generation=data.draw(u64), flags=data.draw(flag_words))
        realloc = dict(retired, object_id=data.draw(object_ids))
        posts = [
            pack_header(**retired),
            pack_header(**realloc),
            pack_header(**dict(fields, flags=fields["flags"] & ~FLAG_SEALED)),
            # Same incarnation rewritten: quarantined, or repaired in place.
            pack_header(**dict(fields, flags=fields["flags"] | FLAG_QUARANTINED)),
            pack_header(**dict(fields, payload_crc=data.draw(u32))),
            _flip(pre, data.draw(st.integers(0, HEADER_SIZE - 1)), data.draw(masks)),
        ]
        for post in posts:
            assert _verdict(pre, post, payload, **descriptor) == (
                reference_verdict(pre, post, payload, **descriptor)
            )

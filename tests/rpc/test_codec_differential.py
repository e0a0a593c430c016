"""The one-pass codec against the recursive reference, byte for byte.

``_reference_codec.py`` is the implementation the wire format was born with;
``repro.rpc.codec`` must emit exactly its bytes and accept exactly its inputs,
because every simulated RPC cost is a function of message sizes. Decoded
values are compared with :func:`same`, which also holds key order, exact
types (``True`` is not ``1``) and NaN payloads equal.
"""

from __future__ import annotations

import enum
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.service import StoreService
from repro.rpc.codec import MessageError, decode_message, encode_message

from . import _reference_codec as reference
from ._wire_corpus import CORPUS, RETIRED_METHODS

EDGE_SIZES = (0, 1, 255, 256, 65535)


class Colour(enum.IntEnum):
    RED = 1
    DEEP = -(2**40)


class Label(str, enum.Enum):
    HOT = "hot"


def same(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, float):
        return struct.pack(">d", a) == struct.pack(">d", b)
    return a == b


def both_decode(wire):
    """(outcome of the reference, outcome of the codec): a dict, or the
    string "rejected" for a ``MessageError``. Anything else propagates."""
    outcomes = []
    for decode in (reference.decode_message, decode_message):
        try:
            outcomes.append(decode(wire))
        except MessageError:
            outcomes.append("rejected")
    return outcomes


def assert_decoders_agree(wire) -> None:
    expected, got = both_decode(wire)
    assert same(expected, got), (bytes(wire).hex(), expected, got)


edge_binary = st.sampled_from(EDGE_SIZES).map(lambda n: b"\xa5" * n)
edge_text = st.sampled_from(EDGE_SIZES).map(lambda n: "k" * n)
keys = st.one_of(st.text(max_size=20), edge_text, st.just("clé-✓"))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([-65, -64, -1, 0, 63, 64, 127, 128, 2**63 - 1, -(2**63)]),
    st.floats(allow_nan=True),
    st.binary(max_size=64),
    edge_binary,
    edge_binary.map(bytearray),
    edge_binary.map(memoryview),
    st.text(max_size=64),
    edge_text,
    st.sampled_from([Colour.RED, Colour.DEEP, Label.HOT]),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(keys, inner, max_size=5),
    ),
    max_leaves=20,
)
messages = st.dictionaries(keys, values, max_size=8)


def nested(depth: int, leaf=None, *, lists: bool = False):
    """A message whose innermost value sits *depth* levels below the top."""
    value = leaf
    for level in range(depth):
        value = [value] if lists and level < depth - 1 else {"k": value}
    return value


def nested_wire(depth: int, leaf: bytes = b"\x00") -> bytes:
    """The wire bytes of ``nested(depth)``, built by hand: the encoders
    refuse to produce depth 17."""
    wire = leaf
    for _ in range(depth):
        wire = b"\x08" + struct.pack(">IH", 1, 1) + b"k" + wire
    return wire


class TestEncodeMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(messages)
    def test_bytes_are_identical(self, message):
        wire = encode_message(message)
        assert type(wire) is bytes
        assert wire == reference.encode_message(message)
        assert_decoders_agree(wire)

    @pytest.mark.parametrize("size", EDGE_SIZES)
    def test_edge_sized_keys_and_payloads(self, size):
        message = {"k" * size: b"\x00" * size, "s": "é" * size, "l": [b"x"] * min(size, 300)}
        wire = encode_message(message)
        assert wire == reference.encode_message(message)
        assert same(decode_message(wire), reference.decode_message(wire))

    def test_key_of_65536_bytes_is_rejected_by_both(self):
        for encode in (reference.encode_message, encode_message):
            with pytest.raises(MessageError):
                encode({"k" * 65536: 1})
            with pytest.raises(MessageError):
                encode({"é" * 32768: 1})

    def test_subclasses_and_views_fold_onto_the_wire_types(self):
        message = {
            "enum": Colour.DEEP,
            "label": Label.HOT,
            "tuple": (1, (2, 3)),
            "ba": bytearray(b"abc"),
            "mv": memoryview(b"defg")[1:3],
            "flag": True,
        }
        wire = encode_message(message)
        assert wire == reference.encode_message(message)
        assert decode_message(wire) == {
            "enum": -(2**40),
            "label": "hot",
            "tuple": [1, [2, 3]],
            "ba": b"abc",
            "mv": b"ef",
            "flag": True,
        }

    @pytest.mark.parametrize(
        "bad",
        [
            [1, 2],
            {"x": object()},
            {"x": {1, 2}},
            {1: "x"},
            {None: "x"},
            {"x": {None: 1}},
            {"x": 2**63},
            {"x": -(2**63) - 1},
            {"x": [2**64]},
        ],
    )
    def test_unencodable_messages_are_rejected_by_both(self, bad):
        for encode in (reference.encode_message, encode_message):
            with pytest.raises(MessageError):
                encode(bad)

    def test_lone_surrogates_are_a_message_error(self):
        # The reference leaked UnicodeEncodeError here; a handler returning
        # such text must not take the server down with a non-RPC error.
        for bad in ({"\udc80": 1}, {"k": "\udc80"}, {"k": ["\udc80"]}):
            with pytest.raises(MessageError):
                encode_message(bad)

    def test_key_memo_is_bounded_and_harmless(self):
        from repro.rpc import codec

        for i in range(3 * codec._KEY_MEMO_LIMIT):
            message = {f"memo-probe-{i}": i}
            wire = encode_message(message)
            assert wire == reference.encode_message(message)
            assert decode_message(wire) == message
        assert len(codec._key_headers) <= codec._KEY_MEMO_LIMIT
        assert len(codec._key_strings) <= codec._KEY_MEMO_LIMIT


class TestDecodeMatchesReference:
    @settings(max_examples=1000, deadline=None)
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes(self, data):
        assert_decoders_agree(data)

    @settings(max_examples=500, deadline=None)
    @given(st.binary(max_size=60).map(lambda tail: b"\x08\x00\x00\x00\x01\x00\x01k" + tail))
    def test_arbitrary_bytes_behind_a_valid_start(self, data):
        assert_decoders_agree(data)

    @settings(max_examples=300, deadline=None)
    @given(messages, st.data())
    def test_single_bit_flips(self, message, data):
        wire = bytearray(reference.encode_message(message))
        bit = data.draw(st.integers(0, len(wire) * 8 - 1))
        wire[bit // 8] ^= 1 << (bit % 8)
        assert_decoders_agree(bytes(wire))

    @pytest.mark.parametrize("entry", CORPUS, ids=[entry[0] for entry in CORPUS])
    def test_every_bit_flip_of_the_corpus(self, entry):
        for wire_hex in (entry[2], entry[4]):
            wire = bytearray.fromhex(wire_hex)
            for bit in range(min(len(wire), 120) * 8):
                wire[bit // 8] ^= 1 << (bit % 8)
                assert_decoders_agree(bytes(wire))
                wire[bit // 8] ^= 1 << (bit % 8)

    @pytest.mark.parametrize("entry", CORPUS, ids=[entry[0] for entry in CORPUS])
    def test_every_proper_prefix_is_rejected(self, entry):
        for wire_hex in (entry[2], entry[4]):
            wire = bytes.fromhex(wire_hex)
            for cut in range(len(wire)):
                for decode in (reference.decode_message, decode_message):
                    with pytest.raises(MessageError):
                        decode(wire[:cut])

    @pytest.mark.parametrize("kind", [bytearray, memoryview])
    def test_non_bytes_buffers_decode_alike(self, kind):
        wire = bytes.fromhex(CORPUS[0][2])
        assert same(decode_message(kind(wire)), reference.decode_message(wire))

    def test_varints_longer_than_eight_bytes(self):
        # Eleven varint bytes are accepted (values past 64 bits included),
        # twelve are not: the accept set is the reference's, not a cleaner one.
        for nbytes in range(1, 14):
            varint = b"\xff" * (nbytes - 1) + b"\x01"
            assert_decoders_agree(b"\x08\x00\x00\x00\x01\x00\x01k\x03" + varint)

    def test_huge_counts_and_lengths_are_truncation(self):
        for tag in (5, 6, 7, 8):
            wire = b"\x08\x00\x00\x00\x01\x00\x01k" + bytes([tag]) + b"\xff\xff\xff\xff"
            assert both_decode(wire) == ["rejected", "rejected"]
        assert both_decode(b"\x08\xff\xff\xff\xff") == ["rejected", "rejected"]
        assert both_decode(b"\x08\x00\x00\x00\x01\xff\xffk") == ["rejected", "rejected"]

    def test_bad_utf8_in_keys_and_strings(self):
        for wire in (
            b"\x08\x00\x00\x00\x01\x00\x01\xff\x00",
            b"\x08\x00\x00\x00\x01\x00\x01k\x06\x00\x00\x00\x01\xff",
        ):
            assert both_decode(wire) == ["rejected", "rejected"]

    def test_duplicate_wire_keys_resolve_last_wins(self):
        entry_one = b"\x00\x01k\x03\x02"  # k: 1
        entry_two = b"\x00\x01k\x06\x00\x00\x00\x01z"  # k: "z"
        other = b"\x00\x01j\x00"  # j: None
        wire = b"\x08\x00\x00\x00\x03" + entry_one + other + entry_two
        expected, got = both_decode(wire)
        assert got == {"k": "z", "j": None}
        assert same(expected, got)  # first sight of a key fixes its position

    def test_non_dict_top_level_values_are_rejected(self):
        for wire in (b"\x00", b"\x02", b"\x03\x00", b"\x05\x00\x00\x00\x00", b"\x07\x00\x00\x00\x00"):
            assert both_decode(wire) == ["rejected", "rejected"]


class TestDepthLimit:
    @pytest.mark.parametrize("lists", [False, True])
    def test_depth_16_encodes_and_17_does_not(self, lists):
        deepest = nested(16, lists=lists)
        assert encode_message(deepest) == reference.encode_message(deepest)
        assert same(decode_message(encode_message(deepest)), deepest)
        for encode in (reference.encode_message, encode_message):
            with pytest.raises(MessageError):
                encode(nested(17, lists=lists))

    @pytest.mark.parametrize("leaf", [{}, []])
    def test_an_empty_container_at_depth_16_is_fine_a_full_one_is_not(self, leaf):
        message = nested(16, leaf)
        assert encode_message(message) == reference.encode_message(message)
        assert same(decode_message(encode_message(message)), message)
        full = nested(16, {"k": None} if leaf == {} else [None])
        for encode in (reference.encode_message, encode_message):
            with pytest.raises(MessageError):
                encode(full)

    def test_folded_types_do_not_count_as_extra_depth(self):
        def tuples(depth):
            value = Colour.RED
            for _ in range(depth - 1):
                value = (value, bytearray(b"x"))
            return {"k": value}

        assert encode_message(tuples(16)) == reference.encode_message(tuples(16))
        for encode in (reference.encode_message, encode_message):
            with pytest.raises(MessageError):
                encode(tuples(17))

    def test_depth_16_decodes_and_17_does_not(self):
        assert nested_wire(16) == reference.encode_message(nested(16))
        expected, got = both_decode(nested_wire(16))
        assert same(expected, got) and same(got, nested(16))
        assert both_decode(nested_wire(17)) == ["rejected", "rejected"]
        # An empty container at depth 16 decodes; its first entry would not.
        assert same(both_decode(nested_wire(16, b"\x07\x00\x00\x00\x00"))[1], nested(16, []))
        assert both_decode(nested_wire(16, b"\x07\x00\x00\x00\x01\x00")) == ["rejected"] * 2

    def test_a_self_referencing_message_is_too_deep_not_a_recursion_error(self):
        loop: dict = {}
        loop["me"] = [loop]
        with pytest.raises(MessageError):
            encode_message(loop)


class TestPinnedServiceCorpus:
    def test_the_corpus_names_every_store_service_method(self):
        declared = set(StoreService(store=None).rpc_methods())
        assert RETIRED_METHODS.isdisjoint(declared)
        assert {entry[0] for entry in CORPUS} - RETIRED_METHODS == declared

    @pytest.mark.parametrize("entry", CORPUS, ids=[entry[0] for entry in CORPUS])
    def test_request_and_response_bytes_are_pinned(self, entry):
        method, request, request_hex, response, response_hex = entry
        for message, wire_hex in ((request, request_hex), (response, response_hex)):
            assert encode_message(message).hex() == wire_hex, method
            assert same(decode_message(bytes.fromhex(wire_hex)), message), method
            assert reference.encode_message(message).hex() == wire_hex, method

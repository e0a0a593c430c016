"""Torn reads: fabric reads of seal-in-progress objects must fail typed.

The fabric path bypasses the metadata plane entirely, so nothing stops a
remote reader from pointing its aperture at an object whose producer is
still writing. Pre-validation of the in-region header (seal flag checked
*before* the copy, generation re-checked *after*) turns that silent
partial-payload read into a typed :class:`StaleDescriptorError`.
"""

from __future__ import annotations

import pytest

from repro.common.errors import StaleDescriptorError
from repro.memory.layout import HEADER_SIZE
from repro.plasma.buffer import RemoteBufferSource, RemoteReadIntegrity


def _source_for(
    cluster, reader_node: str, home_node: str, entry, generation=None, refresh=None
):
    """A remote buffer source aimed straight at *entry* on *home_node* —
    the raw aperture a reader holds, bypassing lookup."""
    home = cluster.store(home_node)
    handle = cluster.store(reader_node).peer(home_node)
    integrity = RemoteReadIntegrity(
        object_id=entry.object_id.binary(),
        generation=entry.generation if generation is None else generation,
        header_size=HEADER_SIZE,
        payload_crc=entry.payload_crc,
        refresh=refresh,
    )
    offset = entry.payload_offset + home._exposed_offset  # noqa: SLF001
    return RemoteBufferSource(handle.remote_region, offset, integrity)


def _gone():
    """A refresh hook whose re-lookup finds nothing: the error must escape."""
    return None


REFRESH = pytest.mark.parametrize("refresh", [None, _gone], ids=["bare", "refresh"])


class TestTornReads:
    @REFRESH
    def test_unsealed_object_fails_validation_not_partial_bytes(
        self, cluster3, refresh
    ):
        home = cluster3.store("node0")
        oid = cluster3.new_object_id()
        entry = home.create_object_unchecked(oid, 4096)
        home.local_buffer(entry).write(b"h" * 2048)  # seal in progress
        source = _source_for(cluster3, "node2", "node0", entry, refresh=refresh)
        out = None
        with pytest.raises(StaleDescriptorError, match="seal"):
            out = source.timed_view(0, 4096)
        # The guard fired before the stream: no partial payload escaped.
        assert out is None

    def test_sealed_object_reads_clean_through_same_path(self, cluster3):
        home = cluster3.store("node0")
        oid = cluster3.new_object_id()
        entry = home.create_object_unchecked(oid, 1024)
        home.local_buffer(entry).write(b"k" * 1024)
        entry = home.seal_object(oid)
        source = _source_for(cluster3, "node2", "node0", entry)
        out = source.timed_view(0, 1024)
        assert bytes(out) == b"k" * 1024

    @REFRESH
    def test_retired_object_fails_validation(self, cluster3, refresh):
        home = cluster3.store("node0")
        oid = cluster3.new_object_id()
        entry = home.create_object_unchecked(oid, 512)
        home.local_buffer(entry).write(b"r" * 512)
        entry = home.seal_object(oid)
        source = _source_for(cluster3, "node2", "node0", entry, refresh=refresh)
        home.delete_object(oid)  # header retired before the extent is freed
        with pytest.raises(StaleDescriptorError):
            source.timed_view(0, 512)

    @REFRESH
    def test_wrong_generation_fails_validation(self, cluster3, refresh):
        home = cluster3.store("node0")
        oid = cluster3.new_object_id()
        entry = home.create_object_unchecked(oid, 512)
        home.local_buffer(entry).write(b"g" * 512)
        entry = home.seal_object(oid)
        source = _source_for(
            cluster3,
            "node2",
            "node0",
            entry,
            generation=entry.generation + 5,
            refresh=refresh,
        )
        with pytest.raises(StaleDescriptorError, match="no longer matches"):
            source.timed_view(0, 512)

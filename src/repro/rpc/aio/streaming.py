"""Chunked bulk transfer over the fabric.

Migration (``begin_adopt``), scrub repair / replication (``create_replica``)
and tier promotion all pull a whole object's payload through a
:class:`~repro.thymesisflow.aperture.RemoteRegion`. Sync-mode clusters do it
in one ``view() + charge_read(total)`` lump; async-mode clusters call
:func:`stream_pull`, which splits the pull into ``chunk_bytes`` slices,
charges the same link cost model (``charge_read``) per slice, and copies
each slice straight into the destination extent. It runs inline
inside an RPC dispatch, where yielding is impossible. Sync mode never calls
it, keeping the baseline draw sequence — and therefore every standing
artifact — untouched.
"""

from __future__ import annotations

DEFAULT_CHUNK_BYTES = 64 * 1024


def stream_pull(region, offset: int, nbytes: int, out=None, *,
                chunk_bytes: int = DEFAULT_CHUNK_BYTES):
    """Pull ``nbytes`` at ``offset`` from *region* in timed chunks, each
    landing straight in *out* (any writable buffer of ``nbytes`` or more;
    a fresh ``bytearray`` when omitted). Returns *out*."""
    chunk_bytes = max(1, int(chunk_bytes))
    if out is None:
        out = bytearray(nbytes)
    dest = memoryview(out)
    done = 0
    while done < nbytes:
        n = min(chunk_bytes, nbytes - done)
        src = region.view(offset + done, n)
        region.charge_read(n)
        dest[done:done + n] = src
        done += n
    return out

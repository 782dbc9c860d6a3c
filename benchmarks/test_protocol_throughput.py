"""PROTOCOL — pack/parse must stay off the per-packet critical path.

Every data packet crosses ``encode`` once (producer) and ``parse_packet``
once per receiving speaker, so these two functions bound the packet rate
the whole simulation can sustain.  The hot paths are a single pre-composed
``struct.Struct`` pack and a zero-copy ``unpack_from`` parse whose payload
is a read-only ``memoryview`` into the datagram.

The floors are ~5x below measured throughput on a developer host, so the
guard trips on an algorithmic regression (a reintroduced copy, a per-call
``struct.pack`` format compile), not on CI host noise.  Each batch is
timed with ``time.perf_counter`` and the fastest of three rounds counts,
so the gate runs the same with or without ``--benchmark-disable``.
"""

import time

from repro.codec import CodecID
from repro.core.protocol import DataPacket, parse_packet

#: MTU-sized payload: the shape the rebroadcaster actually sends
PACKET = DataPacket(
    channel_id=1,
    seq=7,
    play_at=3.25,
    payload=b"\x01\x02" * 700,
    codec_id=CodecID.VORBIS_LIKE,
    synthetic=False,
    pcm_bytes=1400,
)
WIRE = PACKET.encode()
BATCH = 10_000
MIN_PACK_PER_SEC = 300_000
MIN_PARSE_PER_SEC = 60_000
ROUNDS = 3


def pack_batch():
    encode = PACKET.encode
    for _ in range(BATCH):
        encode()


def parse_batch():
    for _ in range(BATCH):
        parse_packet(WIRE)


def best_rate(batch) -> float:
    """Packets per second of the fastest of :data:`ROUNDS` batches."""
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        batch()
        best = min(best, time.perf_counter() - start)
    return BATCH / best


def test_pack_throughput():
    rate = best_rate(pack_batch)
    print(f"\npack: {rate:,.0f} packets/s (floor {MIN_PACK_PER_SEC:,})")
    assert rate >= MIN_PACK_PER_SEC


def test_parse_throughput():
    rate = best_rate(parse_batch)
    print(f"\nparse: {rate:,.0f} packets/s (floor {MIN_PARSE_PER_SEC:,})")
    assert rate >= MIN_PARSE_PER_SEC


def test_parse_is_zero_copy():
    # the companion correctness guard: the benchmarked path really is the
    # zero-copy one (payload views the wire buffer, no slice copy)
    out = parse_packet(WIRE)
    assert isinstance(out.payload, memoryview)
    assert out.payload.obj is WIRE
    assert out == PACKET

"""The WAN resequencer skips a hopeless gap prefix in one step.

A frame far ahead of the resequencer (a corrupted seq byte, or a relay
back from long downtime) opens a gap wider than the sender's
``RETRANSMIT_BUFFER`` ring.  The part of the gap the ring cannot hold is
abandoned up front, in one step that stops at the first position
already parked or missing; only the last ``RETRANSMIT_BUFFER``
positions are tracked for recovery.
"""

import time

from repro.codec import CodecID
from repro.core.protocol import DataPacket, peek_header
from repro.net import WanLink
from repro.net.wan import WanHop
from repro.sim import Simulator

RING = WanHop.RETRANSMIT_BUFFER


def _data(seq):
    return DataPacket(
        channel_id=1, seq=seq, play_at=0.0, payload=b"payload!",
        codec_id=CodecID.RAW,
    ).encode()


def _hop():
    sim = Simulator()
    link = WanLink(sim, bandwidth_bps=1e9, latency=0.01, jitter=0.0)
    got = []
    hop = WanHop(link, lambda w: got.append(peek_header(w)[2]),
                 recovery="nack")
    return sim, hop, got


def test_a_2_24_position_gap_is_skipped_in_one_step():
    sim, hop, got = _hop()
    far = 1 << 24
    hop.send(_data(0))
    hop.send(_data(far))
    t0 = time.perf_counter()
    sim.run(until=0.02)
    assert time.perf_counter() - t0 < 1.0
    # gap [1, far): all but the ring's worth abandoned at once
    assert hop.stats.abandoned == far - 1 - RING
    assert hop._next == far - RING
    assert sorted(hop._missing) == list(range(far - RING, far))
    assert hop.pending == 1
    assert got == [0]
    # nothing in the ring to replay: the tracked tail times out too
    sim.run(until=2.0)
    assert hop.stats.abandoned == far - 1
    assert got == [0, far]


def test_the_skip_stops_at_the_first_known_position():
    sim, hop, got = _hop()
    hop.send(_data(0))
    hop.send(_data(500))
    hop.send(_data(2000))
    sim.run(until=0.02)
    # 500 opened [1, 500): [1, 436) abandoned, [436, 500) missing; 2000's
    # hopeless prefix starts at 436, already missing, so it skips nothing
    # and tracks every new position in [436, 2000)
    assert hop.stats.abandoned == 500 - 1 - RING
    assert hop._next == 500 - RING
    assert sorted(hop._missing) == [
        s for s in range(500 - RING, 2000) if s != 500
    ]
    assert hop.pending == 2
    assert got == [0]

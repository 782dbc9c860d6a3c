"""The codec queue in a station: blocks handed over during their CPU charge.

Every rebroadcaster hands its block to the codec queue when its encode
charge starts, and every speaker whose payload the decode cache lacks
does the same for the decode.  The first demand in a group computes the
whole group.  These tests pin the system-level contract: the same run
with every codec its own group (every block computed alone) plays
identically, groups really form, and a producer that dies mid-charge
leaves nothing behind and disturbs no other channel.
"""

import pytest

from repro.audio import AudioEncoding, AudioParams
from repro.audio.signal import music
from repro.codec.base import BlockCodec
from repro.codec.queue import QUEUE
from repro.codec.vorbislike import VorbisLikeCodec
from repro.core import EthernetSpeakerSystem

PARAMS = AudioParams(AudioEncoding.SLINEAR16, 22050, 1)


def _station(channels=3, seconds=3.0, quality0=10):
    """``channels`` compressed channels, each from its own producer to
    two speakers; channel 0 encodes at ``quality0``."""
    system = EthernetSpeakerSystem(seed=3)
    rbs, speakers = [], []
    for i in range(channels):
        producer = system.add_producer()
        channel = system.add_channel(f"ch{i}", params=PARAMS,
                                     compress="always",
                                     quality=10 if i else quality0)
        rbs.append(system.add_rebroadcaster(
            producer, channel, control_interval=0.5
        ))
        speakers.append([system.add_speaker(channel=channel)
                         for _ in range(2)])
        system.play_pcm(producer, music(seconds, 22050, seed=i), PARAMS)
    return system, rbs, speakers


def _logs(speakers):
    return [[(node.stats.play_log, node.stats.write_offsets)
             for node in nodes] for nodes in speakers]


def test_grouped_run_plays_like_blocks_computed_alone(monkeypatch):
    groups = {"encode": [], "decode": []}
    encode, decode = VorbisLikeCodec.encode_blocks, VorbisLikeCodec.decode_blocks

    def spy_encode(self, blocks):
        groups["encode"].append(len(blocks))
        return encode(self, blocks)

    def spy_decode(self, payloads, params=None):
        groups["decode"].append(len(payloads))
        return decode(self, payloads, params)

    monkeypatch.setattr(VorbisLikeCodec, "encode_blocks", spy_encode)
    monkeypatch.setattr(VorbisLikeCodec, "decode_blocks", spy_decode)
    before = len(QUEUE)
    grouped, _, grouped_speakers = _station()
    grouped.run(until=5.0)
    assert max(groups["encode"]) == 3 and max(groups["decode"]) == 3
    assert len(QUEUE) == before

    # every codec instance its own group: each block is computed alone
    monkeypatch.setattr(VorbisLikeCodec, "batch_key", BlockCodec.batch_key)
    groups["encode"].clear()
    groups["decode"].clear()
    alone, _, alone_speakers = _station()
    alone.run(until=5.0)
    assert set(groups["encode"]) == {1} and set(groups["decode"]) == {1}
    assert _logs(grouped_speakers) == _logs(alone_speakers)
    assert (grouped.pipeline_report().stats["speaker"]
            == alone.pipeline_report().stats["speaker"])
    assert grouped.sim.now == alone.sim.now


@pytest.mark.parametrize("quality0", [10, 5])
@pytest.mark.parametrize("block", [1, 4, 9])
def test_producer_crashed_mid_charge_leaves_nothing_pending(block, quality0,
                                                           monkeypatch):
    """Channel 0's producer is killed right after it hands over its
    ``block``-th block, while its encode charge runs.  Its block is
    released unused — computed with the other channels' group, or, at
    its own quality, never computed at all; no other channel raises,
    and they play every block they play when nothing crashes (one
    channel fewer on the LAN shifts their timing, not their blocks)."""
    healthy, _, healthy_speakers = _station(quality0=quality0)
    healthy.run(until=5.0)
    before = len(QUEUE)
    system, rbs, speakers = _station(quality0=quality0)
    victim = rbs[0]
    handed = []
    hand_over = QUEUE.encode

    def encode(codec, samples):
        if codec is victim._encoder:
            handed.append(system.sim.now)
            if len(handed) == block:
                system.sim.schedule(0.0, victim.crash)
        return hand_over(codec, samples)

    monkeypatch.setattr(QUEUE, "encode", encode)
    system.run(until=5.0)
    assert len(handed) == block
    assert not victim.alive
    assert len(QUEUE) == before
    assert not system.sim.unhandled
    for nodes, healthy_nodes in zip(speakers[1:], healthy_speakers[1:]):
        for node, healthy_node in zip(nodes, healthy_nodes):
            assert node.stats.decode_failed == 0
            assert ([play_at for play_at, _ in node.stats.play_log]
                    == [play_at for play_at, _ in healthy_node.stats.play_log])

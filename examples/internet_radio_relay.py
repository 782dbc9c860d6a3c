#!/usr/bin/env python3
"""Figure 1 end to end: WAN internet radio -> rebroadcaster -> LAN speakers.

A Real-Audio-style server on the public Internet streams an MP3-like file
over a jittery T1 to an unmodified client application on the gateway
machine.  The client writes PCM to what it thinks is /dev/audio — actually
the VAD — and the rebroadcaster multicasts it to the Ethernet Speakers.
One WAN connection serves any number of LAN listeners.

Run:  python examples/internet_radio_relay.py
"""

from repro.apps import StreamingClientApp, WanRadioServer
from repro.audio import music, segmental_snr_db
from repro.codec import Mp3LikeFile
from repro.core import EthernetSpeakerSystem
from repro.metrics import ascii_table
from repro.net import WanLink


def main() -> None:
    system = EthernetSpeakerSystem(bandwidth_bps=100e6, jitter=0.001, seed=7)
    gateway = system.add_producer(name="gateway")
    channel = system.add_channel(
        "internet-radio", compress="always", quality=10
    )
    system.add_rebroadcaster(gateway, channel)
    speakers = [system.add_speaker(channel=channel) for _ in range(4)]

    # the WAN leg: a T1 with 80 ms latency and 40 ms jitter
    program = music(8.0, 44100, seed=3)
    mp3 = Mp3LikeFile.encode(program, 44100, bitrate_kbps=192).to_bytes()
    wan = WanLink(system.sim, bandwidth_bps=1.5e6, latency=0.08,
                  jitter=0.04, seed=11)
    server = WanRadioServer(system.sim, wan, mp3)
    client = StreamingClientApp(gateway.machine, server,
                                device_path="/dev/vads")
    server.start()
    client.start()
    system.run(until=20.0)

    st = wan.stats
    print(f"WAN: {st.sent} blocks sent, {st.delivered} delivered "
          f"({st.bytes_sent/1e6:.2f} MB over one connection)")
    print(f"radio client decoded {client.blocks_played} blocks "
          f"behind a {client.jitter_buffer_blocks}-block jitter buffer")
    print()
    rows = []
    for node in speakers:
        out = node.sink.waveform()
        rows.append([
            node.speaker.name,
            node.stats.played,
            node.stats.late_dropped,
            f"{node.sink.audio_seconds:.1f}s",
            f"{segmental_snr_db(program, out[: len(program)]):.1f} dB",
        ])
    print(ascii_table(
        ["speaker", "played", "late-drop", "audio", "segSNR vs source"], rows
    ))
    skew = system.skew_report()
    print(f"\nskew across the four speakers: max {skew['max_skew']*1000:.2f} ms")
    print("(the WAN jitter never reaches the LAN: the rebroadcaster "
          "re-times everything)")


if __name__ == "__main__":
    main()

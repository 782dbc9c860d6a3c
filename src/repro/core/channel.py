"""Channel configuration shared by producer and speakers."""

from __future__ import annotations

from dataclasses import dataclass

from repro.audio.params import AudioParams
from repro.codec.base import CodecID


@dataclass(frozen=True)
class ChannelConfig:
    """One audio channel: a multicast group plus compression policy.

    ``compress`` is the selective-compression policy of §2.2: low-bit-rate
    channels are "still sent uncompressed because the use of Ogg Vorbis
    introduces latency and increases the workload on the sender".

    * ``"never"`` — raw PCM always;
    * ``"always"`` — VorbisLike at ``quality`` always;
    * ``"auto"`` — compress only when the raw stream exceeds
      ``compress_threshold_bps``.
    """

    channel_id: int
    name: str
    group_ip: str
    port: int
    params: AudioParams
    compress: str = "auto"
    quality: int = 10
    compress_threshold_bps: int = 256_000
    codec_id: CodecID = CodecID.VORBIS_LIKE

    def __post_init__(self) -> None:
        if self.compress not in ("never", "always", "auto"):
            raise ValueError(f"bad compress policy: {self.compress}")
        if not 0 <= self.quality <= 10:
            raise ValueError(f"quality must be 0..10: {self.quality}")

    def effective_codec(self, params: AudioParams) -> CodecID:
        """The codec the rebroadcaster will use for a stream in ``params``."""
        if self.compress == "never":
            return CodecID.RAW
        if self.compress == "always":
            return self.codec_id
        if params.bits_per_second > self.compress_threshold_bps:
            return self.codec_id
        return CodecID.RAW

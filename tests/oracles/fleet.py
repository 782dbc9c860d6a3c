"""The per-object fleet a :class:`~repro.core.cohort.SpeakerCohort`
stands in for: N ordinary ``add_speaker`` nodes behind the cohort's
member API, so one harness drives either fleet."""

from dataclasses import dataclass
from typing import List

from repro.core.system import SpeakerNode


@dataclass
class FleetMember(SpeakerNode):
    """A :class:`SpeakerNode` with a cohort member's ``unhang`` hook; the
    node verbs (``crash``/``hang``/``restart``) it inherits."""

    def unhang(self) -> None:
        self.speaker.unhang()


class ObjectFleet:
    """N per-object speakers behind the cohort member API."""

    def __init__(self, nodes: List[SpeakerNode], channel):
        self.nodes = nodes
        self.channel = channel
        self.members = len(nodes)
        self.spills = 0
        self.events_saved = 0
        self.tokens = [FleetMember(**vars(n)) for n in nodes]

    def member_stats(self, i: int):
        return self.nodes[i].speaker.stats

    def member_play_log(self, i: int):
        return self.nodes[i].speaker.stats.play_log

    def member_write_offsets(self, i: int):
        return self.nodes[i].speaker.stats.write_offsets

    def stat_sum(self, field: str) -> int:
        return sum(getattr(n.speaker.stats, field) for n in self.nodes)


def add_object_fleet(system, channel, members: int, name: str = "",
                     cpu_freq_hz: float = 233e6,
                     block_seconds: float = 0.065, vlan: int = 1,
                     **speaker_kwargs) -> ObjectFleet:
    """``system.add_speaker_cohort``'s signature, built from
    ``members`` ordinary speakers named ``{name}-m{i}``."""
    name = name or f"cohort{len(system.cohorts)}"
    nodes = [
        system.add_speaker(
            channel=channel, name=f"{name}-m{i}", cpu_freq_hz=cpu_freq_hz,
            block_seconds=block_seconds, vlan=vlan, **speaker_kwargs,
        )
        for i in range(members)
    ]
    return ObjectFleet(nodes, channel)

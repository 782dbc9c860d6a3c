"""Channel selection and central override (§5.3).

"All ESs within an administrative domain may need to be controlled
centrally (e.g., movies shown on TV sets on airplane seats can be
overridden by crew announcements)."

The :class:`ControlStation` multicasts management commands; each speaker
runs a :class:`ManagementAgent` that executes them: tune to a named
channel, set volume, or override every speaker onto an announcement
channel and restore them afterwards.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.protocol import (
    ACMP_CONNECT_RX_COMMAND,
    ACMP_CONNECT_RX_RESPONSE,
    ACMP_DISCONNECT_RX_COMMAND,
    ACMP_DISCONNECT_RX_RESPONSE,
    ACMP_OK,
    AECP_COMMAND,
    AECP_NO_SUCH_DESCRIPTOR,
    AECP_OK,
    AECP_READ_DESCRIPTOR,
    AECP_RESPONSE,
    AcmpPacket,
    AecpPacket,
    ProtocolError,
    parse_packet,
)
from repro.platform.archive import pack_archive, unpack_archive
from repro.sim.process import Process, Timeout

MGMT_GROUP = "239.192.255.2"
MGMT_PORT = 4998


class ControlStation:
    """The central console."""

    def __init__(self, machine, group: str = MGMT_GROUP, port: int = MGMT_PORT):
        self.machine = machine
        self.group = group
        self.port = port
        self._sock = None
        self._seq = 0

    def _send(self, fields: Dict[str, bytes]) -> None:
        if self._sock is None:
            self._sock = self.machine.net.socket()
        self._seq += 1
        fields["seq"] = str(self._seq).encode()
        self._sock.sendto(pack_archive(fields), (self.group, self.port))

    def tune_all(self, group_ip: str, port: int) -> None:
        self._send({
            "cmd": b"tune",
            "group": group_ip.encode(),
            "port": str(port).encode(),
        })

    def override(self, group_ip: str, port: int) -> None:
        """Crew announcement: every speaker switches, remembering where
        it was."""
        self._send({
            "cmd": b"override",
            "group": group_ip.encode(),
            "port": str(port).encode(),
        })

    def release(self) -> None:
        """End of announcement: speakers return to their prior channel."""
        self._send({"cmd": b"release"})

    def set_volume(self, gain: float) -> None:
        self._send({"cmd": b"volume", "gain": repr(gain).encode()})

    def census(self, group_ip: str, port: int, window: float = 0.5):
        """Generator: count the speakers tuned to a channel.

        The MSNIP stand-in (§4.3): the station polls, tuned speakers
        answer, and the producer can suspend a channel nobody reports
        for.  (Real MSNIP asks the first-hop routers instead; the
        listener-count semantics are the same.)
        """
        reply_sock = self.machine.net.socket()
        self._seq += 1
        self._sock = self._sock or self.machine.net.socket()
        self._sock = self._sock
        fields = {
            "cmd": b"census",
            "seq": str(self._seq).encode(),
            "group": group_ip.encode(),
            "port": str(port).encode(),
            "reply_ip": self.machine.net.ip.encode(),
            "reply_port": str(reply_sock.port).encode(),
        }
        self._sock.sendto(pack_archive(fields), (self.group, self.port))
        count = 0
        deadline = self.machine.sim.now + window
        while True:
            remaining = deadline - self.machine.sim.now
            if remaining <= 0:
                break
            try:
                yield Timeout(reply_sock.recv(), remaining)
                count += 1
            except TimeoutError:
                break
        reply_sock.close()
        return count


class ManagementAgent:
    """Per-speaker command executor.

    Besides the archive-packed console commands it now answers the
    controller's binary PDUs on the same socket: AECP READ_DESCRIPTOR
    (unicast reply with the speaker's descriptor) and ACMP
    CONNECT_RX/DISCONNECT_RX (retune the speaker — starting it on first
    connect if it booted parked — and acknowledge).  When the machine
    has a management NIC the agent binds there, keeping control-plane
    churn off the audio LAN.
    """

    def __init__(
        self,
        speaker,
        group: str = MGMT_GROUP,
        port: int = MGMT_PORT,
        entity_id: int = 0,
        stack=None,
    ):
        self.speaker = speaker
        self.machine = speaker.machine
        self.group = group
        self.port = port
        self.entity_id = entity_id
        self.stack = stack if stack is not None else self.machine.control_stack
        self.commands_executed = 0
        self.acmp_handled = 0
        self.aecp_handled = 0
        self.on_connected: Optional[Callable[[int], None]] = None
        self.on_disconnected: Optional[Callable[[], None]] = None
        self._saved: Optional[tuple] = None

    def start(self) -> Process:
        return self.machine.spawn(self._run(), name="mgmt-agent")

    def _run(self):
        sock = self.stack.socket(self.port)
        sock.join_multicast(self.group)
        while True:
            msg = yield sock.recv()
            pdu = None
            try:
                pdu = parse_packet(msg.payload)
            except ProtocolError:
                pass
            if pdu is not None:
                yield self.machine.cpu.run(10_000, domain="user")
                if isinstance(pdu, AecpPacket):
                    self._handle_aecp(sock, pdu, msg.src)
                elif isinstance(pdu, AcmpPacket):
                    self._handle_acmp(sock, pdu, msg.src)
                continue
            try:
                fields = unpack_archive(msg.payload)
            except ValueError:
                continue
            yield self.machine.cpu.run(10_000, domain="user")
            if fields.get("cmd") == b"census":
                self._answer_census(sock, fields)
            else:
                self._execute(fields)

    # -- ATDECC-style PDUs ----------------------------------------------------

    def descriptor(self) -> Dict[str, bytes]:
        sp = self.speaker
        return {
            "entity": str(self.entity_id).encode(),
            "name": getattr(sp, "name", self.machine.name).encode(),
            "group": (sp.group_ip or "").encode(),
            "port": str(sp.port).encode(),
            "gain": repr(getattr(sp, "gain", 1.0)).encode(),
        }

    def _handle_aecp(self, sock, pkt: AecpPacket, src) -> None:
        if pkt.message_type != AECP_COMMAND:
            return
        if pkt.entity_id != self.entity_id:
            return
        if pkt.command == AECP_READ_DESCRIPTOR:
            reply = AecpPacket(
                entity_id=self.entity_id,
                message_type=AECP_RESPONSE,
                command=pkt.command,
                status=AECP_OK,
                payload=pack_archive(self.descriptor()),
                seq=pkt.seq,
            )
        else:
            reply = AecpPacket(
                entity_id=self.entity_id,
                message_type=AECP_RESPONSE,
                command=pkt.command,
                status=AECP_NO_SUCH_DESCRIPTOR,
                seq=pkt.seq,
            )
        sock.sendto(reply.encode(), src)
        self.aecp_handled += 1
        self.commands_executed += 1

    def _handle_acmp(self, sock, pkt: AcmpPacket, src) -> None:
        if pkt.listener_entity_id != self.entity_id:
            return
        speaker = self.speaker
        status = ACMP_OK
        if pkt.message_type == ACMP_CONNECT_RX_COMMAND:
            reply_type = ACMP_CONNECT_RX_RESPONSE
            speaker.retune(pkt.group_ip, pkt.port)
            if not speaker.started:
                # booted parked: first CONNECT starts the receive loop
                speaker.start()
            if self.on_connected is not None:
                self.on_connected(pkt.channel_id)
        elif pkt.message_type == ACMP_DISCONNECT_RX_COMMAND:
            reply_type = ACMP_DISCONNECT_RX_RESPONSE
            speaker.retune(None, 0)
            if self.on_disconnected is not None:
                self.on_disconnected()
        else:
            return
        reply = AcmpPacket(
            message_type=reply_type,
            talker_entity_id=pkt.talker_entity_id,
            listener_entity_id=pkt.listener_entity_id,
            group_ip=pkt.group_ip,
            port=pkt.port,
            channel_id=pkt.channel_id,
            status=status,
            seq=pkt.seq,
        )
        sock.sendto(reply.encode(), src)
        self.acmp_handled += 1
        self.commands_executed += 1

    def _answer_census(self, sock, fields: Dict[str, bytes]) -> None:
        tuned_to = (self.speaker.group_ip, self.speaker.port)
        asked = (
            fields.get("group", b"").decode(),
            int(fields.get("port", b"0").decode() or 0),
        )
        if tuned_to == asked:
            sock.sendto(
                b"listening",
                (fields["reply_ip"].decode(),
                 int(fields["reply_port"].decode())),
            )
            self.commands_executed += 1

    def _execute(self, fields: Dict[str, bytes]) -> None:
        cmd = fields.get("cmd", b"")
        speaker = self.speaker
        if cmd == b"tune":
            speaker.retune(
                fields["group"].decode(), int(fields["port"].decode())
            )
        elif cmd == b"override":
            if self._saved is None:
                self._saved = (speaker.group_ip, speaker.port)
            speaker.retune(
                fields["group"].decode(), int(fields["port"].decode())
            )
        elif cmd == b"release":
            if self._saved is not None:
                group_ip, port = self._saved
                self._saved = None
                speaker.retune(group_ip, port)
        elif cmd == b"volume":
            speaker.gain = float(fields["gain"].decode())
        else:
            return
        self.commands_executed += 1

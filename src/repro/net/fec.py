"""Application-layer forward error correction for WAN hops.

NACK recovery (PR 7) needs a live reverse path and costs a round trip
per hole; the paper's internet-radio links (§6) are exactly where the
reverse path is slow, lossy, or absent.  This module adds the zero
-reverse-traffic alternative: the sender groups consecutive data frames
into interleaved groups of ``k`` and emits ``r`` parity frames per group
(:class:`~repro.core.protocol.FecPacket`); the receiver buffers recent
data wire images and repairs up to ``r`` erasures per group the moment
enough parity arrives — no NACK, no retransmit, bounded added latency of
roughly ``k * interleave`` frame cadences.

The code is a systematic erasure code over GF(256):

* ``r == 1`` is plain XOR parity (the classic single-erasure repair);
* ``r > 1`` uses a Cauchy matrix — parity row ``j`` weights member ``t``
  by ``1 / ((255 - j) ^ t)`` in GF(256).  With ``j < 16`` and
  ``t < 128`` the row and column generators are distinct, so every
  square submatrix is invertible and **any** ``e <= r`` erasures are
  repairable from **any** ``e`` surviving parity rows.

Parity covers the members' whole wire images (zero-padded to the
longest), so a repair reproduces the original datagram byte-exactly —
header, payload, everything — and the hop can inject it into the
resequencer as if it had arrived off the wire.  Every group is
self-describing (geometry plus per-member length and crc32 ride in the
parity frame), so the receiver needs no configuration agreement with
the sender, and corrupt buffered members are excluded from the
equations instead of poisoning them.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.protocol import (
    SEQ_MOD,
    FecPacket,
    epoch_newer,
    seq_delta,
)

__all__ = [
    "MAX_K",
    "MAX_R",
    "coefficient",
    "encode_group",
    "repair_group",
    "FecStats",
    "FecEncoder",
    "FecReassembler",
]

#: geometry bounds that keep the Cauchy generators disjoint (member
#: index < 128 never collides with parity generator 255 - j >= 240)
MAX_K = 128
MAX_R = 16


# -- GF(256) arithmetic (AES polynomial 0x11b, generator 3) -------------------

def _build_tables():
    exp = np.zeros(512, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int32)
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        # multiply by the generator 0x03 (0x02 is NOT primitive for
        # 0x11b — its order is only 51, which would leave the log
        # table full of holes)
        x ^= (x << 1)
        if x & 0x100:
            x ^= 0x11B
    exp[255:510] = exp[:255]
    # full 256x256 product table: mul[a, b] via one fancy-index lookup,
    # so weighting a whole wire image by a coefficient is vectorised
    mul = np.zeros((256, 256), dtype=np.uint8)
    la = log[1:]
    mul[1:, 1:] = exp[(la[:, None] + la[None, :]) % 255]
    inv = np.zeros(256, dtype=np.uint8)
    inv[1:] = exp[(255 - la) % 255]
    return exp, log, mul, inv


_EXP, _LOG, _MUL, _INV = _build_tables()


def _gf_mul(a: int, b: int) -> int:
    return int(_MUL[a, b])


def _gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("GF(256) inverse of 0")
    return int(_INV[a])


def coefficient(parity_index: int, member_index: int, r: int) -> int:
    """Weight of member ``t`` in parity row ``j`` for an ``r``-row group.

    ``r == 1`` is all-ones (pure XOR); ``r > 1`` is the Cauchy element
    ``1 / ((255 - j) ^ t)``, nonzero and submatrix-invertible for all
    ``j < MAX_R``, ``t < MAX_K``.
    """
    if r == 1:
        return 1
    return _gf_inv((255 - parity_index) ^ member_index)


def _pad(buf: bytes, length: int) -> np.ndarray:
    arr = np.zeros(length, dtype=np.uint8)
    arr[: len(buf)] = np.frombuffer(buf, dtype=np.uint8)
    return arr


def encode_group(members: Sequence[bytes], r: int) -> List[bytes]:
    """``r`` parity payloads over the members' padded wire images."""
    if not members or len(members) > MAX_K:
        raise ValueError(f"group size {len(members)} outside [1, {MAX_K}]")
    if not 1 <= r <= MAX_R:
        raise ValueError(f"parity count {r} outside [1, {MAX_R}]")
    length = max(len(m) for m in members)
    padded = [_pad(m, length) for m in members]
    rows = []
    for j in range(r):
        acc = np.zeros(length, dtype=np.uint8)
        for t, arr in enumerate(padded):
            c = coefficient(j, t, r)
            acc ^= arr if c == 1 else _MUL[c][arr]
        rows.append(acc.tobytes())
    return rows


def repair_group(
    present: Dict[int, bytes],
    parity_rows: Dict[int, bytes],
    k: int,
    r: int,
) -> Optional[Dict[int, bytes]]:
    """Reconstruct the erased members of one group, or None.

    ``present`` maps member index -> wire image for the members the
    receiver holds (verified copies only); ``parity_rows`` maps parity
    index -> parity payload.  Returns padded reconstructions for every
    member index not in ``present`` when the erasure count is within the
    surviving parity budget; returns ``None`` when it is not (never a
    partial or speculative repair).
    """
    erased = [t for t in range(k) if t not in present]
    if not erased:
        return {}
    if len(erased) > len(parity_rows) or len(erased) > r:
        return None
    use = sorted(parity_rows)[: len(erased)]
    length = len(parity_rows[use[0]])
    # syndromes: fold every present member out of each parity row, so
    # S_j = sum_{t erased} coeff(j, t) * member_t
    syndromes = []
    for j in use:
        s = np.frombuffer(parity_rows[j], dtype=np.uint8).copy()
        if len(s) != length:
            return None
        for t, wire in present.items():
            c = coefficient(j, t, r)
            arr = _pad(wire, length)
            s ^= arr if c == 1 else _MUL[c][arr]
        syndromes.append(s)
    matrix = [[coefficient(j, t, r) for t in erased] for j in use]
    e = len(erased)
    # Gaussian elimination over GF(256), byte-vector right-hand sides
    for col in range(e):
        pivot = next((i for i in range(col, e) if matrix[i][col]), None)
        if pivot is None:
            return None  # singular: over-capacity pattern slipped through
        if pivot != col:
            matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
            syndromes[col], syndromes[pivot] = (
                syndromes[pivot], syndromes[col],
            )
        inv = _gf_inv(matrix[col][col])
        if inv != 1:
            matrix[col] = [_gf_mul(inv, x) for x in matrix[col]]
            syndromes[col] = _MUL[inv][syndromes[col]]
        for row in range(e):
            f = matrix[row][col]
            if row == col or not f:
                continue
            matrix[row] = [
                x ^ _gf_mul(f, y)
                for x, y in zip(matrix[row], matrix[col])
            ]
            syndromes[row] = syndromes[row] ^ _MUL[f][syndromes[col]]
    return {t: syndromes[i].tobytes() for i, t in enumerate(erased)}


# -- shared counters ----------------------------------------------------------

@dataclass
class FecStats:
    """Sender + receiver FEC counters for one hop (or one test codec)."""

    parity_sent: int = 0        # parity frames emitted by the encoder
    parity_bytes: int = 0       # wire bytes of emitted parity (overhead)
    data_bytes: int = 0         # wire bytes of the data frames protected
    parity_received: int = 0    # parity frames the reassembler accepted
    repaired: int = 0           # data frames reconstructed and injected
    unrepairable: int = 0       # member losses FEC saw but could not fix
    wasted: int = 0             # parity frames that repaired nothing
    corrupt_members: int = 0    # buffered members failing their crc
    stale_parity: int = 0       # parity from a dead epoch, dropped
    flushed_groups: int = 0     # partial groups force-emitted (epoch/timer)


# -- sender side --------------------------------------------------------------

class _TxGroup:
    __slots__ = ("base_seq", "members")

    def __init__(self, base_seq: int):
        self.base_seq = base_seq
        self.members: List[bytes] = []


class _TxChannel:
    __slots__ = ("epoch", "next_seq", "counter", "lanes")

    def __init__(self, interleave: int):
        self.epoch: Optional[int] = None
        self.next_seq: Optional[int] = None
        self.counter = 0
        self.lanes: List[Optional[_TxGroup]] = [None] * interleave


class FecEncoder:
    """Sender-side group builder: feed data frames, it emits parity.

    Consecutive data seqs round-robin across ``interleave`` open groups,
    so each group's members are ``base, base + d, ...`` — a burst of up
    to ``r * interleave`` consecutive losses still lands at most ``r``
    erasures in any one group.  A group emits its ``r`` parity frames
    when the ``k``-th member lands; epoch changes and the per-group
    flush timer emit *partial* parity (actual member count in the PDU)
    so a paused stream never strands a protected frame, mirroring the
    resequencer's epoch-boundary flush.
    """

    def __init__(
        self,
        sim,
        emit: Callable[[bytes], None],
        k: int = 4,
        r: int = 1,
        interleave: int = 1,
        flush_timeout: float = 0.25,
        stats: Optional[FecStats] = None,
    ):
        if not 1 <= k <= MAX_K:
            raise ValueError(f"fec k={k} outside [1, {MAX_K}]")
        if not 1 <= r <= MAX_R:
            raise ValueError(f"fec r={r} outside [1, {MAX_R}]")
        if not 1 <= interleave <= 32:
            raise ValueError(f"fec interleave={interleave} outside [1, 32]")
        self.sim = sim
        self.emit = emit
        self.k = k
        self.r = r
        self.interleave = interleave
        self.flush_timeout = flush_timeout
        self.stats = stats if stats is not None else FecStats()
        self._channels: Dict[int, _TxChannel] = {}

    def on_data(self, channel_id: int, seq: int, epoch: int, wire) -> None:
        ch = self._channels.get(channel_id)
        if ch is None:
            ch = self._channels[channel_id] = _TxChannel(self.interleave)
        if ch.epoch is not None and epoch != ch.epoch:
            self._flush_channel(channel_id, ch)
        if ch.next_seq is not None and seq != ch.next_seq:
            # the stream skipped or restarted under us: the arithmetic
            # member rule (base + t * stride) no longer holds, so close
            # out what we have and re-anchor
            self._flush_channel(channel_id, ch)
        ch.epoch = epoch
        lane = ch.counter % self.interleave
        grp = ch.lanes[lane]
        if grp is None:
            grp = ch.lanes[lane] = _TxGroup(seq)
            if self.flush_timeout is not None:
                self.sim.schedule_transient(
                    self.flush_timeout, self._timer_flush,
                    channel_id, lane, grp,
                )
        grp.members.append(bytes(wire))
        self.stats.data_bytes += len(wire)
        ch.counter += 1
        ch.next_seq = (seq + 1) % SEQ_MOD
        if len(grp.members) == self.k:
            ch.lanes[lane] = None
            self._emit_group(channel_id, ch.epoch, grp)

    def flush(self) -> None:
        """Emit partial parity for every open group (all channels)."""
        for channel_id, ch in self._channels.items():
            self._flush_channel(channel_id, ch)

    def reset(self) -> None:
        """Drop all open groups without emitting (sender restart)."""
        self._channels.clear()

    def _flush_channel(self, channel_id: int, ch: _TxChannel) -> None:
        for lane, grp in enumerate(ch.lanes):
            if grp is not None:
                ch.lanes[lane] = None
                self.stats.flushed_groups += 1
                self._emit_group(channel_id, ch.epoch, grp)
        ch.counter = 0
        ch.next_seq = None

    def _timer_flush(self, channel_id: int, lane: int, grp: _TxGroup):
        ch = self._channels.get(channel_id)
        if ch is None or ch.lanes[lane] is not grp:
            return  # group completed or was flushed already
        ch.lanes[lane] = None
        self.stats.flushed_groups += 1
        self._emit_group(channel_id, ch.epoch, grp)

    def _emit_group(self, channel_id: int, epoch: int, grp: _TxGroup):
        members = grp.members
        rows = encode_group(members, self.r)
        sizes = tuple(len(m) for m in members)
        crcs = tuple(zlib.crc32(m) for m in members)
        for j, payload in enumerate(rows):
            pkt = FecPacket(
                channel_id=channel_id,
                base_seq=grp.base_seq,
                k=len(members),
                r=self.r,
                parity_index=j,
                stride=self.interleave,
                member_sizes=sizes,
                member_crcs=crcs,
                payload=payload,
                epoch=epoch,
            )
            wire = pkt.encode()
            self.stats.parity_sent += 1
            self.stats.parity_bytes += len(wire)
            self.emit(wire)


# -- receiver side ------------------------------------------------------------

class _RxGroup:
    __slots__ = ("rows", "received")

    def __init__(self):
        self.rows: Dict[int, FecPacket] = {}
        self.received = 0


class _RxChannel:
    __slots__ = ("epoch", "ring", "newest", "pending", "done", "done_q")

    def __init__(self):
        self.epoch: Optional[int] = None
        self.ring: "OrderedDict[int, bytes]" = OrderedDict()
        self.newest: Optional[int] = None
        self.pending: "OrderedDict[int, _RxGroup]" = OrderedDict()
        self.done: set = set()
        self.done_q: deque = deque()


class FecReassembler:
    """Receiver-side repair: buffer data, fold in parity, inject fixes.

    Feed every arriving data frame through :meth:`on_data` and every
    parity frame through :meth:`on_parity`; both return the list of
    reconstructed wire images that became repairable, byte-verified
    against the group's member crc32s before they are handed back.
    Groups are self-describing, so no sender configuration is needed.
    Epoch tracking follows *data* frames only (a parity frame's epoch
    rides outside its body crc, so it is never trusted to advance
    state); stale parity is dropped, and an epoch step flushes all
    pending state exactly like the hop resequencer.
    """

    #: groups per channel holding parity that no repair has used yet;
    #: the oldest is abandoned past this
    PENDING_LIMIT = 64
    #: finished group ids remembered per channel, so late parity for an
    #: already-decided group is recognised and dropped
    DONE_LIMIT = 1024

    def __init__(
        self,
        stats: Optional[FecStats] = None,
        window: int = 256,
    ):
        self.stats = stats if stats is not None else FecStats()
        self.window = window
        self._channels: Dict[int, _RxChannel] = {}

    def on_data(
        self, channel_id: int, seq: int, epoch: int, wire
    ) -> List[bytes]:
        ch = self._channels.get(channel_id)
        if ch is None:
            ch = self._channels[channel_id] = _RxChannel()
        if ch.epoch is None or epoch != ch.epoch:
            if ch.epoch is not None and not epoch_newer(epoch, ch.epoch):
                return []  # stale incarnation; the resequencer drops it
            self._flush_channel(ch)
            ch.epoch = epoch
        ch.ring[seq] = bytes(wire)
        ch.ring.move_to_end(seq)
        if ch.newest is None or seq_delta(seq, ch.newest) < SEQ_MOD // 2:
            ch.newest = seq
        while len(ch.ring) > self.window:
            ch.ring.popitem(last=False)
        repaired: List[bytes] = []
        for base in list(ch.pending):
            grp = ch.pending.get(base)
            if grp is None:
                continue
            pkt = next(iter(grp.rows.values()))
            if seq in pkt.member_seqs():
                repaired.extend(self._try_repair(ch, base))
        self._evict_stale(ch)
        return repaired

    def on_parity(self, pkt: FecPacket) -> List[bytes]:
        self.stats.parity_received += 1
        ch = self._channels.get(pkt.channel_id)
        if ch is None or ch.epoch is None or pkt.epoch != ch.epoch:
            # no data seen for this channel+epoch yet (or a dead epoch):
            # never let a parity frame steer epoch state
            self.stats.stale_parity += 1
            return []
        if pkt.base_seq in ch.done:
            self.stats.wasted += 1
            return []
        grp = ch.pending.get(pkt.base_seq)
        if grp is None:
            grp = ch.pending[pkt.base_seq] = _RxGroup()
        if pkt.parity_index in grp.rows:
            self.stats.wasted += 1  # duplicate parity row
            return []
        grp.rows[pkt.parity_index] = pkt
        grp.received += 1
        repaired = self._try_repair(ch, pkt.base_seq)
        while len(ch.pending) > self.PENDING_LIMIT:
            base, old = ch.pending.popitem(last=False)
            self._account_abandoned(ch, old)
        return repaired

    def reset(self) -> None:
        """Receiver restart: drop all buffered state, no accounting."""
        self._channels.clear()

    # -- internals ------------------------------------------------------------

    def _try_repair(self, ch: _RxChannel, base: int) -> List[bytes]:
        grp = ch.pending[base]
        pkt = next(iter(grp.rows.values()))
        seqs = pkt.member_seqs()
        present: Dict[int, bytes] = {}
        corrupt: List[int] = []
        for t, s in enumerate(seqs):
            wire = ch.ring.get(s)
            if wire is None:
                continue
            if (
                len(wire) == pkt.member_sizes[t]
                and zlib.crc32(wire) == pkt.member_crcs[t]
            ):
                present[t] = wire
            else:
                # a corrupted copy reached us; it must not enter the
                # equations, and its reconstruction is not re-injected
                # (the hop already forwarded whatever arrived)
                corrupt.append(t)
        missing = [
            t for t in range(pkt.k) if t not in present and t not in corrupt
        ]
        if not missing and not corrupt:
            self._close(ch, base, rows_used=0)
            return []
        erasures = len(missing) + len(corrupt)
        if erasures > len(grp.rows):
            return []  # wait: more parity rows or late data may still come
        rebuilt = repair_group(
            present,
            {j: row.payload for j, row in grp.rows.items()},
            pkt.k,
            pkt.r,
        )
        if rebuilt is None:
            return []
        out: List[bytes] = []
        for t in sorted(missing + corrupt):
            wire = rebuilt[t][: pkt.member_sizes[t]]
            if zlib.crc32(wire) != pkt.member_crcs[t]:
                # cannot happen with verified inputs; refuse to inject
                # anything from a group whose math disagrees with itself
                self.stats.unrepairable += erasures
                self._close(ch, base, rows_used=0)
                return []
            if t in missing:
                ch.ring[seqs[t]] = wire
                out.append(wire)
        self.stats.repaired += len(out)
        self.stats.corrupt_members += len(corrupt)
        self._close(ch, base, rows_used=erasures)
        return out

    def _close(self, ch: _RxChannel, base: int, rows_used: int) -> None:
        grp = ch.pending.pop(base, None)
        if grp is not None:
            self.stats.wasted += max(0, len(grp.rows) - rows_used)
        ch.done.add(base)
        ch.done_q.append(base)
        while len(ch.done_q) > self.DONE_LIMIT:
            ch.done.discard(ch.done_q.popleft())

    def _account_abandoned(self, ch: _RxChannel, grp: _RxGroup) -> None:
        pkt = next(iter(grp.rows.values()))
        missing = sum(
            1 for s in pkt.member_seqs() if s not in ch.ring
        )
        self.stats.unrepairable += missing
        self.stats.wasted += len(grp.rows)

    def _evict_stale(self, ch: _RxChannel) -> None:
        if ch.newest is None:
            return
        horizon = self.window + MAX_K * 32
        for base in list(ch.pending):
            grp = ch.pending[base]
            pkt = next(iter(grp.rows.values()))
            last = pkt.member_seqs()[-1]
            behind = seq_delta(ch.newest, last)
            if behind < SEQ_MOD // 2 and behind > horizon:
                # the stream has moved far past this group: its missing
                # members will never arrive as data, and every parity
                # row it will ever get has had its chance
                del ch.pending[base]
                self._account_abandoned(ch, grp)

    def _flush_channel(self, ch: _RxChannel) -> None:
        for grp in ch.pending.values():
            self._account_abandoned(ch, grp)
        ch.pending.clear()
        ch.ring.clear()
        ch.done.clear()
        ch.done_q.clear()
        ch.newest = None

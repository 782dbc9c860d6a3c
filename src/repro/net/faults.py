"""Network fault injection: make the LAN hostile on purpose.

The paper's evaluation leans on a well-behaved campus Ethernet — "we have
not experienced packet loss or transient network disruptions".  That is
good fortune, not a property of the design, and the speaker's §3.2
epsilon/resync machinery exists precisely because the design must not
depend on it.  This module turns the misbehaviour into explicit, seeded,
*counted* knobs so every pathology is a reproducible regression test:

* **bursty loss** — a Gilbert–Elliott two-state Markov chain per
  receiver: a GOOD state that rarely loses and a BAD state that loses
  heavily, so losses cluster the way interference and queue overflow
  cluster in practice (independent Bernoulli loss is the special case
  ``burst_length == 1``);
* **duplication** — the same receiver copy delivered twice (switch
  flooding races, ARP storms, a misbehaving IGMP querier);
* **bounded reordering** — a copy is held back until up to
  ``reorder_window`` later copies to the same receiver have overtaken
  it (multipath, link aggregation rehashing);
* **payload corruption** — one byte of the datagram flipped in flight
  (a NIC without checksum offload validation);
* **delay jitter** — extra per-copy uniform delay.

A :class:`FaultInjector` attaches to any link exposing
``set_fault_injector`` (:class:`~repro.net.segment.EthernetSegment`,
:class:`~repro.net.switch.SwitchedSegment`, and — since the recovery
ladder — :class:`~repro.net.wan.WanLink`, which requires a dedicated
injector per link because its counters feed the per-hop conservation
budget) and intercepts the per-receiver delivery decision.  Every
injected fault increments a :class:`FaultStats` field, which telemetry
reads as ``faults.{lost,duplicated,reordered,corrupted}[name]``; that is
what keeps the pipeline's packet-conservation ledger closed: the report can
itemise exactly how many copies the injector killed, minted, or mangled.

Everything is driven by one seeded ``numpy`` generator, so a faulty run
is exactly as reproducible as a clean one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List

import numpy as np

from repro.net.segment import Datagram


@dataclass
class FaultStats:
    """What the injector did to the copies that passed through it."""

    offered: int = 0          # receiver copies the link asked us to deliver
    lost: int = 0             # copies killed by the Gilbert–Elliott chain
    duplicated: int = 0       # extra copies minted (one per duplication)
    reordered: int = 0        # copies held back past later traffic
    corrupted: int = 0        # copies with one payload byte flipped
    flushed: int = 0          # parked copies force-released at detach/flush
    jitter_seconds: float = 0.0


class GilbertElliott:
    """The classic two-state loss chain (Gilbert 1960, Elliott 1963).

    Per packet the chain first moves (GOOD -> BAD with ``p_enter_bad``,
    BAD -> GOOD with ``p_exit_bad``), then loses the packet with the
    state's loss probability.  With ``loss_bad = 1`` and
    ``loss_good = 0`` the stationary loss rate is ``p / (p + r)`` and
    the mean burst length is ``1 / r``.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        p_enter_bad: float,
        p_exit_bad: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
    ):
        for name, p in (("p_enter_bad", p_enter_bad),
                        ("p_exit_bad", p_exit_bad),
                        ("loss_good", loss_good), ("loss_bad", loss_bad)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} out of [0, 1]: {p}")
        self._rng = rng
        self.p_enter_bad = p_enter_bad
        self.p_exit_bad = p_exit_bad
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self.bad = False

    @classmethod
    def from_mean(
        cls,
        rng: np.random.Generator,
        mean_loss: float,
        burst_length: float = 1.0,
    ) -> "GilbertElliott":
        """Chain with a target stationary loss rate and mean burst length.

        ``burst_length == 1`` degenerates to independent Bernoulli loss.
        """
        if not 0.0 <= mean_loss < 1.0:
            raise ValueError(f"mean_loss out of range: {mean_loss}")
        if burst_length < 1.0:
            raise ValueError(f"burst_length must be >= 1: {burst_length}")
        if mean_loss == 0.0:
            return cls(rng, 0.0, 1.0)
        r = 1.0 / burst_length
        p = r * mean_loss / (1.0 - mean_loss)
        return cls(rng, min(p, 1.0), r)

    def lose(self) -> bool:
        if self.bad:
            if self._rng.random() < self.p_exit_bad:
                self.bad = False
        elif self._rng.random() < self.p_enter_bad:
            self.bad = True
        rate = self.loss_bad if self.bad else self.loss_good
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return self._rng.random() < rate


class _Held:
    """One copy parked for reordering."""

    __slots__ = ("dgram", "remaining", "released")

    def __init__(self, dgram: Datagram, remaining: int):
        self.dgram = dgram
        self.remaining = remaining
        self.released = False


class FaultInjector:
    """Composable per-link fault model.

    Parameters
    ----------
    loss_rate, burst_length:
        stationary Gilbert–Elliott loss rate and mean burst length;
        one independent chain per receiver, so a multicast frame can be
        lost at one speaker and arrive at the next (matching how
        ``EthernetSegment.loss_rate`` counts per-receiver copies).
    duplicate_rate:
        probability a surviving copy is delivered twice; the echo lands
        :attr:`DUPLICATE_LAG` seconds after the original.
    reorder_rate, reorder_window, reorder_hold:
        probability a copy is held back, how many later copies to the
        same receiver may overtake it, and the wall-clock safety valve
        after which it is released regardless (so the last packets of a
        stream never dangle and the conservation ledger closes).
    corrupt_rate:
        probability one random byte of the copy's payload is flipped.
    jitter:
        extra per-copy uniform delay in ``[0, jitter]`` seconds.
    """

    #: how far behind the original a duplicated copy lands
    DUPLICATE_LAG = 100e-6

    def __init__(
        self,
        sim,
        loss_rate: float = 0.0,
        burst_length: float = 1.0,
        duplicate_rate: float = 0.0,
        reorder_rate: float = 0.0,
        reorder_window: int = 3,
        reorder_hold: float = 0.25,
        corrupt_rate: float = 0.0,
        jitter: float = 0.0,
        seed: int = 1,
        name: str = "faults0",
        telemetry=None,
    ):
        for pname, p in (("loss_rate", loss_rate),
                         ("duplicate_rate", duplicate_rate),
                         ("reorder_rate", reorder_rate),
                         ("corrupt_rate", corrupt_rate)):
            if not 0.0 <= p < 1.0:
                raise ValueError(f"{pname} out of range: {p}")
        if reorder_window < 1:
            raise ValueError("reorder_window must be >= 1")
        self.sim = sim
        self.loss_rate = loss_rate
        self.burst_length = burst_length
        self.duplicate_rate = duplicate_rate
        self.reorder_rate = reorder_rate
        self.reorder_window = reorder_window
        self.reorder_hold = reorder_hold
        self.corrupt_rate = corrupt_rate
        self.jitter = jitter
        self.name = name
        self.stats = FaultStats()
        self._rng = np.random.default_rng(seed)
        self._chains: Dict[object, GilbertElliott] = {}
        self._held: Dict[object, List[_Held]] = {}
        self.links: List[object] = []
        if telemetry is None:
            from repro.metrics.telemetry import get_telemetry

            telemetry = get_telemetry()
        self.telemetry = telemetry
        telemetry.register("faults", name, self.stats)

    # -- attachment ---------------------------------------------------------------

    def attach(self, link) -> "FaultInjector":
        """Interpose on ``link``'s receiver deliveries (chainable)."""
        link.set_fault_injector(self)
        self.links.append(link)
        return self

    def detach(self, link=None) -> int:
        """Stop interposing on ``link`` (default: every attached link).

        Any copies still parked for reordering are flushed — released for
        immediate delivery and counted in ``stats.flushed`` — so a
        detached injector never strands packets: ``pending`` drops to
        zero and nothing leaks into the conservation residual at
        teardown.  Returns the number of copies flushed.
        """
        links = [link] if link is not None else list(self.links)
        for item in links:
            if item in self.links:
                item.set_fault_injector(None)
                self.links.remove(item)
        return self.flush_pending()

    def flush_pending(self) -> int:
        """Release every parked copy right now; returns how many."""
        flushed = 0
        for nic, held in self._held.items():
            for entry in held:
                if not entry.released:
                    entry.released = True
                    flushed += 1
                    self.sim.schedule_transient(0.0, nic.deliver,
                                                entry.dgram)
            held.clear()
        self.stats.flushed += flushed
        return flushed

    @property
    def pending(self) -> int:
        """Copies currently parked for reordering (in flight)."""
        return sum(
            1 for held in self._held.values()
            for entry in held if not entry.released
        )

    # -- the per-copy decision ----------------------------------------------------

    def deliver(self, nic, dgram: Datagram, delay: float) -> None:
        """Decide the fate of one receiver copy and schedule what
        survives.  Called by the link in place of its own
        ``sim.schedule(delay, nic.deliver, dgram)``."""
        if self._copy_fate(nic, dgram, delay) == "clean":
            self._dispatch(nic, dgram, delay)

    def _copy_fate(self, nic, dgram: Datagram, delay: float) -> str:
        """Draw one receiver copy's fate; the RNG sequence is exactly
        :meth:`deliver`'s, which is what lets
        :func:`~repro.net.segment.fan_out` run it per cohort member token
        and stay draw-for-draw identical to a per-object fleet.  Returns
        ``"lost"`` (nothing survives), ``"handled"`` (divergent copies
        were scheduled or parked in here), or ``"clean"`` — exactly one
        unjittered, uncorrupted, unheld copy at the base delay, whose
        dispatch the *caller* owns (a plain link dispatches it; a cohort
        folds it into the shared delivery)."""
        self.stats.offered += 1
        rng = self._rng
        if self.loss_rate and self._chain(nic).lose():
            self.stats.lost += 1
            return "lost"
        copies = 1
        if self.duplicate_rate and rng.random() < self.duplicate_rate:
            copies = 2
            self.stats.duplicated += 1
        clean = False
        for i in range(copies):
            copy = dgram
            if self.corrupt_rate and rng.random() < self.corrupt_rate:
                copy = self._corrupt(dgram)
                self.stats.corrupted += 1
            copy_delay = delay + i * self.DUPLICATE_LAG
            if self.jitter:
                extra = rng.uniform(0.0, self.jitter)
                copy_delay += extra
                self.stats.jitter_seconds += extra
            if (
                i == 0
                and self.reorder_rate
                and rng.random() < self.reorder_rate
            ):
                self._hold(nic, copy, copy_delay)
            elif (
                copies == 1 and copy is dgram and copy_delay == delay
                and not self._held.get(nic)
            ):
                clean = True
            else:
                self._dispatch(nic, copy, copy_delay)
        return "clean" if clean else "handled"

    # -- mechanics ----------------------------------------------------------------

    def _chain(self, nic) -> GilbertElliott:
        chain = self._chains.get(nic)
        if chain is None:
            chain = self._chains[nic] = GilbertElliott.from_mean(
                self._rng, self.loss_rate, self.burst_length
            )
        return chain

    def _hold(self, nic, dgram: Datagram, delay: float) -> None:
        entry = _Held(dgram, self.reorder_window)
        self._held.setdefault(nic, []).append(entry)
        self.stats.reordered += 1
        # safety valve: if the stream stops while this copy is parked,
        # release it anyway so nothing dangles past quiescence
        self.sim.schedule(delay + self.reorder_hold,
                          self._timeout, nic, entry)

    def _timeout(self, nic, entry: _Held) -> None:
        if not entry.released:
            entry.released = True
            nic.deliver(entry.dgram)
        held = self._held.get(nic)
        if held and entry in held:
            held.remove(entry)

    def _dispatch(self, nic, dgram: Datagram, delay: float) -> None:
        sim = self.sim
        sim.schedule_transient(delay, nic.deliver, dgram)
        held = self._held.get(nic)
        if not held:
            return
        # every dispatched copy overtakes the parked ones by one slot;
        # a copy that has been overtaken reorder_window times lands just
        # behind the overtaker
        survivors = []
        for entry in held:
            if entry.released:
                continue
            entry.remaining -= 1
            if entry.remaining <= 0:
                entry.released = True
                sim.schedule_transient(delay + 1e-9, nic.deliver,
                                       entry.dgram)
            else:
                survivors.append(entry)
        self._held[nic] = survivors

    def _corrupt(self, dgram: Datagram) -> Datagram:
        payload = dgram.payload
        if not payload:
            return dgram
        data = bytearray(payload)
        idx = int(self._rng.integers(0, len(data)))
        data[idx] ^= int(self._rng.integers(1, 256))
        return replace(dgram, payload=bytes(data))

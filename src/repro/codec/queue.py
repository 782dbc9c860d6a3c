"""Codec work handed over ahead of its demand, computed a group at a time.

The simulator charges codec work to virtual CPUs, and a block's bytes
are only needed once its charge ends.  Station channels run in
lock-step, so by the time the first channel's charge ends every other
channel has handed its block over too.  :data:`QUEUE` collects those
blocks: a component **hands a block over** when its CPU charge starts
(:meth:`CodecQueue.encode` / :meth:`CodecQueue.decode`), reads the
result after the charge through the codec's own
``encode_block``/``decode_block``, and **releases** it when done.  The
first demand in a group computes every block of the group handed over
so far in one stacked kernel call (``encode_blocks`` /
``decode_blocks``); later members find their result waiting.

A group is the blocks whose codecs share a ``batch_key`` — the same
encoder configuration, or the same decoder configuration and device
format — so any member's codec computes any other's block exactly as
alone.  A kernel returns each block's result or the exception that
block raises alone; should the kernel itself raise, every block of the
group is computed alone.  An exception is raised at its own member's
demand only.

Only host work moves: results are pure functions of the block, so when
and with whom a block is computed never changes what it decodes to, and
virtual time never sees the queue.  That is also why there is one queue
for the whole process: blocks of two systems that share a group are
computed together, each exactly as alone.  A block whose owner is gone
— crashed during its charge, or served by a cache — is released without
being demanded; if its group has not run, it leaves the queue
uncomputed.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple


class Pending:
    """One handed-over block: its result once its group has run."""

    __slots__ = ("key", "item", "done", "result", "holders")

    def __init__(self, key: Tuple, item):
        self.key = key
        self.item = item
        self.done = False
        #: the block's result, or the exception computing it alone raises
        self.result = None
        #: hand-overs not yet released; a decoded payload is shared by
        #: every speaker waiting on it
        self.holders = 0


class CodecQueue:
    """Handed-over codec blocks, by group."""

    def __init__(self):
        #: every held block, by (group, item key)
        self._held: Dict[Tuple, Pending] = {}
        #: blocks not yet computed, by group, in hand-over order
        self._waiting: Dict[Tuple, Dict[Tuple, Pending]] = {}

    def __len__(self) -> int:
        """Blocks held (handed over and not yet released) or waiting
        for their group: 0 when nothing is pending."""
        waiting = {key for group in self._waiting.values() for key in group}
        return len(self._held.keys() | waiting)

    def encode(self, codec, samples) -> Pending:
        """Hand ``samples`` over for ``codec.encode_block``."""
        # the array itself is the item: held by the entry, its id is unique
        return self._hand_over(("encode", codec.batch_key("encode"), None),
                               id(samples), samples)

    def decode(self, codec, data, params=None) -> Pending:
        """Hand ``data`` over for ``codec.decode_block(data, params)``.

        Equal payloads in one group share one entry."""
        return self._hand_over(("decode", codec.batch_key("decode"), params),
                               bytes(data), data)

    def _hand_over(self, group: Tuple, item_key: Hashable, item) -> Pending:
        key = (group, item_key)
        entry = self._held.get(key)
        if entry is None:
            entry = self._held[key] = Pending(key, item)
            self._waiting.setdefault(group, {})[key] = entry
        entry.holders += 1
        return entry

    def release(self, entry: Pending) -> None:
        """Drop one hand-over of ``entry``; the last one forgets it."""
        entry.holders -= 1
        if entry.holders:
            return
        del self._held[entry.key]
        if not entry.done:
            group = entry.key[0]
            waiting = self._waiting[group]
            del waiting[entry.key]
            if not waiting:
                del self._waiting[group]

    def result(self, codec, entry: Pending):
        """``entry``'s result, running its group with ``codec`` first if
        it has not run; raises the exception the block raises alone."""
        if not entry.done:
            op, _, params = group = entry.key[0]
            batch = list(self._waiting[group].values())
            results = _compute(codec, op, params, [e.item for e in batch])
            del self._waiting[group]
            for e, res in zip(batch, results):
                e.result = res
                e.done = True
        if isinstance(entry.result, Exception):
            # a shared payload's exception is raised at each holder's
            # demand: each raise starts a fresh traceback
            raise entry.result.with_traceback(None)
        return entry.result

    def take(self, codec, op: str, item, params: Optional[object] = None):
        """Hand ``item`` over (or join its waiting entry), demand it and
        release it: the body of ``encode_block``/``decode_block``."""
        entry = (self.encode(codec, item) if op == "encode"
                 else self.decode(codec, item, params))
        try:
            return self.result(codec, entry)
        finally:
            self.release(entry)


def _compute(codec, op: str, params, items: list) -> list:
    """Each item's result or exception: from one group kernel call, or,
    if the kernel raises, from each item's own call."""
    try:
        if op == "encode":
            return codec.encode_blocks(items)
        return codec.decode_blocks(items, params)
    except Exception as exc:  # noqa: BLE001 — the item's own outcome
        if len(items) == 1:
            return [exc]
        return [_compute(codec, op, params, [item])[0] for item in items]


#: the queue every codec hands its blocks to
QUEUE = CodecQueue()

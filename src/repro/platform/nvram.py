"""Non-volatile RAM: the one thing a netbooted speaker can trust (§5.1).

Tiny, write-limited, survives power loss.  The CA key digest lives here
because "any kind of authentication that is sent over the network may be
modified by a malicious entity" — the pinned digest is the root of trust
that cannot be.
"""

from __future__ import annotations

from typing import Dict, Optional


class Nvram:
    """A small persistent key/value store with a capacity cap."""

    def __init__(self, capacity_bytes: int = 4096):
        self.capacity_bytes = capacity_bytes
        self._data: Dict[str, bytes] = {}
        self.writes = 0

    def _used(self) -> int:
        return sum(len(k) + len(v) for k, v in self._data.items())

    def store(self, key: str, value: bytes) -> None:
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError("NVRAM stores bytes")
        projected = (
            self._used() - len(self._data.get(key, b"")) + len(key) + len(value)
        )
        if projected > self.capacity_bytes:
            raise ValueError(
                f"NVRAM full: {projected} > {self.capacity_bytes} bytes"
            )
        self._data[key] = bytes(value)
        self.writes += 1

    def load(self, key: str) -> Optional[bytes]:
        return self._data.get(key)

    def keys(self):
        return list(self._data)

"""Seed expansion stream: SHAKE-128 as an incremental extendable-output
function, deterministic for a given seed and single-owner (not thread safe).
"""

import hashlib


class Shake128Xof:
    def __init__(self, seed: bytes = b""):
        self._data = bytes(seed)
        self._buf = b""
        self._off = 0

    def absorb(self, data: bytes) -> None:
        if self._off:
            raise RuntimeError("cannot absorb after squeezing started")
        self._data += bytes(data)

    def squeeze(self, count: int) -> bytes:
        end = self._off + count
        if end > len(self._buf):
            # hashlib SHAKE re-derives the whole prefix; grow geometrically
            need = max(end, 2 * len(self._buf), 512)
            self._buf = hashlib.shake_128(self._data).digest(need)
        out = self._buf[self._off:end]
        self._off = end
        return out


"""Seed expansion stream: SHAKE-128 as an extendable-output function,
deterministic for a given seed and single-owner (not thread safe).
"""

import hashlib


class Shake128Xof:
    def __init__(self, seed: bytes = b""):
        self._seed = bytes(seed)
        self._off = 0

    def squeeze(self, count: int) -> bytes:
        """The stream's next `count` bytes; each call derives the stream from
        its start, so a seed is best squeezed once, as seed expansion does."""
        end = self._off + count
        out = hashlib.shake_128(self._seed).digest(end)[self._off:]
        self._off = end
        return out

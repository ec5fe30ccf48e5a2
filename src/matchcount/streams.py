"""Deterministic random streams.

Every randomized routine draws from a RandomStream identified by (seed,
stream_id).  Trial t of a run uses stream (seed, t), so results do not depend
on how a trial range is split into runs, and any single trial can be replayed
in isolation.

The stream is counter based (Salmon et al., "Parallel random numbers: as easy
as 1, 2, 3", SC 2011).  Block i of stream (seed, stream_id) is the 512-bit
blake2b digest of the ASCII text "seed:stream_id:i" (decimal integers, so no
two triples share a text), read as a little-endian integer.  randbelow(bound)
takes k = (bound - 1).bit_length() bits from the low end of a pool and rejects
a value >= bound, drawing the next k bits instead; the pool is refilled one
block at a time, so any bound works.  Each k-bit value below bound is
accepted exactly once and none is reduced, so draws are exactly uniform
whenever the digest bits are; randbelow(1) takes no bits.  A stream holds no
state but its pool and block counter, and it hashes nothing until its first
draw, so building one per trial is cheap.

This is stream version 2 (STREAM_VERSION), which records echo.  Version 1
seeded a Mersenne Twister per stream; its outputs are not replayable here.
"""

from hashlib import blake2b

STREAM_VERSION = 2
BLOCK_BITS = 512


class RandomStream:
    """Counter-based stream of exactly uniform integers for (seed, stream_id)."""

    __slots__ = ("seed", "stream_id", "_pool", "_bits", "_blocks")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = seed
        self.stream_id = stream_id
        self._pool = 0  # unused bits, next draw from the low end
        self._bits = 0  # how many bits _pool holds
        self._blocks = 0  # blocks hashed so far

    def _block(self, i: int) -> int:
        """Block i of this stream, a BLOCK_BITS-bit integer."""
        digest = blake2b(b"%d:%d:%d" % (self.seed, self.stream_id, i)).digest()
        return int.from_bytes(digest, "little")

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound); bound must be positive."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        k = (bound - 1).bit_length()
        pool, bits = self._pool, self._bits
        while True:
            while bits < k:
                pool |= self._block(self._blocks) << bits
                self._blocks += 1
                bits += BLOCK_BITS
            r = pool & ((1 << k) - 1)
            pool >>= k
            bits -= k
            if r < bound:
                self._pool, self._bits = pool, bits
                return r

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id})"

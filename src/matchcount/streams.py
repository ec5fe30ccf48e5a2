"""Deterministic random streams.

Every randomized routine draws from a RandomStream identified by (seed,
stream_id).  Trial t of a run uses stream (seed, t), so results do not depend
on how a trial range is split into runs, and any single trial can be replayed
in isolation.
"""

import random


class RandomStream:
    """PRNG stream derived deterministically from (seed, stream_id).

    Backed by random.Random seeded with the string "seed:stream_id"; CPython
    hashes that string with sha512, which is stable across platforms and
    releases.  randbelow uses randrange, which rejects rather than taking a
    remainder, so draws are exactly uniform.
    """

    __slots__ = ("seed", "stream_id", "_rng")

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = seed
        self.stream_id = stream_id
        self._rng = random.Random(f"{seed}:{stream_id}")

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound); bound must be positive."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self._rng.randrange(bound)

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id})"

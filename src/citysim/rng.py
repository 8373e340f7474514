"""Counter-based random streams for reproducible, order-independent draws.

Every random number in a run is a pure function of
(master seed, subagent id, tick, label, draw index).  Nothing depends on
iteration order or on how many draws other subagents made, which is what
makes paired scenario runs comparable: two runs with the same seed produce
identical draws for identical decision points, so output differences are
attributable to the scenario differences alone.
"""

from __future__ import annotations

from functools import lru_cache

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    z = (z + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def fnv64(text: str) -> int:
    """Stable 64-bit hash of a string (never Python's randomized hash())."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & _MASK
    return h


@lru_cache(maxsize=4096)
def label_hash(label: str) -> int:
    """fnv64 of a draw label, memoized: rules reuse a few labels every tick."""
    return fnv64(label)


class Stream:
    """Per-subagent random stream, derived only from (master seed, id).

    Its base is hashed from the id at the first ``at`` and kept, so a
    subagent that never draws never hashes its id."""

    __slots__ = ("_seed", "_id", "_base")

    def __init__(self, master_seed: int, subagent_id: str):
        self._seed, self._id, self._base = master_seed, subagent_id, None

    def at(self, tick: int, label: str = "") -> "TickRng":
        base = self._base
        if base is None:
            base = self._base = _splitmix64((self._seed & _MASK) ^ fnv64(self._id))
        return TickRng(base, tick, label)


class TickRng:
    """Sequential draws scoped to one (stream, tick, label) triple.

    Draw i is splitmix64(origin + i), so the i-th draw of a given purpose
    at a given tick is always the same value for the same seed.
    """

    __slots__ = ("_origin", "_i")

    def __init__(self, base: int, tick: int, label: str):
        h = _splitmix64(base ^ ((tick & _MASK) * 0xD1342543DE82EF95 & _MASK))
        if label:
            h = _splitmix64(h ^ label_hash(label))
        self._origin = h
        self._i = 0

    def _next_u64(self) -> int:
        v = _splitmix64((self._origin + self._i * _GOLDEN) & _MASK)
        self._i += 1
        return v

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return (self._next_u64() >> 11) * (2.0 ** -53)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        return lo + self._next_u64() % span

    def sample_distinct(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), order deterministic.

        Rejection sampling; cheap for k much smaller than n, exact
        enumeration when k >= n.
        """
        if k >= n:
            return list(range(n))
        picked: list[int] = []
        seen: set[int] = set()
        while len(picked) < k:
            idx = self._next_u64() % n
            if idx not in seen:
                seen.add(idx)
                picked.append(idx)
        return picked

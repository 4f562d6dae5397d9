"""Length-tagged bit strings and the 64-bit mixing primitives.

Every value that crosses the public Oracle.query boundary is a
BitString: an unsigned integer paired with an explicit length. The
length is checked when a BitString is built and when Oracle.query
takes one, so a 4-bit value can never be silently confused with the
same integer at 8 bits. Everywhere else, the combiners and the GGM
tree included, values are plain ints whose shapes the keys have
already validated.

mix64 is the splitmix64 finalizer. It is the only source of derived
randomness in the experiment harness: lazy-random oracles, key streams,
and the counter-mode PRG variant all reduce to it, which is what makes
every run replayable from one 64-bit seed.

Key material comes from counter-mode streams with one rule: word j of
the stream tagged (seed, *parts) is derive_seed(seed, *parts, j).
key_stream is that stream behind the random.Random interface, which
every builder takes; KeyStreams.heads and stream_words are its numpy
twin, the words of many streams at once, one uint64 matrix per call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

MASK64 = (1 << 64) - 1

# Fixed mixing constants (golden-ratio and Weyl increments).
C1 = 0x9E3779B97F4A7C15
C2 = 0xD1B54A32D192ED03
# splitmix64's two finalizer multipliers.
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


def mix64(v: int) -> int:
    """splitmix64 finalizer on a 64-bit lane."""
    v &= MASK64
    v ^= v >> 30
    v = (v * MIX1) & MASK64
    v ^= v >> 27
    v = (v * MIX2) & MASK64
    v ^= v >> 31
    return v


_MUL1 = np.uint64(MIX1)
_MUL2 = np.uint64(MIX2)
_SHIFTS = (np.uint64(30), np.uint64(27), np.uint64(31))


def mix64_np(v: np.ndarray) -> np.ndarray:
    """Vector form of mix64; uint64 in, uint64 out. In-place array
    arithmetic wraps modulo 2^64 without overflow warnings."""
    s30, s27, s31 = _SHIFTS
    v = np.array(v, dtype=np.uint64)
    v ^= v >> s30
    v *= _MUL1
    v ^= v >> s27
    v *= _MUL2
    v ^= v >> s31
    return v


def derive_seed(master: int, *parts: int) -> int:
    """Derive an independent 64-bit subseed from a master seed and tags.

    Distinct tag tuples map to distinct streams with overwhelming
    probability; the composition is fixed so reruns reproduce it.
    """
    v = mix64((master & MASK64) ^ C1)
    for p in parts:
        v = mix64(v ^ mix64((p & MASK64) ^ C2))
    return v


def truncate(value: int, bits: int) -> int:
    """Keep the low `bits` bits. The canonical truncation everywhere."""
    return value & ((1 << bits) - 1)


def _part_tags(indices: range) -> np.ndarray:
    """mix64(i ^ C2) for each i: what derive_seed folds in for a part i."""
    return mix64_np(np.arange(indices.start, indices.stop, dtype=np.uint64) ^ np.uint64(C2))


def stream_words(heads: np.ndarray, cols: range) -> np.ndarray:
    """Words cols of each head's stream, one row per head: (len(heads), len(cols)).

    Word j of the stream with head derive_seed(seed, *parts) is
    derive_seed(seed, *parts, j), the chain folding in one more part.
    """
    return mix64_np(heads[:, None] ^ _part_tags(cols)[None, :])


# Words a KeyStream derives per refill, growing geometrically: small
# streams (a lazy-random seed, one key) stay cheap, long ones (sampling
# an involution) amortize numpy's per-call cost.
_CHUNK_MIN = 16
_CHUNK_MAX = 4096


class KeyStream(random.Random):
    """The counter-mode key stream behind the random.Random interface.

    Word j of the stream with head h = derive_seed(seed, *parts) is
    derive_seed(seed, *parts, j). Each getrandbits(w) with 0 <= w <= 64
    takes the next word and keeps its low w bits; a wider call
    concatenates ceil(w/64) words, the first one lowest. random() takes
    one word and keeps its high 53 bits. randrange, choice, shuffle and
    the rest of random.Random are built on those two, so builders that
    take an rng take a KeyStream unchanged. Make one with key_stream.
    """

    def __init__(self, head: int):
        self._head = np.array([head & MASK64], dtype=np.uint64)
        self.gauss_next = None  # what random.Random.__init__ would set
        self._next = 0  # index of the first word not yet derived
        self._unread: list[int] = []  # derived words, next one last

    def _refill(self):
        j = self._next
        n = min(_CHUNK_MAX, max(_CHUNK_MIN, 3 * j))
        self._unread = stream_words(self._head, range(j, j + n))[0, ::-1].tolist()
        self._next = j + n

    def getrandbits(self, k: int) -> int:
        if 0 <= k <= 64:
            if not self._unread:
                self._refill()
            return self._unread.pop() & ((1 << k) - 1)
        if k < 0:
            raise ValueError("number of bits must be non-negative")
        return sum(self.getrandbits(min(64, k - i)) << i for i in range(0, k, 64))

    def random(self) -> float:
        if not self._unread:
            self._refill()
        return (self._unread.pop() >> 11) * 2.0**-53

    def _randbelow(self, n: int) -> int:
        # random.Random's rejection rule on getrandbits(n.bit_length()),
        # inlined: randrange, choice and shuffle all come through here
        mask = (1 << n.bit_length()) - 1
        while True:
            if not self._unread:
                self._refill()
            r = self._unread.pop() & mask
            if r < n:
                return r

    def seed(self, *args, **kwargs):
        raise TypeError("a KeyStream is fixed by its head; make a new one with key_stream")

    getstate = setstate = seed


def key_stream(seed: int, *parts: int) -> KeyStream:
    """The stream whose word j is derive_seed(seed, *parts, j)."""
    return KeyStream(derive_seed(seed, *parts))


class KeyStreams:
    """The streams tagged (seed, *parts, t) for t = 0, 1, 2, ...: stream(t)
    is row t's KeyStream, and heads(rows) starts the numpy twin of the
    rows' streams, whose words stream_words derives."""

    def __init__(self, seed: int, *parts: int):
        self.seed = seed
        self.parts = parts

    def stream(self, t: int) -> KeyStream:
        return key_stream(self.seed, *self.parts, t)

    def heads(self, rows: range) -> np.ndarray:
        """derive_seed(seed, *parts, t) for every t in rows."""
        return mix64_np(np.uint64(derive_seed(self.seed, *self.parts)) ^ _part_tags(rows))


@dataclass(frozen=True)
class BitString:
    """An immutable bit vector of explicit length (0..64 bits and beyond).

    value holds the bits as an unsigned integer; length may be zero
    (the empty string, the one input of a 0-bit domain).
    """

    value: int
    length: int

    def __post_init__(self):
        if self.length < 0:
            raise ValueError(f"negative length {self.length}")
        if self.value < 0 or self.value >= (1 << self.length):
            raise ValueError(f"value {self.value:#x} does not fit in {self.length} bits")

    def to01(self) -> str:
        return format(self.value, f"0{self.length}b") if self.length else ""

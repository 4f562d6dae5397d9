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
every run replayable from one 64-bit seed. Its numpy form mixes a
C-ordered uint64 array in place (mix64_inplace), in one pass through
a scratch array as long as it; the numpy twin passes the free bytes of
its block workspace (batch.Workspace.scratch).

Key material comes from counter-mode streams with one rule: word j of
the stream tagged (seed, *parts) is derive_seed(seed, *parts, j).
key_stream is that stream behind the random.Random interface, which
every builder takes; KeyStreams.heads and stream_words are its numpy
twin, the words of many streams at once, one uint64 matrix per call,
written into the caller's array when it passes one (out).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

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


def mix64_inplace(v: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """mix64 on every element of a C-ordered uint64 array, in place; v
    is returned. Each shift is written into one scratch array: the
    caller's scratch, a 1-D uint64 array of at least v.size elements (the
    numpy twin passes Workspace.scratch, the free bytes past the last
    buffer its block took), or else one allocated here, so a mix makes
    no temporary the size of v per step. A shorter scratch fails the
    first shift (ValueError), before v changes."""
    if v.dtype != np.uint64 or not v.flags.c_contiguous:
        # reshape(-1) would copy, and mixing the copy would leave v as it was
        raise ValueError("mix64_inplace needs a C-ordered uint64 array")
    s30, s27, s31 = _SHIFTS
    flat = v.reshape(-1)
    shifted = np.empty_like(flat) if scratch is None else scratch[:flat.size]
    flat ^= np.right_shift(flat, s30, out=shifted)
    flat *= _MUL1
    flat ^= np.right_shift(flat, s27, out=shifted)
    flat *= _MUL2
    flat ^= np.right_shift(flat, s31, out=shifted)
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


def _part_tags(indices: range, out: np.ndarray | None = None,
               scratch: np.ndarray | None = None) -> np.ndarray:
    """mix64(i ^ C2) for each i: what derive_seed folds in for a part i,
    written into out if one is given."""
    if out is None:
        out = np.arange(indices.start, indices.stop, dtype=np.uint64)
    else:  # count in place: a running sum of ones, moved to the start
        np.cumsum(np.broadcast_to(np.uint64(1), out.shape), out=out)
        out += np.uint64(indices.start)
        out -= np.uint64(1)
    out ^= np.uint64(C2)
    return mix64_inplace(out, scratch)


# Word ranges shorter than this have their tags cached: a slot's or a bar's
# range and every KeyStream refill, which many streams ask again.
_CACHED_COLUMNS = 256


@lru_cache(maxsize=64)
def _column_tags(cols: range) -> np.ndarray:
    """_part_tags(cols), read-only: the same for every block of streams.
    An entry holds fewer than _CACHED_COLUMNS words (2 KiB)."""
    tags = _part_tags(cols)
    tags.flags.writeable = False  # one cached array is shared by every caller
    return tags


def stream_words(heads: np.ndarray, cols: range, out: np.ndarray | None = None,
                 scratch: np.ndarray | None = None) -> np.ndarray:
    """Words cols of each head's stream, one row per head: (len(heads),
    len(cols)). It is the transpose of a C-ordered (len(cols), len(heads))
    array, out if one is given, so each word column is contiguous, and
    the words are derived and mixed along it.

    Word j of the stream with head derive_seed(seed, *parts) is
    derive_seed(seed, *parts, j), the chain folding in one more part.
    The tags mix64(j ^ C2) of a word range do not depend on the heads,
    so a range shorter than _CACHED_COLUMNS has them derived once and
    kept in a small LRU cache.
    """
    tags = _column_tags(cols) if len(cols) < _CACHED_COLUMNS else _part_tags(cols)
    out = np.bitwise_xor(tags[:, None], heads, out=out)
    return mix64_inplace(out, scratch).T


# Words a KeyStream derives per refill: enough for a per-trial key draw
# in one or a few refills, each range cached (_CACHED_COLUMNS).
_REFILL = 64


class KeyStream(random.Random):
    """The counter-mode key stream behind the random.Random interface.

    Word j of the stream with head h = derive_seed(seed, *parts) is
    derive_seed(seed, *parts, j). Each getrandbits(w) with 0 <= w <= 64
    takes the next word and keeps its low w bits; a wider call
    concatenates ceil(w/64) words, the first one lowest. random() takes
    one word and keeps its high 53 bits. randrange, choice, shuffle and
    the rest of random.Random are built on those two: random.Random gives
    any subclass that overrides getrandbits its own rule, redrawing
    getrandbits(n.bit_length()) until the result is below n. So builders
    that take an rng take a KeyStream unchanged. Make one with key_stream.
    """

    def __init__(self, head: int):
        self._head = np.array([head & MASK64], dtype=np.uint64)
        self.gauss_next = None  # what random.Random.__init__ would set
        self._next = 0  # index of the first word not yet derived
        self._unread: list[int] = []  # derived words, next one last

    def _refill(self):
        j = self._next
        self._unread = stream_words(self._head, range(j, j + _REFILL))[0, ::-1].tolist()
        self._next = j + _REFILL

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

    def heads(self, rows: range, out: np.ndarray | None = None,
              scratch: np.ndarray | None = None) -> np.ndarray:
        """derive_seed(seed, *parts, t) for every t in rows, written into
        out if one is given."""
        tags = _part_tags(rows, out, scratch)
        tags ^= np.uint64(derive_seed(self.seed, *self.parts))
        return mix64_inplace(tags, scratch)


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

"""Length-tagged bit strings and the 64-bit mixing primitives.

Every value that crosses the public Oracle.query boundary is a
BitString: an unsigned integer paired with an explicit length. Lengths
are checked at each operation so a 4-bit value can never be silently
confused with the same integer at 8 bits. Inside the combiners values
are plain ints, whose shapes the keys have already validated. Bit positions are MSB-first: bit(0) is the leftmost
bit, matching the left-to-right order in which tree constructions
consume input bits.

mix64 is the splitmix64 finalizer. It is the only source of derived
randomness in the experiment harness: lazy-random oracles, seed
derivation for trials, and the counter-mode PRG variant all reduce to
it, which is what makes every run replayable from one 64-bit seed.
"""

from __future__ import annotations

from dataclasses import dataclass

MASK64 = (1 << 64) - 1

# Fixed mixing constants (golden-ratio and Weyl increments).
C1 = 0x9E3779B97F4A7C15
C2 = 0xD1B54A32D192ED03


def mix64(v: int) -> int:
    """splitmix64 finalizer on a 64-bit lane."""
    v &= MASK64
    v ^= v >> 30
    v = (v * 0xBF58476D1CE4E5B9) & MASK64
    v ^= v >> 27
    v = (v * 0x94D049BB133111EB) & MASK64
    v ^= v >> 31
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


@dataclass(frozen=True)
class BitString:
    """An immutable bit vector of explicit length (0..64 bits and beyond).

    value holds the bits as an unsigned integer; length may be zero
    (the empty string, used as the root input of tree constructions).
    """

    value: int
    length: int

    def __post_init__(self):
        if self.length < 0:
            raise ValueError(f"negative length {self.length}")
        if self.value < 0 or self.value >= (1 << self.length):
            raise ValueError(f"value {self.value:#x} does not fit in {self.length} bits")

    @classmethod
    def from01(cls, s: str) -> "BitString":
        if s and set(s) - {"0", "1"}:
            raise ValueError(f"not a 01-string: {s!r}")
        return cls(int(s, 2) if s else 0, len(s))

    def to01(self) -> str:
        return format(self.value, f"0{self.length}b") if self.length else ""

    def bit(self, i: int) -> int:
        """Bit i counted MSB-first: bit(0) is the leftmost."""
        if not 0 <= i < self.length:
            raise ValueError(f"bit index {i} out of range for length {self.length}")
        return (self.value >> (self.length - 1 - i)) & 1

    def __xor__(self, other: "BitString") -> "BitString":
        if self.length != other.length:
            raise ValueError(f"xor of lengths {self.length} and {other.length}")
        return BitString(self.value ^ other.value, self.length)

    def concat(self, other: "BitString") -> "BitString":
        return BitString((self.value << other.length) | other.value, self.length + other.length)

    def take(self, n: int) -> "BitString":
        """The first (leftmost) n bits."""
        if not 0 <= n <= self.length:
            raise ValueError(f"take {n} of length {self.length}")
        return BitString(self.value >> (self.length - n), n)

    def drop(self, n: int) -> "BitString":
        """Everything after the first n bits."""
        if not 0 <= n <= self.length:
            raise ValueError(f"drop {n} of length {self.length}")
        return BitString(truncate(self.value, self.length - n), self.length - n)

    def truncate_low(self, bits: int) -> "BitString":
        """Keep the low `bits` bits."""
        if bits > self.length:
            raise ValueError(f"truncate to {bits} of length {self.length}")
        return BitString(truncate(self.value, bits), bits)

    def zero_extend(self, length: int) -> "BitString":
        """Pad with leading zeroes up to `length`; the value is unchanged."""
        if length < self.length:
            raise ValueError(f"zero_extend to {length} below length {self.length}")
        return BitString(self.value, length)

"""k-wise independent hash families and small random tables.

The family for a given (k, domain_bits, range_bits) is all polynomials
of degree at most k-1 over GF(2^w), where w is the smallest supported
width covering both the domain and the range. Inputs are zero-extended
to w bits, the polynomial is evaluated, and the output is truncated to
the low range_bits bits. Truncation preserves exact k-wise independence
because every r-bit value has exactly 2^(w-r) preimages under it.

A window w (a power of two) confines a key's outputs to the first w
strings of its range: the key keeps the low log2(w) bits of each output
(window_bits) and its range_bits stay the ambient length, so values
land below w. A table drawn with a window has log2(w)-bit entries in
its entry_bits-bit range.

Keys and tables evaluate on raw ints via eval_int, the one method the
combiners call on a slot. They are slots of a key, not oracles, so
neither takes or returns a BitString. The eval_int of a key is
eval_kwise itself: the key holds its field spec and its output mask,
computed at construction, so one evaluation is one eval_kwise frame
over FieldSpec.poly_eval and one mask. Constructing a key builds no
field tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .gf import SUPPORTED_WIDTHS, FieldSpec, default_spec


def width_for(domain_bits: int, range_bits: int) -> int:
    """Smallest supported field width covering domain and range."""
    need = max(domain_bits, range_bits)
    for w in SUPPORTED_WIDTHS:
        if w >= need:
            return w
    raise ValueError(f"no supported width covers {need} bits")


def window_bits(window: int | None, bits: int) -> int:
    """The low bits a `bits`-bit value keeps inside the first `window`
    strings of {0,1}^bits: all of them without a window, else log2(window)."""
    if window is None:
        return bits
    if window < 1 or window & (window - 1):
        raise ConfigurationError(f"window {window} is not a power of two")
    kept = window.bit_length() - 1
    if kept > bits:
        raise ConfigurationError(f"window {window} exceeds ambient domain of {bits} bits")
    return kept


def eval_kwise(key, x: int) -> int:
    """The key's polynomial at a raw domain value, masked to its kept
    output bits. KWiseHashKey uses it as its eval_int."""
    return key.spec.poly_eval(key.coeffs, x) & key.mask


@dataclass(frozen=True)
class KWiseHashKey:
    """Coefficients a0..a_{k-1} of a degree-(k-1) polynomial over GF(2^w).

    spec and mask (the low window_bits(window, range_bits) bits) are
    derived at construction and take no part in comparison.
    """

    coeffs: tuple[int, ...]
    domain_bits: int
    range_bits: int
    width: int
    window: int | None = None
    spec: FieldSpec = field(init=False, repr=False, compare=False)
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise ValueError("at least one coefficient required")
        if self.domain_bits < 1 or self.range_bits < 1:
            raise ValueError("domain_bits and range_bits must be positive")
        if self.width not in SUPPORTED_WIDTHS or self.width < max(self.domain_bits, self.range_bits):
            raise ValueError(f"width {self.width} cannot host {self.domain_bits}->{self.range_bits}")
        for c in self.coeffs:
            if not 0 <= c < (1 << self.width):
                raise ValueError(f"coefficient {c:#x} out of range for width {self.width}")
        object.__setattr__(self, "spec", default_spec(self.width))
        object.__setattr__(self, "mask", (1 << window_bits(self.window, self.range_bits)) - 1)

    @property
    def k(self) -> int:
        return len(self.coeffs)

    eval_int = eval_kwise


def sample_kwise(k: int, domain_bits: int, range_bits: int, rng,
                 window: int | None = None) -> KWiseHashKey:
    """Draw a uniform family member, confined to `window` if one is
    given. Consumes exactly k*w random bits."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    w = width_for(domain_bits, range_bits)
    coeffs = tuple(rng.getrandbits(w) for _ in range(k))
    return KWiseHashKey(coeffs, domain_bits, range_bits, w, window)


@dataclass(frozen=True)
class RandomTable:
    """A table of uniform entries; the oracle-free stand-in for inner PRF calls."""

    entries: tuple[int, ...]
    entry_bits: int

    def __post_init__(self):
        if not self.entries:
            raise ValueError("empty table")
        if self.entry_bits < 1:
            raise ValueError("entry_bits must be positive")
        for e in self.entries:
            if not 0 <= e < (1 << self.entry_bits):
                raise ValueError(f"entry {e:#x} out of range for {self.entry_bits} bits")

    @property
    def domain_bits(self) -> int:
        return len(self.entries).bit_length() - 1

    @property
    def range_bits(self) -> int:
        return self.entry_bits

    def eval_int(self, index: int) -> int:
        return self.entries[index]


def sample_table(count: int, entry_bits: int, rng, window: int | None = None) -> RandomTable:
    """count entries of entry_bits bits, each inside the first `window`
    strings if one is given."""
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    bits = window_bits(window, entry_bits)
    return RandomTable(tuple(rng.getrandbits(bits) for _ in range(count)), entry_bits)


@dataclass(frozen=True)
class IndependenceReport:
    ok: bool
    keys_enumerated: int
    expected_count: int


def exhaustive_independence_check(k: int, range_bits: int | None = None) -> IndependenceReport:
    """Verify exact k-wise independence over GF(2^4) by enumerating
    every key.

    For every ordered k-tuple of distinct inputs, every output k-tuple
    must occur for exactly keys / 2^(range_bits*k) keys. Only w=4 with
    k <= 3 is within policy; larger fields make full enumeration
    pointless rather than merely slow.
    """
    if not 1 <= k <= 3:
        raise ConfigurationError(
            f"exhaustive check is limited to width 4 with k <= 3; got k {k}. "
            "Use the sampled experiments (uniformity, birthday) for larger parameters."
        )
    width = 4
    r = width if range_bits is None else range_bits
    if not 1 <= r <= width:
        raise ConfigurationError(f"range_bits {r} must be in 1..{width}")

    spec = default_spec(width)
    n = 1 << width
    mul = np.array([[spec.mul_int(a, b) for b in range(n)] for a in range(n)], dtype=np.uint8)

    n_keys = n**k
    # coefficient j of key i is digit j of i in base 2^width, a0 first
    idx = np.arange(n_keys, dtype=np.uint32)
    coeff = [(idx >> np.uint32(width * j)).astype(np.uint8) & np.uint8(n - 1) for j in range(k)]

    rmask = np.uint8((1 << r) - 1)
    evals = np.empty((n_keys, n), dtype=np.uint8)
    for x in range(n):
        acc = coeff[k - 1].copy()
        for j in range(k - 2, -1, -1):
            acc = mul[acc, x] ^ coeff[j]
        evals[:, x] = acc & rmask

    expected, rem = divmod(n_keys, (1 << r) ** k)
    if rem:
        raise ConfigurationError("key count is not a multiple of the output tuple count")

    ok = True
    n_codes = (1 << r) ** k
    for xs in itertools.permutations(range(n), k):
        code = evals[:, xs[0]].astype(np.uint32)
        for x in xs[1:]:
            code = (code << np.uint32(r)) | evals[:, x]
        counts = np.bincount(code, minlength=n_codes)
        if not (counts == expected).all():
            ok = False
            break
    return IndependenceReport(ok, n_keys, expected)

"""Arithmetic in the binary fields GF(2^w), w in {4, 8, 16, 32, 64}.

Elements are unsigned integers below 2^w interpreted as polynomials
over GF(2). Addition is XOR. Multiplication is the carryless product
reduced modulo a fixed irreducible polynomial of degree w:

    w=4   x^4 + x + 1                          (0x13)
    w=8   x^8 + x^4 + x^3 + x + 1              (0x11B, the AES polynomial)
    w=16  x^16 + x^5 + x^3 + x + 1             (0x1002B)
    w=32  x^32 + x^7 + x^3 + x^2 + 1           (0x10000008D)
    w=64  x^64 + x^4 + x^3 + x + 1             (2^64 + 0x1B)

For w <= 16 the polynomial is verified irreducible at construction by
trial division over all divisors of degree <= w/2; the two wide widths
use well-known low-weight irreducibles and are covered by known-answer
tests instead.

Multiplication has one strategy per width band: log/exp tables for
w <= 16, and the schoolbook shift-and-XOR _mul_raw for w in {32, 64}.
The contract is bit-exact agreement with the schoolbook definition,
which the test suite checks against an independent oracle. Tables are
built on first use, never at import or construction, in typed arrays:
array('B') for w <= 8 and array('H') for w = 16, the exp table doubled
so a log sum needs no reduction. At w = 16 that is 128 KiB of log and
256 KiB of exp; as lists of boxed ints they would take 5.2 MiB and miss
cache on every Horner step. exp holds the powers of x+1 and is filled
through a numpy view by doubling its filled prefix, exp[n:2n] =
exp[:n] * (x+1)^n: a product by a constant is GF(2)-linear, so each
round is two gathers from linear_tables' half-word tables of that
constant's doublings, w rounds with no Python step per element. The
build raises ValueError unless log[exp[i]] = i for every i < 2^w - 1,
that is unless x+1 generates the multiplicative group, which it does
under each shipped w <= 16 polynomial. FieldSpec.log_exp hands
the tables to a caller that multiplies by log sums itself: the twin's
per-call hash evaluator, batch._Hashes.at, which adaptive-transform's
probe rounds ask, takes each term a_i x^i of a hash over GF(2^w),
w <= 16, as exp[log a_i + i log x] through numpy views of them; no
other module reads them. The numpy engine's grids
(batch._power_tables) multiply by the fixed powers x^i of their query
points through nibble or byte tables of their doublings x^i * 2^b,
built by linear_tables' row doubling but cut to the bits a hash keeps
and held in the narrowest dtype of those bits, and make no product
here. linear_tables holds uint64 words only: the widest maps it
builds, the byte tables of an affine adw key's inner values
(batch._ADW), are 64 bits.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Sequence

import numpy as np

SUPPORTED_WIDTHS = (4, 8, 16, 32, 64)

DEFAULT_REDUCTION = {
    4: 0x13,
    8: 0x11B,
    16: 0x1002B,
    32: 0x1_0000_008D,
    64: (1 << 64) | 0x1B,
}


def _polymod(a: int, b: int) -> int:
    """Remainder of carryless division of a by b over GF(2)."""
    db = b.bit_length() - 1
    while a.bit_length() - 1 >= db:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def _is_irreducible(poly: int) -> bool:
    w = poly.bit_length() - 1
    for d in range(1, w // 2 + 1):
        for q in range(1 << d, 1 << (d + 1)):
            if _polymod(poly, q) == 0:
                return False
    return True


def _mul_raw(a: int, b: int, width: int, poly: int) -> int:
    """Schoolbook carryless multiply and reduce: the w >= 32 multiplier."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return _polymod(acc, poly)


class FieldSpec:
    """The field GF(2^width) under its shipped reduction polynomial.

    Two width bands, one multiplier each. For w <= 16, log/exp tables
    over the generator x+1 of the multiplicative group, built on first
    use in w vector doublings of the filled powers, checked to be
    inverse permutations (ValueError if x+1 does not generate the
    group) and cached on the instance, so reuse one spec per field
    (default_spec does this) rather than constructing in a loop. For w
    in {32, 64}, the schoolbook _mul_raw. Specs compare by identity,
    so a cache keyed on a spec (batch._power_tables) is shared through
    default_spec's one spec per width.
    """

    def __init__(self, width: int):
        if width not in SUPPORTED_WIDTHS:
            raise ValueError(f"unsupported width {width}")
        self.width = width
        self.poly = DEFAULT_REDUCTION[width]
        if width <= 16 and not _is_irreducible(self.poly):
            raise ValueError(f"reduction polynomial {self.poly:#x} is reducible")
        self._log: array | None = None
        self._exp: array | None = None

    def _build_logexp(self) -> tuple[array, array]:
        if self._log is None:
            width, poly = self.width, self.poly
            order, half = (1 << width) - 1, width // 2
            low = (1 << half) - 1
            code = "B" if width <= 8 else "H"
            # doublings[k][j] = c * 2^j for c = g^(2^k), the generator
            # g = x+1: a product by c is GF(2)-linear, and these are its
            # values at the unit vectors. The next c is that map at c.
            doublings, c = [], 3
            for _ in range(width):
                row, d, square = [], c, 0
                for j in range(width):
                    row.append(d)
                    if c >> j & 1:
                        square ^= d
                    d <<= 1
                    if d >> width:
                        d ^= poly
                doublings.append(row)
                c = square
            lo, hi = (t.astype(code) for t in linear_tables(doublings, half))
            log = array(code, [0]) * (order + 1)
            exp = array(code, [0]) * order
            logs, powers = np.frombuffer(log, dtype=code), np.frombuffer(exp, dtype=code)
            powers[0] = 1
            for k in range(width):
                # powers[n:2n] = powers[:n] * g^n for n = 2^k, in place
                n = 1 << k
                src = powers[:min(n, order - n)]
                np.bitwise_xor(lo[k][src & low], hi[k][src >> half],
                               out=powers[n:n + len(src)])
            # log[exp[i]] = i reads back for every i only if the powers
            # are distinct, that is if x+1 generates the group
            logs[powers] = np.arange(order, dtype=code)
            if not np.array_equal(logs[powers], np.arange(order, dtype=code)):
                raise ValueError(f"x+1 does not generate the multiplicative group mod {poly:#x}")
            self._exp = exp * 2  # doubled to skip the mod in lookups
            self._log = log
        return self._log, self._exp

    def log_exp(self) -> tuple[array, array]:
        """The w <= 16 tables, built on first use: log[a] for nonzero a,
        and exp with exp[i + j] = g^(i + j) for any two logs i, j below
        2^w - 1, so a product of nonzero a and b is exp[log[a] + log[b]]
        with no reduction. The tables are shared; callers only read them."""
        if self.width > 16:
            raise ValueError(f"no log/exp tables at width {self.width}")
        return self._build_logexp()

    def mul_int(self, a: int, b: int) -> int:
        """Product of raw integer elements. No range checks; hot path."""
        if self.width <= 16:
            if a == 0 or b == 0:
                return 0
            if self._log is None:
                self._build_logexp()
            return self._exp[self._log[a] + self._log[b]]
        return _mul_raw(a, b, self.width, self.poly)

    def poly_eval(self, coeffs: Sequence[int], x: int) -> int:
        """a0 + a1*x + ... + a_{k-1}*x^{k-1} by Horner's rule through
        mul_int, on raw ints: the scalar reference of every hash."""
        acc = coeffs[-1]
        for c in coeffs[-2::-1]:
            acc = self.mul_int(acc, x) ^ c
        return acc


def linear_tables(basis, bits: int = 8) -> Iterator[np.ndarray]:
    """Lookup tables of GF(2)-linear maps, one per `bits` input bits.

    basis[..., j] holds each map's value at the unit vector 2^j as a
    uint64 word; leading axes index independent maps. Table p, entry m,
    is the value at m << (bits * p), the XOR of basis[..., bits * p + i]
    over the set bits i of m. A table doubles bit by bit, entry
    m + 2^i = entry m ^ basis[..., bits * p + i], so its 2^bits entries
    cost bits vector XORs; the last table is shorter when the input
    length is not a multiple of bits. Tables are yielded one at a time,
    so a caller that folds each into a result holds one at a time.
    """
    basis = np.asarray(basis, dtype=np.uint64)
    for pos in range(0, basis.shape[-1], bits):
        cols = basis[..., pos:pos + bits]
        table = np.zeros(basis.shape[:-1] + (1 << cols.shape[-1],), dtype=basis.dtype)
        for i in range(cols.shape[-1]):
            np.bitwise_xor(table[..., :1 << i], cols[..., i:i + 1], out=table[..., 1 << i:2 << i])
        yield table


_DEFAULT_SPECS: dict[int, FieldSpec] = {}


def default_spec(width: int) -> FieldSpec:
    if width not in _DEFAULT_SPECS:
        _DEFAULT_SPECS[width] = FieldSpec(width)
    return _DEFAULT_SPECS[width]

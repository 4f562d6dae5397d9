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

The multiplication strategy is width-dependent (full tables for w <= 8,
log/exp tables for w = 16, byte-sliced carryless products above) but
the contract is bit-exact agreement with the schoolbook shift-and-XOR
definition, which the test suite checks against an independent oracle.
Tables are built on first use, never at import or construction.
"""

from __future__ import annotations

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
    """Schoolbook carryless multiply and reduce. Slow but obviously right."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return _polymod(acc, poly)


# 15-bit carryless products of byte pairs, shared by every wide field.
_CL8: list[list[int]] | None = None


def _cl8() -> list[list[int]]:
    global _CL8
    if _CL8 is None:
        table = []
        for a in range(256):
            row = []
            for b in range(256):
                acc, aa, bb = 0, a, b
                while bb:
                    if bb & 1:
                        acc ^= aa
                    aa <<= 1
                    bb >>= 1
                row.append(acc)
            table.append(row)
        _CL8 = table
    return _CL8


class FieldSpec:
    """A concrete field: width plus reduction polynomial.

    Instances cache their multiplication tables, so reuse one spec per
    field (default_spec does this) rather than constructing in a loop.
    """

    def __init__(self, width: int, reduction_poly: int | None = None):
        if width not in SUPPORTED_WIDTHS:
            raise ValueError(f"unsupported width {width}")
        poly = DEFAULT_REDUCTION[width] if reduction_poly is None else reduction_poly
        if poly.bit_length() - 1 != width:
            raise ValueError(f"reduction polynomial {poly:#x} does not have degree {width}")
        if width <= 16 and not _is_irreducible(poly):
            raise ValueError(f"reduction polynomial {poly:#x} is reducible")
        self.width = width
        self.reduction_poly = poly
        self._mul_table: list[list[int]] | None = None
        self._log: list[int] | None = None
        self._exp: list[int] | None = None
        self._reduce_tables: list[list[int]] | None = None

    def __repr__(self):
        return f"FieldSpec(width={self.width}, reduction_poly={self.reduction_poly:#x})"

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.width == other.width
            and self.reduction_poly == other.reduction_poly
        )

    def __hash__(self):
        return hash((self.width, self.reduction_poly))

    # table construction, one strategy per width band

    def _build_mul_table(self) -> list[list[int]]:
        if self._mul_table is None:
            w, p = self.width, self.reduction_poly
            self._mul_table = [
                [_mul_raw(a, b, w, p) for b in range(1 << w)] for a in range(1 << w)
            ]
        return self._mul_table

    def _build_logexp(self) -> tuple[list[int], list[int]]:
        if self._log is None:
            order = (1 << self.width) - 1
            g = 2
            while True:
                exp = [1]
                v = 1
                while True:
                    v = _mul_raw(v, g, self.width, self.reduction_poly)
                    if v == 1:
                        break
                    exp.append(v)
                if len(exp) == order:
                    break
                g += 1  # the group is cyclic, so some generator exists
            log = [0] * (order + 1)
            for i, v in enumerate(exp):
                log[v] = i
            self._exp = exp + exp  # doubled to skip the mod in lookups
            self._log = log
        return self._log, self._exp

    def _build_reduce_tables(self) -> list[list[int]]:
        if self._reduce_tables is None:
            w, p = self.width, self.reduction_poly
            tables = []
            for pos in range(w // 8):
                tables.append([_polymod(byte << (w + 8 * pos), p) for byte in range(256)])
            self._reduce_tables = tables
        return self._reduce_tables

    def mul_int(self, a: int, b: int) -> int:
        """Product of raw integer elements. No range checks; hot path."""
        w = self.width
        if w <= 8:
            return self._build_mul_table()[a][b]
        if w == 16:
            if a == 0 or b == 0:
                return 0
            log, exp = self._build_logexp()
            return exp[log[a] + log[b]]
        # byte-sliced carryless product, then table reduction
        cl8 = _cl8()
        nbytes = w // 8
        abytes = [(a >> (8 * i)) & 255 for i in range(nbytes)]
        bbytes = [(b >> (8 * i)) & 255 for i in range(nbytes)]
        prod = 0
        for i, ab in enumerate(abytes):
            if ab:
                row = cl8[ab]
                for j, bb in enumerate(bbytes):
                    if bb:
                        prod ^= row[bb] << (8 * (i + j))
        red = self._build_reduce_tables()
        out = prod & ((1 << w) - 1)
        high = prod >> w
        pos = 0
        while high:
            byte = high & 255
            if byte:
                out ^= red[pos][byte]
            high >>= 8
            pos += 1
        return out

    def poly_eval(self, coeffs: Sequence[int], x: int) -> int:
        """a0 + a1*x + ... + a_{k-1}*x^{k-1} by Horner's rule, on raw ints.

        The multiplier is resolved once per evaluation rather than once
        per product: the row of x for w <= 8, log(x) for w = 16, the
        bound mul_int above.
        """
        acc = coeffs[-1]
        rest = coeffs[-2::-1]
        w = self.width
        if w <= 8:
            row = self._build_mul_table()[x]
            for c in rest:
                acc = row[acc] ^ c
        elif w == 16:
            if x == 0:
                return coeffs[0]
            log, exp = self._build_logexp()
            lx = log[x]
            for c in rest:
                acc = (exp[log[acc] + lx] if acc else 0) ^ c
        else:
            mul = self.mul_int
            for c in rest:
                acc = mul(acc, x) ^ c
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
        table = np.zeros(basis.shape[:-1] + (1 << cols.shape[-1],), dtype=np.uint64)
        for i in range(cols.shape[-1]):
            np.bitwise_xor(table[..., :1 << i], cols[..., i:i + 1], out=table[..., 1 << i:2 << i])
        yield table


_DEFAULT_SPECS: dict[int, FieldSpec] = {}


def default_spec(width: int) -> FieldSpec:
    if width not in _DEFAULT_SPECS:
        _DEFAULT_SPECS[width] = FieldSpec(width)
    return _DEFAULT_SPECS[width]

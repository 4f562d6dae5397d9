"""The hash-and-XOR combiner used by every transformation.

It evaluates two underlying oracles at hashed positions and XORs the
results, in the style of cuckoo hashing's two-table layout:

  adw:  f1(inner1(x)) ^ f2(inner2(x)) ^ inner_y(x), where
        inner(h, mbar, x) = h(x) ^ XOR_i m_i(g_i(x))

The inner maps m_i and y_i range over a vector of z functions on a
small domain of u-bit values; the g-vector is shared between the two
halves and the y-part. pp is adw with z = 0: an ADWKey whose four bars
are empty, f1(h1(x)) ^ f2(h2(x)) ^ ell(x), which the tests pin to that
formula pointwise.

Inner maps are either RandomTable (table-backed: lookups, no oracle
calls) or Oracle instances (prf-backed: each lookup is an underlying
call). Every slot is duck-typed: anything with domain_bits/range_bits
attributes and an eval_int(int) -> int method works, which admits
k-wise keys (with or without a window), tables and any Oracle.

Values are plain ints inside the combiner: adw_inner_values and
adw_eval take and return raw values, and every slot is called through
eval_int. An ADWKey is the oracle it keys: its eval_int is adw_eval,
and a BitString is built only where it is queried through
Oracle.query, which checks the input length the combiner takes on
trust.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hashfam import KWiseHashKey, RandomTable
from .prfcore import Oracle


def adw_inner_values(key: ADWKey, x: int) -> tuple[int, int, int]:
    """The three inner values at x: h1(x), h2(x) and ell(x), each XORed
    with its bar's maps at every g_i(x), each g_i evaluated once."""
    a, b, y = key.h1.eval_int(x), key.h2.eval_int(x), key.ell.eval_int(x)
    for g, m1, m2, m in zip(key.gbar, key.m1bar, key.m2bar, key.ybar):
        gv = g.eval_int(x)
        a ^= m1.eval_int(gv)
        b ^= m2.eval_int(gv)
        y ^= m.eval_int(gv)
    return a, b, y


def adw_eval(key: ADWKey, x: int) -> int:
    """The combiner at a raw domain value. ADWKey uses it as its
    eval_int."""
    a, b, y = adw_inner_values(key, x)
    return key.f1.eval_int(a) ^ key.f2.eval_int(b) ^ y


@dataclass(frozen=True)
class ADWKey(Oracle):
    """The slots of an adw key, and the oracle they key: eval_int is
    adw_eval, and Oracle.query its face on bit strings."""

    h1: object
    h2: object
    ell: object
    gbar: tuple
    m1bar: tuple
    m2bar: tuple
    ybar: tuple
    f1: Oracle
    f2: Oracle

    def __post_init__(self):
        z = len(self.gbar)
        if not (len(self.m1bar) == len(self.m2bar) == len(self.ybar) == z):
            raise ValueError("gbar, m1bar, m2bar, ybar must have equal length")
        d = self.h1.domain_bits
        if self.h2.domain_bits != d or self.ell.domain_bits != d:
            raise ValueError("h1, h2, ell must share one domain")
        for g in self.gbar:
            if g.domain_bits != d:
                raise ValueError("every g_i must share the extended domain")
        if self.h1.range_bits != self.f1.domain_bits:
            raise ValueError("h1 range does not match f1 domain")
        if self.h2.range_bits != self.f2.domain_bits:
            raise ValueError("h2 range does not match f2 domain")
        if self.f1.range_bits != self.f2.range_bits or self.ell.range_bits != self.f1.range_bits:
            raise ValueError("f1, f2, ell must share one range")
        for g, m1, m2, y in zip(self.gbar, self.m1bar, self.m2bar, self.ybar):
            u = g.range_bits
            for m, bits in ((m1, self.f1.domain_bits), (m2, self.f2.domain_bits),
                            (y, self.f1.range_bits)):
                if m.domain_bits != u:
                    raise ValueError(f"inner map domain is not {u} bits")
                if m.range_bits != bits:
                    raise ValueError(f"inner map range is not {bits} bits")

    @property
    def domain_bits(self) -> int:
        return self.h1.domain_bits

    @property
    def range_bits(self) -> int:
        return self.f1.range_bits

    eval_int = adw_eval


def is_affine(key: ADWKey) -> bool:
    """Whether every inner value of key is GF(2)-affine in x: h1, h2,
    ell and every g_i k-wise keys of degree at most 1, and every inner
    map a 2-entry table indexed by one bit. The scalar reference of the
    twin's batch._ADW._affine, which asks it of a block."""
    return (all(isinstance(h, KWiseHashKey) and len(h.coeffs) <= 2
                for h in (key.h1, key.h2, key.ell, *key.gbar))
            and all(isinstance(m, RandomTable) and len(m.entries) == 2
                    for m in (*key.m1bar, *key.m2bar, *key.ybar)))

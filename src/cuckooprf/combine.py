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
eval_int. A BitString is built only where an ADWOracle is queried
through Oracle.query, which checks the input length the combiner
takes on trust.

An adw key whose hashes all have degree at most 1 (k <= 2) and whose
inner maps are all 2-entry tables is GF(2)-affine in x: each of its
three inner values is c ^ L x. A pp key at k = 2 is one. ADWOracle
folds such a key into byte tables of that map (fold_adw) once more
than d+1 queries are asked, which is what the fold costs to build.
A key that is not affine but whose h1, h2 and ell are k-wise keys over
one GF(2^w), w <= 16, with one k and nonzero non-constant coefficients
(power_summable; the pp keys of the adaptive builders) is answered
from then on by power sums: log x^i is one running sum shared by the
three hashes, and each term a_i x^i is one lookup in the field's exp
table. Any other key keeps adw_eval, which stays the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .gf import linear_tables
from .hashfam import KWiseHashKey, RandomTable
from .prfcore import Oracle


@dataclass(frozen=True)
class ADWKey:
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
    def z(self) -> int:
        return len(self.gbar)

    @property
    def domain_bits(self) -> int:
        return self.h1.domain_bits

    @property
    def range_bits(self) -> int:
        return self.f1.range_bits


def _xor_bars(key: ADWKey, x: int, a: int, b: int, y: int) -> tuple[int, int, int]:
    """a, b and y, each XORed with its bar's maps at every g_i(x), each
    g_i evaluated once: the one loop over the bars."""
    for g, m1, m2, m in zip(key.gbar, key.m1bar, key.m2bar, key.ybar):
        gv = g.eval_int(x)
        a ^= m1.eval_int(gv)
        b ^= m2.eval_int(gv)
        y ^= m.eval_int(gv)
    return a, b, y


def adw_inner_values(key: ADWKey, x: int) -> tuple[int, int, int]:
    """The three inner values at x: h1(x), h2(x) and ell(x), each XORed
    with its bar's maps at every g_i(x)."""
    return _xor_bars(key, x, key.h1.eval_int(x), key.h2.eval_int(x), key.ell.eval_int(x))


def adw_eval(key: ADWKey, x: int) -> int:
    a, b, y = adw_inner_values(key, x)
    return key.f1.eval_int(a) ^ key.f2.eval_int(b) ^ y


def is_affine(key: ADWKey) -> bool:
    """Whether every inner value of key is GF(2)-affine in x: every hash
    a k-wise key of degree at most 1, every inner map a 2-entry table
    indexed by one bit."""
    return (all(isinstance(h, KWiseHashKey) and h.k <= 2
                for h in (key.h1, key.h2, key.ell, *key.gbar))
            and all(isinstance(m, RandomTable) and len(m) == 2
                    for bar in (key.m1bar, key.m2bar, key.ybar) for m in bar))


class _FoldedADW:
    """An affine adw key as byte tables of its three inner values.

    The values at x = 0 and at the d unit vectors give the constant and
    the columns of the map; the three values are packed into one int
    per table entry (inner1 low, then inner2, then the y part), so a
    query costs ceil(d/8) lookups and the two underlying calls.
    """

    def __init__(self, key: ADWKey):
        self.f1, self.f2 = key.f1, key.f2
        self.s1, self.s2 = key.f1.domain_bits, key.f2.domain_bits
        points = [0] + [1 << j for j in range(key.domain_bits)]
        at_basis = np.array([adw_inner_values(key, x) for x in points],
                            dtype=np.uint64).T  # (3, d+1)
        const = at_basis[:, :1]
        self.const = self._pack(*const[:, 0].tolist())
        self.tables = [[self._pack(*entry) for entry in zip(*table.tolist())]
                       for table in linear_tables(at_basis[:, 1:] ^ const)]

    def _pack(self, a: int, b: int, y: int) -> int:
        return a | (b << self.s1) | (y << (self.s1 + self.s2))

    def __call__(self, x: int) -> int:
        packed = self.const
        for table in self.tables:
            packed ^= table[x & 255]
            x >>= 8
        s1, s2 = self.s1, self.s2
        a = self.f1.eval_int(packed & ((1 << s1) - 1))
        b = self.f2.eval_int((packed >> s1) & ((1 << s2) - 1))
        return a ^ b ^ (packed >> (s1 + s2))


def power_summable(key: ADWKey) -> bool:
    """Whether h1, h2 and ell are k-wise keys over one GF(2^w), w <= 16,
    with one k and nonzero coefficients a_1..a_{k-1} (a_0 may be 0), so
    that every term a_i x^i of the three has a log."""
    hashes = (key.h1, key.h2, key.ell)
    return (all(isinstance(h, KWiseHashKey) for h in hashes)
            and len({(h.width, h.k) for h in hashes}) == 1 and key.h1.width <= 16
            and all(all(h.coeffs[1:]) for h in hashes))


class _PowerSumADW:
    """A power-summable key (power_summable) evaluated term by term.

    Each hash is a_0 + sum_i a_i x^i over GF(2^w). Its logs log a_i are
    taken once, one column (h1, h2, ell) per power; a query keeps
    log x^i = i log x mod 2^w - 1 as one running sum for the three, so
    each term is one exp lookup and there is no product. The masks,
    the bars and the two underlying calls follow as in adw_eval.
    """

    def __init__(self, key: ADWKey):
        self.key = key
        hashes = (key.h1, key.h2, key.ell)
        self.log, self.exp = key.h1.spec.log_exp()
        self.order = (1 << key.h1.width) - 1
        self.consts = tuple(h.coeffs[0] for h in hashes)
        self.masks = tuple(h.mask for h in hashes)
        self.columns = tuple(zip(*([self.log[c] for c in h.coeffs[1:]] for h in hashes)))

    def __call__(self, x: int) -> int:
        a, b, y = self.consts
        if x:
            exp, order = self.exp, self.order
            step = self.log[x]
            e = 0
            for l1, l2, l3 in self.columns:
                e = (e + step) % order
                a ^= exp[l1 + e]
                b ^= exp[l2 + e]
                y ^= exp[l3 + e]
        m1, m2, m3 = self.masks
        key = self.key
        a, b, y = a & m1, b & m2, y & m3
        if key.gbar:
            a, b, y = _xor_bars(key, x, a, b, y)
        return key.f1.eval_int(a) ^ key.f2.eval_int(b) ^ y


def fold_adw(key: ADWKey):
    """x -> adw_eval(key, x): from the key's byte tables if it is affine,
    by power sums if it is power_summable, else adw_eval itself.
    Building the tables costs d+1 evaluations of the inner values and
    the power sums k logs per hash; the underlying f1 and f2 are not
    called."""
    if is_affine(key):
        return _FoldedADW(key)
    if power_summable(key):
        return _PowerSumADW(key)
    return partial(adw_eval, key)


class ADWOracle(Oracle):
    """adw_eval as an oracle. The first d+1 queries are answered by
    adw_eval; the key is folded (fold_adw: byte tables, power sums or
    adw_eval) at query d+2, so a fold is built only once it has been
    paid for, and answers from then on."""

    def __init__(self, key: ADWKey):
        super().__init__(key.domain_bits, key.range_bits)
        self.key = key
        self._unfolded_left = key.domain_bits + 1
        self._folded = None

    def eval_int(self, x: int) -> int:
        if self._unfolded_left:
            self._unfolded_left -= 1
            return adw_eval(self.key, x)
        if self._folded is None:
            self._folded = fold_adw(self.key)
        return self._folded(x)


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

fold_adw folds a key into one array function of its inner values:
an array of points in, their inner1, inner2 and y part out, as
adw_inner_values gives them one point at a time. The caller answers f1
and f2 at the two inner rows itself: adaptive-transform, whose probe
rounds ask each target's fold at 64 points at once and answer both
targets' f1 and f2 in one batch.lazy_answers call. Building a fold
costs some numpy passes over the key's coefficients and bars, so only
a caller that asks one key many times folds it. A per-trial key asked
a few times, and adw-compare's call-count probe, pay no fold.

A k-wise hash over GF(2^w) is a_0 ^ XOR over odd o < k of
L_o(x^o), where L_o(y) = sum_t a_(o 2^t) y^(2^t) is GF(2)-linear in y,
because squaring is (the Frobenius identity; Lidl and Niederreiter,
Finite Fields, ch. 3). So when h1, h2 and ell are k-wise keys over one
GF(2^w) with w <= 16 and every bar is affine (a 2-wise g over that
field into 2-entry tables), the three inner values are a constant
XORed with one linear map of each odd power x^o, and the fold holds
each map as byte tables of the three values packed into one uint64
word; x^o is one lookup exp[o log x mod 2^w - 1]. Any other key is
folded pointwise, adw_inner_values at each point: adaptive-transform
at n > 16, whose hashes live in GF(2^32) or GF(2^64).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf import default_spec, linear_tables
from .hashfam import KWiseHashKey, RandomTable
from .prfcore import Oracle


def _bars(key: ADWKey):
    """The key's bars, one (g_i, m1_i, m2_i, y_i) tuple per inner map."""
    return zip(key.gbar, key.m1bar, key.m2bar, key.ybar)


def adw_inner_values(key: ADWKey, x: int) -> tuple[int, int, int]:
    """The three inner values at x: h1(x), h2(x) and ell(x), each XORed
    with its bar's maps at every g_i(x), each g_i evaluated once."""
    a, b, y = key.h1.eval_int(x), key.h2.eval_int(x), key.ell.eval_int(x)
    for g, m1, m2, m in _bars(key):
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


def _affine_bar(g, m1, m2, y) -> bool:
    """Whether a bar is GF(2)-affine in x: g a k-wise key of degree at
    most 1, every map a 2-entry table indexed by one bit."""
    return (isinstance(g, KWiseHashKey) and len(g.coeffs) <= 2 and isinstance(m1, RandomTable)
            and isinstance(m2, RandomTable) and isinstance(y, RandomTable)
            and len(m1.entries) == len(m2.entries) == len(y.entries) == 2)


def is_affine(key: ADWKey) -> bool:
    """Whether every inner value of key is GF(2)-affine in x: h1, h2 and
    ell of degree at most 1 and every bar affine (_affine_bar), as the
    twin's batch._ADW._affine asks of a block."""
    return (all(isinstance(h, KWiseHashKey) and h.k <= 2 for h in (key.h1, key.h2, key.ell))
            and all(_affine_bar(*bar) for bar in _bars(key)))


@lru_cache(maxsize=64)
def _frobenius_logs(width: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, starts, logs) for the coefficients a_1..a_(k-1) over GF(2^w):
    the exponents i = o 2^t (o odd) grouped by o, o ascending; the index
    in i at which each o's group starts; and logs[n, j] = log (2^j)^(2^t),
    which is 2^t log 2^j mod 2^w - 1, for the n-th exponent."""
    log = default_spec(width).log_exp()[0]
    log = np.frombuffer(log, dtype=log.typecode)
    i = np.array(sorted(range(1, k), key=lambda e: (e // (e & -e), e)))
    twos = i & -i
    starts = np.flatnonzero(np.diff(i // twos, prepend=0))
    logs = (twos[:, None] * log[1 << np.arange(width)]) % ((1 << width) - 1)
    return i, starts, logs


def _linear_maps(hashes, d: int, w: int) -> list[np.ndarray]:
    """The columns of the hashes' linear maps L_o over GF(2^w), masked,
    one row per hash: L_1 on the bits of x up to the byte that holds bit
    d - 1 (an x below 2^d sets none past it), then L_o on the w bits of
    x^o, padded with zero columns to whole bytes, for each odd o >= 3
    below the largest k, a row zero where its hash has no such o.

    A hash is a_0 ^ XOR over odd o < k of L_o(x^o), where
    L_o(y) = sum_t a_(o 2^t) y^(2^t); squaring is GF(2)-linear
    (Frobenius), so each L_o is. Column j is L_o(2^j)."""
    log, exp = (np.frombuffer(t, dtype=t.typecode) for t in default_spec(w).log_exp())
    k = max(2, *(h.k for h in hashes))
    i, starts, logs = _frobenius_logs(w, k)
    # a shorter key's missing coefficients, like any zero a_i, have no
    # log and add nothing
    a = np.array([h.coeffs + (0,) * (k - h.k) for h in hashes])[:, i]
    terms = np.where(a[..., None] != 0, exp[logs + log[a][..., None]], 0).astype(np.uint64)
    masks = np.array([h.mask for h in hashes], dtype=np.uint64)
    columns = np.zeros((len(hashes), len(starts), -(-w // 8) * 8), dtype=np.uint64)
    columns[..., :w] = np.bitwise_xor.reduceat(terms, starts, axis=1) & masks[:, None, None]
    return [columns[:, 0, :-(-d // 8) * 8], *columns[:, 1:].transpose(1, 0, 2)]


def fold_adw(key: ADWKey):
    """The key's inner values as one array function: xs, a 1-D uint64
    array of domain points, -> a C-ordered (3, len(xs)) uint64 array
    whose rows are inner1, inner2 and the y part at each point, as
    adw_inner_values gives them. It never calls f1 or f2: a caller
    answers the two inner rows itself. If h1, h2, ell and every g_i are
    k-wise keys over one GF(2^w) with w <= 16, and every bar is affine
    (_affine_bar), it answers from byte tables of the three inner
    values, which it builds in a few numpy passes over the coefficients
    and the bars; else it applies adw_inner_values at each point.

    Each hash is a_0 ^ XOR over odd o < k of L_o(x^o), each L_o
    GF(2)-linear (_linear_maps), and a mask distributes over XOR. So
    the three inner values are a constant ^ XOR_o T_o(x^o), one linear
    map T_o per odd power, held as one table per input byte whose
    entries pack the three values into one word below 2^48 (inner1 low,
    then inner2, then the y part). Each bar is folded into the constant
    and T_1: m(g(x)) is m(g(0)) ^ (g(x) ^ g(0)) (m(0) ^ m(1)), and
    g(x) ^ g(0) is linear in x. x^o is exp[o log x mod 2^w - 1], so
    every point costs one log lookup and, per odd o >= 3, one exp
    lookup; its table indices, ceil(d/8) for T_1 and one or two per
    x^o (its low and its high byte), are gathered from all the tables
    at once and XORed down.
    """
    hashes, bars = (key.h1, key.h2, key.ell), tuple(_bars(key))
    if not (all(isinstance(h, KWiseHashKey) for h in hashes) and all(_affine_bar(*b) for b in bars)
            and len({h.width for h in (*hashes, *key.gbar)}) == 1 and key.h1.width <= 16):
        def pointwise(xs: np.ndarray) -> np.ndarray:
            values = [adw_inner_values(key, x) for x in xs.tolist()]
            return np.ascontiguousarray(np.array(values, dtype=np.uint64).reshape(-1, 3).T)

        return pointwise
    s1, s2, d, w = key.f1.domain_bits, key.f2.domain_bits, key.domain_bits, key.h1.width
    maps = _linear_maps(hashes, d, w)
    const = np.array([h.eval_int(0) for h in hashes], dtype=np.uint64)
    if bars:
        at0 = np.array([g.eval_int(0) for g in key.gbar])
        entries = np.array([[m.entries for m in bar[1:]] for bar in bars],
                           dtype=np.uint64).transpose(1, 0, 2)  # (3, bars, 2)
        const ^= np.bitwise_xor.reduce(entries[:, np.arange(len(bars)), at0], axis=1)
        delta = entries[..., 0] ^ entries[..., 1]
        bits = _linear_maps(key.gbar, d, w)[0] != 0
        maps[0] ^= np.bitwise_xor.reduce(np.where(bits, delta[..., None], 0), axis=1)

    lanes = np.array([0, s1, s1 + s2], dtype=np.uint64)  # inner1, inner2, y in a packed word

    def pack(values):
        return np.bitwise_or.reduce((values.T << lanes).T)

    start = pack(const)
    columns = np.concatenate([m.reshape(3, -1, 8) for m in maps], axis=1)
    # packed (tables, 8) columns -> (tables, 256) entries: first the
    # bytes of x, then the low and the high byte of each x^o (the low
    # one alone when w <= 8), o = 3, 5, ...
    tables = next(linear_tables(pack(columns)))
    flat, offsets = tables.reshape(-1), np.arange(0, tables.size, 256, dtype=np.uint64)[:, None]
    linear, per = -(-d // 8), -(-w // 8)
    shifts = np.arange(0, 8 * linear, 8, dtype=np.uint64)[:, None]
    odds = np.arange(3, 2 * len(maps), 2)[:, None]
    log, exp = (np.frombuffer(t, dtype=t.typecode) for t in default_spec(w).log_exp())
    group = (1 << w) - 1
    masks = np.array([(1 << s1) - 1, (1 << s2) - 1, (1 << key.range_bits) - 1],
                     dtype=np.uint64)[:, None]

    def folded(xs: np.ndarray) -> np.ndarray:
        index = np.empty((len(tables), len(xs)), dtype=np.uint64)
        np.bitwise_and(xs >> shifts, 255, out=index[:linear])
        if len(odds):
            powers = exp[odds * log[xs.view(np.intp)] % group]
            powers *= xs != 0  # 0^o is 0, which has no log
            np.bitwise_and(powers, 255, out=index[linear::per])
            if per == 2:
                np.right_shift(powers, 8, out=index[linear + 1::2])
        index += offsets
        packed = np.bitwise_xor.reduce(flat.take(index.view(np.intp)), axis=0)
        packed ^= start
        values = packed >> lanes[:, None]
        values &= masks
        return values

    return folded

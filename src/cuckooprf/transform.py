"""Builders for the PRF transformations.

Each builder samples fresh key material from a caller-supplied rng,
validates the parameter constraints it relies on, and returns a ready
oracle. Underlying PRF instances come from an f_sampler callable
(rng, domain_bits, range_bits) -> Oracle; the default is lazy-random,
which makes experiments exact: the combiner is then measured against
a genuinely random backing function, so any distinguishing advantage
is attributable to the combiner itself.

The pp and adw domain extensions are their slot layouts run on
KeyDraws(rng, f_sampler): pp_sampler(p)(rng), or
adw_layout(p, variant)(KeyDraws(rng)). pp spends two underlying calls
per query, the "prf" adw variant 3z+2 and the "table" variant two
plus lookups. pp_layout is the adw key with z = 0, no inner maps, and
adw_layout the one with z of them. Every shape is an ExtensionParams,
which checks the query budget q <= 2^(s-2) once for all of them. The
three builders, each one of the two layouts, all return the
combine.ADWKey, which is its own oracle:

  build_adaptive_from_nonadaptive
                                 nonadaptively-secure PRF -> adaptively
                                 secure PRF: pp_layout with h1 and h2
                                 restricted to the first 4q strings
  build_adw_adaptive_from_nonadaptive
                                 the table adw_layout with h1, h2 and
                                 the m-table entries inside the first
                                 4q strings
  build_prg_prf                  length-doubling generator -> PRF:
                                 pp_layout over two tree PRFs, 2m
                                 generator calls per query

Drawn from a key stream (bits.key_stream), every slot of a key takes
whole words: a k-wise hash over GF(2^w) takes k words of w bits, a
lazy-random oracle one 64-bit word, a table one word per entry, and a
padded view of an oracle none beyond the oracle's own. Each key shape
is written once as a slot layout over a draws interface: KeyDraws
draws each slot as a key object from an rng, and batch.ColumnDraws
reads the same slots as word columns of a block of key streams. A bar
of z like slots is drawn as bar(z, draw): KeyDraws calls draw() z
times, and ColumnDraws calls it once, reading the same words for the
whole bar in one call, and holds the bar as one slot of z stacked
blocks of rows. A KeySampler wraps a layout, so games.run_game can
sample a block of keys without building them; any other sampler is
played trial by trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bits import truncate
from .combine import ADWKey
from .errors import ConfigurationError
from .gf import SUPPORTED_WIDTHS
from .hashfam import RandomTable, sample_kwise, sample_table
from .prfcore import GgmKey, GgmOracle, LazyRandomOracle, LevinOracle, Oracle, PrgSpec

MAX_WIDTH = max(SUPPORTED_WIDTHS)


@dataclass(frozen=True)
class ExtensionParams:
    """Shared shape of a domain extension: d-bit inputs, an underlying
    PRF from s bits to r bits, independence k, query budget
    1 <= q <= 2^(s-2), and the polynomial hardness exponent c used by
    the adw variants."""

    d: int
    s: int
    r: int
    k: int
    q: int
    c: int = 1

    def __post_init__(self):
        if self.s < 2 or self.r < 1:
            raise ConfigurationError("s must be at least 2 and r positive")
        check_widths(d=self.d, r=self.r)
        if self.d < self.s:
            raise ConfigurationError(f"extended domain d={self.d} below underlying s={self.s}")
        check_independence(self.k, self.d)
        budget = 1 << (self.s - 2)
        if not 1 <= self.q <= budget:
            raise ConfigurationError(f"query budget q={self.q} is outside 1..2^(s-2)={budget}")
        # z = 2(c+2) log2 q grows with c, and the failure term c buys,
        # about q^-(c+1), is below 2^-64 at c = 64 for every q >= 2
        if not 1 <= self.c <= 64:
            raise ConfigurationError(f"hardness exponent c must be in 1..64, got {self.c}")


def check_widths(**bits: int):
    """Reject bit lengths outside 1..MAX_WIDTH, which no field width covers."""
    for name, value in bits.items():
        if not 1 <= value <= MAX_WIDTH:
            raise ConfigurationError(f"{name}={value} is outside 1..{MAX_WIDTH} bits")


def check_independence(k: int, d: int):
    """Reject k outside 2..2^d: no family on 2^d inputs is more than
    2^d-wise independent."""
    if not 2 <= k <= 1 << d:
        raise ConfigurationError(f"independence k={k} is outside 2..2^{d}")


def lazy_random_sampler(rng, domain_bits: int, range_bits: int) -> LazyRandomOracle:
    return LazyRandomOracle(rng.getrandbits(64), domain_bits, range_bits)


class KeyDraws:
    """Key slots drawn from an rng, each as a scalar key object.

    Underlying PRF slots come from f_sampler (default lazy-random). A
    window confines a hash's outputs and a table's entries to the first
    `window` strings of their range (hashfam.window_bits).
    """

    def __init__(self, rng, f_sampler=None):
        self.rng = rng
        self.f_sampler = f_sampler or lazy_random_sampler

    def kwise(self, k: int, domain_bits: int, range_bits: int, window: int | None = None):
        return sample_kwise(k, domain_bits, range_bits, self.rng, window)

    def prf(self, domain_bits: int, range_bits: int) -> Oracle:
        return self.f_sampler(self.rng, domain_bits, range_bits)

    def table(self, count: int, entry_bits: int, window: int | None = None) -> RandomTable:
        return sample_table(count, entry_bits, self.rng, window)

    def padded(self, f: Oracle, domain_bits: int, range_bits: int) -> PaddedPrfMap:
        return PaddedPrfMap(f, domain_bits, range_bits)

    def bar(self, z: int, draw) -> tuple:
        return tuple(draw() for _ in range(z))

    def levin(self, h, f) -> LevinOracle:
        return LevinOracle(h, f)

    def adw(self, *slots) -> ADWKey:
        return ADWKey(*slots)


class KeySampler:
    """An oracle sampler written once as a slot layout, layout(draws).

    Called with an rng it builds the oracle from KeyDraws(rng); the
    batched runner evaluates the same layout on the word columns of a
    block of trials, so both read each slot from the same words.
    """

    def __init__(self, layout):
        self.layout = layout

    def __call__(self, rng):
        return self.layout(KeyDraws(rng))


def lazy_sampler(domain_bits: int, range_bits: int) -> KeySampler:
    """A fresh lazy-random oracle per trial."""
    return KeySampler(lambda draws: draws.prf(domain_bits, range_bits))


def pp_layout(d: int, s: int, r: int, k: int, window: int | None = None):
    """pp slots: h1, h2 (d to s bits, inside the first `window` strings
    if one is given) and g (d to r bits), k coefficients each, then the
    underlying f1 and f2. A pp key is an adw key with g as ell and no
    inner maps."""

    def layout(draws):
        h1 = draws.kwise(k, d, s, window)
        h2 = draws.kwise(k, d, s, window)
        g = draws.kwise(k, d, r)
        f1 = draws.prf(s, r)
        return draws.adw(h1, h2, g, (), (), (), (), f1, draws.prf(s, r))

    return layout


def pp_sampler(p: ExtensionParams) -> KeySampler:
    return KeySampler(pp_layout(p.d, p.s, p.r, p.k))


def _adaptive_params(n: int, q: int, k: int, c: int = 1) -> ExtensionParams:
    """The shape of an adaptive builder: d = s = r = n and q a power of
    two, so that the budget q <= 2^(n-2) is its window of 4q strings
    inside {0,1}^n."""
    if q < 1 or q & (q - 1):
        raise ConfigurationError(f"query budget q={q} must be a power of two")
    return ExtensionParams(d=n, s=n, r=n, k=k, q=q, c=c)


def build_adaptive_from_nonadaptive(n: int, q: int, k: int, rng, f_sampler=None) -> ADWKey:
    """pp combiner with both hash ranges restricted to the first 4q
    strings of {0,1}^n, so the underlying PRFs are only ever evaluated
    inside that prefix; a nonadaptively secure f suffices there because
    the full query set is fixed in advance.
    """
    p = _adaptive_params(n, q, k)
    return pp_layout(p.d, p.s, p.r, p.k, window=4 * q)(KeyDraws(rng, f_sampler))


def adw_table_z(c: int, q: int) -> int:
    """Inner-map count 2(c+2)*ceil(log2 q) of the table-backed adw."""
    return 2 * (c + 2) * math.ceil(math.log2(q))


def adw_z(p: ExtensionParams, variant: str) -> int:
    if variant == "prf":
        return 2 * (p.c + 2)
    if variant == "table":
        return adw_table_z(p.c, p.q)
    raise ConfigurationError(f"unknown adw variant {variant!r}")


class PaddedPrfMap(Oracle):
    """A u-bit to r'-bit view of a wider oracle: the input value is
    queried unchanged in the oracle's wider domain (zero-extended), and
    the answer keeps its low r' bits. How one underlying PRF shape
    serves every inner-map shape the adw combiner needs."""

    def __init__(self, f: Oracle, domain_bits: int, range_bits: int):
        if domain_bits > f.domain_bits or range_bits > f.range_bits:
            raise ConfigurationError(
                f"{domain_bits}->{range_bits} view does not embed in "
                f"{f.domain_bits}->{f.range_bits}"
            )
        super().__init__(domain_bits, range_bits)
        self.f = f

    def eval_int(self, x: int) -> int:
        return truncate(self.f.eval_int(x), self.range_bits)


def adw_layout(p: ExtensionParams, variant: str, window: int | None = None):
    """adw slots in one of two shapes.

    variant "prf": z = 2(c+2) inner maps on u = log2(q) bits, each
    realized through a fresh underlying PRF instance with zero-padded
    input (and truncated output for the m maps), so one query spends
    3z+2 underlying calls. Requires u <= s <= r.

    variant "table": z = 2(c+2)*ceil(log2 q) inner maps on one bit,
    each a 2-entry random table, so one query spends exactly two
    underlying calls.

    A window confines h1 and h2 to the first `window` strings of
    {0,1}^s and, in the table variant, the m1/m2 entries to
    log2(window)-bit values; XOR cannot leave that prefix when window
    is a power of two. The prf variant's m maps are not confined.
    """
    z = adw_z(p, variant)
    if variant == "prf":
        if p.q < 2:
            raise ConfigurationError("prf-backed adw needs q >= 2")
        u = math.ceil(math.log2(p.q))
        if not u <= p.s <= p.r:
            raise ConfigurationError(f"need u <= s <= r, got u={u}, s={p.s}, r={p.r}")

    def layout(draws):
        h1 = draws.kwise(2, p.d, p.s, window)
        h2 = draws.kwise(2, p.d, p.s, window)
        ell = draws.kwise(2, p.d, p.r)
        if variant == "prf":
            gbar = draws.bar(z, lambda: draws.kwise(2, p.d, u))
            m1bar = draws.bar(z, lambda: draws.padded(draws.prf(p.s, p.r), u, p.s))
            m2bar = draws.bar(z, lambda: draws.padded(draws.prf(p.s, p.r), u, p.s))
            ybar = draws.bar(z, lambda: draws.padded(draws.prf(p.s, p.r), u, p.r))
        else:
            gbar = draws.bar(z, lambda: draws.kwise(2, p.d, 1))
            m1bar = draws.bar(z, lambda: draws.table(2, p.s, window))
            m2bar = draws.bar(z, lambda: draws.table(2, p.s, window))
            ybar = draws.bar(z, lambda: draws.table(2, p.r))
        f1 = draws.prf(p.s, p.r)
        return draws.adw(h1, h2, ell, gbar, m1bar, m2bar, ybar, f1, draws.prf(p.s, p.r))

    return layout


def build_adw_adaptive_from_nonadaptive(n: int, q: int, c: int, rng, f_sampler=None) -> ADWKey:
    """Table-backed adw analogue of build_adaptive_from_nonadaptive.

    Hash ranges and m-table entries all live in the first 4q strings
    of {0,1}^n; XOR cannot leave that prefix (4q is a power of two),
    so underlying queries stay inside it. At q = 1 the table variant
    would have no inner maps, so it needs q >= 2.
    """
    if q < 2:
        raise ConfigurationError(f"query budget q={q} must be at least 2")
    p = _adaptive_params(n, q, 2, c)
    return adw_layout(p, "table", window=4 * q)(KeyDraws(rng, f_sampler))


def build_prg_prf(prg: PrgSpec, m: int, n: int, k: int, q: int, rng) -> ADWKey:
    """PRF from a length-doubling generator: pp over two tree PRFs with
    hashed m-bit inputs. One query costs two tree walks, hence exactly
    2m generator calls. Its shape is ExtensionParams(d=n, s=m, r=n, k,
    q), so it requires 2 <= m <= n and 1 <= q <= 2^(m-2).
    """
    if prg.seed_bits != n:
        raise ConfigurationError(f"prg seed of {prg.seed_bits} bits, output domain needs {n}")
    p = ExtensionParams(d=n, s=m, r=n, k=k, q=q)

    def ggm_sampler(rng, domain_bits: int, range_bits: int) -> GgmOracle:
        return GgmOracle(GgmKey(rng.getrandbits(range_bits), domain_bits, prg))

    return pp_layout(p.d, p.s, p.r, p.k)(KeyDraws(rng, ggm_sampler))

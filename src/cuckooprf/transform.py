"""Builders for the PRF transformations.

Each builder samples fresh key material from a caller-supplied rng,
validates the parameter constraints it relies on, and returns a ready
oracle. Underlying PRF instances come from an f_sampler callable
(rng, domain_bits, range_bits) -> Oracle; the default is lazy-random,
which makes experiments exact: the combiner is then measured against
a genuinely random backing function, so any distinguishing advantage
is attributable to the combiner itself.

The five builders, each one of the two slot layouts below:

  build_pp_domain_extension      s-bit-domain PRF -> d-bit-domain PRF,
                                 two calls per query, q <= 2^(s-2)
  build_adaptive_from_nonadaptive
                                 nonadaptively-secure PRF -> adaptively
                                 secure PRF: pp_layout with h1 and h2
                                 restricted to the first 4q strings
  build_adw_domain_extension     like pp but with z inner maps; the
                                 "prf" variant spends 3z+2 calls, the
                                 "table" variant 2 calls plus lookups
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
reads the same slots as word columns of a block of key streams. A
KeySampler wraps a layout, so games.run_game can sample a block of
keys without building them; any other sampler is played trial by
trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bits import truncate
from .combine import ADWKey, ADWOracle, PPKey, PPOracle
from .errors import ConfigurationError
from .gf import SUPPORTED_WIDTHS
from .hashfam import RandomTable, sample_kwise, sample_table
from .prfcore import GgmKey, GgmOracle, LazyRandomOracle, LevinOracle, Oracle, PrgSpec

MAX_WIDTH = max(SUPPORTED_WIDTHS)


@dataclass(frozen=True)
class ExtensionParams:
    """Shared shape of a domain extension: d-bit inputs, an underlying
    PRF from s bits to r bits, independence k, query budget q, and the
    polynomial hardness exponent c used by the adw variants."""

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
        if self.k < 2:
            raise ConfigurationError(f"independence k must be at least 2, got {self.k}")
        if self.q < 1:
            raise ConfigurationError("query budget q must be positive")
        if self.c < 1:
            raise ConfigurationError("hardness exponent c must be at least 1")


def check_widths(**bits: int):
    """Reject bit lengths outside 1..MAX_WIDTH, which no field width covers."""
    for name, value in bits.items():
        if not 1 <= value <= MAX_WIDTH:
            raise ConfigurationError(f"{name}={value} is outside 1..{MAX_WIDTH} bits")


def lazy_random_sampler(rng, domain_bits: int, range_bits: int) -> LazyRandomOracle:
    return LazyRandomOracle(rng.getrandbits(64), domain_bits, range_bits)


def _check_query_budget(q: int, s: int):
    if q > 1 << (s - 2):
        raise ConfigurationError(f"query budget q={q} exceeds 2^(s-2)={1 << (s - 2)}")


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

    def levin(self, h, f) -> LevinOracle:
        return LevinOracle(h, f)

    def pp(self, *slots) -> PPOracle:
        return PPOracle(PPKey(*slots))

    def adw(self, *slots) -> ADWOracle:
        return ADWOracle(ADWKey(*slots))


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
    underlying f1 and f2."""

    def layout(draws):
        h1 = draws.kwise(k, d, s, window)
        h2 = draws.kwise(k, d, s, window)
        g = draws.kwise(k, d, r)
        f1 = draws.prf(s, r)
        return draws.pp(h1, h2, g, f1, draws.prf(s, r))

    return layout


def pp_sampler(p: ExtensionParams) -> KeySampler:
    _check_query_budget(p.q, p.s)
    return KeySampler(pp_layout(p.d, p.s, p.r, p.k))


def build_pp_domain_extension(p: ExtensionParams, rng, f_sampler=None) -> PPOracle:
    """pp combiner over two fresh underlying PRFs: d-bit domain from
    s-bit domain at exactly two underlying calls per query."""
    return pp_sampler(p).layout(KeyDraws(rng, f_sampler))


def build_adaptive_from_nonadaptive(n: int, q: int, k: int, rng, f_sampler=None) -> PPOracle:
    """pp combiner with both hash ranges restricted to the first 4q
    strings of {0,1}^n, so the underlying PRFs are only ever evaluated
    inside that prefix; a nonadaptively secure f suffices there because
    the full query set is fixed in advance.
    """
    check_widths(n=n)
    if k < 2:
        raise ConfigurationError(f"independence k must be at least 2, got {k}")
    if q < 1 or q & (q - 1):
        raise ConfigurationError(f"query budget q={q} must be a power of two")
    if 4 * q > 1 << n:
        raise ConfigurationError(f"4q={4 * q} exceeds the domain of {n} bits")
    return pp_layout(n, n, n, k, window=4 * q)(KeyDraws(rng, f_sampler))


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
    _check_query_budget(p.q, p.s)
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
            gbar = tuple(draws.kwise(2, p.d, u) for _ in range(z))
            m1bar = tuple(draws.padded(draws.prf(p.s, p.r), u, p.s) for _ in range(z))
            m2bar = tuple(draws.padded(draws.prf(p.s, p.r), u, p.s) for _ in range(z))
            ybar = tuple(draws.padded(draws.prf(p.s, p.r), u, p.r) for _ in range(z))
        else:
            gbar = tuple(draws.kwise(2, p.d, 1) for _ in range(z))
            m1bar = tuple(draws.table(2, p.s, window) for _ in range(z))
            m2bar = tuple(draws.table(2, p.s, window) for _ in range(z))
            ybar = tuple(draws.table(2, p.r) for _ in range(z))
        f1 = draws.prf(p.s, p.r)
        return draws.adw(h1, h2, ell, gbar, m1bar, m2bar, ybar, f1, draws.prf(p.s, p.r))

    return layout


def build_adw_domain_extension(p: ExtensionParams, variant: str, rng, f_sampler=None) -> ADWOracle:
    """adw combiner over fresh inner maps and underlying PRFs; see adw_layout."""
    return adw_layout(p, variant)(KeyDraws(rng, f_sampler))


def build_adw_adaptive_from_nonadaptive(n: int, q: int, c: int, rng, f_sampler=None) -> ADWOracle:
    """Table-backed adw analogue of build_adaptive_from_nonadaptive.

    Hash ranges and m-table entries all live in the first 4q strings
    of {0,1}^n; XOR cannot leave that prefix (4q is a power of two),
    so underlying queries stay inside it.
    """
    check_widths(n=n)
    if q < 2 or q & (q - 1):
        raise ConfigurationError(f"query budget q={q} must be a power of two, at least 2")
    if 4 * q > 1 << n:
        raise ConfigurationError(f"4q={4 * q} exceeds the domain of {n} bits")
    if c < 1:
        raise ConfigurationError("hardness exponent c must be at least 1")
    p = ExtensionParams(d=n, s=n, r=n, k=2, q=q, c=c)
    return adw_layout(p, "table", window=4 * q)(KeyDraws(rng, f_sampler))


def build_prg_prf(prg: PrgSpec, m: int, n: int, k: int, q: int, rng) -> PPOracle:
    """PRF from a length-doubling generator: pp over two tree PRFs with
    hashed m-bit inputs. One query costs two tree walks, hence exactly
    2m generator calls. Requires q <= 2^(m-2).
    """
    if prg.seed_bits != n:
        raise ConfigurationError(f"prg seed of {prg.seed_bits} bits, output domain needs {n}")
    if k < 2:
        raise ConfigurationError(f"independence k must be at least 2, got {k}")
    if m < 2 or q > 1 << (m - 2):
        raise ConfigurationError(f"query budget q={q} exceeds 2^(m-2) for m={m}")

    def ggm_sampler(rng, domain_bits: int, range_bits: int) -> GgmOracle:
        return GgmOracle(GgmKey(rng.getrandbits(range_bits), domain_bits, prg))

    return pp_layout(n, m, n, k)(KeyDraws(rng, ggm_sampler))

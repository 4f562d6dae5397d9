"""Oracles: lazy-random functions, length-doubling generators, the GGM
tree, and the hash-then-query baseline.

An Oracle is a deterministic keyed function with explicit domain and
range lengths. Every oracle evaluates through eval_int on raw ints, as
do the generator and the tree walk; Oracle.query is the one public
face on bit strings, which checks the input length and wraps the
answer. Determinism is the load-bearing property: a distinguisher may
interleave queries in any order and must see one consistent function,
which the game harness relies on.

A lazy-random oracle is the experiment stand-in for a truly random
function. Answers are derived per query as

    answer(seed, x) = truncate(mix64(seed ^ mix64(x ^ C1)), range_bits)

so two oracles with equal seeds are pointwise equal and no table of
size 2^domain ever materializes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bits import C1, C2, MASK64, MIX1, MIX2, BitString, mix64, truncate
from .errors import ConfigurationError


class Oracle:
    """Base class: shape metadata, eval_int on raw values, and query.

    Subclasses implement eval_int(int) -> int, the one evaluation
    method, which the combiners call on every slot. query is the
    boundary on bit strings: it checks the input length, calls eval_int
    and wraps the answer.
    """

    def __init__(self, domain_bits: int, range_bits: int):
        if domain_bits < 0 or range_bits < 1:
            raise ValueError(f"bad oracle shape {domain_bits}->{range_bits}")
        self.domain_bits = domain_bits
        self.range_bits = range_bits

    def query(self, x: BitString) -> BitString:
        if x.length != self.domain_bits:
            raise ValueError(f"query length {x.length}, oracle domain is {self.domain_bits} bits")
        return BitString(self.eval_int(x.value), self.range_bits)

    def eval_int(self, x: int) -> int:
        raise NotImplementedError


def lazy_answer(seed: int, x_as_64: int, range_bits: int) -> int:
    """The raw derivation rule, truncate(mix64(seed ^ mix64(x ^ C1)),
    range_bits), with both mix64 rounds and the mask in this one frame.
    batch.lazy_answers is its numpy twin."""
    v = (x_as_64 ^ C1) & MASK64
    v ^= v >> 30
    v = (v * MIX1) & MASK64
    v ^= v >> 27
    v = (v * MIX2) & MASK64
    v = (seed ^ v ^ (v >> 31)) & MASK64
    v ^= v >> 30
    v = (v * MIX1) & MASK64
    v ^= v >> 27
    v = (v * MIX2) & MASK64
    return (v ^ (v >> 31)) & ((1 << range_bits) - 1)


class LazyRandomOracle(Oracle):
    def __init__(self, seed: int, domain_bits: int, range_bits: int):
        super().__init__(domain_bits, range_bits)
        if domain_bits > 64:
            raise ConfigurationError(f"lazy-random domain capped at 64 bits, got {domain_bits}")
        if range_bits > 64:
            raise ConfigurationError(f"lazy-random range capped at 64 bits, got {range_bits}")
        self.seed = seed & ((1 << 64) - 1)

    def eval_int(self, x: int) -> int:
        return lazy_answer(self.seed, x, self.range_bits)


class FunctionOracle(Oracle):
    """Wrap an arbitrary int -> int function as an oracle. The function
    must be pure."""

    def __init__(self, fn, domain_bits: int, range_bits: int):
        super().__init__(domain_bits, range_bits)
        self._fn = fn

    def eval_int(self, x: int) -> int:
        y = self._fn(x)
        if not 0 <= y < 1 << self.range_bits:
            raise ValueError(f"wrapped function returned {y:#x}, not a {self.range_bits}-bit value")
        return y


@dataclass(frozen=True)
class PrgSpec:
    """A length-doubling generator {0,1}^n -> {0,1}^2n.

    kind "stub-complement" returns s || complement(s): trivially not
    pseudorandom, but its transparent structure makes tree evaluations
    checkable by hand. kind "mix64" returns
    truncate(mix64(s ^ C1), n) || truncate(mix64(s ^ C2), n).
    """

    kind: str
    seed_bits: int

    def __post_init__(self):
        if self.kind not in ("stub-complement", "mix64"):
            raise ValueError(f"unknown prg kind {self.kind!r}")
        if self.seed_bits < 1:
            raise ValueError("seed_bits must be positive")
        if self.kind == "mix64" and self.seed_bits > 64:
            raise ConfigurationError("mix64 prg is limited to 64-bit seeds")


def prg_expand(spec: PrgSpec, s: int) -> int:
    """Expand an n-bit seed to the 2n-bit int whose high n bits are the
    left half."""
    n = spec.seed_bits
    if not 0 <= s < 1 << n:
        raise ValueError(f"seed {s:#x} does not fit in {n} bits")
    if spec.kind == "stub-complement":
        return (s << n) | (s ^ ((1 << n) - 1))
    return (truncate(mix64(s ^ C1), n) << n) | truncate(mix64(s ^ C2), n)


@dataclass(frozen=True)
class GgmKey:
    """Root seed and input length of a tree-expansion PRF.

    The value at input x is the leaf reached by walking x's bits
    left to right from the root seed: the seed at node w expands to
    the seeds of w||0 (left half) and w||1 (right half).
    """

    root_seed: int
    input_bits: int
    prg: PrgSpec

    def __post_init__(self):
        if not 0 <= self.root_seed < 1 << self.prg.seed_bits:
            raise ValueError(
                f"root seed {self.root_seed:#x} does not fit in {self.prg.seed_bits} bits"
            )
        if self.input_bits < 0:
            raise ValueError("input_bits must be nonnegative")


def ggm_eval(key: GgmKey, x: int, expand=None, on_node=None) -> int:
    """Evaluate the tree PRF at x with exactly input_bits expansions.

    The walk reads x's input_bits bits MSB-first, the leftmost bit at
    the root: a 0 bit keeps the left (high) half of the expansion, a 1
    bit the right (low) half.

    expand defaults to prg_expand; pass a wrapper to count calls.
    on_node(i, seed) is invoked with the intermediate seed after
    consuming i bits, i = 0..input_bits; useful for checking that
    inputs with a common prefix share the corresponding path.
    """
    m = key.input_bits
    if not 0 <= x < 1 << m:
        raise ValueError(f"input {x:#x} does not fit in {m} bits")
    if expand is None:
        expand = prg_expand
    n = key.prg.seed_bits
    seed = key.root_seed
    if on_node is not None:
        on_node(0, seed)
    for i in range(m):
        both = expand(key.prg, seed)
        seed = truncate(both, n) if (x >> (m - 1 - i)) & 1 else both >> n
        if on_node is not None:
            on_node(i + 1, seed)
    return seed


class GgmOracle(Oracle):
    def __init__(self, key: GgmKey):
        super().__init__(key.input_bits, key.prg.seed_bits)
        self.key = key
        self.prg_calls = 0

    def _counting_expand(self, spec: PrgSpec, s: int) -> int:
        self.prg_calls += 1
        return prg_expand(spec, s)

    def eval_int(self, x: int) -> int:
        return ggm_eval(self.key, x, expand=self._counting_expand)


class LevinOracle(Oracle):
    """Hash-then-query: f(h(x)). The domain-extension baseline that the
    birthday experiment breaks at roughly 2^(s/2) queries."""

    def __init__(self, h, f: Oracle):
        if h.range_bits != f.domain_bits:
            raise ValueError(
                f"hash range {h.range_bits} does not match oracle domain {f.domain_bits}"
            )
        super().__init__(h.domain_bits, f.range_bits)
        self.h = h
        self.f = f

    def eval_int(self, x: int) -> int:
        return self.f.eval_int(self.h.eval_int(x))

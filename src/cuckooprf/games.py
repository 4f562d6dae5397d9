"""Distinguisher games, advantage estimation, and statistical checks.

A game pits a distinguisher against two worlds: a "real" sampler (the
construction under test, freshly keyed per trial) and an "ideal"
sampler (lazy-random, or whatever the comparison object is). The
estimated advantage is |p_real - p_ideal| over independent trial sets;
reported stderr is the binomial error sqrt(pr(1-pr)/T + pi(1-pi)/T).

Everything is deterministic given the master seed: trial t of world w
(0 for real, 1 for ideal) keys its oracle from the counter-mode stream
game_streams(seed, w).stream(t), whose word j is
derive_seed(seed, GAME_TAG, w, t, j). The batched runner reads the same
words, so rerunning a game either way reproduces every per-trial
verdict.

Nonadaptive distinguishers commit to their query list at construction
time, so nonadaptivity is enforced by shape rather than by discipline.
Adaptive ones choose each query from the transcript so far. Either
way, queries pass through a guard that raises ProtocolViolation on
budget overrun, repeats, or out-of-domain inputs; a violated trial is
aborted, counted, and scored as a reject.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bits import BitString, KeyStreams, derive_seed
from .errors import ConfigurationError, ProtocolViolation
from .prfcore import LazyRandomOracle, Oracle

REAL_WORLD = 0
IDEAL_WORLD = 1

_GAME_TAG = 0x47414D45
_SAMPLE_TAG = 0x53414D50
_BASELINE_TAG = 0x42415345


@dataclass(frozen=True)
class GameResult:
    p_real: float
    p_ideal: float
    advantage: float
    stderr: float
    trials: int
    seed: int
    violations: int
    real_verdicts: tuple[bool, ...]
    ideal_verdicts: tuple[bool, ...]

    @classmethod
    def from_verdicts(cls, real, ideal, seed: int, violations: int = 0) -> GameResult:
        """The result of equally many real and ideal per-trial verdicts."""
        trials = len(real)
        p_real = sum(real) / trials
        p_ideal = sum(ideal) / trials
        return cls(
            p_real=p_real,
            p_ideal=p_ideal,
            advantage=abs(p_real - p_ideal),
            stderr=math.sqrt(p_real * (1 - p_real) / trials + p_ideal * (1 - p_ideal) / trials),
            trials=trials,
            seed=seed,
            violations=violations,
            real_verdicts=tuple(real),
            ideal_verdicts=tuple(ideal),
        )


def game_streams(seed: int, world: int) -> KeyStreams:
    """The key streams of a game's trials in one world, one per trial."""
    return KeyStreams(seed, _GAME_TAG, world)


def sample_streams(seed: int) -> KeyStreams:
    """The key streams of the uniformity estimator, one per sample."""
    return KeyStreams(seed, _SAMPLE_TAG)


class QueryGuard:
    def __init__(self, oracle: Oracle, budget: int, allow_repeats: bool):
        self.oracle = oracle
        self.budget = budget
        self.allow_repeats = allow_repeats
        self.count = 0
        self.seen: set[int] = set()

    def __call__(self, x: BitString) -> BitString:
        if x.length != self.oracle.domain_bits:
            raise ProtocolViolation(
                f"query of {x.length} bits against a {self.oracle.domain_bits}-bit domain"
            )
        if self.count >= self.budget:
            raise ProtocolViolation(f"query budget {self.budget} exceeded")
        if not self.allow_repeats:
            if x.value in self.seen:
                raise ProtocolViolation(f"repeated query {x.to01()}")
            self.seen.add(x.value)
        self.count += 1
        return self.oracle.query(x)


class Distinguisher:
    """Base: a budget, an optional per-trial reset, and a run method."""

    budget: int
    allow_repeats: bool = False

    def reset(self, rng):
        pass

    def run(self, query) -> bool:
        raise NotImplementedError


class NonAdaptiveDistinguisher(Distinguisher):
    """Query list fixed up front; decide sees the aligned answer list."""

    def __init__(self, queries, decide, allow_repeats: bool = False, decide_batch=None):
        self.queries = tuple(queries)
        if not self.queries:
            raise ValueError("empty query list")
        lengths = {x.length for x in self.queries}
        if len(lengths) != 1:
            raise ValueError("queries must share one length")
        if not allow_repeats and len({x.value for x in self.queries}) != len(self.queries):
            raise ValueError("repeated queries (pass allow_repeats to permit)")
        self.decide = decide
        self.decide_batch = decide_batch
        self.allow_repeats = allow_repeats
        self.budget = len(self.queries)

    def run(self, query) -> bool:
        return bool(self.decide([query(x) for x in self.queries]))


class AdaptiveDistinguisher(Distinguisher):
    """next_query(transcript) -> BitString | None; decide(transcript) -> bool.

    The transcript is the list of (query, answer) pairs so far. Return
    None from next_query to stop early.
    """

    def __init__(self, budget: int, next_query, decide, reset=None, allow_repeats: bool = False):
        if budget < 1:
            raise ValueError("budget must be positive")
        self.budget = budget
        self._next_query = next_query
        self.decide = decide
        self._reset = reset
        self.allow_repeats = allow_repeats

    def reset(self, rng):
        if self._reset is not None:
            self._reset(rng)

    def run(self, query) -> bool:
        transcript: list[tuple[BitString, BitString]] = []
        while len(transcript) < self.budget:
            x = self._next_query(transcript)
            if x is None:
                break
            transcript.append((x, query(x)))
        return bool(self.decide(transcript))


def run_game(real_sampler, ideal_sampler, dist: Distinguisher, trials: int, seed: int) -> GameResult:
    """Estimate the distinguisher's advantage between two samplers.

    Samplers are callables rng -> Oracle, invoked once per trial with
    the trial's key stream. Trial sets of the two worlds are independent.
    """
    if trials < 1:
        raise ConfigurationError("trials must be positive")
    verdicts: dict[int, list[bool]] = {REAL_WORLD: [], IDEAL_WORLD: []}
    violations = 0
    for world, sampler in ((REAL_WORLD, real_sampler), (IDEAL_WORLD, ideal_sampler)):
        streams = game_streams(seed, world)
        for t in range(trials):
            rng = streams.stream(t)
            oracle = sampler(rng)
            dist.reset(rng)
            guard = QueryGuard(oracle, dist.budget, dist.allow_repeats)
            try:
                verdict = bool(dist.run(guard))
            except ProtocolViolation:
                violations += 1
                verdict = False
            verdicts[world].append(verdict)
    return GameResult.from_verdicts(verdicts[REAL_WORLD], verdicts[IDEAL_WORLD], seed, violations)


# birthday attack

def birthday_distinguisher(q: int, domain_bits: int) -> NonAdaptiveDistinguisher:
    """Fixed distinct queries 0..q-1; accept on any output collision."""
    if q < 2:
        raise ConfigurationError("birthday attack needs at least two queries")
    if q > 1 << domain_bits:
        raise ConfigurationError(f"q={q} distinct queries do not fit in {domain_bits} bits")
    queries = tuple(BitString(i, domain_bits) for i in range(q))

    def decide(answers):
        return len({a.value for a in answers}) < len(answers)

    def decide_batch(values: np.ndarray) -> np.ndarray:
        ordered = np.sort(values, axis=1)
        return (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)

    return NonAdaptiveDistinguisher(queries, decide, decide_batch=decide_batch)


def birthday_closed_form(q: int, bits: int) -> float:
    """Collision probability of q uniform draws from 2^bits values."""
    return 1.0 - math.exp(-q * (q - 1) / 2.0 ** (bits + 1))


# random involutions

@functools.cache
def _involution_ratios(size: int) -> tuple[float, ...]:
    # ratios[k] = I(k-1)/I(k) via I(k) = I(k-1) + (k-1) I(k-2); computed
    # once per size, not once per sampled involution
    ratios = [0.0, 1.0]
    for k in range(2, size + 1):
        ratios.append(1.0 / (1.0 + (k - 1) * ratios[k - 1]))
    return tuple(ratios)


def expected_fixed_points(size: int) -> float:
    """Mean number of fixed points of a uniform involution on `size` points."""
    return size * _involution_ratios(size)[size]


def sample_involution(n: int, rng) -> list[int]:
    """Uniform random involution on {0,1}^n as a lookup table.

    Processes points one at a time: the current point is fixed with
    probability I(k-1)/I(k) and otherwise paired with a uniform
    remaining partner, which yields the uniform distribution over all
    involutions.
    """
    if n > 16:
        raise ConfigurationError(f"involution sampling capped at n=16, got {n}")
    size = 1 << n
    ratios = _involution_ratios(size)
    table = [0] * size
    remaining = list(range(size))
    while remaining:
        k = len(remaining)
        a = remaining.pop()
        if k == 1 or rng.random() < ratios[k]:
            table[a] = a
        else:
            idx = rng.randrange(k - 1)
            b = remaining[idx]
            remaining[idx] = remaining[-1]
            remaining.pop()
            table[a] = b
            table[b] = a
    return table


class InvolutionOracle(Oracle):
    def __init__(self, table: list[int], n: int):
        super().__init__(n, n, "involution")
        if len(table) != 1 << n:
            raise ValueError(f"table of {len(table)} entries for n={n}")
        self.table = table

    def _answer(self, x: BitString) -> BitString:
        return BitString(self.table[x.value], self.range_bits)


def involution_distinguisher(n: int) -> AdaptiveDistinguisher:
    """Two adaptive queries: walk 0 -> f(0) -> f(f(0)) and accept iff the
    walk returns to 0, which an involution always does."""
    zero = BitString(0, n)

    def next_query(transcript):
        if not transcript:
            return zero
        if len(transcript) == 1 and transcript[0][1] != zero:
            return transcript[0][1]
        return None

    def decide(transcript):
        if transcript[0][1] == zero:
            return True
        return len(transcript) > 1 and transcript[1][1] == zero

    return AdaptiveDistinguisher(2, next_query, decide)


def involution_nonadaptive_distinguisher(n: int) -> NonAdaptiveDistinguisher:
    """The fixed 2-query collision check, the nonadaptive analogue that
    fails: it accepts iff two fixed points collide, which a permutation
    never produces and a random function almost never does."""
    queries = (BitString(0, n), BitString(1, n))
    return NonAdaptiveDistinguisher(queries, lambda ans: ans[0] == ans[1])


def involution_samplers(n: int):
    real = lambda rng: InvolutionOracle(sample_involution(n, rng), n)
    ideal = lambda rng: LazyRandomOracle(rng.getrandbits(64), n, n)
    return real, ideal


def involution_game(n: int, trials: int, seed: int) -> GameResult:
    real, ideal = involution_samplers(n)
    return run_game(real, ideal, involution_distinguisher(n), trials, seed)


# statistical distance

def exact_sd(p: dict, q: dict) -> float:
    """Exact statistical distance of two distributions on one support."""
    if set(p) != set(q):
        raise ValueError("supports differ")
    return 0.5 * sum(abs(p[u] - q[u]) for u in p)


@dataclass(frozen=True)
class UniformityResult:
    sd_estimate: float
    baseline_sd: float
    support: int
    samples: int


def _sd_from_codes(codes: np.ndarray, support: int, samples: int) -> float:
    counts = np.bincount(codes, minlength=support)
    return float(0.5 * np.abs(counts / samples - 1.0 / support).sum())


class UniformTupleSampler:
    """Reference sampler whose batch route is the baseline generator
    itself, so its estimated distance equals the baseline exactly."""

    def __init__(self, range_bits: int):
        self.range_bits = range_bits

    def batch_tuples(self, queries, samples: int, seed: int) -> np.ndarray:
        support = 1 << (self.range_bits * len(queries))
        gen = np.random.Generator(np.random.PCG64(derive_seed(seed, _BASELINE_TAG)))
        return gen.integers(0, support, size=samples, dtype=np.int64)


def tuple_uniformity_sd(handle_sampler, queries, samples: int, seed: int) -> UniformityResult:
    """Plug-in statistical distance of the joint output tuple from uniform.

    Each sample keys a fresh handle via handle_sampler and evaluates it
    on the fixed distinct queries; the t outputs are packed into one
    code (first query most significant). The same estimator applied to
    truly uniform codes gives baseline_sd, the estimator's own bias at
    this support and sample count, which is the meaningful comparison
    point because the plug-in estimate is biased upward.

    handle_sampler is a callable rng -> oracle, called on sample i's
    stream sample_streams(seed).stream(i); if it also provides
    batch_tuples(queries, samples, seed) -> codes, that route is used
    instead of the per-sample loop and must agree with it pointwise.
    """
    queries = tuple(queries)
    if not queries:
        raise ValueError("empty query list")
    if len({x.value for x in queries}) != len(queries):
        raise ValueError("queries must be distinct")

    streams = sample_streams(seed)
    r = getattr(handle_sampler, "range_bits", None)
    if r is None:
        probe = handle_sampler(streams.stream(0))
        r = probe.range_bits
    t = len(queries)
    if r * t > 16:
        raise ConfigurationError(f"support of 2^{r * t} cells exceeds the 2^16 cap")
    support = 1 << (r * t)
    if samples < 1000 * support:
        raise ConfigurationError(
            f"{samples} samples below the floor of 1000 per cell ({1000 * support})"
        )

    if hasattr(handle_sampler, "batch_tuples"):
        codes = np.asarray(handle_sampler.batch_tuples(queries, samples, seed))
    else:
        codes = np.empty(samples, dtype=np.int64)
        for i in range(samples):
            handle = handle_sampler(streams.stream(i))
            code = 0
            for x in queries:
                code = (code << r) | handle.query(x).value
            codes[i] = code

    sd_estimate = _sd_from_codes(codes, support, samples)
    gen = np.random.Generator(np.random.PCG64(derive_seed(seed, _BASELINE_TAG)))
    uniform_codes = gen.integers(0, support, size=samples, dtype=np.int64)
    baseline_sd = _sd_from_codes(uniform_codes, support, samples)
    return UniformityResult(sd_estimate, baseline_sd, support, samples)


# many-oracle to single-oracle hybrid

class MultiOracleNonAdaptiveDistinguisher:
    """Nonadaptive distinguisher against s oracles of one shape.

    queries is a sequence of (oracle_index, input) pairs; decide sees
    the answers aligned with it. Queries to any single oracle must be
    distinct.
    """

    def __init__(self, s: int, queries, decide, domain_bits: int, range_bits: int):
        if s < 1:
            raise ValueError("need at least one oracle")
        self.s = s
        self.queries = tuple(queries)
        self.decide = decide
        self.domain_bits = domain_bits
        self.range_bits = range_bits
        per: dict[int, set[int]] = {}
        for idx, x in self.queries:
            if not 0 <= idx < s:
                raise ValueError(f"oracle index {idx} out of range")
            if x.length != domain_bits:
                raise ValueError("query length mismatch")
            seen = per.setdefault(idx, set())
            if x.value in seen:
                raise ValueError(f"repeated query to oracle {idx}")
            seen.add(x.value)


class _HybridWrapped(NonAdaptiveDistinguisher):
    def __init__(self, multi, j: int, family_sampler, ideal_sampler):
        self.multi = multi
        self.j = j
        self.family_sampler = family_sampler
        self.ideal_sampler = ideal_sampler
        self._aux: dict[int, Oracle] = {}
        challenge_queries = tuple(x for idx, x in multi.queries if idx == j)
        if not challenge_queries:
            challenge_queries = (BitString(0, multi.domain_bits),)
            self._challenge_used = False
        else:
            self._challenge_used = True
        super().__init__(challenge_queries, decide=None)

    def reset(self, rng):
        self._aux = {}
        for i in range(self.multi.s):
            if i == self.j:
                continue
            sampler = self.ideal_sampler if i < self.j else self.family_sampler
            self._aux[i] = sampler(rng)

    def run(self, query) -> bool:
        challenge_answers = {}
        if self._challenge_used:
            for x in self.queries:
                challenge_answers[x.value] = query(x)
        answers = []
        for idx, x in self.multi.queries:
            if idx == self.j:
                answers.append(challenge_answers[x.value])
            else:
                answers.append(self._aux[idx].query(x))
        return bool(self.multi.decide(answers))


def hybrid_wrap(multi: MultiOracleNonAdaptiveDistinguisher, j: int, family_sampler,
                ideal_sampler=None) -> Distinguisher:
    """Single-oracle distinguisher: slot j is the challenge, slots below
    j are fresh ideal samples, slots above are fresh family samples.
    Averaged over j, the wrapped advantage is at least 1/s of the
    multi-oracle advantage."""
    if not 0 <= j < multi.s:
        raise ValueError(f"slot {j} out of range for {multi.s} oracles")
    if ideal_sampler is None:
        ideal_sampler = lambda rng: LazyRandomOracle(
            rng.getrandbits(64), multi.domain_bits, multi.range_bits
        )
    return _HybridWrapped(multi, j, family_sampler, ideal_sampler)


def run_multi_game(family_sampler, ideal_sampler,
                   multi: MultiOracleNonAdaptiveDistinguisher,
                   trials: int, seed: int) -> GameResult:
    """Direct advantage of a multi-oracle distinguisher: all s oracles
    family-sampled versus all s ideal-sampled."""
    if trials < 1:
        raise ConfigurationError("trials must be positive")
    verdicts: dict[int, list[bool]] = {REAL_WORLD: [], IDEAL_WORLD: []}
    for world, sampler in ((REAL_WORLD, family_sampler), (IDEAL_WORLD, ideal_sampler)):
        streams = game_streams(seed, world)
        for t in range(trials):
            rng = streams.stream(t)
            oracles = [sampler(rng) for _ in range(multi.s)]
            answers = [oracles[idx].query(x) for idx, x in multi.queries]
            verdicts[world].append(bool(multi.decide(answers)))
    return GameResult.from_verdicts(verdicts[REAL_WORLD], verdicts[IDEAL_WORLD], seed)

"""Distinguisher games, advantage estimation, and statistical checks.

A game pits a distinguisher against two worlds: a "real" sampler (the
construction under test, freshly keyed per trial) and an "ideal"
sampler (lazy-random, or whatever the comparison object is). The
estimated advantage is |p_real - p_ideal| over independent trial sets;
reported stderr is the binomial error sqrt(pr(1-pr)/T + pi(1-pi)/T).

Everything is deterministic given the master seed: trial t of world w
(0 for real, 1 for ideal) keys its oracle from the counter-mode stream
game_streams(seed, w).stream(t), whose word j is
derive_seed(seed, GAME_TAG, w, t, j).

Nonadaptive distinguishers commit to their query list at construction
time, so nonadaptivity is enforced by shape rather than by discipline.
Their one rule, decide, maps a (trials, q) uint64 matrix of answers to
one value per row: a verdict, accepting when nonzero, or, for the
uniformity estimator, the row's output-tuple code. Adaptive ones choose
each query from the transcript so far. Queries asked one at a time pass
through a guard that raises ProtocolViolation on budget overrun,
repeats, or out-of-domain inputs; a violated trial is aborted, counted,
and valued 0, a reject.

One walker (_walk) plays every block of rows, the trials of a world of
run_game, the one game runner, and the samples of tuple_uniformity_sd.
It walks them in blocks (batch.blocks) through one batch.Workspace,
reset before every block. When a nonadaptive distinguisher meets a
sampler with a numpy twin of its queries' domain (a
transform.KeySampler), each block's keys are drawn by the twin
(batch.block_keys) into that workspace, answered there by
batch.batch_answers and decided as one matrix. Every other block (of an
adaptive distinguisher, or of a sampler without that twin) is played by
the per-trial loop, the reference path, which decides a nonadaptive
trial on its one-row matrix. Both read the same words, so either way
every row's value is the same. Each block's values are used before the
next block is drawn: run_game counts the nonzero ones per world, and
tuple_uniformity_sd counts the codes per cell.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import batch
from .bits import BitString, KeyStreams, stream_words
from .errors import ConfigurationError, ProtocolViolation
from .prfcore import Oracle
from .transform import lazy_sampler

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

    @classmethod
    def from_counts(cls, real_accepts: int, ideal_accepts: int, trials: int, seed: int,
                    violations: int = 0) -> GameResult:
        """The result of `trials` trials per world, of which real_accepts
        and ideal_accepts were accepted."""
        p_real = real_accepts / trials
        p_ideal = ideal_accepts / trials
        return cls(
            p_real=p_real,
            p_ideal=p_ideal,
            advantage=abs(p_real - p_ideal),
            stderr=math.sqrt(p_real * (1 - p_real) / trials + p_ideal * (1 - p_ideal) / trials),
            trials=trials,
            seed=seed,
            violations=violations,
        )


def game_streams(seed: int, world: int) -> KeyStreams:
    """The key streams of a game's trials in one world, one per trial."""
    return KeyStreams(seed, _GAME_TAG, world)


def sample_streams(seed: int) -> KeyStreams:
    """The key streams of the uniformity estimator, one per sample."""
    return KeyStreams(seed, _SAMPLE_TAG)


class QueryGuard:
    def __init__(self, oracle: Oracle, budget: int):
        self.oracle = oracle
        self.budget = budget
        self.seen: set[int] = set()

    def __call__(self, x: BitString) -> BitString:
        if x.length != self.oracle.domain_bits:
            raise ProtocolViolation(
                f"query of {x.length} bits against a {self.oracle.domain_bits}-bit domain"
            )
        if len(self.seen) >= self.budget:
            raise ProtocolViolation(f"query budget {self.budget} exceeded")
        if x.value in self.seen:
            raise ProtocolViolation(f"repeated query {x.to01()}")
        self.seen.add(x.value)
        return self.oracle.query(x)


class Distinguisher:
    """Base: a query budget and run(query), the trial's value, nonzero
    to accept, which the per-trial loop calls once per trial with the
    trial's guarded oracle."""

    budget: int

    def run(self, query):
        raise NotImplementedError


class NonAdaptiveDistinguisher(Distinguisher):
    """Query list fixed up front; decide maps a (trials, q) uint64 matrix,
    column j holding the answers to query j, to one value per row, which
    run_game counts as a verdict and tuple_uniformity_sd as a code."""

    def __init__(self, queries, decide):
        self.queries = tuple(queries)
        if not self.queries:
            raise ValueError("empty query list")
        lengths = {x.length for x in self.queries}
        if len(lengths) != 1:
            raise ValueError("queries must share one length")
        if len({x.value for x in self.queries}) != len(self.queries):
            raise ValueError("repeated queries")
        self.decide = decide
        self.budget = len(self.queries)

    def run(self, query):
        """decide's value for the trial's one row of answers."""
        answers = np.array([[query(x).value for x in self.queries]], dtype=np.uint64)
        return self.decide(answers)[0]


class AdaptiveDistinguisher(Distinguisher):
    """next_query(transcript) -> BitString | None; decide(transcript) -> bool.

    The transcript is the list of (query, answer) pairs so far. Return
    None from next_query to stop early.
    """

    def __init__(self, budget: int, next_query, decide):
        if budget < 1:
            raise ValueError("budget must be positive")
        self.budget = budget
        self._next_query = next_query
        self.decide = decide

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
    the trial's key stream, except that a NonAdaptiveDistinguisher facing
    a transform.KeySampler of its queries' domain has each block of trials
    sampled by the sampler's numpy twin and decided as one answer matrix.
    A trial is accepted when its value is nonzero. Trial sets of the two
    worlds are independent.
    """
    if trials < 1:
        raise ConfigurationError("trials must be positive")
    accepts, violations = [0, 0], 0
    for world, sampler in ((REAL_WORLD, real_sampler), (IDEAL_WORLD, ideal_sampler)):
        for values, bad in _walk(sampler, game_streams(seed, world), trials, dist):
            accepts[world] += int(np.count_nonzero(values))
            violations += bad
    return GameResult.from_counts(*accepts, trials, seed, violations)


def _walk(sampler, streams: KeyStreams, rows: int, dist: Distinguisher):
    """Yield (values, violations) for each block of rows: the
    distinguisher's value per row, decide's for a nonadaptive one and
    run's otherwise, and the block's protocol violations, each valued 0.
    One workspace serves every block, reset before each, since one
    sampler draws keys of one shape; a twin's values may be views of it,
    so the caller uses them before it asks for the next block."""
    twin = isinstance(dist, NonAdaptiveDistinguisher)
    ws = batch.Workspace()
    for block in batch.blocks(rows, len(dist.queries) if twin else 1):
        ws.reset()
        yield (twin and _twin_values(sampler, streams, block, dist, ws)
               or _trial_values(sampler, streams, block, dist))


def _twin_values(sampler, streams: KeyStreams, block: range, dist: NonAdaptiveDistinguisher,
                 ws: batch.Workspace) -> tuple | None:
    """(decide's values on the block's answer matrix, 0), or None if the
    sampler has no numpy twin for these queries. A function of its own,
    so that a block's keys are gone before the next block is drawn."""
    keys = batch.block_keys(sampler, streams, block, dist.queries[0].length, ws)
    return None if keys is None else (dist.decide(batch.batch_answers(keys, dist.queries)), 0)


def _trial_values(sampler, streams: KeyStreams, block: range,
                  dist: Distinguisher) -> tuple[list, int]:
    """The block's values and protocol violations, one trial at a time."""
    values, violations = [], 0
    for t in block:
        guard = QueryGuard(sampler(streams.stream(t)), dist.budget)
        try:
            values.append(dist.run(guard))
        except ProtocolViolation:
            violations += 1
            values.append(0)
    return values, violations


# birthday attack

def birthday_distinguisher(q: int, domain_bits: int) -> NonAdaptiveDistinguisher:
    """Fixed distinct queries 0..q-1; accept on any output collision."""
    if q < 2:
        raise ConfigurationError("birthday attack needs at least two queries")
    if q > 1 << domain_bits:
        raise ConfigurationError(f"q={q} distinct queries do not fit in {domain_bits} bits")
    queries = tuple(BitString(i, domain_bits) for i in range(q))

    def decide(values: np.ndarray) -> np.ndarray:
        ordered = np.sort(values, axis=1)
        return (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)

    return NonAdaptiveDistinguisher(queries, decide)


# random involutions

@functools.cache
def _involution_ratios(size: int) -> tuple[float, ...]:
    # ratios[k] = I(k-1)/I(k) via I(k) = I(k-1) + (k-1) I(k-2); computed
    # once per size, not once per oracle
    ratios = [0.0, 1.0]
    for k in range(2, size + 1):
        ratios.append(1.0 / (1.0 + (k - 1) * ratios[k - 1]))
    return tuple(ratios)


class InvolutionOracle(Oracle):
    """A uniform random involution on {0,1}^n, revealed on demand.

    Only the points asked so far, and their partners, are held. With k
    points still unrevealed, an unseen x is fixed with probability
    I(k-1)/I(k), where I(k) counts the involutions on k points, and
    otherwise paired with a uniform unrevealed partner, found by redrawing
    n-bit words. That is the sequential sampler run in the order points
    are first asked, so every order gives a uniform involution.

    Answers are consistent within one instance. Which involution an
    instance is depends on its stream and on the order in which points
    are first asked.
    """

    def __init__(self, n: int, rng):
        # the ratio table still has 2^n + 1 entries
        if n > 16:
            raise ConfigurationError(f"involution sampling capped at n=16, got {n}")
        super().__init__(n, n)
        self._rng = rng
        self._ratios = _involution_ratios(1 << n)
        self._revealed: dict[int, int] = {}

    def eval_int(self, x: int) -> int:
        revealed = self._revealed
        if x in revealed:
            return revealed[x]
        unrevealed = (1 << self.domain_bits) - len(revealed)
        if self._rng.random() < self._ratios[unrevealed]:
            revealed[x] = x
            return x
        b = x
        while b == x or b in revealed:
            b = self._rng.getrandbits(self.domain_bits)
        revealed[x] = b
        revealed[b] = x
        return b


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
    return NonAdaptiveDistinguisher(queries, lambda values: values[:, 0] == values[:, 1])


def involution_samplers(n: int):
    return (lambda rng: InvolutionOracle(n, rng)), lazy_sampler(n, n)


# statistical distance

@dataclass(frozen=True)
class UniformityResult:
    sd_estimate: float
    baseline_sd: float
    support: int
    samples: int


def _sd_from_counts(counts: np.ndarray, samples: int) -> float:
    return float(0.5 * np.abs(counts / samples - 1.0 / len(counts)).sum())


def _pack(outs: np.ndarray, r: int) -> np.ndarray:
    """Each row of r-bit answers as one code, the first answer most
    significant: the rule of the estimator's distinguisher."""
    codes = np.zeros(len(outs), dtype=np.uint64)
    for column in outs.T:
        codes <<= np.uint64(r)
        codes |= column
    return codes.view(np.int64)  # below 2^16 (the support cap), as bincount takes them


def _baseline_codes(head: np.ndarray, words: range, support: int) -> np.ndarray:
    """Words `words` of the stream with head `head`, each cut to its low
    log2(support) bits: codes exactly uniform on a power-of-two support."""
    codes = stream_words(head, words)[0]
    codes &= np.uint64(support - 1)
    return codes.view(np.int64)  # below 2^16, as bincount takes them


def tuple_uniformity_sd(handle_sampler, queries, samples: int, seed: int) -> UniformityResult:
    """Plug-in statistical distance of the joint output tuple from uniform.

    Each sample keys a fresh handle via handle_sampler and evaluates it
    on the fixed distinct queries; the t outputs are packed into one
    code (first query most significant). The same estimator applied to
    truly uniform codes gives baseline_sd, the estimator's own bias at
    this support and sample count, which is the meaningful comparison
    point because the plug-in estimate is biased upward. Uniform code i
    is the low r·t bits of word i of key_stream(seed, _BASELINE_TAG),
    that is of derive_seed(seed, _BASELINE_TAG, i); the support is a
    power of two, so the codes are exactly uniform.

    handle_sampler is a callable rng -> oracle, called on sample i's
    stream sample_streams(seed).stream(i); sample 0's handle gives the
    range. The samples are walked as run_game walks a world's trials,
    by a NonAdaptiveDistinguisher whose rule packs each row of answers
    into its code, so a transform.KeySampler is sampled by its numpy
    twin and any other sampler's handles are queried one at a time, with
    the same codes either way. A handle that does not take the queries
    raises ValueError.
    """
    streams = sample_streams(seed)
    r = handle_sampler(streams.stream(0)).range_bits
    dist = NonAdaptiveDistinguisher(queries, functools.partial(_pack, r=r))
    t = dist.budget
    if r * t > 16:
        raise ConfigurationError(f"support of 2^{r * t} cells exceeds the 2^16 cap")
    support = 1 << (r * t)
    if samples < 1000 * support:
        raise ConfigurationError(
            f"{samples} samples below the floor of 1000 per cell ({1000 * support})"
        )

    # only the cell counts outlive a block; the baseline reads its stream
    # block by block, each block the words after the last one's
    counts, uniform = np.zeros(support, dtype=np.int64), np.zeros(support, dtype=np.int64)
    head = KeyStreams(seed).heads(range(_BASELINE_TAG, _BASELINE_TAG + 1))
    drawn = 0
    for codes, bad in _walk(handle_sampler, streams, samples, dist):
        if bad:
            raise ValueError("the queries must be inputs of every handle's domain")
        counts += np.bincount(codes, minlength=support)
        baseline = _baseline_codes(head, range(drawn, drawn + len(codes)), support)
        uniform += np.bincount(baseline, minlength=support)
        drawn += len(codes)
    return UniformityResult(_sd_from_counts(counts, samples), _sd_from_counts(uniform, samples),
                            support, samples)

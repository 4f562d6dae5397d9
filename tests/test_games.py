import gc
import itertools
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from cuckooprf import batch, games
from cuckooprf.bits import BitString, key_stream
from cuckooprf.errors import ConfigurationError
from cuckooprf.games import (
    AdaptiveDistinguisher,
    Distinguisher,
    InvolutionOracle,
    NonAdaptiveDistinguisher,
    QueryGuard,
    _involution_ratios,
    birthday_distinguisher,
    game_streams,
    involution_distinguisher,
    involution_nonadaptive_distinguisher,
    involution_samplers,
    run_game,
    tuple_uniformity_sd,
)
from cuckooprf.prfcore import LazyRandomOracle
from cuckooprf.transform import ExtensionParams, KeySampler, lazy_sampler, pp_layout, pp_sampler

from closedforms import birthday_closed_form, expected_fixed_points, involution_count
from spies import FunctionOracle


def _lazy_sampler(d, r):
    return lambda rng: LazyRandomOracle(rng.getrandbits(64), d, r)


def test_constant_distinguisher_has_zero_advantage():
    dist = NonAdaptiveDistinguisher([BitString(0, 8)], lambda values: values[:, 0] >= 0)
    res = run_game(_lazy_sampler(8, 8), _lazy_sampler(8, 8), dist, 50, 600)
    assert res.p_real == 1.0
    assert res.p_ideal == 1.0
    assert res.advantage == 0.0
    assert res.stderr == 0.0
    assert res.violations == 0


def test_run_game_validation_and_bookkeeping():
    dist = birthday_distinguisher(8, 8)
    with pytest.raises(ConfigurationError):
        run_game(_lazy_sampler(8, 4), _lazy_sampler(8, 4), dist, 0, 1)
    res = run_game(_lazy_sampler(8, 4), _lazy_sampler(8, 4), dist, 40, 601)
    assert res.trials == 40 and res.seed == 601
    # the reported rates are plain means of 40 verdicts
    assert (res.p_real * 40).is_integer() and (res.p_ideal * 40).is_integer()
    assert res.advantage == abs(res.p_real - res.p_ideal)
    want = math.sqrt(
        res.p_real * (1 - res.p_real) / 40 + res.p_ideal * (1 - res.p_ideal) / 40
    )
    assert abs(res.stderr - want) < 1e-15


def test_run_game_is_deterministic():
    dist = birthday_distinguisher(16, 6)
    a = run_game(_lazy_sampler(10, 6), _lazy_sampler(10, 6), dist, 60, 602)
    b = run_game(_lazy_sampler(10, 6), _lazy_sampler(10, 6), dist, 60, 602)
    assert a == b


def test_identical_samplers_show_only_noise():
    dist = birthday_distinguisher(32, 10)
    res = run_game(_lazy_sampler(10, 10), _lazy_sampler(10, 10), dist, 400, 603)
    assert res.advantage <= 3 * res.stderr + 1e-12


def test_repeated_query_is_a_violation():
    x = BitString(3, 8)
    dist = AdaptiveDistinguisher(
        2,
        lambda tr: x,  # asks the same input twice
        lambda tr: True,
    )
    res = run_game(_lazy_sampler(8, 8), _lazy_sampler(8, 8), dist, 10, 604)
    assert res.violations == 20
    assert res.p_real == 0.0 and res.p_ideal == 0.0


def test_budget_overrun_is_a_violation():
    class Greedy(Distinguisher):
        budget = 2

        def run(self, query):
            for v in range(5):
                query(BitString(v, 8))
            return True

    res = run_game(_lazy_sampler(8, 8), _lazy_sampler(8, 8), Greedy(), 5, 605)
    assert res.violations == 10
    assert res.p_real == 0.0


def test_wrong_length_query_is_a_violation():
    dist = AdaptiveDistinguisher(2, lambda tr: BitString(0, 4), lambda tr: True)
    res = run_game(_lazy_sampler(8, 8), _lazy_sampler(8, 8), dist, 3, 606)
    assert res.violations == 6


def test_nonadaptive_constructor_validation():
    with pytest.raises(ValueError):
        NonAdaptiveDistinguisher([], lambda ans: True)
    with pytest.raises(ValueError):
        NonAdaptiveDistinguisher([BitString(0, 4), BitString(0, 5)], lambda ans: True)
    with pytest.raises(ValueError):
        NonAdaptiveDistinguisher([BitString(0, 4), BitString(0, 4)], lambda ans: True)
    with pytest.raises(ValueError):
        AdaptiveDistinguisher(0, lambda tr: None, lambda tr: True)


def test_birthday_distinguisher_validation():
    with pytest.raises(ConfigurationError):
        birthday_distinguisher(1, 8)
    with pytest.raises(ConfigurationError):
        birthday_distinguisher(300, 8)


def test_birthday_closed_form_values():
    assert birthday_closed_form(2, 8) == pytest.approx(1 - math.exp(-1 / 256))
    assert birthday_closed_form(128, 12) == pytest.approx(0.8625, abs=5e-4)
    assert birthday_closed_form(2, 64) < 1e-18


def test_birthday_simulation_tracks_closed_form():
    # uniform answers: count collision trials directly against the formula
    trials = 400
    for q, bits, seed in ((32, 10, 608), (64, 12, 609), (128, 12, 610)):
        hits = 0
        rng = random.Random(seed)
        for _ in range(trials):
            o = LazyRandomOracle(rng.getrandbits(64), 16, bits)
            outs = {o.query(BitString(i, 16)).value for i in range(q)}
            hits += len(outs) < q
        p_hat = hits / trials
        p = birthday_closed_form(q, bits)
        assert abs(p_hat - p) <= 3.5 * math.sqrt(p * (1 - p) / trials)


def test_birthday_decide_and_decide_batch_agree():
    # one rule, on a block and one row at a time, against a set per row
    dist = birthday_distinguisher(8, 6)
    rng = random.Random(611)
    rows = [[rng.getrandbits(4) for _ in range(8)] for _ in range(200)]
    reference = [len(set(row)) < len(row) for row in rows]
    block = dist.decide(np.array(rows, dtype=np.uint64))
    one_at_a_time = [bool(dist.decide(np.array([row], dtype=np.uint64))[0]) for row in rows]
    assert [bool(v) for v in block] == one_at_a_time == reference
    assert 0 < sum(reference) < len(rows)


def test_expected_fixed_points_small_cases():
    # sizes 1..3 enumerated by hand: 1 involution on one point, {id, swap}
    # on two, {id, three transpositions} on three
    assert expected_fixed_points(1) == pytest.approx(1.0)
    assert expected_fixed_points(2) == pytest.approx(1.0)
    assert expected_fixed_points(3) == pytest.approx(1.5)


def _reveal_all(oracle: InvolutionOracle, order: list[int]) -> list[int]:
    """The oracle's involution as a table, its points asked in `order`."""
    table = [0] * len(order)
    for v in order:
        table[v] = oracle.eval_int(v)
    return table


def _shuffled(size: int, rng) -> list[int]:
    order = list(range(size))
    rng.shuffle(order)
    return order


def test_sampled_involutions_are_involutions():
    rng = random.Random(612)
    for _ in range(50):
        table = _reveal_all(InvolutionOracle(6, rng), _shuffled(64, rng))
        assert sorted(table) == list(range(64))
        assert all(table[table[v]] == v for v in range(64))


def test_involution_fixed_point_mean():
    rng = random.Random(613)
    total = 0
    for _ in range(10000):
        table = _reveal_all(InvolutionOracle(6, rng), _shuffled(64, rng))
        total += sum(table[v] == v for v in range(64))
    mean = total / 10000
    want = expected_fixed_points(64)
    assert abs(mean - want) < 0.05 * want


def test_involution_oracle_validation():
    # the ratio table has 2^n + 1 entries, so n is capped at 16
    with pytest.raises(ConfigurationError):
        InvolutionOracle(17, random.Random(1))


def test_involution_ratios_match_exact_counts():
    for size in range(1, 65):
        ratios = _involution_ratios(size)
        for k in range(1, size + 1):
            want = involution_count(k - 1) / involution_count(k)
            assert abs(ratios[k] - want) <= 1e-12 * want


def test_involutions_are_uniform_in_every_reveal_order():
    # the 10 involutions on 4 points, each hit 4,000 times in expectation
    everyone = {p for p in itertools.permutations(range(4))
                if all(p[p[v]] == v for v in range(4))}
    assert len(everyone) == 10
    samples = 40000
    sd = math.sqrt(samples * 0.1 * 0.9)
    for tag, order_rng in ((0, None), (1, random.Random(622))):
        rng = key_stream(622, tag)
        counts = dict.fromkeys(everyone, 0)
        for _ in range(samples):
            order = _shuffled(4, order_rng) if order_rng else list(range(4))
            counts[tuple(_reveal_all(InvolutionOracle(2, rng), order))] += 1
        assert all(abs(c - samples / 10) <= 6 * sd for c in counts.values()), counts


class _CountingStream(random.Random):
    """A key stream that counts the words it hands out."""

    def __init__(self, inner):
        self.inner = inner
        self.words = 0

    def getrandbits(self, k: int) -> int:
        self.words += 1
        return self.inner.getrandbits(k)

    def random(self) -> float:
        self.words += 1
        return self.inner.random()


def test_adaptive_walk_reveals_only_what_it_asks():
    # a table of 2^16 points would take ~2^16 words per trial
    dist = involution_distinguisher(16)
    streams = game_streams(623, 0)
    for t in range(20):
        rng = _CountingStream(streams.stream(t))
        assert dist.run(QueryGuard(InvolutionOracle(16, rng), dist.budget))
        assert rng.words <= 8


def test_involution_replays_on_equal_streams():
    asked = [random.Random(624).randrange(1 << 10) for _ in range(300)]
    a = InvolutionOracle(10, key_stream(624))
    b = InvolutionOracle(10, key_stream(624))
    assert [a.eval_int(v) for v in asked] == [b.eval_int(v) for v in asked]


def test_adaptive_walk_separates_involutions():
    real, ideal = involution_samplers(8)
    res = run_game(real, ideal, involution_distinguisher(8), 300, 614)
    assert res.p_real == 1.0
    assert res.p_ideal < 0.05
    assert res.advantage > 0.95


def test_nonadaptive_two_queries_cannot_separate():
    real, ideal = involution_samplers(8)
    res = run_game(real, ideal, involution_nonadaptive_distinguisher(8), 300, 615)
    assert res.p_real == 0.0
    assert res.advantage <= 0.02


def test_constant_handles_have_maximal_distance():
    def const_sampler(rng):
        return FunctionOracle(lambda x: 0, 8, 2)

    res = tuple_uniformity_sd(const_sampler, [BitString(i, 8) for i in range(2)], 16000, 618)
    assert res.sd_estimate == pytest.approx(1 - 1 / 16)


def test_lazy_handles_sit_at_the_baseline_scale():
    def lazy_handle(rng):
        return LazyRandomOracle(rng.getrandbits(64), 8, 1)

    res = tuple_uniformity_sd(lazy_handle, [BitString(i, 8) for i in range(2)], 4000, 619)
    assert res.support == 4
    assert res.sd_estimate <= res.baseline_sd + 0.02


def _baseline_stream_codes(seed, bits, samples):
    """The rule of the uniform codes: sample i's is the low `bits` bits of
    word i of key_stream(seed, _BASELINE_TAG)."""
    rng = key_stream(seed, games._BASELINE_TAG)
    return [rng.getrandbits(bits) for _ in range(samples)]


def test_baseline_codes_are_the_low_bits_of_the_baseline_stream(monkeypatch):
    real, drawn = games._baseline_codes, []
    monkeypatch.setattr(games, "_baseline_codes",
                        lambda *args: drawn.append(real(*args)) or drawn[-1])
    res = tuple_uniformity_sd(_lazy_sampler(8, 2), [BitString(i, 8) for i in range(2)], 16000, 620)
    codes = np.concatenate(drawn)
    assert codes.tolist() == _baseline_stream_codes(620, 4, 16000)
    assert res.baseline_sd == games._sd_from_counts(np.bincount(codes, minlength=16), 16000)


def test_baseline_sd_does_not_depend_on_the_block_size(monkeypatch):
    sampler, queries = KeySampler(pp_layout(8, 8, 1, 8)), [BitString(i, 8) for i in range(2)]
    whole = tuple_uniformity_sd(sampler, queries, 4000, 621)
    monkeypatch.setattr(batch, "BLOCK_ELEMS", 512)  # 16 blocks of at most 256 samples
    assert tuple_uniformity_sd(sampler, queries, 4000, 621) == whole
    codes = np.bincount(_baseline_stream_codes(621, 2, 4000), minlength=4)
    assert whole.baseline_sd == games._sd_from_counts(codes, 4000)


def test_uniformity_guard_rails():
    qs = [BitString(i, 8) for i in range(2)]
    with pytest.raises(ValueError):
        tuple_uniformity_sd(_lazy_sampler(8, 2), [], 20000, 1)
    with pytest.raises(ValueError):
        tuple_uniformity_sd(_lazy_sampler(8, 2), [qs[0], qs[0]], 20000, 1)
    with pytest.raises(ConfigurationError):
        tuple_uniformity_sd(_lazy_sampler(8, 9), qs, 10**9, 1)  # 18-bit support
    with pytest.raises(ConfigurationError):
        tuple_uniformity_sd(_lazy_sampler(8, 2), qs, 15999, 1)  # below floor


def test_uniformity_rejects_queries_outside_the_handles_domain():
    # the numpy twin and plain per-sample handles reject them alike
    twin = KeySampler(pp_layout(8, 8, 1, 8))
    plain = lambda rng: twin(rng)
    for sampler in (twin, plain):
        for wrong in (BitString(1, 6), BitString(300, 10)):
            with pytest.raises(ValueError):
                tuple_uniformity_sd(sampler, [BitString(0, 8), wrong], 4000, 620)


def test_uniformity_rejects_a_later_handle_of_another_domain():
    # sample 0's handle takes the queries, but the third handle drawn has
    # a 6-bit domain: the per-trial loop's guard stops it, and the
    # estimator raises rather than count the violated sample as code 0
    drawn = itertools.count()

    def sampler(rng):
        return LazyRandomOracle(rng.getrandbits(64), 6 if next(drawn) == 2 else 8, 1)

    with pytest.raises(ValueError):
        tuple_uniformity_sd(sampler, [BitString(0, 8)], 4000, 621)
    assert next(drawn) > 3  # the walk reached it


# Memory does not grow with trials or samples. Each run walks blocks of
# 256 grid cells, so T rows span several blocks and 8T rows eight times
# as many; the 8T peak stays within MEMORY_FACTOR of the T peak on both
# engines. Measured T -> 8T peaks (tracemalloc, Python 3.11, numpy 2.4):
# run_game 25.8 -> 27.0 KB on the twin and 11.5 -> 11.5 KB per trial,
# tuple_uniformity_sd 92.5 -> 95.2 KB and 39.8 -> 39.8 KB. Keeping one
# array of codes, a block's answers or a trial's oracle per row or block
# took the 8T peak to 1.8-7.9x the T peak.
MEMORY_FACTOR = 1.5


def _traced_peaks(run, rows: int, warm: int) -> list[int]:
    """tracemalloc's peaks of run(rows) and run(8 * rows), after an
    untraced run(warm). CPython keeps up to 2000 freed tuples of each
    small size for reuse, and a tuple built from a generator never takes
    one, so the first runs of a process leave more of the k-coefficient
    tuples behind than later ones; the warm run fills those lists, and
    the collector, whose full passes empty them, stays off throughout."""
    gc.disable()
    try:
        run(warm, 1)
        peaks = []
        for n in (rows, 8 * rows):
            tracemalloc.start()
            try:
                run(n, 2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    finally:
        gc.enable()
    return peaks


def _per_trial(sampler):
    """sampler behind a plain callable, which the per-trial loop plays."""
    return lambda rng: sampler(rng)


@pytest.mark.parametrize("engine", ("twin", "per-trial"))
def test_run_game_memory_does_not_grow_with_trials(engine):
    real, ideal = pp_sampler(ExtensionParams(12, 8, 12, 8, 8)), lazy_sampler(12, 12)
    if engine == "per-trial":
        real, ideal = _per_trial(real), _per_trial(ideal)
    dist = birthday_distinguisher(8, 12)
    with mock.patch.object(batch, "BLOCK_ELEMS", 256):
        small, large = _traced_peaks(lambda n, seed: run_game(real, ideal, dist, n, seed),
                                     32, 1024)
    assert large <= MEMORY_FACTOR * small


@pytest.mark.parametrize("engine", ("twin", "per-trial"))
def test_tuple_uniformity_memory_does_not_grow_with_samples(engine):
    # one 1-bit answer per sample: the fewest samples the estimator takes.
    # The per-trial loop plays lazy-random handles, whose sampling costs
    # least under tracing; its memory does not depend on the handles.
    sampler = pp_sampler(ExtensionParams(8, 8, 1, 8, 1))
    if engine == "per-trial":
        sampler = _per_trial(lazy_sampler(8, 1))
    queries = [BitString(200, 8)]
    with mock.patch.object(batch, "BLOCK_ELEMS", 256):
        small, large = _traced_peaks(
            lambda n, seed: tuple_uniformity_sd(sampler, queries, n, seed), 2000, 2000)
    assert large <= MEMORY_FACTOR * small

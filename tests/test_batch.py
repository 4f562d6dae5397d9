import random

import numpy as np
import pytest

from cuckooprf import batch, games
from cuckooprf.batch import (
    ColumnDraws,
    batch_answers,
    const_mul,
    lazy_answers,
)
from cuckooprf.bits import BitString, KeyStreams, derive_seed, key_stream, mix64, mix64_np, truncate
from cuckooprf.errors import ConfigurationError
from cuckooprf.experiments import levin_sampler, uniformity
from cuckooprf.games import (
    Distinguisher,
    NonAdaptiveDistinguisher,
    birthday_distinguisher,
    game_streams,
    involution_nonadaptive_distinguisher,
    run_game,
    sample_streams,
    tuple_uniformity_sd,
)
from cuckooprf.gf import SUPPORTED_WIDTHS, default_spec
from cuckooprf.hashfam import sample_kwise
from cuckooprf.prfcore import FunctionOracle, LazyRandomOracle, PrgSpec
from cuckooprf.transform import (
    ExtensionParams,
    KeySampler,
    adw_layout,
    build_adaptive_from_nonadaptive,
    build_adw_adaptive_from_nonadaptive,
    build_adw_domain_extension,
    build_pp_domain_extension,
    build_prg_prf,
    lazy_sampler,
    pp_layout,
    pp_sampler,
)
from gamepaths import assert_paths_agree


def test_mix64_np_matches_scalar():
    rng = random.Random(701)
    vals = np.array([rng.getrandbits(64) for _ in range(5000)], dtype=np.uint64)
    got = mix64_np(vals)
    for v, g in zip(vals[:500], got[:500]):
        assert int(g) == mix64(int(v))


def test_lazy_answers_matches_scalar_oracle():
    seeds = np.array([derive_seed(5, t) for t in range(20)], dtype=np.uint64)
    xs = np.array([3, 9, 100, 2**30], dtype=np.uint64)
    grid = lazy_answers(seeds, xs, 12)
    for t in range(20):
        o = LazyRandomOracle(int(seeds[t]), 32, 12)
        for j, x in enumerate(xs):
            assert int(grid[t, j]) == o.query(BitString(int(x), 32)).value


def test_lazy_answers_per_row_inputs():
    seeds = np.array([1, 2, 3], dtype=np.uint64)
    xs = np.array([[1, 2], [3, 4], [5, 6]], dtype=np.uint64)
    grid = lazy_answers(seeds, xs, 8)
    for t in range(3):
        o = LazyRandomOracle(int(seeds[t]), 16, 8)
        for j in range(2):
            assert int(grid[t, j]) == o.query(BitString(int(xs[t, j]), 16)).value


def test_const_mul_matches_field_multiply():
    # (0, v) is the polynomial v * x, so its grid at point c is v * c
    # through the const_mul tables of c
    rng = random.Random(702)
    for w in SUPPORTED_WIDTHS:
        spec = default_spec(w)
        for _ in range(20):
            c = rng.getrandbits(w)
            vals = [rng.getrandbits(w) for _ in range(200)]
            coeffs = np.array([(0, v) for v in vals], dtype=np.uint64)
            got = batch._Points([c]).horner(coeffs, spec, w)[:, 0]
            assert len(const_mul(spec, c).tables) == max(1, w // 8)
            for v, g in zip(vals, got):
                assert int(g) == spec.mul_int(v, c)


@pytest.mark.parametrize("w", SUPPORTED_WIDTHS)
def test_const_mul_tables_equal_mul_int(w):
    # table pos, entry b is c * (b << 8 pos): one table of all 2^w products for w <= 8
    spec = default_spec(w)
    rng = random.Random(730 + w)
    for c in (0, 1, (1 << w) - 1, rng.getrandbits(w), rng.getrandbits(w)):
        tables = batch._ConstMul(spec, c).tables
        assert len(tables) == max(1, w // 8)
        for pos, table in enumerate(tables):
            assert table.dtype == np.uint64
            assert table.tolist() == [spec.mul_int(c, b << (8 * pos))
                                      for b in range(min(256, 1 << w))]


def test_batch_eval_kwise_matches_scalar():
    # a block of k-wise hashes drawn as word columns evaluates as the
    # KWiseHashKeys that sample_kwise draws from the same streams
    rng, streams, rows = random.Random(703), KeyStreams(703, 5), range(30)
    xs = [rng.getrandbits(20) for _ in range(25)]
    hashes = ColumnDraws(streams.heads(rows)).kwise(5, 20, 9)
    grid = hashes.grid(batch._Points(xs))
    for t in rows:
        key = sample_kwise(5, 20, 9, streams.stream(t))
        for j, x in enumerate(xs):
            assert int(grid[t, j]) == key.eval_int(x)
    assert hashes.grid(batch._Points([])).shape == (30, 0)


def _pointwise_check(layout, build, queries):
    """The twin's answers to a block of rows equal the answers of build
    (rng -> oracle) keyed from each row's stream: the layout read as word
    columns against the builder's key objects."""
    streams, rows = KeyStreams(77, 5), range(3, 9)
    matrix = batch_answers(layout(ColumnDraws(streams.heads(rows))), queries)
    assert matrix.tolist() == [[build(streams.stream(t)).query(x).value for x in queries]
                               for t in rows]


def test_batch_answers_lazy():
    rng = random.Random(705)
    sampler = lazy_sampler(18, 10)
    _pointwise_check(sampler.layout, sampler,
                     [BitString(rng.getrandbits(18), 18) for _ in range(30)])


def test_batch_answers_levin():
    sampler = levin_sampler(18, 8, 18, 3)
    _pointwise_check(sampler.layout, sampler, [BitString(v, 18) for v in range(30)])


def test_batch_answers_pp():
    p = ExtensionParams(24, 12, 24, 8, 128)
    qrng = random.Random(708)
    _pointwise_check(pp_layout(24, 12, 24, 8), lambda rng: build_pp_domain_extension(p, rng),
                     [BitString(qrng.getrandbits(24), 24) for _ in range(40)])


def test_batch_answers_pp_with_restricted_hashes():
    qrng = random.Random(710)
    _pointwise_check(pp_layout(16, 16, 16, 6, window=4 * 64),
                     lambda rng: build_adaptive_from_nonadaptive(16, 64, 6, rng),
                     [BitString(qrng.getrandbits(16), 16) for _ in range(40)])


def test_batch_answers_adw_table():
    p = ExtensionParams(24, 12, 24, 2, 128, c=1)
    qrng = random.Random(712)
    _pointwise_check(adw_layout(p, "table"),
                     lambda rng: build_adw_domain_extension(p, "table", rng),
                     [BitString(qrng.getrandbits(24), 24) for _ in range(25)])


def test_batch_answers_adw_prf():
    p = ExtensionParams(20, 10, 12, 2, 16, c=1)
    qrng = random.Random(714)
    _pointwise_check(adw_layout(p, "prf"), lambda rng: build_adw_domain_extension(p, "prf", rng),
                     [BitString(qrng.getrandbits(20), 20) for _ in range(25)])


def test_batch_answers_adw_adaptive():
    p = ExtensionParams(16, 16, 16, 2, 32, c=1)
    qrng = random.Random(716)
    _pointwise_check(adw_layout(p, "table", window=4 * 32),
                     lambda rng: build_adw_adaptive_from_nonadaptive(16, 32, 1, rng),
                     [BitString(qrng.getrandbits(16), 16) for _ in range(25)])


def test_only_key_samplers_reach_batch_answers(monkeypatch):
    # every sampler but a KeySampler facing queries of its own domain is
    # played trial by trial, and none of its blocks is answered as a matrix
    held = []
    answers = batch.batch_answers
    monkeypatch.setattr(batch, "batch_answers",
                        lambda keys, qs: held.append(keys) or answers(keys, qs))
    lazy = lambda rng: LazyRandomOracle(rng.getrandbits(64), 16, 16)
    ggm_backed = lambda rng: build_prg_prf(PrgSpec("mix64", 16), 8, 16, 2, 16, rng)
    fn = lambda rng: FunctionOracle(lambda x: x, 16, 16)
    dist = birthday_distinguisher(16, 16)
    for sampler in (lazy, ggm_backed, fn):
        assert batch.block_keys(sampler, game_streams(1, 0), range(8), 16) is None
        run_game(sampler, sampler, dist, 8, 925)
    # a KeySampler of another domain: every trial's queries violate it
    wrong_domain = lazy_sampler(12, 16)
    assert batch.block_keys(wrong_domain, game_streams(1, 0), range(8), 16) is None
    assert run_game(wrong_domain, wrong_domain, dist, 8, 925).violations == 16
    assert held == []
    run_game(lazy_sampler(16, 16), lazy, dist, 8, 925)
    assert len(held) == 1


def test_batched_game_equals_scalar_game_for_mixed_hash_shapes():
    # a sampler whose trials mix two hash shapes has no twin and is played per trial
    k2, k3 = levin_sampler(12, 8, 8, 2), levin_sampler(12, 8, 8, 3)
    mixed = lambda rng: (k2 if rng.getrandbits(1) else k3)(rng)
    assert_paths_agree(mixed, lazy_sampler(12, 8), birthday_distinguisher(16, 12), 20, 924)


def _sampler_grid():
    p = ExtensionParams(24, 12, 24, 8, 128)
    pa = ExtensionParams(24, 12, 24, 2, 128, c=1)
    pf = ExtensionParams(20, 10, 12, 2, 16, c=1)
    return [
        ("lazy", lazy_sampler(24, 24), 128, 24),
        ("levin", levin_sampler(24, 12, 24, 8), 128, 24),
        ("pp", pp_sampler(p), 128, 24),
        ("adw-table", KeySampler(adw_layout(pa, "table")), 128, 24),
        ("adw-prf", KeySampler(adw_layout(pf, "prf")), 16, 20),
    ]


def test_batched_game_equals_scalar_game():
    for name, sampler, q, d in _sampler_grid():
        ideal = lazy_sampler(d, 24 if d == 24 else 12)
        assert_paths_agree(sampler, ideal, birthday_distinguisher(q, d), 20, 920)


def test_batched_game_equals_scalar_without_decide_batch():
    # birthday's collision rule written a second way, one set per row
    p = ExtensionParams(24, 12, 24, 8, 64)
    sampler = pp_sampler(p)
    queries = [BitString(i, 24) for i in range(64)]
    dist = NonAdaptiveDistinguisher(
        queries, lambda values: [len(set(row)) < len(row) for row in values.tolist()]
    )
    assert_paths_agree(sampler, lazy_sampler(24, 24), dist, 15, 921)


def test_involution_nonadaptive_rule_agrees_on_both_paths():
    # n-bit domain and range, small enough that some trials collide
    n = 3
    real = KeySampler(pp_layout(n, 2, n, 2))
    res = assert_paths_agree(real, lazy_sampler(n, n),
                             involution_nonadaptive_distinguisher(n), 40, 926)
    assert res.p_real > 0 and res.p_ideal > 0


def test_batched_game_falls_back_for_unsupported_oracles(monkeypatch):
    rng_free = lambda rng: build_prg_prf(PrgSpec("mix64", 16), 8, 16, 2, 16, rng)
    dist = birthday_distinguisher(16, 16)
    assert_paths_agree(rng_free, lazy_sampler(16, 16), dist, 10, 922)
    # a block of tree-backed oracles is never drawn whole for batch_answers
    held = []
    answers = batch.batch_answers
    monkeypatch.setattr(batch, "batch_answers",
                        lambda keys, qs: held.append(keys) or answers(keys, qs))
    run_game(rng_free, rng_free, dist, 10, 922)
    assert held == []


def test_batched_game_falls_back_for_custom_distinguishers():
    calls = []
    queries = [BitString(i, 16) for i in range(8)]

    class Custom(Distinguisher):
        budget = len(queries)

        def run(self, query):
            calls.append(None)
            return len({query(x).value for x in queries}) < len(queries)

    custom = run_game(lazy_sampler(16, 16), lazy_sampler(16, 16), Custom(), 10, 923)
    plain = run_game(lazy_sampler(16, 16), lazy_sampler(16, 16),
                     birthday_distinguisher(8, 16), 10, 923)
    assert custom == plain
    # the runner really did play it trial by trial
    assert len(calls) == 20


def test_batched_game_validation():
    dist = birthday_distinguisher(8, 8)
    with pytest.raises(ConfigurationError):
        run_game(lazy_sampler(8, 8), lazy_sampler(8, 8), dist, 0, 1)


def test_tuple_sampler_draws_the_pp_slot_layout():
    # k coefficients for each of h1, h2 and g over GF(2^8), then the two f seeds
    sampler = KeySampler(pp_layout(8, 8, 2, 8))

    class Probe(random.Random):
        def __init__(self):
            super().__init__(11)
            self.calls = []

        def getrandbits(self, n):
            self.calls.append(n)
            return super().getrandbits(n)

    rng = Probe()
    sampler(rng)
    assert rng.calls == [8] * 24 + [64, 64]


def test_tuple_sampler_reads_slot_i_from_word_i():
    sampler = KeySampler(pp_layout(8, 8, 2, 3))
    key = sampler(key_stream(99, 5)).key
    words = [derive_seed(99, 5, j) for j in range(11)]
    assert key.h1.coeffs == tuple(truncate(w, 8) for w in words[0:3])
    assert key.h2.coeffs == tuple(truncate(w, 8) for w in words[3:6])
    assert key.g.coeffs == tuple(truncate(w, 8) for w in words[6:9])
    assert key.f1.seed == words[9]
    assert key.f2.seed == words[10]
    assert key.g.range_bits == 2


def test_tuple_sampler_batch_matches_scalar_loop(monkeypatch):
    # blocks of 256 samples at 2 queries, so 4000 samples span sixteen
    monkeypatch.setattr(batch, "BLOCK_ELEMS", 512)
    sampler = KeySampler(pp_layout(8, 8, 1, 8))
    queries = [BitString(i, 8) for i in (0, 200)]
    samples, seed = 4000, 724
    codes = []
    sd_from_codes = games._sd_from_codes
    monkeypatch.setattr(games, "_sd_from_codes",
                        lambda c, *rest: codes.append(c.tolist()) or sd_from_codes(c, *rest))
    twin = tuple_uniformity_sd(sampler, queries, samples, seed)
    # the same handles behind a shape batch_answers declines: queried one by one
    opaque = lambda rng: FunctionOracle(sampler(rng).eval_int, 8, 1)
    assert tuple_uniformity_sd(opaque, queries, samples, seed) == twin
    want = []
    for i in range(samples):
        handle = sampler(sample_streams(seed).stream(i))
        want.append((handle.query(queries[0]).value << 1) | handle.query(queries[1]).value)
    # each run passes its codes, then the uniform baseline's
    assert codes[0] == codes[2] == want


def test_tuple_sampler_feeds_the_uniformity_estimator():
    sampler = KeySampler(pp_layout(8, 8, 2, 8))
    queries = [BitString(i, 8) for i in range(2)]
    res = tuple_uniformity_sd(sampler, queries, 16000, 725)
    assert res.support == 16
    assert res.sd_estimate < res.baseline_sd + 0.05


def test_tuple_sampler_validation():
    with pytest.raises(ConfigurationError):
        uniformity(4, 8, 2, 8, 4, 10**6, 1)  # d < s
    with pytest.raises(ConfigurationError):
        uniformity(8, 8, 2, 1, 4, 10**6, 1)
    with pytest.raises(ConfigurationError):
        uniformity(8, 0, 2, 8, 4, 10**6, 1)
    sampler = KeySampler(pp_layout(8, 8, 2, 8))
    with pytest.raises(ValueError):
        tuple_uniformity_sd(sampler, [BitString(0, 6)], 4000, 1)

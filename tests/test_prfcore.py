import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from cuckooprf.batch import lazy_answers
from cuckooprf.bits import C1, C2, BitString, derive_seed, mix64, truncate
from cuckooprf.errors import ConfigurationError
from cuckooprf.hashfam import sample_kwise
from cuckooprf.prfcore import (
    FunctionOracle,
    GgmKey,
    GgmOracle,
    LazyRandomOracle,
    LevinOracle,
    PrgSpec,
    ggm_eval,
    lazy_answer,
    prg_expand,
)


def test_oracle_rejects_wrong_query_length():
    o = LazyRandomOracle(1, 8, 8)
    with pytest.raises(ValueError):
        o.query(BitString(0, 4))


def test_lazy_oracle_replays_and_depends_on_seed():
    a = LazyRandomOracle(10, 12, 6)
    b = LazyRandomOracle(10, 12, 6)
    c = LazyRandomOracle(11, 12, 6)
    rng = random.Random(301)
    diffs = 0
    for _ in range(300):
        x = BitString(rng.getrandbits(12), 12)
        y = a.query(x)
        assert y.length == 6
        assert a.query(x) == y
        assert b.query(x) == y
        diffs += c.query(x) != y
    assert diffs > 250


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), st.integers(1, 64))
def test_lazy_answer_is_the_oracle_rule(seed, x, range_bits):
    want = truncate(mix64(seed ^ mix64(x ^ C1)), range_bits)
    assert lazy_answer(seed, x, range_bits) == want
    assert LazyRandomOracle(seed, 64, range_bits).query(BitString(x, 64)).value == want
    grid = lazy_answers(np.array([seed], dtype=np.uint64), np.array([x], dtype=np.uint64), range_bits)
    assert int(grid[0, 0]) == want


def test_lazy_oracle_size_caps():
    with pytest.raises(ConfigurationError):
        LazyRandomOracle(0, 65, 8)
    with pytest.raises(ConfigurationError):
        LazyRandomOracle(0, 8, 65)


def test_lazy_outputs_pass_chi_square():
    # 10^4 distinct queries, 8-bit outputs, 256 cells. Two-sided 99.9% band
    # for a uniform source; a fixed seed keeps the draw reproducible.
    o = LazyRandomOracle(3, 32, 8)
    n = 10000
    counts = Counter(o.query(BitString(i, 32)).value for i in range(n))
    expected = n / 256
    stat = sum((counts.get(v, 0) - expected) ** 2 / expected for v in range(256))
    assert chi2.ppf(0.0005, 255) < stat < chi2.ppf(0.9995, 255)


def test_prg_stub_vector_and_length():
    spec = PrgSpec("stub-complement", 4)
    assert prg_expand(spec, 0b0101) == 0b01011010
    assert prg_expand(spec, 0) == 0b00001111


def test_prg_mix64_halves_look_independent():
    # equal halves happen for a uniform pair at rate 2^-16, so allow a few
    spec = PrgSpec("mix64", 16)
    seen = set()
    equal_halves = 0
    for s in range(10000):
        out = prg_expand(spec, s)
        assert 0 <= out < 1 << 32
        equal_halves += out >> 16 == truncate(out, 16)
        seen.add(out)
    assert equal_halves <= 3
    assert len(seen) > 9900


def test_prg_validation():
    with pytest.raises(ValueError):
        PrgSpec("aes", 16)
    with pytest.raises(ConfigurationError):
        PrgSpec("mix64", 65)
    for bad in (-1, 1 << 16):
        with pytest.raises(ValueError):
            prg_expand(PrgSpec("mix64", 16), bad)


def test_ggm_zero_length_input_returns_root():
    key = GgmKey(0b1011, 0, PrgSpec("stub-complement", 4))
    assert ggm_eval(key, 0) == 0b1011


def test_ggm_stub_hand_vectors():
    # root 0101 expands to 0101 | 1010; walking bit 1 then bit 0 of the
    # input picks the right half then its left half
    key = GgmKey(0b0101, 2, PrgSpec("stub-complement", 4))
    assert ggm_eval(key, 0b00) == 0b0101
    assert ggm_eval(key, 0b01) == 0b1010
    assert ggm_eval(key, 0b10) == 0b1010
    assert ggm_eval(key, 0b11) == 0b0101


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([8, 16, 32, 64]), st.integers(0, 12), st.data())
def test_ggm_first_bit_consumed_is_most_significant(seed_bits, m, data):
    # the mix64 generator, unlike the stub, gives every bit order its own leaf
    prg = PrgSpec("mix64", seed_bits)
    root = data.draw(st.integers(0, (1 << seed_bits) - 1))
    xs = data.draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=4))
    key = GgmKey(root, m, prg)
    oracle = GgmOracle(key)
    for q, x in enumerate(xs, 1):
        seed = root
        for b in format(x, f"0{m}b") if m else "":
            seed = truncate(mix64(seed ^ (C1 if b == "0" else C2)), seed_bits)
        assert ggm_eval(key, x) == seed
        assert oracle.eval_int(x) == seed
        assert oracle.prg_calls == m * q


def test_ggm_exactly_m_expansions_per_query():
    key = GgmKey(0x1234, 10, PrgSpec("mix64", 16))
    o = GgmOracle(key)
    rng = random.Random(302)
    for q in range(1, 50):
        o.query(BitString(rng.getrandbits(10), 10))
        assert o.prg_calls == 10 * q


def test_ggm_common_prefix_shares_path():
    key = GgmKey(0xBEEF, 12, PrgSpec("mix64", 16))

    def path(x):
        nodes = []
        ggm_eval(key, x, on_node=lambda i, s: nodes.append(s))
        return nodes

    rng = random.Random(303)
    for _ in range(100):
        a = rng.getrandbits(12)
        p = rng.randrange(0, 12)
        flip = a ^ (1 << rng.randrange(0, 12 - p)) if p < 12 else a
        # force equality on the top p bits only
        b = (a >> (12 - p)) << (12 - p) | (flip & ((1 << (12 - p)) - 1))
        pa = path(a)
        pb = path(b)
        assert pa[: p + 1] == pb[: p + 1]


def test_ggm_distinct_inputs_rarely_collide():
    # a 32-bit seed keeps internal tree states collision-free at this scale
    key = GgmKey(0xACE, 16, PrgSpec("mix64", 32))
    outs = {ggm_eval(key, i) for i in range(2000)}
    assert len(outs) >= 1998


def test_ggm_key_validation():
    with pytest.raises(ValueError):
        GgmKey(1 << 16, 4, PrgSpec("mix64", 16))
    with pytest.raises(ValueError):
        GgmKey(-1, 4, PrgSpec("mix64", 16))
    with pytest.raises(ValueError):
        GgmKey(0, -1, PrgSpec("mix64", 16))
    key = GgmKey(0, 4, PrgSpec("mix64", 16))
    for bad in (-1, 1 << 4):
        with pytest.raises(ValueError):
            ggm_eval(key, bad)


def test_levin_is_hash_then_query():
    h = sample_kwise(3, 12, 6, random.Random(304))
    f = LazyRandomOracle(7, 6, 10)
    o = LevinOracle(h, f)
    assert o.domain_bits == 12
    assert o.range_bits == 10
    for v in (0, 5, 4095):
        x = BitString(v, 12)
        assert o.query(x) == f.query(BitString(h.eval_int(v), 6))


def test_levin_hash_collisions_are_visible():
    # 6-bit intermediate range forces collisions among 200 distinct inputs
    h = sample_kwise(2, 12, 6, random.Random(305))
    o = LevinOracle(h, LazyRandomOracle(8, 6, 12))
    outs = [o.query(BitString(v, 12)) for v in range(200)]
    assert len(set(outs)) <= 64


def test_levin_shape_mismatch_rejected():
    h = sample_kwise(2, 12, 6, random.Random(306))
    with pytest.raises(ValueError):
        LevinOracle(h, LazyRandomOracle(8, 7, 12))


def test_function_oracle_checks_result_length():
    good = FunctionOracle(lambda x: x, 4, 4)
    assert good.query(BitString(5, 4)).value == 5
    bad = FunctionOracle(lambda x: 1 << 4, 4, 4)
    with pytest.raises(ValueError):
        bad.query(BitString(5, 4))


def test_all_oracle_kinds_replay_under_reordering():
    """Two equal-keyed instances answer identically regardless of the
    order queries arrive in."""

    def build():
        h = sample_kwise(3, 10, 6, random.Random(307))
        return {
            "lazy": LazyRandomOracle(5, 10, 6),
            "ggm": GgmOracle(GgmKey(0xCAFE, 10, PrgSpec("mix64", 16))),
            "levin": LevinOracle(h, LazyRandomOracle(6, 6, 6)),
        }

    first, second = build(), build()
    xs = [BitString(v, 10) for v in range(64)]
    shuffled = xs[:]
    random.Random(308).shuffle(shuffled)
    for name in first:
        got_a = {x: first[name].query(x) for x in xs}
        got_b = {x: second[name].query(x) for x in shuffled}
        assert got_a == got_b


def test_derived_seeds_give_independent_oracles():
    base = 1234
    a = LazyRandomOracle(derive_seed(base, 0), 8, 8)
    b = LazyRandomOracle(derive_seed(base, 1), 8, 8)
    same = sum(a.query(BitString(v, 8)) == b.query(BitString(v, 8)) for v in range(256))
    assert same < 10

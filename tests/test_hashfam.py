import random
from collections import Counter
from unittest import mock

import pytest

from cuckooprf import gf
from cuckooprf.bits import BitString
from cuckooprf.errors import ConfigurationError
from cuckooprf.hashfam import (
    KWiseHashKey,
    RandomTable,
    eval_kwise,
    exhaustive_independence_check,
    sample_kwise,
    sample_table,
    width_for,
    window_bits,
)
from cuckooprf.prfcore import LazyRandomOracle, LevinOracle


class _CountingRng(random.Random):
    """random.Random that records how many bits getrandbits hands out."""

    def __init__(self, seed):
        super().__init__(seed)
        self.bits_drawn = 0

    def getrandbits(self, n):
        self.bits_drawn += n
        return super().getrandbits(n)


def test_width_for_picks_smallest_supported():
    assert width_for(4, 4) == 4
    assert width_for(4, 2) == 4
    assert width_for(5, 2) == 8
    assert width_for(8, 8) == 8
    assert width_for(9, 4) == 16
    assert width_for(17, 1) == 32
    assert width_for(33, 1) == 64
    assert width_for(24, 12) == 32
    with pytest.raises(ValueError):
        width_for(65, 1)


def test_sampling_consumes_exactly_k_times_w_bits():
    for k, d, r in [(2, 4, 4), (3, 8, 2), (8, 24, 12), (16, 24, 24), (1, 6, 3)]:
        rng = _CountingRng(5)
        key = sample_kwise(k, d, r, rng)
        assert key.k == k
        assert rng.bits_drawn == k * key.width


def test_sampling_is_deterministic_in_the_seed():
    a = sample_kwise(4, 16, 8, random.Random(77))
    b = sample_kwise(4, 16, 8, random.Random(77))
    c = sample_kwise(4, 16, 8, random.Random(78))
    assert a == b
    assert a != c


def test_eval_matches_direct_call_and_checks_length():
    key = sample_kwise(3, 8, 4, random.Random(9))
    assert eval_kwise(key, 0xA5) == key.eval_int(0xA5) < 1 << 4
    # a key is a slot, not an oracle: input lengths are checked where a
    # BitString meets an oracle built on it
    with pytest.raises(ValueError):
        LevinOracle(key, LazyRandomOracle(1, 4, 4)).query(BitString(3, 4))


def test_pairwise_counts_full_range():
    # degree-1 polynomials over GF(2^4): each pair of outputs at a pair of
    # distinct points is produced by exactly one key
    rep = exhaustive_independence_check(2, width=4, range_bits=4)
    assert rep.ok
    assert rep.keys_enumerated == 256
    assert rep.expected_count == 1


def test_pairwise_counts_truncated_range():
    # truncating 4-bit values to 2 bits leaves 16 keys per output pair
    rep = exhaustive_independence_check(2, width=4, range_bits=2)
    assert rep.ok
    assert rep.keys_enumerated == 256
    assert rep.expected_count == 16


def test_threewise_counts():
    rep = exhaustive_independence_check(3, width=4, range_bits=4)
    assert rep.ok
    assert rep.keys_enumerated == 4096
    assert rep.expected_count == 1
    rep2 = exhaustive_independence_check(3, width=4, range_bits=2)
    assert rep2.ok
    assert rep2.expected_count == 64


def test_exhaustive_check_rejects_infeasible_sizes():
    with pytest.raises(ConfigurationError) as e:
        exhaustive_independence_check(2, width=8)
    assert "uniformity" in str(e.value) or "sampled" in str(e.value)
    with pytest.raises(ConfigurationError):
        exhaustive_independence_check(4, width=4)
    with pytest.raises(ConfigurationError):
        exhaustive_independence_check(2, width=4, range_bits=5)


def test_single_key_output_balance_over_keyspace():
    # 1-wise uniformity at a fixed point, counted directly over all keys
    counts = Counter()
    for a0 in range(16):
        for a1 in range(16):
            key = KWiseHashKey((a0, a1), 4, 2, 4)
            counts[key.eval_int(0b0110)] += 1
    assert set(counts) == {0, 1, 2, 3}
    assert all(v == 64 for v in counts.values())


def test_key_validation():
    with pytest.raises(ValueError):
        KWiseHashKey((), 4, 4, 4)
    with pytest.raises(ValueError):
        KWiseHashKey((1, 2), 8, 4, 4)
    with pytest.raises(ValueError):
        KWiseHashKey((16,), 4, 4, 4)


def test_range_restriction_validation_and_index_bits():
    assert window_bits(4, 3) == 2
    assert window_bits(None, 3) == 3
    with pytest.raises(ConfigurationError, match="window 5 is not a power of two"):
        window_bits(5, 3)
    with pytest.raises(ConfigurationError, match="window 16 exceeds ambient domain of 3 bits"):
        window_bits(16, 3)
    with pytest.raises(ConfigurationError):
        sample_kwise(2, 6, 1, random.Random(13), window=4)


def test_restricted_hash_lands_in_table_exhaustively():
    h = sample_kwise(3, 3, 3, random.Random(11), window=4)
    assert h.domain_bits == 3
    assert h.range_bits == 3
    for v in range(8):
        assert h.eval_int(v) < 4


def test_restricted_hash_is_low_bit_truncation():
    key = sample_kwise(2, 6, 6, random.Random(12))
    h = KWiseHashKey(key.coeffs, 6, 6, key.width, window=8)
    assert h != key
    for v in range(64):
        assert h.eval_int(v) == key.eval_int(v) & 0b111


def test_constructing_keys_builds_no_field_tables():
    with mock.patch.dict(gf._DEFAULT_SPECS, clear=True):
        key = sample_kwise(12, 16, 16, random.Random(14))
        h = sample_kwise(12, 16, 16, random.Random(14), window=256)
        assert h.spec is key.spec
        assert key.spec._log is None
        h.eval_int(1)
        assert key.spec._log is not None


def test_sample_table_shape_and_determinism():
    t = sample_table(8, 5, random.Random(21))
    assert len(t) == 8
    assert all(0 <= e < 32 for e in t.entries)
    assert t == sample_table(8, 5, random.Random(21))
    assert t.domain_bits == 3 and t.range_bits == 5
    assert [t.eval_int(i) for i in range(8)] == list(t.entries)
    windowed = sample_table(8, 5, random.Random(21), window=4)
    assert windowed.entry_bits == 5 and all(0 <= e < 4 for e in windowed.entries)


def test_sample_table_entries_look_uniform():
    # mean Hamming weight of 8-bit entries should sit near 4
    t = sample_table(10000, 8, random.Random(22))
    mean = sum(bin(e).count("1") for e in t.entries) / len(t)
    assert abs(mean - 4.0) < 0.1


def test_random_table_validation():
    with pytest.raises(ValueError):
        RandomTable((), 4)
    with pytest.raises(ValueError):
        RandomTable((16,), 4)
    with pytest.raises(ValueError):
        RandomTable((0,), 0)

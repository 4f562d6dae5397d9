import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuckooprf.bits import (
    C1,
    MASK64,
    BitString,
    KeyStreams,
    derive_seed,
    key_stream,
    mix64,
    stream_words,
    truncate,
)

PROPERTY = settings(max_examples=20, deadline=None, derandomize=True, database=None)
# negative, zero, in range and at or above 2^64: derive_seed reduces them all mod 2^64
SEEDS = st.one_of(st.integers(-2**70, -1), st.just(0), st.integers(1, MASK64),
                  st.integers(2**64, 2**70))
PARTS = st.lists(st.integers(0, 2**40), max_size=3)


def _mix64_reference(v):
    # from-scratch transcription of the splitmix64 finalizer
    v &= MASK64
    v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & MASK64
    return v ^ (v >> 31)


def test_mix64_known_values():
    # i*C1 mod 2^64 are the successive internal states of the reference
    # splitmix64 stream seeded with 0, so these match its published outputs
    assert mix64(C1) == 0xE220A8397B1DCDAF
    assert mix64((2 * C1) & MASK64) == 0x6E789E6AA1B965F4
    assert mix64((3 * C1) & MASK64) == 0x06C45D188009454F
    assert mix64(0) == 0


def test_mix64_matches_reference():
    rng = random.Random(101)
    for _ in range(5000):
        v = rng.getrandbits(64)
        assert mix64(v) == _mix64_reference(v)


def test_mix64_no_observed_collisions():
    rng = random.Random(102)
    seen = set()
    for _ in range(20000):
        seen.add(mix64(rng.getrandbits(64)))
    assert len(seen) == 20000


def test_truncate():
    assert truncate(0b101101, 3) == 0b101
    assert truncate(0b101101, 0) == 0
    assert truncate(MASK64, 64) == MASK64


def test_derive_seed_deterministic_and_order_sensitive():
    assert derive_seed(42) == derive_seed(42)
    assert derive_seed(42, 7, 9) == derive_seed(42, 7, 9)
    assert derive_seed(42, 7, 9) != derive_seed(42, 9, 7)
    assert derive_seed(42, 7) != derive_seed(43, 7)
    assert derive_seed(42, 7) != derive_seed(42)


def test_derive_seed_distinct_over_part_grid():
    vals = {derive_seed(5, a, b) for a in range(64) for b in range(64)}
    assert len(vals) == 64 * 64


def test_bitstring_construction_and_value_range():
    b = BitString(0b1011, 4)
    assert b.value == 0b1011
    assert b.length == 4
    with pytest.raises(ValueError):
        BitString(16, 4)
    with pytest.raises(ValueError):
        BitString(-1, 4)
    assert BitString(0, 0).length == 0


def test_bitstring_from01_to01_roundtrip():
    assert BitString(0b0101, 4).to01() == "0101"
    assert BitString(0, 0).to01() == ""
    rng = random.Random(103)
    for _ in range(500):
        n = rng.randrange(1, 20)
        s = "".join(rng.choice("01") for _ in range(n))
        assert BitString(int(s, 2), n).to01() == s


# counter-mode key streams


@PROPERTY
@given(SEEDS, PARTS, st.integers(1, 300))
def test_stream_word_j_is_derive_seed_j(seed, parts, n):
    # n crosses the stream's refills (16 words, then 48, then 192)
    stream = key_stream(seed, *parts)
    assert [stream.getrandbits(64) for _ in range(n)] == [
        derive_seed(seed, *parts, j) for j in range(n)]


@PROPERTY
@given(SEEDS, PARTS, st.integers(0, 50), st.integers(1, 6), st.integers(0, 70),
       st.integers(1, 40))
def test_numpy_twin_equals_scalar_stream(seed, parts, t0, rows, j0, cols):
    streams = KeyStreams(seed, *parts)
    words = stream_words(streams.heads(range(t0, t0 + rows)), range(j0, j0 + cols))
    assert words.dtype == np.uint64 and words.shape == (rows, cols)
    expected = []
    for t in range(t0, t0 + rows):
        stream = streams.stream(t)
        row = [stream.getrandbits(64) for _ in range(j0 + cols)]
        expected.append(row[j0:])
    assert words.tolist() == expected


@PROPERTY
@given(SEEDS, st.lists(st.integers(0, 200), min_size=1, max_size=12))
def test_getrandbits_truncates_and_concatenates_words(seed, widths):
    stream = key_stream(seed, 3)
    words = iter(derive_seed(seed, 3, j) for j in range(10**6))
    for w in widths:
        if w <= 64:
            expected = truncate(next(words), w)  # w = 0 still takes a word
        else:
            expected = 0
            for low in range(0, w, 64):
                expected |= truncate(next(words), min(64, w - low)) << low
        assert stream.getrandbits(w) == expected
    assert stream.getrandbits(0) == 0


@PROPERTY
@given(SEEDS, st.lists(st.integers(1, 5000), min_size=1, max_size=20))
def test_random_and_randrange_follow_the_words(seed, bounds):
    stream = key_stream(seed, 4)
    words = iter(derive_seed(seed, 4, j) for j in range(10**6))
    for n in bounds:
        u = stream.random()
        assert 0.0 <= u < 1.0 and u == (next(words) >> 11) * 2.0**-53
        # random.Random's rule: redraw n.bit_length() bits until below n
        while True:
            expected = truncate(next(words), n.bit_length())
            if expected < n:
                break
        assert stream.randrange(n) == expected


def test_key_stream_rejects_what_it_cannot_do():
    stream = key_stream(1)
    with pytest.raises(ValueError):
        stream.getrandbits(-1)
    for reseed in (lambda: stream.seed(2), stream.getstate):
        with pytest.raises(TypeError):
            reseed()
    assert stream.getrandbits(0) == 0
    assert stream.getrandbits(64) == derive_seed(1, 1)  # the 0-bit call took word 0
    # the rest of the random.Random interface works on the same words
    assert sorted(key_stream(5).sample(range(10), 10)) == list(range(10))
    assert key_stream(6).choice("abc") in "abc"
    assert isinstance(key_stream(7).gauss(), float)

"""Microbenchmarks of the numpy twin's k-wise hash grid and lazy answers.

    python -m pytest microbench --benchmark-only

These sit outside Tier-1's testpaths; `--benchmark-disable` runs each
body once, as a smoke test. The shapes are one block of a pp key's h1
(a k-wise hash from d to s bits over GF(2^w)) and f1 (a lazy-random
function from s to r bits) in the benchmark's workloads: `uniformity`
(d = s = 8, r = 2: w = 8, k = 8, 4 queries, 8192 rows) and `birthday`
(d = 24, s = 12, r = 24: w = 32, k = 16, 128 queries, 250 rows). The
query points are fixed per game, so the grid's power tables come from
their cache after the first call, as they do in a run, and so does the
table of f1's inner mixes, which both s-bit domains take.
"""

import pytest

from cuckooprf import batch
from cuckooprf.bits import KeyStreams

# d, s, r, k, queries, rows
SHAPES = {
    "uniformity": (8, 8, 2, 8, 4, 8192),
    "birthday": (24, 12, 24, 16, 128, 250),
}


def _block(shape):
    d, s, r, k, q, rows = SHAPES[shape]
    draws = batch.ColumnDraws(KeyStreams(2024, 0).heads(range(rows)))
    return draws.kwise(k, d, s), draws.prf(s, r), tuple(range(q))


@pytest.mark.parametrize("shape", SHAPES)
def test_hash_grid(benchmark, shape):
    hashes, _, xs = _block(shape)
    grid = benchmark(hashes.grid, xs)
    assert grid.shape == (len(hashes.coeffs), len(xs))


@pytest.mark.parametrize("shape", SHAPES)
def test_lazy_answers_on_hash_grid(benchmark, shape):
    hashes, f, xs = _block(shape)
    values = hashes.grid(xs)
    answers = benchmark(batch.lazy_answers, f.seeds, values, f.range_bits, f.domain_bits)
    assert answers.shape == values.shape

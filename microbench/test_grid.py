"""Microbenchmarks of the numpy twin's k-wise hash grid and lazy answers.

    python -m pytest microbench --benchmark-only

These sit outside Tier-1's testpaths; `--benchmark-disable` runs each
body once, as a smoke test. The shapes are one block of a pp key's h1
(a k-wise hash from d to s bits over GF(2^w)) and f1 (a lazy-random
function from s to r bits) in the benchmark's workloads: `uniformity`
(d = s = 8, r = 2: w = 8, k = 8, 4 queries, 8192 rows) and `birthday`
(d = 24, s = 12, r = 24: w = 32, k = 16, 128 queries, 250 rows). Two
more hash grids of `birthday` have their own kept width: its pp key's
g (24 of 32 bits kept, in uint32 tables), and one chunk of its table
adw key's g bar (k = 2, 1 bit kept, in uint8 tables, at the 8 basis
points 0, 1, 2, ..., 64 of the fold, 4096 rows). The query points are fixed per game, so the grid's power
tables come from their cache after the first call, as they do in a run,
and so does the table of f1's inner mixes, which both s-bit domains
take.
"""

import pytest

from cuckooprf import batch
from cuckooprf.bits import KeyStreams

# d, s, r, k, queries, rows
SHAPES = {
    "uniformity": (8, 8, 2, 8, 4, 8192),
    "birthday": (24, 12, 24, 16, 128, 250),
}
# d, kept bits, k, query points, rows
HASH_SHAPES = {
    **{name: (d, s, k, tuple(range(q)), rows) for name, (d, s, _, k, q, rows) in SHAPES.items()},
    "birthday-g": (24, 24, 16, tuple(range(128)), 250),
    "birthday-adw-bar": (24, 1, 2, (0, *(1 << j for j in range(7))), 4096),
}


def _draws(rows):
    return batch.ColumnDraws(KeyStreams(2024, 0).heads(range(rows)))


def _block(shape):
    d, s, r, k, q, rows = SHAPES[shape]
    draws = _draws(rows)
    return draws.kwise(k, d, s), draws.prf(s, r), tuple(range(q))


@pytest.mark.parametrize("shape", HASH_SHAPES)
def test_hash_grid(benchmark, shape):
    d, kept, k, xs, rows = HASH_SHAPES[shape]
    hashes = _draws(rows).kwise(k, d, kept)
    grid = benchmark(hashes.grid, xs)
    assert grid.shape == (rows, len(xs))


@pytest.mark.parametrize("shape", SHAPES)
def test_lazy_answers_on_hash_grid(benchmark, shape):
    hashes, f, xs = _block(shape)
    values = hashes.grid(xs)
    answers = benchmark(batch.lazy_answers, f.seeds, values, f.range_bits, f.domain_bits)
    assert answers.shape == values.shape

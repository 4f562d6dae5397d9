"""Microbenchmarks of the numpy twin's k-wise hash grid and lazy answers.

    python -m pytest microbench --benchmark-only

These sit outside Tier-1's testpaths; `--benchmark-disable` runs each
body once, as a smoke test. The shapes are one block of the benchmark's
workloads: `uniformity` (w = 8, k = 8, 4 queries, 8192 rows) and
`birthday` (w = 32, k = 16, 128 queries, 250 rows). The query points
are fixed per game, so the grid's power tables come from their cache
after the first call, as they do in a run.
"""

import pytest

from cuckooprf import batch
from cuckooprf.bits import KeyStreams

# field width, k, queries, rows
SHAPES = {
    "uniformity": (8, 8, 4, 8192),
    "birthday": (32, 16, 128, 250),
}


def _block(shape):
    w, k, q, rows = SHAPES[shape]
    draws = batch.ColumnDraws(KeyStreams(2024, 0).heads(range(rows)))
    return draws.kwise(k, w, w), draws.prf(w, w), tuple(range(q))


@pytest.mark.parametrize("shape", SHAPES)
def test_hash_grid(benchmark, shape):
    hashes, _, xs = _block(shape)
    grid = benchmark(hashes.grid, xs)
    assert grid.shape == (len(hashes.coeffs), len(xs))


@pytest.mark.parametrize("shape", SHAPES)
def test_lazy_answers_on_hash_grid(benchmark, shape):
    hashes, f, xs = _block(shape)
    values = hashes.grid(xs)
    answers = benchmark(batch.lazy_answers, f.seeds, values, f.range_bits)
    assert answers.shape == values.shape

"""Microbenchmarks of the numpy twin on one block of table-backed adw keys.

    python -m pytest microbench --benchmark-only

The shape is one block of the benchmark's `birthday` workload: d = 24,
s = 12, r = 24, q = 128 and c = 1, so z = 42 inner maps, each a one-bit
g_i with 2-entry m1, m2 and y tables, on 250 rows. block_keys draws the
block's keys from its words; batch_answers answers the 128 queries
0..127, which it folds from the inner values at the u + 1 = 8 basis
points of the u = 7 low bits they use.
"""

from cuckooprf import batch
from cuckooprf.bits import BitString, KeyStreams
from cuckooprf.transform import ExtensionParams, KeySampler, adw_layout

D, Q, ROWS = 24, 128, 250
SAMPLER = KeySampler(adw_layout(ExtensionParams(D, 12, 24, 16, Q, 1), "table"))
QUERIES = [BitString(i, D) for i in range(Q)]
STREAMS = KeyStreams(2024, 0)


def _keys():
    return batch.block_keys(SAMPLER, STREAMS, range(ROWS), D)


def test_adw_block_keys(benchmark):
    columns = benchmark(_keys)
    assert len(columns.gbar.coeffs) == 42 * ROWS  # the z = 42 g_i, stacked


def test_adw_batch_answers(benchmark):
    columns = _keys()
    answers = benchmark(batch.batch_answers, columns, QUERIES)
    assert answers.shape == (ROWS, Q)

"""Microbenchmark of the numpy twin on consecutive blocks of the
benchmark's `uniformity` workload.

    python -m pytest microbench --benchmark-only

uniformity --d 8 --s 8 --r 2 --k 8 --queries 4 walks its samples in
blocks of 8192 rows, each drawn as pp_layout(8, 8, 2, 8) keys, answered
at the queries 0..3 and packed into one code per row by
games._block_codes. One round times 4 consecutive blocks through one
workspace reset before each block, as tuple_uniformity_sd runs them:
the first block sizes the workspace and the other three reuse it.
"""

from itertools import islice

from cuckooprf import batch, games
from cuckooprf.bits import BitString
from cuckooprf.transform import KeySampler, pp_layout

D, R, Q, BLOCKS = 8, 2, 4, 4
SAMPLER = KeySampler(pp_layout(D, 8, R, 8))
QUERIES = [BitString(i, D) for i in range(Q)]
STREAMS = games.sample_streams(2024)


def _blocks():
    ws, codes = batch.Workspace(), []
    for block in islice(batch.blocks(256_000, Q), BLOCKS):
        ws.reset()
        codes.append(games._block_codes(SAMPLER, STREAMS, block, QUERIES, R, ws))
    return codes


def test_uniformity_blocks(benchmark):
    codes = benchmark(_blocks)
    assert [len(c) for c in codes] == [8192] * BLOCKS
    assert all(c.max() < 1 << (R * Q) for c in codes)

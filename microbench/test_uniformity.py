"""Microbenchmark of the numpy twin on consecutive blocks of the
benchmark's `uniformity` workload.

    python -m pytest microbench --benchmark-only

uniformity --d 8 --s 8 --r 2 --k 8 --queries 4 walks its samples in
blocks of 8192 rows, each drawn as pp_layout(8, 8, 2, 8) keys, answered
at the queries 0..3 and packed into one code per row by the estimator's
distinguisher, whose rule is games._pack. One round times 4 consecutive
blocks through games._twin_values, the walker's per-block twin, with
one workspace reset before each block, as tuple_uniformity_sd walks
them: the first block sizes the workspace and the other three reuse it.
"""

import functools
from itertools import islice

from cuckooprf import batch, games
from cuckooprf.bits import BitString
from cuckooprf.transform import KeySampler, pp_layout

D, R, Q, BLOCKS = 8, 2, 4, 4
SAMPLER = KeySampler(pp_layout(D, 8, R, 8))
DIST = games.NonAdaptiveDistinguisher([BitString(i, D) for i in range(Q)],
                                      functools.partial(games._pack, r=R))
STREAMS = games.sample_streams(2024)


def _blocks():
    ws, codes = batch.Workspace(), []
    for block in islice(batch.blocks(256_000, Q), BLOCKS):
        ws.reset()
        codes.append(games._twin_values(SAMPLER, STREAMS, block, DIST, ws)[0])
    return codes


def test_uniformity_blocks(benchmark):
    codes = benchmark(_blocks)
    assert [len(c) for c in codes] == [8192] * BLOCKS
    assert all(c.max() < 1 << (R * Q) for c in codes)

import gc
import json
import tracemalloc
from functools import partial

from cuckooprf import batch, bits, cli, combine, experiments
from cuckooprf.bits import BitString, key_stream, mix64, truncate
from cuckooprf.batch import lazy_answers
from cuckooprf.combine import adw_eval
from cuckooprf.errors import ConfigurationError
from cuckooprf.prfcore import GgmKey, GgmOracle, LazyRandomOracle, LevinOracle, PrgSpec
from cuckooprf.transform import (
    adw_table_z,
    build_adaptive_from_nonadaptive,
    build_adw_adaptive_from_nonadaptive,
    lazy_random_sampler,
)
from spies import counting_sampler
from cuckooprf.experiments import (
    CSV_COLUMNS,
    adaptive_transform,
    adw_compare,
    birthday,
    ggm_kat,
    involution,
    kwise_verify,
    levin_sampler,
    rows_to_csv,
    rows_to_json,
    uniformity,
)

import numpy as np
import pytest

import random


def test_csv_column_order_is_contractual():
    assert CSV_COLUMNS == (
        "experiment", "n", "d", "s", "r", "k", "q", "z", "trials",
        "p_real", "p_ideal", "advantage", "stderr", "seed", "violations",
    )


def test_rows_to_csv_formatting():
    rows = [
        {"experiment": "demo", "n": 8, "d": None, "s": 8, "r": 2, "k": 2, "q": 4,
         "z": None, "trials": 10, "p_real": 0.5, "p_ideal": 0.25,
         "advantage": 0.25, "stderr": None, "seed": 1, "violations": 0},
    ]
    text = rows_to_csv(rows)
    lines = text.split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1] == "demo,8,,8,2,2,4,,10,0.5,0.25,0.25,,1,0"
    assert text.endswith("\n")
    assert "\r" not in text


def test_rows_to_csv_uses_repr_for_floats():
    rows = [
        {"experiment": "demo", "n": 1, "d": 1, "s": 1, "r": 1, "k": 1, "q": 1,
         "z": 1, "trials": 1, "p_real": 0.8624999999999999, "p_ideal": 0.1,
         "advantage": 0.1, "stderr": 0.1, "seed": 1, "violations": 0},
    ]
    assert "0.8624999999999999" in rows_to_csv(rows)


def test_rows_to_json_round_trips():
    rows, _ = kwise_verify(2, 1)
    parsed = json.loads(rows_to_json(rows))
    assert isinstance(parsed, list)
    assert parsed[0]["experiment"] == "kwise-verify"
    assert parsed[0]["z"] is None


def test_kwise_verify_enumerates_both_orders():
    rows, problems = kwise_verify(None, 7)
    assert problems == []
    assert [r["trials"] for r in rows] == [256, 4096]
    assert all(r["p_real"] == 1.0 and r["violations"] == 0 for r in rows)
    assert [r["k"] for r in rows] == [2, 3]
    assert all(r["n"] == 4 and r["d"] == 4 and r["r"] == 4 for r in rows)


def test_kwise_verify_propagates_policy_errors():
    with pytest.raises(ConfigurationError):
        kwise_verify(4, 7)


def test_levin_sampler_shape():
    sampler = levin_sampler(16, 8, 16, 4)
    o = sampler(random.Random(3))
    assert o.domain_bits == 16 and o.range_bits == 16
    assert isinstance(o, LevinOracle)


def test_birthday_rows_and_determinism():
    rows, problems = birthday(16, 8, 16, 16, 4, 1, 50, 801)
    assert problems == []
    assert [r["experiment"] for r in rows] == [
        "birthday-levin", "birthday-pp", "birthday-adw",
    ]
    levin, pp, adw = rows
    assert levin["k"] == 4 and pp["k"] == 4 and adw["k"] == 2
    assert levin["z"] is None and pp["z"] is None
    assert adw["z"] == 2 * 3 * 4  # table variant width for c=1, q=16
    for r in rows:
        assert r["n"] == 16 and r["d"] == 16 and r["s"] == 8 and r["q"] == 16
        assert r["trials"] == 50 and r["seed"] == 801 and r["violations"] == 0
    # the hash-then-query baseline collides, the combiners do not
    assert levin["advantage"] > 0.25
    assert pp["advantage"] < 0.15
    assert adw["advantage"] < 0.15
    again, _ = birthday(16, 8, 16, 16, 4, 1, 50, 801)
    assert again == rows


def test_birthday_and_adw_compare_never_fall_back_to_scalar(monkeypatch):
    from cuckooprf import batch

    batched = []
    answers = batch.batch_answers

    def spy(oracles, queries):
        matrix = answers(oracles, queries)
        batched.append(matrix is not None)
        return matrix

    monkeypatch.setattr(batch, "batch_answers", spy)
    birthday(16, 8, 16, 16, 4, 1, 20, 807)
    adw_compare(16, 8, 16, 16, 4, 1, 20, 808)
    # three constructions each, two worlds, one block of 20 trials per world
    assert batched == [True] * 12


def test_uniformity_row_shape():
    rows, problems = uniformity(8, 8, 1, 2, 2, 4000, 802)
    assert problems == []
    (row,) = rows
    assert row["experiment"] == "uniformity"
    assert row["q"] == 2 and row["trials"] == 4000
    assert row["stderr"] is None
    assert row["advantage"] == abs(row["p_real"] - row["p_ideal"])
    assert row["p_real"] >= 0.0 and row["p_ideal"] >= 0.0


def test_uniformity_rejects_oversized_query_sets():
    with pytest.raises(ConfigurationError):
        uniformity(4, 4, 1, 2, 17, 10**6, 1)


def test_ggm_kat_all_checks_pass():
    rows, problems = ggm_kat(5, 803)
    assert problems == []
    (row,) = rows
    assert row["experiment"] == "ggm-kat"
    assert row["trials"] == 9  # 4 fixed checks plus 5 prefix pairs
    assert row["p_real"] == 1.0
    assert row["violations"] == 0
    with pytest.raises(ConfigurationError):
        ggm_kat(0, 1)


def test_involution_rows():
    rows, problems = involution(6, 100, 804)
    assert problems == []
    adaptive, nonadaptive = rows
    assert adaptive["experiment"] == "involution-adaptive"
    assert nonadaptive["experiment"] == "involution-nonadaptive"
    assert adaptive["q"] == 2 and nonadaptive["q"] == 2
    assert adaptive["p_real"] == 1.0
    assert adaptive["advantage"] > 0.9
    assert nonadaptive["advantage"] < 0.05
    assert all(r["n"] == 6 and r["d"] == 6 and r["r"] == 6 for r in rows)


def test_adaptive_transform_locality():
    rows, problems = adaptive_transform(12, 16, 4, 300, 805)
    assert problems == []
    pp, adw = rows
    assert pp["experiment"] == "adaptive-transform-pp"
    assert adw["experiment"] == "adaptive-transform-adw"
    assert pp["violations"] == 0 and adw["violations"] == 0
    assert pp["p_real"] == 1.0 and adw["p_real"] == 1.0
    assert pp["q"] == 16
    assert adw["z"] == 2 * 3 * 4
    assert pp["trials"] == 300


def _spy_evaluators(monkeypatch) -> list:
    """Record, for each batch._ADW.inner_at call, the key, its evaluator
    and every point the evaluator is then asked."""
    inner_at, evaluators = batch._ADW.inner_at, []

    def spy(key, bits):
        evaluate, asked = inner_at(key, bits), []
        evaluators.append((key, evaluate, asked))
        return lambda xs: asked.extend(xs.tolist()) or evaluate(xs)

    monkeypatch.setattr(batch._ADW, "inner_at", spy)
    return evaluators


def _kind(key) -> str:
    """The evaluator inner_at gives a twin key: byte tables of an affine
    key, _Hashes.at at each call for any other."""
    return "tables" if key._affine() else "pointwise"


@pytest.mark.parametrize("probes", [1, 300, 1025])
def test_adaptive_transform_folds_each_target_once_and_probes_the_folds(monkeypatch, probes):
    """The speed path: each target's key is drawn on the numpy twin and
    its evaluator (batch._ADW.inner_at) made once, the pp key's and then
    the adw key's, the affine adw key's folded into byte tables, and
    every probe asks the evaluators, not the targets' oracles.
    adw-compare, which asks its probe oracles, makes none."""
    evaluators = _spy_evaluators(monkeypatch)
    rows, problems = adaptive_transform(16, 64, 12, probes, 2024)
    assert problems == [] and [r["trials"] for r in rows] == [probes, probes]
    assert [len(key.gbar.coeffs) if key.bars else 0 for key, _, _ in evaluators] == \
        [0, adw_table_z(experiments._ADAPTIVE_C, 64)]
    assert [_kind(key) for key, _, _ in evaluators] == ["pointwise", "tables"]
    assert [len(asked) for _, _, asked in evaluators] == [probes, probes]
    _, problems = adw_compare(16, 8, 16, 16, 4, 1, 10, 809)
    assert problems == [] and len(evaluators) == 2


def test_a_tallied_oracle_answers_as_a_lazy_random_oracle_of_one_word():
    tally = experiments._CallTally()
    rng, twin = key_stream(905, 1), key_stream(905, 1)
    oracle = tally(rng, 16, 12)
    reference = lazy_random_sampler(twin, 16, 12)
    assert isinstance(oracle, LazyRandomOracle) and oracle.seed == reference.seed
    xs = [0, 1, 0xBEEF, 0xFFFF, 1]
    assert [oracle.eval_int(x) for x in xs] == [reference.eval_int(x) for x in xs]
    # each drew exactly one word: the streams are still in step
    assert rng.getrandbits(64) == twin.getrandbits(64)
    assert tally.calls == 5


def test_a_tally_counts_queries_at_or_past_its_window_as_outside():
    # the probe loop's count, on one target's f1 and f2 rows of a round
    queries = np.array([[7, 9, 15], [8, 0, 3]], dtype=np.uint64)
    assert experiments._outside(queries, 8) == 3
    assert experiments._outside(queries[1], 8) == 1
    # a window of all 2^64 strings leaves nothing outside
    top = np.array([2**64 - 1, 2**63, 0], dtype=np.uint64)
    assert (experiments._outside(top, 1 << 64), experiments._outside(top, 1 << 63)) == (0, 2)


def test_a_repeated_outside_query_counts_as_outside_every_time():
    assert experiments._outside(np.array([9, 9, 3, 9, 3], dtype=np.uint64), 8) == 3


# Measured peaks (tracemalloc, Python 3.11) of adaptive_transform at the
# benchmark's shape: 114 KB at 500 probes and 114 KB at 4000, the two
# twin keys and the adw key's byte tables, the one reused buffer of
# _PROBE_CHUNK probe words and one round's arrays of _CHAINS points,
# whatever the probes.
# A warm-up run builds the caches both traced runs share.
PROBE_MEMORY_SLACK = 1.05


def test_adaptive_transform_memory_does_not_grow_with_probes():
    gc.disable()
    try:
        adaptive_transform(16, 64, 12, 8 * 500, 1)
        peaks = []
        for probes in (500, 8 * 500):
            tracemalloc.start()
            try:
                adaptive_transform(16, 64, 12, probes, 2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    finally:
        gc.enable()
    small, large = peaks
    assert large <= PROBE_MEMORY_SLACK * small


def test_probe_chunks_keep_no_tags_in_the_column_cache(monkeypatch):
    """The probe words are read in chunks of _PROBE_CHUNK words whose tags
    stream_words derives afresh each time, never through the cache."""
    asked = []
    column_tags = bits._column_tags
    monkeypatch.setattr(bits, "_column_tags", lambda cols: asked.append(cols) or column_tags(cols))
    adaptive_transform(12, 16, 4, 2 * experiments._PROBE_CHUNK + 1, 3)
    assert experiments._PROBE_CHUNK >= bits._CACHED_COLUMNS
    assert asked and all(len(cols) < bits._CACHED_COLUMNS for cols in asked)


def test_each_adaptive_target_replays_its_own_chain_through_adw_eval(monkeypatch):
    """With fewer probes than chains, and with a last round of fewer
    chains than the others, each target's chains replay through adw_eval."""
    for probes in (5, 3 * experiments._CHAINS + 17):
        _assert_the_chains_replay(monkeypatch, probes)


def test_the_probe_chains_replay_across_a_chunk_boundary(monkeypatch):
    """A chunk of probe words holds whole rounds; past the first, each
    round reads the next words of the one stream, as a sequential read
    does."""
    assert experiments._PROBE_CHUNK % experiments._CHAINS == 0
    _assert_the_chains_replay(monkeypatch, experiments._PROBE_CHUNK + 3)


def _assert_the_chains_replay(monkeypatch, probes: int):
    """Each target's twin key gets its evaluator once (batch._ADW.inner_at:
    _Hashes.at for the pp key at k = 4, byte tables for the affine adw
    key), and its probes are R = min(probes, _CHAINS) chains, probe i
    being step i // R of chain i mod R, chain r starting at r. R
    sequential replays through adw_eval, stepped round by round on keys
    that the builders draw with counting_sampler, ask each target's f1
    and f2 what the one lazy_answers call of each round asks them, in
    order, at exactly 2 calls per probe. adw-compare, which asks its
    probe keys, makes no evaluator."""
    asked = []

    def spy(seeds, queries, *args):
        asked.append((seeds.tolist(), queries.tolist()))  # before the answers overwrite them
        return lazy_answers(seeds, queries, *args)

    monkeypatch.setattr(experiments, "lazy_answers", spy)
    evaluators = _spy_evaluators(monkeypatch)
    n, q, k, seed = 12, 16, 4, 812
    rows, problems = adaptive_transform(n, q, k, probes, seed)
    assert problems == [] and [r["trials"] for r in rows] == [probes, probes]
    assert [_kind(key) for key, _, _ in evaluators] == ["pointwise", "tables"]
    assert [len(asked_points) for _, _, asked_points in evaluators] == [probes, probes]
    builders = (partial(build_adaptive_from_nonadaptive, n, q, k),
                partial(build_adw_adaptive_from_nonadaptive, n, q, experiments._ADAPTIVE_C))
    seen = [[] for _ in builders]
    keys = [build(key_stream(seed, experiments._PROBE_TAG, idx), counting_sampler(fs))
            for idx, (build, fs) in enumerate(zip(builders, seen))]
    chains = min(probes, experiments._CHAINS)
    words, xs = key_stream(seed, experiments._PROBE_TAG), [list(range(chains)) for _ in keys]
    for start in range(0, probes, chains):
        step = [words.getrandbits(64) for _ in range(min(chains, probes - start))]
        for key, chain in zip(keys, xs):
            for r, word in enumerate(step):
                chain[r] = truncate(mix64(adw_eval(key, chain[r]) ^ word), n)
    assert len(asked) == -(-probes // chains)
    assert all(seeds == [f.inner.seed for fs in seen for f in fs] for seeds, _ in asked)
    for idx, fs in enumerate(seen):
        assert [f.calls for f in fs] == [probes, probes]
        assert [[x for _, queries in asked for x in queries[2 * idx + j]] for j in (0, 1)] == \
            [f.queries for f in fs]
    _, problems = adw_compare(16, 8, 16, 16, 4, 1, 10, 809)
    assert problems == [] and len(evaluators) == 2


def _narrow_the_window(monkeypatch):
    """The probe loop's count (_outside) takes half the window it is
    given, so the adaptive builders' 4q window is wider than the one
    counted."""
    outside = experiments._outside
    monkeypatch.setattr(experiments, "_outside",
                        lambda queries, window: outside(queries, window // 2))


def test_adaptive_transform_reports_queries_outside_the_window(monkeypatch):
    _narrow_the_window(monkeypatch)
    rows, problems = adaptive_transform(12, 16, 4, 300, 805)
    assert all(r["violations"] > 0 and r["p_real"] < 1.0 for r in rows)
    assert problems == [f"{r['experiment']}: {r['violations']} of {2 * 300} underlying "
                        "queries left the 4q prefix" for r in rows]


def test_cli_exits_1_when_queries_leave_the_window(monkeypatch, capsys):
    _narrow_the_window(monkeypatch)
    argv = ["adaptive-transform", "--n", "12", "--q", "16", "--k", "4", "--probes", "100"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[:2] for line in err] == [
        ["assertion failed", " adaptive-transform-pp"],
        ["assertion failed", " adaptive-transform-adw"]]


def test_bitstrings_are_built_only_at_oracle_query(monkeypatch):
    built = []
    post_init = BitString.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    x = BitString(0x2A, 10)
    oracle = GgmOracle(GgmKey(0xCAFE, 10, PrgSpec("mix64", 16)))
    monkeypatch.setattr(BitString, "__post_init__", counting_post_init)
    y = oracle.query(x)
    assert built == [y]  # the answer, and nothing on the tree walk

    built.clear()
    adaptive_transform(16, 64, 12, 50, 807)
    assert built == []


def test_adw_compare_rows_and_call_costs():
    rows, problems = adw_compare(16, 8, 16, 16, 4, 1, 30, 806)
    assert problems == []
    pp, prf, table = rows
    assert pp["experiment"] == "adw-compare-pp"
    assert prf["experiment"] == "adw-compare-prf"
    assert table["experiment"] == "adw-compare-table"
    assert pp["z"] == 0
    assert prf["z"] == 6
    assert table["z"] == 24
    assert pp["k"] == 4 and prf["k"] == 2 and table["k"] == 2
    for r in rows:
        assert r["advantage"] < 0.2
        assert r["trials"] == 30


def test_adw_compare_counts_calls_past_the_fold(monkeypatch):
    # each probe key answers by its eval_int, adw_eval, so an extra
    # underlying call made there must show as a problem for all three
    evaluate = combine.ADWKey.eval_int

    def one_more_f1_call(key, x):
        key.f1.eval_int(0)
        return evaluate(key, x)

    monkeypatch.setattr(combine.ADWKey, "eval_int", one_more_f1_call)
    _, problems = adw_compare(16, 8, 16, 16, 4, 1, 10, 809)
    assert problems == ["adw-compare-pp: 3 underlying calls per query, expected 2",
                        "adw-compare-prf: 21 underlying calls per query, expected 20",
                        "adw-compare-table: 3 underlying calls per query, expected 2"]

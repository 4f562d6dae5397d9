import json

from cuckooprf.bits import BitString
from cuckooprf.errors import ConfigurationError
from cuckooprf.prfcore import GgmKey, GgmOracle, LevinOracle, PrgSpec
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
    rows, _ = kwise_verify(4, (2,), 1)
    parsed = json.loads(rows_to_json(rows))
    assert isinstance(parsed, list)
    assert parsed[0]["experiment"] == "kwise-verify"
    assert parsed[0]["z"] is None


def test_kwise_verify_enumerates_both_orders():
    rows, problems = kwise_verify(4, (2, 3), 7)
    assert problems == []
    assert [r["trials"] for r in rows] == [256, 4096]
    assert all(r["p_real"] == 1.0 and r["violations"] == 0 for r in rows)
    assert [r["k"] for r in rows] == [2, 3]
    assert all(r["n"] == 4 and r["d"] == 4 and r["r"] == 4 for r in rows)


def test_kwise_verify_propagates_policy_errors():
    with pytest.raises(ConfigurationError):
        kwise_verify(8, (2,), 7)


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
    # the probe's last query is the first a table adw answers folded, so
    # an extra underlying call made only there must show as a problem
    from cuckooprf import combine

    folded_call = combine._FoldedADW.__call__

    def one_more_f1_call(self, x):
        self.f1.eval_int(0)
        return folded_call(self, x)

    monkeypatch.setattr(combine._FoldedADW, "__call__", one_more_f1_call)
    _, problems = adw_compare(16, 8, 16, 16, 4, 1, 10, 809)
    assert problems == ["adw-compare-table: 3 underlying calls per query, expected 2"]

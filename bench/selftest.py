"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Part one feeds the unit check outputs with known defects and a correct
output per workload, and lists every verdict that comes out wrong; run.py
repeats it before each run and refuses to measure with a broken check.
Part two runs every workload briefly in both modes and checks that the
result line carries every metric this benchmark promises, with the unit
BENCHMARK.json gives it. It takes about two minutes.
"""

from __future__ import annotations

import csv
import io
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from workloads import COLUMNS, WORKLOADS, UnitResult, birthday_closed_form, check_unit

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = ("answers_per_s", "setup_s", "peak_rss_mb")
PER_LAYER = (
    "bits.self_s", "bits.bitstring_new", "bits.derive_seed_calls",
    "gf.self_s", "gf.mul_calls",
    "hashfam.self_s", "hashfam.sample_calls", "hashfam.eval_calls",
    "prfcore.self_s", "prfcore.lazy_calls", "prfcore.memo_hit_frac",
    "combine.self_s", "combine.evals", "combine.keys",
    "transform.self_s", "transform.builds",
    "batch.self_s", "batch.batched_frac", "batch.const_mul_builds",
    "batch.const_mul_hit_frac",
    "games.self_s", "games.decide_s", "games.sd_s",
    "experiments.self_s",
    "stage.sample_s", "stage.eval_s", "stage.decide_s", "stage.rng_constructions",
    "trace.overhead_s",
)


def _csv(rows) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def _good_rows(w) -> list[dict]:
    """Rows a correct program could print for one unit of w."""
    fields = {"trials": w.unit_size, "seed": 7, "violations": 0, "stderr": ""}
    if w.name == "birthday":
        levin = birthday_closed_form(w.flag("--q"), w.flag("--s"))
        return [
            {**fields, "experiment": "birthday-levin", "p_real": levin, "p_ideal": 0.0,
             "advantage": levin, "stderr": 0.022},
            {**fields, "experiment": "birthday-pp", "p_real": 0.004, "p_ideal": 0.0,
             "advantage": 0.004, "stderr": 0.004},
            {**fields, "experiment": "birthday-adw", "p_real": 0.0, "p_ideal": 0.0,
             "advantage": 0.0, "stderr": 0.0},
        ]
    if w.name == "uniformity":
        return [{**fields, "experiment": "uniformity", "p_real": 0.0131, "p_ideal": 0.0126,
                 "advantage": 0.0005}]
    return [{**fields, "experiment": name, "p_real": 1.0, "p_ideal": 1.0, "advantage": 0.0}
            for name in w.experiments]


def _defects(w):
    """(label, exit code, stderr, error, rows) of outputs that must fail."""
    good = _good_rows(w)

    def edit(index, **cols):
        rows = [dict(row) for row in good]
        rows[index].update(cols)
        return rows

    yield "violations=1", 0, "", None, edit(0, violations=1)
    yield "nonzero exit", 1, "assertion failed: a check\n", None, good
    yield "exit 2", 2, "configuration error: bad\n", None, []
    yield "assertion line", 0, "assertion failed: a check\n", None, good
    yield "raised", None, "", "ValueError: broken", []
    yield "missing row", 0, "", None, good[:-1]
    yield "wrong trials", 0, "", None, edit(0, trials=w.unit_size + 1)
    yield "unreadable field", 0, "", None, edit(0, p_real="nan?")
    if w.name == "birthday":
        yield "levin advantage outside its band", 0, "", None, edit(0, p_real=0.5, advantage=0.5)
        yield "pp advantage outside its band", 0, "", None, edit(1, p_real=0.1, advantage=0.1)
    if w.name == "uniformity":
        yield "distance above baseline", 0, "", None, edit(0, p_real=0.0177, advantage=0.0051)
    if w.name == "adaptive":
        yield "a query outside 4q", 0, "", None, edit(1, p_real=0.999)


def checker_problems() -> list[str]:
    """Every case where the unit check gives the wrong verdict."""
    wrong = []
    for w in WORKLOADS.values():
        good = UnitResult(0, _csv(_good_rows(w)), "", None, 1.0)
        if check_unit(w, good):
            wrong.append(f"{w.name}: correct output rejected: {check_unit(w, good)}")
        for label, code, stderr, error, rows in _defects(w):
            bad = replace(good, exit_code=code, stderr=stderr, error=error, stdout=_csv(rows))
            if not check_unit(w, bad):
                wrong.append(f"{w.name}: {label} accepted")
    return wrong


def emission_problems(seconds: int = 1) -> list[str]:
    """Run every workload in both modes; list every promised metric that
    is missing or carries another unit than BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wrong = []
    for trace, key, promised in ((0, "end_to_end", END_TO_END), (1, "per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        wrong += [f"{name} not declared in BENCHMARK.json {key}"
                  for name in promised if name not in declared]
        for name in WORKLOADS:
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", name,
                   "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            if done.returncode != 0:
                wrong.append(f"{name} trace={trace}: exit {done.returncode}: {done.stderr}")
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"]:
                wrong.append(f"{name} trace={trace}: correct is false: {done.stderr}")
            for metric, unit in declared.items():
                got = result["metrics"].get(metric)
                if got is None or got["unit"] != unit:
                    wrong.append(f"{name} trace={trace}: {metric} is {got}, unit {unit}")
    return wrong


def main() -> int:
    wrong = checker_problems()
    print(f"unit check: {'ok' if not wrong else 'BROKEN'}")
    if not wrong:
        wrong = emission_problems()
        print(f"metric emission: {'ok' if not wrong else 'BROKEN'}")
    for line in wrong:
        print("  " + line)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())

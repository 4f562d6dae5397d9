"""The benchmark's workloads, one unit of work each, and the unit check.

A unit is one call of the public entry point cuckooprf.cli.main with the
workload's fixed shape, a fixed size and a seed drawn from the run's
seed. The check reads only the CSV rows, the exit code and stderr, and
its expected values are computed here, not taken from the package.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

COLUMNS = ("experiment", "n", "d", "s", "r", "k", "q", "z", "trials",
           "p_real", "p_ideal", "advantage", "stderr", "seed", "violations")

# A game row may miss its expected value by this many of its own binomial
# standard errors. The band narrows as the trial count grows, and at 6
# a correct program fails it about once in 10^9 rows.
STDERR_MULTIPLE = 6.0
# The pp output tuple may sit this far above the uniform baseline's
# distance; the same margin as the acceptance suite at 10^6 samples.
UNIFORMITY_MARGIN = 0.005


@dataclass(frozen=True)
class UnitResult:
    exit_code: int | None
    stdout: str
    stderr: str
    error: str | None
    seconds: float


def call_cli(argv, runner=None) -> UnitResult:
    """Run cuckooprf.cli.main(argv) with its output captured.

    runner(fn, *args) calls fn; a tracer passes its own to observe the call.
    """
    from cuckooprf import cli

    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = runner(cli.main, list(argv)) if runner else cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a unit that raises is counted as failed
            error = traceback.format_exc()
    return UnitResult(code, out.getvalue(), err.getvalue(), error, perf_counter() - start)


def birthday_closed_form(q: int, bits: int) -> float:
    """Collision probability of q uniform draws from 2^bits values."""
    return 1.0 - math.exp(-q * (q - 1) / 2.0 ** (bits + 1))


@dataclass(frozen=True)
class Workload:
    name: str
    shape: tuple[str, ...]        # subcommand and shape flags
    size_flag: str
    unit_size: int
    setup_flags: tuple[str, ...]  # smallest call of the same shape
    experiments: tuple[str, ...]  # row names a unit must print, in order
    answers_per_size: int         # oracle answers per unit of size
    check_row: Callable[[dict, "Workload"], list[str]]

    def argv(self, seed: int) -> list[str]:
        return [*self.shape, self.size_flag, str(self.unit_size), "--seed", str(seed)]

    def setup_argv(self, seed: int) -> list[str]:
        return [*self.shape, *self.setup_flags, "--seed", str(seed)]

    @property
    def answers_per_unit(self) -> int:
        return self.answers_per_size * self.unit_size

    def flag(self, name: str) -> int:
        return int(self.shape[self.shape.index(name) + 1])


def unit_seeds(seed: int):
    """Endless stream of unit seeds, a pure function of the run's seed."""
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(32)


def _floats(row: dict, *names: str) -> list[float]:
    return [float(row[name]) for name in names]


def _check_birthday_row(row: dict, w: Workload) -> list[str]:
    p_real, advantage, stderr = _floats(row, "p_real", "advantage", "stderr")
    band = STDERR_MULTIPLE * stderr
    if row["experiment"] == "birthday-levin":
        expected = birthday_closed_form(w.flag("--q"), w.flag("--s"))
        if abs(p_real - expected) > band:
            return [f"levin p_real {p_real} is more than {band:.4g} from the "
                    f"closed form {expected:.4f}"]
    elif advantage > band:
        return [f"{row['experiment']} advantage {advantage} exceeds {band:.4g}"]
    return []


def _check_uniformity_row(row: dict, w: Workload) -> list[str]:
    p_real, p_ideal = _floats(row, "p_real", "p_ideal")
    if p_real > p_ideal + UNIFORMITY_MARGIN:
        return [f"tuple distance {p_real} exceeds baseline {p_ideal} + {UNIFORMITY_MARGIN}"]
    return []


def _check_adaptive_row(row: dict, w: Workload) -> list[str]:
    (p_real,) = _floats(row, "p_real")
    if p_real != 1.0:
        return [f"{row['experiment']} kept only {p_real} of its queries inside 4q"]
    return []


def check_unit(w: Workload, result: UnitResult) -> list[str]:
    """Every reason the unit's output is wrong; empty when it is right."""
    if result.error is not None:
        return [f"raised {result.error}"]
    problems = []
    if result.exit_code != 0:
        problems.append(f"exit code {result.exit_code}")
    problems += [line for line in result.stderr.splitlines()
                 if line.startswith("assertion failed:")]
    reader = csv.DictReader(io.StringIO(result.stdout))
    if tuple(reader.fieldnames or ()) != COLUMNS:
        return problems + [f"header {reader.fieldnames}"]
    rows = list(reader)
    names = tuple(row["experiment"] for row in rows)
    if names != w.experiments:
        return problems + [f"rows {names}, expected {w.experiments}"]
    for row in rows:
        try:
            if int(row["violations"]) != 0:
                problems.append(f"{row['experiment']} violations={row['violations']}")
            if int(row["trials"]) != w.unit_size:
                problems.append(f"{row['experiment']} trials={row['trials']}")
            problems += w.check_row(row, w)
        except ValueError as exc:
            problems.append(f"{row['experiment']}: unreadable field ({exc})")
    return problems


# Shapes are fixed by what each workload is for (see README.md); sizes
# make one unit take a fraction of a second, or the smallest sample
# count the uniformity estimator accepts at this shape.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="birthday",
        shape=("birthday", "--d", "24", "--s", "12", "--r", "24", "--q", "128",
               "--k", "16", "--c", "1"),
        size_flag="--trials", unit_size=250,
        setup_flags=("--trials", "1"),
        experiments=("birthday-levin", "birthday-pp", "birthday-adw"),
        answers_per_size=3 * 2 * 128,  # three constructions, two worlds, q queries
        check_row=_check_birthday_row,
    ),
    Workload(
        name="uniformity",
        shape=("uniformity", "--d", "8", "--s", "8", "--r", "2", "--k", "8",
               "--queries", "4"),
        size_flag="--samples", unit_size=256_000,
        # the estimator needs 1000 samples per output tuple, so the
        # smallest call keeps the fields and shrinks the tuple to 1 query
        setup_flags=("--queries", "1", "--samples", "4000"),
        experiments=("uniformity",),
        answers_per_size=4,  # one real-world answer per query
        check_row=_check_uniformity_row,
    ),
    Workload(
        name="adaptive",
        shape=("adaptive-transform", "--n", "16", "--q", "64", "--k", "12"),
        size_flag="--probes", unit_size=1000,
        # the first probe is input 0, which multiplies without the tables
        setup_flags=("--probes", "2"),
        experiments=("adaptive-transform-pp", "adaptive-transform-adw"),
        answers_per_size=2,  # the pp and the adw wrapper answer every probe
        check_row=_check_adaptive_row,
    ),
)}

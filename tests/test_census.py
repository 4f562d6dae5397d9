"""What the package's entry points run, each in a fresh interpreter.

The census: every def under src/cuckooprf is entered by the CLI
commands below, or stands on UNENTERED with the reason the CLI never
enters it and the test that checks it. So code that nothing but its
own test uses fails here, as does an UNENTERED line whose def the CLI
now enters or that no longer exists. The interpreter must be fresh,
with the profile hook installed before the package is imported: a warm
process hides the defs whose results are cached (lru_cache), such as
gf._is_irreducible, which only the first call of a process enters.

A def is keyed by its file, its first line (its first decorator's, as
in co_firstlineno) and its name, all of which Python 3.10 code objects
have, and it is named for the messages by the classes and defs it is
nested in, read from the source.

The README's Quick start is the documented library entry point: its
python block must run and print its answer's 24 bits.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from cuckooprf import cli
from test_cli import SMALL_ARGV

PACKAGE = Path(cli.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
ENV = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))

# module.qualified name -> (why the CLI never enters it, the test that does)
UNENTERED = {
    "bits.KeyStream.seed": (
        "refuses a reseed, which no builder asks of a key stream",
        "test_bits.py::test_key_stream_rejects_what_it_cannot_do"),
    "bits.BitString.to01": (
        "builds QueryGuard's repeated-query message, which no CLI distinguisher triggers",
        "test_games.py::test_repeated_query_is_a_violation"),
    "combine.is_affine": (
        "the scalar reference of the twin's batch._ADW._affine",
        "test_properties.py::test_pp_keys_fold_at_k_2_and_answer_as_pp"),
    "games.Distinguisher.run": (
        "abstract: every CLI distinguisher overrides it",
        "test_games.py::test_the_base_distinguisher_runs_nothing"),
    "prfcore.Oracle.eval_int": (
        "abstract: every CLI oracle overrides it",
        "test_prfcore.py::test_the_base_oracle_answers_nothing"),
    "prfcore.LevinOracle.__init__": (
        "the scalar reference of the twin's batch._Levin",
        "test_properties.py::test_levin_scalar_equals_batched"),
    "prfcore.LevinOracle.eval_int": (
        "the scalar reference of the twin's batch._Levin",
        "test_properties.py::test_levin_scalar_equals_batched"),
    "transform.KeyDraws.levin": (
        "the scalar reference of the twin's batch._Levin",
        "test_properties.py::test_levin_scalar_equals_batched"),
    "transform.build_prg_prf": (
        "the PRG-to-PRF pipeline, which no subcommand runs yet",
        "test_acceptance.py::test_criterion_7_call_count_accounting"),
    "transform.build_prg_prf.<locals>.ggm_sampler": (
        "the PRG-to-PRF pipeline, which no subcommand runs yet",
        "test_acceptance.py::test_criterion_7_call_count_accounting"),
}

# Runs every command in one process, the profile hook installed before
# cuckooprf is imported, and prints the exit codes and the code objects
# entered, as (file, first line, name).
_CENSUS = """\
import json, os, sys
entered = set()

def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.setprofile(hook)
from cuckooprf import cli
out, sys.stdout = sys.stdout, open(os.devnull, "w")
rcs = [cli.main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
print(json.dumps([rcs, [(c.co_filename, c.co_firstlineno, c.co_name) for c in entered]]),
      file=out)
"""


def _census_argv(tmp_path):
    """The SMALL_ARGV commands; adw-compare over GF(2^32), whose scalar
    multiplier is gf._mul_raw; adaptive-transform over GF(2^32), whose
    keys fold_adw folds pointwise; and ggm-kat through --config, --out
    and --format json."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"experiment": "ggm-kat", "pairs": 3}))
    return [*SMALL_ARGV.values(),
            ["adw-compare", "--d", "24", "--s", "12", "--r", "24", "--q", "16", "--k", "4",
             "--trials", "10"],
            ["adaptive-transform", "--n", "32", "--q", "4", "--k", "3", "--probes", "2"],
            ["ggm-kat", "--pairs", "2", "--config", str(config)],
            ["ggm-kat", "--pairs", "2", "--out", str(tmp_path / "rows.csv")],
            ["ggm-kat", "--pairs", "2", "--format", "json"]]


def _defs():
    """(file, first line, name) -> module.qualified name, for every def
    under the package."""
    found = {}

    def visit(node, path, prefix, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found[path, line, child.name] = f"{module}.{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.<locals>.", module)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.", module)
            else:
                visit(child, path, prefix, module)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), str(path), "", path.stem)
    return found


def _test_exists(ref: str) -> bool:
    file, name = ref.split("::")
    return any(isinstance(node, ast.FunctionDef) and node.name == name
               for node in ast.walk(ast.parse((TESTS / file).read_text())))


def test_every_def_is_entered_by_the_cli_or_has_a_reason(tmp_path):
    argv = _census_argv(tmp_path)
    proc = subprocess.run([sys.executable, "-c", _CENSUS, json.dumps(argv)],
                          capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    rcs, entered = json.loads(proc.stdout)
    assert rcs == [0] * len(argv), proc.stderr
    entered = {(str(Path(file).resolve()), line, name) for file, line, name in entered}
    defs = _defs()
    unentered = {name for key, name in defs.items() if key not in entered}
    unexplained = sorted(unentered - set(UNENTERED))
    stale = sorted(set(UNENTERED) - unentered)  # entered, or no longer defined
    assert (unexplained, stale) == ([], []), "(unentered defs without a reason, stale lines)"
    assert [name for name, (reason, test) in UNENTERED.items()
            if not reason or not _test_exists(test)] == []


def test_readme_quick_start_prints_24_bits():
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    quick_start = readme.split("\n## Quick start\n")[1].split("\n## ")[0]
    code = re.search(r"```python\n(.*?)```", quick_start, re.S).group(1)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(r"[01]{24}\n", proc.stdout), proc.stdout

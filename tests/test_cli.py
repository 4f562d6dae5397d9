import argparse
import contextlib
import importlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuckooprf import cli
from cuckooprf.experiments import CSV_COLUMNS

HEADER = ",".join(CSV_COLUMNS)


def test_kwise_verify_stdout_csv(capsys):
    rc = cli.main(["kwise-verify"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == HEADER
    assert len(lines) == 3  # k = 2 and k = 3
    assert lines[1].startswith("kwise-verify,4,4,")


def test_kwise_verify_json_format(capsys):
    rc = cli.main(["kwise-verify", "--format", "json", "--k", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert rows[0]["k"] == 2
    assert rows[0]["trials"] == 256


def test_infeasible_width_exits_2(tmp_path, capsys):
    # kwise-verify enumerates GF(2^4) only, and takes no width, not even 4
    for width in ("4", "8"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["kwise-verify", "--width", width])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --width {width}" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"width": 4}))
    rc = cli.main(["kwise-verify", "--config", str(cfg)])
    assert capsys.readouterr().err == ("configuration error: "
                                       "unknown config key 'width' for kwise-verify\n")
    assert rc == 2


def test_seed_default_and_override(capsys):
    cli.main(["ggm-kat", "--pairs", "3"])
    default_run = capsys.readouterr().out
    assert ",2024," in default_run.split("\n")[1]
    cli.main(["ggm-kat", "--pairs", "3", "--seed", "9"])
    seeded_run = capsys.readouterr().out
    assert ",9," in seeded_run.split("\n")[1]


def test_out_files_are_byte_identical_across_runs(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["birthday", "--d", "16", "--s", "8", "--r", "16", "--q", "16",
            "--k", "4", "--trials", "25", "--seed", "77"]
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.split("\n")[0] == HEADER
    assert "\r" not in text
    assert text.endswith("\n")


def test_out_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "r.csv"
    cli.main(["involution", "--n", "6", "--trials", "40", "--out", str(path)])
    capsys.readouterr()
    cli.main(["involution", "--n", "6", "--trials", "40"])
    out = capsys.readouterr().out
    assert path.read_text() == out


def test_config_file_overrides_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"experiment": "birthday", "q": 16, "trials": 10, "master_seed": 5,
         "d": 16, "s": 8, "r": 16, "k": 4}
    ))
    rc = cli.main(["birthday", "--q", "32", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "config file overrides --q: 32 -> 16" in captured.err
    assert "config file overrides --seed: 2024 -> 5" in captured.err
    data_rows = captured.out.strip().split("\n")[1:]
    for line in data_rows:
        cells = line.split(",")
        assert cells[CSV_COLUMNS.index("q")] == "16"
        assert cells[CSV_COLUMNS.index("seed")] == "5"


def test_config_matching_value_prints_no_notice(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "ggm-kat", "pairs": 3}))
    rc = cli.main(["ggm-kat", "--pairs", "3", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "overrides" not in captured.err


def test_config_for_wrong_experiment_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "uniformity"}))
    rc = cli.main(["birthday", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "configuration error:" in err


def test_config_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "ggm-kat", "width": 4}))
    rc = cli.main(["ggm-kat", "--config", str(cfg)])
    assert rc == 2
    capsys.readouterr()


def test_config_rejects_non_scalar_values(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "ggm-kat", "pairs": True}))
    assert cli.main(["ggm-kat", "--config", str(cfg)]) == 2
    cfg.write_text(json.dumps({"experiment": "ggm-kat", "pairs": [1]}))
    assert cli.main(["ggm-kat", "--config", str(cfg)]) == 2
    cfg.write_text(json.dumps([1, 2]))
    assert cli.main(["ggm-kat", "--config", str(cfg)]) == 2
    capsys.readouterr()


def test_failed_checks_exit_1(monkeypatch, capsys):
    monkeypatch.setattr(
        "cuckooprf.experiments.ggm_kat", lambda pairs, seed: ([], ["forced failure"])
    )
    rc = cli.main(["ggm-kat"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "assertion failed: forced failure" in captured.err


# one cheap run of each subcommand
SMALL_ARGV = {
    "kwise-verify": ["kwise-verify", "--k", "2"],
    "birthday": ["birthday", "--d", "16", "--s", "8", "--r", "16", "--q", "16",
                 "--k", "4", "--trials", "10"],
    "uniformity": ["uniformity", "--d", "8", "--s", "8", "--r", "1", "--k", "2",
                   "--queries", "2", "--samples", "4000"],
    "ggm-kat": ["ggm-kat", "--pairs", "2"],
    "involution": ["involution", "--n", "6", "--trials", "20"],
    "adaptive-transform": ["adaptive-transform", "--n", "12", "--q", "16", "--k", "4",
                           "--probes", "100"],
    "adw-compare": ["adw-compare", "--d", "16", "--s", "8", "--r", "16", "--q", "16",
                    "--k", "4", "--trials", "10"],
}


def test_no_subcommand_imports_numpy_random():
    # every random draw is a mix64 word, so one process running every
    # subcommand never loads numpy's generators
    code = ("import json, sys\n"
            "from cuckooprf import cli\n"
            "rcs = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([rcs, 'numpy.random' in sys.modules]), file=sys.stderr)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(list(SMALL_ARGV.values()))],
                          capture_output=True, text=True, env=env)
    assert json.loads(proc.stderr) == [[0] * len(SMALL_ARGV), False], proc.stderr


def test_every_subcommand_runs_small(capsys):
    for args in SMALL_ARGV.values():
        rc = cli.main(args)
        out = capsys.readouterr().out
        assert rc == 0, args
        assert out.split("\n")[0] == HEADER


def test_subcommands_golden_rows_and_driver_parameters_agree():
    # the parser, SMALL_ARGV and tests/golden name one set of subcommands,
    # and each subcommand's driver takes exactly its options but those of
    # the front end
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    goldens = {path.stem for path in (Path(__file__).parent / "golden").glob("*.csv")}
    assert set(sub.choices) == set(SMALL_ARGV) == goldens
    for command in sub.choices:
        options = set(cli._options(parser, command)) - {"help", "out", "format", "config"}
        assert set(inspect.signature(cli.driver(command)).parameters) == options, command


# every config key of every subcommand, and keys that none of them has
_CONFIG_KEYS = st.one_of(
    st.sampled_from(sorted({"experiment", "master_seed"}.union(
        *(cli._options(cli.build_parser(), command) for command in SMALL_ARGV)))),
    st.text(max_size=6))
_NOT_INTS = st.one_of(
    st.text(max_size=6), st.floats(), st.booleans(), st.none(),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(SMALL_ARGV)),
       st.dictionaries(_CONFIG_KEYS, _NOT_INTS, min_size=1, max_size=3))
@example("ggm-kat", {"out": "a\x00b"})  # a NUL in the output path
@example("kwise-verify", {"k": None, "format": "json"})
@example("birthday", {"out": "rows.csv", "experiment": "birthday"})
def test_config_values_that_are_not_ints_exit_0_or_2(command, cfg):
    # a config of str, float, bool, null, list and object values, and of
    # keys the subcommand does not have, runs (exit 0) or is refused
    # (exit 2), and never ends in a traceback. It runs in a directory of
    # its own, where a str "out" writes its file.
    cwd, out, err = os.getcwd(), io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "cfg.json").write_text(json.dumps(cfg))
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main([*SMALL_ARGV[command], "--config", "cfg.json"])
        finally:
            os.chdir(cwd)
    assert rc in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    # a str value's control characters are printed escaped
    assert not re.search(r"[\x00-\x09\x0b-\x1f\x7f]", err.getvalue()), err.getvalue()
    if rc == 2:
        _assert_configuration_error(rc, err.getvalue())


def test_a_config_path_with_a_nul_cannot_be_read(capsys):
    rc = cli.main(["ggm-kat", "--pairs", "2", "--config", "a\x00b"])
    err = capsys.readouterr().err
    _assert_configuration_error(rc, err)
    assert "configuration error: cannot read config file" in err


# CSV bytes of three small runs at the default seed, pinned before the
# affine fold of adw keys: both fold paths (scalar from the first probe,
# numpy at q = 128 > u+1 = 8 basis points of the 7 bits its queries
# use) must leave every row as it was.
GOLDEN_ROWS = {
    ("adaptive-transform", "--probes", "300"): """\
adaptive-transform-pp,16,16,16,16,12,64,,300,1.0,1.0,0.0,,2024,0
adaptive-transform-adw,16,16,16,16,2,64,36,300,1.0,1.0,0.0,,2024,0
""",
    ("birthday", "--trials", "60"): """\
birthday-levin,24,24,12,24,16,128,,60,0.8166666666666667,0.0,0.8166666666666667,0.04995368225036439,2024,0
birthday-pp,24,24,12,24,16,128,,60,0.0,0.0,0.0,0.0,2024,0
birthday-adw,24,24,12,24,2,128,42,60,0.0,0.0,0.0,0.0,2024,0
""",
    ("adw-compare", "--trials", "60"): """\
adw-compare-pp,24,24,12,24,16,128,0,60,0.0,0.0,0.0,0.0,2024,0
adw-compare-prf,24,24,12,24,2,128,6,60,0.0,0.0,0.0,0.0,2024,0
adw-compare-table,24,24,12,24,2,128,42,60,0.0,0.0,0.0,0.0,2024,0
""",
    # grids at w = 16 that keep fewer bits than the field: uint8 tables
    # (uniformity, 2 points; birthday's 8-bit h1 and h2 at 4 points)
    # and uint16 ones (birthday's 16-bit g)
    ("uniformity", "--d", "16", "--s", "8", "--r", "2", "--k", "5", "--queries", "2",
     "--samples", "16000"): """\
uniformity,16,16,8,2,5,2,,16000,0.01618749999999999,0.016000000000000007,0.00018749999999998282,,2024,0
""",
    ("birthday", "--d", "16", "--s", "8", "--r", "16", "--q", "4", "--k", "5",
     "--trials", "200"): """\
birthday-levin,16,16,8,16,5,4,,200,0.035,0.0,0.035,0.012995191418367026,2024,0
birthday-pp,16,16,8,16,5,4,,200,0.0,0.0,0.0,0.0,2024,0
birthday-adw,16,16,8,16,2,4,12,200,0.0,0.0,0.0,0.0,2024,0
""",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_ROWS))
def test_golden_rows(argv, capsys):
    assert cli.main(list(argv)) == 0
    captured = capsys.readouterr()
    assert captured.out == HEADER + "\n" + GOLDEN_ROWS[argv]
    assert captured.err == ""


def test_console_script_entry_point_prints_the_golden_rows(capsys):
    # pyproject.toml read as text: Python 3.10 has no tomllib
    root = Path(__file__).resolve().parents[1]
    text = (root / "pyproject.toml").read_text()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    (module, attr), = re.findall(r'^cuckooprf\s*=\s*"([\w.]+):(\w+)"', section, re.M)
    entry = getattr(importlib.import_module(module), attr)
    assert entry is cli.main
    assert entry(["kwise-verify", "--seed", "2024"]) == 0
    golden = (root / "tests" / "golden" / "kwise-verify.csv").read_text()
    assert capsys.readouterr().out == golden


def test_main_keeps_nothing_of_one_call_for_the_next(tmp_path, capsys):
    # the parser is built once per process: subcommands, then a --config
    # call that sets every birthday shape flag and the seed, then the same
    # plain calls again, each with its golden or fresh-process rows
    assert cli.build_parser() is cli.build_parser()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "birthday", "q": 16, "trials": 10,
                               "master_seed": 5, "d": 16, "s": 8, "r": 16, "k": 4}))
    configured = ("birthday", "--config", str(cfg))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    fresh = subprocess.run([sys.executable, "-m", "cuckooprf.cli", *configured],
                           capture_output=True, text=True, env=env)
    assert fresh.returncode == 0
    golden = Path(__file__).parent / "golden" / "kwise-verify.csv"
    expected = {argv: (HEADER + "\n" + rows, "") for argv, rows in GOLDEN_ROWS.items()}
    expected[("kwise-verify",)] = golden.read_text(), ""
    expected[configured] = fresh.stdout, fresh.stderr
    plain = [*sorted(GOLDEN_ROWS), ("kwise-verify",)]
    for argv in [*plain, configured, *plain]:
        assert cli.main(list(argv)) == 0, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == expected[argv], argv


def _assert_configuration_error(rc, err):
    assert rc == 2
    assert any(line.startswith("configuration error:") for line in err.splitlines())
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["birthday", "--s", "1", "--trials", "2"],
    ["birthday", "--d", "70", "--trials", "2"],
    ["uniformity", "--d", "70"],
    ["uniformity", "--d", "-1"],
    ["adaptive-transform", "--n", "70"],
    ["involution", "--n", "0", "--trials", "2"],
])
def test_out_of_range_parameters_exit_2(argv, capsys):
    rc = cli.main(argv)
    _assert_configuration_error(rc, capsys.readouterr().err)


# far past a cap, each refused before any work: islice's sys.maxsize,
# the involution's n <= 16 (its queries are built before any oracle),
# k <= 2^d, past which no family on 2^d inputs is k-wise independent,
# and the adw hardness exponent c <= 64, just past it and far past it
@pytest.mark.parametrize("argv", [
    ["adaptive-transform", "--probes", str(10**20)],
    ["involution", "--n", str(10**20)],
    *([command, "--k", str(10**20)]
      for command in ("birthday", "uniformity", "adaptive-transform", "adw-compare")),
    *(pytest.param([command, "--c", str(c)], id=f"{command} --c {c}")
      for command in ("birthday", "adw-compare") for c in (65, 10**20)),
], ids=lambda argv: " ".join(argv[:2]))
def test_values_past_their_caps_exit_2(argv, capsys):
    rc = cli.main(argv)
    err = capsys.readouterr().err
    _assert_configuration_error(rc, err)
    assert len([line for line in err.splitlines()
                if line.startswith("configuration error:")]) == 1


# the shape flags that ExtensionParams and the adaptive builders' shape
# check, and the values drawn for them: each side of every cap, and one
# far past them all. --q stays small, so that an accepted run costs no
# more than a small run.
_SHAPE_FLAGS = {
    "birthday": ("--d", "--s", "--r", "--q", "--k", "--c"),
    "adw-compare": ("--d", "--s", "--r", "--q", "--k", "--c"),
    "adaptive-transform": ("--n", "--q", "--k"),
}
_SHAPE_VALUES = (-1, 0, 1, 2, 3, 4, 8, 16, 24, 63, 64, 65, 10**20)
_Q_VALUES = (-1, 0, 1, 2, 3, 4, 5, 16, 17, 64)


@st.composite
def _shape_argv(draw):
    """A subcommand's SMALL_ARGV with one to three of its shape flags
    set again, at drawn values."""
    command = draw(st.sampled_from(sorted(_SHAPE_FLAGS)))
    argv = list(SMALL_ARGV[command])
    for flag in draw(st.lists(st.sampled_from(_SHAPE_FLAGS[command]),
                              min_size=1, max_size=3, unique=True)):
        argv += [flag, str(draw(st.sampled_from(_Q_VALUES if flag == "--q" else _SHAPE_VALUES)))]
    return argv


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_shape_argv())
def test_shape_flags_run_clean_or_exit_2_with_one_configuration_error(argv):
    # a check that computed 1 << value before it refused a value far past
    # its cap would end in an exception here, not in exit 2
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc == 0:
        assert err.getvalue() == "", argv
    else:
        _assert_configuration_error(rc, err.getvalue())
        assert len(err.getvalue().splitlines()) == 1, argv


def _int_options():
    """(subcommand, flag, config key) for every int option of every
    subcommand but --seed, whose range has its own tests."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(command, action.option_strings[0], dest) for command in sub.choices
            for dest, action in cli._options(parser, command).items()
            if action.type is int and dest != "seed"]


def _int_argv(how, command, flag, key, value, tmp_path):
    """The subcommand with one int option at value, given as the flag or
    as a config key."""
    if how == "flag":
        return [command, flag, str(value)]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: value}))
    return [command, "--config", str(path)]


# a flag case's id is its subcommand, flag and value; a config case's
# id adds "config"
@pytest.mark.parametrize("how, command, flag, key, value", [
    pytest.param(how, command, flag, key, value,
                 id=f"{command}-{flag}-{value}" + ("-config" if how == "config" else ""))
    for how in ("flag", "config") for command, flag, key in _int_options() for value in (0, -1)])
def test_every_int_flag_at_0_and_minus_1_exits_2(how, command, flag, key, value, tmp_path, capsys):
    rc = cli.main(_int_argv(how, command, flag, key, value, tmp_path))
    err = capsys.readouterr().err
    _assert_configuration_error(rc, err)
    if how == "config":
        assert re.search(rf"^config file overrides --{key}: \S+ -> {value}$", err, re.M)


@pytest.mark.parametrize("command", ["kwise-verify", "uniformity", "ggm-kat",
                                     "adaptive-transform"])
def test_trials_is_rejected_where_no_game_is_played(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--trials", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --trials 2" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["{\"q\": 16,", "\xff\xfe"])
def test_malformed_config_exits_2(text, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text.encode("latin-1"))
    rc = cli.main(["birthday", "--config", str(cfg)])
    _assert_configuration_error(rc, capsys.readouterr().err)


def _seed_argv(how, seed, tmp_path):
    """ggm-kat at the seed, given as the flag or as a config master_seed."""
    argv = ["ggm-kat", "--pairs", "3"]
    if how == "flag":
        return argv + ["--seed", str(seed)]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"master_seed": seed}))
    return argv + ["--config", str(path)]


@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_seed_outside_64_bits_exits_2(how, seed, tmp_path, capsys):
    # derive_seed reads seeds mod 2^64: -1 would print 2^64 - 1's rows
    rc = cli.main(_seed_argv(how, seed, tmp_path))
    captured = capsys.readouterr()
    _assert_configuration_error(rc, captured.err)
    assert [line for line in captured.err.splitlines()
            if line.startswith("configuration error:")] == [
        f"configuration error: seed must be in 0..2^64-1, got {seed}"]
    assert captured.out == ""


@pytest.mark.parametrize("how", ["flag", "config"])
@pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
def test_seeds_at_the_64_bit_edges_run(how, seed, tmp_path, capsys):
    assert cli.main(_seed_argv(how, seed, tmp_path)) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[CSV_COLUMNS.index("seed")] == str(seed)


def test_out_to_a_missing_directory_exits_2(tmp_path, capsys):
    rc = cli.main(["birthday", "--trials", "3", "--out", str(tmp_path / "absent" / "x.csv")])
    err = capsys.readouterr().err
    _assert_configuration_error(rc, err)
    assert "cannot write output file" in err


def test_out_to_a_directory_exits_2(tmp_path, capsys):
    rc = cli.main(["birthday", "--trials", "3", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    _assert_configuration_error(rc, err)
    assert "cannot write output file" in err


def _run_cli_into(stdout_fd: int) -> subprocess.CompletedProcess:
    """kwise-verify in a fresh interpreter, its stdout on stdout_fd."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "cuckooprf.cli", "kwise-verify"],
                          stdout=stdout_fd, stderr=subprocess.PIPE, text=True, env=env)


def _assert_one_write_error(proc: subprocess.CompletedProcess):
    # one line: the interpreter's own flush at exit adds nothing
    _assert_configuration_error(proc.returncode, proc.stderr)
    assert proc.stderr.startswith("configuration error: cannot write output: ")
    assert proc.stderr.count("\n") == 1


def test_stdout_on_a_full_device_exits_2():
    with open("/dev/full", "w") as full:
        proc = _run_cli_into(full.fileno())
    _assert_one_write_error(proc)


def test_stdout_to_a_closed_pipe_exits_2():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_cli_into(write_end)
    finally:
        os.close(write_end)
    _assert_one_write_error(proc)


def test_missing_config_exits_2(tmp_path, capsys):
    rc = cli.main(["birthday", "--config", str(tmp_path / "absent.json")])
    _assert_configuration_error(rc, capsys.readouterr().err)


@pytest.mark.parametrize("cfg", [{"q": "abc"}, {"trials": None}, {"format": "xml"}])
def test_config_value_of_wrong_type_exits_2(cfg, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = cli.main(["birthday", "--config", str(path)])
    _assert_configuration_error(rc, capsys.readouterr().err)


def test_config_null_allowed_where_the_flag_defaults_to_null(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"k": None}))
    assert cli.main(["kwise-verify", "--config", str(path)]) == 0
    capsys.readouterr()

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_infeasible_width_exits_2(capsys):
    rc = cli.main(["kwise-verify", "--width", "8"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("configuration error:")


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


def test_every_subcommand_runs_small(capsys):
    small = [
        ["kwise-verify", "--k", "2"],
        ["birthday", "--d", "16", "--s", "8", "--r", "16", "--q", "16",
         "--k", "4", "--trials", "10"],
        ["uniformity", "--d", "8", "--s", "8", "--r", "1", "--k", "2",
         "--queries", "2", "--samples", "4000"],
        ["ggm-kat", "--pairs", "2"],
        ["involution", "--n", "6", "--trials", "20"],
        ["adaptive-transform", "--n", "12", "--q", "16", "--k", "4", "--probes", "100"],
        ["adw-compare", "--d", "16", "--s", "8", "--r", "16", "--q", "16",
         "--k", "4", "--trials", "10"],
    ]
    for args in small:
        rc = cli.main(args)
        out = capsys.readouterr().out
        assert rc == 0, args
        assert out.split("\n")[0] == HEADER


# CSV bytes of three small runs at the default seed, pinned before the
# affine fold of adw keys: both fold paths (scalar past d+1 probes,
# numpy at q = 128 > d+1) must leave every row as it was.
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


def _assert_configuration_error(rc, err):
    assert rc == 2
    assert any(line.startswith("configuration error:") for line in err.splitlines())
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["birthday", "--s", "1", "--trials", "2"],
    ["birthday", "--d", "70", "--trials", "2"],
    ["uniformity", "--d", "70"],
    ["adaptive-transform", "--n", "70"],
    ["involution", "--n", "0", "--trials", "2"],
])
def test_out_of_range_parameters_exit_2(argv, capsys):
    rc = cli.main(argv)
    _assert_configuration_error(rc, capsys.readouterr().err)


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

"""Parser parity: the CLI's flag table parses every argv as before.

``parse_args_record.json`` holds, for each argv, the repr of the
ScanConfig that ``parse_args`` returned when each subcommand still had a
subparser of its own.  The repr is taken at the config's own precision,
so it shows every bit of every number.  The argvs are the benchmark's
invocations of all three workloads at seeds 0-2
(``perfbench/workloads.py``) and edge cases: ranges, ``--eps-vec=``,
``--format json`` and ``--precision`` 15 and 200.
"""

import json
from pathlib import Path

import pytest
from mpmath import mp

from casimir_cutoff.cli import COMMANDS, main, parse_args

RECORD = json.loads(Path(__file__).with_name("parse_args_record.json").read_text())


@pytest.fixture(autouse=True)
def _no_precision_env(monkeypatch):
    monkeypatch.delenv("CASIMIR_PRECISION", raising=False)


@pytest.mark.parametrize(
    "argv, expected", [(r["argv"], r["config"]) for r in RECORD], ids=[r["name"] for r in RECORD]
)
def test_scan_config_unchanged(argv, expected):
    cfg = parse_args(argv)
    with mp.workdps(cfg.precision):
        assert repr(cfg) == expected


@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["pressure", "--bogus"],
    ["pressure", "--field", "maxwell"],
    ["pressure", "--format", "xml"],
], ids=["missing-command", "unknown-command", "unknown-flag", "bad-field", "bad-format"])
def test_usage_errors_exit_one(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_help_exits_zero(capsys, command):
    with pytest.raises(SystemExit) as done:
        main(["--help"] if command is None else [command, "--help"])
    assert done.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: casimir-cutoff")
    assert "--eps-vec" in out or command is None


def test_flags_may_precede_the_command():
    assert parse_args(["--a", "0.5:2:3", "--field", "scalar", "pressure"]) == parse_args(
        ["pressure", "--a", "0.5:2:3", "--field", "scalar"]
    )

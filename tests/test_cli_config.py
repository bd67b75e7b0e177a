"""Config-file handling of the command line.

A flag set through ``--config`` must act exactly as the same flag on
argv, for every subcommand and every flag, and a key that no flag of the
subcommand owns must be rejected.
"""

import re

import pytest

from scolab import cli
from scolab.cli import parse_and_dispatch

# Every subcommand's flags.  Only stability takes --threads, which it
# accepts and ignores, and schedule, which draws nothing, takes no seed or
# radius.
SEEDED = {"seed", "config", "radius"}
OUTPUT = {"out", "svg"}
SURFACE = {
    "gradcheck": SEEDED | {"benchmark", "n", "m", "points", "h", "assert"},
    "schedule": {"config", "variant", "convexity", "n", "m", "t-max"},
    "optimize": SEEDED | OUTPUT | {
        "variant", "benchmark", "n", "m", "T", "eta", "beta", "output-mode",
    },
    "tracking": SEEDED | OUTPUT | {
        "variant", "benchmark", "n", "m", "T", "eta", "beta", "replicates", "log-points",
    },
    "stability": SEEDED | OUTPUT | {
        "threads", "variant", "benchmark", "n", "m", "T", "eta", "beta", "replicates",
    },
    "optimization": SEEDED | OUTPUT | {
        "variant", "benchmark", "n", "m", "T-grid", "eta", "beta", "eta-exp",
        "beta-exp", "output-mode", "replicates",
    },
    "excess-risk": SEEDED | OUTPUT | {
        "variant", "benchmark", "convexity", "sizes", "replicates", "t-max", "output-mode",
    },
    "oracle": SEEDED | {"benchmark", "n", "m"},
}

# Flags that keep each run small; every parity case starts from these.
BASE = {
    "gradcheck": {"n": "5", "m": "5", "points": "2"},
    "schedule": {},
    "optimize": {"T": "20", "n": "5", "m": "5"},
    "tracking": {"T": "30", "n": "4", "m": "4", "replicates": "2"},
    "stability": {"T": "20", "n": "4", "m": "4", "replicates": "2"},
    "optimization": {"T-grid": "8,16", "n": "4", "m": "4", "replicates": "2"},
    "excess-risk": {"sizes": "4,6", "replicates": "2", "t-max": "10"},
    "oracle": {"n": "5", "m": "5"},
}

# A value for every flag, away from its default so that a dropped
# setting changes the output.  "true" marks a boolean flag.
PROBE = {
    "gradcheck": {
        "seed": "3", "radius": "4", "benchmark": "strongly_convex",
        "n": "6", "m": "7", "points": "3", "h": "1e-6", "assert": "1e-20",
    },
    "schedule": {
        "variant": "scsc", "convexity": "strongly_convex", "n": "5", "m": "6", "t-max": "50",
    },
    "optimize": {
        "seed": "2", "radius": "0.5", "out": "run.csv", "svg": "true",
        "variant": "scsc", "benchmark": "strongly_convex", "n": "6", "m": "7", "T": "25",
        "eta": "0.01", "beta": "0.5", "output-mode": "uniform_average",
    },
    "tracking": {
        "seed": "2", "radius": "0.5", "out": "gap.csv", "svg": "true",
        "variant": "scsc", "benchmark": "strongly_convex", "n": "5", "m": "6", "T": "40",
        "eta": "0.01", "beta": "0.5", "replicates": "3", "log-points": "5",
    },
    "stability": {
        "seed": "2", "threads": "2", "radius": "0.5", "out": "stb.csv", "svg": "true",
        "variant": "scsc", "benchmark": "strongly_convex",
        "n": "5,6", "m": "5", "T": "30", "eta": "0.01", "beta": "0.5", "replicates": "3",
    },
    "optimization": {
        "seed": "2", "radius": "0.5", "out": "opt.csv", "svg": "true",
        "variant": "scsc", "benchmark": "strongly_convex", "n": "5", "m": "6",
        "T-grid": "8,12", "eta": "0.01", "beta": "0.5", "eta-exp": "0.5",
        "beta-exp": "0.5", "output-mode": "sigma_weighted", "replicates": "3",
    },
    "excess-risk": {
        "seed": "2", "radius": "0.5", "out": "exc.csv", "svg": "true",
        "variant": "scsc", "benchmark": "strongly_convex", "convexity": "strongly_convex",
        "sizes": "4,8", "replicates": "3", "t-max": "12", "output-mode": "last",
    },
    "oracle": {
        "seed": "2", "radius": "0.5", "benchmark": "strongly_convex", "n": "6", "m": "7",
    },
}

CASES = [(command, flag) for command in PROBE for flag in PROBE[command]]


def as_argv(values):
    argv = []
    for flag, value in values.items():
        argv += [f"--{flag}"] if value == "true" else [f"--{flag}", value]
    return argv


def run_in(directory, monkeypatch, capsys, argv):
    """Exit code, stdout and the bytes of every file written, run inside ``directory``."""
    directory.mkdir()
    monkeypatch.chdir(directory)
    code = parse_and_dispatch(argv)
    out = capsys.readouterr().out
    files = {path.name: path.read_bytes() for path in sorted(directory.iterdir())}
    return code, out, files


class TestFlagSurface:
    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_table_offers_exactly_the_documented_flags(self, command):
        assert set(cli.COMMANDS[command][2]) | {"config"} == SURFACE[command]

    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_parser_offers_exactly_the_documented_flags(self, command, capsys):
        assert parse_and_dispatch([command, "--help"]) == 0
        shown = set(re.findall(r"--([A-Za-z][\w-]*)", capsys.readouterr().out))
        assert shown - {"help"} == SURFACE[command]

    def test_probes_cover_every_flag(self):
        assert {c: set(v) | {"config"} for c, v in PROBE.items()} == SURFACE

    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_handler_reads_every_flag(self, command, tmp_path, monkeypatch, capsys):
        read = set()

        class Recording(dict):
            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

        resolve = cli._resolve
        monkeypatch.setattr(cli, "_resolve", lambda *a: Recording(resolve(*a)))
        code, _, _ = run_in(tmp_path / "run", monkeypatch, capsys,
                            [command, *as_argv(BASE[command])])
        assert code == 0
        ignored = {"threads"} if command == "stability" else set()
        assert read == set(cli.COMMANDS[command][2]) - ignored

    @pytest.mark.parametrize("argv", [
        ["schedule", "--seed", "1"], ["oracle", "--threads", "2"],
        ["stability", "--convexity", "convex"], ["tracking", "--threads", "2"],
        ["optimization", "--threads", "2"], ["excess-risk", "--threads", "2"],
        ["stability", "--uncoupled"], ["tracking", "--tracking-c", "2"],
        ["optimize", "--sigma", "0.5"],
    ], ids=["schedule-seed", "oracle-threads", "stability-convexity", "tracking-threads",
            "optimization-threads", "excess-risk-threads", "stability-uncoupled",
            "tracking-tracking-c", "optimize-sigma"])
    def test_flags_a_command_does_not_read_are_usage_errors(self, argv, capsys):
        assert parse_and_dispatch(argv) == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


class TestConfigArgvParity:
    @pytest.mark.parametrize("command,flag", CASES, ids=[f"{c}-{f}" for c, f in CASES])
    def test_config_matches_argv(self, command, flag, tmp_path, monkeypatch, capsys):
        values = {**BASE[command], flag: PROBE[command][flag]}
        rest = {k: v for k, v in values.items() if k != flag}
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag}={values[flag]}\n")
        direct = run_in(tmp_path / "argv", monkeypatch, capsys, [command, *as_argv(values)])
        via_config = run_in(
            tmp_path / "config", monkeypatch, capsys,
            [command, *as_argv(rest), "--config", str(cfg)],
        )
        assert via_config == direct

    def test_underscore_and_dash_keys_agree(self, tmp_path, monkeypatch, capsys):
        rest = {k: v for k, v in BASE["optimization"].items() if k != "T-grid"}
        argv = ["optimization", *as_argv(rest)]
        runs = [run_in(tmp_path / "argv", monkeypatch, capsys,
                       argv + ["--T-grid", "8,12", "--output-mode", "last"])]
        for tag, text in (("dash", "T-grid=8,12\noutput-mode=last\n"),
                          ("underscore", "T_grid=8,12\noutput_mode=last\n")):
            cfg = tmp_path / f"{tag}.cfg"
            cfg.write_text(text)
            runs.append(run_in(tmp_path / tag, monkeypatch, capsys, argv + ["--config", str(cfg)]))
        assert runs[0][0] == 0
        assert runs[1] == runs[0] and runs[2] == runs[0]


class TestConfigKeys:
    @pytest.mark.parametrize(
        "command,key",
        [("stability", "replicats"), ("optimize", "steps"),
         ("optimization", "t_grid"), ("gradcheck", "assert_tol"), ("schedule", "out"),
         ("tracking", "threads"), ("optimization", "threads"), ("excess-risk", "threads"),
         ("stability", "uncoupled"), ("tracking", "tracking_c"), ("optimize", "sigma")],
    )
    def test_unknown_key_is_a_usage_error(self, command, key, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key}=3\n")
        code = parse_and_dispatch([command, "--config", str(cfg)])
        assert code == 2
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("word,expected", [
        ("true", True), ("1", True), ("false", False), ("0", False), ("TRUE", True),
    ])
    def test_boolean_spellings(self, word, expected, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"svg={word}\n")
        code, _, files = run_in(
            tmp_path / "run", monkeypatch, capsys,
            ["optimize", *as_argv(BASE["optimize"]), "--config", str(cfg)],
        )
        assert code == 0
        assert ("trajectory.svg" in files) is expected

    def test_bad_boolean_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("svg=maybe\n")
        code = parse_and_dispatch(["stability", "--config", str(cfg)])
        assert code == 2
        assert "svg must be" in capsys.readouterr().err

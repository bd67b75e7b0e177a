import hashlib
import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import scolab
from scolab import cli, experiments
from scolab.cli import COMMANDS, parse_and_dispatch
from scolab.core import Rng
from scolab.reporting import emit_csv, emit_svg, read_csv


OVERFLOW_ERR = (
    "the step x - eta * gradient overflowed to inf (eta = 1.7e+308); use a smaller eta\n"
)


def dispatch(capsys, *argv):
    code = parse_and_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSchedule:
    def test_scsc_convex_example(self, capsys):
        code, out, _ = dispatch(
            capsys, "schedule", "--variant", "scsc", "--convexity", "convex",
            "--n", "4", "--m", "4",
        )
        assert code == 0
        assert out.startswith("T=32 ")
        fields = dict(part.split("=") for part in out.split())
        assert float(fields["eta"]) == pytest.approx(32.0**-0.8)
        assert float(fields["beta"]) == pytest.approx(32.0**-0.8)

    def test_bad_convexity(self, capsys):
        code, _, err = dispatch(capsys, "schedule", "--convexity", "wavy")
        assert code == 2
        assert "convexity must be one of" in err

    @pytest.mark.parametrize("digits", [89, 308])
    def test_horizon_beyond_the_float_range(self, capsys, digits):
        # T = n ** 3.5 overflows from n = 1e89: the cap gives the horizon,
        # and without one the command names n and m.
        n = "1" + "0" * digits
        code, out, err = dispatch(capsys, "schedule", "--n", n)
        assert (code, out) == (2, "")
        assert err == (f"the preset horizon max(n, m) ** 3.5 is beyond the float range "
                       f"at n={n}, m=40; cap it with t_max\n")
        code, out, err = dispatch(capsys, "schedule", "--n", n, "--t-max", "5")
        assert (code, out, err) == (0, "T=5 eta=0.25169979012836535 beta=0.39864706312773768\n", "")

    def test_largest_finite_horizon_keeps_its_bytes(self, capsys):
        # n = 1e88 is the last power of ten whose horizon n ** 3.5 is finite.
        code, out, _ = dispatch(capsys, "schedule", "--n", "1" + "0" * 88)
        assert code == 0
        assert out.endswith(" eta=1.0000000000000339e-264 beta=1.0000000000000226e-176\n")
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == "66a1fde50a8caf2e"

    def test_excess_risk_size_beyond_the_float_horizon(self, capsys, tmp_path):
        # The capped horizon is 5; numpy then refuses a dataset of 1e100
        # samples, which is a one-line usage error, not a traceback.
        code, out, err = dispatch(
            capsys, "excess-risk", "--sizes", "1" + "0" * 100, "--t-max", "5",
            "--replicates", "2", "--out", str(tmp_path / "x.csv"),
        )
        assert (code, out) == (2, "")
        assert err.count("\n") == 1


def fresh_python(*args, cwd=None):
    """Run a fresh interpreter that imports this scolab."""
    src = str(Path(scolab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )


class TestModuleEntryPoint:
    """``python -m scolab.cli`` runs the same CLI as the ``scolab`` script."""

    @staticmethod
    def module_cli(*argv):
        return fresh_python("-m", "scolab.cli", *argv)

    def test_schedule_example(self):
        done = self.module_cli(
            "schedule", "--variant", "scsc", "--convexity", "convex", "--n", "4", "--m", "4"
        )
        assert done.returncode == 0
        assert done.stdout == "T=32 eta=0.062499999999999993 beta=0.062499999999999993\n"

    def test_unknown_flag_is_usage_error(self):
        assert self.module_cli("schedule", "--frobnicate", "1").returncode == 2


class TestLazyImports:
    """``import scolab.cli`` loads every numpy module a command needs, and
    ``import scolab`` loads no part of the CLI."""

    TINY = {
        "gradcheck": ("--n", "3", "--m", "3", "--points", "2"),
        "schedule": ("--n", "4", "--m", "4"),
        "optimize": ("--n", "3", "--m", "3", "--T", "5", "--svg"),
        "tracking": ("--n", "3", "--m", "3", "--T", "10", "--replicates", "2",
                     "--log-points", "4", "--svg"),
        "stability": ("--n", "3", "--m", "3", "--T", "5", "--replicates", "2", "--svg"),
        "optimization": ("--n", "3", "--m", "3", "--T-grid", "4,8", "--replicates", "2",
                         "--svg"),
        "excess-risk": ("--sizes", "3,4", "--t-max", "5", "--replicates", "2", "--svg"),
        "oracle": ("--n", "3", "--m", "3"),
    }

    def test_no_numpy_submodule_loads_lazily(self, tmp_path):
        # A fresh interpreter, so that no earlier test has imported the
        # module a command would load (np.unique, for one, imports numpy.ma).
        assert sorted(self.TINY) == sorted(COMMANDS)
        script = textwrap.dedent("""
            import json, sys
            from scolab.cli import parse_and_dispatch
            loaded = set(sys.modules)
            codes = {command: parse_and_dispatch([command, *argv])
                     for command, argv in json.loads(sys.argv[1]).items()}
            late = sorted(name for name in set(sys.modules) - loaded if name.startswith("numpy"))
            print(json.dumps({"codes": codes, "late": late}))
        """)
        done = fresh_python("-c", script, json.dumps(self.TINY), cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result == {"codes": dict.fromkeys(self.TINY, 0), "late": []}

    def test_package_import_loads_no_cli(self):
        # The package re-exports six modules with star imports; a seventh
        # would pull the CLI's writer or argparse into every library user.
        script = "import json, sys, scolab; print(json.dumps(sorted(sys.modules)))"
        done = fresh_python("-c", script)
        assert done.returncode == 0, done.stderr
        loaded = set(json.loads(done.stdout))
        assert loaded.isdisjoint({"scolab.cli", "scolab.reporting", "argparse"})


class TestUsageErrors:
    def test_negative_steps(self, capsys):
        code, _, err = dispatch(capsys, "optimize", "--T", "-5")
        assert code == 2
        assert "T must be >= 1" in err

    def test_unknown_flag(self, capsys):
        code, _, err = dispatch(capsys, "schedule", "--frobnicate", "1")
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, err = dispatch(capsys, "frobnicate")
        assert code == 2

    def test_missing_subcommand(self, capsys):
        code, _, err = dispatch(capsys)
        assert code == 2
        assert "subcommand" in err

    @pytest.mark.parametrize("argv", [
        ("schedule", "--n", "1" + "0" * 400),
        ("optimize", "--seed", "1" + "0" * 400),
        ("excess-risk", "--sizes", "8," + "1" + "0" * 400),
    ])
    def test_integer_beyond_float_range(self, capsys, argv):
        code, _, err = dispatch(capsys, *argv)
        assert code == 2
        assert f"{argv[1].lstrip('-')} is out of range" in err

    @pytest.mark.parametrize("argv, message", [
        (("optimize", "--T", "1.5"), "T must be an integer"),
        (("optimize", "--eta", "abc"), "eta must be a real number"),
        (("optimize", "--eta", "inf"), "eta must be finite"),
        (("optimize", "--radius", "0"), "radius must be > 0.0"),
        (("optimize", "--beta", "2"), "beta must be <= 1.0"),
        (("excess-risk", "--sizes", "a,b"), "sizes must be a comma-separated list of integers"),
        (("excess-risk", "--sizes", ","), "sizes must be nonempty"),
        (("excess-risk", "--sizes", "0,4"), "sizes entries must be >= 1"),
    ])
    def test_bad_value_message(self, capsys, tmp_path, argv, message):
        code, out, err = dispatch(capsys, *argv, "--out", str(tmp_path / "x.csv"))
        assert (code, out, err) == (2, "", message + "\n")
        assert not (tmp_path / "x.csv").exists()

    def test_unreadable_config(self, capsys, tmp_path):
        path = tmp_path / "missing.cfg"
        code, out, err = dispatch(capsys, "oracle", "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("cannot read config file: ")
        assert str(path) in err

    def test_bad_replicates(self, capsys):
        code, _, err = dispatch(capsys, "tracking", "--replicates", "1")
        assert code == 2
        assert "replicates must be >= 2" in err

    @pytest.mark.parametrize("module, argv", [
        pytest.param(cli, ("oracle",), id="oracle"),
        pytest.param(experiments, ("excess-risk", "--sizes", "8", "--replicates", "2"),
                     id="excess-risk"),
    ])
    def test_allocation_failure_is_usage_error(self, capsys, monkeypatch, tmp_path, module, argv):
        # numpy's message for --sizes 100000000000; the test allocates nothing
        message = ("Unable to allocate 14.6 TiB for an array with shape "
                   "(100000000000, 4, 5) and data type float64")

        def no_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(module, "sample_dataset", no_memory)
        monkeypatch.chdir(tmp_path)
        code, out, err = dispatch(capsys, *argv)
        assert (code, out, err) == (2, "", f"out of memory: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("steps", [2**62, 2**63 - 1, 2**63, 2**64, 10**19])
    def test_horizon_beyond_the_int64_range_is_usage_error(self, capsys, tmp_path, steps):
        # Up to 2**63 the grid fits int64 and the run's arrays cannot be
        # allocated; past it the step indices cannot be held at all.
        out_path = tmp_path / "t.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = dispatch(capsys, "tracking", "--T", str(steps), "--replicates", "2",
                                      "--out", str(out_path))
        assert [str(w.message) for w in caught] == []
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        if steps > 2**63:
            assert err == "tracking study needs steps <= 2**63: its step indices are int64\n"
        assert not out_path.exists()

    def test_module_precondition_maps_to_usage_error(self, capsys):
        code, _, err = dispatch(
            capsys, "optimize", "--T", "5", "--output-mode", "sigma_weighted"
        )
        assert code == 2
        assert "sigma" in err

    @pytest.mark.parametrize("extra", [
        ("--eta", "1e300"),  # eta**2 overflows
        ("--beta", "1e-200"),  # (t * beta) ** -c overflows
    ])
    def test_overflowing_tracking_bound_is_usage_error(self, capsys, tmp_path, extra):
        code, out, err = dispatch(
            capsys, "tracking", "--T", "50", "--replicates", "2", "--n", "5", "--m", "5",
            "--out", str(tmp_path / "t.csv"), *extra,
        )
        assert code == 2
        assert out == ""
        assert err == "bound value must be finite and nonnegative\n"

    @pytest.mark.parametrize("radius, reason", [
        pytest.param(radius, reason, id=radius) for radius, reason in [
            ("1e160", "too large: the bound constants overflow"),
            ("1.3e154", "too large: the bound constants overflow"),
            ("1e-170", "too small: the bound constants underflow"),
            ("1e-200", "too small: the bound constants underflow"),
            ("5e-324", "too small: the bound constants underflow"),
        ]
    ])
    def test_radius_beyond_the_constants_range_is_usage_error(
        self, capsys, tmp_path, radius, reason
    ):
        # At 1e160 radius**2 leaves the float range; at 1.3e154 it does not,
        # but the suprema behind the constants do.  From about 1e-162 down,
        # the norms of the points on the sphere underflow to 0.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = dispatch(
                capsys, "tracking", "--T", "10", "--replicates", "2", "--radius", radius,
                "--out", str(tmp_path / "t.csv"),
            )
        assert [str(w.message) for w in caught] == []
        assert code == 2
        assert out == ""
        assert err == f"domain radius {float(radius)!r} is {reason}\n"

    def test_radius_that_overflows_the_tracking_ceiling_is_named(self, capsys, monkeypatch, tmp_path):
        # The constants are finite at 1e154, but lip_f**2 is not.
        def no_run(*args, **kwargs):
            raise AssertionError("a replicate ran before the ceiling was checked")

        monkeypatch.setattr(experiments, "run", no_run)
        code, out, err = dispatch(
            capsys, "tracking", "--T", "10", "--replicates", "2", "--radius", "1e154",
            "--out", str(tmp_path / "t.csv"),
        )
        assert code == 2
        assert out == ""
        assert err == (
            "domain radius 1e+154 is too large for the tracking ceiling: "
            "lip_f**2 * lip_g**3 overflows at lip_f = 2.38963e+154\n"
        )

    @pytest.mark.parametrize("extra", [
        ("--eta", "1e300"),
        ("--beta", "1e-200"),
    ])
    def test_unbounded_tracking_bound_fails_before_any_replicate(
        self, capsys, monkeypatch, tmp_path, extra
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("a replicate ran before the ceiling was checked")

        monkeypatch.setattr(experiments, "run", no_run)
        code, out, err = dispatch(capsys, "tracking", "--out", str(tmp_path / "t.csv"), *extra)
        assert code == 2
        assert out == ""
        assert err == "bound value must be finite and nonnegative\n"
        assert not (tmp_path / "t.csv").exists()

    def test_sigma_weighted_excess_risk_on_convex_law_names_the_modulus(self, capsys):
        code, _, err = dispatch(
            capsys, "excess-risk", "--output-mode", "sigma_weighted", "--benchmark", "convex",
        )
        assert code == 2
        assert "population modulus" in err
        assert "is 0" in err

    @pytest.mark.parametrize("seed", ["0", "1"])
    def test_sigma_weighted_optimization_on_convex_law_is_usage_error(self, capsys, tmp_path, seed):
        # The convex law's mean Gram matrix is rank-deficient: its least
        # eigenvalue is rounding noise of either sign, cut to 0 at every seed.
        out_path = tmp_path / "o.csv"
        code, out, err = dispatch(
            capsys, "optimization", "--output-mode", "sigma_weighted", "--T-grid", "64",
            "--replicates", "2", "--seed", seed, "--out", str(out_path),
        )
        assert code == 2
        assert out == ""
        assert "empirical modulus" in err
        assert "is 0" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("radius", ["9e307", "1.7e308"])
    def test_gradcheck_radius_whose_draw_width_overflows_is_usage_error(self, capsys, radius):
        # Points come from uniform(-radius, radius), which needs 2 * radius finite.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = dispatch(capsys, "gradcheck", "--radius", radius)
        assert [str(w.message) for w in caught] == []
        assert (code, out, err) == (2, "", "radius must be <= 8.988465674311579e+307\n")

    @pytest.mark.parametrize("radius", ["1e-310", "5e-324"])
    @pytest.mark.parametrize("argv", [
        ("oracle",),
        ("optimization", "--T-grid", "4", "--replicates", "2", "--n", "5", "--m", "5"),
        ("excess-risk", "--sizes", "4", "--replicates", "2", "--t-max", "4"),
    ], ids=lambda argv: argv[0])
    def test_radius_below_the_minimizer_range_is_usage_error(self, capsys, tmp_path, argv, radius):
        if argv[0] != "oracle":
            argv += ("--out", str(tmp_path / "x.csv"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = dispatch(capsys, *argv, "--radius", radius)
        assert [str(w.message) for w in caught] == []
        assert (code, out) == (2, "")
        assert err == f"domain radius {float(radius)!r} is too small: the minimizer solve overflows\n"

    def test_help_exits_zero(self, capsys):
        code, out, _ = dispatch(capsys, "--help")
        assert code == 0


class TestFuzz:
    """Edge values for every flag of every subcommand: each call exits 0, 1
    or 2, and none raises or warns.  Counts and horizons that parse stay at
    20 or below, since a huge valid count is a long run, not a defect."""

    EDGES = ("0", "-1", "1e-310", "5e-324", "1e154", "1e308", "1.7e308", "nan", "inf",
             str(2**64), "abc", "")
    COUNTS = {"n", "m", "T", "replicates", "points", "log-points", "t-max", "threads"}
    LISTS = {"sizes", "T-grid"}
    CHOICES = {
        "benchmark": ("convex", "strongly_convex"),
        "convexity": ("convex", "strongly_convex"),
        "variant": ("scgd", "scsc"),
        "output-mode": ("last", "uniform_average", "sigma_weighted", "uniform_random"),
    }
    SMALL = ("1", "2", "3", "20")

    def value(self, gen, command, name):
        """An edge value for the flag, or a choice or small count that parses."""
        if name in self.CHOICES:
            return str(gen.choice(self.CHOICES[name] + ("wavy", "")))
        is_list = name in self.LISTS or (command == "stability" and name in ("n", "m"))
        if name in self.COUNTS or is_list:
            edges = [edge for edge in self.EDGES if edge != str(2**64)]
            if is_list:
                edges += ["1,20", "3,abc", ","]
            return str(gen.choice(list(self.SMALL) + edges))
        return str(gen.choice(self.EDGES))

    def call(self, capsys, argv):
        """The problem with one call, or None."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = parse_and_dispatch(argv)
            except Exception as exc:  # any escape is the finding
                return f"raised {exc!r}"
            finally:
                capsys.readouterr()
        if caught:
            return f"warned {[str(w.message) for w in caught]}"
        return None if code in (0, 1, 2) else f"exit {code}"

    def base(self, command, flags, tmp_path):
        """Small valid values for every count and horizon of the command."""
        argv = [command]
        for name in flags:
            if name == "out":
                argv += ["--out", str(tmp_path / "out.csv")]
            elif name in self.COUNTS or name in self.LISTS:
                argv += [f"--{name}", "4" if name == "sizes" else "2"]
        return argv

    def test_seeded_draws(self, capsys, tmp_path):
        # Each flag is drawn with probability 0.3, so most calls parse and run.
        gen = Rng(3).split("cli-fuzz").generator()
        problems = []
        for _ in range(1000):
            command = str(gen.choice(sorted(COMMANDS)))
            flags = COMMANDS[command][2]
            argv = self.base(command, flags, tmp_path)
            for name in flags:
                if name == "out" or gen.random() >= 0.3:
                    continue
                if name == "svg":
                    argv.append(f"--{name}")
                else:
                    argv += [f"--{name}", self.value(gen, command, name)]
            problem = self.call(capsys, argv)
            if problem:
                problems.append((argv, problem))
        assert problems == []

    @pytest.mark.parametrize("radius", EDGES)
    def test_every_command_at_each_edge_radius(self, capsys, tmp_path, radius):
        problems = []
        for command, (_, _, flags) in COMMANDS.items():
            if "radius" in flags:
                argv = self.base(command, flags, tmp_path) + ["--radius", radius]
                problem = self.call(capsys, argv)
                if problem:
                    problems.append((argv, problem))
        assert problems == []


class TestGradcheck:
    def test_passes_at_default_tolerance(self, capsys):
        code, out, _ = dispatch(capsys, "gradcheck", "--seed", "1", "--assert", "1e-5")
        assert code == 0
        assert out.startswith("max_relative_error=")
        assert float(out.split("=")[1]) < 1e-5

    def test_fails_at_absurd_tolerance(self, capsys):
        code, _, err = dispatch(capsys, "gradcheck", "--seed", "1", "--assert", "1e-20")
        assert code == 1
        assert "gradcheck failed" in err

    def test_nan_error_fails(self, capsys):
        # A step of 1e200 overflows the risk, so every difference quotient
        # is NaN; that is a failed check, not a zero error, and no warning.
        code, out, err = dispatch(capsys, "gradcheck", "--h", "1e200")
        assert code == 1
        assert out == "max_relative_error=nan\n"
        assert err == "gradcheck failed: max relative error nan is not below 1.000e-05\n"


class TestOptimize:
    def test_writes_trajectory_and_prints_record(self, capsys, tmp_path):
        out_path = tmp_path / "trajectory.csv"
        code, out, _ = dispatch(
            capsys, "optimize", "--T", "50", "--eta", "0.01", "--beta", "0.5",
            "--seed", "3", "--out", str(out_path),
        )
        assert code == 0
        record = json.loads(out)
        assert record["mode"] == "last"
        assert record["T"] == 50
        assert len(record["x"]) == 5
        header, rows = read_csv(out_path)
        assert header == ["t", "f_empirical", "tracking_sq_error", "x_norm"]
        assert len(rows) == 50

    # sha256 prefixes of the trajectory CSV (and SVG) bytes; a changed row
    # formula, stored-step stride or output mode shows here.
    @pytest.mark.parametrize("argv, digests", [
        (("--T", "300", "--svg"), ("eedecac6cd4f2fd5", "e18da690c9159ef2")),
        (("--T", "9000", "--output-mode", "uniform_random", "--radius", "0.3", "--eta", "0.5",
          "--variant", "scsc", "--svg"), ("2bf15cb27959b632", "3fbe6c9abf27efbb")),
        (("--T", "50", "--output-mode", "sigma_weighted", "--sigma", "0.5"),
         ("839989b3cb73ec0a",)),
        (("--T", "5000", "--output-mode", "uniform_average", "--variant", "scsc"),
         ("55e6f8443e519d5e",)),
    ], ids=["last-svg", "uniform-random-projected-thinned", "sigma-weighted", "uniform-average"])
    def test_output_bytes_pinned(self, capsys, tmp_path, argv, digests):
        out_path = tmp_path / "trajectory.csv"
        code, _, _ = dispatch(capsys, "optimize", *argv, "--out", str(out_path))
        assert code == 0
        written = [out_path, tmp_path / "trajectory.svg"][: len(digests)]
        assert [hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in written] == list(digests)

    def test_huge_step_lands_on_sphere(self, capsys, tmp_path):
        # ||x||^2 of the unprojected step overflows; the projection must
        # still land on the sphere, not at the origin.
        for eta in ("1e200", "1e300"):
            code, out, _ = dispatch(
                capsys, "optimize", "--eta", eta, "--T", "5", "--out", str(tmp_path / "t.csv"),
            )
            assert code == 0
            norm = float(np.linalg.norm(json.loads(out)["x"]))
            assert norm <= 10.0
            assert norm == pytest.approx(10.0, rel=1e-15)

    def test_overflowing_step_is_usage_error(self, capsys, tmp_path):
        # eta * gradient overflows to inf, which no projection can place.
        code, out, err = dispatch(
            capsys, "optimize", "--eta", "1.7e308", "--T", "5", "--out", str(tmp_path / "t.csv"),
        )
        assert code == 2
        assert out == ""
        assert err == OVERFLOW_ERR
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("eta, code, expected_err", [
        ("1e200", 0, ""),
        ("1.7e308", 2, OVERFLOW_ERR),
    ])
    def test_overflowing_steps_raise_no_warning(self, capsys, tmp_path, eta, code, expected_err):
        # Overflow of ||x||^2 is handled by the projection; numpy must not
        # report it on stderr as if the run had gone wrong.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = dispatch(
                capsys, "optimize", "--eta", eta, "--T", "5", "--out", str(tmp_path / "t.csv"),
            )
        assert [str(w.message) for w in caught] == []
        assert result[0] == code
        assert result[2] == expected_err

    def test_iterates_on_a_huge_sphere_have_finite_norms(self, capsys, tmp_path):
        # The iterates reach ||x|| = 1e170, whose square overflows; their
        # risk is a true overflow (inf), but their norm is not.
        out_path = tmp_path / "t.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = dispatch(
                capsys, "optimize", "--T", "3", "--eta", "1e60", "--radius", "1e170",
                "--out", str(out_path),
            )
        assert code == 0
        assert [str(w.message) for w in caught] == []
        assert "RuntimeWarning" not in err
        header, rows = read_csv(out_path)
        norms = [row[header.index("x_norm")] for row in rows]
        assert len(norms) == 3
        assert all(np.isfinite(norms))
        assert norms[-1] <= 1e170

    def test_unwritable_path_is_io_error(self, capsys, tmp_path):
        code, _, err = dispatch(
            capsys, "optimize", "--T", "5", "--out", str(tmp_path / "nope" / "x.csv"),
        )
        assert code == 1
        assert "i/o error" in err


class TestOracleCommand:
    def test_prints_both_certificates(self, capsys):
        code, out, _ = dispatch(capsys, "oracle", "--n", "10", "--m", "10", "--seed", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("empirical value=")
        assert lines[1].startswith("population value=")

    @pytest.mark.parametrize("benchmark", ["convex", "strongly_convex"])
    def test_boundary_certificates_are_exact(self, capsys, benchmark):
        code, out, _ = dispatch(capsys, "oracle", "--benchmark", benchmark, "--radius", "0.5")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            fields = dict(f.split("=", 1) for f in line.split()[1:])
            assert fields["method"] == "trust_region"
            assert float(fields["kkt_residual"]) < 1e-13


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("# preset sizes\nn=4\nm=4\nvariant=scsc\nconvexity=convex\n")
        code, out, _ = dispatch(capsys, "schedule", "--config", str(cfg))
        assert code == 0
        assert out.startswith("T=32 ")
        code, out, _ = dispatch(capsys, "schedule", "--config", str(cfg), "--n", "9")
        assert code == 0
        assert out.startswith("T=243 ")

    def test_malformed_config_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a pair\n")
        code, _, err = dispatch(capsys, "schedule", "--config", str(cfg))
        assert code == 2
        assert "expected key=value" in err


class TestCsvRoundTrip:
    def test_empty_rows_leave_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(path, ["a", "b"], [])
        assert path.read_text() == "a,b\n"
        header, rows = read_csv(path)
        assert header == ["a", "b"] and rows == []

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("\n\n")
        with pytest.raises(ValueError) as caught:
            read_csv(path)
        assert str(caught.value) == f"empty csv file {path}"

    def test_float_round_trip(self, tmp_path):
        gen = Rng(77).split("csv").generator()
        for trial in range(100):
            rows = [
                [float(v) for v in gen.uniform(-1e6, 1e6, size=3) * 10.0 ** gen.integers(-12, 12)]
                for _ in range(gen.integers(1, 5))
            ]
            path = tmp_path / f"rt{trial}.csv"
            emit_csv(path, ["x", "y", "z"], rows)
            _, parsed = read_csv(path)
            assert parsed == rows

    def test_emission_is_byte_deterministic(self, tmp_path):
        rows = [[1, 2.5e-17, "tag"], [3, -1.0, "other"]]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(a, ["i", "v", "s"], rows)
        emit_csv(b, ["i", "v", "s"], rows)
        assert a.read_bytes() == b.read_bytes()


class TestStudyCommands:
    def test_tracking_writes_csv_and_svg(self, capsys, tmp_path):
        out_path = tmp_path / "tracking.csv"
        code, _, err = dispatch(
            capsys, "tracking", "--T", "100", "--replicates", "3", "--n", "6",
            "--m", "6", "--out", str(out_path), "--svg",
        )
        assert code == 0
        header, rows = read_csv(out_path)
        assert header == ["t", "mean_sq_error", "se", "bound"]
        assert len(rows) >= 5
        svg = (tmp_path / "tracking.svg").read_text()
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")

    def test_stability_svg_draws_zero_sensitivity(self, capsys, tmp_path):
        # eta = 0 never moves the iterate, so every distance is exactly 0
        out_path = tmp_path / "stability.csv"
        code, _, _ = dispatch(
            capsys, "stability", "--n", "4", "--m", "4", "--T", "20", "--eta", "0",
            "--replicates", "2", "--out", str(out_path), "--svg",
        )
        assert code == 0
        assert read_csv(out_path)[1][0][8] == 0.0
        assert (tmp_path / "stability.svg").read_text().rstrip().endswith("</svg>")

    def test_stability_csv_schema(self, capsys, tmp_path):
        out_path = tmp_path / "stability.csv"
        code, _, _ = dispatch(
            capsys, "stability", "--n", "5,7", "--m", "5", "--T", "40",
            "--replicates", "3", "--out", str(out_path),
        )
        assert code == 0
        header, rows = read_csv(out_path)
        assert header == [
            "variant", "convexity", "n", "m", "T", "eta", "beta", "replicates",
            "eps_nu_hat", "eps_nu_se", "eps_omega_hat", "eps_omega_se",
        ]
        assert len(rows) == 2
        assert rows[0][0] == "scgd"

    # sha256 prefixes of the CSV bytes; a change to a stream label, the
    # index draw order or the kernel shows here.
    @pytest.mark.parametrize("flags, digest", [
        ((), "168363dff83a5b8c"),
        (("--variant", "scsc"), "53f896c4297317c4"),
    ])
    def test_stability_csv_bytes_pinned(self, capsys, tmp_path, flags, digest):
        out_path = tmp_path / "stability.csv"
        code, _, _ = dispatch(
            capsys, "stability", "--n", "5,10", "--m", "6", "--T", "300",
            "--replicates", "4", "--seed", "3", *flags, "--out", str(out_path),
        )
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest()[:16] == digest

    # sha256 prefixes of the other study commands' CSV (and SVG) bytes; a
    # slipped stream label, default or argument shows here.
    @pytest.mark.parametrize("argv, digests", [
        (("tracking", "--variant", "scsc", "--T", "200", "--n", "6", "--m", "6",
          "--log-points", "12", "--svg"), ("8907024d521de396", "6593d9eee640c88f")),
        (("tracking", "--T", "150", "--n", "5", "--m", "7", "--log-points", "8", "--svg"),
         ("a59284ad62f2aba0", "cf6cdd39cc580280")),
        (("optimization", "--variant", "scsc", "--benchmark", "strongly_convex",
          "--output-mode", "sigma_weighted", "--T-grid", "32,64", "--n", "6", "--m", "6"),
         ("5806b5726ccd35e3",)),
        (("optimization", "--T-grid", "16,48", "--eta-exp", "0.5", "--beta-exp", "0.4",
          "--n", "5", "--m", "6"), ("3418204d06107755",)),
        (("excess-risk", "--variant", "scsc", "--benchmark", "strongly_convex",
          "--convexity", "strongly_convex", "--sizes", "8,16"), ("b917ac075cc5304c",)),
        (("excess-risk", "--sizes", "6,12", "--t-max", "40"), ("9dc8d1ff403eca1b",)),
    ], ids=["tracking-scsc", "tracking-scgd", "optimization-sigma", "optimization-exp",
            "excess-risk-strongly-convex", "excess-risk-t-max"])
    def test_study_output_bytes_pinned(self, capsys, tmp_path, argv, digests):
        out_path = tmp_path / "study.csv"
        code, _, _ = dispatch(
            capsys, *argv, "--replicates", "3", "--seed", "3", "--out", str(out_path),
        )
        assert code == 0
        written = [out_path, tmp_path / "study.svg"][: len(digests)]
        assert [hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in written] == list(digests)

    def test_optimization_study_grid(self, capsys, tmp_path):
        out_path = tmp_path / "optimization.csv"
        code, _, _ = dispatch(
            capsys, "optimization", "--T-grid", "32,64", "--replicates", "3",
            "--n", "6", "--m", "6", "--out", str(out_path),
        )
        assert code == 0
        header, rows = read_csv(out_path)
        assert header == ["T", "eta", "beta", "gap_mean", "gap_se"]
        assert [row[0] for row in rows] == [32, 64]

    def test_excess_risk_footer_carries_slope(self, capsys, tmp_path):
        out_path = tmp_path / "excess.csv"
        code, _, _ = dispatch(
            capsys, "excess-risk", "--benchmark", "strongly_convex",
            "--convexity", "strongly_convex", "--sizes", "8,16",
            "--replicates", "3", "--out", str(out_path),
        )
        assert code == 0
        header, rows = read_csv(out_path)
        assert header[-1] == "fitted_slope"
        assert len(rows) == 3
        assert rows[-1][-1] is not None
        assert all(row[-1] is None for row in rows[:-1])

    def test_excess_risk_repeated_size_has_no_slope(self, capsys, tmp_path):
        # rows at one n leave the slope undefined
        out_path = tmp_path / "excess.csv"
        code, _, _ = dispatch(
            capsys, "excess-risk", "--sizes", "6,6", "--replicates", "3", "--out", str(out_path),
        )
        assert code == 0
        assert out_path.read_text().splitlines()[-1] == ",,,,,,,nan"

    # Steps of 1e154 on a ball of radius 1.7e308 reach iterates near 1e307,
    # whose risks and squared distances lie past the float range.
    @pytest.mark.parametrize("argv, row", [
        (("optimize", "--n", "2", "--m", "2", "--T", "2", "--eta", "1e154"),
         "2,inf,inf,1.8616657600060966e+307"),
        (("tracking", "--T", "2", "--eta", "1e154", "--replicates", "2", "--n", "2", "--m", "2"),
         None),
        (("stability", "--T", "2", "--eta", "1e154", "--replicates", "2", "--n", "2", "--m", "2"),
         "scgd,convex,2,2,2,1e+154,0.10000000000000001,2,5.028661187426416e+306,"
         "5.0286611874264153e+306,7.8185521888897153e+306,3.6515628540115033e+306"),
        (("optimization", "--T-grid", "2", "--eta", "1e154", "--replicates", "2"),
         "2,1e+154,0.10000000000000001,inf,nan"),
        (("excess-risk", "--sizes", "2", "--t-max", "2", "--replicates", "2"), None),
    ], ids=["optimize", "tracking", "stability", "optimization", "excess-risk"])
    def test_steps_past_the_float_range_raise_no_warning(self, capsys, tmp_path, argv, row):
        out_path = tmp_path / "x.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, _ = dispatch(capsys, *argv, "--radius", "1.7e308", "--svg",
                                  "--out", str(out_path))
        assert [str(w.message) for w in caught] == []
        assert code in (0, 2)
        if row is not None:
            assert code == 0
            assert row in out_path.read_text().splitlines()
            svg = (tmp_path / "x.svg").read_text()
            assert "nan" not in svg and "inf" not in svg

    def test_reruns_are_byte_identical_across_threads(self, capsys, tmp_path):
        paths = []
        for tag, threads in (("a", "1"), ("b", "8")):
            out_path = tmp_path / f"stb-{tag}.csv"
            code, _, _ = dispatch(
                capsys, "stability", "--n", "6", "--m", "6", "--T", "60",
                "--replicates", "4", "--seed", "5", "--threads", threads,
                "--out", str(out_path),
            )
            assert code == 0
            paths.append(out_path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestSvg:
    @pytest.mark.parametrize("log", [False, True])
    def test_non_finite_points_are_left_out(self, tmp_path, log):
        path, finite_path = tmp_path / "c.svg", tmp_path / "finite.svg"
        emit_svg(path, "t", [1, 2, 4, 8],
                 {"a": [1.0, np.inf, 4.0, np.nan], "b": [2.0, 2.0, np.nan, 8.0]}, log=log)
        text = path.read_text()
        assert "nan" not in text and "inf" not in text
        # The finite points alone set the ranges, so the axes are those of a
        # chart of the extreme finite points; each polyline keeps its finite
        # points only.
        emit_svg(finite_path, "t", [1, 8], {"a": [1.0, 8.0]}, log=log)
        axes = finite_path.read_text().split("<polyline")[0]
        assert text.startswith(axes)
        points = [line.split('points="')[1].split('"')[0].split()
                  for line in text.splitlines() if line.startswith("<polyline")]
        assert [len(p) for p in points] == [2, 3]

    def test_chart_without_a_finite_point_draws_empty_axes(self, tmp_path):
        path = tmp_path / "c.svg"
        emit_svg(path, "t", [1, 2], {"a": [np.inf, np.nan]})
        text = path.read_text()
        assert "nan" not in text and "inf" not in text
        assert 'points=""' in text

    def test_log_axes_reject_nonpositive(self, tmp_path):
        with pytest.raises(ValueError, match="log axis"):
            emit_svg(tmp_path / "x.svg", "t", [1, 2], {"s": [0.0, 1.0]}, log=True)

    def test_self_contained_single_file(self, tmp_path):
        path = tmp_path / "c.svg"
        emit_svg(path, "demo", [1, 2, 4], {"a": [1.0, 2.0, 4.0], "b": [4.0, 2.0, 1.0]}, log=True)
        text = path.read_text()
        assert text.count("<svg") == 1
        assert "polyline" in text

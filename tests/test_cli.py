import hashlib
import json
import warnings

import numpy as np
import pytest

from scolab.cli import parse_and_dispatch
from scolab.core import Rng
from scolab.reporting import emit_csv, emit_svg, read_csv


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

    def test_bad_replicates(self, capsys):
        code, _, err = dispatch(capsys, "tracking", "--replicates", "1")
        assert code == 2
        assert "replicates must be >= 2" in err

    def test_module_precondition_maps_to_usage_error(self, capsys):
        code, _, err = dispatch(
            capsys, "optimize", "--T", "5", "--output-mode", "sigma_weighted"
        )
        assert code == 2
        assert "sigma" in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = dispatch(capsys, "--help")
        assert code == 0


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

    def test_huge_step_lands_on_sphere(self, capsys, tmp_path):
        # ||x||^2 of the unprojected step overflows; the projection must
        # still land on the sphere, not at the origin.
        code, out, _ = dispatch(
            capsys, "optimize", "--eta", "1e200", "--T", "5", "--out", str(tmp_path / "t.csv"),
        )
        assert code == 0
        norm = float(np.linalg.norm(json.loads(out)["x"]))
        assert norm <= 10.0
        assert norm == pytest.approx(10.0, rel=1e-15)

    def test_overflowing_step_is_usage_error(self, capsys, tmp_path):
        code, out, err = dispatch(
            capsys, "optimize", "--eta", "1.7e308", "--T", "5", "--out", str(tmp_path / "t.csv"),
        )
        assert code == 2
        assert out == ""
        assert "non-finite vector" in err

    @pytest.mark.parametrize("eta, code, expected_err", [
        ("1e200", 0, ""),
        ("1.7e308", 2, "non-finite vector\n"),
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
        (("--uncoupled",), "c3d070bc86db6abf"),
        (("--variant", "scsc"), "53f896c4297317c4"),
        (("--variant", "scsc", "--uncoupled"), "29ff50092675c01c"),
    ])
    def test_stability_csv_bytes_pinned(self, capsys, tmp_path, flags, digest):
        out_path = tmp_path / "stability.csv"
        code, _, _ = dispatch(
            capsys, "stability", "--n", "5,10", "--m", "6", "--T", "300",
            "--replicates", "4", "--seed", "3", *flags, "--out", str(out_path),
        )
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest()[:16] == digest

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
    def test_log_axes_reject_nonpositive(self, tmp_path):
        with pytest.raises(ValueError, match="log axis"):
            emit_svg(tmp_path / "x.svg", "t", [1, 2], {"s": [0.0, 1.0]}, log_y=True)

    def test_self_contained_single_file(self, tmp_path):
        path = tmp_path / "c.svg"
        emit_svg(path, "demo", [1, 2, 4], {"a": [1.0, 2.0, 4.0], "b": [4.0, 2.0, 1.0]},
                 log_x=True, log_y=True)
        text = path.read_text()
        assert text.count("<svg") == 1
        assert "polyline" in text

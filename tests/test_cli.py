"""CLI contract: subcommands, exit codes, serialization round-trips."""

import csv
import io
import json
import math

import pytest

from heisenmag.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, export_samples, main


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassify:
    def test_canonical_json(self, capsys):
        code, out, _ = run_cli(
            ["classify", "--alpha", "4", "--beta", "3", "--rho", "2"], capsys
        )
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["tag"] == "A"
        assert abs(obj["rho"] - 0.4) < 1e-14
        assert abs(obj["witness"]["r"] - 0.2) < 1e-14

    def test_exact_tag(self, capsys):
        code, out, _ = run_cli(
            ["classify", "--alpha", "0", "--beta", "0", "--rho", "-3"], capsys
        )
        assert json.loads(out)["tag"] == "B"


class TestClassifyIC:
    def test_profile_fields(self, capsys):
        code, out, _ = run_cli(
            ["classify-ic", "--x0", "0", "--y0", "0", "--z0", "-1", "--rho", "1"],
            capsys,
        )
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["branch"] == "NEG"
        assert obj["delta"] == -496.0
        assert obj["p0"] == 2.0 and obj["q0"] == 0.0

    def test_cusp(self, capsys):
        _, out, _ = run_cli(
            ["classify-ic", "--x0", "0", "--y0", "2", "--z0", "2", "--rho", "1"],
            capsys,
        )
        obj = json.loads(out)
        assert obj["branch"] == "ZERO_CUSP"
        assert obj["mu"] == 0.0 and obj["r_double"] == -1.0


class TestSample:
    def test_grid_includes_endpoint(self, capsys):
        code, out, _ = run_cli(
            [
                "sample", "--x0", "1", "--y0", "0.5", "--z0", "0.2", "--rho", "1",
                "--t-max", "1.0", "--dt", "0.3",
            ],
            capsys,
        )
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["t", "x", "y", "z", "energy_residual"]
        assert float(rows[-1][0]) == 1.0

    def test_energy_residual_small(self, capsys):
        _, out, _ = run_cli(
            [
                "sample", "--x0", "0.7", "--y0", "-0.2", "--z0", "0.4", "--rho", "0.5",
                "--t-max", "5", "--dt", "0.5",
            ],
            capsys,
        )
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert max(abs(float(r[4])) for r in rows) < 1e-9

    def test_negative_x0_goes_through_reflection(self, capsys):
        code, out, _ = run_cli(
            [
                "sample", "--x0", "-1", "--y0", "0.5", "--z0", "0.2", "--rho", "1",
                "--t-max", "1", "--dt", "0.5",
            ],
            capsys,
        )
        assert code == EXIT_OK

    def test_json_format(self, capsys):
        _, out, _ = run_cli(
            [
                "sample", "--x0", "1", "--y0", "0", "--z0", "0", "--rho", "1",
                "--t-max", "0.4", "--dt", "0.2", "--format", "json",
            ],
            capsys,
        )
        rows = json.loads(out)
        assert rows[0]["t"] == 0.0 and "energy_residual" in rows[0]

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "samples.csv"
        rows = [(0.1, 1 / 3.0, -2.0 / 7.0, math.pi, 1e-17)]
        export_samples(rows, ["t", "x", "y", "z", "energy_residual"], str(path))
        text = path.read_text().splitlines()
        parsed = [float(v) for v in text[1].split(",")]
        assert parsed == list(rows[0])

    def test_zero_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        export_samples([], ["t", "x", "y", "z"], str(path))
        assert path.read_text() == "t,x,y,z\n"


class TestPeriodic:
    def test_closure_reported(self, capsys):
        code, out, _ = run_cli(
            ["periodic", "--rho", "1", "--energy", "1"], capsys
        )
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["closure_residual"] < 1e-7
        assert abs(obj["energy_error"]) < 1e-9


class TestLattice:
    def test_search(self, capsys):
        code, out, _ = run_cli(
            ["lattice", "--k", "1", "--lambda", "1,0.5", "--energy", "1"], capsys
        )
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["residual"] < 1e-7

    def test_not_found_is_domain_error(self, capsys):
        code, _, err = run_cli(
            ["lattice", "--k", "1", "--lambda", "0,0.5", "--energy", "1"], capsys
        )
        assert code == EXIT_DOMAIN
        assert "error" in err

    def test_obstruction(self, capsys):
        rot = f"{math.sqrt(3)/2},0.5,-0.5,{math.sqrt(3)/2}"
        code, out, _ = run_cli(["lattice-obstruction", "--basis", rot], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["admits_period_candidates"] is False
        code, out, _ = run_cli(["lattice-obstruction", "--basis", "1,0,0,1"], capsys)
        assert json.loads(out)["admits_period_candidates"] is True


class TestVerify:
    def test_single_suite(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--suite", "lattice-obstruction"], capsys
        )
        assert code == EXIT_OK
        assert "[PASS]" in out

    def test_full_suite_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "all"], capsys)
        assert code == EXIT_OK
        assert "11/11 criteria passed" in out

    def test_branch_case(self, capsys):
        code, out, _ = run_cli(["verify", "--case", "NEG"], capsys)
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["ode_residual"] < 1e-8

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, _ = run_cli(["verify", "--suite", "no-such-suite"], capsys)
        assert code == EXIT_USAGE


class TestElliptic:
    def test_check_table(self, capsys):
        code, out, _ = run_cli(["elliptic", "--check"], capsys)
        assert code == EXIT_OK
        assert "legendre" in out
        assert "FAIL" not in out


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify-ic", "--x0", "nan", "--y0", "0", "--z0", "-1", "--rho", "1"],
            ["sample", "--x0", "inf", "--y0", "0", "--z0", "0", "--rho", "1",
             "--t-max", "1", "--dt", "0.5"],
            ["sample", "--x0", "1", "--y0", "0", "--z0", "0", "--rho", "1",
             "--t-max", "nan", "--dt", "0.5"],
            ["sample", "--x0", "1", "--y0", "0", "--z0", "0", "--rho", "1",
             "--t-max", "1", "--dt", "inf"],
            ["periodic", "--rho", "1", "--energy", "nan"],
            ["periodic", "--rho", "1", "--energy", "1", "--e", "nan"],
            ["classify", "--alpha", "nan", "--beta", "1", "--rho", "1"],
            ["lattice", "--k", "1", "--lambda", "1,nan", "--energy", "1"],
            ["lattice", "--k", "1", "--lambda", "1,0.5", "--energy", "1", "--rho", "inf"],
            ["lattice-obstruction", "--basis", "nan,1,0,1"],
        ],
    )
    def test_non_finite_input_is_domain_error(self, argv, capsys):
        code, _, err = run_cli(argv, capsys)
        assert code == EXIT_DOMAIN
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_energy_below_floor_is_domain_error(self, capsys):
        code, _, err = run_cli(["periodic", "--rho", "3", "--energy", "1e-10"], capsys)
        assert code == EXIT_DOMAIN
        assert err.startswith("error:") and "smallest resolvable" in err

    def test_bad_tolerance_is_domain_error(self, monkeypatch, capsys):
        monkeypatch.setenv("HEISENMAG_TOL", "abc")
        code, out, err = run_cli(["verify", "--suite", "exact-threshold"], capsys)
        assert code == EXIT_DOMAIN
        assert err.startswith("error:") and "HEISENMAG_TOL" in err
        assert "FAIL" not in out and "PASS" not in out

    def test_usage_error(self, capsys):
        code, _, err = run_cli(["sample", "--x0", "1"], capsys)
        assert code == EXIT_USAGE

    def test_bad_lambda_format(self, capsys):
        code, _, _ = run_cli(
            ["lattice", "--k", "1", "--lambda", "nope", "--energy", "1"], capsys
        )
        assert code == EXIT_USAGE

    def test_determinism(self, capsys):
        args = ["periodic", "--rho", "1", "--energy", "2", "--e", "0.5"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

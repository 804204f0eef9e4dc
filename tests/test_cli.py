"""CLI contract: subcommands, exit codes, serialization round-trips."""

import csv
import io
import json
import math
import os
import random

import numpy as np
import pytest

from heisenmag import acceptance, cli
from heisenmag.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, export_samples, main
from heisenmag.periodic import build_periodic
from heisenmag.quartic import InitialData
from heisenmag.trajectory import make_solution


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

    def test_exact_double_roots(self, capsys):
        # m = (eta^2 - 1)^2 at rho = 0
        _, out, _ = run_cli(
            ["classify-ic", "--x0", "0", "--y0", "-1", "--z0", "1", "--rho", "0"],
            capsys,
        )
        assert json.loads(out)["roots"] == [[-1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]

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

    def test_negative_x0_samples_the_time_reversal(self, capsys):
        code, out, _ = run_cli(
            [
                "sample", "--x0", "-1", "--y0", "0.5", "--z0", "0.2", "--rho", "1",
                "--t-max", "1", "--dt", "0.5",
            ],
            capsys,
        )
        assert code == EXIT_OK
        sol = make_solution(InitialData(1.0, 0.5, 0.2, 1.0))
        for row in list(csv.reader(io.StringIO(out)))[1:]:
            t, x, y, z = (float(v) for v in row[:4])
            p = sol.point(-t)
            assert (x, y, z) == (p.x, -p.y, -p.z)

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

    def test_csv_digits_match_format(self, tmp_path):
        specials = [0.0, -0.0, 5e-324, -2.5e-310, math.inf, -math.inf, math.nan, 1e308,
                    -1.7976931348623157e308, 2.2250738585072014e-308]
        rng = random.Random(5)
        randoms = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-20, 20) for _ in range(40)]
        values = specials + randoms
        rows = [tuple(values[i:i + 5]) for i in range(0, len(values), 5)]
        path = tmp_path / "digits.csv"
        export_samples(rows, ["t", "x", "y", "z", "energy_residual"], str(path))
        expected = "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in rows)
        assert path.read_text() == "t,x,y,z,energy_residual\n" + expected

    def test_zero_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        export_samples([], ["t", "x", "y", "z"], str(path))
        assert path.read_text() == "t,x,y,z\n"

    @pytest.mark.parametrize("n_rows", [0, cli._CSV_CHUNK_ROWS - 1, cli._CSV_CHUNK_ROWS,
                                        cli._CSV_CHUNK_ROWS + 1])
    def test_csv_chunks_match_format(self, n_rows, tmp_path):
        # each chunk's single % gives the bytes of format(v, ".17g") per value
        specials = [0.0, -0.0, 5e-324, -2.5e-310, math.inf, -math.inf, math.nan, 1e308,
                    -1.7976931348623157e308, 2.2250738585072014e-308]
        rng = random.Random(n_rows)
        values = [specials[i % len(specials)] if i < len(specials) or i % 7 == 0 else
                  rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-20, 20)
                  for i in range(5 * n_rows)]
        rows = [values[i:i + 5] for i in range(0, len(values), 5)]
        path = tmp_path / "chunks.csv"
        export_samples(np.array(rows).reshape(-1, 5), ["t", "x", "y", "z", "energy_residual"],
                       str(path))
        expected = "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in rows)
        assert path.read_text() == "t,x,y,z,energy_residual\n" + expected

    def test_time_grid_is_the_products(self):
        # numpy's grid holds the floats i * dt, with t_max appended off the grid
        rng = random.Random(31)
        cases = [(-1.0, 0.5), (-1e-300, 1e-3), (0.0, 0.1), (1.0, 0.3), (1.0, 0.25), (20.0, 0.05),
                 (0.3, 0.1), (1e6, 1.0), (5.0, 7.0)]
        for _ in range(200):
            dt = 10.0 ** rng.uniform(-3, 1)
            steps = rng.choice([rng.randint(0, 20000), rng.uniform(0.0, 20000.0)])
            cases.append((steps * dt * rng.choice([1.0, -1.0, 1.0, 1.0]), dt))
        appended = 0
        for t_max, dt in cases:
            grid = [v.hex() for v in cli._time_grid(t_max, dt).tolist()]
            if t_max < 0.0:
                assert grid == []
                continue
            n = math.floor(t_max / dt + cli._GRID_SLACK)
            ts = [i * dt for i in range(n + 1)]
            if abs(ts[-1] - t_max) > cli._END_BAND * max(1.0, t_max):
                ts.append(t_max)
                appended += 1
            assert grid == [v.hex() for v in ts], (t_max, dt)
        assert 0 < appended < len(cases)


class TestPeriodic:
    def test_closure_reported(self, capsys):
        code, out, _ = run_cli(
            ["periodic", "--rho", "1", "--energy", "1"], capsys
        )
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["closure_residual"] < 1e-7
        assert abs(obj["energy_error"]) < 1e-9

    def test_floats_round_trip_bit_for_bit(self, capsys):
        _, out, _ = run_cli(["periodic", "--rho", "3", "--energy", "0.05", "--e", "0.4"], capsys)
        obj = json.loads(out)
        _, report = build_periodic(0.05, 0.4, 3.0)
        data = report.pop("initial_data")
        report.update(x0=data.x0, y0=data.y0, z0=data.z0)
        for key, value in report.items():
            assert float(obj[key]).hex() == float(value).hex(), key


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["lattice", "--k", "0", "--lambda", "1,0.5", "--energy", "1"],
            ["lattice", "--k", "1", "--lambda", "1,0.3", "--energy", "1"],
        ],
    )
    def test_lambda_outside_gamma_k_is_domain_error(self, argv, capsys):
        code, _, err = run_cli(argv, capsys)
        assert code == EXIT_DOMAIN
        assert err.startswith("error:") and "Gamma_" in err

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
        assert obj["passed"] is True

    @pytest.mark.parametrize(("gate", "field"), [("_ODE_RESIDUAL_GATE", "ode_residual"),
                                                 ("_ORACLE_GATE", "oracle_distance")])
    def test_failing_case_is_verification_failure(self, gate, field, monkeypatch, capsys):
        # a record over one of criterion 1's gates fails --case and criterion 1 alike
        monkeypatch.setattr(acceptance, gate, 0.0)
        code, out, _ = run_cli(["verify", "--case", "NEG"], capsys)
        assert code == EXIT_VERIFY
        obj = json.loads(out)
        assert obj["passed"] is False and obj[field] > 0.0
        assert acceptance.crit_closed_form().passed is False

    def test_json_records(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "lattice-obstruction", "--json"], capsys)
        assert code == EXIT_OK
        (record,) = json.loads(out)
        assert record["name"] == "lattice-obstruction" and record["passed"] is True
        assert record["elapsed"] >= 0.0
        assert record["details"] == {"rotated": False, "standard": True}

    def test_json_failure_keeps_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(acceptance, "_DRIFT_GATE", 0.0)
        code, out, _ = run_cli(["verify", "--suite", "first-integral", "--json"], capsys)
        assert code == EXIT_VERIFY
        (record,) = json.loads(out)
        assert record["passed"] is False and record["details"]["max_drift"] > 0.0

    @pytest.mark.parametrize("raw", ["1e-30", "1e9", "abc"])
    def test_verdict_ignores_the_environment(self, raw, monkeypatch, capsys):
        # every gate is a constant: HEISENMAG_TOL, which once scaled them, changes no byte
        def outputs():
            code, out, err = run_cli(["verify", "--suite", "first-integral", "--json"], capsys)
            (record,) = json.loads(out)
            record.pop("elapsed")
            return [(code, record, err), (*run_cli(["verify", "--case", "NEG"], capsys),)]

        monkeypatch.delenv("HEISENMAG_TOL", raising=False)
        unset = outputs()
        monkeypatch.setenv("HEISENMAG_TOL", raw)
        assert outputs() == unset

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, _ = run_cli(["verify", "--suite", "no-such-suite"], capsys)
        assert code == EXIT_USAGE


class TestElliptic:
    def test_check_table(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "elliptic"], capsys)
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
            ["classify-ic", "--x0", "-inf", "--y0", "0", "--z0", "-1", "--rho", "1"],
            ["classify-ic", "--x0", "-Infinity", "--y0", "0", "--z0", "-1", "--rho", "1"],
            ["classify-ic", "--x0", "-nan", "--y0", "0", "--z0", "-1", "--rho", "1"],
            ["lattice", "--k", "1", "--lambda", "-inf,0.5", "--energy", "1"],
            # finite, but the speed quartic overflows a float
            ["sample", "--x0", "1e100", "--y0", "0", "--z0", "0", "--rho", "1",
             "--t-max", "1", "--dt", "0.5"],
            ["classify-ic", "--x0", "1e100", "--y0", "0", "--z0", "0", "--rho", "1"],
        ],
    )
    def test_non_finite_input_is_domain_error(self, argv, capsys):
        code, _, err = run_cli(argv, capsys)
        assert code == EXIT_DOMAIN
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["periodic", "--rho", "1e200", "--energy", "1"], "rho=1e+200"),
            (["periodic", "--rho", "1", "--energy", "1e300"], "energy 1e+300"),
            (["lattice", "--k", "1", "--lambda", "1,0.5", "--energy", "1e300"], "energy 1e+300"),
            (["lattice", "--k", "1", "--lambda", "1e300,0.5", "--energy", "1"],
             "lambda = (0, 1e+300, 0.5)"),
            (["lattice", "--k", "1", "--lambda", "1,1e308", "--energy", "1"], "z = 1e+308"),
            (["lattice", "--k", "1" + "0" * 400, "--lambda", "1,0.5", "--energy", "1"],
             "Gamma_k requires"),
        ],
    )
    def test_huge_periodic_input_is_named(self, argv, named, capsys):
        # finite, but past what the periodic solvers resolve in floats
        code, _, err = run_cli(argv, capsys)
        assert code == EXIT_DOMAIN
        assert err.startswith("error:") and named in err

    @pytest.mark.parametrize("basis", ["1,0,0,0", "1,2,2,4"])
    def test_degenerate_basis_is_domain_error(self, basis, capsys):
        code, out, err = run_cli(["lattice-obstruction", "--basis", basis], capsys)
        assert code == EXIT_DOMAIN
        assert out == "" and "linearly dependent" in err

    def test_energy_below_floor_is_domain_error(self, capsys):
        code, _, err = run_cli(["periodic", "--rho", "3", "--energy", "1e-10"], capsys)
        assert code == EXIT_DOMAIN
        assert err.startswith("error:") and "smallest resolvable" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--case", "POS_HIGH", "--rho", "-1"],
            ["verify", "--case", "NEG", "--rho", "0"],
        ],
    )
    def test_bad_verify_case_is_domain_error(self, argv, capsys):
        code, _, err = run_cli(argv, capsys)
        assert code == EXIT_DOMAIN
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_rho_zero_band_is_domain_error(self, capsys):
        # genuine Delta > 0 data inside the Delta = 0 band at rho = 0
        code, out, err = run_cli(
            ["sample", "--x0", "0.009525508075331384", "--y0", "-0.3434238299204694",
             "--z0", "19.562166335480466", "--rho", "0", "--t-max", "1", "--dt", "0.5"],
            capsys,
        )
        assert code == EXIT_DOMAIN
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert out == ""

    def test_curve_past_the_float_range_is_domain_error(self, capsys):
        # y grows like (p0/2 - 1) t with p0 ~ -(z0 + rho)^2, past 1e308 at the last row
        code, out, err = run_cli(
            ["sample", "--x0", "-1.5", "--y0", "-1.5", "--z0", "-1.5", "--rho", "2e16",
             "--t-max", "1e304", "--dt", "5e303"],
            capsys,
        )
        assert code == EXIT_DOMAIN
        assert err.startswith("error:") and "float range" in err
        assert out == ""

    def test_huge_grid_is_domain_error(self, capsys):
        code, out, err = run_cli(
            ["sample", "--x0", "1", "--y0", "0", "--z0", "0", "--rho", "1",
             "--t-max", "1", "--dt", "1e-300"],
            capsys,
        )
        assert code == EXIT_DOMAIN
        assert err.startswith("error:") and "grid points" in err
        assert out == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_write_is_domain_error(self, fmt, capsys):
        # the bytes fail on their way out, at write or at close
        code, out, err = run_cli(
            ["sample", "--x0", "1", "--y0", "0.5", "--z0", "0.2", "--rho", "1",
             "--t-max", "1", "--dt", "0.25", "--format", fmt, "--output", "/dev/full"],
            capsys,
        )
        assert code == EXIT_DOMAIN
        assert err.startswith("error: cannot write /dev/full:") and "Traceback" not in err
        assert out == ""

    def test_usage_error(self, capsys):
        for argv in (
            ["sample", "--x0", "1"],
            ["lattice", "--k", "1", "--lambda", "1,abc", "--energy", "1"],
            ["lattice-obstruction", "--basis", "1,x,0,1"],
            ["verify", "--suite", "discriminant", "--seed", "-1"],
            ["verify", "--suite", "discriminant", "--rho", "2"],
        ):
            code, _, err = run_cli(argv, capsys)
            assert code == EXIT_USAGE
            assert err.startswith("usage error:")

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "elliptic", "--seed", "7"],
        ["verify", "--suite", "lagrangian", "--seed", "0"],
        ["verify", "--case", "NEG", "--seed", "5"],
        ["verify", "--case", "NEG", "--seed", "0"],
    ])
    def test_seed_that_no_suite_reads_is_usage_error(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_USAGE and out == ""
        assert err == ("usage error: --seed takes a non-negative integer, for --suite "
                       "all|discriminant|periodicity\n")

    def test_seeded_suite_takes_the_seed_and_reads_none_as_zero(self, capsys):
        runs = [run_cli(["verify", "--suite", "discriminant", *seed], capsys)
                for seed in ([], ["--seed", "0"], ["--seed", "3"])]
        assert [code for code, _, _ in runs] == [EXIT_OK] * 3
        assert runs[0] == runs[1] != runs[2]

    @pytest.mark.parametrize(
        "argv, read, value",
        [
            (["lattice", "--k", "1", "--energy", "1", "--lambda", "-1,0.5"],
             lambda obj: obj["lambda"]["y1"], -1.0),
            (["lattice-obstruction", "--basis", "-0.5,1,0,1"],
             lambda obj: obj["basis"][0][0], -0.5),
            (["classify-ic", "--y0", "0.5", "--z0", "0.2", "--rho", "1", "--x0", "-1e-3"],
             lambda obj: obj["x0"], -1e-3),
        ],
    )
    def test_negative_option_values(self, argv, read, value, capsys):
        # the negative value comes last, as its own token and as --flag=value
        joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
        for form in (argv, joined):
            code, out, _ = run_cli(form, capsys)
            assert code == EXIT_OK
            assert read(json.loads(out)) == value

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


class TestOnePassParse:
    ARGV = (
        [],
        ["--help"],
        ["sample", "--help"],
        ["nosuch", "--x0", "1"],
        ["sample", "--x0", "1"],
        ["periodic", "--rho", "1", "--energy", "1", "--bogus", "2"],
        ["periodic", "--rho", "1", "--ener", "1"],
        ["classify-ic", "--x0", "-1e-3", "--y0", "-0.5", "--z0", "-1", "--rho", "1"],
        ["classify-ic", "--x0=-1e-3", "--y0=-0.5", "--z0=-1", "--rho=1"],
        ["lattice", "--k", "1", "--energy", "1", "--lambda", "-1,0.5"],
        ["lattice", "--k", "1", "--energy", "1", "--lambda=-1,0.5"],
        ["sample", "--x0", "1", "--y0", "0.5", "--z0", "0.2", "--rho", "1",
         "--t-max", "1", "--dt", "0.25", "--format", "json"],
    )

    @staticmethod
    def run(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help exits from inside argparse
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    @pytest.mark.parametrize("argv", ARGV, ids=[" ".join(a) or "empty" for a in ARGV])
    def test_same_as_the_root_parser(self, argv, monkeypatch, capsys):
        one_pass = self.run(argv, capsys)
        root = cli.build_parser.__wrapped__()
        root.subcommands = {}  # every argv then goes through the root parser
        monkeypatch.setattr(cli, "build_parser", lambda: root)
        assert self.run(argv, capsys) == one_pass

    def test_subcommand_skips_the_root_parser(self, monkeypatch, capsys):
        fresh = cli.build_parser.__wrapped__()

        def refused(*args, **kwargs):
            raise AssertionError("the root parser ran")

        monkeypatch.setattr(fresh, "parse_known_args", refused)
        monkeypatch.setattr(cli, "build_parser", lambda: fresh)
        assert main(["periodic", "--rho", "1", "--energy", "1"]) == EXIT_OK
        with pytest.raises(AssertionError, match="root parser"):
            main(["nosuch"])


class TestSharedParser:
    SEQUENCE = (
        ["sample", "--x0", "1", "--y0", "0.5", "--z0", "0.2", "--rho", "1",
         "--t-max", "1", "--dt", "0.25"],
        ["sample", "--x0", "1", "--y0", "0.5", "--z0", "0.2", "--rho", "1",
         "--t-max", "1", "--dt", "0.25", "--format", "json"],
        ["sample", "--x0", "1"],
        ["periodic", "--rho", "1", "--energy", "2", "--e", "0.5"],
        ["lattice", "--k", "1", "--energy", "1", "--lambda", "-1,0.5"],
        ["classify-ic", "--x0", "-inf", "--y0", "0", "--z0", "-1", "--rho", "1"],
        ["sample", "--x0", "1", "--y0", "0.5", "--z0", "0.2", "--rho", "1",
         "--t-max", "1", "--dt", "0.25"],
    )

    def test_built_once_per_process(self, monkeypatch, capsys):
        classify = ["classify", "--alpha", "4", "--beta", "3", "--rho", "2"]
        assert main(classify) == EXIT_OK
        built = []
        init = cli._Parser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counted)
        assert main(classify) == EXIT_OK
        assert main(self.SEQUENCE[0]) == EXIT_OK
        assert built == []

    def test_no_state_carries_between_calls(self, monkeypatch, capsys):
        def run_sequence():
            return [run_cli(argv, capsys)[:2] for argv in self.SEQUENCE]

        shared = run_sequence()
        fresh = cli.build_parser.__wrapped__()
        assert fresh is not cli.build_parser()
        monkeypatch.setattr(cli, "build_parser", lambda: fresh)
        assert run_sequence() == shared
        codes = [code for code, _ in shared]
        assert codes == [EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_DOMAIN, EXIT_OK]
        assert shared[0][1] == shared[-1][1] and shared[0][1].startswith("t,x,y,z")

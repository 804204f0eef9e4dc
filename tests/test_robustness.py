"""Randomized sweeps and edge cases beyond the anchored representatives."""

import os

import numpy as np
import pytest
from scipy.integrate import quad

from heisenmag import acceptance
from heisenmag.elliptic import AGM
from heisenmag.errors import DomainError, HeisenmagError
from heisenmag.heisenberg import LorentzForce
from heisenmag.oracle import OracleConfig, StateVector, integrate_general
from heisenmag.periodic import (
    GammaLattice,
    LatticeElement,
    build_periodic,
    find_lambda_periodic,
    primitive_period,
    solve_dc,
)
from heisenmag.quartic import Branch, InitialData, build_profile
from heisenmag.trajectory import make_solution


class TestRandomCrossValidation:
    def test_random_periodic_branches_track_oracle(self):
        rng = np.random.default_rng(99)
        counts = {Branch.NEG: 0, Branch.POS_LOW: 0, Branch.POS_HIGH: 0}
        tries = 0
        while min(counts.values()) < 8 and tries < 2000:
            tries += 1
            data = InitialData(
                abs(rng.normal(0, 1.2)),
                rng.normal(0, 1.5),
                rng.normal(0, 1.5),
                abs(rng.normal(0, 1.2)),
            )
            branch = build_profile(data).branch
            if branch not in counts or counts[branch] >= 8:
                continue
            sol = make_solution(data)
            omega = sol.x_period
            if omega is None or omega > 60.0:
                continue
            cfg = OracleConfig(rel_tol=1e-11, abs_tol=1e-13, t_span=(0.0, 2 * omega))
            orc = integrate_general(
                LorentzForce(0, 1, data.rho),
                StateVector.from_initial_data(data),
                cfg,
                n_samples=41,
            )
            for (px, py, pz), s in zip(sol.sample(orc.t), orc.states):
                assert max(abs(px - s[0]), abs(py - s[1]), abs(pz - s[2])) < 1e-6
            counts[branch] += 1
        assert min(counts.values()) >= 8

    def test_random_reflections_track_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(6):
            data = InitialData(
                -abs(rng.normal(0, 1.0)) - 0.1,
                rng.normal(0, 1.0),
                rng.normal(0, 1.0),
                abs(rng.normal(0, 1.0)),
            )
            refl = make_solution(data)
            cfg = OracleConfig(rel_tol=1e-12, abs_tol=1e-14, t_span=(0.0, 8.0))
            orc = integrate_general(
                LorentzForce(0, 1, data.rho),
                StateVector(0, 0, 0, data.x0, data.y0, data.z0),
                cfg,
                n_samples=17,
            )
            for t, s in zip(orc.t, orc.states):
                p = refl.point(t)
                assert max(abs(p.x - s[0]), abs(p.y - s[1]), abs(p.z - s[2])) < 1e-7


class TestHarmonicBand:
    def test_rho_zero_sweep_builds_or_raises_typed(self):
        # at rho = 0 and large |z0| the Delta = 0 band holds genuine Delta > 0
        # data; each input must build or raise a HeisenmagError
        rng = np.random.default_rng(2000)
        built = 0
        for _ in range(1000):
            data = InitialData(
                rng.uniform(0.0, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(-60.0, 60.0), 0.0
            )
            try:
                sol = make_solution(data)
            except HeisenmagError:
                continue
            assert abs(sol.x(0.0)) <= 1e-8 * data.scale()
            built += 1
        assert built > 0


class TestYFolding:
    @pytest.mark.parametrize(
        "branch", [b for b in Branch if b is not Branch.TRIVIAL], ids=lambda b: b.value
    )
    def test_negative_and_large_times(self, branch):
        data = acceptance.representative_data(branch)
        sol = make_solution(data)
        assert sol.profile.branch is branch

        def y_prime(s):
            x = sol.x(s)
            return 0.5 * x * x + data.zr * x + data.y0

        for t in (-7.3, -50.0, 123.456):
            direct, _ = quad(y_prime, 0.0, t, epsabs=1e-12, epsrel=1e-12, limit=2000)
            assert abs(sol.y(t) - direct) < 1e-7 * max(1.0, abs(t))


class TestHarmonicForce:
    # rho = 0 (harmonic class) runs through the whole periodicity lab
    def test_build_periodic(self):
        _, rep = build_periodic(2.0, 0.3, rho=0.0)
        assert max(rep["closure_x"], rep["closure_y"], rep["closure_z"]) < 1e-7
        assert rep["energy_error"] < 1e-9

    def test_lambda_search(self):
        res = find_lambda_periodic(LatticeElement(0, 1.0, 0.5), 1.0, 0.0)
        assert res.residual < 1e-7

    def test_solve_dc_near_one(self):
        d = solve_dc(1.0 + 1e-6, 0.7)
        assert 0.0 < d < 0.01


class TestPowerConstruction:
    def test_large_y1_uses_higher_power(self):
        res = find_lambda_periodic(LatticeElement(0, 50.0, 0.5), 1.0, 1.0)
        assert res.n > 1
        assert res.residual < 1e-7
        lam0, omega0 = primitive_period(
            res, GammaLattice(1), max_multiple=2 * res.n + 4
        )
        assert (lam0.y1, lam0.z1) == (50.0, 0.5)
        assert abs(omega0 - res.n * res.base_period) < 1e-9


class TestJacobiAmplitude:
    def test_am_quasi_periodicity(self):
        agm = AGM(0.6)
        period = 4.0 * agm.K

        def am(u):
            phi, turns, _ = agm.descend(u)
            return phi + 2 * np.pi * turns

        for u in (-3.0, 0.7, 11.0):
            assert abs(am(u + period) - am(u) - 2 * np.pi) < 1e-11


class TestToleranceOverride:
    def test_env_multiplier(self, monkeypatch):
        monkeypatch.setenv("HEISENMAG_TOL", "10")
        assert acceptance.tolerance_scale() == 10.0
        monkeypatch.delenv("HEISENMAG_TOL")
        assert acceptance.tolerance_scale() == 1.0
        monkeypatch.setenv("HEISENMAG_TOL", "-1")
        with pytest.raises(ValueError):
            acceptance.tolerance_scale()

    @pytest.mark.parametrize("raw", ["nan", "inf", "abc", "0"])
    def test_rejects_invalid(self, monkeypatch, raw):
        monkeypatch.setenv("HEISENMAG_TOL", raw)
        with pytest.raises(DomainError):
            acceptance.tolerance_scale()


class TestCLIOutputFile:
    def test_sample_writes_file(self, tmp_path):
        from heisenmag.cli import main

        path = tmp_path / "curve.csv"
        code = main(
            [
                "sample", "--x0", "1", "--y0", "0", "--z0", "0", "--rho", "1",
                "--t-max", "1", "--dt", "0.5", "--output", str(path),
            ]
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x,y,z,energy_residual"
        assert len(lines) == 4

    def test_unwritable_path_is_domain_error(self):
        from heisenmag.cli import main

        code = main(
            [
                "sample", "--x0", "1", "--y0", "0", "--z0", "0", "--rho", "1",
                "--t-max", "1", "--dt", "0.5",
                "--output", "/nonexistent-dir/curve.csv",
            ]
        )
        assert code == 1

import json
import math
import warnings

import numpy as np
import pytest

from kinex import experiments as ex
from kinex.errors import ConfigError, DataError
from kinex.kinetic1d import Equilibrium, Grid1D


class TestFitHelpers:
    def test_linear_fit_exact_line(self):
        x = np.linspace(0, 5, 20)
        slope, intercept, r2 = ex.linear_fit(x, 3 * x - 2)
        assert slope == pytest.approx(3.0) and intercept == pytest.approx(-2.0)
        assert r2 == pytest.approx(1.0)

    def test_exponential_rate(self):
        t = np.linspace(0, 4, 30)
        rate, r2, se = ex.exponential_rate(t, 5 * np.exp(-0.7 * t))
        assert rate == pytest.approx(0.7, rel=1e-10)
        assert r2 == pytest.approx(1.0)
        assert se < 1e-10

    def test_exponential_rate_rejects_nonpositive(self):
        with pytest.raises(DataError):
            ex.exponential_rate([0, 1], [1.0, -1.0])


class TestRandomPositiveDensity:
    def test_normalization_and_mean(self):
        grid = Grid1D.from_spacing(100.0, 0.01)
        q = ex.random_positive_density(grid, 5.0, seed=42)
        assert q.mass == pytest.approx(1.0, abs=1e-12)
        assert q.mean == pytest.approx(5.0, abs=1e-8)
        assert q.values.min() >= 0.0

    def test_seeded_reproducibility(self):
        grid = Grid1D.from_spacing(100.0, 0.02)
        a = ex.random_positive_density(grid, 5.0, seed=7)
        b = ex.random_positive_density(grid, 5.0, seed=7)
        c = ex.random_positive_density(grid, 5.0, seed=8)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)


class TestEntropyDecayStudy:
    def test_reference_configuration(self):
        report = ex.entropy_decay_study()
        assert report.passed, report.checks
        assert report.checks["entropy_strictly_decreasing"]["passed"]
        assert report.checks["semilog_fit_r2"]["r2"] > 0.95
        theta = report.checks["eep_exponent_finite"]["theta_hat"]
        assert theta is not None and math.isfinite(theta)

    def test_eep_table_monotone_in_time(self):
        report = ex.entropy_decay_study(seed=7)
        rows = [r for r in report.series_rows if math.isfinite(r[2])]
        entropy = np.array([r[1] for r in rows])
        dissip = np.array([r[2] for r in rows])
        assert np.all(np.diff(entropy) < 0)
        assert np.all(np.diff(dissip) < 0)

    def test_artifacts_reproducible(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        ex.entropy_decay_study(seed=3, dx=0.05, t_final=4.0).write_artifacts(str(out_a))
        ex.entropy_decay_study(seed=3, dx=0.05, t_final=4.0).write_artifacts(str(out_b))
        for name in ("report.json", "series.csv", "manifest.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        manifest = json.loads((out_a / "manifest.json").read_text())
        assert "config_sha256" in manifest


class TestContractionStudy:
    def test_equilibrium_start_stays_at_zero_distance(self):
        from kinex.diagnostics import wasserstein2
        from kinex.kinetic1d import solve

        grid = Grid1D.from_spacing(20.0, 0.01)
        q0 = Equilibrium(1.0).on_grid(grid).normalized()
        traj = solve(q0, 5.0, 0.05, snapshot_times=np.arange(0.0, 5.1, 1.0))
        for snap in traj.snapshots:
            assert wasserstein2(snap.normalized(), q0) < 1e-4

    def test_small_configuration(self):
        report = ex.contraction_study(seed=1, t_final=10.0, coupled_n=20_000, coupled_t=6.0)
        assert report.passed, report.checks
        assert 0.30 <= report.rates["coupled_msd_rate"]["value"] <= 0.36


class TestChaosScaling:
    @pytest.fixture
    def q0(self):
        grid = Grid1D.from_spacing(20.0, 0.01)
        return Equilibrium(1.0).on_grid(grid).normalized()

    def test_small_study_passes(self, q0):
        config = ex.ChaosStudyConfig(n_list=(100, 400, 1600), replicas=12, seed=3, t_eval=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = ex.chaos_scaling(config, q0)
        assert report.checks["w1_decreasing_in_n"]["passed"], report.checks
        assert -0.6 <= report.rates["sampling_slope_t0"]["value"] <= -0.4

    def test_deterministic_given_seed(self, q0):
        config = ex.ChaosStudyConfig(n_list=(50, 200), replicas=10, seed=5, t_eval=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = ex.chaos_scaling(config, q0)
            b = ex.chaos_scaling(config, q0)
        assert a.series_rows == b.series_rows

    def test_manifest_params_are_machine_independent(self, q0):
        # nothing hashed into config_sha256 may depend on the host, such as its core count
        config = ex.ChaosStudyConfig(n_list=(50, 200), replicas=10, seed=5, t_eval=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = ex.chaos_scaling(config, q0)
        assert set(report.manifest()["params"]) == {"n_list", "t_eval", "replicas", "seed", "dx", "dt", "q0_mean"}

    def test_config_guards(self):
        with pytest.raises(ConfigError):
            ex.ChaosStudyConfig(n_list=(100, 100))
        with pytest.raises(ConfigError):
            ex.ChaosStudyConfig(replicas=3)

    def test_mean_drift_guard(self):
        # a domain far too short for the support makes the PDE mean drift
        grid = Grid1D(4.0, 400)
        q0 = Equilibrium(1.0).on_grid(grid).normalized()
        config = ex.ChaosStudyConfig(n_list=(50, 100), replicas=10, seed=1, t_eval=1.5)
        with pytest.raises(DataError):
            ex.chaos_scaling(config, q0)


class TestFigure1Study:
    def test_reduced_horizon_run(self):
        report = ex.figure1_reproduction(seed=1, t_final=200.0)
        assert report.passed, report.checks
        assert report.checks["mean_conserved"]["value"] == pytest.approx(10.0, abs=1e-9)
        assert report.series_columns[0] == "x"

import numpy as np
import pytest

from weavelane.calibration import (
    Observation,
    calibrate,
    count_satisfied,
    equilibrium_residual,
    load_dataset,
    mper,
    normalize_flows,
    residual_objective,
    save_dataset,
)
from weavelane.errors import (
    BoundsInfeasible,
    DatasetFormatError,
    DegenerateCosts,
    EmptyDataset,
    ZeroDenominator,
    ZeroObservedShare,
)
from weavelane.model import CostCoefficients, FlowConfig, RampConfig
from weavelane.wardrop import phi, solve_hdv

from oracles import random_config

PAPER = CostCoefficients()


def synthesize(n_obs: int, seed: int, noise: float = 0.0) -> list[Observation]:
    """Observations generated from the calibrated coefficients themselves."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n_obs:
        flows = FlowConfig(*rng.dirichlet((1.0, 1.0, 1.0)))
        x = solve_hdv(RampConfig(flows, PAPER)).x1s_star
        if noise:
            x = min(1.0, max(0.0, x + rng.uniform(-noise, noise)))
        if x == 0.0:
            continue  # keep the relative-error metric defined
        out.append(Observation(flows, x))
    return out


class TestNormalize:
    def test_symmetric(self):
        flows, x1s = normalize_flows(200, 200, 200, 400, 400)
        assert flows == FlowConfig(1 / 3, 1 / 3, 1 / 3)
        assert x1s == 0.5

    def test_corner(self):
        flows, x1s = normalize_flows(600, 0, 0, 800, 0)
        assert flows == FlowConfig(1.0, 0.0, 0.0)
        assert x1s == 1.0

    def test_any_split_lands_on_simplex(self):
        rng = np.random.default_rng(73)
        for _ in range(25):
            parts = rng.uniform(1.0, 400.0, size=3)
            scale = 600.0 / parts.sum()
            flows, _ = normalize_flows(*(parts * scale), 500.0, 300.0)
            total = flows.n0_enter + flows.n2_exit + flows.n2_s
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_zero_denominators(self):
        with pytest.raises(ZeroDenominator):
            normalize_flows(0, 0, 0, 10, 10)
        with pytest.raises(ZeroDenominator):
            normalize_flows(10, 10, 10, 0, 0)


class TestEquilibriumResidual:
    def test_zero_at_interior_equilibrium(self, cfg_thirds):
        assert equilibrium_residual(cfg_thirds, phi(cfg_thirds)) < 1e-12

    def test_zero_at_dominated_boundary(self):
        cfg = RampConfig(FlowConfig(0.8, 0.0, 0.2), CostCoefficients(c1_t=10.0))
        assert equilibrium_residual(cfg, 0.0) == 0.0

    def test_positive_left_of_crossing(self, cfg_thirds):
        # Bypass is the dear strategy left of the crossing, so the bypass
        # side of the residual carries the whole value.
        c, n = cfg_thirds.coeffs, cfg_thirds.flows
        x = 0.5
        j1s = c.c1_t * (c.alpha * x + c.beta * n.n2_exit + n.n0_enter) + c.c1_m * (
            c.omega * x * n.n2_exit + x * n.n0_enter
        )
        j1b = c.c2_t * (c.gamma * (1 - x) + n.n2_s) + c.c2_m * (
            c.rho * (1 - x) * n.n2_s + c.delta * (1 - x) * n.n2_exit
        )
        assert j1b > j1s
        expected = (1 - x) * (j1b - j1s)
        assert equilibrium_residual(cfg_thirds, x) == pytest.approx(expected, abs=1e-12)

    def test_soundness_at_solver_output(self):
        rng = np.random.default_rng(79)
        for _ in range(200):
            cfg = random_config(rng)
            assert equilibrium_residual(cfg, solve_hdv(cfg).x1s_star) < 1e-10


class TestScaleInvariance:
    def test_crossing_share_invariant(self):
        rng = np.random.default_rng(83)
        for _ in range(30):
            cfg = random_config(rng)
            for lam in (0.5, 2.0, 10.0):
                scaled = RampConfig(cfg.flows, cfg.coeffs.with_scaled_unit_costs(lam))
                assert abs(phi(scaled) - phi(cfg)) < 1e-12

    def test_gauge_ray_is_exactly_flat(self):
        # The cost gap cannot see coordinated (beta, omega, delta) shifts, so
        # the objective and every prediction are invariant along that ray.
        dataset = synthesize(60, seed=84, noise=0.02)
        base = CostCoefficients(alpha=1.7, beta=0.9, omega=1.3, gamma=2.0, rho=0.8, delta=2.5)
        objective = residual_objective(dataset, base)
        for t in (-0.3, 0.25):
            shifted = CostCoefficients(
                alpha=1.7, beta=0.9 + t, omega=1.3 - t, gamma=2.0, rho=0.8, delta=2.5 + t
            )
            assert residual_objective(dataset, shifted) == pytest.approx(
                objective, rel=1e-12, abs=1e-12
            )
            assert mper(dataset, shifted) == pytest.approx(
                mper(dataset, base), rel=1e-12
            )


class TestCalibrate:
    def test_noiseless_recovery(self):
        dataset = synthesize(200, seed=90)
        start = CostCoefficients(alpha=1.0, beta=1.0, omega=1.0, gamma=1.0, rho=1.0, delta=1.0)
        result = calibrate(dataset, initial=start, seed=3)
        assert result.objective < 1e-8
        # omega rides the flat gauge ray and is reported at its start value,
        # which the generator shares; rho is identified outright.
        for field in ("alpha", "beta", "gamma", "delta", "omega", "rho"):
            assert getattr(result.coeffs, field) == pytest.approx(
                getattr(PAPER, field), abs=2e-2
            )

    def test_noisy_recovery_mper(self):
        dataset = synthesize(200, seed=91, noise=0.01)
        result = calibrate(dataset, seed=3)
        assert result.mper <= 3.0

    def test_single_observation_underdetermined_but_clean(self, cfg_thirds):
        obs = Observation(cfg_thirds.flows, solve_hdv(cfg_thirds).x1s_star)
        result = calibrate([obs], seed=1)
        assert result.converged
        assert result.objective < 1e-12

    def test_idempotent_from_recovered_optimum(self):
        dataset = synthesize(80, seed=92)
        first = calibrate(dataset, seed=5)
        second = calibrate(dataset, initial=first.coeffs, seed=5)
        assert second.objective <= first.objective + 1e-12

    def test_deterministic_given_seed(self):
        dataset = synthesize(40, seed=93)
        a = calibrate(dataset, seed=11, budget=4000)
        b = calibrate(dataset, seed=11, budget=4000)
        assert a == b

    def test_free_unit_costs_mode(self):
        dataset = synthesize(30, seed=99)
        result = calibrate(dataset, seed=4, budget=12000, pin_unit_costs=False)
        assert result.objective < 1e-8
        again = calibrate(dataset, seed=4, budget=12000, pin_unit_costs=False)
        assert result == again

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            calibrate([])

    def test_vanishing_slopes_report_nan_mper(self):
        # Zero unit costs make every residual zero and predict no share.
        result = calibrate(
            synthesize(10, seed=98), initial=CostCoefficients(0, 0, 0, 0), budget=400
        )
        assert result.objective == 0.0
        assert np.isnan(result.mper)

    def test_bad_bounds(self, cfg_thirds):
        obs = Observation(cfg_thirds.flows, 0.5)
        with pytest.raises(BoundsInfeasible):
            calibrate([obs], bounds={"alpha": (2.0, 1.0)})
        with pytest.raises(BoundsInfeasible):
            calibrate([obs], bounds={"alpha": (-1.0, 1.0)})
        with pytest.raises(BoundsInfeasible):
            calibrate([obs], bounds={"alpha": (5.0, 6.0)})  # excludes default start


class TestMper:
    def test_exact_dataset_scores_zero(self):
        dataset = synthesize(50, seed=94)
        assert mper(dataset, PAPER) == pytest.approx(0.0, abs=1e-9)

    def test_ten_percent_single_point(self):
        # Coefficients engineered so the predicted share is exactly 0.55.
        coeffs = CostCoefficients(alpha=3.2 / 0.55 - 2.2, gamma=1.2)
        cfg = RampConfig(FlowConfig(0.0, 0.0, 1.0), coeffs)
        assert phi(cfg) == pytest.approx(0.55, abs=1e-12)
        dataset = [Observation(cfg.flows, 0.5)]
        assert mper(dataset, coeffs) == pytest.approx(10.0, abs=1e-9)

    def test_zero_observed_share_guard(self, cfg_thirds):
        with pytest.raises(ZeroObservedShare):
            mper([Observation(cfg_thirds.flows, 0.0)], PAPER)

    @pytest.mark.filterwarnings("error")
    def test_vanishing_slopes_guard(self):
        with pytest.raises(DegenerateCosts):
            mper(synthesize(10, seed=97), CostCoefficients(0, 0, 0, 0))

    def test_zero_observed_share_checked_first(self, cfg_thirds):
        with pytest.raises(ZeroObservedShare):
            mper([Observation(cfg_thirds.flows, 0.0)], CostCoefficients(0, 0, 0, 0))


class TestCountingScore:
    def test_counts_generated_points(self):
        dataset = synthesize(60, seed=95)
        assert count_satisfied(dataset, PAPER) == 60
        assert count_satisfied(dataset, CostCoefficients(alpha=4.0)) < 60


class TestDatasetIo:
    def test_round_trip(self, tmp_path):
        dataset = synthesize(20, seed=96)
        path = tmp_path / "obs.csv"
        save_dataset(path, dataset)
        loaded = load_dataset(path)
        assert [(o.flows, o.x1s_observed) for o in loaded] == [
            (o.flows, o.x1s_observed) for o in dataset
        ]

    def test_raw_and_normalized_files_agree(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text(
            "f0_enter,f2_exit,f2_s,f1_s,f1_b\n"
            "200,200,200,400,400\n"
            "150,300,150,500,300\n"
        )
        norm = tmp_path / "norm.csv"
        rows = []
        for o in load_dataset(raw):
            rows.append(
                f"{o.flows.n0_enter!r},{o.flows.n2_exit!r},{o.flows.n2_s!r},{o.x1s_observed!r}"
            )
        norm.write_text("n0_enter,n2_exit,n2_s,x1s\n" + "\n".join(rows) + "\n")
        a = calibrate(load_dataset(raw), seed=2, budget=3000)
        b = calibrate(load_dataset(norm), seed=2, budget=3000)
        assert a.coeffs == b.coeffs
        assert a.objective == b.objective

    def test_unknown_header_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DatasetFormatError):
            load_dataset(bad)

    def test_malformed_row_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("n0_enter,n2_exit,n2_s,x1s\n0.3,0.3,0.4\n")
        with pytest.raises(DatasetFormatError):
            load_dataset(bad)


def test_objective_matches_scalar_residuals():
    dataset = synthesize(30, seed=98)
    coeffs = CostCoefficients(alpha=2.0, beta=0.7, gamma=1.5, delta=2.5)
    total = sum(
        equilibrium_residual(RampConfig(o.flows, coeffs), o.x1s_observed) ** 2
        for o in dataset
    )
    assert residual_objective(dataset, coeffs) == pytest.approx(total, rel=1e-12)

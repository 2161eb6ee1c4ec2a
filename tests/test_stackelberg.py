import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from weavelane.errors import DomainError, NotAdmissible
from weavelane.model import (
    CostCoefficients,
    FlowConfig,
    FlowDistribution,
    RampConfig,
    social_quadratic,
)
from weavelane.social import admissible, gamma, solve_social_optimum
from weavelane.stackelberg import (
    Regime,
    hdv_best_response,
    penetration_thresholds,
    solve_closed,
    solve_numeric,
    sweep_penetration,
)
from weavelane.wardrop import check_wardrop, phi, solve_hdv

from frozen import GAMMA_THIRDS, PHI_THIRDS
from oracles import grid_best_leader, random_admissible_config, search_best_leader


def distribution(p: float, q_s: float, x_hdv: float) -> FlowDistribution:
    return FlowDistribution(
        x1s_cav=p * q_s,
        x1b_cav=p * (1.0 - q_s),
        x1s_hdv=x_hdv,
        x1b_hdv=(1.0 - p) - x_hdv,
        p=p,
    )


class TestThresholds:
    def test_thirds(self, cfg_thirds):
        th = penetration_thresholds(cfg_thirds)
        assert th.p1 == pytest.approx(PHI_THIRDS, abs=1e-12)
        assert th.p2 == pytest.approx(GAMMA_THIRDS, abs=1e-12)

    def test_ordering_for_random_admissible(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            cfg = random_admissible_config(rng)
            th = penetration_thresholds(cfg)
            assert 0.0 < th.p1 < th.p2 < 1.0
            assert th.p1 == pytest.approx(phi(cfg), abs=1e-12)
            assert th.p2 == pytest.approx(gamma(cfg), abs=1e-12)

    def test_not_admissible(self, cfg_corner):
        with pytest.raises(NotAdmissible):
            penetration_thresholds(cfg_corner)


class TestBestResponse:
    def test_p_zero_reduces_to_baseline(self, cfg_thirds):
        assert hdv_best_response(cfg_thirds, 0.0, 0.37) == pytest.approx(
            solve_hdv(cfg_thirds).x1s_star, abs=1e-15
        )

    def test_interior_response(self, cfg_thirds):
        response = hdv_best_response(cfg_thirds, 0.3, 1.0)
        assert response == pytest.approx(PHI_THIRDS - 0.3, abs=1e-12)
        assert check_wardrop(cfg_thirds, distribution(0.3, 1.0, response), 1e-9)

    def test_clamped_response(self, cfg_thirds):
        response = hdv_best_response(cfg_thirds, 0.8, 1.0)
        assert response == 0.0
        # With the share pushed past the crossing, steadfast is the dear option.
        from weavelane.model import affine_reduce, eval_costs

        costs = eval_costs(affine_reduce(cfg_thirds), 0.8)
        assert costs.j1s > costs.j1b

    def test_domain_checks(self, cfg_thirds):
        with pytest.raises(DomainError):
            hdv_best_response(cfg_thirds, 1.2, 0.5)
        with pytest.raises(DomainError):
            hdv_best_response(cfg_thirds, 0.5, -0.1)


class TestSolveClosed:
    def test_plateau(self, cfg_thirds):
        sol = solve_closed(cfg_thirds, 0.3)
        assert sol.regime is Regime.PLATEAU
        assert sol.x1s_total == pytest.approx(PHI_THIRDS, abs=1e-12)
        _, j_oracle = grid_best_leader(cfg_thirds, 0.3)
        assert sol.j_soc <= j_oracle + 1e-9
        assert abs(sol.j_soc - j_oracle) < 1e-6

    def test_improving(self, cfg_thirds):
        sol = solve_closed(cfg_thirds, 0.61)
        assert sol.regime is Regime.IMPROVING
        assert sol.x1s_total == pytest.approx(0.61, abs=1e-12)
        _, j_oracle = grid_best_leader(cfg_thirds, 0.61)
        assert abs(sol.j_soc - j_oracle) < 1e-6

    def test_optimal(self, cfg_thirds):
        sol = solve_closed(cfg_thirds, 0.9)
        assert sol.regime is Regime.OPTIMAL
        assert sol.x1s_total == pytest.approx(GAMMA_THIRDS, abs=1e-12)
        assert sol.j_soc == pytest.approx(solve_social_optimum(cfg_thirds).j_opt, abs=1e-12)
        _, j_oracle = grid_best_leader(cfg_thirds, 0.9)
        assert abs(sol.j_soc - j_oracle) < 1e-6

    def test_saturation_boundary_labeled_optimal(self, cfg_thirds):
        th = penetration_thresholds(cfg_thirds)
        sol = solve_closed(cfg_thirds, th.p2)
        assert sol.regime is Regime.OPTIMAL
        assert sol.j_soc == pytest.approx(solve_social_optimum(cfg_thirds).j_opt, abs=1e-12)

    def test_follower_certified(self, cfg_thirds):
        for p in (0.0, 0.2, 0.61, 0.9, 1.0):
            sol = solve_closed(cfg_thirds, p)
            assert check_wardrop(
                cfg_thirds, distribution(p, sol.q_s_star, sol.x1s_hdv), 1e-8
            )
            assert sol.x1s_total == pytest.approx(
                p * sol.q_s_star + sol.x1s_hdv, abs=1e-10
            )

    def test_vertex_past_one_never_saturates(self, cfg_corner):
        # Gamma > 1 here: improvement continues all the way to full penetration.
        sol = solve_closed(cfg_corner, 0.99)
        assert sol.regime is Regime.IMPROVING
        assert sol.x1s_total == pytest.approx(0.99, abs=1e-12)
        end = solve_closed(cfg_corner, 1.0)
        assert end.x1s_total == pytest.approx(1.0, abs=1e-12)

    def test_not_admissible_rejected(self):
        from weavelane.model import CostCoefficients, FlowConfig

        bad = RampConfig(
            FlowConfig(0.8, 0.0, 0.2), CostCoefficients(c1_t=10.0)
        )  # Phi <= 0
        with pytest.raises(NotAdmissible):
            solve_closed(bad, 0.5)


class TestSolveNumeric:
    def test_agrees_with_closed_form(self):
        rng = np.random.default_rng(53)
        for _ in range(40):
            cfg = random_admissible_config(rng)
            p = float(rng.uniform(0.05, 0.95))
            closed = solve_closed(cfg, p)
            numeric = solve_numeric(cfg, p)
            assert abs(numeric.j_soc - closed.j_soc) < 1e-7

    def test_p_zero_matches_baseline(self, cfg_thirds):
        sol = solve_numeric(cfg_thirds, 0.0)
        assert sol.q_s_star == 1.0
        assert sol.x1s_total == pytest.approx(solve_hdv(cfg_thirds).x1s_star, abs=1e-12)

    def test_p_one_reaches_optimum(self, cfg_thirds):
        sol = solve_numeric(cfg_thirds, 1.0)
        assert sol.x1s_total == pytest.approx(GAMMA_THIRDS, abs=1e-7)
        assert sol.j_soc == pytest.approx(solve_social_optimum(cfg_thirds).j_opt, abs=1e-9)

    def test_residuals_certified(self, cfg_thirds):
        from weavelane.model import affine_reduce, eval_costs

        for p in (0.1, 0.4, 0.7, 0.95):
            sol = solve_numeric(cfg_thirds, p)
            costs = eval_costs(affine_reduce(cfg_thirds), sol.x1s_total)
            diff = costs.j1s - costs.j1b
            h1 = sol.x1s_hdv * max(0.0, diff)
            h2 = ((1.0 - p) - sol.x1s_hdv) * max(0.0, -diff)
            assert h1 <= 1e-8 and h2 <= 1e-8

    def test_works_without_admissibility(self, cfg_corner):
        # The scalar search needs no threshold ordering at all.
        sol = solve_numeric(cfg_corner, 0.5)
        assert 0.0 <= sol.q_s_star <= 1.0


LEADER_PROPERTY = settings(max_examples=200, derandomize=True, deadline=None)


@st.composite
def leader_cases(draw) -> tuple[RampConfig, float]:
    """A configuration over the whole space, most of it not admissible, and
    a penetration rate that is 0, 1, Phi, Gamma (clamped to [0, 1]) or free."""
    cuts = sorted(draw(st.lists(st.integers(0, 1000), min_size=2, max_size=2)))
    flows = FlowConfig(cuts[0] / 1000, (cuts[1] - cuts[0]) / 1000, (1000 - cuts[1]) / 1000)
    coeffs = CostCoefficients(*draw(st.lists(st.floats(0.1, 5.0), min_size=10, max_size=10)))
    cfg = RampConfig(flows, coeffs)
    anchor = draw(st.sampled_from(("zero", "one", "phi", "gamma", "free")))
    if anchor == "free":
        return cfg, draw(st.floats(0.0, 1.0))
    p = {"zero": 0.0, "one": 1.0, "phi": phi(cfg), "gamma": gamma(cfg)}[anchor]
    return cfg, min(1.0, max(0.0, p))


# Phi <= 0 at p = 0, Phi >= 1 at p = 1, and Gamma < p < Phi inside (0, 1).
@example((RampConfig(FlowConfig(0.8, 0.0, 0.2), CostCoefficients(c1_t=10.0)), 0.0))
@example((RampConfig(FlowConfig(0.0, 0.0, 1.0), CostCoefficients(c2_t=10.0)), 1.0))
@example((RampConfig(FlowConfig(0.8, 0.1, 0.1)), 0.35))
@LEADER_PROPERTY
@given(leader_cases())
def test_numeric_matches_search_oracle(case):
    cfg, p = case
    sol = solve_numeric(cfg, p)
    _, x_oracle, j_oracle = search_best_leader(cfg, p)
    assert abs(sol.x1s_total - x_oracle) <= 1e-7
    assert sol.j_soc <= j_oracle + 1e-9


@LEADER_PROPERTY
@given(leader_cases())
def test_numeric_matches_closed_form_on_admissible(case):
    cfg, p = case
    assume(admissible(cfg))
    numeric = solve_numeric(cfg, p)
    closed = solve_closed(cfg, p)
    assert numeric.q_s_star == closed.q_s_star
    assert numeric.regime is closed.regime
    assert abs(numeric.x1s_total - closed.x1s_total) <= 1e-15


class TestSweep:
    def test_plateau_records_share_reference_cost(self, cfg_thirds):
        th = penetration_thresholds(cfg_thirds)
        grid = [i / 100 for i in range(101)]
        records = sweep_penetration(cfg_thirds, grid)
        reference = records[0].j_soc
        for r in records:
            if r.p <= th.p1:
                assert abs(r.j_soc - reference) <= 1e-10

    def test_nonincreasing_and_ends_at_optimum(self, cfg_thirds):
        records = sweep_penetration(cfg_thirds, [i / 100 for i in range(101)])
        js = [r.j_soc for r in records]
        assert all(b - a <= 1e-10 for a, b in zip(js, js[1:]))
        assert js[-1] == pytest.approx(solve_social_optimum(cfg_thirds).j_opt, abs=1e-12)

    def test_cav_cost_definition(self, cfg_thirds):
        from weavelane.model import affine_reduce, eval_costs

        records = sweep_penetration(cfg_thirds, [0.25, 0.5, 0.75])
        for r in records:
            costs = eval_costs(affine_reduce(cfg_thirds), r.x1s_total)
            expected = r.p * (
                costs.j1s * r.x1s_total + costs.j1b * (1.0 - r.x1s_total)
            )
            assert r.j_cav == pytest.approx(expected, abs=1e-12)

    def test_leader_rationality_on_grid(self, cfg_thirds):
        for p in (0.3, 0.61, 0.9):
            sol = solve_closed(cfg_thirds, p)
            _, j_oracle = grid_best_leader(cfg_thirds, p, step=1e-4)
            assert j_oracle >= sol.j_soc - 1e-9

    def test_grid_validation(self, cfg_thirds):
        with pytest.raises(DomainError):
            sweep_penetration(cfg_thirds, [0.2, 0.2, 0.4])
        with pytest.raises(DomainError):
            sweep_penetration(cfg_thirds, [0.2, 1.4])


def test_regime_partition_random_configs():
    rng = np.random.default_rng(59)
    grid = [i / 200 for i in range(201)]
    for _ in range(10):
        cfg = random_admissible_config(rng)
        th = penetration_thresholds(cfg)
        quad = social_quadratic(cfg)
        reference = quad.value(phi(cfg))
        optimum = solve_social_optimum(cfg).j_opt
        records = sweep_penetration(cfg, grid)
        for r in records:
            if r.p <= th.p1:
                assert abs(r.j_soc - reference) <= 1e-9
            elif r.p >= th.p2:
                assert abs(r.j_soc - optimum) <= 1e-9
            else:
                assert optimum - 1e-12 < r.j_soc < reference + 1e-12

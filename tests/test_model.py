import math

import numpy as np
import pytest

from weavelane.errors import DomainError, NegativeFlow, SimplexViolation
from weavelane.model import (
    CostCoefficients,
    FlowConfig,
    RampConfig,
    affine_reduce,
    eval_costs,
    social_cost,
    social_quadratic,
)

from conftest import coeffs_zero
from frozen import AFFINE_CORNER, AFFINE_THIRDS, JSOC_CORNER_AT_ZERO
from oracles import random_config


def raw_lane1_costs(cfg: RampConfig, x1s: float) -> tuple[float, float]:
    """Substitution oracle: the two Lane-1 costs straight from the cost model."""
    c, n = cfg.coeffs, cfg.flows
    x1b = 1.0 - x1s
    j1s = c.c1_t * (c.alpha * x1s + c.beta * n.n2_exit + n.n0_enter) + c.c1_m * (
        c.omega * x1s * n.n2_exit + x1s * n.n0_enter
    )
    j1b = c.c2_t * (c.gamma * x1b + n.n2_s) + c.c2_m * (
        c.rho * x1b * n.n2_s + c.delta * x1b * n.n2_exit
    )
    return j1s, j1b


def fit_line(f, lo=0.0, hi=1.0) -> tuple[float, float]:
    """Slope/intercept of an affine function from its endpoint values."""
    y0, y1 = f(lo), f(hi)
    return (y1 - y0) / (hi - lo), y0


class TestValidateFlowConfig:
    def test_degenerate_corner_is_valid(self):
        flows = FlowConfig(0.0, 0.0, 1.0)
        assert (flows.n0_enter, flows.n2_exit, flows.n2_s) == (0.0, 0.0, 1.0)

    def test_symmetric_point_is_valid(self):
        flows = FlowConfig(1 / 3, 1 / 3, 1 / 3)
        assert flows.n2_s == pytest.approx(1 / 3, abs=0)

    def test_simplex_violation(self):
        with pytest.raises(SimplexViolation):
            FlowConfig(0.5, 0.6, 0.2)

    def test_negative_flow(self):
        with pytest.raises(NegativeFlow):
            FlowConfig(-0.1, 0.6, 0.5)

    def test_values_passed_through_unmodified(self):
        # Near-simplex inputs are accepted as-is, never rescaled.
        flows = FlowConfig(0.3, 0.3, 0.4 + 5e-10)
        assert flows.n2_s == 0.4 + 5e-10


class TestCostCoefficients:
    def test_defaults_are_calibrated_vector(self):
        c = CostCoefficients()
        assert (c.c1_t, c.c2_t, c.c1_m, c.c2_m) == (1.0, 1.0, 1.0, 1.0)
        assert (c.alpha, c.beta, c.omega) == (1.255, 1.138, 1.0)
        assert (c.gamma, c.rho, c.delta) == (2.384, 1.0, 3.094)

    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(ValueError):
            CostCoefficients(alpha=-0.5)
        with pytest.raises(ValueError):
            CostCoefficients(gamma=math.inf)


class TestAffineReduce:
    def test_corner_matches_endpoint_fit(self, cfg_corner):
        aff = affine_reduce(cfg_corner)
        k1s, b1s = fit_line(lambda x: raw_lane1_costs(cfg_corner, x)[0])
        kb, bb = fit_line(lambda x: raw_lane1_costs(cfg_corner, x)[1])
        assert aff.k1s == pytest.approx(k1s, abs=1e-12)
        assert aff.b1s == pytest.approx(b1s, abs=1e-12)
        # j1b is affine in x1b; translate the x1s fit.
        assert aff.k1b == pytest.approx(-kb, abs=1e-12)
        assert aff.b1b == pytest.approx(bb + kb, abs=1e-12)
        for name, expected in AFFINE_CORNER.items():
            assert getattr(aff, name) == pytest.approx(expected, abs=1e-12)

    def test_thirds_frozen_values(self, cfg_thirds):
        aff = affine_reduce(cfg_thirds)
        for name, expected in AFFINE_THIRDS.items():
            assert getattr(aff, name) == pytest.approx(expected, abs=1e-12)

    def test_zero_coefficients_zero_reduction(self):
        cfg = RampConfig(FlowConfig(0.2, 0.3, 0.5), coeffs_zero())
        aff = affine_reduce(cfg)
        assert all(value == 0.0 for value in vars(aff).values())

    def test_endpoint_fit_on_random_configs(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            cfg = random_config(rng)
            aff = affine_reduce(cfg)
            k1s, b1s = fit_line(lambda x: raw_lane1_costs(cfg, x)[0])
            assert aff.k1s == pytest.approx(k1s, rel=1e-12, abs=1e-12)
            assert aff.b1s == pytest.approx(b1s, rel=1e-12, abs=1e-12)


class TestEvalCosts:
    def test_corner_endpoints(self, cfg_corner):
        aff = affine_reduce(cfg_corner)
        at0 = eval_costs(aff, 0.0)
        assert at0.j1s == pytest.approx(0.0, abs=1e-12)
        assert at0.j1b == pytest.approx(4.384, abs=1e-12)
        at1 = eval_costs(aff, 1.0)
        assert at1.j1s == pytest.approx(1.255, abs=1e-12)
        assert at1.j1b == pytest.approx(1.0, abs=1e-12)

    def test_interior_root_has_equal_costs(self, cfg_corner):
        from oracles import bisect_equal_costs

        root = bisect_equal_costs(cfg_corner)
        costs = eval_costs(affine_reduce(cfg_corner), root)
        assert abs(costs.j1s - costs.j1b) <= 1e-9

    def test_domain_error(self, cfg_corner):
        aff = affine_reduce(cfg_corner)
        with pytest.raises(DomainError):
            eval_costs(aff, 1.5)
        with pytest.raises(DomainError):
            eval_costs(aff, -0.01)


class TestSocialCost:
    def test_corner_at_zero(self, cfg_corner):
        # Term-by-term: all weight on j1b and j2s, both 4.384 at x1s = 0.
        assert social_cost(cfg_corner, 0.0) == pytest.approx(
            JSOC_CORNER_AT_ZERO, abs=1e-12
        )

    def test_zero_config_is_zero(self):
        cfg = RampConfig(FlowConfig(0.1, 0.2, 0.7), coeffs_zero())
        for x in (0.0, 0.37, 1.0):
            assert social_cost(cfg, x) == 0.0

    def test_quadratic_consistency_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            cfg = random_config(rng)
            quad = social_quadratic(cfg)
            x = float(rng.uniform())
            assert abs(social_cost(cfg, x) - quad.value(x)) < 1e-10


class TestSocialQuadratic:
    def test_corner_leading_coefficient(self, cfg_corner):
        quad = social_quadratic(cfg_corner)
        assert quad.a == pytest.approx(4.639, abs=1e-12)

    def test_zero_config(self):
        quad = social_quadratic(RampConfig(FlowConfig(0.0, 0.0, 1.0), coeffs_zero()))
        assert (quad.a, quad.b, quad.c) == (0.0, 0.0, 0.0)

    def test_thirds_vertex_matches_grid_argmin(self, cfg_thirds):
        from oracles import grid_argmin_social

        x_star, _ = grid_argmin_social(cfg_thirds)
        assert social_quadratic(cfg_thirds).vertex() == pytest.approx(x_star, abs=2e-6)

    def test_convexity_for_positive_costs(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            cfg = random_config(rng)
            assert social_quadratic(cfg).a > 0.0


class TestMonotonicity:
    def test_cost_slopes_by_finite_difference(self):
        rng = np.random.default_rng(17)
        h = 1e-6
        for _ in range(50):
            cfg = random_config(rng)
            aff = affine_reduce(cfg)
            x = float(rng.uniform(h, 1.0 - h))
            lo, hi = eval_costs(aff, x - h), eval_costs(aff, x + h)
            assert hi.j1s - lo.j1s > 0.0
            assert hi.j1b - lo.j1b < 0.0

    def test_affine_reduce_is_deterministic(self, cfg_thirds):
        again = RampConfig(
            FlowConfig(
                cfg_thirds.flows.n0_enter,
                cfg_thirds.flows.n2_exit,
                cfg_thirds.flows.n2_s,
            ),
            cfg_thirds.coeffs,
        )
        assert affine_reduce(cfg_thirds) == affine_reduce(again)


class TestFlowDistribution:
    def test_split_identities_enforced(self):
        from weavelane.model import FlowDistribution

        with pytest.raises(DomainError):
            FlowDistribution(0.2, 0.2, 0.3, 0.3, 0.5)  # HDV side sums to 0.6
        ok = FlowDistribution(0.2, 0.3, 0.25, 0.25, 0.5)
        assert ok.x1s == pytest.approx(0.45)
        assert ok.x1b == pytest.approx(0.55)

import math

import numpy as np
import pytest

from weavelane.errors import AngleOutOfRange, DistinctnessViolated, DomainError
from weavelane.model import affine_reduce, social_cost, social_quadratic
from weavelane.social import gamma
from weavelane.stackelberg import solve_closed, sweep_penetration
from weavelane.svo import (
    CAV,
    HDV,
    Population,
    VehicleType,
    check_heterogeneous,
    chi,
    plateau_free,
    plateau_intervals,
    population_shares,
    solve_heterogeneous,
    svo_transform,
    sweep_heterogeneous,
    type_thresholds,
)
from weavelane.wardrop import phi, solve_hdv

from frozen import GAMMA_THIRDS, PHI_THIRDS
from oracles import fixed_point_scan, random_admissible_config, random_config


def typed_cost_crossing(cfg, theta: float, tol: float = 1e-12) -> float:
    """Bisection oracle on the blended cost difference for one type."""
    aff = affine_reduce(cfg)
    typed = svo_transform(aff, cfg, theta)

    def diff(x: float) -> float:
        return (typed.k1js * x + typed.b1js) - (typed.k1jb * (1.0 - x) + typed.b1jb)

    if diff(0.0) >= 0.0:
        return 0.0
    if diff(1.0) <= 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if diff(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestVehicleType:
    def test_angle_premise_enforced(self):
        with pytest.raises(AngleOutOfRange):
            VehicleType(HDV, math.pi, 1.0)  # cos + 2 sin = -1

    def test_cav_angle_window(self):
        with pytest.raises(AngleOutOfRange):
            VehicleType(CAV, -0.1, 1.0)
        with pytest.raises(AngleOutOfRange):
            VehicleType(CAV, math.pi / 2 + 0.2, 1.0)

    def test_competitive_hdv_allowed(self):
        t = VehicleType(HDV, -0.2, 1.0)  # cos - 0.4 sin stays positive
        assert t.theta == -0.2

    def test_weight_window(self):
        with pytest.raises(DomainError):
            VehicleType(HDV, 0.0, 0.0)
        with pytest.raises(DomainError):
            VehicleType(HDV, 0.0, 1.2)


class TestPopulation:
    def test_weights_must_sum(self):
        with pytest.raises(ValueError):
            Population((VehicleType(HDV, 0.0, 0.6),), (VehicleType(CAV, 1.0, 1.0),))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Population((), ())

    def test_labels(self, pop_four_cav):
        assert pop_four_cav.labels() == ("HDV", "CAV1", "CAV2", "CAV3", "CAV4")

    def test_threshold_collision_detected(self, cfg_thirds):
        pop = Population(
            (VehicleType(HDV, 0.3, 1.0),),
            (VehicleType(CAV, 0.3, 1.0),),  # identical angle, identical chi
        )
        with pytest.raises(DistinctnessViolated):
            type_thresholds(cfg_thirds, pop)


class TestSvoTransform:
    def test_selfish_angle_is_identity(self, cfg_thirds):
        aff = affine_reduce(cfg_thirds)
        typed = svo_transform(aff, cfg_thirds, 0.0)
        assert typed.k1js == pytest.approx(aff.k1s, abs=1e-15)
        assert typed.b1js == pytest.approx(aff.b1s, abs=1e-15)
        assert typed.k1jb == pytest.approx(aff.k1b, abs=1e-15)
        assert typed.b1jb == pytest.approx(aff.b1b, abs=1e-15)

    def test_altruistic_angle_doubles_slopes(self, cfg_thirds):
        aff = affine_reduce(cfg_thirds)
        typed = svo_transform(aff, cfg_thirds, math.pi / 2)
        assert typed.k1js == pytest.approx(2.0 * aff.k1s, rel=1e-12)
        assert typed.k1js == pytest.approx(3.8433333333333333, abs=1e-10)

    def test_marginal_terms_match_finite_difference(self):
        # At theta = pi/2 the blended costs are exactly the two marginal
        # delays, whose difference must equal the quadratic's derivative.
        rng = np.random.default_rng(61)
        h = 1e-6
        for _ in range(25):
            cfg = random_config(rng)
            aff = affine_reduce(cfg)
            typed = svo_transform(aff, cfg, math.pi / 2)
            x = float(rng.uniform(h, 1.0 - h))
            fd = (social_cost(cfg, x + h) - social_cost(cfg, x - h)) / (2.0 * h)
            marginal_gap = (typed.k1js * x + typed.b1js) - (
                typed.k1jb * (1.0 - x) + typed.b1jb
            )
            assert abs(marginal_gap - fd) < 1e-5
            assert abs(social_quadratic(cfg).derivative(x) - fd) < 1e-5

    def test_angle_premise(self, cfg_thirds):
        with pytest.raises(AngleOutOfRange):
            svo_transform(affine_reduce(cfg_thirds), cfg_thirds, -1.2)


class TestChi:
    def test_identity_at_zero(self, cfg_thirds):
        aff = affine_reduce(cfg_thirds)
        assert chi(aff, cfg_thirds, 0.0) == pytest.approx(phi(cfg_thirds), abs=1e-15)

    def test_identity_at_right_angle_random(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            cfg = random_config(rng)
            aff = affine_reduce(cfg)
            assert abs(chi(aff, cfg, math.pi / 2) - gamma(cfg)) < 1e-12

    def test_intermediate_angle_between(self, cfg_thirds):
        aff = affine_reduce(cfg_thirds)
        mid = chi(aff, cfg_thirds, math.pi / 4)
        assert PHI_THIRDS < mid < GAMMA_THIRDS
        assert mid == pytest.approx(typed_cost_crossing(cfg_thirds, math.pi / 4), abs=1e-9)


class TestPopulationShares:
    def test_endpoints(self, pop_four_cav):
        at0 = population_shares(pop_four_cav, 0.0)
        assert all(w == 0.0 for t, w in at0 if t.vehicle_class == CAV)
        at1 = population_shares(pop_four_cav, 1.0)
        assert all(w == 0.0 for t, w in at1 if t.vehicle_class == HDV)

    def test_scalar_multiply(self, pop_four_cav):
        shares = [w for t, w in population_shares(pop_four_cav, 0.4) if t.vehicle_class == CAV]
        assert shares == pytest.approx([0.04, 0.08, 0.12, 0.16], abs=1e-15)

    def test_total_is_one(self, pop_four_cav):
        for p in (0.0, 0.31, 1.0):
            assert math.fsum(w for _, w in population_shares(pop_four_cav, p)) == pytest.approx(
                1.0, abs=1e-12
            )


class TestSolveHeterogeneous:
    def test_two_type_matches_dedicated_control(self, cfg_thirds, pop_two_type):
        for p, expected_mixed in ((0.3, "HDV"), (0.61, None), (0.8, "CAV")):
            eq = solve_heterogeneous(cfg_thirds, pop_two_type, p)
            closed = solve_closed(cfg_thirds, p)
            assert eq.x1s_star == pytest.approx(closed.x1s_total, abs=1e-12)
            assert eq.j_soc == pytest.approx(closed.j_soc, abs=1e-12)
            assert eq.mixed_label == expected_mixed

    def test_products_hold_at_solution(self, cfg_thirds, pop_four_cav):
        for p in (0.0, 0.25, 0.5, 0.75, 1.0):
            eq = solve_heterogeneous(cfg_thirds, pop_four_cav, p)
            alloc = [a.x1s for a in eq.allocations]
            assert check_heterogeneous(cfg_thirds, pop_four_cav, p, alloc, 1e-9)

    def test_hdv_only_population_matches_scan_oracle(self, cfg_thirds):
        pop = Population(
            (
                VehicleType(HDV, -0.2, 0.5),
                VehicleType(HDV, 0.1, 0.3),
                VehicleType(HDV, 0.4, 0.2),
            ),
            (),
        )
        eq = solve_heterogeneous(cfg_thirds, pop, 0.0)
        aff = affine_reduce(cfg_thirds)
        chis = [chi(aff, cfg_thirds, t.theta) for t in pop.types]
        oracle = fixed_point_scan(chis, [t.weight for t in pop.types])
        assert abs(eq.x1s_star - oracle) <= 2e-5
        assert check_heterogeneous(
            cfg_thirds, pop, 0.0, [a.x1s for a in eq.allocations], 1e-9
        )

    def test_single_selfish_type_reduces_to_baseline(self, cfg_thirds):
        pop = Population((VehicleType(HDV, 0.0, 1.0),), ())
        eq = solve_heterogeneous(cfg_thirds, pop, 0.0)
        assert eq.x1s_star == pytest.approx(solve_hdv(cfg_thirds).x1s_star, abs=1e-15)
        # A vanishing-orientation CAV twin behaves selfishly at any p.
        near = Population(
            (VehicleType(HDV, 0.0, 1.0),), (VehicleType(CAV, 1e-7, 1.0),)
        )
        for p in (0.2, 0.7):
            eq = solve_heterogeneous(cfg_thirds, near, p)
            assert eq.x1s_star == pytest.approx(solve_hdv(cfg_thirds).x1s_star, abs=1e-6)

    def test_random_triples_satisfy_products_and_scan_oracle(self):
        rng = np.random.default_rng(137)
        trials = 0
        while trials < 300:
            cfg = random_config(rng)
            n_hdv = int(rng.integers(1, 4))
            n_cav = int(rng.integers(1, 4))
            pop = Population(
                tuple(
                    VehicleType(HDV, float(t), float(w))
                    for t, w in zip(
                        rng.uniform(-0.4, 1.5, n_hdv), rng.dirichlet(np.ones(n_hdv))
                    )
                ),
                tuple(
                    VehicleType(CAV, float(t), float(w))
                    for t, w in zip(
                        rng.uniform(0.0, math.pi / 2, n_cav), rng.dirichlet(np.ones(n_cav))
                    )
                ),
            )
            p = float(rng.uniform(0.0, 1.0))
            try:
                eq = solve_heterogeneous(cfg, pop, p)
            except DistinctnessViolated:
                continue
            alloc = [a.x1s for a in eq.allocations]
            assert check_heterogeneous(cfg, pop, p, alloc, 1e-9)
            assert sum(alloc) == pytest.approx(eq.x1s_star, abs=1e-9)
            oracle = fixed_point_scan(
                [a.chi for a in eq.allocations], [a.share for a in eq.allocations],
                step=1e-4,
            )
            assert abs(eq.x1s_star - oracle) <= 2.5e-4
            trials += 1

    def test_at_most_one_mixed_type(self, cfg_thirds, pop_four_cav):
        for p in np.linspace(0.0, 1.0, 101):
            eq = solve_heterogeneous(cfg_thirds, pop_four_cav, float(p))
            interior = [
                a for a in eq.allocations if 1e-12 < a.x1s < a.share - 1e-12
            ]
            assert len(interior) <= 1

    def test_threshold_ordering_respected(self, cfg_thirds, pop_four_cav):
        for p in np.linspace(0.0, 1.0, 41):
            eq = solve_heterogeneous(cfg_thirds, pop_four_cav, float(p))
            for a in eq.allocations:
                if a.share == 0.0:
                    continue
                if a.x1s >= a.share - 1e-12:  # fully steadfast
                    assert a.chi >= eq.x1s_star - 1e-9
                elif a.x1s <= 1e-12:  # fully bypass
                    assert a.chi <= eq.x1s_star + 1e-9


class TestCheckHeterogeneous:
    def test_perturbed_mixed_allocation_fails(self, cfg_thirds, pop_two_type):
        eq = solve_heterogeneous(cfg_thirds, pop_two_type, 0.3)
        alloc = [a.x1s for a in eq.allocations]
        assert check_heterogeneous(cfg_thirds, pop_two_type, 0.3, alloc, 1e-9)
        bent = list(alloc)
        bent[0] -= 0.05  # HDV mixes below the pinned threshold
        assert not check_heterogeneous(cfg_thirds, pop_two_type, 0.3, bent, 1e-9)

    def test_all_steadfast_fails_above_thresholds(self, cfg_thirds, pop_two_type):
        shares = [w for _, w in population_shares(pop_two_type, 0.3)]
        assert not check_heterogeneous(cfg_thirds, pop_two_type, 0.3, shares, 1e-9)


class TestPlateauIntervals:
    def test_two_type_intervals(self, cfg_thirds, pop_two_type):
        ivs = plateau_intervals(cfg_thirds, pop_two_type)
        by_label = {iv.label: iv for iv in ivs}
        hdv = by_label["HDV"]
        assert (hdv.p_lo, hdv.lo_closed) == (0.0, True)
        assert hdv.p_hi == pytest.approx(PHI_THIRDS, abs=1e-12)
        assert not hdv.hi_closed
        cav = by_label["CAV"]
        assert cav.p_lo == pytest.approx(GAMMA_THIRDS, abs=1e-12)
        assert not cav.lo_closed
        assert (cav.p_hi, cav.hi_closed) == (1.0, True)

    def test_membership_predicate_agrees(self, cfg_thirds, pop_four_cav):
        ranked = type_thresholds(cfg_thirds, pop_four_cav)
        intervals = {iv.k: iv for iv in plateau_intervals(cfg_thirds, pop_four_cav)}
        shares_at = lambda p: [w for _, w in population_shares(pop_four_cav, p)]
        for p in np.arange(0.0, 1.0 + 1e-9, 1e-3):
            p = float(p)
            shares = shares_at(p)
            for k, r in enumerate(ranked):
                upper = math.fsum(
                    shares[s.index] for s in ranked[k + 1 :]
                )
                member = 0.0 < r.chi - upper < shares[r.index]
                iv = intervals.get(r.index)
                assert member == (iv is not None and iv.contains(p))

    def test_neighboring_intervals_disjoint(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            cfg = random_admissible_config(rng)
            hdv_thetas = sorted(rng.uniform(-0.3, 1.3, size=2))
            cav_thetas = sorted(rng.uniform(0.0, math.pi / 2, size=3))
            w_h = rng.dirichlet((1.0, 1.0))
            w_c = rng.dirichlet((1.0, 1.0, 1.0))
            pop = Population(
                tuple(VehicleType(HDV, t, w) for t, w in zip(hdv_thetas, w_h)),
                tuple(VehicleType(CAV, t, w) for t, w in zip(cav_thetas, w_c)),
            )
            try:
                ivs = plateau_intervals(cfg, pop)
            except DistinctnessViolated:
                continue
            ivs = sorted(ivs, key=lambda iv: iv.p_lo)
            for a, b in zip(ivs, ivs[1:]):
                assert a.p_hi <= b.p_lo + 1e-12
                if a.p_hi == b.p_lo:
                    assert not (a.hi_closed and b.lo_closed)

    def test_membership_certified_for_random_populations(self):
        # Sampled membership in 0 < chi_k - W_k(p) < w_k(p) agrees with the
        # analytic endpoints at every point of a 1e-3 grid, and so does the
        # mixing type the sweep reports.
        rng = np.random.default_rng(131)
        grid = [float(p) for p in np.arange(0.0, 1.0 + 1e-9, 1e-3)]
        certified = 0
        while certified < 20:
            cfg = random_admissible_config(rng)
            n_hdv = int(rng.integers(1, 3))
            n_cav = int(rng.integers(1, 4))
            pop = Population(
                tuple(
                    VehicleType(HDV, float(t), float(w))
                    for t, w in zip(
                        sorted(rng.uniform(-0.3, 1.2, size=n_hdv)),
                        rng.dirichlet(np.ones(n_hdv)),
                    )
                ),
                tuple(
                    VehicleType(CAV, float(t), float(w))
                    for t, w in zip(
                        sorted(rng.uniform(0.0, math.pi / 2, size=n_cav)),
                        rng.dirichlet(np.ones(n_cav)),
                    )
                ),
            )
            try:
                ranked = type_thresholds(cfg, pop)
            except DistinctnessViolated:
                continue
            intervals = {iv.k: iv for iv in plateau_intervals(cfg, pop)}
            rows = sweep_heterogeneous(cfg, pop, grid)
            for p, row in zip(grid, rows):
                shares = [w for _, w in population_shares(pop, p)]
                mixing = []
                for k, r in enumerate(ranked):
                    upper = math.fsum(shares[s.index] for s in ranked[k + 1 :])
                    member = 0.0 < r.chi - upper < shares[r.index]
                    iv = intervals.get(r.index)
                    assert member == (iv is not None and iv.contains(p))
                    if member:
                        mixing.append(r.label)
                assert [row.active_type] == (mixing or ["none"])
            certified += 1

    def test_matched_tails_give_one_sided_interval(self, cfg_thirds):
        # Upper-set weight of the 0.2-rad CAV is 0.5 on both sides, so its
        # plateau has a constant lower boundary and runs to p = 1.
        pop = Population(
            (VehicleType(HDV, 0.0, 0.5), VehicleType(HDV, 0.3, 0.5)),
            (VehicleType(CAV, 0.2, 0.5), VehicleType(CAV, math.pi / 2, 0.5)),
        )
        ivs = {iv.label: iv for iv in plateau_intervals(cfg_thirds, pop)}
        target = ivs["CAV1"]
        assert (target.p_hi, target.hi_closed) == (1.0, True)
        assert 0.0 < target.p_lo < 1.0
        # Membership flips exactly once along a fine grid.
        aff = affine_reduce(cfg_thirds)
        chi_k = chi(aff, cfg_thirds, 0.2)
        flips = []
        prev = None
        for p in np.arange(0.0, 1.0 + 1e-9, 1e-4):
            member = 0.0 < chi_k - 0.5 < 0.5 * float(p)
            if prev is not None and member != prev:
                flips.append(float(p))
            prev = member
        assert len(flips) == 1
        assert abs(flips[0] - target.p_lo) <= 1e-4


class TestPlateauFree:
    def test_boundary_membership_semantics(self, cfg_thirds, pop_two_type):
        by_label = {iv.label: iv for iv in plateau_intervals(cfg_thirds, pop_two_type)}
        hdv, cav = by_label["HDV"], by_label["CAV"]
        assert hdv.contains(0.0)          # clipped endpoint is closed
        assert not hdv.contains(hdv.p_hi)  # strict boundary is open
        assert not cav.contains(cav.p_lo)
        assert cav.contains(1.0)
        assert cav.contains(0.99)

    def test_gap_between_plateaus_is_free(self, cfg_thirds, pop_two_type):
        free, blocking = plateau_free(cfg_thirds, pop_two_type, 0.595, 0.624)
        assert free and blocking == []

    def test_wide_range_blocked_by_both(self, cfg_thirds, pop_two_type):
        free, blocking = plateau_free(cfg_thirds, pop_two_type, 0.5, 0.7)
        assert not free
        assert [iv.label for iv in blocking] == ["HDV", "CAV"]

    def test_range_validation(self, cfg_thirds, pop_two_type):
        with pytest.raises(DomainError):
            plateau_free(cfg_thirds, pop_two_type, 0.7, 0.5)


class TestSweepHeterogeneous:
    def test_staircase_structure(self, cfg_thirds, pop_four_cav):
        records = sweep_heterogeneous(
            cfg_thirds, pop_four_cav, [i / 500 for i in range(501)]
        )
        js = [r.j_soc for r in records]
        assert all(b - a <= 1e-10 for a, b in zip(js, js[1:]))
        # Drops only happen while no type is pinned (active type switches).
        for prev, cur in zip(records, records[1:]):
            if cur.j_soc < prev.j_soc - 1e-12:
                assert prev.active_type == "none" or cur.active_type == "none" or (
                    prev.active_type != cur.active_type
                )

    def test_share_pinned_inside_intervals(self, cfg_thirds, pop_four_cav):
        intervals = plateau_intervals(cfg_thirds, pop_four_cav)
        records = sweep_heterogeneous(
            cfg_thirds, pop_four_cav, [i / 500 for i in range(501)]
        )
        for r in records:
            for iv in intervals:
                if iv.contains(r.p):
                    assert abs(r.x1s_total - iv.chi_k) <= 1e-10

    def test_degenerate_matches_dedicated_sweep(self, cfg_thirds, pop_two_type):
        grid = [i / 200 for i in range(201)]
        hetero = sweep_heterogeneous(cfg_thirds, pop_two_type, grid)
        dedicated = sweep_penetration(cfg_thirds, grid)
        for a, b in zip(hetero, dedicated):
            assert abs(a.x1s_total - b.x1s_total) <= 1e-9
            assert abs(a.j_soc - b.j_soc) <= 1e-9

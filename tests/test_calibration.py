import contextlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weavelane import calibration
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
    DomainError,
    EmptyDataset,
    ZeroDenominator,
    ZeroObservedShare,
)
from weavelane.model import CostCoefficients, FlowConfig, RampConfig, affine_reduce
from weavelane.wardrop import phi, solve_hdv

from oracles import (
    lifted_fit,
    multistart_fit,
    nnls_objective,
    random_config,
    slsqp_objective,
)

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
        # The fit draws no random numbers, so the seed changes nothing.
        dataset = synthesize(40, seed=93, noise=0.02)
        for pin in (True, False):
            a = calibrate(dataset, seed=11, budget=4000, pin_unit_costs=pin)
            b = calibrate(dataset, seed=12, budget=4000, pin_unit_costs=pin)
            assert a == b

    def test_free_unit_costs_mode(self):
        dataset = synthesize(30, seed=99)
        result = calibrate(dataset, budget=12000, pin_unit_costs=False)
        assert result.converged
        assert result.objective < 1e-8
        # A unit cost may be 0 at the optimum, but both Lane-1 slopes never.
        assert all(slopes(result.coeffs, o) > 0.0 for o in dataset)
        again = calibrate(dataset, seed=4, budget=12000, pin_unit_costs=False)
        assert result == again

    def test_free_noiseless_recovery(self):
        # The truth's unit costs and omega are the start's, so the flat
        # directions and the cost scale resolve to the truth itself.
        dataset = synthesize(200, seed=90)
        start = CostCoefficients(alpha=1.0, beta=1.0, omega=1.0, gamma=1.0, rho=1.0, delta=1.0)
        result = calibrate(dataset, initial=start, pin_unit_costs=False)
        assert result.converged
        for field, value in PAPER.as_dict().items():
            assert getattr(result.coeffs, field) == pytest.approx(value, abs=2e-2)

    def test_free_fit_needs_a_positive_delay_unit(self):
        # c1_t is the unit delays are measured in; CostCoefficients already
        # rejects a negative one.
        dataset = synthesize(10, seed=100)
        with pytest.raises(DomainError):
            calibrate(dataset, initial=CostCoefficients(c1_t=0.0), pin_unit_costs=False)
        assert calibrate(dataset, initial=CostCoefficients(c1_t=0.0)).converged

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

    @pytest.mark.parametrize("interval", [(np.nan, 5.0), (0.0, np.nan)])
    def test_nan_bounds_rejected(self, cfg_thirds, interval):
        obs = Observation(cfg_thirds.flows, 0.5)
        with pytest.raises(BoundsInfeasible):
            calibrate([obs], bounds={"alpha": interval})


# No coefficients explain both shares at the first flow mix.
CLASH = [
    Observation(FlowConfig(0.2, 0.3, 0.5), 0.1),
    Observation(FlowConfig(0.2, 0.3, 0.5), 0.9),
    Observation(FlowConfig(0.4, 0.4, 0.2), 0.5),
]


class TestBudget:
    def test_pinned_iterations_never_exceed_budget(self):
        dataset = synthesize(120, seed=141, noise=0.05)
        for budget in range(1, 12):
            assert calibrate(dataset, budget=budget).iterations <= budget
        capped = calibrate(
            dataset, initial=CostCoefficients(delta=1.5), bounds={"delta": (0.0, 2.0)}, budget=3
        )
        assert capped.iterations <= 3

    def test_pinned_start_alone_certifies_nothing_on_noisy_data(self):
        result = calibrate(synthesize(60, seed=142, noise=0.02), budget=1)
        assert result.iterations == 1
        assert result.converged is False

    def test_pinned_default_budget_converges_in_few_evaluations(self):
        result = calibrate(synthesize(200, seed=91, noise=0.01))
        assert result.converged is True
        assert result.iterations < 50

    @pytest.mark.parametrize("pin_unit_costs", [True, False])
    def test_budget_cut_fit_is_not_converged(self, pin_unit_costs):
        # The free fit certifies CLASH in two evaluations, so one is a cut.
        result = calibrate(CLASH, budget=1, pin_unit_costs=pin_unit_costs)
        assert result.converged is False
        assert result.objective > calibrate(CLASH, pin_unit_costs=pin_unit_costs).objective


_WEIGHTS = ("alpha", "beta", "omega", "gamma", "rho", "delta")
ORACLE_PROPERTY = settings(max_examples=10, derandomize=True, deadline=None)


def pinned_case(seed, weights, noise, rows, capped, cap, fixed, zero_units):
    """A dataset drawn from a truth, the pinned start and the box of a fit.

    Shares are the truth's equilibrium plus uniform noise; ``capped`` names
    a weight whose upper bound is ``cap`` times its true value, ``fixed`` one
    whose bounds both equal its start, and ``zero_units`` pins all four unit
    costs at zero.
    """
    rng = np.random.default_rng(seed)
    truth = CostCoefficients(**dict(zip(_WEIGHTS, weights)))
    dataset = []
    for _ in range(rows):
        flows = FlowConfig(*rng.dirichlet((1.0, 1.0, 1.0)))
        x = solve_hdv(RampConfig(flows, truth)).x1s_star + noise * rng.uniform(-1.0, 1.0)
        dataset.append(Observation(flows, min(1.0, max(0.0, x))))
    bounds = {f: (0.0, 10.0) for f in _WEIGHTS}
    if capped is not None:
        bounds[capped] = (0.0, getattr(truth, capped) * cap)
    units = (0.0,) * 4 if zero_units else (1.0,) * 4
    start = {f: min(getattr(PAPER, f), bounds[f][1]) for f in _WEIGHTS}
    if fixed is not None:
        bounds[fixed] = (start[fixed], start[fixed])
    return dataset, CostCoefficients(*units, **start), bounds


@st.composite
def pinned_fits(
    draw, zero_units=st.booleans()
) -> tuple[list[Observation], CostCoefficients, dict]:
    return pinned_case(
        draw(st.integers(0, 2**32 - 1)),
        draw(st.lists(st.floats(0.2, 4.0), min_size=6, max_size=6)),
        draw(st.sampled_from((0.0, 0.01, 0.1))),
        draw(st.integers(1, 12)),
        draw(st.sampled_from((None,) + _WEIGHTS)),
        draw(st.floats(0.2, 0.9)),
        draw(st.sampled_from((None,) + _WEIGHTS)),
        draw(zero_units),
    )


@ORACLE_PROPERTY
@given(pinned_fits())
@example(pinned_case(1, (1.5, 0.8, 1.2, 2.0, 0.7, 2.5), 0.0, 3, None, 1.0, None, False))
@example(pinned_case(2, (1.5, 0.8, 1.2, 2.0, 0.7, 2.5), 0.1, 12, "gamma", 0.3, "delta", False))
@example(pinned_case(3, (1.5, 0.8, 1.2, 2.0, 0.7, 2.5), 0.01, 2, None, 1.0, None, True))
def test_pinned_fit_is_no_worse_than_multistart_oracle(case):
    dataset, initial, bounds = case
    result = calibrate(dataset, initial=initial, bounds=bounds)
    oracle = multistart_fit(dataset, initial, bounds)
    assert result.converged
    assert result.objective <= oracle + 1e-9 + 1e-6 * oracle


def slopes(coeffs: CostCoefficients, obs: Observation) -> float:
    """``k1s + k1b`` at an observation's flow mix."""
    aff = affine_reduce(RampConfig(obs.flows, coeffs))
    return aff.k1s + aff.k1b


@ORACLE_PROPERTY
@given(pinned_fits(zero_units=st.just(False)))
@example(pinned_case(1, (1.5, 0.8, 1.2, 2.0, 0.7, 2.5), 0.0, 3, None, 1.0, None, False))
@example(pinned_case(2, (1.5, 0.8, 1.2, 2.0, 0.7, 2.5), 0.1, 12, "gamma", 0.3, "delta", False))
@example((CLASH, PAPER, {}))
def test_free_fit_is_no_worse_than_lifted_oracle_or_pinned_fit(case):
    dataset, initial, bounds = case
    result = calibrate(dataset, initial=initial, bounds=bounds, pin_unit_costs=False)
    assert result.converged
    assert all(slopes(result.coeffs, o) > 0.0 for o in dataset)
    assert result.objective <= lifted_fit(dataset, initial, bounds) + 1e-9
    # The pinned optimum is a feasible point of the free problem.
    pinned = calibrate(dataset, initial=initial, bounds=bounds)
    assert result.objective <= pinned.objective + 1e-9


@contextlib.contextmanager
def lsq_passes():
    """Collect the passes of every ``_lsq`` solve made inside the block."""
    seen = []
    solve = calibration._lsq

    def counted(*args):
        z, passes = solve(*args)
        seen.append(passes)
        return z, passes

    calibration._lsq = counted
    try:
        yield seen
    finally:
        calibration._lsq = solve


def lsq_case(seed, n, k, rank, rows, copies, nonneg):
    """A problem ``(m, r, g, h, z0)`` for ``_lsq`` with a feasible start.

    ``m`` is ``n`` by ``k`` of rank at most ``rank``. With ``nonneg`` it is
    the NNLS form ``g = -I``, ``h = 0`` from ``z0 = 0``. Otherwise ``g`` has
    ``rows`` random rows, about half of them tight at ``z0``, then
    ``copies`` dependent rows: a scaled duplicate, a sum of two rows, or
    both box rows of one coordinate held at ``z0``.
    """
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, k))
    r = rng.normal(size=n)
    if nonneg:
        return m, r, -np.eye(k), np.zeros(k), np.zeros(k)
    z0 = rng.normal(size=k)
    g = rng.normal(size=(rows, k))
    h = g @ z0 + np.where(rng.random(rows) < 0.5, 0.0, rng.random(rows))
    for _ in range(copies):
        kind, (i, j) = rng.integers(3), rng.integers(rows, size=2)
        a, b = rng.uniform(0.5, 2.0, size=2)
        if kind == 2:
            e = np.eye(k)[rng.integers(k)]
            g, h = np.vstack([g, e, -e]), np.append(h, [e @ z0, -e @ z0])
        else:
            b *= kind
            g, h = np.vstack([g, a * g[i] + b * g[j]]), np.append(h, a * h[i] + b * h[j])
    return m, r, g, h, z0


@st.composite
def lsq_problems(draw):
    k, nonneg = draw(st.integers(1, 6)), draw(st.booleans())
    problem = lsq_case(
        draw(st.integers(0, 2**32 - 1)),
        draw(st.integers(1, 12)),
        k,
        draw(st.integers(1, k)),
        draw(st.integers(1, 8)),
        draw(st.integers(0, 4)),
        nonneg,
    )
    return problem, nonneg


@settings(max_examples=60, derandomize=True, deadline=None)
@given(lsq_problems())
def test_lsq_is_no_worse_than_scipy(case):
    (m, r, g, h, z0), nonneg = case
    z, passes = calibration._lsq(m, r, g, h, z0)
    assert passes < calibration._LSQ_PASSES
    assert np.all(g @ z - h <= 1e-9 * (1.0 + np.max(np.abs(z))))
    scale = 1.0 + float(np.sum((m @ z0 + r) ** 2))
    if nonneg:
        oracle = nnls_objective(m, r)
    else:
        starts = [z0, np.zeros(len(z0)), z0 + np.random.default_rng(0).normal(size=len(z0))]
        oracle = slsqp_objective(m, r, g, h, starts, 1e-9)
    assert float(np.sum((m @ z + r) ** 2)) <= oracle + 1e-9 * scale


def stress_case(seed, scale, noise, mixes, rows, fixed, pinned, c1_m=1.0):
    """A fit with all unit costs at ``scale`` (``c1_m`` at ``c1_m * scale``).

    The truth's weights lie within 30% of the start's; its ``rows`` shares
    cycle over ``mixes`` flow mixes with uniform noise. ``fixed`` names a
    weight held at its start by equal bounds; unit costs range over
    ``[0, 10 * scale]``.
    """
    rng = np.random.default_rng(seed)
    units = dict(c1_t=scale, c2_t=scale, c1_m=c1_m * scale, c2_m=scale)
    truth = CostCoefficients(
        **units, **{f: getattr(PAPER, f) * rng.uniform(0.7, 1.3) for f in _WEIGHTS}
    )
    flows = [FlowConfig(*rng.dirichlet((1.0, 1.0, 1.0))) for _ in range(mixes)]
    dataset = []
    for i in range(rows):
        x = solve_hdv(RampConfig(flows[i % mixes], truth)).x1s_star
        x += noise * rng.uniform(-1.0, 1.0)
        dataset.append(Observation(flows[i % mixes], min(1.0, max(0.0, x))))
    initial = CostCoefficients(**units)
    bounds = {f: (0.0, 10.0) for f in _WEIGHTS}
    bounds.update({f: (0.0, 10.0 * scale) for f in units})
    if fixed is not None:
        bounds[fixed] = (getattr(initial, fixed),) * 2
    return dataset, initial, bounds, pinned


@st.composite
def stress_fits(draw):
    return stress_case(
        draw(st.integers(0, 2**32 - 1)),
        draw(st.sampled_from((1e-3, 1.0, 1e4))),
        draw(st.sampled_from((0.0, 0.01, 0.05, 0.2))),
        draw(st.integers(1, 6)),
        draw(st.integers(3, 40)),
        draw(st.sampled_from((None,) + _WEIGHTS)),
        draw(st.booleans()),
    )


def fit_without_cap(dataset, initial, bounds, pinned):
    """``calibrate``, asserting that no ``_lsq`` solve reaches its cap."""
    with lsq_passes() as passes:
        result = calibrate(dataset, initial=initial, bounds=bounds, pin_unit_costs=pinned)
    assert max(passes) < calibration._LSQ_PASSES
    return result


@ORACLE_PROPERTY
@given(stress_fits())
@example(stress_case(4, 1e4, 0.0, 3, 30, None, True))
@example(stress_case(5, 1e-3, 0.2, 2, 25, "omega", False))
def test_stress_fit_converges_within_the_oracle(case):
    # Objectives scale with the square of the unit costs, so the slack is
    # relative above 1.
    result = fit_without_cap(*case)
    assert result.converged
    dataset, initial, bounds, pinned = case
    oracle = (multistart_fit if pinned else lifted_fit)(dataset, initial, bounds)
    assert result.objective <= oracle + 1e-9 * max(1.0, oracle)


class TestLsqPitfalls:
    """One case for each way an active-set step can cycle or stall."""

    def test_full_step_checks_multipliers(self):
        # From the vertex 0 of z2 >= 0 and z2 >= z1 both rows join at t = 0,
        # so the next step is full and zero; only the multiplier -1 of
        # z2 >= 0 shows that the optimum lies along z1 = z2.
        g = np.array([[0.0, -1.0], [1.0, -1.0]])
        z, _ = calibration._lsq(np.eye(2), np.array([-2.0, 1.0]), g, np.zeros(2), np.zeros(2))
        assert z == pytest.approx([0.5, 0.5], abs=1e-15)

    @pytest.mark.parametrize(
        "case",
        [
            # c1_m = 0: both omega cone rows are tight and dependent on its box.
            stress_case(407, 1.0, 0.05, 2, 28, None, False, c1_m=0.0),
            # rho held by equal bounds: its two cone rows are opposite.
            stress_case(961, 1.0, 0.01, 3, 17, "rho", True),
        ],
        ids=["c1_m-zero", "rho-fixed"],
    )
    def test_rows_met_by_rounding_do_not_block(self, case):
        assert fit_without_cap(*case).converged

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e4])
    def test_noiseless_fit_accepts_rounding_multipliers(self, scale):
        # The gradient vanishes at a noiseless optimum, so multipliers are
        # rounding there, and a tolerance relative to them alone cycles.
        for pinned in (True, False):
            result = fit_without_cap(*stress_case(2, scale, 0.0, 3, 30, None, pinned))
            assert result.converged and result.iterations <= 3

    def test_noiseless_pinned_fit_at_large_unit_costs_certifies(self):
        # Steps this close to the optimum are tiny but still needed.
        for seed in range(4):
            result = fit_without_cap(*stress_case(seed, 1e4, 0.0, 5, 40, None, True))
            assert result.converged and result.iterations <= 3


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

"""The in-process workloads: sweep-dense, scan-configs and calibrate-fit.

Each workload has four steps. ``prepare`` writes the seeded inputs and is
not timed. ``load`` imports weavelane and loads those inputs; it is the
set-up. ``run`` is a closed loop of operations, one at a time, over a fixed
input set that the seed chooses, in passes, until the operations have taken
the run length; the first pass always completes, and checking outputs
between operations is not counted. Each operation's time is also scaled to
reference-host speed by the controls of :mod:`hostspeed` timed around it.
Every execution is checked: scan-configs checks each one against the
reference; the others check an operation's first output against the
reference and require each repeat to reproduce it exactly. In a traced run,
passes (batches for scan-configs) alternate between traced and untraced, so
the run reports its own tracing overhead.
"""

from __future__ import annotations

import math
import pickle
import resource
import statistics
import time
from collections import Counter

import checks
import gen
import hostspeed
import reference as ref
from checks import Broken, ScenarioRef, close, expect

perf = time.perf_counter


def direct(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _weavelane_modules():
    import weavelane.calibration
    import weavelane.model
    import weavelane.social
    import weavelane.stackelberg
    import weavelane.svo
    import weavelane.wardrop

    return [weavelane.model, weavelane.wardrop, weavelane.social,
            weavelane.stackelberg, weavelane.svo, weavelane.calibration]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def overhead_pct(traced: list[float], plain: list[float]) -> float:
    """Mean traced over mean untraced operation time (both scaled to
    reference-host speed), as a percentage above 1."""
    if not traced or not plain:
        return 0.0
    return (statistics.mean(traced) / statistics.mean(plain) - 1.0) * 100.0


class Result:
    """Operation times of one run, split by whether tracing was on."""

    def __init__(self) -> None:
        self.plain: list[float] = []  # untraced, scaled to reference-host speed
        self.wall: list[float] = []  # the same operations' wall times
        self.traced: list[float] = []  # traced operations, scaled
        self.traced_wall = 0.0
        self.factors: list[float] = []  # host-speed factor of each untraced operation
        self.work = 0  # work units done in untraced operations
        self.by_key: dict = {}  # (wall, scaled) times of each untraced operation, when keyed
        self.named: dict = {}
        self.layers: dict = {}
        self.rss_mb = 0.0

    @property
    def measured(self) -> float:
        """Wall seconds spent inside timed operations so far."""
        return sum(self.wall) + self.traced_wall

    def add(self, seconds: float, traced: bool, work: int, factor: float = 1.0, key=None) -> None:
        if traced:
            self.traced.append(seconds * factor)
            self.traced_wall += seconds
        else:
            self.wall.append(seconds)
            self.plain.append(seconds * factor)
            self.factors.append(factor)
            self.work += work
            if key is not None:
                self.by_key.setdefault(key, []).append((seconds, seconds * factor))

    def figures(self, equal_mix: bool, scaled: bool = True) -> tuple[float, float]:
        """Median seconds per operation and work units per second.

        With ``equal_mix`` (one work unit per operation), each keyed input
        weighs the same, however far into its last pass the run stopped: the
        mean of the inputs' median times, and the inputs per second of time.
        """
        if not equal_mix:
            times = self.plain if scaled else self.wall
            return statistics.median(times), self.work / sum(times)
        times = [[scaled_t if scaled else wall for wall, scaled_t in ts] for ts in self.by_key.values()]
        return (statistics.mean(statistics.median(t) for t in times),
                len(times) / sum(statistics.mean(t) for t in times))


class Repeats:
    """First outputs of the operations of a run; later ones must equal them."""

    def __init__(self) -> None:
        self.first: dict = {}

    def is_first(self, key, out) -> bool:
        """Record ``out`` if ``key`` has not run before; True if it had not."""
        if key in self.first:
            return False
        self.first[key] = pickle.dumps(out)
        return True

    def check(self, key, out) -> None:
        if pickle.dumps(out) != self.first[key]:
            raise Broken("output differs from the first run of the same input")


class SweepDense:
    """sweep_penetration and sweep_heterogeneous over a 10001-point grid,
    reusing a few admissible configurations with 3 to 8 vehicle types."""

    name = "sweep-dense"
    equal_mix = False  # whole rounds: every run has the same mix
    TYPE_COUNTS = (3, 5, 6, 8)
    POINTS = 10001
    NUMERIC_EVERY = 400  # grid stride of the solve_numeric cross-check
    REFERENCE_EVERY = 100  # grid stride of the reference typed equilibrium

    def prepare(self, seed: int, work, seconds: float) -> dict:
        r = gen.stream(seed, self.name)
        configs = []
        for i, count in enumerate(self.TYPE_COUNTS):
            c, n = gen.admissible_config(r, 0.05)
            types = gen.distinct_types(r, c, n, count, 2e-4)
            path = work / f"sweep{i}.yaml"
            path.write_text(gen.scenario_yaml(c, n, types), encoding="utf-8")
            configs.append({"path": str(path), "c": c, "n": n, "types": types})
        return {"seed": seed, "configs": configs}

    def load(self, plan: dict, call=direct) -> dict:
        from weavelane.scenario import load_scenario

        return {
            "grid": [i / (self.POINTS - 1) for i in range(self.POINTS)],
            "inputs": [call("scenario.load_scenario", load_scenario, c["path"]) for c in plan["configs"]],
        }

    def run(self, plan, state, seconds, tracer, tally) -> Result:
        from weavelane import model, svo
        from weavelane.stackelberg import sweep_penetration
        from weavelane.svo import sweep_heterogeneous

        grid = state["grid"]
        res = Result()
        mode_time = Counter()
        mode_points = Counter()
        repeats = Repeats()
        rnd = 0
        while rnd < (2 if tracer else 1) or res.measured < seconds:
            traced = tracer is not None and rnd % 2 == 0
            call = tracer.call if traced else direct
            if traced:
                tracer.rebind_everywhere(_weavelane_modules(), model.affine_reduce,
                                         tracer.count_wrapper("affine_reduce", model.affine_reduce))
                tracer.rebind(svo, "type_thresholds",
                              tracer.count_wrapper("type_thresholds", svo.type_thresholds))
            for i, sc in enumerate(state["inputs"]):
                before = hostspeed.control_s()
                t0 = perf()
                out_s = self._sweep(call, "stackelberg.sweep_penetration", sweep_penetration, sc.config, grid)
                t1 = perf()
                out_v = self._sweep(call, "svo.sweep_heterogeneous", sweep_heterogeneous,
                                    sc.config, sc.population, grid)
                t2 = perf()
                factor = hostspeed.factor(before, hostspeed.control_s())
                res.add(t2 - t0, traced, 2 * len(grid), factor)
                if not traced:
                    mode_time["stackelberg"] += (t1 - t0) * factor
                    mode_time["svo"] += (t2 - t1) * factor
                    mode_points["stackelberg"] += len(grid)
                    mode_points["svo"] += len(grid)
                if traced:
                    tracer.fold()
                for mode, out in (("stackelberg", out_s), ("svo", out_v)):
                    what = f"sweep {mode} {len(plan['configs'][i]['types'])} types"
                    if repeats.is_first((i, mode), out):
                        tally.check((i, mode), what, self._check, mode, out, plan["configs"][i],
                                    state["inputs"][i], grid)
                    else:
                        tally.check((i, mode), what, repeats.check, (i, mode), out)
            if traced:
                tracer.restore()
            rnd += 1
        res.rss_mb = peak_rss_mb()
        res.named = {
            f"{m}_points_per_s": mode_points[m] / mode_time[m] if mode_time[m] else None
            for m in ("stackelberg", "svo")
        }
        if tracer is not None:
            traced_points = len(res.traced) * len(grid)
            res.layers = {
                "scenario.load_scenario_ms": tracer.per_call("scenario.load_scenario", 1e3),
                "stackelberg.sweep_penetration.us_per_point":
                    tracer.per_call("stackelberg.sweep_penetration", 1e6 / len(grid)),
                "svo.sweep_heterogeneous.us_per_point":
                    tracer.per_call("svo.sweep_heterogeneous", 1e6 / len(grid)),
                "model.affine_reduce.calls_per_point":
                    tracer.counts["affine_reduce"] / (2 * traced_points) if traced_points else 0.0,
                "svo.type_thresholds.calls_per_point":
                    tracer.counts["type_thresholds"] / traced_points if traced_points else 0.0,
            }
        return res

    @staticmethod
    def _sweep(call, name, fn, *args):
        try:
            return call(name, fn, *args)
        except Exception as exc:  # recorded as a failed operation
            return exc

    def _check(self, mode, out, spec, loaded, grid) -> None:
        from weavelane.errors import WeavelaneError
        from weavelane.stackelberg import solve_numeric
        from weavelane.svo import plateau_intervals

        if isinstance(out, Exception):
            raise Broken(f"raised {type(out).__name__}")
        s = ScenarioRef(spec["c"], spec["n"], spec["types"])
        cfg = loaded.config
        if mode == "stackelberg":
            checks.check_stackelberg_rows(
                [(r.p, r.x1s_total, r.q_s, r.j_soc, r.j_cav, r.regime_label) for r in out], s, grid)
            for k in range(0, len(grid), self.NUMERIC_EVERY):
                try:
                    sol = solve_numeric(cfg, grid[k])
                except WeavelaneError as exc:
                    raise Broken(f"solve_numeric cross-check raised {type(exc).__name__}") from None
                expect(close(sol.x1s_total, out[k].x1s_total, checks.SEARCH_TOL) and close(sol.j_soc, out[k].j_soc),
                       f"sweep point p={grid[k]} disagrees with solve_numeric")
            return
        intervals = plateau_intervals(cfg, loaded.population)
        for r in out:
            inside = [iv.label for iv in intervals if iv.contains(r.p)]
            expect(inside == ([] if r.active_type == "none" else [r.active_type]),
                   f"p={r.p}: label {r.active_type}, plateau intervals {inside}")
        checks.check_svo_rows([(r.p, r.x1s_total, r.active_type, r.j_soc, r.regime_label) for r in out],
                              s, grid, stride=self.REFERENCE_EVERY)


class ScanConfigs:
    """Thousands of configurations across the whole input space: every solver
    layer with no reuse between calls. A run's pool holds 500 configurations
    per second of run length (a slow host analyses about 1200 a second), so a
    configuration comes back only after thousands of others have been used."""

    name = "scan-configs"
    equal_mix = False  # every batch holds the same mix of kinds
    BATCH = 500  # configurations timed between two host-speed controls
    POOL_PER_SECOND = 500  # pool size per second of run length, in whole batches
    MAX_BATCHES = 24
    FULL_CHECK_EVERY = 32  # typed outputs are compared with the reference on these
    PLATEAU_PROBES = 7

    def prepare(self, seed: int, work, seconds: float) -> dict:
        r = gen.stream(seed, self.name)
        batches = max(1, min(self.MAX_BATCHES, round(seconds * self.POOL_PER_SECOND / self.BATCH)))
        kinds = gen.SCAN_KINDS
        pool = [gen.scan_config(r, kinds[i % len(kinds)]) for i in range(batches * self.BATCH)]
        return {"seed": seed, "batch": pool[:self.BATCH], "_pool": pool}

    def load(self, plan: dict, call=direct) -> list:
        return self._build(plan["batch"])

    @staticmethod
    def _build(specs: list) -> list:
        from weavelane.model import CostCoefficients, FlowConfig, RampConfig
        from weavelane.svo import Population, VehicleType

        out = []
        for d in specs:
            cfg = RampConfig(FlowConfig(*d["n"]), CostCoefficients(**d["c"]))
            types = [VehicleType(cls, theta, w) for cls, theta, w in d["types"]]
            pop = Population(tuple(t for t in types if t.vehicle_class == "HDV"),
                             tuple(t for t in types if t.vehicle_class == "CAV"))
            out.append((d, cfg, pop))
        return out

    def run(self, plan, state, seconds, tracer, tally) -> Result:
        from weavelane import model
        from weavelane.errors import WeavelaneError
        from weavelane.stackelberg import penetration_thresholds

        fns = self.functions()
        res = Result()
        outcomes = Counter()
        pool = plan["_pool"]
        batches = [state] + [self._build(pool[k:k + self.BATCH]) for k in range(self.BATCH, len(pool), self.BATCH)]
        n_batch = 0
        traced_configs = 0
        while n_batch < len(batches) or res.measured < seconds:
            traced = tracer is not None and n_batch % 2 == 0
            call = tracer.call if traced else direct
            if traced:
                tracer.rebind_everywhere(_weavelane_modules(), model.affine_reduce,
                                         tracer.count_wrapper("affine_reduce", model.affine_reduce))
            base = (n_batch % len(batches)) * self.BATCH
            outputs = []
            times = []
            before = hostspeed.control_s()
            for index, (spec, cfg, pop) in enumerate(batches[n_batch % len(batches)]):
                done = []
                t0 = perf()
                for name, fn, args in self.calls(fns, cfg, pop, spec):
                    try:
                        out = call(name, fn, *args)
                    except Exception as exc:  # classified below
                        out = exc
                    done.append((name, args, out))
                    if name == "social.admissible" and out is True:
                        try:
                            th = call("stackelberg.penetration_thresholds", penetration_thresholds, cfg)
                        except Exception as exc:  # classified below
                            th = exc
                        done.append(("stackelberg.penetration_thresholds", (cfg,), th))
                times.append(perf() - t0)
                if traced:
                    tracer.fold()
                    traced_configs += 1
                outputs.append((base + index, spec, done))
            factor = hostspeed.factor(before, hostspeed.control_s())
            for seconds_taken in times:
                res.add(seconds_taken, traced, 1, factor)
            if traced:
                tracer.restore()
            # Checking a whole batch after its calls keeps the benchmark's own
            # code from running between the timed calls of one batch.
            for index, spec, done in outputs:
                for name, _, out in done:
                    outcomes[name, "return"] += not isinstance(out, Exception)
                    outcomes[name, "documented"] += isinstance(out, WeavelaneError)
                    outcomes["calls"] += 1
                self._check(index, spec, done, index % self.FULL_CHECK_EVERY == 0, tally, WeavelaneError)
            n_batch += 1
        res.rss_mb = peak_rss_mb()
        res.named = {"configs_per_s": res.work / sum(res.plain) if res.plain else None}
        if tracer is not None:
            names = ("wardrop.solve_hdv", "social.ue_so_gap", "social.admissible",
                     "stackelberg.penetration_thresholds", "stackelberg.solve_closed",
                     "stackelberg.solve_numeric", "svo.solve_heterogeneous",
                     "svo.plateau_intervals", "svo.plateau_free")
            numeric = outcomes["stackelberg.solve_numeric", "return"]
            numeric_tries = sum(outcomes["stackelberg.solve_numeric", k] for k in ("return", "documented"))
            documented = sum(v for k, v in outcomes.items() if k != "calls" and k[1] == "documented")
            res.layers = {
                **{f"{name}_us": tracer.per_call(name, 1e6) for name in names},
                "model.affine_reduce.calls_per_config":
                    tracer.counts["affine_reduce"] / traced_configs if traced_configs else 0.0,
                "stackelberg.solve_numeric.certified_ratio": numeric / numeric_tries if numeric_tries else 0.0,
                "errors.documented_share": documented / outcomes["calls"] if outcomes["calls"] else 0.0,
            }
        return res

    @staticmethod
    def functions() -> dict:
        from weavelane.social import admissible, ue_so_gap
        from weavelane.stackelberg import solve_closed, solve_numeric
        from weavelane.svo import plateau_free, plateau_intervals, solve_heterogeneous
        from weavelane.wardrop import solve_hdv

        return {f"{fn.__module__.split('.')[-1]}.{fn.__name__}": fn for fn in (
            solve_hdv, ue_so_gap, admissible, solve_closed, solve_numeric,
            solve_heterogeneous, plateau_intervals, plateau_free)}

    @staticmethod
    def calls(fns: dict, cfg, pop, spec):
        """The calls made on one configuration, except penetration_thresholds,
        which follows admissible() when it answers True."""
        for name in ("wardrop.solve_hdv", "social.ue_so_gap", "social.admissible"):
            yield name, fns[name], (cfg,)
        for name in ("stackelberg.solve_closed", "stackelberg.solve_numeric"):
            for p in spec["ps"]:
                yield name, fns[name], (cfg, p)
        for p in spec["ps"]:
            yield "svo.solve_heterogeneous", fns["svo.solve_heterogeneous"], (cfg, pop, p)
        yield "svo.plateau_intervals", fns["svo.plateau_intervals"], (cfg, pop)
        yield "svo.plateau_free", fns["svo.plateau_free"], (cfg, pop, *spec["range"])

    def _check(self, index, spec, done, full, tally, documented_error) -> None:
        """Tally every call: its outcome class always; its values on regular
        inputs; typed values only on every FULL_CHECK_EVERY-th configuration."""
        c, n = spec["c"], tuple(spec["n"])
        s = None if ref.degenerate(c, n) else ScenarioRef(c, n, spec["types"] if full else None)
        context = {"intervals": None}
        for position, (name, args, out) in enumerate(done):
            tally.check((index, position), f"{name} on {spec['kind']}", self._check_call, name, args, out, s,
                        full, context, documented_error)

    def _check_call(self, name, args, out, s, full, context, documented_error) -> None:
        refused = isinstance(out, documented_error)
        if isinstance(out, Exception) and not refused:
            raise Broken(f"undocumented {type(out).__name__}")
        if s is None:  # degenerate costs: only admissible() may answer
            if name != "social.admissible":
                expect(refused, "accepted degenerate costs")
            return
        if name == "wardrop.solve_hdv":
            expect(not refused and close(out.x1s_star, ref.clamp01(s.phi)), "solve_hdv share")
        elif name == "social.ue_so_gap":
            expect(not refused, "ue_so_gap refused regular costs")
            want_ue, want_so = s.social(ref.clamp01(s.phi)), s.social(ref.clamp01(s.gamma))
            expect(close(out[0], want_ue) and close(out[1], want_so) and close(out[2], want_ue - want_so),
                   "ue_so_gap values")
        elif name == "social.admissible":
            margin = min(s.phi, s.gamma - s.phi, 1.0 - s.gamma)
            if abs(margin) > checks.EDGE_TOL:
                expect(out is (margin > 0), f"admissible {out} with margin {margin}")
        elif name == "stackelberg.penetration_thresholds":
            expect(not refused and close(out.p1, s.phi) and close(out.p2, s.gamma), "thresholds")
        elif name == "stackelberg.solve_closed":
            margin = min(s.phi, 1.0 - s.phi, s.gamma - s.phi)
            if margin > checks.EDGE_TOL:
                expect(not refused, "solve_closed refused an ordered configuration")
            elif margin < -checks.EDGE_TOL:
                expect(refused, "solve_closed accepted a configuration outside its domain")
            if not refused:
                want_x, want_j = s.bilevel(args[1])
                expect(close(out.x1s_total, want_x) and close(out.j_soc, want_j), "solve_closed values")
        elif name == "stackelberg.solve_numeric":
            if not refused:
                want_x, want_j = s.bilevel(args[1])
                expect(close(out.x1s_total, want_x, checks.SEARCH_TOL) and close(out.j_soc, want_j),
                       "solve_numeric values")
        elif full:
            self._check_typed(name, args, out, refused, s, context)

    def _check_typed(self, name, args, out, refused, s, context) -> None:
        gap = s.chi_gap
        if gap <= 1e-10:
            expect(refused, "accepted colliding thresholds")
            return
        if gap > 1e-8:
            expect(not refused, "refused distinct thresholds")
        if refused:
            return
        if name == "svo.solve_heterogeneous":
            want_x, _ = s.hetero(args[2])
            expect(close(out.x1s_star, want_x), "solve_heterogeneous share")
            expect(close(out.j_soc, s.social(ref.clamp01(want_x))), "solve_heterogeneous cost")
        elif name == "svo.plateau_intervals":
            context["intervals"] = out
            checks.check_plateau_rows(
                [(iv.label, iv.chi_k, iv.p_lo, iv.p_hi, iv.lo_closed, iv.hi_closed) for iv in out],
                s, self.PLATEAU_PROBES)
        elif name == "svo.plateau_free" and context["intervals"] is not None:
            lo, hi = args[2], args[3]
            want = []
            for iv in context["intervals"]:
                left, right = max(iv.p_lo, lo), min(iv.p_hi, hi)
                if left < right or (left == right and iv.contains(left)):
                    want.append(iv.label)
            expect(out[0] == (not want) and [iv.label for iv in out[1]] == want, "plateau_free verdict")


class CalibrateFit:
    """calibrate() on seeded synthetic datasets of known truth: sixteen
    datasets, the pattern below twice with other observations, of sizes
    50-500 and noise 0 / 0.01 / 0.05, one in four with free unit costs,
    fitted in order, pass after pass, until the run length has passed."""

    name = "calibrate-fit"
    equal_mix = True  # a run may stop partway through a pass
    PATTERN = (
        (50, 0.0, True), (150, 0.01, True), (300, 0.05, True), (500, 0.01, False),
        (100, 0.05, True), (200, 0.0, True), (400, 0.01, True), (250, 0.05, False),
    )
    DATASETS = 16

    def prepare(self, seed: int, work, seconds: float) -> dict:
        r = gen.stream(seed, self.name)
        fits = []
        for k in range(self.DATASETS):
            slot = k % len(self.PATTERN)
            size, noise, pinned = self.PATTERN[slot]
            # The truth depends on the slot only, so that how hard a run's fits
            # are does not depend on the seed; the observations do.
            truth = gen.truth_coeffs(gen.stream(slot, f"{self.name} truth"))
            obs = gen.observations(r, truth, size, noise)
            path = work / f"fit{k}.csv"
            path.write_text(gen.dataset_csv(obs), encoding="utf-8")
            fits.append({"path": str(path), "truth": truth, "obs": obs, "pinned": pinned,
                         "label": f"{size} obs, noise {noise}, {'pinned' if pinned else 'free'}"})
        return {"seed": seed, "fits": fits}

    def load(self, plan: dict, call=direct) -> list:
        from weavelane.calibration import load_dataset

        return [call("calibration.load_dataset", load_dataset, f["path"]) for f in plan["fits"]]

    def run(self, plan, state, seconds, tracer, tally) -> Result:
        from weavelane import calibration
        from weavelane.calibration import calibrate, count_satisfied, residual_objective

        res = Result()
        fits = []  # (spec, result, calibrate seconds, traced) of every successful fit
        first = {}
        repeats = Repeats()
        block = len(state)
        i = 0
        while i < (2 if tracer else 1) * block or res.measured < seconds:
            # A traced run alternates traced and untraced passes over the same
            # datasets, so that its overhead compares the same fits.
            traced = tracer is not None and (i // block) % 2 == 0
            k = i % block
            spec, dataset = plan["fits"][k], state[k]
            call = tracer.call if traced else direct
            if traced:
                tracer.rebind(calibration, "mper", tracer.span_wrapper("calibration.mper", calibration.mper))
            before = hostspeed.control_s()
            t0 = perf()
            try:
                fit = call("calibration.calibrate", calibrate, dataset, seed=plan["seed"],
                           pin_unit_costs=spec["pinned"])
                t_fit = perf() - t0
                sat = call("calibration.count_satisfied", count_satisfied, dataset, fit.coeffs)
                obj = call("calibration.residual_objective", residual_objective, dataset, fit.coeffs)
                out = (fit, sat, obj)
            except Exception as exc:  # recorded as a failed operation
                out = exc
            wall = perf() - t0
            res.add(wall, traced, 1, hostspeed.factor(before, hostspeed.control_s()), key=k)
            if traced:
                tracer.fold()
                tracer.restore()
            if not isinstance(out, Exception):
                fits.append((spec, out[0], t_fit, traced))
            if repeats.is_first(k, out):
                first[k] = out
                tally.check(k, f"fit {spec['label']}", self._check, spec, out)
            else:
                tally.check(k, f"fit {spec['label']}", repeats.check, k, out)
            i += 1
        res.rss_mb = peak_rss_mb()
        res.named = {
            "fits_per_s": res.figures(self.equal_mix)[1] if res.by_key else None,
            "fit_objective": math.fsum(out[0].objective for k, out in first.items()
                                       if plan["fits"][k]["pinned"] and not isinstance(out, Exception)),
        }
        if tracer is not None:
            pinned = [f for f in fits if f[0]["pinned"] and f[3]]
            free = [f for f in fits if not f[0]["pinned"] and f[3]]
            traced_fits = pinned + free
            evaluations = sum(f[1].iterations for f in traced_fits)
            mpers = [f[1].mper for f in pinned if not math.isnan(f[1].mper)]
            res.layers = {
                "calibration.load_dataset_ms": tracer.per_call("calibration.load_dataset", 1e3),
                "calibration.calibrate.pinned_s": statistics.mean(f[2] for f in pinned) if pinned else 0.0,
                "calibration.calibrate.free_s": statistics.mean(f[2] for f in free) if free else 0.0,
                "calibration.fit.evaluations": evaluations / len(traced_fits) if traced_fits else 0.0,
                "calibration.fit.us_per_evaluation":
                    sum(f[2] for f in traced_fits) / evaluations * 1e6 if evaluations else 0.0,
                "calibration.fit.converged_ratio":
                    sum(f[1].converged for f in traced_fits) / len(traced_fits) if traced_fits else 0.0,
                "calibration.fit.mper_pct": statistics.mean(mpers) if mpers else 0.0,
                "calibration.residual_objective_us": tracer.per_call("calibration.residual_objective", 1e6),
                "calibration.mper_us": tracer.per_call("calibration.mper", 1e6),
                "calibration.count_satisfied_us": tracer.per_call("calibration.count_satisfied", 1e6),
            }
        return res

    @staticmethod
    def _check(spec, out) -> None:
        if isinstance(out, Exception):
            raise Broken(f"raised {type(out).__name__}")
        fit, satisfied, objective = out
        obs = [(tuple(n), x) for n, x in spec["obs"]]
        expect(abs(objective - fit.objective) <= 1e-12 + 1e-9 * fit.objective,
               "residual_objective disagrees with the fit's objective")
        checks.check_fit(fit.coeffs.as_dict(), fit.objective, fit.mper, satisfied, fit.converged,
                         spec["truth"], obs, spec["pinned"])


WORKLOADS = {w.name: w for w in (SweepDense(), ScanConfigs(), CalibrateFit())}

"""cli-cold: one ``python -m weavelane`` subprocess at a time, closed loop.

The measured calls cycle through solve, thresholds, plateaus, both sweeps
(with an SVG chart) and calibrate on seeded inputs, each subcommand on its
own input; every tenth call is an edge input from the documented error
contract, whose kind rotates with the seed. Set-up is two rounds of four
calls on the scenario the repository's golden CSVs were made from, compared
with them byte for byte, and one untimed call on each edge input. Every
call's wall time is also scaled to reference-host speed by the controls of
:mod:`hostspeed` timed around it.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import gen
import hostspeed
import reference as ref
from checks import Broken, ScenarioRef

HERE = Path(__file__).resolve().parent
RUNNER = HERE / "cli_runner.py"

CYCLE = ("solve", "thresholds", "plateaus", "sweep_stackelberg", "sweep_svo", "calibrate")
TYPE_COUNTS = (2, 3, 4, 5, 6)
STEP = 0.001
GRID = [i * STEP for i in range(1001)]
EDGE_EVERY = 10
SETUP_ROUNDS = 2
DATASET_SIZE = 150

# The scenario tests/golden was produced from, byte for byte.
THIRDS = """\
flows:
  n0_enter: 0.3333333333333333
  n2_exit: 0.3333333333333333
  n2_s: 0.3333333333333333
population:
  - class: HDV
    theta_radians: 0.0
    weight: 1.0
  - class: CAV
    theta_degrees: 90.0
    weight: 1.0
sweep:
  start: 0.0
  stop: 1.0
  step: 0.1
"""
GOLDEN_CALLS = (
    ("solve_thirds.csv", ["solve", "{s}", "--format", "csv"], False),
    ("plateaus_thirds.csv", ["plateaus", "{s}", "--format", "csv"], False),
    ("sweep_stackelberg_thirds.csv", ["sweep", "{s}", "--mode", "stackelberg", "--out-csv", "{o}"], True),
    ("sweep_svo_thirds.csv", ["sweep", "{s}", "--mode", "svo", "--out-csv", "{o}"], True),
)


def prepare(seed: int, work: Path) -> dict:
    """Write the seeded scenarios, dataset and edge inputs; untimed."""
    r = gen.stream(seed, "cli-cold")
    scenarios = []
    for i, count in enumerate(TYPE_COUNTS):
        c, n = gen.admissible_config(r, 0.02)
        types = gen.distinct_types(r, c, n, count, 1e-3)
        path = work / f"scenario{i}.yaml"
        path.write_text(gen.scenario_yaml(c, n, types, (0.0, 1.0, STEP)), encoding="utf-8")
        scenarios.append({"path": str(path), "c": c, "n": n, "types": types})
    truth = gen.truth_coeffs(r)
    obs = gen.observations(r, truth, DATASET_SIZE, 0.01)
    dataset = work / "observations.csv"
    dataset.write_text(gen.dataset_csv(obs), encoding="utf-8")
    (work / "thirds.yaml").write_text(THIRDS, encoding="utf-8")
    return {
        "seed": seed,
        "scenarios": scenarios,
        "dataset": {"path": str(dataset), "truth": truth, "obs": obs},
        "edges": _edge_inputs(r, work),
    }


def _edge_inputs(r, work: Path) -> list[dict]:
    """One input per kind from the error contract, with its documented exit.

    The overshooting grid is valid input, so its documented outcome is a
    sweep that exits 0.
    """
    c, n = gen.admissible_config(r, 0.02)
    types = gen.distinct_types(r, c, n, 3, 1e-3)
    zero = dict(c, **{f: 0.0 for f in ref.UNIT_FIELDS})
    while True:
        bad_c, bad_n = gen.coeffs(r), gen.flows(r)
        if ref.admissible_margin(bad_c, bad_n) < -0.01:
            break
    raw = ["f0_enter,f2_exit,f2_s,f1_s,f1_b"]
    raw += [",".join(str(r.randint(50, 900)) for _ in range(5)) for _ in range(20)]
    raw.insert(8, "120,nan,300,410,280")
    overshoot = (0.09, 1.0, 0.07)
    docs = {
        "nan-flow": (gen.scenario_yaml(None, n, flow_text=(".nan", gen.yfloat(n[1]), gen.yfloat(n[2]))),
                     ["solve", "{f}", "--format", "csv"], 2),
        "nan-theta": (gen.scenario_yaml(c, n, types, theta_text={1: ".nan"}),
                      ["plateaus", "{f}", "--format", "csv"], 2),
        "nan-dataset-row": ("\n".join(raw) + "\n",
                            ["calibrate", "{f}", "--format", "csv", "--out-scenario", "{o}.yaml"], 2),
        "zero-unit-costs": (gen.scenario_yaml(zero, n, types),
                            ["plateaus", "{f}", "--format", "csv"], 3),
        "grid-overshoot": (gen.scenario_yaml(c, n, types, overshoot),
                           ["sweep", "{f}", "--mode", "stackelberg", "--out-csv", "{o}.csv"], 0),
        "simplex-violation": (gen.scenario_yaml(None, tuple(1.1 * v for v in n)),
                              ["solve", "{f}", "--format", "csv"], 2),
        "not-admissible": (gen.scenario_yaml(bad_c, bad_n), ["thresholds", "{f}", "--format", "csv"], 3),
        "missing-population": (gen.scenario_yaml(c, n, None, (0.0, 1.0, 0.01)),
                               ["sweep", "{f}", "--mode", "svo", "--out-csv", "{o}.csv"], 4),
    }
    edges = []
    for kind, (text, argv, code) in docs.items():
        ext = ".csv" if kind == "nan-dataset-row" else ".yaml"
        path = work / f"edge-{kind}{ext}"
        path.write_text(text, encoding="utf-8")
        edge = {"kind": kind, "file": str(path), "argv": argv, "code": code}
        if kind == "grid-overshoot":
            count = int((overshoot[1] - overshoot[0]) / overshoot[2] + 1e-9) + 1
            edge.update(c=c, n=n, grid=[min(overshoot[0] + i * overshoot[2], 1.0) for i in range(count)])
        edges.append(edge)
    return edges


def _call_spec(plan: dict, i: int, work: Path) -> dict:
    """The i-th measured call: argv, kind and what its check needs."""
    out = str(work / f"call{i}")
    if i % EDGE_EVERY == EDGE_EVERY - 1:
        edges = plan["edges"]
        edge = edges[(plan["seed"] + i // EDGE_EVERY) % len(edges)]
        argv = [a.format(f=edge["file"], o=out) for a in edge["argv"]]
        return {"kind": "edge", "edge": edge, "argv": argv, "out": out}
    j = i - i // EDGE_EVERY
    kind = CYCLE[j % len(CYCLE)]
    # One input per subcommand, so that a run's distinct calls are the six
    # of its first cycle; the scenarios have 2, 3, 4, 5 and 6 vehicle types.
    sc = plan["scenarios"][CYCLE.index(kind) % len(plan["scenarios"])]
    if kind == "calibrate":
        argv = ["calibrate", plan["dataset"]["path"], "--format", "csv",
                "--seed", str(plan["seed"]), "--out-scenario", out + ".yaml"]
    elif kind.startswith("sweep_"):
        argv = ["sweep", sc["path"], "--mode", kind[6:], "--out-csv", out + ".csv", "--out-svg", out + ".svg"]
    else:
        argv = [kind, sc["path"], "--format", "csv"]
    return {"kind": kind, "argv": argv, "out": out, "scenario": sc, "cycle": j // len(CYCLE)}


class Invoker:
    """Runs one CLI call in a child process and times it from outside."""

    def __init__(self, root: Path, env: dict):
        self.root, self.env = root, env

    def __call__(self, argv: list[str], spans_path: str | None = None) -> dict:
        if spans_path is None:
            cmd = [sys.executable, "-m", "weavelane", *argv]
        else:
            cmd = [sys.executable, str(RUNNER), spans_path, *argv]
        before = hostspeed.control_s()
        start = time.perf_counter()
        try:
            cp = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                                cwd=self.root, timeout=120)
            code, stdout, stderr = cp.returncode, cp.stdout, cp.stderr
        except subprocess.TimeoutExpired:
            code, stdout, stderr = -9, "", "timeout"
        wall = time.perf_counter() - start
        factor = hostspeed.factor(before, hostspeed.control_s())
        return {"code": code, "stdout": stdout, "stderr": stderr,
                "wall": wall, "scaled": wall * factor}


def setup(invoke: Invoker, plan: dict, work: Path, golden_dir: Path, tally) -> tuple[list, list]:
    """The golden calls, whose times are the set-up, then one call on each
    edge input, so that every run counts every edge kind once."""
    timed = []
    scenario = str(work / "thirds.yaml")
    for golden, argv, to_file in GOLDEN_CALLS * SETUP_ROUNDS:
        out = str(work / f"golden{len(timed)}-{golden}")
        res = invoke([a.format(s=scenario, o=out) for a in argv])
        timed.append(res)

        def check(res=res, golden=golden, out=out, to_file=to_file):
            checks.check_exit(res["code"], res["stderr"], 0)
            got = Path(out).read_bytes() if to_file else res["stdout"].encode()
            checks.check_golden(got, golden_dir / golden)

        tally.check(("golden", golden), f"golden {golden}", check)
    edges = []
    for k, edge in enumerate(plan["edges"]):
        out = str(work / f"setup-edge{k}")
        call = {"kind": "edge", "edge": edge, "out": out,
                "argv": [a.format(f=edge["file"], o=out) for a in edge["argv"]]}
        call.update(invoke(call["argv"]))
        edges.append(call)
    check_calls(edges, plan, tally)
    return timed, edges


def measure(plan: dict, work: Path, seconds: float, traced: bool, invoke: Invoker, tracer) -> list[dict]:
    """Closed loop of calls until they have taken ``seconds`` of wall time.

    In a traced run, whole cycles alternate between the traced runner and
    the plain CLI so that the tracing overhead can be read off the run.
    """
    calls = []
    i = 0
    while i < len(CYCLE) or sum(c["wall"] for c in calls) < seconds:
        spec = _call_spec(plan, i, work)
        spec["traced"] = traced and spec["kind"] != "edge" and spec["cycle"] % 2 == 0
        spans_path = str(work / f"spans{i}.json") if spec["traced"] else None
        spec.update(invoke(spec["argv"], spans_path))
        if spans_path:
            spec["runner"] = _read_runner(spans_path, tracer)
        calls.append(spec)
        i += 1
    return calls


def _read_runner(path: str, tracer) -> dict | None:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    tracer.merge(data["totals"])
    return data


def check_calls(calls: list[dict], plan: dict, tally) -> None:
    refs: dict = {}

    def sref(sc):
        key = sc["path"]
        if key not in refs:
            s = ScenarioRef(sc["c"], sc["n"], sc["types"])
            refs[key] = (s, ref.grid_argmin_social(s.c, s.n))
        return refs[key]

    ds = plan["dataset"]
    for call in calls:
        kind, out = call["kind"], call["out"]

        def check(call=call, kind=kind, out=out):
            if kind == "edge":
                edge = call["edge"]
                checks.check_exit(call["code"], call["stderr"], edge["code"])
                if edge["code"] == 0:
                    s = ScenarioRef(edge["c"], edge["n"])
                    checks.check_stackelberg_csv(Path(out + ".csv").read_text(), s, edge["grid"])
                return
            checks.check_exit(call["code"], call["stderr"], 0)
            if kind == "calibrate":
                checks.check_calibrate_csv(call["stdout"], ds["truth"], ds["obs"])
                if "coefficients:" not in Path(out + ".yaml").read_text():
                    raise Broken("fitted scenario not written")
                return
            s, grid_min = sref(call["scenario"])
            if kind == "solve":
                checks.check_solve_csv(call["stdout"], s, grid_min)
            elif kind == "thresholds":
                checks.check_thresholds_csv(call["stdout"], s)
            elif kind == "plateaus":
                checks.check_plateaus_csv(call["stdout"], s)
            elif kind == "sweep_stackelberg":
                checks.check_stackelberg_csv(Path(out + ".csv").read_text(), s, GRID)
                checks.check_svg(Path(out + ".svg").read_text(), len(GRID), [s.phi, s.gamma])
            else:
                checks.check_svo_csv(Path(out + ".csv").read_text(), s, GRID, stride=10)
                checks.check_svg(Path(out + ".svg").read_text(), len(GRID))

        what = f"edge {call['edge']['kind']}" if kind == "edge" else kind
        tally.check(what, what, check)


def tail(values: list[float]) -> tuple[str, float] | None:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    ordered = sorted(values)
    best = None
    for q in (50, 90, 99, 99.9):
        if len(ordered) * (1.0 - q / 100.0) >= 10:
            best = (f"p{q:g}", ordered[min(len(ordered) - 1, int(len(ordered) * q / 100.0))])
    return best


def equal_mix(calls: list[dict], field: str = "scaled") -> tuple[float, float]:
    """Median seconds per call and calls per second of a mix in which each
    subcommand of the cycle weighs the same, however far into its last
    cycle the run stopped (untraced calls; edge calls excluded)."""
    times = [[c[field] for c in calls if c["kind"] == kind and not c["traced"]] for kind in CYCLE]
    times = [t for t in times if t]
    median = statistics.mean(statistics.median(t) for t in times)
    return median, len(times) / sum(statistics.mean(t) for t in times)


def named(calls: list[dict]) -> dict:
    """Per-subcommand medians (scaled, and unscaled wall time), tails and
    sample counts (untraced calls)."""
    out = {}
    for kind in CYCLE:
        mine = [c for c in calls if c["kind"] == kind and not c["traced"]]
        out[f"{kind}_s"] = statistics.median(c["scaled"] for c in mine) if mine else None
        out[f"{kind}_s.wall"] = statistics.median(c["wall"] for c in mine) if mine else None
        out[f"{kind}_s.samples"] = len(mine)
    times = [c["scaled"] for c in calls if not c["traced"]]
    t = tail(times)
    out["call_tail"] = {"percentile": t[0], "s": t[1]} if t else "fewer than 20 calls"
    out["call_samples"] = len(times)
    return out


def layers(calls: list[dict], edges: list[dict], tracer) -> dict:
    """Per-layer figures from the traced calls; ``edges`` are the set-up's
    calls on the edge inputs, which count towards the documented share."""
    traced = [c for c in calls if c["traced"] and c.get("runner")]
    plain = [c for c in calls if not c["traced"] and c["kind"] != "edge"]
    fits = [c for c in traced if c["kind"] == "calibrate" and c["code"] == 0]
    rows = [dict(zip(checks.CALIBRATE_HEADER, c["stdout"].splitlines()[1].split(","))) for c in fits]
    evaluations = sum(int(row["iterations"]) for row in rows)
    calib_s = tracer.totals.get("calibration.calibrate", [0, 0.0, 0.0])[1]
    mpers = [float(row["mper"]) for row in rows if row["mper"] != "nan"]
    ratios = []
    for kind in CYCLE:
        t = [c["scaled"] for c in traced if c["kind"] == kind]
        u = [c["scaled"] for c in plain if c["kind"] == kind]
        if t and u:
            ratios.append(statistics.mean(t) / statistics.mean(u))
    documented = sum(1 for c in calls + edges if c["code"] in (2, 3, 4, 5))
    return {
        "import.weavelane_cli_s": statistics.median(c["runner"]["import_s"] for c in traced) if traced else 0.0,
        "interp.start_s": statistics.median(c["wall"] - c["runner"]["inside_s"] for c in traced) if traced else 0.0,
        "scenario.load_scenario_ms": tracer.per_call("scenario.load_scenario", 1e3, self_time=True),
        "calibration.load_dataset_ms": tracer.per_call("calibration.load_dataset", 1e3, self_time=True),
        "scenario.write_scenario_ms": tracer.per_call("scenario.write_scenario", 1e3, self_time=True),
        "cli.self_ms": tracer.per_call("cli.main", 1e3, self_time=True),
        "charts.write_line_chart_ms": tracer.per_call("charts.write_line_chart", 1e3, self_time=True),
        "stackelberg.sweep_penetration.us_per_point":
            tracer.per_call("stackelberg.sweep_penetration", 1e6 / len(GRID)),
        "svo.sweep_heterogeneous.us_per_point": tracer.per_call("svo.sweep_heterogeneous", 1e6 / len(GRID)),
        "wardrop.solve_hdv_us": tracer.per_call("wardrop.solve_hdv", 1e6),
        "social.ue_so_gap_us": tracer.per_call("social.ue_so_gap", 1e6),
        "social.admissible_us": tracer.per_call("social.admissible", 1e6),
        "stackelberg.penetration_thresholds_us": tracer.per_call("stackelberg.penetration_thresholds", 1e6),
        "svo.plateau_intervals_us": tracer.per_call("svo.plateau_intervals", 1e6),
        "errors.documented_share": documented / len(calls + edges),
        "calibration.calibrate.pinned_s": tracer.per_call("calibration.calibrate"),
        "calibration.fit.evaluations": evaluations / len(rows) if rows else 0.0,
        "calibration.fit.us_per_evaluation": calib_s / evaluations * 1e6 if evaluations else 0.0,
        "calibration.fit.converged_ratio": sum(r["converged"] == "true" for r in rows) / len(rows) if rows else 0.0,
        "calibration.fit.mper_pct": statistics.mean(mpers) if mpers else 0.0,
        "calibration.count_satisfied_us": tracer.per_call("calibration.count_satisfied", 1e6),
        "trace.overhead_pct": (statistics.mean(ratios) - 1.0) * 100.0 if ratios else 0.0,
    }

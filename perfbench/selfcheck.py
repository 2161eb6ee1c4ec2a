"""Self-check of the benchmark.

Usage: python3 perfbench/selfcheck.py

1. Every checker accepts a correct output of the program and rejects the
   same output perturbed beyond its tolerance.
2. Each workload runs with a 0.2-s run length (one pass over its inputs),
   traced and untraced, and reports exactly the metrics BENCHMARK.json
   lists, with their units, plus the workload-specific figures of
   ``metrics.NAMED`` in its detail line.

Exits 0 when everything holds and 1 otherwise, naming each failure.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import cli_cold  # noqa: E402
import inproc  # noqa: E402
import metrics  # noqa: E402
import reference  # noqa: E402
from checks import Broken, ScenarioRef, Wrong  # noqa: E402

failures: list[str] = []


def verdict(name: str, checker, good, bad) -> None:
    """``checker(*good)`` must pass and ``checker(*bad)`` must raise."""
    try:
        checker(*good)
    except (Wrong, Broken, ValueError, IndexError, KeyError) as exc:
        failures.append(f"{name}: rejects a correct output ({type(exc).__name__}: {exc})")
    try:
        checker(*bad)
    except (Wrong, Broken, ValueError, IndexError, KeyError):
        return
    failures.append(f"{name}: accepts a perturbed output")


def bump(text: str, line: int, field: int, factor: float = 1.0 + 1e-6) -> str:
    """Scale one numeric CSV cell by ``factor``."""
    lines = text.splitlines(keepends=True)
    cells = lines[line].rstrip("\n").split(",")
    cells[field] = repr(float(cells[field]) * factor + (1e-6 if float(cells[field]) == 0 else 0.0))
    lines[line] = ",".join(cells) + "\n"
    return "".join(lines)


def cli(*argv: str) -> str:
    from weavelane.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    assert code == 0, argv
    return out.getvalue()


def check_cli_checkers(work: Path) -> None:
    plan = cli_cold.prepare(7, work)
    sc = plan["scenarios"][2]
    s = ScenarioRef(sc["c"], sc["n"], sc["types"])
    grid_min = reference.grid_argmin_social(s.c, s.n)
    path = sc["path"]

    verdict("check_exit", checks.check_exit, (2, "error: ScenarioError: x\n", 2),
            (1, "Traceback (most recent call last):\n", 2))
    golden = ROOT / "tests" / "golden" / "solve_thirds.csv"
    verdict("check_golden", checks.check_golden, (golden.read_bytes(), golden),
            (golden.read_bytes().replace(b"0.594", b"0.595"), golden))

    out = cli("solve", path, "--format", "csv")
    verdict("check_solve_csv", checks.check_solve_csv, (out, s, grid_min), (bump(out, 1, 0), s, grid_min))
    out = cli("thresholds", path, "--format", "csv")
    verdict("check_thresholds_csv", checks.check_thresholds_csv, (out, s), (bump(out, 1, 1), s))
    out = cli("plateaus", path, "--format", "csv")
    verdict("check_plateaus_csv", checks.check_plateaus_csv, (out, s), (bump(out, 1, 1), s))
    verdict("check_plateaus_csv (interval)", checks.check_plateaus_csv, (out, s), (bump(out, 1, 3, 0.9), s))

    csv_path, svg_path = work / "st.csv", work / "st.svg"
    cli("sweep", path, "--mode", "stackelberg", "--out-csv", str(csv_path), "--out-svg", str(svg_path))
    text, svg = csv_path.read_text(), svg_path.read_text()
    grid = cli_cold.GRID
    verdict("check_stackelberg_csv", checks.check_stackelberg_csv, (text, s, grid), (bump(text, 700, 3), s, grid))
    verdict("check_svg", checks.check_svg, (svg, len(grid), [s.phi, s.gamma]),
            (svg, len(grid), [s.phi, s.gamma + 1e-6]))
    cli("sweep", path, "--mode", "svo", "--out-csv", str(csv_path))
    text = csv_path.read_text()
    verdict("check_svo_csv", checks.check_svo_csv, (text, s, grid, 10), (bump(text, 501, 1), s, grid, 10))

    ds = plan["dataset"]
    out = cli("calibrate", ds["path"], "--format", "csv", "--seed", "1",
              "--out-scenario", str(work / "fit.yaml"))
    verdict("check_calibrate_csv", checks.check_calibrate_csv, (out, ds["truth"], ds["obs"]),
            (bump(out, 1, 4), ds["truth"], ds["obs"]))
    degenerate = "\n".join([out.splitlines()[0], ",".join(["0"] * 4 + out.splitlines()[1].split(",")[4:])])
    verdict("check_calibrate_csv (degenerate)", checks.check_calibrate_csv, (out, ds["truth"], ds["obs"]),
            (degenerate, ds["truth"], ds["obs"]))


def check_inproc_checkers(work: Path) -> None:
    from weavelane.calibration import calibrate, count_satisfied, residual_objective
    from weavelane.errors import WeavelaneError

    sweep = inproc.WORKLOADS["sweep-dense"]
    plan = sweep.prepare(7, work, 1.0)
    state = sweep.load(plan)
    cfg = state["inputs"][0]
    grid = state["grid"][::10]
    from weavelane.stackelberg import sweep_penetration
    from weavelane.svo import sweep_heterogeneous

    spec = plan["configs"][0]
    recs = sweep_penetration(cfg.config, grid)
    bad = list(recs)
    bad[400] = dataclasses.replace(bad[400], j_soc=bad[400].j_soc * (1 + 1e-6))
    verdict("sweep-dense stackelberg", sweep._check, ("stackelberg", recs, spec, cfg, grid),
            ("stackelberg", bad, spec, cfg, grid))
    recs = sweep_heterogeneous(cfg.config, cfg.population, grid)
    bad = list(recs)
    k = next(i for i, r in enumerate(recs) if r.active_type != "none")
    bad[k] = dataclasses.replace(bad[k], active_type="none", regime_label="Shift")
    verdict("sweep-dense svo labels", sweep._check, ("svo", recs, spec, cfg, grid), ("svo", bad, spec, cfg, grid))
    repeats = inproc.Repeats()
    repeats.is_first("svo", recs)
    verdict("repeat of an operation", repeats.check, ("svo", list(recs)), ("svo", bad))

    scan = inproc.WORKLOADS["scan-configs"]
    scan_plan = scan.prepare(7, work, 1.0)
    built = scan.load(scan_plan)
    d, rcfg, pop = next(b for b in built if b[0]["kind"] == "admissible")
    s = ScenarioRef(d["c"], d["n"], d["types"])
    calls = {name: (fn, args) for name, fn, args in scan.calls(scan.functions(), rcfg, pop, d)}
    for name, (fn, args) in calls.items():
        try:
            out = fn(*args)
        except WeavelaneError:
            continue
        perturbed = _perturb(out)
        context = {"intervals": None}
        if name == "svo.plateau_free":
            context["intervals"] = calls["svo.plateau_intervals"][0](*calls["svo.plateau_intervals"][1])
        verdict(f"scan-configs {name}", scan._check_call,
                (name, args, out, s, True, dict(context), WeavelaneError),
                (name, args, perturbed, s, True, dict(context), WeavelaneError))
    zero = ZeroDivisionError("float division by zero")
    verdict("scan-configs undocumented exception", scan._check_call,
            ("wardrop.solve_hdv", (rcfg,), calls["wardrop.solve_hdv"][0](rcfg), s, True, {}, WeavelaneError),
            ("wardrop.solve_hdv", (rcfg,), zero, s, True, {}, WeavelaneError))

    fit_wl = inproc.WORKLOADS["calibrate-fit"]
    fit_plan = fit_wl.prepare(7, work, 1.0)
    datasets = fit_wl.load(fit_plan)
    fspec, ds = fit_plan["fits"][1], datasets[1]
    fit = calibrate(ds, seed=1)
    good = (fit, count_satisfied(ds, fit.coeffs), residual_objective(ds, fit.coeffs))
    worse = dataclasses.replace(fit, coeffs=dataclasses.replace(fit.coeffs, alpha=fit.coeffs.alpha * 1.5))
    verdict("calibrate-fit objective", fit_wl._check, (fspec, good),
            (fspec, (dataclasses.replace(fit, objective=fit.objective * 1.01), good[1], good[2])))
    verdict("calibrate-fit worse than truth", fit_wl._check, (fspec, good),
            (fspec, (dataclasses.replace(worse, objective=residual_objective(ds, worse.coeffs)),
                     count_satisfied(ds, worse.coeffs), residual_objective(ds, worse.coeffs))))


def _perturb(out):
    """The same result with one reported value moved past the tolerances."""
    if isinstance(out, bool):
        return not out
    if isinstance(out, tuple) and isinstance(out[0], bool):  # plateau_free
        return (not out[0], out[1])
    if isinstance(out, tuple):
        return (out[0] * (1 + 1e-6), *out[1:])
    if isinstance(out, list):  # plateau intervals
        return out[1:] if out else out
    field = next(f for f in ("x1s_star", "x1s_total", "p1") if hasattr(out, f))
    return dataclasses.replace(out, **{field: getattr(out, field) + 1e-4})


def check_metric_names() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    lists = {
        "end_to_end": {n: (u, b) for n, (u, b, _) in metrics.END_TO_END.items()},
        "per_layer": {n: metrics.LAYERS[n][:2] for n in metrics.PER_LAYER},
    }
    for key, want in lists.items():
        if {m["name"]: (m["unit"], m["better"]) for m in bench[key]} != want:
            failures.append(f"BENCHMARK.json {key} differs from metrics.py")
    layers_seen = set()
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cp = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
                 "--seconds", "0.2", "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=300,
            )
            where = f"{workload} --trace {trace}"
            if cp.returncode != 0:
                failures.append(f"{where}: exit {cp.returncode}\n{cp.stderr[-2000:]}")
                continue
            lines = cp.stdout.splitlines()
            result = json.loads(lines[-1])
            detail = json.loads(lines[-2][len("detail: "):])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: result keys {sorted(result)}")
            want = {m["name"]: m["unit"] for m in bench[key]}
            if {n: m["unit"] for n, m in result["metrics"].items()} != want:
                failures.append(f"{where}: metric names or units differ from BENCHMARK.json")
            if not result["correct"]:
                failures.append(f"{where}: outputs reported incorrect")
            if trace == 0:
                named = {**metrics.COMMON_NAMED, **metrics.NAMED[workload]}
                shown = {n: v["unit"] for n, v in detail["named"].items() if n in named}
                if shown != named:
                    failures.append(f"{where}: workload figures lack {sorted(set(named) - set(shown))}")
            else:
                for n, v in detail["layers"].items():
                    if v["unit"] != metrics.LAYERS[n][0]:
                        failures.append(f"{where}: {n} reported in {v['unit']}")
                    layers_seen.add(n)
            print(f"  ran {where}: {result['attempted']} operations, {result['failed']} failed")
    if set(metrics.LAYERS) - layers_seen:
        failures.append(f"layer figures no workload reports: {sorted(set(metrics.LAYERS) - layers_seen)}")


def main() -> int:
    work = ROOT / ".perfbench_work" / f"selfcheck-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        print("checkers accept correct outputs and reject perturbed ones")
        check_cli_checkers(work)
        check_inproc_checkers(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("every workload reports every listed metric with its unit")
    check_metric_names()
    for failure in failures:
        print("FAIL", failure)
    print("selfcheck: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

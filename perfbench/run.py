"""weavelane benchmark.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Inputs are generated from the seed, measured for about S seconds
in a closed loop with one client, and every output is checked against the
reference in ``reference.py``. Times are scaled to reference-host speed by
the controls of ``hostspeed.py`` timed around each operation; the raw wall
times are printed beside them. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, which holds
the end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``. The line before it is a JSON detail record (environment,
workload-specific figures, raw wall times, failures by reason, or the span
table).
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import cli_cold  # noqa: E402
import hostspeed  # noqa: E402
import inproc  # noqa: E402
import metrics  # noqa: E402
from checks import Tally  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("cli-cold", *inproc.WORKLOADS)
#: Processors this process may use before the run pins itself to one.
NPROC = len(os.sched_getaffinity(0))
#: Set-up probes per in-process run; with the run's own set-up, the median of seven.
SETUP_PROBES = 6

perf = time.perf_counter


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("SEED", None)  # calibrate would read it; every call passes --seed
    return env


def environment(args, host_ms: float) -> dict:
    versions = {}
    for dist in ("numpy", "scipy", "PyYAML"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": NPROC,
        "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
        "host_control_ms": host_ms,
        "commit": commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        name = head[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def probe_setup(workload: str, work: Path) -> int:
    """Child side of a set-up probe: import, load, report the times."""
    plan = json.loads((work / "plan.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    t0 = perf()
    import weavelane  # noqa: F401

    t1 = perf()
    inproc.WORKLOADS[workload].load(plan)
    t2 = perf()
    import weavelane.cli  # noqa: F401

    t3 = perf()
    print(json.dumps({"setup_s": t2 - t0, "import_cli_s": (t1 - t0) + (t3 - t2), "inside_s": perf() - T0}))
    return 0


def run_probes(workload: str, work: Path) -> list[dict]:
    out = []
    for _ in range(SETUP_PROBES):
        before = hostspeed.control_s()
        start = perf()
        cp = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--probe-setup", str(work), "--workload", workload],
            capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=120,
        )
        wall = perf() - start
        factor = hostspeed.factor(before, hostspeed.control_s())
        if cp.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{cp.stderr}")
        data = json.loads(cp.stdout.splitlines()[-1])
        data["wall_s"] = wall
        data["factor"] = factor
        out.append(data)
    return out


def wall_figures(op_s: float, per_s: float, setups: list[float], factors: list[float]) -> dict:
    """The unscaled counterparts of the time metrics, and the host-speed
    factors that scaled them."""
    q = statistics.quantiles(factors, n=4) if len(factors) > 1 else factors * 3
    return {
        "op_median_ms": op_s * 1e3,
        "work_per_s": per_s,
        "setup_s": statistics.median(setups),
        "host_factor_quartiles": q,
    }


def run_cli_cold(args, work: Path, tally: Tally, tracer: Tracer | None) -> tuple[dict, dict]:
    plan = cli_cold.prepare(args.seed, work)
    invoke = cli_cold.Invoker(ROOT, child_env())
    setup_calls, edge_calls = cli_cold.setup(invoke, plan, work, GOLDEN, tally)
    calls = cli_cold.measure(plan, work, args.seconds, bool(args.trace), invoke, tracer or Tracer())
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    cli_cold.check_calls(calls, plan, tally)
    if args.trace:
        return cli_cold.layers(calls, edge_calls, tracer), {}
    op_s, per_s = cli_cold.equal_mix(calls)
    e2e = {
        "setup_s": statistics.median(c["scaled"] for c in setup_calls),
        "op_median_ms": op_s * 1e3,
        "work_per_s": per_s,
        "peak_rss_mb": rss_mb,
    }
    named = cli_cold.named(calls)
    named["setup_samples_s"] = [c["scaled"] for c in setup_calls]
    named["wall"] = wall_figures(*cli_cold.equal_mix(calls, "wall"), [c["wall"] for c in setup_calls],
                                 [c["scaled"] / c["wall"] for c in calls])
    return e2e, named


def run_inproc(args, work: Path, tally: Tally, tracer: Tracer | None) -> tuple[dict, dict]:
    wl = inproc.WORKLOADS[args.workload]
    plan = wl.prepare(args.seed, work, args.seconds)
    public = {k: v for k, v in plan.items() if not k.startswith("_")}
    (work / "plan.json").write_text(json.dumps(public), encoding="utf-8")
    probes = run_probes(args.workload, work)
    sys.path.insert(0, str(SRC))
    before = hostspeed.control_s()
    t0 = perf()
    import weavelane  # noqa: F401

    state = wl.load(plan, tracer.call if tracer else inproc.direct)
    own_setup = perf() - t0
    own_factor = hostspeed.factor(before, hostspeed.control_s())
    if tracer:
        tracer.fold()
    res = wl.run(plan, state, args.seconds, tracer, tally)
    if args.trace:
        layers = dict(res.layers)
        layers["import.weavelane_cli_s"] = statistics.median(p["import_cli_s"] for p in probes)
        layers["interp.start_s"] = statistics.median(p["wall_s"] - p["inside_s"] for p in probes)
        layers["trace.overhead_pct"] = inproc.overhead_pct(res.traced, res.plain)
        return layers, {}
    setups = [p["setup_s"] for p in probes] + [own_setup]
    factors = [p["factor"] for p in probes] + [own_factor]
    op_s, per_s = res.figures(wl.equal_mix)
    e2e = {
        "setup_s": statistics.median(t * f for t, f in zip(setups, factors)),
        "op_median_ms": op_s * 1e3,
        "work_per_s": per_s,
        "peak_rss_mb": res.rss_mb,
    }
    named = dict(res.named)
    named["setup_samples_s"] = [t * f for t, f in zip(setups, factors)]
    named["operations"] = len(res.plain)
    named["wall"] = wall_figures(*res.figures(wl.equal_mix, scaled=False), setups, res.factors)
    return e2e, named


def report(args, tally: Tally, values: dict, named: dict, tracer: Tracer | None, host_ms: float) -> None:
    if args.trace:
        out = {n: {"value": float(values[n]), "unit": metrics.LAYERS[n][0]} for n in metrics.PER_LAYER}
        shown = {n: (values[n], spec[0]) for n, spec in metrics.LAYERS.items() if n in values}
    else:
        out = {n: {"value": float(values[n]), "unit": spec[0]} for n, spec in metrics.END_TO_END.items()}
        shown = {n: (m["value"], m["unit"]) for n, m in out.items()}
    print(f"weavelane perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for name, (value, unit) in shown.items():
        print(f"  {name:<46} {value:>16.6g} {unit}")
    failed_share = tally.failed_count / tally.attempted if tally.attempted else 0.0
    print(f"  operations: {tally.attempted} attempted, {tally.failed_count} failed "
          f"(failed_share {failed_share:.4g}), outputs {'correct' if not tally.wrong else 'WRONG'}")
    for reason, count in sorted(tally.failed.items()):
        print(f"    failed x{count}: {reason}")
    detail = {"environment": environment(args, host_ms), "failed_share": failed_share,
              "failures": dict(tally.failed), "wrong": tally.wrong[:5]}
    if args.trace:
        detail["layers"] = {
            n: {"value": v, "unit": u, "moves": metrics.LAYERS[n][2], "workloads": metrics.LAYERS[n][3]}
            for n, (v, u) in shown.items()
        }
        detail["not_exercised"] = [n for n in metrics.LAYERS if n not in values]
        detail["spans"] = tracer.table()
    else:
        units = {**metrics.COMMON_NAMED, **metrics.NAMED[args.workload]}
        figures = {**named, "setup_s": values["setup_s"], "failed_share": failed_share,
                   "peak_rss_mb": values["peak_rss_mb"]}
        detail["named"] = {k: {"value": v, "unit": units.get(k)} for k, v in figures.items()}
        for k in units:
            print(f"  [{args.workload}] {k:<38} {figures.get(k)!s:>22} {units[k]}")
        wall = named["wall"]
        print(f"  unscaled wall time: op_median_ms {wall['op_median_ms']:.6g}, work_per_s "
              f"{wall['work_per_s']:.6g}, setup_s {wall['setup_s']:.6g}; host-speed factor quartiles "
              + ", ".join(f"{q:.3f}" for q in wall["host_factor_quartiles"]))
    print("detail: " + json.dumps(detail, default=str))
    print(json.dumps({"correct": not tally.wrong, "attempted": tally.attempted,
                      "failed": tally.failed_count, "metrics": out}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="weavelane benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "weavelane" / "__init__.py").is_file():
        print(f"error: no weavelane sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.probe_setup:
        return probe_setup(args.workload, Path(args.probe_setup))
    if args.workload == "cli-cold" and not GOLDEN.is_dir():
        print(f"error: golden outputs missing at {GOLDEN}", file=sys.stderr)
        return 2
    # One processor for the run and every process it starts, so that the
    # host-speed controls time the processor the measured work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    host_ms = hostspeed.control_s() * 1e3
    tally = Tally()
    tracer = Tracer() if args.trace else None
    try:
        runner = run_cli_cold if args.workload == "cli-cold" else run_inproc
        values, named = runner(args, work, tally, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    report(args, tally, values, named, tracer, host_ms)
    return 0


if __name__ == "__main__":
    sys.exit(main())

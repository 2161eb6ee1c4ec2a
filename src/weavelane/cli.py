"""Command-line front end.

Subcommands: ``solve`` (baseline equilibrium and optimum), ``thresholds``
(penetration thresholds), ``plateaus`` (per-type plateau intervals and
range queries), ``sweep`` (penetration sweeps to CSV/SVG), and ``calibrate``
(coefficient fitting from observation files).

Human reports print 6 significant digits; CSV output carries 17 significant
digits so fixtures are reproducible. Exit codes: 0 ok, 2 input error
(non-finite numbers included), 3 solver/domain error (degenerate costs
included), 4 missing scenario section, 5 calibration did not converge
within budget.

Only ``calibrate`` loads numpy; the other subcommands do not, so their
cold start is the interpreter, PyYAML and this package.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .charts import write_line_chart
from .errors import (
    AngleOutOfRange,
    BoundsInfeasible,
    DatasetFormatError,
    DegenerateCosts,
    DistinctnessViolated,
    DomainError,
    EmptyDataset,
    MissingSection,
    NegativeFlow,
    NotAdmissible,
    ScenarioError,
    SimplexViolation,
    ToleranceNotMet,
    WeavelaneError,
    ZeroDenominator,
)
from .model import RampConfig
from .scenario import Scenario, SweepGrid, load_scenario, write_scenario
from .social import admissible, gamma, ue_so_gap
from .stackelberg import penetration_thresholds, sweep_penetration
from .svo import plateau_free, plateau_intervals, sweep_heterogeneous
from .wardrop import phi, solve_hdv

if TYPE_CHECKING:
    from .calibration import CalibrationResult

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_MISSING_SECTION = 4
EXIT_NO_CONVERGENCE = 5

_INPUT_ERRORS = (
    ScenarioError,
    DatasetFormatError,
    NegativeFlow,
    SimplexViolation,
    DomainError,
    ZeroDenominator,
    EmptyDataset,
    BoundsInfeasible,
    AngleOutOfRange,
)
_SOLVER_ERRORS = (NotAdmissible, DegenerateCosts, DistinctnessViolated, ToleranceNotMet)


def _full(value: float) -> str:
    return format(value, ".17g")


def _human(value: float) -> str:
    return format(value, ".6g")


def _write_lines(path: Path, lines: list[str]) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def _parse_range(text: str) -> tuple[float, float]:
    lo_text, sep, hi_text = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError("range must look like lo:hi")
    try:
        return float(lo_text), float(hi_text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"range bounds must be numbers, got {text!r}")


def _cmd_solve(args: argparse.Namespace) -> int:
    sc = load_scenario(args.scenario)
    cfg = sc.config
    eq = solve_hdv(cfg)
    phi_v = phi(cfg)
    gamma_v = gamma(cfg)
    j_ue, j_so, gap = ue_so_gap(cfg)
    adm = admissible(cfg)
    if args.format == "csv":
        print("phi,gamma,case_label,j_ue,j_so,gap,admissible")
        print(
            ",".join(
                [
                    _full(phi_v),
                    _full(gamma_v),
                    str(eq.case_label),
                    _full(j_ue),
                    _full(j_so),
                    _full(gap),
                    "true" if adm else "false",
                ]
            )
        )
    else:
        print(f"phi:        {_human(phi_v)}")
        print(f"gamma:      {_human(gamma_v)}")
        print(f"case:       {eq.case_label}")
        print(f"j_ue:       {_human(j_ue)}")
        print(f"j_so:       {_human(j_so)}")
        print(f"gap:        {_human(gap)}")
        print(f"admissible: {'true' if adm else 'false'}")
    return EXIT_OK


def _cmd_thresholds(args: argparse.Namespace) -> int:
    sc = load_scenario(args.scenario)
    th = penetration_thresholds(sc.config)
    if args.format == "csv":
        print("p1,p2")
        print(f"{_full(th.p1)},{_full(th.p2)}")
    else:
        print(f"p1 (efficiency): {_human(th.p1)}")
        print(f"p2 (saturation): {_human(th.p2)}")
    return EXIT_OK


def _cmd_plateaus(args: argparse.Namespace) -> int:
    sc = load_scenario(args.scenario)
    if sc.population is None:
        raise MissingSection("plateaus requires a population section")
    intervals = plateau_intervals(sc.config, sc.population)
    if args.format == "csv":
        print("k,chi_k,p_lo,p_hi,lo_boundary,hi_boundary")
        for iv in intervals:
            print(
                ",".join(
                    [
                        iv.label,
                        _full(iv.chi_k),
                        _full(iv.p_lo),
                        _full(iv.p_hi),
                        "closed" if iv.lo_closed else "open",
                        "closed" if iv.hi_closed else "open",
                    ]
                )
            )
    else:
        print(f"{'k':<8} {'chi_k':<12} interval")
        for iv in intervals:
            print(f"{iv.label:<8} {_human(iv.chi_k):<12} {iv.notation()}")
    if args.range is not None:
        lo, hi = args.range
        free, blocking = plateau_free(sc.config, sc.population, lo, hi)
        if free:
            verdict = f"range [{_human(lo)}, {_human(hi)}]: free"
        else:
            blockers = ", ".join(f"k={iv.label}" for iv in blocking)
            verdict = f"range [{_human(lo)}, {_human(hi)}]: blocked by {blockers}"
        # Keep CSV on stdout machine-readable; the verdict goes to stderr there.
        print(verdict, file=sys.stderr if args.format == "csv" else sys.stdout)
    return EXIT_OK


def _sweep_grid(sc: Scenario) -> SweepGrid:
    if sc.sweep is None:
        raise MissingSection("sweep requires a sweep section (start/stop/step)")
    return sc.sweep


def _sweep_markers(sc: Scenario, mode: str) -> list[tuple[float, str]]:
    """Chart markers: Phi, and Gamma if below 1, or the plateau endpoints."""
    if mode == "stackelberg":
        gamma_v = gamma(sc.config)
        return [(phi(sc.config), "p1")] + ([(gamma_v, "p2")] if gamma_v < 1.0 else [])
    intervals = plateau_intervals(sc.config, sc.population)
    return [(p, iv.label) for iv in intervals for p in (iv.p_lo, iv.p_hi)]


def _cmd_sweep(args: argparse.Namespace) -> int:
    sc = load_scenario(args.scenario)
    grid = _sweep_grid(sc).points()
    out_csv = Path(args.out_csv)
    if args.mode == "stackelberg":
        records = sweep_penetration(sc.config, grid)
        lines = ["p,x1s_total,q_s_or_active_type,j_soc,j_cav,regime_label"]
        lines += [
            ",".join(
                [
                    _full(r.p),
                    _full(r.x1s_total),
                    _full(r.q_s),
                    _full(r.j_soc),
                    _full(r.j_cav),
                    r.regime_label,
                ]
            )
            for r in records
        ]
    else:
        if sc.population is None:
            raise MissingSection("svo sweep requires a population section")
        records = sweep_heterogeneous(sc.config, sc.population, grid)
        lines = ["p,x1s_total,q_s_or_active_type,j_soc,regime_label"]
        lines += [
            ",".join(
                [
                    _full(r.p),
                    _full(r.x1s_total),
                    r.active_type,
                    _full(r.j_soc),
                    r.regime_label,
                ]
            )
            for r in records
        ]
    markers = _sweep_markers(sc, args.mode) if args.out_svg is not None else []
    _write_lines(out_csv, lines)
    print(f"wrote {len(records)} records to {out_csv}")
    if args.out_svg is not None:
        write_line_chart(
            args.out_svg,
            [r.p for r in records],
            [r.j_soc for r in records],
            title=f"social delay vs penetration ({args.mode})",
            x_label="penetration rate p",
            y_label="j_soc",
            markers=markers,
        )
        print(f"wrote chart to {args.out_svg}")
    return EXIT_OK


def _calibration_report(args, result: CalibrationResult, satisfied: int, total: int) -> None:
    fields = result.coeffs.as_dict()
    if args.format == "csv":
        header = list(fields) + ["objective", "mper", "satisfied", "iterations", "converged"]
        row = [_full(v) for v in fields.values()]
        row += [
            _full(result.objective),
            "nan" if math.isnan(result.mper) else _full(result.mper),
            str(satisfied),
            str(result.iterations),
            "true" if result.converged else "false",
        ]
        print(",".join(header))
        print(",".join(row))
        return
    for name, value in fields.items():
        print(f"{name:<7} {_human(value)}")
    print(f"objective:   {_human(result.objective)}")
    if math.isnan(result.mper):
        print("mper:        n/a")
    else:
        print(f"mper:        {_human(result.mper)}%")
    print(f"satisfied:   {satisfied}/{total}")
    print(f"iterations:  {result.iterations}")
    print(f"converged:   {'true' if result.converged else 'false'}")


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from .calibration import calibrate, count_satisfied, load_dataset

    dataset = load_dataset(args.dataset)
    result = calibrate(dataset, budget=args.budget, pin_unit_costs=not args.free_unit_costs)
    if math.isnan(result.mper) and args.mper:
        # The order of mper's own checks: observed shares, then fitted slopes.
        if any(o.x1s_observed == 0.0 for o in dataset):
            cause = "ZeroObservedShare, an observation has x1s = 0"
        else:
            cause = "DegenerateCosts, the fitted Lane-1 cost slopes vanish"
        print(f"warning: {cause}; MPER omitted", file=sys.stderr)
    satisfied = count_satisfied(dataset, result.coeffs)
    _calibration_report(args, result, satisfied, len(dataset))
    out_scenario = args.out_scenario
    if out_scenario is None:
        out_scenario = Path(args.dataset).with_suffix(".fitted.yaml")
    # The emitted scenario needs one flow mix; the first observation's is used.
    write_scenario(out_scenario, Scenario(RampConfig(dataset[0].flows, result.coeffs)))
    print(f"wrote fitted scenario to {out_scenario}")
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weavelane",
        description="Lane-choice equilibria and CAV control at weaving ramps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="baseline equilibrium, optimum, and gap")
    solve.add_argument("scenario", help="scenario YAML file")
    solve.add_argument("--format", choices=("human", "csv"), default="human")
    solve.set_defaults(func=_cmd_solve)

    thresholds = sub.add_parser("thresholds", help="penetration thresholds p1/p2")
    thresholds.add_argument("scenario")
    thresholds.add_argument("--format", choices=("human", "csv"), default="human")
    thresholds.set_defaults(func=_cmd_thresholds)

    plateaus = sub.add_parser("plateaus", help="per-type plateau intervals")
    plateaus.add_argument("scenario")
    plateaus.add_argument("--format", choices=("human", "csv"), default="human")
    plateaus.add_argument(
        "--range",
        type=_parse_range,
        default=None,
        metavar="LO:HI",
        help="also report whether [LO, HI] avoids every plateau",
    )
    plateaus.set_defaults(func=_cmd_plateaus)

    sweep = sub.add_parser("sweep", help="penetration sweep to CSV (and SVG)")
    sweep.add_argument("scenario")
    sweep.add_argument("--mode", choices=("stackelberg", "svo"), required=True)
    sweep.add_argument("--out-csv", required=True)
    sweep.add_argument("--out-svg", default=None)
    sweep.set_defaults(func=_cmd_sweep)

    calibrate_cmd = sub.add_parser("calibrate", help="fit coefficients to a dataset")
    calibrate_cmd.add_argument("dataset", help="observation CSV (raw or normalized)")
    calibrate_cmd.add_argument("--out-scenario", default=None)
    calibrate_cmd.add_argument(
        "--budget",
        type=int,
        default=24000,
        help="most objective evaluations the fit may spend (exit 5 if it stops short)",
    )
    calibrate_cmd.add_argument(
        "--seed",
        type=int,
        default=None,
        help="accepted for compatibility and ignored: the fit is exact and "
        "draws no random numbers",
    )
    calibrate_cmd.add_argument(
        "--free-unit-costs",
        action="store_true",
        help="also fit the four unit costs instead of pinning them",
    )
    calibrate_cmd.add_argument("--mper", action="store_true", default=True)
    calibrate_cmd.add_argument("--no-mper", dest="mper", action="store_false")
    calibrate_cmd.add_argument("--format", choices=("human", "csv"), default="human")
    calibrate_cmd.set_defaults(func=_cmd_calibrate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MissingSection as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MISSING_SECTION
    except _INPUT_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _SOLVER_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except WeavelaneError as exc:  # safety net for future error kinds
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())

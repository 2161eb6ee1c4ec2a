"""Names, units and meaning of every metric the benchmark reports.

``END_TO_END`` and ``PER_LAYER`` are what BENCHMARK.json lists; every run
reports all of one list, on every workload, so both hold only figures that
every workload measures. ``NAMED`` holds the workload-specific figures an
untraced run prints in its detail line, and ``LAYERS`` those a traced run
prints there for the layers its workload exercises. Every time in
``END_TO_END`` and ``NAMED`` is scaled to reference-host speed
(``hostspeed.py``); an untraced run prints the unscaled wall times beside
them. Layer figures are unscaled.
"""

from __future__ import annotations

# name -> (unit, better, what it is on each workload)
END_TO_END = {
    "setup_s": ("s", "lower",
                "median of the set-ups in a run: cli-cold, a CLI call on the golden "
                "scenario; elsewhere, importing weavelane and loading the generated inputs"),
    "op_median_ms": ("ms", "lower",
                     "median time of one operation: a CLI call (cli-cold), one "
                     "configuration swept in both modes (sweep-dense), one configuration "
                     "analysed (scan-configs), one fit and its scores (calibrate-fit)"),
    "work_per_s": ("1/s", "higher",
                   "CLI calls, grid points, configurations or fits completed per second "
                   "of measured time"),
    "peak_rss_mb": ("MB", "lower",
                    "peak resident memory: the largest CLI child (cli-cold) or the "
                    "benchmark process at the end of the measured loop"),
}

# Workload-specific figures of the untraced run, by workload.
NAMED = {
    "cli-cold": {
        "solve_s": "s", "thresholds_s": "s", "plateaus_s": "s",
        "sweep_stackelberg_s": "s", "sweep_svo_s": "s", "calibrate_s": "s",
    },
    "sweep-dense": {"stackelberg_points_per_s": "1/s", "svo_points_per_s": "1/s"},
    "scan-configs": {"configs_per_s": "1/s"},
    "calibrate-fit": {"fits_per_s": "1/s", "fit_objective": "1"},
}
COMMON_NAMED = {"setup_s": "s", "failed_share": "1", "peak_rss_mb": "MB"}

# name -> (unit, better, end-to-end figure it should move, workloads that exercise it)
LAYERS = {
    "import.weavelane_cli_s": ("s", "lower", "every cli-cold *_s; setup_s elsewhere", "all"),
    "interp.start_s": ("s", "lower", "control: no program change should move it", "all"),
    "scenario.load_scenario_ms": ("ms", "lower", "cli-cold *_s except calibrate_s; setup_s", "cli-cold, sweep-dense"),
    "calibration.load_dataset_ms": ("ms", "lower", "calibrate_s; setup_s", "cli-cold, calibrate-fit"),
    "scenario.write_scenario_ms": ("ms", "lower", "calibrate_s", "cli-cold"),
    "cli.self_ms": ("ms", "lower", "every cli-cold *_s", "cli-cold"),
    "charts.write_line_chart_ms": ("ms", "lower", "sweep_*_s", "cli-cold"),
    "stackelberg.sweep_penetration.us_per_point": ("us", "lower", "stackelberg_points_per_s; sweep_stackelberg_s", "sweep-dense, cli-cold"),
    "svo.sweep_heterogeneous.us_per_point": ("us", "lower", "svo_points_per_s; sweep_svo_s", "sweep-dense, cli-cold"),
    "model.affine_reduce.calls_per_point": ("count", "lower", "*_points_per_s", "sweep-dense"),
    "svo.type_thresholds.calls_per_point": ("count", "lower", "*_points_per_s", "sweep-dense"),
    "model.affine_reduce.calls_per_config": ("count", "lower", "configs_per_s", "scan-configs"),
    "wardrop.solve_hdv_us": ("us", "lower", "configs_per_s", "scan-configs, cli-cold"),
    "social.ue_so_gap_us": ("us", "lower", "configs_per_s", "scan-configs, cli-cold"),
    "social.admissible_us": ("us", "lower", "configs_per_s", "scan-configs, cli-cold"),
    "stackelberg.penetration_thresholds_us": ("us", "lower", "configs_per_s", "scan-configs, cli-cold"),
    "stackelberg.solve_closed_us": ("us", "lower", "configs_per_s", "scan-configs"),
    "stackelberg.solve_numeric_us": ("us", "lower", "configs_per_s", "scan-configs"),
    "svo.solve_heterogeneous_us": ("us", "lower", "configs_per_s", "scan-configs"),
    "svo.plateau_intervals_us": ("us", "lower", "configs_per_s", "scan-configs, cli-cold"),
    "svo.plateau_free_us": ("us", "lower", "configs_per_s", "scan-configs"),
    "stackelberg.solve_numeric.certified_ratio": ("1", "higher", "failed_share", "scan-configs"),
    "errors.documented_share": ("1", "higher", "failed_share", "scan-configs, cli-cold"),
    "calibration.calibrate.pinned_s": ("s", "lower", "fits_per_s; calibrate_s", "calibrate-fit, cli-cold"),
    "calibration.calibrate.free_s": ("s", "lower", "fits_per_s", "calibrate-fit"),
    "calibration.fit.evaluations": ("count", "lower", "fits_per_s; calibrate_s", "calibrate-fit, cli-cold"),
    "calibration.fit.us_per_evaluation": ("us", "lower", "fits_per_s; calibrate_s", "calibrate-fit, cli-cold"),
    "calibration.fit.converged_ratio": ("1", "higher", "failed_share", "calibrate-fit, cli-cold"),
    "calibration.fit.mper_pct": ("%", "lower", "reported only", "calibrate-fit, cli-cold"),
    "calibration.residual_objective_us": ("us", "lower", "fits_per_s (slightly)", "calibrate-fit"),
    "calibration.mper_us": ("us", "lower", "fits_per_s (slightly)", "calibrate-fit"),
    "calibration.count_satisfied_us": ("us", "lower", "fits_per_s (slightly)", "calibrate-fit, cli-cold"),
    "trace.overhead_pct": ("%", "lower", "none: traced over untraced time per operation in this run", "all"),
}

# The layer figures of the result line of a traced run.
PER_LAYER = ("import.weavelane_cli_s", "interp.start_s", "trace.overhead_pct")

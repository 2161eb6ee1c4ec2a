import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

GOLDEN = Path(__file__).parent / "golden"

THIRDS_SCENARIO = """\
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

CORNER_SCENARIO = """\
flows:
  n0_enter: 0.0
  n2_exit: 0.0
  n2_s: 1.0
"""


def run_cli(*args: str, env_extra: dict | None = None) -> subprocess.CompletedProcess:
    env = os.environ.copy()
    env.pop("SEED", None)
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "weavelane", *args],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture
def thirds_scenario(tmp_path: Path) -> Path:
    path = tmp_path / "thirds.yaml"
    path.write_text(THIRDS_SCENARIO, encoding="utf-8")
    return path


class TestSolve:
    def test_human_report(self, thirds_scenario):
        cp = run_cli("solve", str(thirds_scenario))
        assert cp.returncode == 0, cp.stderr
        assert "phi:" in cp.stdout and "0.594204" in cp.stdout
        assert "gamma:" in cp.stdout and "0.62487" in cp.stdout
        assert "admissible: true" in cp.stdout

    def test_csv_has_header_and_one_row(self, thirds_scenario):
        cp = run_cli("solve", str(thirds_scenario), "--format", "csv")
        assert cp.returncode == 0, cp.stderr
        lines = cp.stdout.strip().splitlines()
        assert len(lines) == 2
        assert lines[0] == "phi,gamma,case_label,j_ue,j_so,gap,admissible"

    def test_malformed_simplex_exits_2(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("flows:\n  n0_enter: 0.5\n  n2_exit: 0.6\n  n2_s: 0.2\n")
        cp = run_cli("solve", str(bad))
        assert cp.returncode == 2
        assert "SimplexViolation" in cp.stderr

    def test_unknown_key_exits_2(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text(THIRDS_SCENARIO + "mystery: 3\n")
        cp = run_cli("solve", str(bad))
        assert cp.returncode == 2

    def test_golden_csv(self, thirds_scenario):
        cp = run_cli("solve", str(thirds_scenario), "--format", "csv")
        assert cp.stdout == (GOLDEN / "solve_thirds.csv").read_text()


class TestThresholds:
    def test_report(self, thirds_scenario):
        cp = run_cli("thresholds", str(thirds_scenario))
        assert cp.returncode == 0
        assert "p1" in cp.stdout and "p2" in cp.stdout

    def test_not_admissible_exits_3(self, tmp_path):
        path = tmp_path / "corner.yaml"
        path.write_text(CORNER_SCENARIO)
        cp = run_cli("thresholds", str(path))
        assert cp.returncode == 3
        assert "NotAdmissible" in cp.stderr


class TestPlateaus:
    def test_table_and_range_verdicts(self, thirds_scenario):
        cp = run_cli("plateaus", str(thirds_scenario), "--range", "0.595:0.624")
        assert cp.returncode == 0
        assert "free" in cp.stdout
        cp = run_cli("plateaus", str(thirds_scenario), "--range", "0.5:0.7")
        assert "blocked by k=HDV, k=CAV" in cp.stdout

    def test_missing_population_exits_4(self, tmp_path):
        path = tmp_path / "nopop.yaml"
        path.write_text(CORNER_SCENARIO)
        cp = run_cli("plateaus", str(path))
        assert cp.returncode == 4

    def test_golden_csv(self, thirds_scenario):
        cp = run_cli("plateaus", str(thirds_scenario), "--format", "csv")
        assert cp.stdout == (GOLDEN / "plateaus_thirds.csv").read_text()


class TestSweep:
    def test_stackelberg_csv_schema_and_monotone(self, thirds_scenario, tmp_path):
        out = tmp_path / "sweep.csv"
        cp = run_cli(
            "sweep", str(thirds_scenario), "--mode", "stackelberg", "--out-csv", str(out)
        )
        assert cp.returncode == 0, cp.stderr
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "p,x1s_total,q_s_or_active_type,j_soc,j_cav,regime_label"
        j = [float(row.split(",")[3]) for row in lines[1:]]
        assert all(b - a <= 1e-10 for a, b in zip(j, j[1:]))

    def test_svo_matches_stackelberg_on_degenerate_population(
        self, thirds_scenario, tmp_path
    ):
        a = tmp_path / "st.csv"
        b = tmp_path / "sv.csv"
        assert run_cli(
            "sweep", str(thirds_scenario), "--mode", "stackelberg", "--out-csv", str(a)
        ).returncode == 0
        assert run_cli(
            "sweep", str(thirds_scenario), "--mode", "svo", "--out-csv", str(b)
        ).returncode == 0
        st = [row.split(",") for row in a.read_text().strip().splitlines()[1:]]
        sv = [row.split(",") for row in b.read_text().strip().splitlines()[1:]]
        for row_a, row_b in zip(st, sv):
            assert abs(float(row_a[3]) - float(row_b[3])) < 1e-9  # j_soc
            assert abs(float(row_a[1]) - float(row_b[1])) < 1e-9  # x1s_total

    def test_missing_population_exits_4(self, tmp_path):
        path = tmp_path / "nopop.yaml"
        path.write_text(CORNER_SCENARIO + "sweep:\n  start: 0.0\n  stop: 1.0\n  step: 0.5\n")
        cp = run_cli("sweep", str(path), "--mode", "svo", "--out-csv", str(tmp_path / "x.csv"))
        assert cp.returncode == 4

    def test_byte_identical_across_runs(self, thirds_scenario, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for target in (first, second):
            assert run_cli(
                "sweep", str(thirds_scenario), "--mode", "svo", "--out-csv", str(target)
            ).returncode == 0
        assert first.read_bytes() == second.read_bytes()

    def test_golden_csvs(self, thirds_scenario, tmp_path):
        for mode, golden in (
            ("stackelberg", "sweep_stackelberg_thirds.csv"),
            ("svo", "sweep_svo_thirds.csv"),
        ):
            out = tmp_path / f"{mode}.csv"
            assert run_cli(
                "sweep", str(thirds_scenario), "--mode", mode, "--out-csv", str(out)
            ).returncode == 0
            assert out.read_bytes() == (GOLDEN / golden).read_bytes()

    def test_svg_markers_match_plateau_endpoints(self, thirds_scenario, tmp_path):
        from weavelane.scenario import load_scenario
        from weavelane.svo import plateau_intervals

        svg = tmp_path / "chart.svg"
        cp = run_cli(
            "sweep",
            str(thirds_scenario),
            "--mode",
            "svo",
            "--out-csv",
            str(tmp_path / "s.csv"),
            "--out-svg",
            str(svg),
        )
        assert cp.returncode == 0
        marks = sorted(float(m) for m in re.findall(r'data-p="([^"]+)"', svg.read_text()))
        sc = load_scenario(thirds_scenario)
        endpoints = sorted(
            v
            for iv in plateau_intervals(sc.config, sc.population)
            for v in (iv.p_lo, iv.p_hi)
        )
        assert marks == pytest.approx(endpoints, abs=1e-15)


class TestCalibrate:
    @pytest.fixture
    def dataset(self, tmp_path: Path) -> Path:
        from weavelane.calibration import Observation, save_dataset
        from weavelane.model import FlowConfig, RampConfig
        from weavelane.wardrop import solve_hdv

        import numpy as np

        rng = np.random.default_rng(5)
        observations = []
        while len(observations) < 40:
            flows = FlowConfig(*rng.dirichlet((1.0, 1.0, 1.0)))
            x = solve_hdv(RampConfig(flows)).x1s_star
            if x > 0.0:
                observations.append(Observation(flows, x))
        path = tmp_path / "observations.csv"
        save_dataset(path, observations)
        return path

    def test_exact_dataset_fit(self, dataset, tmp_path):
        fitted = tmp_path / "fitted.yaml"
        cp = run_cli(
            "calibrate", str(dataset), "--seed", "1", "--out-scenario", str(fitted),
            "--format", "csv",
        )
        assert cp.returncode == 0, cp.stderr
        lines = cp.stdout.strip().splitlines()
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert float(row["objective"]) < 1e-8
        assert row["converged"] == "true"
        assert float(row["mper"]) < 1e-6
        assert fitted.exists()

    def test_seed_env_override(self, dataset, tmp_path):
        noisy = tmp_path / "noisy.csv"
        text = dataset.read_text().splitlines()
        bent = [text[0]]
        for i, row in enumerate(text[1:]):
            cols = row.split(",")
            cols[3] = repr(min(1.0, float(cols[3]) + (0.01 if i % 2 else -0.01)))
            bent.append(",".join(cols))
        noisy.write_text("\n".join(bent) + "\n")
        by_env = run_cli(
            "calibrate", str(noisy), "--budget", "2000", "--format", "csv",
            env_extra={"SEED": "7"},
        )
        by_flag = run_cli(
            "calibrate", str(noisy), "--budget", "2000", "--seed", "7", "--format", "csv"
        )
        assert by_env.stdout == by_flag.stdout

    def test_non_convergence_exits_5(self, dataset, tmp_path):
        noisy = tmp_path / "noisy.csv"
        text = dataset.read_text().splitlines()
        bent = [text[0]]
        for i, row in enumerate(text[1:]):
            cols = row.split(",")
            cols[3] = repr(min(1.0, max(0.0, float(cols[3]) + (0.02 if i % 2 else -0.02))))
            bent.append(",".join(cols))
        noisy.write_text("\n".join(bent) + "\n")
        cp = run_cli("calibrate", str(noisy), "--budget", "60", "--seed", "1")
        assert cp.returncode == 5

    def test_zero_share_warns_and_omits_mper(self, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text(
            "n0_enter,n2_exit,n2_s,x1s\n0.2,0.3,0.5,0.0\n0.3,0.3,0.4,0.5\n"
        )
        cp = run_cli("calibrate", str(path), "--seed", "1", "--budget", "500")
        assert cp.returncode in (0, 5)
        assert "ZeroObservedShare" in cp.stderr
        assert "mper:        n/a" in cp.stdout

    def test_vanishing_slopes_warn_and_omit_mper(self, capsys, tmp_path):
        # No coefficients explain both shares at one flow mix, so the free
        # fit drives the Lane-1 slopes to zero, where every residual is zero.
        from weavelane.cli import main

        path = tmp_path / "clash.csv"
        path.write_text(
            "n0_enter,n2_exit,n2_s,x1s\n0.2,0.3,0.5,0.1\n0.2,0.3,0.5,0.9\n0.4,0.4,0.2,0.5\n"
        )
        code = main([
            "calibrate", str(path), "--free-unit-costs", "--seed", "0", "--budget", "2000",
            "--out-scenario", str(tmp_path / "fitted.yaml"),
        ])
        out, err = capsys.readouterr()
        assert code == 0
        assert "mper:        n/a" in out
        assert "DegenerateCosts" in err and "ZeroObservedShare" not in err

    def test_malformed_dataset_exits_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        cp = run_cli("calibrate", str(path))
        assert cp.returncode == 2


class TestEdgeInputsInProcess:
    """Inputs that once ended in a traceback now map to documented exits."""

    @staticmethod
    def _run(capsys, *args: str) -> tuple[int, str]:
        from weavelane.cli import main

        code = main(list(args))
        return code, capsys.readouterr().err

    def test_nan_flow_exits_2(self, capsys, tmp_path):
        path = tmp_path / "nan_flow.yaml"
        path.write_text(THIRDS_SCENARIO.replace("n0_enter: 0.3333333333333333", "n0_enter: .nan"))
        code, err = self._run(capsys, "solve", str(path), "--format", "csv")
        assert code == 2
        assert err.startswith("error: DomainError:")

    def test_nan_theta_exits_2(self, capsys, tmp_path):
        path = tmp_path / "nan_theta.yaml"
        path.write_text(THIRDS_SCENARIO.replace("theta_radians: 0.0", "theta_radians: .nan"))
        code, err = self._run(capsys, "plateaus", str(path), "--format", "csv")
        assert code == 2
        assert err.startswith("error: DomainError:")

    def test_nan_raw_dataset_row_exits_2(self, capsys, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("f0_enter,f2_exit,f2_s,f1_s,f1_b\n300,200,500,400,600\n120,nan,300,410,280\n")
        code, err = self._run(
            capsys, "calibrate", str(path), "--out-scenario", str(tmp_path / "fit.yaml")
        )
        assert code == 2
        assert err.startswith("error: DomainError:")
        assert not (tmp_path / "fit.yaml").exists()

    def test_zero_unit_costs_plateaus_exits_3(self, capsys, tmp_path):
        path = tmp_path / "zero.yaml"
        zero = "coefficients:\n  c1_t: 0.0\n  c2_t: 0.0\n  c1_m: 0.0\n  c2_m: 0.0\n"
        path.write_text(THIRDS_SCENARIO + zero)
        code, err = self._run(capsys, "plateaus", str(path), "--format", "csv")
        assert code == 3
        assert err.startswith("error: DegenerateCosts:")

    def test_nan_and_tiny_steps_exit_2(self, capsys, tmp_path):
        path = tmp_path / "step.yaml"
        out = str(tmp_path / "sweep.csv")
        for step in (".nan", "5.0e-324"):
            path.write_text(THIRDS_SCENARIO.replace("step: 0.1", f"step: {step}"))
            code, err = self._run(capsys, "sweep", str(path), "--mode", "svo", "--out-csv", out)
            assert code == 2
            assert err.startswith("error: ScenarioError:")

    def test_mixed_type_unknown_keys_exit_2(self, capsys, tmp_path):
        # YAML reads "0" as an int key and "1e-12" as a str key; sorting both failed.
        path = tmp_path / "keys.yaml"
        path.write_text(THIRDS_SCENARIO.replace("n0_enter", "1e-12").replace("n2_exit", "0"))
        code, err = self._run(capsys, "solve", str(path))
        assert code == 2
        assert err.startswith("error: ScenarioError: unknown keys in flows: 0, 1e-12")

    def test_grid_overshooting_stop_sweeps(self, capsys, tmp_path):
        path = tmp_path / "overshoot.yaml"
        path.write_text(
            THIRDS_SCENARIO.replace("start: 0.0", "start: 0.09").replace("step: 0.1", "step: 0.07")
        )
        out = tmp_path / "sweep.csv"
        code, err = self._run(capsys, "sweep", str(path), "--mode", "stackelberg", "--out-csv", str(out))
        assert code == 0, err
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 14
        assert rows[-1].split(",")[0] == "1"


# Runs in a fresh interpreter, so nothing another test imported leaks in.
_BOUNDARY_PROBE = """
import json, pkgutil, sys
import weavelane, weavelane.cli

def heavy():
    return sorted(m for m in ("numpy", "scipy", "weavelane.calibration") if m in sys.modules)

report = {"after_import": heavy()}
report["solve_code"] = weavelane.cli.main(["solve", sys.argv[1]])
report["after_solve"] = heavy()
submodules = {m.name for m in pkgutil.iter_modules(weavelane.__path__)}
report["exported_submodules"] = sorted(submodules & set(weavelane.__all__))
try:
    weavelane.no_such_name
    report["unknown_attribute"] = "resolved"
except AttributeError:
    report["unknown_attribute"] = "AttributeError"
report["lazy_identity"] = weavelane.calibrate is weavelane.calibration.calibrate
star = {}
exec("from weavelane import *", star)
report["star_binds_calibration"] = star["load_dataset"] is weavelane.calibration.load_dataset
report["all_listed_in_dir"] = set(weavelane.__all__) <= set(dir(weavelane))
print(json.dumps(report))
"""


def test_import_boundary_keeps_numpy_and_scipy_out(thirds_scenario):
    cp = subprocess.run(
        [sys.executable, "-c", _BOUNDARY_PROBE, str(thirds_scenario)],
        capture_output=True,
        text=True,
    )
    assert cp.returncode == 0, cp.stderr
    report = json.loads(cp.stdout.splitlines()[-1])
    assert report == {
        "after_import": [],
        "solve_code": 0,
        "after_solve": [],
        "exported_submodules": [],
        "unknown_attribute": "AttributeError",
        "lazy_identity": True,
        "star_binds_calibration": True,
        "all_listed_in_dir": True,
    }


DATASET_TEXT = """\
n0_enter,n2_exit,n2_s,x1s
0.2,0.3,0.5,0.6
0.3,0.3,0.4,0.5
0.5,0.25,0.25,0.4
"""

RAW_DATASET_TEXT = """\
f0_enter,f2_exit,f2_s,f1_s,f1_b
300,200,500,400,600
120,80,300,410,280
"""

# Values and fragments spliced into the inputs; appended sections test whole
# blocks (zero unit costs, a negative weight, a duplicate section).
_VALUE_TOKENS = (
    "", "0", "1", "0.5", "-0.1", "0.001", "1e-12", "e9", ".nan", ".inf", "-.inf",
    "1e309", "true", "~", "[]", "{}", "'x'", "-", ".", ":", ",", " ", "\n", "#",
)
_SCENARIO_TOKENS = _VALUE_TOKENS + ("HDV", "CAV", "weight", "theta_degrees", "step", "n2_s")
_SCENARIO_TAILS = (
    "coefficients:\n  c1_t: 0\n  c2_t: 0\n  c1_m: 0\n  c2_m: 0\n",
    "coefficients:\n  alpha: -1\n",
    "population:\n  - class: CAV\n    theta_degrees: 45\n    weight: 1\n",
    "sweep: {start: 0.5, stop: 0.5, step: 0.1}\n",
)
_DATASET_TOKENS = _VALUE_TOKENS + ("x1s", "f1_b", "0,0,1,0", "0,0,0,0,0")
_DATASET_TAILS = ("0.5,0.5,0,0.5\n", "0,0,1,0\n", "100,100,100,50,50\n", "0,0,0,0,0\n", "1,2\n")
_SCENARIO_COMMANDS = (
    ["solve", "{in}", "--format", "csv"],
    ["thresholds", "{in}"],
    ["plateaus", "{in}", "--range", "0.2:0.8"],
    ["sweep", "{in}", "--mode", "stackelberg", "--out-csv", "{out}.csv"],
    ["sweep", "{in}", "--mode", "svo", "--out-csv", "{out}.csv", "--out-svg", "{out}.svg"],
)
_CALIBRATE_COMMAND = ["calibrate", "{in}", "--budget", "40", "--out-scenario", "{out}.yaml"]

FUZZ = settings(max_examples=150, derandomize=True, deadline=None)


@st.composite
def mutated(draw, base: str, tokens: tuple[str, ...], tails: tuple[str, ...]) -> str:
    """``base`` after one to three edits: a word or number replaced by a token,
    a token spliced in at any position, or a section appended."""
    text = base
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("word", "splice", "append")))
        if kind == "append":
            text += draw(st.sampled_from(tails))
            continue
        if kind == "word":
            start, stop = draw(st.sampled_from([m.span() for m in re.finditer(r"[\w.+-]+", text)]))
        else:
            start = draw(st.integers(0, len(text)))
            stop = min(len(text), start + draw(st.integers(0, 2)))
        text = text[:start] + draw(st.sampled_from(tokens)) + text[stop:]
    return text


def _fuzz_main(workdir: Path, text: str, suffix: str, command: list[str]) -> None:
    from weavelane.cli import main

    path = workdir / f"input{suffix}"
    path.write_text(text, encoding="utf-8")
    argv = [arg.format(**{"in": path, "out": workdir / "out"}) for arg in command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4, 5), (argv, text, err.getvalue())
    if code in (2, 3, 4):
        assert err.getvalue().startswith("error: "), err.getvalue()


@FUZZ
@given(
    text=mutated(THIRDS_SCENARIO, _SCENARIO_TOKENS, _SCENARIO_TAILS),
    command=st.sampled_from(_SCENARIO_COMMANDS),
)
def test_fuzzed_scenarios_exit_only_with_documented_codes(tmp_path_factory, text, command):
    _fuzz_main(tmp_path_factory.mktemp("fuzz"), text, ".yaml", command)


@settings(FUZZ, max_examples=80)
@given(
    text=st.sampled_from((DATASET_TEXT, RAW_DATASET_TEXT)).flatmap(
        lambda base: mutated(base, _DATASET_TOKENS, _DATASET_TAILS)
    )
)
def test_fuzzed_datasets_exit_only_with_documented_codes(tmp_path_factory, text):
    _fuzz_main(tmp_path_factory.mktemp("fuzz"), text, ".csv", _CALIBRATE_COMMAND)

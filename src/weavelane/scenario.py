"""Scenario file ingestion and emission.

A scenario is a small YAML document with nested sections::

    flows:          # required
      n0_enter: 0.3333333333333333
      n2_exit: 0.3333333333333333
      n2_s: 0.3333333333333333
    coefficients:   # optional; omitted fields keep their calibrated defaults
      alpha: 1.255
    population:     # optional; needed by svo sweeps and plateau queries
      - class: HDV
        theta_radians: 0.0
        weight: 1.0
      - class: CAV
        theta_degrees: 90.0
        weight: 1.0
    sweep:          # optional; needed by sweep commands
      start: 0.0
      stop: 1.0
      step: 0.01

Angles accept exactly one of ``theta_radians``/``theta_degrees`` per entry;
radians are canonical internally. Unknown keys are rejected everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import yaml

from .errors import ScenarioError
from .model import CostCoefficients, FlowConfig, RampConfig
from .svo import CAV, HDV, Population, VehicleType

_COEFF_FIELDS = (
    "c1_t", "c2_t", "c1_m", "c2_m",
    "alpha", "beta", "omega", "gamma", "rho", "delta",
)

#: Largest sweep grid a scenario may ask for.
MAX_SWEEP_POINTS = 1_000_000


@dataclass(frozen=True)
class SweepGrid:
    """Inclusive arithmetic penetration grid."""

    start: float
    stop: float
    step: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.start < self.stop <= 1.0):
            raise ScenarioError(
                f"sweep range must satisfy 0 <= start < stop <= 1, "
                f"got [{self.start!r}, {self.stop!r}]"
            )
        if not self.step > 0.0:  # written so that NaN fails too
            raise ScenarioError(f"sweep step must be positive, got {self.step!r}")
        if (self.stop - self.start) / self.step >= MAX_SWEEP_POINTS:
            raise ScenarioError(f"sweep step {self.step!r} gives over {MAX_SWEEP_POINTS} points")

    def points(self) -> list[float]:
        """Points ``start + i * step``; rounding never carries one past ``stop``."""
        count = int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1
        return [min(self.start + i * self.step, self.stop) for i in range(count)]


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario: ramp configuration plus optional population and grid."""

    config: RampConfig
    population: Population | None = None
    sweep: SweepGrid | None = None


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{where} must be a mapping")
    return value


def _reject_unknown(mapping: dict, allowed: tuple[str, ...], where: str) -> None:
    unknown = sorted(map(str, set(mapping) - set(allowed)))
    if unknown:
        raise ScenarioError(f"unknown keys in {where}: {', '.join(unknown)}")


def _number(mapping: dict, key: str, where: str) -> float:
    if key not in mapping:
        raise ScenarioError(f"missing key {key!r} in {where}")
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where}.{key} must be a number, got {value!r}")
    return float(value)


def _parse_population(entries, where: str) -> Population:
    if not isinstance(entries, list) or not entries:
        raise ScenarioError(f"{where} must be a nonempty list of type entries")
    hdv: list[VehicleType] = []
    cav: list[VehicleType] = []
    for i, entry in enumerate(entries):
        spot = f"{where}[{i}]"
        entry = _require_mapping(entry, spot)
        _reject_unknown(entry, ("class", "theta_radians", "theta_degrees", "weight"), spot)
        cls = entry.get("class")
        if cls not in (HDV, CAV):
            raise ScenarioError(f"{spot}.class must be HDV or CAV, got {cls!r}")
        has_rad = "theta_radians" in entry
        has_deg = "theta_degrees" in entry
        if has_rad == has_deg:
            raise ScenarioError(
                f"{spot} must carry exactly one of theta_radians/theta_degrees"
            )
        theta = (
            _number(entry, "theta_radians", spot)
            if has_rad
            else math.radians(_number(entry, "theta_degrees", spot))
        )
        vtype = VehicleType(cls, theta, _number(entry, "weight", spot))
        (hdv if cls == HDV else cav).append(vtype)
    try:
        return Population(tuple(hdv), tuple(cav))
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


def parse_scenario_text(text: str, origin: str = "<string>") -> Scenario:
    """Parse a YAML scenario document."""
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{origin}: invalid YAML ({exc})") from None
    data = _require_mapping(data if data is not None else {}, origin)
    _reject_unknown(data, ("flows", "coefficients", "population", "sweep"), origin)
    if "flows" not in data:
        raise ScenarioError(f"{origin}: missing required section 'flows'")

    flows_map = _require_mapping(data["flows"], "flows")
    _reject_unknown(flows_map, ("n0_enter", "n2_exit", "n2_s"), "flows")
    flows = FlowConfig(
        _number(flows_map, "n0_enter", "flows"),
        _number(flows_map, "n2_exit", "flows"),
        _number(flows_map, "n2_s", "flows"),
    )

    coeffs = CostCoefficients()
    if "coefficients" in data:
        coeff_map = _require_mapping(data["coefficients"], "coefficients")
        _reject_unknown(coeff_map, _COEFF_FIELDS, "coefficients")
        values = coeffs.as_dict()
        for key in coeff_map:
            values[key] = _number(coeff_map, key, "coefficients")
        try:
            coeffs = CostCoefficients(**values)
        except ValueError as exc:
            raise ScenarioError(f"coefficients: {exc}") from None

    population = None
    if "population" in data:
        population = _parse_population(data["population"], "population")

    sweep = None
    if "sweep" in data:
        sweep_map = _require_mapping(data["sweep"], "sweep")
        _reject_unknown(sweep_map, ("start", "stop", "step"), "sweep")
        sweep = SweepGrid(
            _number(sweep_map, "start", "sweep"),
            _number(sweep_map, "stop", "sweep"),
            _number(sweep_map, "step", "sweep"),
        )

    return Scenario(RampConfig(flows, coeffs), population, sweep)


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from None
    return parse_scenario_text(text, origin=str(path))


def scenario_to_mapping(scenario: Scenario) -> dict:
    """Plain mapping mirroring the file schema (angles in radians)."""
    flows = scenario.config.flows
    data: dict = {
        "flows": {
            "n0_enter": flows.n0_enter,
            "n2_exit": flows.n2_exit,
            "n2_s": flows.n2_s,
        },
        "coefficients": scenario.config.coeffs.as_dict(),
    }
    if scenario.population is not None:
        data["population"] = [
            {"class": t.vehicle_class, "theta_radians": t.theta, "weight": t.weight}
            for t in scenario.population.types
        ]
    if scenario.sweep is not None:
        data["sweep"] = {
            "start": scenario.sweep.start,
            "stop": scenario.sweep.stop,
            "step": scenario.sweep.step,
        }
    return data


def emit_scenario(scenario: Scenario) -> str:
    return yaml.safe_dump(scenario_to_mapping(scenario), sort_keys=False)


def write_scenario(path: str | Path, scenario: Scenario) -> None:
    Path(path).write_text(emit_scenario(scenario), encoding="utf-8")

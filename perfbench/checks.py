"""Output checks against the reference model.

A checker returns None when the output is right. It raises :class:`Wrong`
when a result the program presented as valid disagrees with the reference,
and :class:`Broken` when the program did not produce a usable result: a
crash, an undocumented exit code, a degenerate or unconverged fit. Both
count as failed operations; only ``Wrong`` makes a run incorrect.
"""

from __future__ import annotations

import math
import re
from collections import Counter

import gen
import reference as ref

#: Shares and thresholds agree with the reference to this (times max(1, |v|)).
SHARE_TOL = 1e-9
#: Dense-grid argmin resolution plus one grid step.
GRID_TOL = 2e-6
#: A minimiser found by comparing function values is only resolved to about
#: the square root of machine precision (solve_numeric's golden section).
SEARCH_TOL = 1e-6
#: Distance from a regime or interval boundary inside which labels may differ.
EDGE_TOL = 1e-9

CALIBRATE_HEADER = list(ref.COEFF_FIELDS) + [
    "objective", "mper", "satisfied", "iterations", "converged",
]


class Wrong(Exception):
    """A result presented as valid disagrees with the reference."""


class Broken(Exception):
    """The operation produced no usable result."""


class Tally:
    """Distinct operations of one run and their verdicts.

    An operation is named by a key. A run may execute it again (a later pass
    over the same inputs); every execution is checked, but the operation is
    counted once and fails if any execution failed. So ``attempted`` and
    ``failed`` depend on the seed and the program only, not on how many
    passes the host's speed allowed.
    """

    def __init__(self) -> None:
        self.verdicts: dict = {}  # key -> failure reason, or None
        self.wrong: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.verdicts)

    @property
    def failed(self) -> Counter:
        return Counter(reason for reason in self.verdicts.values() if reason is not None)

    @property
    def failed_count(self) -> int:
        return sum(reason is not None for reason in self.verdicts.values())

    def check(self, key, what: str, checker, *args) -> bool:
        """Judge one execution of operation ``key`` with ``checker``."""
        try:
            checker(*args)
        except (Wrong, ValueError, IndexError, KeyError) as exc:
            reason = f"{what}: wrong output"
            self.wrong.append(f"{what}: {type(exc).__name__}: {exc}")
        except Broken as exc:
            reason = f"{what}: {exc}"
        else:
            self.verdicts.setdefault(key, None)
            return True
        if self.verdicts.get(key) is None:
            self.verdicts[key] = reason
        return False


def close(a: float, b: float, tol: float = SHARE_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Wrong(what)


class ScenarioRef:
    """Reference values of one (coefficients, flows, population) input."""

    def __init__(self, c: dict, n: tuple, types: list | None = None):
        self.c, self.n, self.types = c, tuple(n), types or []
        self.aff = ref.affine(c, self.n)
        self.phi = ref.phi(c, self.n)
        self.gamma = ref.gamma(c, self.n)
        self.labels = gen.labels(self.types)
        self.chi = {lab: ref.chi(c, self.n, t[1]) for lab, t in zip(self.labels, self.types)}

    @property
    def chi_gap(self) -> float:
        """Smallest distance between two type thresholds."""
        ks = sorted(self.chi.values())
        return min((b - a for a, b in zip(ks, ks[1:])), default=math.inf)

    def social(self, x: float) -> float:
        return ref.social(self.c, self.n, x, self.aff)

    def bilevel(self, p: float) -> tuple[float, float]:
        lo = min(1.0 - p, max(0.0, self.phi))
        hi = p + min(1.0 - p, max(0.0, self.phi - p))
        x = min(hi, max(lo, self.gamma))
        return x, self.social(x)

    def hetero(self, p: float) -> tuple[float, str | None]:
        """Aggregate share at p and the label of the mixing type, if any."""
        chis = [self.chi[lab] for lab in self.labels]
        shares = ref.type_shares(self.types, p)
        x = ref.hetero_share(chis, shares)
        for lab, k, w in zip(self.labels, chis, shares):
            above = math.fsum(s for kk, s in zip(chis, shares) if kk > k)
            mass = k - above
            if abs(x - k) <= 1e-12 and EDGE_TOL < mass < w - EDGE_TOL:
                return x, lab
        return x, None

    def near_hetero_edge(self, p: float) -> bool:
        """True when p lies within EDGE_TOL of a plateau boundary."""
        return any(
            self.hetero(q)[1] != self.hetero(p)[1] for q in (p - EDGE_TOL, p + EDGE_TOL)
            if 0.0 <= q <= 1.0
        )


def check_exit(code: int, stderr: str, expected: int) -> None:
    if "Traceback" in stderr:
        raise Broken(f"traceback (exit {code})")
    if code != expected:
        raise Broken(f"exit {code} where {expected} is documented")
    if expected != 0 and not stderr.startswith("error: "):
        raise Broken("error without the documented 'error: <Kind>' message")


def check_golden(got: bytes, golden_path) -> None:
    expect(got == golden_path.read_bytes(), f"differs from {golden_path.name} in tests/golden")


def _csv(text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    expect(bool(lines) and lines[0] == header, f"header {lines[:1]!r}, expected {header!r}")
    return [line.split(",") for line in lines[1:]]


def check_solve_csv(stdout: str, s: ScenarioRef, grid_min: float) -> None:
    rows = _csv(stdout, "phi,gamma,case_label,j_ue,j_so,gap,admissible")
    expect(len(rows) == 1, "solve prints one row")
    phi, gamma, case, j_ue, j_so, gap, adm = rows[0]
    phi, gamma, j_ue, j_so, gap = map(float, (phi, gamma, j_ue, j_so, gap))
    expect(close(phi, s.phi), f"phi {phi!r} vs bisection {s.phi!r}")
    expect(close(gamma, s.gamma), f"gamma {gamma!r} vs vertex {s.gamma!r}")
    expect(abs(ref.clamp01(gamma) - grid_min) <= GRID_TOL, "gamma vs dense-grid argmin")
    x_ue = ref.clamp01(s.phi)
    want_case = "AllBypass" if s.phi <= 0 else "AllSteadfast" if s.phi >= 1 else "Interior"
    expect(case == want_case, f"case {case} vs {want_case}")
    expect(close(j_ue, s.social(x_ue)), "j_ue")
    expect(close(j_so, s.social(ref.clamp01(s.gamma))), "j_so")
    expect(close(gap, j_ue - j_so), "gap")
    margin = ref.admissible_margin(s.c, s.n)
    if abs(margin) > EDGE_TOL:
        expect(adm == ("true" if margin > 0 else "false"), f"admissible {adm}")


def check_thresholds_csv(stdout: str, s: ScenarioRef) -> None:
    rows = _csv(stdout, "p1,p2")
    expect(len(rows) == 1, "thresholds prints one row")
    p1, p2 = map(float, rows[0])
    expect(close(p1, s.phi) and close(p2, s.gamma), f"(p1, p2) = ({p1}, {p2}) vs (phi, gamma)")


def check_plateau_rows(rows: list[tuple], s: ScenarioRef, probes: int = 201) -> None:
    """rows: (label, chi_k, p_lo, p_hi, lo_closed, hi_closed) per interval."""
    for label, chi_k, lo, hi, _, _ in rows:
        expect(label in s.chi, f"unknown type label {label}")
        expect(close(chi_k, s.chi[label]), f"chi of {label}")
        expect(0.0 <= lo <= hi <= 1.0, f"interval of {label} outside [0, 1]")

    def holds(row, p):
        _, _, lo, hi, lo_c, hi_c = row
        return (lo < p < hi) or (p == lo and lo_c) or (p == hi and hi_c)

    for i in range(probes):
        p = i / (probes - 1)
        if s.near_hetero_edge(p):
            continue
        _, mixing = s.hetero(p)
        found = [row[0] for row in rows if holds(row, p)]
        expect(found == ([mixing] if mixing else []), f"at p={p}: intervals {found}, mixing {mixing}")


def check_plateaus_csv(stdout: str, s: ScenarioRef) -> None:
    rows = _csv(stdout, "k,chi_k,p_lo,p_hi,lo_boundary,hi_boundary")
    parsed = []
    for label, chi_k, lo, hi, lo_b, hi_b in rows:
        expect({lo_b, hi_b} <= {"open", "closed"}, "boundary token")
        parsed.append((label, float(chi_k), float(lo), float(hi), lo_b == "closed", hi_b == "closed"))
    check_plateau_rows(parsed, s)


def check_stackelberg_rows(rows: list[tuple], s: ScenarioRef, grid: list[float]) -> None:
    """rows: (p, x1s_total, q_s, j_soc, j_cav, regime) per grid point."""
    expect(len(rows) == len(grid), f"{len(rows)} rows for {len(grid)} grid points")
    for (p, x, q, j, j_cav, regime), want_p in zip(rows, grid):
        expect(close(p, want_p, 1e-12), f"grid point {p!r} vs {want_p!r}")
        want_x, want_j = s.bilevel(p)
        expect(close(x, want_x) and close(j, want_j), f"at p={p}: x={x!r}, j={j!r}")
        expect(0.0 <= q <= 1.0 and -SHARE_TOL <= x - p * q <= 1.0 - p + SHARE_TOL, f"q_s at p={p}")
        j1s, j1b = ref.costs(s.aff, x)[:2]
        expect(close(j_cav, p * (j1s * x + j1b * (1.0 - x))), f"j_cav at p={p}")
        if min(abs(p - s.phi), abs(p - s.gamma)) > EDGE_TOL:
            expect(regime == ref.regime(p, s.phi, s.gamma), f"regime {regime} at p={p}")


def check_stackelberg_csv(text: str, s: ScenarioRef, grid: list[float]) -> None:
    rows = _csv(text, "p,x1s_total,q_s_or_active_type,j_soc,j_cav,regime_label")
    check_stackelberg_rows(
        [(float(p), float(x), float(q), float(j), float(jc), r) for p, x, q, j, jc, r in rows],
        s, grid,
    )


def check_svo_rows(rows: list[tuple], s: ScenarioRef, grid: list[float], stride: int = 1) -> None:
    """rows: (p, x1s_total, active_type, j_soc, regime); every stride-th is
    compared with the reference equilibrium, every row for consistency."""
    expect(len(rows) == len(grid), f"{len(rows)} rows for {len(grid)} grid points")
    for i, ((p, x, active, j, regime), want_p) in enumerate(zip(rows, grid)):
        expect(close(p, want_p, 1e-12), f"grid point {p!r} vs {want_p!r}")
        expect(regime == ("Shift" if active == "none" else "Plateau"), f"regime {regime} for {active}")
        if active != "none":
            expect(active in s.chi and close(x, s.chi[active]), f"share {x!r} off the threshold of {active}")
        if i % stride == 0:
            want_x, mixing = s.hetero(p)
            expect(close(x, want_x), f"at p={p}: share {x!r} vs {want_x!r}")
            expect(close(j, s.social(ref.clamp01(want_x))), f"j_soc at p={p}")
            if not s.near_hetero_edge(p):
                expect(active == (mixing or "none"), f"at p={p}: active {active} vs {mixing}")


def check_svo_csv(text: str, s: ScenarioRef, grid: list[float], stride: int = 1) -> None:
    rows = _csv(text, "p,x1s_total,q_s_or_active_type,j_soc,regime_label")
    check_svo_rows([(float(p), float(x), a, float(j), r) for p, x, a, j, r in rows], s, grid, stride)


def check_svg(text: str, points: int, markers: list[float] | None = None) -> None:
    expect(text.startswith("<?xml") and text.endswith("</svg>\n"), "SVG document framing")
    poly = re.search(r'<polyline points="([^"]*)"', text)
    expect(poly is not None and len(poly.group(1).split()) == points, "polyline point count")
    if markers is not None:
        got = sorted(float(v) for v in re.findall(r'data-p="([^"]+)"', text))
        want = sorted(m for m in markers if 0.0 <= m <= 1.0)
        expect(len(got) == len(want) and all(map(close, got, want)), f"markers {got} vs {want}")


def check_fit(coeffs: dict, objective: float, mper: float, satisfied: int | None,
              converged: bool, truth: dict, obs: list, pinned: bool) -> None:
    """A fit is usable when it is non-degenerate, converged, and at least as
    good as the truth that generated its data; its reported scores must match
    the reference evaluated at the fitted coefficients."""
    if pinned:
        expect(all(coeffs[f] == truth[f] for f in ref.UNIT_FIELDS), "pinned unit costs moved")
    if any(ref.degenerate(coeffs, n) for n, _ in obs):
        raise Broken("degenerate fit: k1s + k1b = 0 on an observation")
    want_obj = ref.objective(coeffs, obs)
    expect(abs(objective - want_obj) <= 1e-12 + 1e-6 * want_obj, f"objective {objective!r} vs {want_obj!r}")
    if not math.isnan(mper):
        expect(close(mper, ref.mper(coeffs, obs), 1e-6), "mper")
    if satisfied is not None:
        want_sat = sum(ref.residual(ref.affine(coeffs, n), x) <= 1e-6 for n, x in obs)
        expect(abs(satisfied - want_sat) <= 1, f"satisfied {satisfied} vs {want_sat}")
    if not converged:
        raise Broken("fit did not converge")
    truth_obj = ref.objective(truth, obs)
    if objective > truth_obj + 1e-9 + 1e-6 * truth_obj:
        raise Broken("fit objective above the objective at the truth")


def check_calibrate_csv(stdout: str, truth: dict, obs: list) -> None:
    rows = _csv(stdout.split("\nwrote ")[0], ",".join(CALIBRATE_HEADER))
    expect(len(rows) == 1, "calibrate prints one row")
    row = dict(zip(CALIBRATE_HEADER, rows[0]))
    coeffs = {f: float(row[f]) for f in ref.COEFF_FIELDS}
    check_fit(coeffs, float(row["objective"]), float(row["mper"]), int(row["satisfied"]),
              row["converged"] == "true", truth, obs, pinned=True)

"""Seeded input generation for every workload.

Pure Python on top of :mod:`reference`, so generating inputs neither imports
nor times the package. One seed names one input set: each stream is a
``random.Random`` seeded from ``"<seed>:<stream>"``.
"""

from __future__ import annotations

import math
import random

import reference as ref


def stream(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def flows(r: random.Random) -> tuple:
    """A point of the flow simplex drawn uniformly (Dirichlet(1, 1, 1))."""
    e = [r.expovariate(1.0) for _ in range(3)]
    total = sum(e)
    return tuple(v / total for v in e)


def coeffs(r: random.Random, lo: float = 0.1, hi: float = 5.0) -> dict:
    return {f: r.uniform(lo, hi) for f in ref.COEFF_FIELDS}


def admissible_config(r: random.Random, margin: float) -> tuple[dict, tuple]:
    """Coefficients and flows with 0 < Phi < Gamma < 1, ``margin`` inside."""
    while True:
        c, n = coeffs(r), flows(r)
        if ref.admissible_margin(c, n, fast=True) >= margin:
            return c, n


def _weights(r: random.Random, count: int) -> list[float]:
    raw = [r.uniform(0.2, 1.0) for _ in range(count)]
    total = sum(raw)
    out = [v / total for v in raw[:-1]]
    out.append(1.0 - math.fsum(out))
    return out


def random_types(r: random.Random, count: int) -> list[tuple]:
    """``count`` vehicle types, about a third HDV, both classes present."""
    n_hdv = max(1, count // 3)
    n_cav = count - n_hdv
    hdv = [("HDV", r.uniform(-0.4, 0.6), w) for w in _weights(r, n_hdv)]
    cav = [("CAV", r.uniform(0.0, math.pi / 2.0), w) for w in _weights(r, n_cav)]
    return hdv + cav


def distinct_types(r: random.Random, c: dict, n: tuple, count: int, min_gap: float) -> list:
    """Vehicle types whose thresholds lie at least ``min_gap`` apart."""
    while True:
        types = random_types(r, count)
        chis = sorted(ref.chi(c, n, t) for _, t, _ in types)
        if all(b - a >= min_gap for a, b in zip(chis, chis[1:])):
            return types


def labels(types: list) -> list[str]:
    """Display labels in canonical order, as ``Population.labels`` gives them."""
    out = []
    for cls in ("HDV", "CAV"):
        members = [t for t in types if t[0] == cls]
        if len(members) == 1:
            out.append(cls)
        else:
            out.extend(f"{cls}{i + 1}" for i in range(len(members)))
    return out


def yfloat(x: float) -> str:
    """A float as YAML 1.1 reads it back exactly (``1e-05`` would be a string)."""
    if math.isnan(x):
        return ".nan"
    if math.isinf(x):
        return ".inf" if x > 0 else "-.inf"
    text = repr(float(x))
    if "e" in text and "." not in text:
        mantissa, exp = text.split("e")
        text = f"{mantissa}.0e{exp}"
    return text


def scenario_yaml(
    c: dict | None,
    n: tuple,
    types: list | None = None,
    sweep: tuple | None = None,
    flow_text: tuple | None = None,
    theta_text: dict | None = None,
) -> str:
    """Scenario document; ``flow_text``/``theta_text`` override raw values."""
    fl = flow_text or tuple(yfloat(v) for v in n)
    lines = [
        "flows:",
        f"  n0_enter: {fl[0]}",
        f"  n2_exit: {fl[1]}",
        f"  n2_s: {fl[2]}",
    ]
    if c is not None:
        lines.append("coefficients:")
        lines += [f"  {k}: {yfloat(c[k])}" for k in ref.COEFF_FIELDS]
    if types:
        lines.append("population:")
        for i, (cls, theta, weight) in enumerate(types):
            th = (theta_text or {}).get(i, yfloat(theta))
            lines += [
                f"  - class: {cls}",
                f"    theta_radians: {th}",
                f"    weight: {yfloat(weight)}",
            ]
    if sweep:
        lines += [
            "sweep:",
            f"  start: {yfloat(sweep[0])}",
            f"  stop: {yfloat(sweep[1])}",
            f"  step: {yfloat(sweep[2])}",
        ]
    return "\n".join(lines) + "\n"


def observations(r: random.Random, truth: dict, count: int, noise: float) -> list:
    """(flows, share) pairs: the truth's selfish share plus uniform noise.

    Zero shares are redrawn because the relative-error score is undefined
    for them.
    """
    out = []
    while len(out) < count:
        n = flows(r)
        x = ref.clamp01(ref.clamp01(ref.crossing(truth, n)) + noise * r.uniform(-1.0, 1.0))
        if x > 0.0:
            out.append((n, x))
    return out


def truth_coeffs(r: random.Random) -> dict:
    """Calibration truth: unit costs at their pinned value, each weight
    within 30% of the calibrated reference the fit starts from."""
    c = dict(ref.DEFAULTS)
    for f in ref.COEFF_FIELDS[4:]:
        c[f] = ref.DEFAULTS[f] * r.uniform(0.7, 1.3)
    return c


def dataset_csv(obs: list) -> str:
    rows = ["n0_enter,n2_exit,n2_s,x1s"]
    rows += [",".join(format(v, ".17g") for v in (*n, x)) for n, x in obs]
    return "\n".join(rows) + "\n"


#: Kinds of scan configuration in the order they repeat: 5% with zero unit
#: costs (what a degenerate free-unit-cost fit writes), 10% with two types
#: whose thresholds nearly collide, 35% admissible, and 50% unconstrained
#: draws, most of them not admissible. A fixed order makes every batch of a
#: multiple of 20 configurations hold the same mix, whatever the seed.
SCAN_KINDS = ("zero-unit-costs",) + ("near-tie",) * 2 + ("admissible",) * 7 + ("any",) * 10


def scan_config(r: random.Random, kind: str) -> dict:
    """One configuration of the given kind, drawn across the input space."""
    types = random_types(r, r.randint(2, 8))
    if kind == "zero-unit-costs":
        c, n = coeffs(r), flows(r)
        for f in ref.UNIT_FIELDS:
            c[f] = 0.0
    elif kind == "near-tie":
        c, n = coeffs(r), flows(r)
        types = random_types(r, r.randint(3, 8))  # at least two CAV types
        theta = types[-2][1]
        types[-1] = ("CAV", theta + 1e-12 if theta < 1.5 else theta - 1e-12, types[-1][2])
    elif kind == "admissible":
        c, n = admissible_config(r, 1e-6)
    else:
        c, n = coeffs(r, 0.0, 5.0), flows(r)
    ps = sorted(r.random() for _ in range(3))
    lo, hi = sorted((r.random(), r.random()))
    return {"kind": kind, "c": c, "n": n, "types": types, "ps": ps, "range": (lo, max(hi, lo + 1e-9))}

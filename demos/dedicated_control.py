"""Walkthrough: steering the ramp with centrally commanded CAVs.

A central controller owns a fraction p of the Lane-1 through flow and
prescribes the share q_s of its vehicles that stay steadfast; the human
drivers then re-equilibrate around that allocation. The system delay as a
function of p has three regimes separated by two thresholds: a plateau where
selfish drivers absorb every gain, an improving window, and saturation at
the system optimum. The closed-form solver is compared head to head with the
general-domain solver, which needs no threshold ordering and certifies its
answer by complementarity residuals; the sweep is written to CSV and SVG.
"""

from pathlib import Path

from weavelane import (
    FlowConfig,
    RampConfig,
    cav_cost,
    penetration_thresholds,
    solve_closed,
    solve_numeric,
    sweep_penetration,
)
from weavelane.charts import write_line_chart

OUT = Path(__file__).resolve().parent / "output"
OUT.mkdir(exist_ok=True)

cfg = RampConfig(FlowConfig(1 / 3, 1 / 3, 1 / 3))
th = penetration_thresholds(cfg)
print(f"efficiency threshold p1 = {th.p1:.6f}  (gains start here)")
print(f"saturation threshold p2 = {th.p2:.6f}  (optimum reached here)")

print()
print("=== Closed form vs. general-domain solver ===")
print(f"{'p':>5} {'regime':>10} {'x1s_total':>10} {'q_s*':>9} {'j_soc':>10} {'|closed-numeric|':>17}")
for p in (0.1, 0.3, th.p1 + 0.01, 0.61, th.p2 + 0.05, 0.9, 1.0):
    closed = solve_closed(cfg, p)
    numeric = solve_numeric(cfg, p)
    print(
        f"{p:5.2f} {str(closed.regime):>10} {closed.x1s_total:10.6f} "
        f"{closed.q_s_star:9.6f} {closed.j_soc:10.6f} "
        f"{abs(closed.j_soc - numeric.j_soc):17.2e}"
    )

print()
print("=== Penetration sweep ===")
grid = [i / 200 for i in range(201)]
records = sweep_penetration(cfg, grid)
csv_path = OUT / "dedicated_sweep.csv"
with csv_path.open("w", encoding="utf-8", newline="\n") as handle:
    handle.write("p,x1s_total,q_s,j_soc,j_cav,regime\n")
    for r in records:
        handle.write(
            f"{r.p!r},{r.x1s_total!r},{r.q_s!r},{r.j_soc!r},{r.j_cav!r},{r.regime_label}\n"
        )
write_line_chart(
    OUT / "dedicated_sweep.svg",
    [r.p for r in records],
    [r.j_soc for r in records],
    title="system delay under dedicated CAV control",
    x_label="penetration rate p",
    y_label="j_soc",
    markers=[(th.p1, "p1"), (th.p2, "p2")],
)
print(f"wrote {csv_path.name} and dedicated_sweep.svg under {OUT}")

plateau = [r for r in records if r.regime_label == "Plateau"]
print(
    f"\nthe first {len(plateau)} of {len(records)} grid points sit on the plateau:"
    f" every altruistic move by the controller is soaked up by selfish"
    f" re-routing until p exceeds p1."
)
sol = solve_closed(cfg, 0.75)
print(
    f"past p2, e.g. p = 0.75: the controller backs off to q_s* = "
    f"{sol.q_s_star:.4f} and holds the share at the optimum "
    f"{sol.x1s_total:.6f} (CAV-side delay {cav_cost(cfg, sol):.4f})."
)

"""The landscape of genus-one spectral curves.

Sweeps one annulus component (ratio 1) and one helicoid component
(ratio 1/2), demonstrates closure versus deck-shifted non-closure, tracks
the monodromy of the closing pair around two annuli, and enumerates
components.  Writes the annulus sweep to CSV and OBJ in the current
directory.

Run:  python demos/moduli_landscape.py
"""

import math
from fractions import Fraction
from pathlib import Path

from harmonictori import (
    RunConfig, T_tilde, classify_component, deck_lambda_tilde, inverse_coords,
    moduli_summary, monodromy_track, solve_level, sweep_level_set,
)
from harmonictori.cli import _write_level_set, _write_mesh_obj

TWO_PI = 2 * math.pi
out_dir = Path.cwd()

print("annulus component: ratio p = 1, level q = 1 (the inversion-symmetric family)")
mesh = sweep_level_set(Fraction(1), Fraction(1), k_grid=4, angle_grid=13,
                       angle_span=TWO_PI, k_min=0.25, k_max=0.75)
rows = len(mesh.k_values)
cols = len(mesh.angle_values)
first, last = mesh.records[0], mesh.records[cols - 1]
print(f"  {len(mesh.records)} points; closure over a full turn: "
      f"|alpha_end - alpha_start| = {abs(last.alpha - first.alpha):.2e}")
print(f"  symmetry on the leaf: max |alpha + beta| = "
      f"{max(abs(r.alpha + r.beta) for r in mesh.records):.2e}")

class _Args:  # the CLI writers take the parsed argument object
    span = TWO_PI

csv_path, obj_path = out_dir / "annulus.csv", out_dir / "annulus.obj"
cfg = RunConfig(k_min=0.25, k_max=0.75)
_write_level_set(mesh, cfg, _Args, str(csv_path))
_write_mesh_obj(mesh, str(obj_path))
print(f"  wrote {csv_path.name} and {obj_path.name}")

print("\nhelicoid component: ratio p = 1/2, level q = 0")
mp0 = solve_level(0.5, 0.0, 0.5, 0.2)
mp1 = solve_level(0.5, 0.0, 0.5, 0.2 + TWO_PI)
bp0, bp1 = inverse_coords(mp0), inverse_coords(mp1)
print(f"  a full turn does NOT close the leaf: "
      f"|alpha_end - alpha_start| = {abs(bp1.alpha - bp0.alpha):.3f}")
lam = deck_lambda_tilde(mp0)
print(f"  the deck generator shifts the level by p - 1: "
      f"{T_tilde(lam) - T_tilde(mp0):+.9f}")
print(f"  so levels q and q + (p-1) are the same component: "
      f"{classify_component(Fraction(1, 2), Fraction(0))} == "
      f"{classify_component(Fraction(1, 2), Fraction(-1, 2))}")

print("\nmonodromy of the closing pair around annuli:")
for q in (Fraction(0), Fraction(1, 2)):
    c = monodromy_track(q, loop_samples=32)
    print(f"  level q = {q}: one loop shifts psi_P by {c} psi_E")

print("\ncomponent summaries:")
for p, q in ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(1, 2)),
             (Fraction(1, 3), Fraction(0)), (Fraction(1, 3), Fraction(1, 4))):
    s = moduli_summary(p, q)
    mono = f", monodromy {s.monodromy}" if s.monodromy is not None else ""
    print(f"  (p, q) = ({p}, {q}): {s.component.kind}, l = {s.l}{mono}")

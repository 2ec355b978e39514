"""Tour of the elliptic integral layer.

Walks through the complete integrals, Legendre's relation, the incomplete
integrals restricted to the imaginary axis, and their lifts to the universal
cover of the circle, printing small tables along the way.

Run:  python demos/elliptic_toolbox.py
"""

import math

from harmonictori import (
    complementary_KE, complete_E, complete_K, incomplete_E_reg_imag,
    incomplete_F_imag, legendre_defect, lifted_E, lifted_F,
)

print("Complete integrals from Carlson's R_F and R_D")
print(f"{'k':>6} {'K(k)':>18} {'E(k)':>18} {'Legendre defect':>16}")
for k in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
    print(f"{k:6.2f} {complete_K(k):18.15f} {complete_E(k):18.15f} "
          f"{legendre_defect(k):16.2e}")

# Both integrals tend to pi/2 at k = 0, and K' bounds the imaginary-axis
# incomplete integral of the first kind.
k = 0.5
Kp, KmEp = complementary_KE(k)
print(f"\nAt k = {k}: K' = {Kp:.12f}, K' - E' = {KmEp:.12f}")
print(f"{'x':>8} {'Im F(ix)':>16} {'Im(E(ix) - kix)':>16}")
for x in (0.5, 1.0, 2.0, 10.0, 1e6):
    print(f"{x:8.1f} {incomplete_F_imag(x, k):16.12f} "
          f"{incomplete_E_reg_imag(x, k):16.12f}")
print("The x -> infinity rows saturate at K' and K' - E'.")

# The lifts gain fixed increments per turn of the cover, and the Legendre
# combination gains exactly pi, which is what makes the level function of
# the moduli space single valued upstairs.
print("\nLifted integrals along the cover (k = 0.5)")
print(f"{'x~':>8} {'F~':>14} {'E~':>14} {'E F~ - K E~':>14} {'turn':>8}")
K, E = complete_K(k), complete_E(k)
for turn in range(-1, 3):
    xt = 0.8 + 2 * math.pi * turn
    comb = E * lifted_F(xt, k) - K * lifted_E(xt, k)
    print(f"{xt:8.3f} {lifted_F(xt, k):14.9f} {lifted_E(xt, k):14.9f} "
          f"{comb:14.9f} {turn:8d}")
print("Each turn adds 2K' to F~, 2(K'-E') to E~, and pi to the combination.")

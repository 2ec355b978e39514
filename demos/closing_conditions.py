"""Finding a spectral curve and building its minimal closing differentials.

Solves the two rationality conditions for a target (S, T) = (1/3, 1/4),
verifies the curve by independent contour quadrature, constructs the minimal
pair of closing differentials, and runs the full spectral-data checklist.

Run:  python demos/closing_conditions.py
"""

import math
from fractions import Fraction

from harmonictori import (
    build_frame, construct_psi, contour_integral, gamma0_path,
    hitchin_checklist, inverse_coords, loop_A, loop_B, solve_level,
    spectral_test, theta_P_gamma_closed, T_tilde,
)
from harmonictori.elliptic import complementary_KE, complete_K

S, T = Fraction(1, 3), Fraction(1, 4)
print(f"target: S = {S}, lifted level = {T}")

mp = solve_level(float(S), float(T), k=0.5, fixed_angle=0.3)
bp = inverse_coords(mp)
print(f"solved curve: alpha = {bp.alpha:.10f}, beta = {bp.beta:.10f}")
print(f"  level residual: {T_tilde(mp) - float(T):.2e}")
print(f"  detection round trip: {spectral_test(bp, 20)}")

fr = build_frame(bp)
K = complete_K(fr.k)
Kp = complementary_KE(fr.k)[0]

print("\nperiods by contour quadrature with sheet tracking:")
for kind, loop, name, expect in (
        ("omega", loop_A(fr), "A . omega ", 4 * K),
        ("omega", loop_B(fr), "B . omega ", 2j * Kp),
        ("theta_P", loop_A(fr), "A . thetaP", 0.0),
        ("theta_P", loop_B(fr), "B . thetaP", 2j * math.pi)):
    val = contour_integral(kind, loop, fr)
    print(f"  {name} = {val:>24.12f}   expected {expect:.12f}")

print("\nclosing integrals over the principal paths:")
for s, label in ((1, "gamma+"), (-1, "gamma-")):
    closed = theta_P_gamma_closed(s, fr)
    quad = contour_integral("theta_P", gamma0_path(s, fr), fr)
    print(f"  {label}: closed {closed:.12f}, quadrature {quad:.12f}, "
          f"difference {abs(closed - quad):.2e}")

cd = construct_psi(S, T, fr)
print(f"\nminimal closing pair: l = {cd.l}, a = {cd.a:.10f}, b = {cd.b:.10f}")
print(f"  closing integers: psi_E -> ({cd.n}, {cd.m}), "
      f"psi_P -> ({cd.gamma_plus}, {cd.gamma_minus})")
print(f"  closed-form rounding residual: {cd.residual:.2e}")

print("\nspectral-data checklist:")
for e in hitchin_checklist(fr, cd):
    print(f"  {e.item:34s} residual {e.residual:.3e}")

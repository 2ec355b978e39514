"""Independent reference values for the output checks, from mpmath.

The lifted integrals use the Jacobi imaginary transformation at the
complementary parameter m = k'^2 = 1 - k^2 with theta = x~/2:

    lifted_F(x~) = F(theta | m)
    lifted_E(x~) = F(theta | m) - E(theta | m)
                   + k'^2 sin(theta) cos(theta) / (sqrt(1 - k'^2 sin^2 theta) + k)

and T~ combines them with the algebraic bracket of the level function,
evaluated literally at 20 digits (no cancellation-free rearrangement needed).
Nothing here imports the library under test.
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 20


def lifted_F(x_tilde: float, k) -> mp.mpf:
    return mp.ellipf(mp.mpf(x_tilde) / 2, 1 - mp.mpf(k) ** 2)


def lifted_E(x_tilde: float, k) -> mp.mpf:
    k = mp.mpf(k)
    m = 1 - k * k
    theta = mp.mpf(x_tilde) / 2
    s, c = mp.sin(theta), mp.cos(theta)
    return (mp.ellipf(theta, m) - mp.ellipe(theta, m)
            + m * s * c / (mp.sqrt(1 - m * s * s) + k))


def t_tilde(p: float, k: float, u_tilde: float, v_tilde: float) -> float:
    """The lifted level function T~(p, k, u~, v~)."""
    p, k = mp.mpf(p), mp.mpf(k)
    K, E = mp.ellipk(k * k), mp.ellipe(k * k)
    fv = E * lifted_F(v_tilde, k) - K * lifted_E(v_tilde, k)
    fu = E * lifted_F(u_tilde, k) - K * lifted_E(u_tilde, k)
    u, v = mp.tan(mp.mpf(u_tilde) / 2), mp.tan(mp.mpf(v_tilde) / 2)
    wu = mp.sqrt((1 + u * u) * (1 + k * k * u * u))
    wv = mp.sqrt((1 + v * v) * (1 + k * k * v * v))
    bracket = p * (wv / (u - v) + k * v) + (wu / (u - v) - k * u)
    return float((4 * p * fv - 4 * fu - 4 * K * bracket) / (2 * mp.pi))


def closing_ratio(alpha: complex, beta: complex) -> float:
    """S = |1 - alpha||1 - beta| / (|1 + alpha||1 + beta|)."""
    return (abs(1 - alpha) * abs(1 - beta)) / (abs(1 + alpha) * abs(1 + beta))

"""Seeded invariant suites binding the modules together.

Each suite runs a set of identities at documented tolerances over seeded
random samples and reports the worst residual per invariant, together with
the sample that produced it so failures can be replayed.  The CLI ``verify``
command is a thin front end over these functions.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .curves import (
    BranchPair, ModuliPoint, build_frame, chi_negate, circle_points,
    deck_lambda_tilde, forward_coords, inverse_coords, lambda_swap,
)
from .differentials import (
    construct_psi, contour_integral, eta_plus, gamma0_path, hitchin_checklist,
    loop_A, loop_B, theta_P_characterization_check, theta_P_gamma_closed,
)
from .elliptic import (
    TWO_PI, complementary_modulus, complete_E, complete_K, incomplete_F_imag,
    legendre_defect, lifted_E, lifted_F,
)
from .moduli import S_value, T_tilde, dT_tilde_du_tilde


@dataclass
class InvariantResult:
    name: str
    residual: float
    tolerance: float
    sample: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.residual < self.tolerance

    def line(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        return (f"[{mark}] {self.name}: max residual {self.residual:.3e}"
                f" (tolerance {self.tolerance:.1e})")


def _random_pair(rng, radius=0.8, min_gap=5e-2) -> BranchPair:
    while True:
        a = complex(*rng.uniform(-radius, radius, 2))
        b = complex(*rng.uniform(-radius, radius, 2))
        if abs(a) < radius and abs(b) < radius and abs(a - b) > min_gap:
            return BranchPair(a, b)


def _random_frame(rng, max_uv=25.0):
    while True:
        fr = build_frame(_random_pair(rng))
        if max(abs(fr.u), abs(fr.v)) < max_uv:
            return fr


def suite_elliptic(seed: int = 0) -> list[InvariantResult]:
    rng = np.random.default_rng(seed)
    out = []

    ks = np.geomspace(1e-6, 1 - 1e-6, 50)
    worst, at = 0.0, None
    for k in ks:
        r = abs(legendre_defect(float(k)))
        if r > worst:
            worst, at = r, float(k)
    out.append(InvariantResult("legendre relation on 50 moduli", worst, 1e-11,
                               {"k": at}))

    worst, at = 0.0, None
    for _ in range(100):
        k = float(rng.uniform(0.05, 0.95))
        xt = float(rng.uniform(-10, 10))
        K, E = complete_K(k), complete_E(k)
        r = abs(E * lifted_F(xt + TWO_PI, k) - K * lifted_E(xt + TWO_PI, k)
                - E * lifted_F(xt, k) + K * lifted_E(xt, k) - math.pi)
        if r > worst:
            worst, at = r, {"k": k, "x_tilde": xt}
    out.append(InvariantResult("lift quasi-periodicity", worst, 1e-10, at or {}))

    worst, at = 0.0, None
    for _ in range(50):
        k = float(rng.uniform(0.05, 0.95))
        xt = float(rng.uniform(0, 9))
        r = max(abs(lifted_F(-xt, k) + lifted_F(xt, k)),
                abs(lifted_E(-xt, k) + lifted_E(xt, k)))
        if r > worst:
            worst, at = r, {"k": k, "x_tilde": xt}
    out.append(InvariantResult("lift oddness", worst, 1e-12, at or {}))

    worst, at = 0.0, None
    for _ in range(50):
        k = float(rng.uniform(0.05, 0.95))
        xt = float(rng.uniform(-math.pi + 0.01, math.pi - 0.01))
        r = abs(lifted_F(xt, k) - incomplete_F_imag(math.tan(xt / 2), k))
        if r > worst:
            worst, at = r, {"k": k, "x_tilde": xt}
    out.append(InvariantResult("chart consistency of the lift", worst, 1e-12,
                               at or {}))

    k = 0.6
    xs = np.linspace(-7, 7, 57)
    vals = [lifted_F(float(x), k) for x in xs]
    mono = min(b - a for a, b in zip(vals, vals[1:]))
    out.append(InvariantResult("lift monotonicity (min increment > 0)",
                               0.0 if mono > 0 else 1.0, 0.5, {"k": k}))
    return out


def suite_curves(seed: int = 0) -> list[InvariantResult]:
    rng = np.random.default_rng(seed)
    out = []

    worst, at = 0.0, None
    for _ in range(500):
        bp = _random_pair(rng)
        fr = build_frame(bp)
        rs = [abs(fr.f(bp.alpha) - 1.0), abs(fr.f(bp.alpha_mirror) + 1.0),
              abs(fr.f(bp.beta) - 1.0 / fr.k) * fr.k,
              abs(fr.scale + fr.z0.conjugate())]
        for th in rng.uniform(0, TWO_PI, 4):
            z = fr.f(cmath.exp(1j * th))
            if not cmath.isinf(z):
                rs.append(abs(z.real) / max(1.0, abs(z)))
        r = max(rs)
        if r > worst:
            worst, at = r, {"alpha": str(bp.alpha), "beta": str(bp.beta)}
    out.append(InvariantResult("frame normalization on 500 pairs", worst,
                               1e-10, at or {}))

    worst, at = 0.0, None
    for _ in range(200):
        bp = _random_pair(rng)
        mp = forward_coords(bp)
        bp2 = inverse_coords(mp)
        r = max(abs(bp2.alpha - bp.alpha), abs(bp2.beta - bp.beta))
        if r > worst:
            worst, at = r, {"alpha": str(bp.alpha), "beta": str(bp.beta)}
    out.append(InvariantResult("coordinate round trip", worst, 1e-9, at or {}))

    worst, at = 0.0, None
    for _ in range(100):
        bp = _random_pair(rng)
        r = max(abs(S_value(lambda_swap(bp)) - S_value(bp)),
                abs(S_value(chi_negate(bp)) * S_value(bp) - 1.0),
                abs(build_frame(lambda_swap(bp)).k - build_frame(bp).k),
                abs(build_frame(chi_negate(bp)).k - build_frame(bp).k))
        if r > worst:
            worst, at = r, {"alpha": str(bp.alpha), "beta": str(bp.beta)}
    out.append(InvariantResult("S and k symmetry identities", worst, 1e-12,
                               at or {}))

    worst, at = 0.0, None
    for _ in range(30):
        fr = _random_frame(rng)
        bp = fr.pair
        c = fr.eta_to_w_scale
        for th in rng.uniform(0, TWO_PI, 6):
            zeta = cmath.exp(1j * th)
            if abs(zeta - fr.nu) < 0.2:
                continue
            w = c * eta_plus(zeta, bp) / (zeta - fr.nu) ** 2
            x = fr.f(zeta).imag
            expect = math.sqrt((1 + x * x) * (1 + fr.k**2 * x * x))
            r = abs(w - expect) / max(1.0, expect)
            if r > worst:
                worst, at = r, {"alpha": str(bp.alpha), "beta": str(bp.beta)}
    out.append(InvariantResult("sheet convention eta+ to w+", worst, 1e-9,
                               at or {}))

    worst, at = 0.0, None
    for _ in range(50):
        bp = _random_pair(rng)
        mu, nu = circle_points(bp)
        mu2, nu2 = circle_points(lambda_swap(bp))
        r = max(abs(mu2 - nu), abs(nu2 - mu))
        if r > worst:
            worst, at = r, {"alpha": str(bp.alpha), "beta": str(bp.beta)}
    out.append(InvariantResult("relabeling exchanges mu and nu", worst, 1e-12,
                               at or {}))
    return out


def suite_differentials(seed: int = 0) -> list[InvariantResult]:
    rng = np.random.default_rng(seed)
    out = []

    worst, at = 0.0, None
    for _ in range(4):
        fr = _random_frame(rng)
        k = fr.k
        K, E = complete_K(k), complete_E(k)
        kp = complementary_modulus(k)
        Kp, Ep = complete_K(kp), complete_E(kp)
        A, B = loop_A(fr), loop_B(fr)
        for kind, loop, expect in (
                ("omega", A, 4 * K), ("e", A, 4 * E), ("epsilon", A, 4 * E),
                ("theta_P", A, 0.0), ("theta_E", A, 0.0),
                ("omega", B, 2j * Kp), ("e", B, 2j * (Kp - Ep)),
                ("epsilon", B, 2j * (Kp - Ep)), ("theta_P", B, 2j * math.pi),
                ("theta_E", B, 0.0)):
            val = contour_integral(kind, loop, fr)
            r = abs(val - expect) / max(1.0, abs(expect))
            if r > worst:
                worst, at = r, {"kind": kind,
                                "alpha": str(fr.pair.alpha),
                                "beta": str(fr.pair.beta)}
    out.append(InvariantResult("period table by quadrature", worst, 1e-8,
                               at or {}))

    worst, at = 0.0, None
    for _ in range(5):
        fr = _random_frame(rng)
        for s in (1, -1):
            r = abs(theta_P_gamma_closed(s, fr)
                    - contour_integral("theta_P", gamma0_path(s, fr), fr))
            if r > worst:
                worst, at = r, {"sign": s, "alpha": str(fr.pair.alpha),
                                "beta": str(fr.pair.beta)}
    out.append(InvariantResult("closed form vs quadrature on gamma paths",
                               worst, 1e-6, at or {}))

    worst, at = 0.0, None
    for _ in range(10):
        fr = _random_frame(rng)
        r = abs(theta_P_characterization_check(fr))
        if r > worst:
            worst, at = r, {"alpha": str(fr.pair.alpha),
                            "beta": str(fr.pair.beta)}
    out.append(InvariantResult("principal part characterization", worst, 1e-8,
                               at or {}))

    from .moduli import solve_level
    S, T = Fraction(1, 3), Fraction(1, 4)
    mp = solve_level(float(S), float(T), 0.5, 0.3)
    fr = build_frame(inverse_coords(mp))
    cd = construct_psi(S, T, fr)
    entries = hitchin_checklist(fr, cd)
    worst_entry = max(entries, key=lambda e: e.residual)
    out.append(InvariantResult("checklist on a constructed closing pair",
                               worst_entry.residual, 1e-7,
                               {"item": worst_entry.item}))
    return out


def suite_moduli(seed: int = 0) -> list[InvariantResult]:
    rng = np.random.default_rng(seed)
    from .moduli import solve_level, t0_raw, t_tilde_raw
    out = []

    worst, at = 0.0, None
    for p in (1 / 3, 1 / 2, 1.0, 2.0, 3.0):
        for _ in range(40):
            k = float(rng.uniform(0.1, 0.9))
            ut = float(rng.uniform(-math.pi, math.pi - 1e-3))
            vt = ut + float(rng.uniform(0.05, TWO_PI - 0.1))
            mp = ModuliPoint(p=p, k=k, u_tilde=ut, v_tilde=vt)
            lam = deck_lambda_tilde(mp)
            r = abs(T_tilde(lam) - T_tilde(mp) - (p - 1.0))
            if r > worst:
                worst, at = r, {"p": p, "k": k, "u_tilde": ut, "v_tilde": vt}
    out.append(InvariantResult("deck shift of the level function", worst, 1e-9,
                               at or {}))

    worst, at = 0.0, None
    for _ in range(100):
        p = float(rng.uniform(0.2, 5.0))
        k = float(rng.uniform(0.1, 0.9))
        u, v = map(float, rng.uniform(-3, 3, 2))
        if abs(u - v) < 1e-2:
            continue
        r = abs(t0_raw(p, k, u, v) + p * t0_raw(1.0 / p, k, v, u))
        if r > worst:
            worst, at = r, {"p": p, "k": k, "u": u, "v": v}
    out.append(InvariantResult("inversion symmetry of T0", worst, 1e-10,
                               at or {}))

    worst, at = 0.0, None
    for p in (1.0, 1.7, 3.0):
        for _ in range(20):
            k = float(rng.uniform(0.1, 0.9))
            ut = float(rng.uniform(-math.pi, math.pi))
            vt = ut + float(rng.uniform(0.05, TWO_PI - 0.1))
            d = dT_tilde_du_tilde(p, k, ut, vt)
            if d <= 0:
                worst, at = 1.0, {"p": p, "k": k, "u_tilde": ut}
    out.append(InvariantResult("derivative positivity for p >= 1",
                               worst, 0.5, at or {}))

    worst, at = 0.0, None
    for _ in range(10):
        p = float(rng.uniform(0.3, 3.0))
        q = float(rng.uniform(-2, 2))
        k = float(rng.uniform(0.15, 0.85))
        ang = float(rng.uniform(-2, 2))
        mp = solve_level(p, q, k, ang)
        r = abs(T_tilde(mp) - q)
        band = mp.u_tilde < mp.v_tilde < mp.u_tilde + TWO_PI
        r = r if band else 1.0
        if r > worst:
            worst, at = r, {"p": p, "q": q, "k": k, "angle": ang}
    out.append(InvariantResult("level solver residual and band", worst, 1e-10,
                               at or {}))

    p, k, vt = 1.5, 0.5, 1.0
    hi = t_tilde_raw(p, k, vt - 1e-5, vt)
    lo = t_tilde_raw(p, k, vt - TWO_PI + 1e-5, vt)
    r = 0.0 if (hi > 1e3 and lo < -1e3) else 1.0
    out.append(InvariantResult("level function spans beyond +-1e3", r, 0.5,
                               {"p": p, "k": k, "v_tilde": vt}))

    # annulus closure / helicoid shift under one full turn of the cover
    mp0 = solve_level(1.0, 0.25, 0.5, 0.2)
    mp1 = solve_level(1.0, 0.25, 0.5, 0.2 + TWO_PI)
    bp0, bp1 = inverse_coords(mp0), inverse_coords(mp1)
    r_closure = max(abs(bp1.alpha - bp0.alpha), abs(bp1.beta - bp0.beta))
    out.append(InvariantResult("annulus closure at p = 1", r_closure, 1e-8,
                               {"q": 0.25}))
    mp0 = solve_level(0.5, 0.0, 0.5, 0.2)
    lam = deck_lambda_tilde(mp0)
    r_shift = abs(T_tilde(lam) - (0.5 - 1.0))
    out.append(InvariantResult("helicoid leaf shift at p = 1/2", r_shift, 1e-9,
                               {"q": 0.0}))
    return out


SUITES = {
    "elliptic": suite_elliptic,
    "curves": suite_curves,
    "differentials": suite_differentials,
    "moduli": suite_moduli,
}


def run_suites(which: str = "all", seed: int = 0) -> list[InvariantResult]:
    if which == "all":
        names = list(SUITES)
    elif which in SUITES:
        names = [which]
    else:
        raise ValueError(f"unknown suite {which!r}; choose from "
                         f"{['all', *SUITES]}")
    results = []
    for name in names:
        results.extend(SUITES[name](seed))
    return results

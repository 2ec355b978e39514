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
    BranchPair, ModuliPoint, _inverse_coords_array, build_frame, chi_negate, circle_points,
    deck_lambda_tilde, forward_coords, inverse_coords, lambda_swap,
)
from .differentials import (
    ContinuationError, construct_psi, contour_integral, eta_plus, gamma0_path,
    hitchin_checklist, loop_A, loop_B, monodromy_track, theta_P_characterization_check,
    theta_P_gamma_closed,
)
from .elliptic import (
    TWO_PI, complementary_KE, complete_E, complete_K, incomplete_F_imag,
    legendre_defect, lifted_E, lifted_F,
)
from .moduli import (
    LevelSolveError, S_value, T_tilde, dT_tilde_du_tilde, moduli_summary, solve_level, t0_raw,
    t_tilde_raw,
)


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


def _worst(name: str, tolerance: float, trials) -> InvariantResult:
    """The largest residual over (residual, sample) trials, with its sample.

    A nan residual counts as worse than any number and is kept, so it fails.
    """
    worst, at = 0.0, {}
    for r, sample in trials:
        if worst == worst and not r <= worst:
            worst, at = r, sample
    return InvariantResult(name, worst, tolerance, at)


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


def _pair_sample(bp: BranchPair) -> dict:
    return {"alpha": str(bp.alpha), "beta": str(bp.beta)}


def suite_elliptic(seed: int = 0) -> list[InvariantResult]:
    rng = np.random.default_rng(seed)
    out = [_worst("legendre relation on 50 moduli", 1e-11,
                  ((abs(legendre_defect(float(k))), {"k": float(k)})
                   for k in np.geomspace(1e-6, 1 - 1e-6, 50)))]

    def quasi_periodicity():
        for _ in range(100):
            k = float(rng.uniform(0.05, 0.95))
            xt = float(rng.uniform(-10, 10))
            K, E = complete_K(k), complete_E(k)
            yield (abs(E * lifted_F(xt + TWO_PI, k) - K * lifted_E(xt + TWO_PI, k)
                       - E * lifted_F(xt, k) + K * lifted_E(xt, k) - math.pi),
                   {"k": k, "x_tilde": xt})
    out.append(_worst("lift quasi-periodicity", 1e-10, quasi_periodicity()))

    def oddness():
        for _ in range(50):
            k = float(rng.uniform(0.05, 0.95))
            xt = float(rng.uniform(0, 9))
            for r in (abs(lifted_F(-xt, k) + lifted_F(xt, k)),
                      abs(lifted_E(-xt, k) + lifted_E(xt, k))):
                yield r, {"k": k, "x_tilde": xt}
    out.append(_worst("lift oddness", 1e-12, oddness()))

    def chart_consistency():
        for _ in range(50):
            k = float(rng.uniform(0.05, 0.95))
            xt = float(rng.uniform(-math.pi + 0.01, math.pi - 0.01))
            yield (abs(lifted_F(xt, k) - incomplete_F_imag(math.tan(xt / 2), k)),
                   {"k": k, "x_tilde": xt})
    out.append(_worst("chart consistency of the lift", 1e-12, chart_consistency()))

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

    def frame_normalization():
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
            for r in rs:
                yield r, _pair_sample(bp)
    out.append(_worst("frame normalization on 500 pairs", 1e-10,
                      frame_normalization()))

    def round_trip():
        # the 200 pairs' coordinates map back in one call of the array map
        # of which inverse_coords is the one-point case
        pairs = [_random_pair(rng) for _ in range(200)]
        mps = [forward_coords(bp) for bp in pairs]
        alpha, beta, rejected = _inverse_coords_array(
            *(np.array(x) for x in zip(*((mp.p, mp.k, mp.u_tilde, mp.v_tilde) for mp in mps))))
        for bp, a, b, why in zip(pairs, alpha.tolist(), beta.tolist(), rejected):
            if why is not None:
                raise ValueError(why)
            for r in (abs(a - bp.alpha), abs(b - bp.beta)):
                yield r, _pair_sample(bp)
    out.append(_worst("coordinate round trip", 1e-9, round_trip()))

    def symmetry():
        for _ in range(100):
            bp = _random_pair(rng)
            for r in (abs(S_value(lambda_swap(bp)) - S_value(bp)),
                      abs(S_value(chi_negate(bp)) * S_value(bp) - 1.0),
                      abs(build_frame(lambda_swap(bp)).k - build_frame(bp).k),
                      abs(build_frame(chi_negate(bp)).k - build_frame(bp).k)):
                yield r, _pair_sample(bp)
    out.append(_worst("S and k symmetry identities", 1e-12, symmetry()))

    def sheet_convention():
        for _ in range(30):
            fr = _random_frame(rng)
            c = fr.eta_to_w_scale
            for th in rng.uniform(0, TWO_PI, 6):
                zeta = cmath.exp(1j * th)
                if abs(zeta - fr.nu) < 0.2:
                    continue
                w = c * eta_plus(zeta, fr.pair) / (zeta - fr.nu) ** 2
                x = fr.f(zeta).imag
                expect = math.sqrt((1 + x * x) * (1 + fr.k**2 * x * x))
                yield abs(w - expect) / max(1.0, expect), _pair_sample(fr.pair)
    out.append(_worst("sheet convention eta+ to w+", 1e-9, sheet_convention()))

    def relabeling():
        for _ in range(50):
            bp = _random_pair(rng)
            mu, nu = circle_points(bp)
            mu2, nu2 = circle_points(lambda_swap(bp))
            for r in (abs(mu2 - nu), abs(nu2 - mu)):
                yield r, _pair_sample(bp)
    out.append(_worst("relabeling exchanges mu and nu", 1e-12, relabeling()))
    return out


def suite_differentials(seed: int = 0) -> list[InvariantResult]:
    rng = np.random.default_rng(seed)
    out = []

    def period_table():
        for _ in range(4):
            fr = _random_frame(rng)
            k = fr.k
            K, E = complete_K(k), complete_E(k)
            Kp, KmEp = complementary_KE(k)
            A, B = loop_A(fr), loop_B(fr)
            for kind, loop, expect in (
                    ("omega", A, 4 * K), ("e", A, 4 * E), ("epsilon", A, 4 * E),
                    ("theta_P", A, 0.0), ("theta_E", A, 0.0),
                    ("omega", B, 2j * Kp), ("e", B, 2j * KmEp),
                    ("epsilon", B, 2j * KmEp), ("theta_P", B, 2j * math.pi),
                    ("theta_E", B, 0.0)):
                val = contour_integral(kind, loop, fr)
                yield (abs(val - expect) / max(1.0, abs(expect)),
                       {"kind": kind, **_pair_sample(fr.pair)})
    out.append(_worst("period table by quadrature", 1e-8, period_table()))

    def gamma_paths():
        for _ in range(5):
            fr = _random_frame(rng)
            for s in (1, -1):
                yield (abs(theta_P_gamma_closed(s, fr)
                           - contour_integral("theta_P", gamma0_path(s, fr), fr)),
                       {"sign": s, **_pair_sample(fr.pair)})
    out.append(_worst("closed form vs quadrature on gamma paths", 1e-8,
                      gamma_paths()))

    out.append(_worst("principal part characterization", 1e-8,
                      ((abs(theta_P_characterization_check(fr)), _pair_sample(fr.pair))
                       for fr in (_random_frame(rng) for _ in range(10)))))

    S, T = Fraction(1, 3), Fraction(1, 4)
    mp = solve_level(float(S), float(T), 0.5, 0.3)
    fr = build_frame(inverse_coords(mp))
    entries = hitchin_checklist(fr, construct_psi(S, T, fr))
    out.append(_worst("checklist on a constructed closing pair", 1e-7,
                      ((e.residual, {"item": e.item}) for e in entries)))
    return out


def suite_moduli(seed: int = 0) -> list[InvariantResult]:
    rng = np.random.default_rng(seed)
    out = []

    def deck_shift():
        for p in (1 / 3, 1 / 2, 1.0, 2.0, 3.0):
            for _ in range(40):
                k = float(rng.uniform(0.1, 0.9))
                ut = float(rng.uniform(-math.pi, math.pi - 1e-3))
                vt = ut + float(rng.uniform(0.05, TWO_PI - 0.1))
                mp = ModuliPoint(p=p, k=k, u_tilde=ut, v_tilde=vt)
                yield (abs(T_tilde(deck_lambda_tilde(mp)) - T_tilde(mp) - (p - 1.0)),
                       {"p": p, "k": k, "u_tilde": ut, "v_tilde": vt})
    out.append(_worst("deck shift of the level function", 1e-9, deck_shift()))

    def inversion():
        for _ in range(100):
            p = float(rng.uniform(0.2, 5.0))
            k = float(rng.uniform(0.1, 0.9))
            u, v = map(float, rng.uniform(-3, 3, 2))
            if abs(u - v) < 1e-2:
                continue
            yield (abs(t0_raw(p, k, u, v) + p * t0_raw(1.0 / p, k, v, u)),
                   {"p": p, "k": k, "u": u, "v": v})
    out.append(_worst("inversion symmetry of T0", 1e-10, inversion()))

    def positivity():
        for p in (1.0, 1.7, 3.0):
            for _ in range(20):
                k = float(rng.uniform(0.1, 0.9))
                ut = float(rng.uniform(-math.pi, math.pi))
                vt = ut + float(rng.uniform(0.05, TWO_PI - 0.1))
                d = dT_tilde_du_tilde(p, k, ut, vt)
                yield 0.0 if d > 0 else 1.0, {"p": p, "k": k, "u_tilde": ut}
    out.append(_worst("derivative positivity for p >= 1", 0.5, positivity()))

    def level_solver():
        for _ in range(10):
            p = float(rng.uniform(0.3, 3.0))
            q = float(rng.uniform(-2, 2))
            k = float(rng.uniform(0.15, 0.85))
            ang = float(rng.uniform(-2, 2))
            mp = solve_level(p, q, k, ang)
            band = mp.u_tilde < mp.v_tilde < mp.u_tilde + TWO_PI
            yield (abs(T_tilde(mp) - q) if band else 1.0,
                   {"p": p, "q": q, "k": k, "angle": ang})
    out.append(_worst("level solver residual and band", 1e-10, level_solver()))

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
    out.append(_worst("annulus closure at p = 1", 1e-8,
                      ((abs(z1 - z0), {"q": 0.25}) for z0, z1 in
                       ((bp0.alpha, bp1.alpha), (bp0.beta, bp1.beta)))))
    mp0 = solve_level(0.5, 0.0, 0.5, 0.2)
    lam = deck_lambda_tilde(mp0)
    r_shift = abs(T_tilde(lam) - (0.5 - 1.0))
    out.append(InvariantResult("helicoid leaf shift at p = 1/2", r_shift, 1e-9,
                               {"q": 0.0}))
    return out


def suite_bundle(seed: int = 0) -> list[InvariantResult]:
    """The monodromy of the bundle of spectral data over the annuli: around
    the annulus at q = n/d, monodromy_track gives moduli_summary's -d, the
    loop's end, the deck image of its start, lies on its level, and around
    a contractible loop the monodromy is 0; a loop that raises fails with
    its error.  The annuli, drawn first, take k log-uniformly from
    [1e-3, 0.99], so the small k where a level is hardest to solve is as
    likely as the middle.  Every loop also draws a sample count, which the
    loop no longer uses, so that a seed draws the same loops."""
    rng = np.random.default_rng(seed)

    def draw(contractible):
        d = int(rng.integers(1, 8))
        q = Fraction(int(rng.integers(-3 * d, 3 * d + 1)), d)
        k = float(rng.uniform(0.1, 0.9) if contractible else 1e-3 * 990.0 ** rng.uniform())
        u_tilde0 = float(rng.uniform(-math.pi, math.pi))
        return {"q": str(q), "loop_samples": round(8.0 * 16.0 ** rng.uniform()), "k": k,
                "u_tilde0": u_tilde0, "contractible": contractible,
                "expected": 0 if contractible else moduli_summary(1, q).monodromy}

    def trials(samples, residual):
        for sample in samples:
            try:
                yield residual(sample, Fraction(sample["q"]))
            except (LevelSolveError, ContinuationError) as exc:
                yield math.inf, {**sample, "error": f"{type(exc).__name__}: {exc}"}

    def monodromy(sample, q):
        got = monodromy_track(q, sample["loop_samples"], sample["k"], sample["u_tilde0"],
                              sample["contractible"])
        return abs(got - sample["expected"]), {**sample, "got": got}

    def end_level(sample, q):
        end = deck_lambda_tilde(solve_level(1.0, float(q), sample["k"], sample["u_tilde0"]))
        return abs(T_tilde(end) - float(q)), sample

    annuli = [draw(False) for _ in range(36)]
    return [_worst("annulus monodromy equals moduli_summary", 0.5, trials(annuli, monodromy)),
            _worst("annulus loop end lies on its level", 1e-9, trials(annuli, end_level)),
            _worst("contractible loop has monodromy 0", 0.5,
                   trials([draw(True) for _ in range(12)], monodromy))]


SUITES = {
    "elliptic": suite_elliptic,
    "curves": suite_curves,
    "differentials": suite_differentials,
    "moduli": suite_moduli,
    "bundle": suite_bundle,
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

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
    construct_psi, contour_integral, eta_plus, gamma0_path, hitchin_checklist, loop_A, loop_B,
    monodromy_track, theta_P_characterization_check, theta_P_gamma_closed,
)
from .elliptic import (
    TWO_PI, complementary_KE, complete_E, complete_K, incomplete_F_imag,
    legendre_defect, lifted_E, lifted_F,
)
from .moduli import (
    S_value, T_tilde, dT_tilde_du_tilde, moduli_summary, solve_level, t0_raw, t_tilde_raw,
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
    """The largest residual over the trials, with its sample: a trial is a
    draw's sample (a dict), shared by the bare residuals after it, or a
    (residual, sample) pair.  A nan residual counts as worse than any number
    and is kept, so it fails; so does an exception in the trials, with a
    sample naming it after the last draw."""
    worst, at, draw = 0.0, {}, {}
    try:
        for trial in trials:
            if isinstance(trial, dict):
                draw = trial
                continue
            r, sample = trial if isinstance(trial, tuple) else (trial, draw)
            if worst == worst and not r <= worst:
                worst, at = r, sample
    except Exception as exc:  # any error fails this invariant alone
        return InvariantResult(name, math.nan, tolerance,
                               {**draw, "error": f"{type(exc).__name__}: {exc}"})
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

    def legendre():
        for k in np.geomspace(1e-6, 1 - 1e-6, 50).tolist():
            yield {"k": k}
            yield abs(legendre_defect(k))
    out = [_worst("legendre relation on 50 moduli", 1e-11, legendre())]

    def quasi_periodicity():
        for _ in range(100):
            k = float(rng.uniform(0.05, 0.95))
            xt = float(rng.uniform(-10, 10))
            yield {"k": k, "x_tilde": xt}
            K, E = complete_K(k), complete_E(k)
            yield abs(E * lifted_F(xt + TWO_PI, k) - K * lifted_E(xt + TWO_PI, k)
                      - E * lifted_F(xt, k) + K * lifted_E(xt, k) - math.pi)
    out.append(_worst("lift quasi-periodicity", 1e-10, quasi_periodicity()))

    def oddness():
        for _ in range(50):
            k = float(rng.uniform(0.05, 0.95))
            xt = float(rng.uniform(0, 9))
            yield {"k": k, "x_tilde": xt}
            yield abs(lifted_F(-xt, k) + lifted_F(xt, k))
            yield abs(lifted_E(-xt, k) + lifted_E(xt, k))
    out.append(_worst("lift oddness", 1e-12, oddness()))

    def chart_consistency():
        for _ in range(50):
            k = float(rng.uniform(0.05, 0.95))
            xt = float(rng.uniform(-math.pi + 0.01, math.pi - 0.01))
            yield {"k": k, "x_tilde": xt}
            yield abs(lifted_F(xt, k) - incomplete_F_imag(math.tan(xt / 2), k))
    out.append(_worst("chart consistency of the lift", 1e-12, chart_consistency()))

    def monotonicity(k=0.6):
        yield {"k": k}
        vals = [lifted_F(x, k) for x in np.linspace(-7, 7, 57).tolist()]
        yield 0.0 if min(b - a for a, b in zip(vals, vals[1:])) > 0 else 1.0
    out.append(_worst("lift monotonicity (min increment > 0)", 0.5, monotonicity()))
    return out


def suite_curves(seed: int = 0) -> list[InvariantResult]:
    rng = np.random.default_rng(seed)
    out = []

    def frame_normalization():
        for _ in range(500):
            bp = _random_pair(rng)
            yield _pair_sample(bp)
            fr = build_frame(bp)
            rs = [abs(fr.f(bp.alpha) - 1.0), abs(fr.f(bp.alpha_mirror) + 1.0),
                  abs(fr.f(bp.beta) - 1.0 / fr.k) * fr.k,
                  abs(fr.scale + fr.z0.conjugate())]
            for th in rng.uniform(0, TWO_PI, 4):
                z = fr.f(cmath.exp(1j * th))
                if not cmath.isinf(z):
                    rs.append(abs(z.real) / max(1.0, abs(z)))
            yield from rs
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
            yield _pair_sample(bp)
            if why is not None:
                raise ValueError(why)
            yield from (abs(a - bp.alpha), abs(b - bp.beta))
    out.append(_worst("coordinate round trip", 1e-9, round_trip()))

    def symmetry():
        for _ in range(100):
            bp = _random_pair(rng)
            yield _pair_sample(bp)
            yield abs(S_value(lambda_swap(bp)) - S_value(bp))
            yield abs(S_value(chi_negate(bp)) * S_value(bp) - 1.0)
            yield abs(build_frame(lambda_swap(bp)).k - build_frame(bp).k)
            yield abs(build_frame(chi_negate(bp)).k - build_frame(bp).k)
    out.append(_worst("S and k symmetry identities", 1e-12, symmetry()))

    def sheet_convention():
        for _ in range(30):
            fr = _random_frame(rng)
            yield _pair_sample(fr.pair)
            c = fr.eta_to_w_scale
            for th in rng.uniform(0, TWO_PI, 6):
                zeta = cmath.exp(1j * th)
                if abs(zeta - fr.nu) < 0.2:
                    continue
                w = c * eta_plus(zeta, fr.pair) / (zeta - fr.nu) ** 2
                x = fr.f(zeta).imag
                expect = math.sqrt((1 + x * x) * (1 + fr.k**2 * x * x))
                yield abs(w - expect) / max(1.0, expect)
    out.append(_worst("sheet convention eta+ to w+", 1e-9, sheet_convention()))

    def relabeling():
        for _ in range(50):
            bp = _random_pair(rng)
            yield _pair_sample(bp)
            mu, nu = circle_points(bp)
            mu2, nu2 = circle_points(lambda_swap(bp))
            yield from (abs(mu2 - nu), abs(nu2 - mu))
    out.append(_worst("relabeling exchanges mu and nu", 1e-12, relabeling()))
    return out


def suite_differentials(seed: int = 0) -> list[InvariantResult]:
    rng = np.random.default_rng(seed)
    out = []

    def period_table():
        for _ in range(4):
            fr = _random_frame(rng)
            yield _pair_sample(fr.pair)
            K, E = complete_K(fr.k), complete_E(fr.k)
            Kp, KmEp = complementary_KE(fr.k)
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
                yield {"sign": s, **_pair_sample(fr.pair)}
                yield abs(theta_P_gamma_closed(s, fr)
                          - contour_integral("theta_P", gamma0_path(s, fr), fr))
    out.append(_worst("closed form vs quadrature on gamma paths", 1e-8, gamma_paths()))

    def characterization():
        for _ in range(10):
            fr = _random_frame(rng)
            yield _pair_sample(fr.pair)
            yield abs(theta_P_characterization_check(fr))
    out.append(_worst("principal part characterization", 1e-8, characterization()))

    def checklist(S=Fraction(1, 3), T=Fraction(1, 4)):
        fr = build_frame(inverse_coords(solve_level(float(S), float(T), 0.5, 0.3)))
        for e in hitchin_checklist(fr, construct_psi(S, T, fr)):
            yield e.residual, {"item": e.item}
    out.append(_worst("checklist on a constructed closing pair", 1e-7, checklist()))
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
                yield {"p": p, "k": k, "u_tilde": ut, "v_tilde": vt}
                mp = ModuliPoint(p=p, k=k, u_tilde=ut, v_tilde=vt)
                yield abs(T_tilde(deck_lambda_tilde(mp)) - T_tilde(mp) - (p - 1.0))
    out.append(_worst("deck shift of the level function", 1e-9, deck_shift()))

    def inversion():
        for _ in range(100):
            p = float(rng.uniform(0.2, 5.0))
            k = float(rng.uniform(0.1, 0.9))
            u, v = map(float, rng.uniform(-3, 3, 2))
            if abs(u - v) < 1e-2:
                continue
            yield {"p": p, "k": k, "u": u, "v": v}
            yield abs(t0_raw(p, k, u, v) + p * t0_raw(1.0 / p, k, v, u))
    out.append(_worst("inversion symmetry of T0", 1e-10, inversion()))

    def positivity():
        for p in (1.0, 1.7, 3.0):
            for _ in range(20):
                k = float(rng.uniform(0.1, 0.9))
                ut = float(rng.uniform(-math.pi, math.pi))
                vt = ut + float(rng.uniform(0.05, TWO_PI - 0.1))
                yield {"p": p, "k": k, "u_tilde": ut}
                yield 0.0 if dT_tilde_du_tilde(p, k, ut, vt) > 0 else 1.0
    out.append(_worst("derivative positivity for p >= 1", 0.5, positivity()))

    def level_solver():
        for _ in range(10):
            p = float(rng.uniform(0.3, 3.0))
            q = float(rng.uniform(-2, 2))
            k = float(rng.uniform(0.15, 0.85))
            ang = float(rng.uniform(-2, 2))
            yield {"p": p, "q": q, "k": k, "angle": ang}
            mp = solve_level(p, q, k, ang)
            yield abs(T_tilde(mp) - q) if mp.u_tilde < mp.v_tilde < mp.u_tilde + TWO_PI else 1.0
    out.append(_worst("level solver residual and band", 1e-10, level_solver()))

    def spans(p=1.5, k=0.5, vt=1.0):
        yield {"p": p, "k": k, "v_tilde": vt}
        hi, lo = (t_tilde_raw(p, k, ut, vt) for ut in (vt - 1e-5, vt - TWO_PI + 1e-5))
        yield 0.0 if (hi > 1e3 and lo < -1e3) else 1.0
    out.append(_worst("level function spans beyond +-1e3", 0.5, spans()))

    # annulus closure / helicoid shift under one full turn of the cover
    def closure():
        yield {"q": 0.25}
        bp0, bp1 = (inverse_coords(solve_level(1.0, 0.25, 0.5, ut)) for ut in (0.2, 0.2 + TWO_PI))
        yield from (abs(bp1.alpha - bp0.alpha), abs(bp1.beta - bp0.beta))
    out.append(_worst("annulus closure at p = 1", 1e-8, closure()))

    def helicoid_shift():
        yield {"q": 0.0}
        yield abs(T_tilde(deck_lambda_tilde(solve_level(0.5, 0.0, 0.5, 0.2))) - (0.5 - 1.0))
    out.append(_worst("helicoid leaf shift at p = 1/2", 1e-9, helicoid_shift()))
    return out


def suite_bundle(seed: int = 0) -> list[InvariantResult]:
    """The monodromy of the bundle of spectral data over the annuli: around
    the annulus at q = n/d, monodromy_track gives moduli_summary's -d, the
    loop's end, the deck image of its start, lies on its level, and around
    a contractible loop the monodromy is 0; a draw that raises any
    exception fails alone, with residual inf and its error.  The annuli,
    drawn first, take k log-uniformly from [1e-3, 0.99], so the small k
    where a level is hardest to solve is as likely as the middle.  Every loop also draws a sample count, which the
    loop no longer uses, so that a seed draws the same loops."""
    rng = np.random.default_rng(seed)

    def draw(contractible):
        d = int(rng.integers(1, 8))
        q = Fraction(int(rng.integers(-3 * d, 3 * d + 1)), d)
        k = float(rng.uniform(0.1, 0.9) if contractible else 1e-3 * 990.0 ** rng.uniform())
        u_tilde0 = float(rng.uniform(-math.pi, math.pi))
        return {"q": str(q), "loop_samples": round(8.0 * 16.0 ** rng.uniform()), "k": k,
                "u_tilde0": u_tilde0, "contractible": contractible}

    def trials(samples, residual):
        for sample in samples:
            yield sample
            try:
                yield residual(sample, Fraction(sample["q"]))
            except Exception as exc:  # any error fails its draw alone
                yield math.inf, {**sample, "error": f"{type(exc).__name__}: {exc}"}

    def monodromy(sample, q):
        expected = 0 if sample["contractible"] else moduli_summary(1, q).monodromy
        got = monodromy_track(q, sample["loop_samples"], sample["k"], sample["u_tilde0"],
                              sample["contractible"])
        return abs(got - expected), {**sample, "expected": expected, "got": got}

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
    if which != "all" and which not in SUITES:
        raise ValueError(f"unknown suite {which!r}; choose from {['all', *SUITES]}")
    return [r for name in (SUITES if which == "all" else [which]) for r in SUITES[name](seed)]

"""Closing-condition functions and the genus-one moduli space.

A genus-one curve admits spectral data exactly when the two closing
functions are rational: the ratio S of the exact-differential closing
integrals, and the level function T built from the closing integrals of the
period-normalized differential.  T is multi-valued modulo Z<1, S>; its lift
T~ to the universal cover is single-valued and computable from the lifted
elliptic integrals plus an algebraic bracket.  Level sets of (S, T~) are
graphs over (k, angle) charts, which is what the solver exploits.

Note on normalization: T0 and T~ below are exactly the principal-branch
formulas.  With these, the curves (a, -a) fixed by the inversion symmetry
lie on the level T~ = 1 (equivalently T0 = -1 in the principal chart), which
is the zero class modulo Z<1, S>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .config import DEFAULTS
from .curves import (
    BranchPair, ModuliPoint, _chart_value, forward_coords, inverse_coords,
)
from .elliptic import (
    TWO_PI, complete_E, complete_K, incomplete_E_reg_imag, incomplete_F_imag,
    lifted_E, lifted_F, w_imag,
)

__all__ = [
    "ComponentId", "LevelSetMesh", "MeshRecord", "ModuliSummary",
    "S_value", "t0_raw", "T0_value", "t_tilde_raw", "T_tilde",
    "dt0_du_raw", "dT0_du", "dT_tilde_du_tilde", "dT_tilde_dv_tilde",
    "solve_level", "sweep_level_set", "classify_component", "spectral_test",
    "moduli_summary", "best_rational",
]


def S_value(bp: BranchPair) -> float:
    """S = |1 - alpha||1 - beta| / (|1 + alpha||1 + beta|), positive."""
    a, b = bp.alpha, bp.beta
    return (abs(1.0 - a) * abs(1.0 - b)) / (abs(1.0 + a) * abs(1.0 + b))


def _bracket(p: float, k: float, u: float, v: float) -> float:
    """The algebraic part p(w(iv)/(u-v) + kv) + (w(iu)/(u-v) - ku).

    Evaluated in a cancellation-free arrangement: each group is written as
    [(1 + (1+k^2)x^2)/(w(ix) + k x^2) + k u v]/(u - v), exact algebra that
    stays accurate for |u| or |v| up to the floating tan limit; literal
    infinities take their finite limits.
    """
    if math.isinf(u):
        return (p + 1.0) * k * v
    if math.isinf(v):
        return -(p + 1.0) * k * u
    kuv = k * u * v
    du = (1.0 + (1.0 + k * k) * u * u) / (w_imag(u, k) + k * u * u)
    dv = (1.0 + (1.0 + k * k) * v * v) / (w_imag(v, k) + k * v * v)
    return (p * (dv + kuv) + (du + kuv)) / (u - v)


def t0_raw(p: float, k: float, u: float, v: float) -> float:
    """Principal branch T0 in the (p, k, u, v) chart.

    2 pi T0 = 4p[E Im F(iv) - K Im(E(iv)-kiv)]
            - 4 [E Im F(iu) - K Im(E(iu)-kiu)] - 4K * bracket(u, v).
    """
    if u == v:
        raise ValueError("T0 is undefined on the diagonal u = v")
    K, E = complete_K(k), complete_E(k)
    fv = E * incomplete_F_imag(v, k) - K * incomplete_E_reg_imag(v, k)
    fu = E * incomplete_F_imag(u, k) - K * incomplete_E_reg_imag(u, k)
    return (4.0 * p * fv - 4.0 * fu - 4.0 * K * _bracket(p, k, u, v)) / TWO_PI


def T0_value(mp: ModuliPoint) -> float:
    return t0_raw(mp.p, mp.k, mp.u, mp.v)


def t_tilde_raw(p: float, k: float, u_tilde: float, v_tilde: float) -> float:
    """Single-valued lift of T along the universal cover.

    Uses the lifted integrals in place of the incomplete ones; on the chart
    boundary the algebraic bracket takes its explicit limit, so the function
    is total.  Satisfies T~ = T0 + 2[p Wind(v~) - Wind(u~)] off the boundary.
    """
    K, E = complete_K(k), complete_E(k)
    fv = E * lifted_F(v_tilde, k) - K * lifted_E(v_tilde, k)
    fu = E * lifted_F(u_tilde, k) - K * lifted_E(u_tilde, k)
    u, v = _chart_value(u_tilde), _chart_value(v_tilde)
    return (4.0 * p * fv - 4.0 * fu - 4.0 * K * _bracket(p, k, u, v)) / TWO_PI


def T_tilde(mp: ModuliPoint) -> float:
    return t_tilde_raw(mp.p, mp.k, mp.u_tilde, mp.v_tilde)


def dt0_du_raw(p: float, k: float, u: float, v: float) -> float:
    """Closed-form u-derivative of T0.

    (pi/2) w(iu) (u-v)^2 dT0/du
        = -(u-v)^2 E + p K w(iu) w(iv)
          + K [1 + u^2 - uv + k^2 uv + v^2 + k^2 u^2 v^2].
    """
    if u == v:
        raise ValueError("derivative undefined on the diagonal u = v")
    K, E = complete_K(k), complete_E(k)
    wu, wv = w_imag(u, k), w_imag(v, k)
    duv = (u - v) ** 2
    poly = 1.0 + u * u - u * v + k * k * u * v + v * v + k * k * u * u * v * v
    return 2.0 * (-duv * E + p * K * wu * wv + K * poly) / (math.pi * wu * duv)


def dT0_du(mp: ModuliPoint) -> float:
    return dt0_du_raw(mp.p, mp.k, mp.u, mp.v)


def dT_tilde_du_tilde(p: float, k: float, u_tilde: float, v_tilde: float) -> float:
    """dT~/du~ = (1 + u^2)/2 * dT0/du, with the chart-boundary limit
    (1/(pi k)) (-E + p k K w(iv) + K(1 + k^2 v^2)) at u~ in pi + 2 pi Z."""
    u, v = _chart_value(u_tilde), _chart_value(v_tilde)
    if math.isinf(u):
        K, E = complete_K(k), complete_E(k)
        return (-E + p * k * K * w_imag(v, k) + K * (1.0 + k * k * v * v)) / (math.pi * k)
    return 0.5 * (1.0 + u * u) * dt0_du_raw(p, k, u, v)


def dT_tilde_dv_tilde(p: float, k: float, u_tilde: float, v_tilde: float) -> float:
    """dT~/dv~, obtained from the u-derivative through the inversion symmetry
    T0(p,k,u,v) = -p T0(1/p,k,v,u)."""
    u, v = _chart_value(u_tilde), _chart_value(v_tilde)
    if math.isinf(v):
        K, E = complete_K(k), complete_E(k)
        return -(-p * E + k * K * w_imag(u, k) + p * K * (1.0 + k * k * u * u)) / (math.pi * k)
    return -0.5 * (1.0 + v * v) * p * dt0_du_raw(1.0 / p, k, v, u)


class LevelSolveError(RuntimeError):
    """Raised when the level-set root search fails; carries the bracket."""

    def __init__(self, msg, bracket=None):
        super().__init__(msg)
        self.bracket = bracket


def solve_level(p: float, q: float, k: float, fixed_angle: float,
                tol: float = DEFAULTS.solver_tol) -> ModuliPoint:
    """Solve T~ = q on the slice S = p at one (k, angle) chart point.

    For p >= 1 the fixed angle is v~ and the solution angle u~ lies in
    (v~ - 2 pi, v~); for p <= 1 the fixed angle is u~ and v~ is solved in
    (u~, u~ + 2 pi); at p = 1 the second convention is used.  T~ diverges
    with opposite signs at the band ends and is strictly monotone between
    them, so bracketed Newton with bisection fallback always converges.
    """
    if not p > 0.0:
        raise ValueError("p must be positive")
    solve_for_u = p > 1.0

    if solve_for_u:
        lo, hi = fixed_angle - TWO_PI, fixed_angle
        f = lambda x: t_tilde_raw(p, k, x, fixed_angle) - q
        df = lambda x: dT_tilde_du_tilde(p, k, x, fixed_angle)
        sign = 1.0   # T~ increasing in u~
    else:
        lo, hi = fixed_angle, fixed_angle + TWO_PI
        f = lambda x: t_tilde_raw(p, k, fixed_angle, x) - q
        df = lambda x: dT_tilde_dv_tilde(p, k, fixed_angle, x)
        sign = -1.0  # T~ decreasing in v~

    flo = fhi = None
    for delta in (1e-6, 1e-8, 1e-10, 1e-12):
        flo, fhi = f(lo + delta), f(hi - delta)
        if (sign * flo < 0.0 < sign * fhi) or (sign * fhi < 0.0 < sign * flo):
            a, b = lo + delta, hi - delta
            break
    else:
        raise LevelSolveError(
            f"no sign change for q={q!r} at (p={p!r}, k={k!r})",
            bracket=(lo, hi, flo, fhi))
    if sign * flo > 0.0:
        a, b = b, a  # ensure f(a) < 0 < f(b) in the monotone direction

    x = 0.5 * (a + b)
    fx = f(x)
    for _ in range(100):
        if abs(fx) < tol:
            break
        if (fx < 0.0) == (sign > 0.0):
            a = x
        else:
            b = x
        d = df(x)
        step = -fx / d if d != 0.0 else 0.0
        xn = x + step
        if not (min(a, b) < xn < max(a, b)) or step == 0.0:
            xn = 0.5 * (a + b)
        x, fx = xn, f(xn)
    else:
        raise LevelSolveError(
            f"no convergence for q={q!r}: residual {fx!r}",
            bracket=(a, b, f(a), f(b)))

    if solve_for_u:
        return ModuliPoint(p=p, k=k, u_tilde=x, v_tilde=fixed_angle)
    return ModuliPoint(p=p, k=k, u_tilde=fixed_angle, v_tilde=x)


@dataclass(frozen=True)
class MeshRecord:
    k: float
    free_angle: float
    solved_angle: float
    u_tilde: float
    v_tilde: float
    alpha: complex
    beta: complex


@dataclass
class LevelSetMesh:
    p: Fraction
    q: Fraction
    k_values: list[float]
    angle_values: list[float]
    records: list[MeshRecord] = field(default_factory=list)
    failures: list[tuple[float, float, str]] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.failures


def sweep_level_set(p: Fraction, q: Fraction, k_grid: int, angle_grid: int,
                    angle_span: float, k_min: float = DEFAULTS.k_min,
                    k_max: float = DEFAULTS.k_max,
                    angle_start: float = DEFAULTS.angle_start,
                    solver_tol: float = DEFAULTS.solver_tol) -> LevelSetMesh:
    """Sample the level set T~ = q on S = p over a (k, angle) grid.

    The free angle is v~ for p > 1 and u~ otherwise; a span of 2 pi walks one
    full turn of the cover, after which the p = 1 leaves close up exactly
    while p != 1 leaves land on the next deck translate.
    """
    if k_grid < 2 or angle_grid < 2:
        raise ValueError("grids must have at least 2 samples")
    if not (0.0 < k_min < k_max < 1.0):
        raise ValueError("need 0 < k_min < k_max < 1")
    ks = list(np.linspace(k_min, k_max, k_grid))
    angles = list(angle_start + np.linspace(0.0, angle_span, angle_grid))
    mesh = LevelSetMesh(p=Fraction(p), q=Fraction(q), k_values=ks, angle_values=angles)
    pf, qf = float(p), float(q)
    for k in ks:
        for ang in angles:
            try:
                mp = solve_level(pf, qf, k, ang, tol=solver_tol)
                bp = inverse_coords(mp)
            except (LevelSolveError, ValueError) as exc:
                mesh.failures.append((k, ang, str(exc)))
                continue
            solved = mp.u_tilde if pf > 1.0 else mp.v_tilde
            mesh.records.append(MeshRecord(
                k=k, free_angle=ang, solved_angle=solved,
                u_tilde=mp.u_tilde, v_tilde=mp.v_tilde,
                alpha=bp.alpha, beta=bp.beta))
    return mesh


@dataclass(frozen=True)
class ComponentId:
    """Path component of the space of genus-one spectral curves.

    Annuli live at p = 1 and are labeled by q itself; for p != 1 the leaves
    with labels congruent mod (p - 1) are identified by the deck action, so
    the component carries the canonical residue in [0, |p - 1|).
    """

    kind: str  # "annulus" | "helicoid"
    p: Fraction
    q_class: Fraction


def classify_component(p: Fraction, q: Fraction) -> ComponentId:
    p, q = Fraction(p), Fraction(q)
    if p <= 0:
        raise ValueError("p must be positive")
    if p == 1:
        return ComponentId(kind="annulus", p=p, q_class=q)
    step = abs(p - 1)
    residue = q - (q / step).__floor__() * step
    return ComponentId(kind="helicoid", p=p, q_class=residue)


def best_rational(x: float, max_den: int) -> Fraction:
    """Best rational approximation with denominator at most max_den."""
    if max_den < 1:
        raise ValueError("max_den must be at least 1")
    return Fraction(x).limit_denominator(max_den)


def spectral_test(bp: BranchPair, max_den: int = 50,
                  tol: float = DEFAULTS.detection_tol) -> tuple[Fraction, Fraction] | None:
    """Candidate detection of spectral curves.

    Computes S and the principal lift of T~ and returns the best bounded-
    denominator rational approximations when both residuals fall below the
    tolerance.  Exact rationality is undecidable in floating point, so this
    is a numerical proxy and the tolerance is part of the answer.
    """
    mp = forward_coords(bp)
    s, t = mp.p, T_tilde(mp)
    ps, qs = best_rational(s, max_den), best_rational(t, max_den)
    if abs(s - float(ps)) < tol and abs(t - float(qs)) < tol:
        return ps, qs
    return None


@dataclass(frozen=True)
class ModuliSummary:
    p: Fraction
    q: Fraction
    component: ComponentId
    l: int
    monodromy: int | None
    fibre: str


def moduli_summary(p: Fraction, q: Fraction) -> ModuliSummary:
    """Integer data of the component through (p, q).

    l = m'/gcd(m', m n') is the minimal imaginary period multiple; annuli
    additionally carry the monodromy shift -m' of the non-exact closing
    differential around one loop.
    """
    p, q = Fraction(p), Fraction(q)
    n, m = p.numerator, p.denominator
    np_, mp_ = q.numerator, q.denominator
    l = mp_ // math.gcd(mp_, abs(m * np_))
    comp = classify_component(p, q)
    if comp.kind == "annulus":
        return ModuliSummary(
            p=p, q=q, component=comp, l=l, monodromy=-mp_,
            fibre=f"Mat2*(Z)/B_q orbits, B_q unipotent lower-triangular with "
                  f"subdiagonal in {mp_}Z, times S^1")
    return ModuliSummary(p=p, q=q, component=comp, l=l, monodromy=None,
                         fibre="Mat2*(Z) x S^1")

"""Closing-condition functions and the genus-one moduli space.

A genus-one curve admits spectral data exactly when the two closing
functions are rational: the ratio S of the exact-differential closing
integrals, and the level function T built from the closing integrals of the
period-normalized differential.  T is multi-valued modulo Z<1, S>; its lift
T~ to the universal cover is single-valued and computable from the lifted
elliptic integrals plus an algebraic bracket.  Level sets of (S, T~) are
graphs over (k, angle) charts, which is what the solver exploits.

On each band T~ is strictly monotone along the free angle and diverges to
opposite infinities at its two ends, so the band less 1e-12 at each end
brackets every reachable level before any evaluation.  Both solvers pose
one level problem, on floats or arrays: _band gives that bracket and the
orientation, _level_fns the level T~ - q and its slope, _no_convergence
the failure reason.  Only the Newton-or-midpoint loop is written twice:
solve_level runs it on floats at one chart point, from a given start
inside the bracket or else its midpoint, for serial callers such as
monodromy_track; _solve_level_grid runs it in lockstep on per-point
(k, angle) arrays from the midpoint, as sweep_level_set does for a leaf.
An angle's share of T~ is the principal one plus pi per whole turn, and
the chart value tan(x~/2) of a float angle is finite, the chart boundary
included, so one formula serves every point.

Note on normalization: T0 and T~ below are exactly the principal-branch
formulas.  With these, the curves (a, -a) fixed by the inversion symmetry
lie on the level T~ = 1 (equivalently T0 = -1 in the principal chart), which
is the zero class modulo Z<1, S>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import DEFAULTS
from .curves import (
    BranchPair, ModuliPoint, S_value, _chart_value, _inverse_coords_array,
    forward_coords,
)
from .elliptic import (
    TWO_PI, _E_reg, _F, _axis_angle, _half_angle, _w, complete_E, complete_K,
)

__all__ = [
    "ComponentId", "LevelSetMesh", "ModuliSummary",
    "S_value", "t0_raw", "T0_value", "t_tilde_raw", "T_tilde",
    "dt0_du_raw", "dT0_du", "dT_tilde_du_tilde", "dT_tilde_dv_tilde",
    "solve_level", "sweep_level_set", "classify_component", "spectral_test",
    "moduli_summary", "best_rational",
]


# The chart algebra below takes floats or numpy arrays alike, so the scalar
# functions and the batched solver share it.
def _bracket(p, k, u, v):
    """The algebraic part p(w(iv)/(u-v) + kv) + (w(iu)/(u-v) - ku).

    Evaluated in a cancellation-free arrangement: each group is written as
    [(1 + (1+k^2)x^2)/(w(ix) + k x^2) + k u v]/(u - v), exact algebra that
    stays accurate for |u| or |v| up to the floating tan limit.
    """
    kuv = k * u * v
    du = (1.0 + (1.0 + k * k) * u * u) / (_w(u, k) + k * u * u)
    dv = (1.0 + (1.0 + k * k) * v * v) / (_w(v, k) + k * v * v)
    return (p * (dv + kuv) + (du + kuv)) / (u - v)


def _dt0_du(p, k, K, E, u, v):
    """dT0/du off the diagonal, given K(k) and E(k); see dt0_du_raw."""
    wu, wv = _w(u, k), _w(v, k)
    d = u - v
    duv = d * d
    poly = 1.0 + u * u - u * v + k * k * u * v + v * v + k * k * u * u * v * v
    return 2.0 * (-duv * E + p * K * wu * wv + K * poly) / (math.pi * wu * duv)


def t0_raw(p: float, k: float, u: float, v: float) -> float:
    """Principal branch T0 in the (p, k, u, v) chart, at finite chart values.

    2 pi T0 = 4p[E Im F(iv) - K Im(E(iv)-kiv)]
            - 4 [E Im F(iu) - K Im(E(iu)-kiu)] - 4K * bracket(u, v).
    """
    if not (math.isfinite(u) and math.isfinite(v)):
        raise ValueError(f"chart values must be finite, got u={u!r}, v={v!r}")
    if u == v:
        raise ValueError("T0 is undefined on the diagonal u = v")
    K, E = complete_K(k), complete_E(k)
    (su, cu), (sv, cv) = _axis_angle(u), _axis_angle(v)
    fu = E * _F(su, cu, k) - K * _E_reg(su, cu, k)
    fv = E * _F(sv, cv, k) - K * _E_reg(sv, cv, k)
    return _t_tilde(p, k, K, (fu, u), (fv, v))


def T0_value(mp: ModuliPoint) -> float:
    return t0_raw(mp.p, mp.k, mp.u, mp.v)


def t_tilde_raw(p: float, k: float, u_tilde: float, v_tilde: float) -> float:
    """Single-valued lift of T along the universal cover.

    T~ = T0 + 2[p Wind(v~) - Wind(u~)]: each angle's share is the principal
    one plus pi per whole turn, and the chart values tan(u~/2), tan(v~/2)
    are finite at every float angle, so T~ is total off the diagonal u = v.
    """
    if not (math.isfinite(u_tilde) and math.isfinite(v_tilde)):
        raise ValueError(f"angles must be finite, got u~={u_tilde!r}, v~={v_tilde!r}")
    K, E = complete_K(k), complete_E(k)
    terms_u, terms_v = _level_part(k, K, E, u_tilde), _level_part(k, K, E, v_tilde)
    if terms_u[1] == terms_v[1]:
        raise ValueError("T~ is undefined on the diagonal u = v")
    return _t_tilde(p, k, K, terms_u, terms_v)


def _level_part(k, K, E, x_tilde):
    """One angle's share E F~(x~) - K E~(x~) of T~ and its chart value
    tan(x~/2), on floats or arrays: the share at the reduced half-angle plus
    pi per whole turn, since E K' + K E' - K K' = pi/2."""
    m, s, c, u = _half_angle(x_tilde)
    return E * _F(s, c, k) - K * _E_reg(s, c, k) + m * math.pi, u


def _t_tilde(p, k, K, terms_u, terms_v):
    """T~ from the shares of u~ and v~ (_level_part), floats or arrays."""
    (fu, u), (fv, v) = terms_u, terms_v
    return (4.0 * p * fv - 4.0 * fu - 4.0 * K * _bracket(p, k, u, v)) / TWO_PI


def T_tilde(mp: ModuliPoint) -> float:
    return t_tilde_raw(mp.p, mp.k, mp.u_tilde, mp.v_tilde)


def dt0_du_raw(p: float, k: float, u: float, v: float) -> float:
    """Closed-form u-derivative of T0, at finite chart values.

    (pi/2) w(iu) (u-v)^2 dT0/du
        = -(u-v)^2 E + p K w(iu) w(iv)
          + K [1 + u^2 - uv + k^2 uv + v^2 + k^2 u^2 v^2].
    """
    if not (math.isfinite(u) and math.isfinite(v)):
        raise ValueError(f"chart values must be finite, got u={u!r}, v={v!r}")
    if u == v:
        raise ValueError("derivative undefined on the diagonal u = v")
    return _dt0_du(p, k, complete_K(k), complete_E(k), u, v)


def dT0_du(mp: ModuliPoint) -> float:
    return dt0_du_raw(mp.p, mp.k, mp.u, mp.v)


def dT_tilde_du_tilde(p: float, k: float, u_tilde: float, v_tilde: float) -> float:
    """dT~/du~ = (1 + u^2)/2 * dT0/du at the chart values u = tan(u~/2) and
    v = tan(v~/2), which are finite at every float angle."""
    u, v = _chart_value(u_tilde), _chart_value(v_tilde)
    if u == v:
        raise ValueError("derivative undefined on the diagonal u = v")
    return _dT_du(p, k, complete_K(k), complete_E(k), u, v)


def _dT_du(p, k, K, E, u, v):
    """dT_tilde_du_tilde at chart values u and v (floats or arrays), given K(k) and E(k)."""
    return 0.5 * (1.0 + u * u) * _dt0_du(p, k, K, E, u, v)


def dT_tilde_dv_tilde(p: float, k: float, u_tilde: float, v_tilde: float) -> float:
    """dT~/dv~, obtained from the u-derivative through the inversion symmetry
    T0(p,k,u,v) = -p T0(1/p,k,v,u)."""
    u, v = _chart_value(u_tilde), _chart_value(v_tilde)
    if u == v:
        raise ValueError("derivative undefined on the diagonal u = v")
    return _dT_dv(p, k, complete_K(k), complete_E(k), u, v)


def _dT_dv(p, k, K, E, u, v):
    """dT_tilde_dv_tilde at chart values u and v (floats or arrays), given K(k) and E(k)."""
    return -0.5 * (1.0 + v * v) * p * _dt0_du(1.0 / p, k, K, E, v, u)


class LevelSolveError(RuntimeError):
    """Raised when the level-set root search does not converge: its iterate
    stalls, or _MAX_STEPS steps pass."""


# The root search's policy, shared by solve_level and its batched form: the
# band less _EDGE at each end is the bracket, where T~ - q takes opposite
# signs for every reachable level, and _MAX_STEPS Newton-or-midpoint steps
# are taken before it gives up, or fewer if the iterate stalls, after which
# every step would repeat the same bracket, iterate and residual.
_EDGE = 1e-12
_MAX_STEPS = 100


def _band(p, held_angle):
    """The bracket (a, b), the band less _EDGE at each end, of the free angle
    at a held angle (float or array), and the sign of dT~ along it."""
    if p > 1.0:
        return held_angle - TWO_PI + _EDGE, held_angle - _EDGE, 1.0
    return held_angle + _EDGE, held_angle + TWO_PI - _EDGE, -1.0


def _level_fns(p, q, k, K, E, held):
    """The closures level(x), giving T~ - q and the chart value at free angle
    x, and slope(chart), giving dT~ along the free angle at that chart value,
    for the held angle's share ``held`` (_level_part); floats or arrays."""
    solve_for_u = p > 1.0

    def level(x):
        free = _level_part(k, K, E, x)
        if solve_for_u:
            return _t_tilde(p, k, K, free, held) - q, free[1]
        return _t_tilde(p, k, K, held, free) - q, free[1]
    if solve_for_u:
        return level, lambda chart: _dT_du(p, k, K, E, chart, held[1])
    return level, lambda chart: _dT_dv(p, k, K, E, held[1], chart)


def _no_convergence(q, residual) -> str:
    return f"no convergence for q={q!r}: residual {residual!r}"


def solve_level(p: float, q: float, k: float, fixed_angle: float,
                tol: float = DEFAULTS.solver_tol,
                start: float | None = None) -> ModuliPoint:
    """Solve T~ = q on the slice S = p at one (k, angle) chart point.

    For p > 1 the fixed angle is v~ and the solution angle u~ lies in
    (v~ - 2 pi, v~), where T~ increases; for p <= 1 the fixed angle is u~
    and v~ is solved in (u~, u~ + 2 pi), where T~ decreases.  T~ diverges
    with opposite signs at the band ends, so bracketed Newton with bisection
    fallback on the band less 1e-12 at each end (_band) converges to every
    reachable level.  The first iterate is ``start``, a guess at the solved
    angle such as a continuation's prediction, when strictly inside that
    bracket, and else (nan included) the bracket's midpoint; a level out of
    reach fails when the iterate stalls, or after _MAX_STEPS steps.
    """
    if not p > 0.0:
        raise ValueError("p must be positive")
    if not math.isfinite(fixed_angle):
        raise ValueError(f"the held angle must be finite, got {fixed_angle!r}")
    K, E = complete_K(k), complete_E(k)
    a, b, sign = _band(p, fixed_angle)
    level, slope = _level_fns(p, q, k, K, E, _level_part(k, K, E, fixed_angle))
    x = start if start is not None and a < start < b else 0.5 * (a + b)
    fx, chart = level(x)
    for _ in range(_MAX_STEPS):
        if abs(fx) < tol:
            u, v = (x, fixed_angle) if p > 1.0 else (fixed_angle, x)
            return ModuliPoint(p=p, k=k, u_tilde=u, v_tilde=v)
        a, b = (x, b) if (fx < 0.0) == (sign > 0.0) else (a, x)
        d = slope(chart)
        step = -fx / d if d != 0.0 else 0.0
        xn = x + step
        if not (min(a, b) < xn < max(a, b)) or step == 0.0:
            xn = 0.5 * (a + b)
        if xn == x:
            break
        x, (fx, chart) = xn, level(xn)
    raise LevelSolveError(_no_convergence(q, fx))


def _solve_level_grid(p: float, q: float, k: np.ndarray, angle: np.ndarray,
                      tol: float) -> tuple[np.ndarray, list[str | None]]:
    """solve_level at every point (k[i], angle[i]) of two arrays, in lockstep.

    Runs the scalar solver's policy on all points at once: the same bracket
    and midpoint start (_band), level and slope (_level_fns), Newton-or-
    midpoint step, step limit and failure reason, on the same floating-point
    values, so every point ends where a cold solve_level would, after as many
    evaluations of T~: a point leaves as it converges or stalls, before its
    next iterate is evaluated.  K and E are looked up once per distinct k;
    the per-point constants are cut to the running points as points leave.
    Returns the solved angle of every point (nan where it failed) and the
    failure reason or None.
    """
    if not p > 0.0:
        raise ValueError("p must be positive")
    distinct, at = np.unique(k, return_inverse=True)
    K, E = np.array([(complete_K(x), complete_E(x)) for x in distinct.tolist()]).T[:, at]
    a, b, sign = _band(p, angle)
    solved, residual = np.full((2, angle.size), np.nan)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        held = _level_part(k, K, E, angle)
        level, slope = _level_fns(p, q, k, K, E, held)
        idx, x = np.arange(angle.size), 0.5 * (a + b)
        fx, chart = level(x)
        for _ in range(_MAX_STEPS):
            done = np.abs(fx) < tol
            lower = (fx < 0.0) == (sign > 0.0)
            a, b = np.where(lower, x, a), np.where(lower, b, x)
            d = slope(chart)
            step = np.where(d != 0.0, -fx / d, 0.0)
            xn = x + step
            inside = (np.minimum(a, b) < xn) & (xn < np.maximum(a, b)) & (step != 0.0)
            xn = np.where(inside, xn, 0.5 * (a + b))
            stalled = xn == x
            leave = done | stalled
            if leave.any():
                solved[idx[done]] = x[done]
                residual[idx[stalled]] = fx[stalled]
                stay = ~leave
                if not stay.any():
                    break
                idx, xn, a, b, k, K, E, *held = (
                    v[stay] for v in (idx, xn, a, b, k, K, E, *held))
                level, slope = _level_fns(p, q, k, K, E, held)
            x, (fx, chart) = xn, level(xn)
        else:
            residual[idx] = fx
    return solved, [_no_convergence(q, r) if x != x else None
                    for x, r in zip(solved.tolist(), residual.tolist())]


@dataclass
class LevelSetMesh:
    """A leaf as k-major (k, angle) grid arrays, nan where a point failed;
    failures lists those points in grid order with their reasons."""

    p: Fraction
    q: Fraction
    k_values: list[float]
    angle_values: list[float]
    u_tilde: np.ndarray
    v_tilde: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    failures: list[tuple[float, float, str]]

    @property
    def solved(self) -> np.ndarray:
        """Mask of the grid points that solved."""
        return ~np.isnan(self.u_tilde)

    @property
    def complete(self) -> bool:
        return not self.failures


def sweep_level_set(p: Fraction, q: Fraction, k_grid: int, angle_grid: int,
                    angle_span: float, k_min: float = DEFAULTS.k_min,
                    k_max: float = DEFAULTS.k_max,
                    angle_start: float = DEFAULTS.angle_start,
                    solver_tol: float = DEFAULTS.solver_tol) -> LevelSetMesh:
    """Sample the level set T~ = q on S = p over a (k, angle) grid.

    The grid's angle is the held one, v~ for p > 1 and u~ otherwise; a span
    of 2 pi walks one full turn of the cover, after which the p = 1 leaves
    close up exactly while p != 1 leaves land on the next deck translate.
    The grid is flattened k-major once, into per-point k and angle arrays
    that _solve_level_grid solves in lockstep and the map of which
    inverse_coords is the one-point case takes to branch pairs; the solve
    follows solve_level bit for bit, and every point fails with the reason
    the scalar functions raise.
    """
    if k_grid < 2 or angle_grid < 2:
        raise ValueError("grids must have at least 2 samples")
    if not (0.0 < k_min < k_max < 1.0):
        raise ValueError("need 0 < k_min < k_max < 1")
    if not (math.isfinite(angle_span) and math.isfinite(angle_start)):
        raise ValueError("angle span and start must be finite")
    ks = np.linspace(k_min, k_max, k_grid).tolist()
    angles = (angle_start + np.linspace(0.0, angle_span, angle_grid)).tolist()
    pf, qf = float(p), float(q)
    k, fixed = np.repeat(ks, angle_grid), np.tile(angles, k_grid)
    solved, reasons = _solve_level_grid(pf, qf, k, fixed, solver_tol)
    u_tilde, v_tilde = (solved, fixed) if pf > 1.0 else (fixed, solved)
    alpha, beta, rejected = _inverse_coords_array(pf, k, u_tilde, v_tilde)
    reasons = [why or off for why, off in zip(reasons, rejected)]
    failed = np.array([why is not None for why in reasons])
    return LevelSetMesh(
        Fraction(p), Fraction(q), ks, angles,
        *(np.where(failed, np.nan, x).reshape(k_grid, angle_grid)
          for x in (u_tilde, v_tilde, alpha, beta)),
        failures=[(kf, ang, why) for kf, ang, why
                  in zip(k.tolist(), fixed.tolist(), reasons) if why])


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

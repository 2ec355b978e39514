"""Closing-condition functions and the genus-one moduli space.

A genus-one curve admits spectral data exactly when the two closing
functions are rational: the ratio S of the exact-differential closing
integrals, and the level function T built from the closing integrals of the
period-normalized differential.  T is multi-valued modulo Z<1, S>; its lift
T~ to the universal cover is single-valued and computable from the lifted
elliptic integrals plus an algebraic bracket.  Level sets of (S, T~) are
graphs over (k, angle) charts, which is what the solver exploits.

The solver has two forms with one policy.  solve_level works on Python
floats, one chart point at a time; serial callers such as monodromy_track,
where each solve starts from the last, use it.  sweep_level_set solves a
whole (k, angle) grid in lockstep on numpy arrays and maps it to branch
pairs with the array form of inverse_coords, so a leaf comes back as grid
arrays with no per-point Python.  The finite-chart algebra of T~ and dT~ is
written once for both; only the angle reduction, the chart-boundary limits
(of either angle, the held one included) and the Newton loop have an array
twin.

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
    BranchPair, ModuliPoint, _chart_value, _chart_value_array,
    _inverse_coords_array, forward_coords,
)
from .elliptic import (
    TWO_PI, _E_reg, _F, _half_angle_array, _w, complementary_KE, complete_E,
    complete_K, incomplete_E_reg_imag, incomplete_F_imag, lifted_E, lifted_F,
)

__all__ = [
    "ComponentId", "LevelSetMesh", "ModuliSummary",
    "S_value", "t0_raw", "T0_value", "t_tilde_raw", "T_tilde",
    "dt0_du_raw", "dT0_du", "dT_tilde_du_tilde", "dT_tilde_dv_tilde",
    "solve_level", "sweep_level_set", "classify_component", "spectral_test",
    "moduli_summary", "best_rational",
]


def S_value(bp: BranchPair) -> float:
    """S = |1 - alpha||1 - beta| / (|1 + alpha||1 + beta|), positive."""
    a, b = bp.alpha, bp.beta
    return (abs(1.0 - a) * abs(1.0 - b)) / (abs(1.0 + a) * abs(1.0 + b))


# The finite-chart algebra below takes floats or numpy arrays alike, so the
# scalar functions and the batched solver share it.
def _bracket_finite(p, k, u, v):
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


def _dt0_du_at_v_infinity(p, k, K, E, u):
    """dT0/du as v -> +-inf, the limit of _dt0_du."""
    wu = _w(u, k)
    return 2.0 * (-E + p * k * K * wu + K * (1.0 + k * k * u * u)) / (math.pi * wu)


def _dt0_du_array(p, k, K, E, u, v):
    """_dt0_du on arrays of chart values, v = +-inf included."""
    return np.where(np.isinf(v), _dt0_du_at_v_infinity(p, k, K, E, u),
                    _dt0_du(p, k, K, E, u, v))


def _dT_du_at_infinity(p, k, K, E, v):
    """dT~/du~ at u~ in pi + 2 pi Z."""
    return (-E + p * k * K * _w(v, k) + K * (1.0 + k * k * v * v)) / (math.pi * k)


def _dT_dv_at_infinity(p, k, K, E, u):
    """dT~/dv~ at v~ in pi + 2 pi Z."""
    return -(-p * E + k * K * _w(u, k) + p * K * (1.0 + k * k * u * u)) / (math.pi * k)


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
    return _bracket_finite(p, k, u, v)


def _bracket_array(p, k, u, v):
    """_bracket on arrays of chart values."""
    return np.where(np.isinf(u), (p + 1.0) * k * v,
                    np.where(np.isinf(v), -(p + 1.0) * k * u,
                             _bracket_finite(p, k, u, v)))


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


def _lifted_level_terms(k, K, E, Kp, KmEp, x_tilde):
    """E F~(x~) - K E~(x~) and tan(x~/2) on arrays: one angle's share of T~."""
    m, s, c = _half_angle_array(x_tilde)
    fx = E * (2.0 * m * Kp + _F(s, c, k)) - K * (2.0 * m * KmEp + _E_reg(s, c, k))
    return fx, _chart_value_array(x_tilde)


def _t_tilde_array(p, k, K, terms_u, terms_v):
    """t_tilde_raw on arrays, from the _lifted_level_terms of u~ and v~."""
    (fu, u), (fv, v) = terms_u, terms_v
    return (4.0 * p * fv - 4.0 * fu - 4.0 * K * _bracket_array(p, k, u, v)) / TWO_PI


def T_tilde(mp: ModuliPoint) -> float:
    return t_tilde_raw(mp.p, mp.k, mp.u_tilde, mp.v_tilde)


def dt0_du_raw(p: float, k: float, u: float, v: float) -> float:
    """Closed-form u-derivative of T0.

    (pi/2) w(iu) (u-v)^2 dT0/du
        = -(u-v)^2 E + p K w(iu) w(iv)
          + K [1 + u^2 - uv + k^2 uv + v^2 + k^2 u^2 v^2];
    at v = +-inf it takes the limit 2(-E + p k K w(iu) + K(1 + k^2 u^2))/(pi w(iu)).
    """
    if u == v:
        raise ValueError("derivative undefined on the diagonal u = v")
    K, E = complete_K(k), complete_E(k)
    if math.isinf(v):
        return _dt0_du_at_v_infinity(p, k, K, E, u)
    return _dt0_du(p, k, K, E, u, v)


def dT0_du(mp: ModuliPoint) -> float:
    return dt0_du_raw(mp.p, mp.k, mp.u, mp.v)


def dT_tilde_du_tilde(p: float, k: float, u_tilde: float, v_tilde: float) -> float:
    """dT~/du~ = (1 + u^2)/2 * dT0/du, with the chart-boundary limit
    (1/(pi k)) (-E + p k K w(iv) + K(1 + k^2 v^2)) at u~ in pi + 2 pi Z."""
    u, v = _chart_value(u_tilde), _chart_value(v_tilde)
    if math.isinf(u):
        return _dT_du_at_infinity(p, k, complete_K(k), complete_E(k), v)
    return 0.5 * (1.0 + u * u) * dt0_du_raw(p, k, u, v)


def _dT_du_array(p, k, K, E, u, v):
    """dT_tilde_du_tilde on arrays of chart values."""
    return np.where(np.isinf(u), _dT_du_at_infinity(p, k, K, E, v),
                    0.5 * (1.0 + u * u) * _dt0_du_array(p, k, K, E, u, v))


def dT_tilde_dv_tilde(p: float, k: float, u_tilde: float, v_tilde: float) -> float:
    """dT~/dv~, obtained from the u-derivative through the inversion symmetry
    T0(p,k,u,v) = -p T0(1/p,k,v,u)."""
    u, v = _chart_value(u_tilde), _chart_value(v_tilde)
    if math.isinf(v):
        return _dT_dv_at_infinity(p, k, complete_K(k), complete_E(k), u)
    return -0.5 * (1.0 + v * v) * p * dt0_du_raw(1.0 / p, k, v, u)


def _dT_dv_array(p, k, K, E, u, v):
    """dT_tilde_dv_tilde on arrays of chart values."""
    return np.where(np.isinf(v), _dT_dv_at_infinity(p, k, K, E, u),
                    -0.5 * (1.0 + v * v) * p * _dt0_du_array(1.0 / p, k, K, E, v, u))


class LevelSolveError(RuntimeError):
    """Raised when the level-set root search fails; carries the bracket."""

    def __init__(self, msg, bracket=None):
        super().__init__(msg)
        self.bracket = bracket


# The root search's policy, shared by solve_level and its batched form:
# offsets from the band ends at which it looks for a sign change, and the
# number of Newton-or-midpoint steps before it gives up.
_PROBE_DELTAS = (1e-6, 1e-8, 1e-10, 1e-12)
_MAX_STEPS = 100


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
    for delta in _PROBE_DELTAS:
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
    for _ in range(_MAX_STEPS):
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


def _solve_level_grid(p: float, q: float, ks: list[float], angles: list[float],
                      tol: float) -> tuple[np.ndarray, list[str | None]]:
    """solve_level at every (k, angle) of a grid, in lockstep.

    Runs the scalar solver's policy on the flattened k-major grid at once:
    the same bracket probes and swap, the same Newton-or-midpoint step, the
    same step limit and failure reasons, on the same floating-point values,
    so every point ends where solve_level would.  Points leave the iteration
    as their bracket probe fails or as they converge.  Returns the solved
    angle of every point (nan where it failed) and the failure reason or None.
    """
    if not p > 0.0:
        raise ValueError("p must be positive")
    solve_for_u = p > 1.0
    sign = 1.0 if solve_for_u else -1.0
    n_angles = len(angles)
    # per point: k, K, E, K', K' - E', each computed once per k-row
    per_k = [(k, complete_K(k), complete_E(k), *complementary_KE(k)) for k in ks]
    consts = np.repeat(np.array(per_k).T, n_angles, axis=1)
    fixed = np.tile(np.array(angles, dtype=float), len(ks))
    lo, hi = (fixed - TWO_PI, fixed) if solve_for_u else (fixed, fixed + TWO_PI)

    def level(x, idx):
        """T~ - q at free angle x for the grid points idx."""
        k, K, E, Kp, KmEp = consts[:, idx]
        free = _lifted_level_terms(k, K, E, Kp, KmEp, x)
        held = (fixed_lifted[idx], fixed_chart[idx])
        terms = (free, held) if solve_for_u else (held, free)
        return _t_tilde_array(p, k, K, *terms) - q

    def slope(x, idx):
        """dT~ along the free angle at x for the grid points idx."""
        k, K, E = consts[:3, idx]
        if solve_for_u:
            return _dT_du_array(p, k, K, E, _chart_value_array(x), fixed_chart[idx])
        return _dT_dv_array(p, k, K, E, fixed_chart[idx], _chart_value_array(x))

    n = fixed.size
    solved = np.full(n, np.nan)
    reasons: list[str | None] = [None] * n
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        fixed_lifted, fixed_chart = _lifted_level_terms(*consts, fixed)
        a, b, flo = np.empty(n), np.empty(n), np.empty(n)
        probing = np.arange(n)
        for delta in _PROBE_DELTAS:
            if not probing.size:
                break
            f_lo = level(lo[probing] + delta, probing)
            f_hi = level(hi[probing] - delta, probing)
            change = (((sign * f_lo < 0.0) & (0.0 < sign * f_hi))
                      | ((sign * f_hi < 0.0) & (0.0 < sign * f_lo)))
            found = probing[change]
            a[found], b[found] = lo[found] + delta, hi[found] - delta
            flo[found] = f_lo[change]
            probing = probing[~change]
        for i in probing.tolist():
            reasons[i] = f"no sign change for q={q!r} at (p={p!r}, k={ks[i // n_angles]!r})"

        idx = np.setdiff1d(np.arange(n), probing)
        swap = sign * flo[idx] > 0.0  # f(a) < 0 < f(b) in the monotone direction
        a, b = np.where(swap, b[idx], a[idx]), np.where(swap, a[idx], b[idx])
        x = 0.5 * (a + b)
        fx = level(x, idx)
        for _ in range(_MAX_STEPS):
            done = np.abs(fx) < tol
            if done.any():
                solved[idx[done]] = x[done]
                keep = ~done
                idx, x, fx, a, b = idx[keep], x[keep], fx[keep], a[keep], b[keep]
            if not idx.size:
                break
            lower = (fx < 0.0) == (sign > 0.0)
            a, b = np.where(lower, x, a), np.where(lower, b, x)
            d = slope(x, idx)
            step = np.where(d != 0.0, -fx / d, 0.0)
            xn = x + step
            inside = (np.minimum(a, b) < xn) & (xn < np.maximum(a, b)) & (step != 0.0)
            x = np.where(inside, xn, 0.5 * (a + b))
            fx = level(x, idx)
        for i, r in zip(idx.tolist(), fx.tolist()):
            reasons[i] = f"no convergence for q={q!r}: residual {r!r}"
    return solved, reasons


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

    The free angle is v~ for p > 1 and u~ otherwise; a span of 2 pi walks one
    full turn of the cover, after which the p = 1 leaves close up exactly
    while p != 1 leaves land on the next deck translate.  All grid points are
    solved together by the batched form of solve_level and mapped to branch
    pairs by the array form of inverse_coords; both follow the scalar
    functions bit for bit and report the same per-point failure reasons.
    """
    if k_grid < 2 or angle_grid < 2:
        raise ValueError("grids must have at least 2 samples")
    if not (0.0 < k_min < k_max < 1.0):
        raise ValueError("need 0 < k_min < k_max < 1")
    ks = np.linspace(k_min, k_max, k_grid).tolist()
    angles = (angle_start + np.linspace(0.0, angle_span, angle_grid)).tolist()
    pf, qf = float(p), float(q)
    solved, reasons = _solve_level_grid(pf, qf, ks, angles, solver_tol)
    fixed = np.tile(angles, k_grid)
    u_tilde, v_tilde = (solved, fixed) if pf > 1.0 else (fixed, solved)
    alpha, beta, rejected = _inverse_coords_array(pf, np.repeat(ks, angle_grid),
                                                  u_tilde, v_tilde)
    reasons = [why or off for why, off in zip(reasons, rejected)]
    failed = np.array([why is not None for why in reasons])
    grid = ((k, ang) for k in ks for ang in angles)
    return LevelSetMesh(
        Fraction(p), Fraction(q), ks, angles,
        *(np.where(failed, np.nan, x).reshape(k_grid, angle_grid)
          for x in (u_tilde, v_tilde, alpha, beta)),
        failures=[(k, ang, why) for (k, ang), why in zip(grid, reasons) if why])


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

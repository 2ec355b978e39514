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
orientation, _level_fns the level T~ - q and the slope of the pole-deflated
level (T~ - q) sin(|x - held|/2) at the held angle's terms (_level_part),
computed once per solve and cut with the lockstep's running points, with
w(ix) of the free angle once per step; _no_convergence the failure reason.
Only the Newton-or-midpoint loop is written twice, both from the band
midpoint: solve_level on floats, and _lockstep on per-point (k, angle)
arrays, given K, E and the held angle's terms, which its one caller,
sweep_level_set, computes once per leaf (K and E once per grid row); a
point of the arrays ends on solve_level's bits, or fails with its reason.
_chart_terms alone builds a chart value's terms, for T0, T~ and gamma+.
An angle's share of T~ is the principal one plus pi per whole turn, and
the chart value tan(x~/2) of a float angle is finite, the chart boundary
included, so one formula serves every point.  The scalar entry points take
0 < p < inf, k in (0, 1), and finite angles (chart values for t0_raw and
dt0_du_raw, which regroup their closed forms where an intermediate would
overflow and raise only where the value does) off the diagonal u = v, or for
solve_level a finite held angle and level q; else they raise ValueError.

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
from .curves import BranchPair, ModuliPoint, S_value, _check_ratio, _inverse_coords_array, forward_coords
from .elliptic import (
    TWO_PI, _FE, _axis_angle, _chart_value, _check_modulus, _complete_KE, _half_angle, _w, _w_terms,
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
def _bracket(p, k, u, v, mu, mv):
    """The algebraic part p(w(iv)/(u-v) + kv) + (w(iu)/(u-v) - ku).

    Evaluated in a cancellation-free arrangement: each group is written as
    [m + k u v]/(u - v), m = w(ix) - k x^2 given as mu and mv (_w_terms),
    exact algebra that stays accurate for |u| or |v| up to the tan limit.
    """
    kuv = k * u * v
    return (p * (mv + kuv) + (mu + kuv)) / (u - v)


def _chart_args(p, k, u, v):
    """The checked (p, k, K(k), E(k), u, v), as _dt0_du, _dT_du and _dT_dv take
    it, with u and v taken as floats, not in the caller's float type."""
    u, v = float(u), float(v)
    if not (math.isfinite(u) and math.isfinite(v)):
        raise ValueError(f"chart values must be finite, got u={u!r}, v={v!r}")
    if u == v:
        raise ValueError("the level functions are undefined on the diagonal u = v")
    p, k = _check_ratio(p), _check_modulus(k)
    return (p, k, *_complete_KE(k), u, v)


def _angle_args(p, k, u_tilde, v_tilde):
    """_chart_args at the chart values tan(u~/2) and tan(v~/2) of two angles,
    taken as floats, not in the caller's float type."""
    u_tilde, v_tilde = float(u_tilde), float(v_tilde)
    if not (math.isfinite(u_tilde) and math.isfinite(v_tilde)):
        raise ValueError(f"angles must be finite, got u~={u_tilde!r}, v~={v_tilde!r}")
    return _chart_args(p, k, _chart_value(u_tilde), _chart_value(v_tilde))


def _dt0_du(p, k, K, E, u, v, wu=None, wv=None):
    """dT0/du off the diagonal, given K(k), E(k), and w(iu), w(iv) if known; see dt0_du_raw."""
    wu, wv = (_w(u, k), _w(v, k)) if wu is None else (wu, wv)
    d = u - v
    duv = d * d
    poly = 1.0 + u * u - u * v + k * k * u * v + v * v + k * k * u * u * v * v
    return 2.0 * (-duv * E + p * K * wu * wv + K * poly) / (math.pi * wu * duv)


def _scaled_w(k, x):
    """(s, omega) of a chart value x, s = max(1, |x|) and omega = w(ix)/s^2,
    neither of which overflows: where |x| > 1, x^2 is divided out of w(ix)."""
    if abs(x) <= 1.0:
        return 1.0, _w(x, k)
    r = 1.0 / x
    return abs(x), math.sqrt((r * r + 1.0) * (r * r + k * k))


def _dt0_du_far(p, k, K, E, u, v):
    """_dt0_du where its form overflows, each term divided by (u - v)^2 first:
    (pi/2) dT0/du = [K poly/(u-v)^2 - E]/w(iu) + p K w(iv)/(u-v)^2, poly/(u-v)^2
    in a = u/(u-v) and b = v/(u-v), and w(ix) = s^2 omega (_scaled_w)."""
    (su, ou), (sv, ov) = _scaled_w(k, u), _scaled_w(k, v)
    d = u - v
    a, b, e, y = u / d, v / d, 1.0 / d, sv / d
    kub = k * b * (u / su)
    return 2.0 * ((K * (e * e + a * a + (k * k - 1.0) * a * b + b * b) - E) / su / su / ou
                  + K * kub * kub / ou + p * K * ov * y * y) / math.pi


def _finite(value, u, v):
    """value, or ValueError where it overflows at chart values u, v."""
    if not math.isfinite(value):
        raise ValueError(f"the level functions overflow at chart values u={u!r}, v={v!r}")
    return value


def _chart_terms(k, K, E, u, s, c):
    """The terms of a chart value u, given (s, c), the sine and cosine of its
    angle atan(u), on floats or arrays: its share E F - K E_reg of T0, u,
    w(iu) and w(iu) - k u^2 (_w_terms), and F and E_reg at atan(u) (_FE)."""
    F, E_reg = _FE(s, c, k)
    return E * F - K * E_reg, u, *_w_terms(u, k), F, E_reg


def t0_raw(p: float, k: float, u: float, v: float) -> float:
    """Principal branch T0 in the (p, k, u, v) chart, at finite chart values.

    2 pi T0 = 4p[E Im F(iv) - K Im(E(iv)-kiv)]
            - 4 [E Im F(iu) - K Im(E(iu)-kiu)] - 4K * bracket(u, v).
    Where the square of u or v (past about 1e154) overflows _bracket, its
    term (p + 1) k u v/(u - v) alone is kept, divided by u - v first: |u - v|,
    an ulp there at least, passes 1e138, and leaves the rest below rounding.
    ValueError where T0 itself overflows.
    """
    p, k, K, E, u, v = _chart_args(p, k, u, v)
    (fu, *_), (fv, *_) = terms = [_chart_terms(k, K, E, x, *_axis_angle(x)) for x in (u, v)]
    value = _t_tilde(p, k, K, *terms)
    if not math.isfinite(value):
        bracket = (p + 1.0) * k * u * (v / (u - v))
        value = (4.0 * p * fv - 4.0 * fu - 4.0 * K * bracket) / TWO_PI
    return _finite(value, u, v)


def T0_value(mp: ModuliPoint) -> float:
    return t0_raw(mp.p, mp.k, mp.u, mp.v)


def t_tilde_raw(p: float, k: float, u_tilde: float, v_tilde: float) -> float:
    """Single-valued lift of T along the universal cover.

    T~ = T0 + 2[p m(v~) - m(u~)], m an angle's turn (elliptic._half_angle):
    each angle's share is the principal one plus pi per whole turn, and the
    chart values tan(u~/2), tan(v~/2) are finite at every float angle, so T~
    is total off the diagonal u = v.
    """
    u_tilde, v_tilde = float(u_tilde), float(v_tilde)
    p, k, K, E, _, _ = _angle_args(p, k, u_tilde, v_tilde)
    return _t_tilde(p, k, K, _level_part(k, K, E, u_tilde), _level_part(k, K, E, v_tilde))


def _level_part(k, K, E, x_tilde):
    """One angle's terms, those of its chart value u = tan(x~/2)
    (_chart_terms), on floats or arrays, but for the share E F~(x~) - K E~(x~)
    of T~: the share at the reduced half-angle atan(u) plus pi per whole
    turn, since E K' + K E' - K K' = pi/2."""
    m, s, c, u = _half_angle(x_tilde)
    share, *terms = _chart_terms(k, K, E, u, s, c)
    return share + m * math.pi, *terms


def _t_tilde(p, k, K, terms_u, terms_v):
    """T~ from the terms of u~ and v~ (_level_part), floats or arrays."""
    (fu, u, _, mu, *_), (fv, v, _, mv, *_) = terms_u, terms_v
    return (4.0 * p * fv - 4.0 * fu - 4.0 * K * _bracket(p, k, u, v, mu, mv)) / TWO_PI


def T_tilde(mp: ModuliPoint) -> float:
    return t_tilde_raw(mp.p, mp.k, mp.u_tilde, mp.v_tilde)


def dt0_du_raw(p: float, k: float, u: float, v: float) -> float:
    """Closed-form u-derivative of T0, at finite chart values.

    (pi/2) w(iu) (u-v)^2 dT0/du
        = -(u-v)^2 E + p K w(iu) w(iv)
          + K [1 + u^2 - uv + k^2 uv + v^2 + k^2 u^2 v^2],
    each term divided by w(iu) (u-v)^2 first where that form overflows
    (_dt0_du_far); ValueError where dT0/du itself overflows.
    """
    p, k, K, E, u, v = args = _chart_args(p, k, u, v)
    value = _dt0_du(*args) if (u - v) * (u - v) else math.inf  # else the value overflows
    return _finite(value if math.isfinite(value) else _dt0_du_far(*args), u, v)


def dT0_du(mp: ModuliPoint) -> float:
    return dt0_du_raw(mp.p, mp.k, mp.u, mp.v)


def dT_tilde_du_tilde(p: float, k: float, u_tilde: float, v_tilde: float) -> float:
    """dT~/du~ = (1 + u^2)/2 * dT0/du at the chart values u = tan(u~/2) and
    v = tan(v~/2), which are finite at every float angle."""
    return _dT_du(*_angle_args(p, k, u_tilde, v_tilde))


def _dT_du(p, k, K, E, u, v, wu=None, wv=None):
    """dT_tilde_du_tilde at chart values u, v (floats or arrays), given K(k), E(k), w's if known."""
    return 0.5 * (1.0 + u * u) * _dt0_du(p, k, K, E, u, v, wu, wv)


def dT_tilde_dv_tilde(p: float, k: float, u_tilde: float, v_tilde: float) -> float:
    """dT~/dv~, obtained from the u-derivative through the inversion symmetry
    T0(p,k,u,v) = -p T0(1/p,k,v,u)."""
    return _dT_dv(*_angle_args(p, k, u_tilde, v_tilde))


def _dT_dv(p, k, K, E, u, v, wu=None, wv=None):
    """dT_tilde_dv_tilde at chart values u, v (floats or arrays), given K(k), E(k), w's if known."""
    return -0.5 * (1.0 + v * v) * p * _dt0_du(1.0 / p, k, K, E, v, u, wv, wu)


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
    """The closures level(x), giving f = T~ - q and the terms of free angle
    x, and slope(f, free), giving f' + f g'/g for g = sin(|x - held|/2), at
    the held angle's terms ``held`` (_level_part); floats or arrays.  -f/slope
    is Newton's step on f g, which has the roots of f but not its poles at
    the band ends; g'/g = (1 + u w)/(2(w - u)) at chart values u held, w free."""
    solve_for_u, u, wu = p > 1.0, held[1], held[2]

    def level(x):
        free = _level_part(k, K, E, x)
        return _t_tilde(p, k, K, *((free, held) if solve_for_u else (held, free))) - q, free

    def slope(f, free):
        w, ww = free[1], free[2]
        d = _dT_du(p, k, K, E, w, u, ww, wu) if solve_for_u else _dT_dv(p, k, K, E, u, w, wu, ww)
        return d + f * (1.0 + u * w) / (2.0 * (w - u))
    return level, slope


def _no_convergence(q, residual) -> str:
    return f"no convergence for q={q!r}: residual {residual!r}"


def solve_level(p: float, q: float, k: float, fixed_angle: float,
                tol: float = DEFAULTS.solver_tol) -> ModuliPoint:
    """Solve T~ = q on the slice S = p at one (k, angle) chart point.

    For p > 1 the fixed angle is v~ and the solution angle u~ lies in
    (v~ - 2 pi, v~), where T~ increases; for p <= 1 the fixed angle is u~
    and v~ is solved in (u~, u~ + 2 pi), where T~ decreases.  T~ diverges
    with opposite signs at the band ends, so bracketed Newton with bisection
    fallback on the band less 1e-12 at each end (_band), stepping on the
    level with those poles deflated (_level_fns), converges to every
    reachable level.  The first iterate is the bracket's midpoint; a level
    out of reach fails when the iterate stalls or lands on the held angle,
    T~'s pole (at once, residual nan, where the band holds no float), or
    after _MAX_STEPS steps.  The held angle and q are solved as floats.
    """
    p = _check_ratio(p)
    fixed_angle = float(fixed_angle)
    if not math.isfinite(fixed_angle):
        raise ValueError(f"the held angle must be finite, got {fixed_angle!r}")
    if not math.isfinite(q):
        raise ValueError(f"the level q must be finite, got {q!r}")
    k = _check_modulus(k)
    K, E = _complete_KE(k)
    a, b, sign = _band(p, fixed_angle)
    level, slope = _level_fns(p, float(q), k, K, E, _level_part(k, K, E, fixed_angle))
    x = 0.5 * (a + b)
    if x == fixed_angle:  # the band holds no float: no residual, as in _lockstep
        raise LevelSolveError(_no_convergence(q, math.nan))
    fx, free = level(x)
    for _ in range(_MAX_STEPS):
        if abs(fx) < tol:
            u, v = (x, fixed_angle) if p > 1.0 else (fixed_angle, x)
            return ModuliPoint(p=p, k=k, u_tilde=u, v_tilde=v)
        a, b = (x, b) if (fx < 0.0) == (sign > 0.0) else (a, x)
        d = slope(fx, free)
        step = -fx / d if d != 0.0 else 0.0
        xn = x + step
        if not (a < xn < b) or step == 0.0:
            xn = 0.5 * (a + b)
        if xn == x or xn == fixed_angle:  # a stall, or T~'s pole at the held angle
            break
        x, (fx, free) = xn, level(xn)
    raise LevelSolveError(_no_convergence(q, fx))


def _at(at, *values):
    """Each array of ``values`` at the indices or mask ``at``; a float as it is."""
    return [v[at] if isinstance(v, np.ndarray) else v for v in values]


def _lockstep(p: float, q: float, k, K, E, angle: np.ndarray, held,
              tol: float) -> tuple[np.ndarray, np.ndarray]:
    """solve_level at every point (k[i], angle[i]) of float64 arrays, in
    lockstep, given a checked p, K(k) and E(k) (elliptic._complete_KE), k, K
    and E each an array of per-point values or one float for every point,
    and the first four of the held angle's terms (_level_part) at every point.

    Runs the scalar solver's policy on all points at once: the same bracket
    and start (_band's midpoint), level and slope (_level_fns),
    Newton-or-midpoint step, step limit and failure reason, on the same
    floating-point values, so every point ends where
    solve_level(p, q, k[i], angle[i], tol) would, after as many evaluations
    of T~ where its band holds a float: a point leaves as it converges,
    stalls or lands on its held angle, before its next iterate is evaluated,
    and the per-point constants are cut to the running points as points
    leave.  Once every running point has converged the solve stops before
    the slope, as solve_level does.  Returns the solved angle of every
    point, nan where it failed, and the residual T~ - q where it failed, nan
    elsewhere or with no float in the band, whose reason is
    _no_convergence(q, residual).
    """
    a, b, sign = _band(p, angle)
    solved, residual = np.full((2, angle.size), np.nan)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        level, slope = _level_fns(p, q, k, K, E, held)
        idx, x = np.arange(angle.size), 0.5 * (a + b)
        fx, free = level(x)
        fx[x == angle] = np.nan  # the band holds no float: no residual, as in solve_level
        for _ in range(_MAX_STEPS):
            done = np.abs(fx) < tol
            if done.all():  # as solve_level returns, before the slope
                solved[idx] = x
                break
            lower = (fx < 0.0) == (sign > 0.0)
            a, b = np.where(lower, x, a), np.where(lower, b, x)
            d = slope(fx, free)
            step = np.where(d != 0.0, -fx / d, 0.0)
            xn = x + step
            inside = (a < xn) & (xn < b) & (step != 0.0)
            xn = np.where(inside, xn, 0.5 * (a + b))
            stalled = (xn == x) | (xn == angle)
            leave = done | stalled
            if leave.any():
                solved[idx[done]] = x[done]
                residual[idx[stalled]] = fx[stalled]
                stay = ~leave
                if not stay.any():
                    break
                idx, xn, a, b, angle, k, K, E, *held = _at(stay, idx, xn, a, b, angle, k, K, E, *held)
                level, slope = _level_fns(p, q, k, K, E, held)
            x, (fx, free) = xn, level(xn)
        else:
            residual[idx] = fx
    return solved, residual


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
    that _lockstep solves, given K and E from one _complete_KE pass over the
    grid's k values and the held angle's terms at every point, and that the
    map of which inverse_coords is the one-point case takes to branch pairs;
    the solve follows solve_level bit for bit, and every point fails with
    the reason the scalar functions raise.
    """
    if k_grid < 2 or angle_grid < 2:
        raise ValueError("grids must have at least 2 samples")
    if not (0.0 < k_min < k_max < 1.0):
        raise ValueError("need 0 < k_min < k_max < 1")
    if not (math.isfinite(angle_span) and math.isfinite(angle_start)):
        raise ValueError("angle span and start must be finite")
    if not math.isfinite(angle_start + angle_span):  # the grid's last angle
        raise ValueError(f"the last grid angle must be finite, got {angle_start + angle_span!r}")
    if not math.isfinite(q):
        raise ValueError(f"the level q must be finite, got {q!r}")
    pf, qf = _check_ratio(p), float(q)
    ks = np.linspace(k_min, k_max, k_grid).tolist()
    angles = (angle_start + np.linspace(0.0, angle_span, angle_grid)).tolist()
    k, fixed = np.repeat(ks, angle_grid), np.tile(angles, k_grid)
    # K and E once per row of the k-major grid, the held terms at every point
    K, E = (np.repeat(x, angle_grid) for x in _complete_KE(np.array(ks)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        held = _level_part(k, K, E, fixed)[:4]
    solved, residual = _lockstep(pf, qf, k, K, E, fixed, held, solver_tol)
    u_tilde, v_tilde = (solved, fixed) if pf > 1.0 else (fixed, solved)
    alpha, beta, rejected = _inverse_coords_array(pf, k, u_tilde, v_tilde)
    # a point the solver failed has nan angles, which the map does not reject
    unsolved = np.isnan(solved)
    failed = unsolved | np.not_equal(rejected, None)
    at = np.flatnonzero(failed)
    reasons = [_no_convergence(qf, r) if no_root else rejected[i] for i, no_root, r
               in zip(at.tolist(), unsolved[at].tolist(), residual[at].tolist())]
    return LevelSetMesh(
        Fraction(p), Fraction(q), ks, angles,
        *(np.where(failed, np.nan, x).reshape(k_grid, angle_grid)
          for x in (u_tilde, v_tilde, alpha, beta)),
        failures=list(zip(k[at].tolist(), fixed[at].tolist(), reasons)))


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

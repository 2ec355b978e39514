"""Differentials on a genus-one curve: periods, closing integrals, checklist.

Everything is computed in the Jacobi-form z-plane, where the curve is
w^2 = Q(z) = (1 - z^2)(1 - k^2 z^2) and the interesting differentials are

    omega    = dz/w                          (first kind)
    e        = (1 - k^2 z^2) dz/w            (second kind, pole at infinity)
    epsilon  = e + d[(z - i Im z0) w / ((z - z0)(z + conj(z0)))]
    theta_E  = i d(eta/zeta), expressed through w and the frame constant
    theta_P  = 2E omega - 2K epsilon         (periods 0 and 2 pi i)

Contour integration tracks the sheet of w by nearest continuation along the
path; homology representatives are rectangles crossing the real axis inside
the gaps between branch points, and the closing paths join the two points
over zeta = +-1 while winding once around z = 1, following the principal
route.  Integrals of the period-normalized differential over those paths
have the closed forms used by the moduli-space level function, and the
quadrature here is the independent check of them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .curves import (
    BranchPair, JacobiFrame, angle_rescale, build_frame, inverse_coords,
)
from .elliptic import (
    TWO_PI, complete_E, complete_K, incomplete_E_reg_imag, incomplete_F_imag,
    w_imag,
)
from .moduli import S_value, solve_level, t0_raw

DIFFERENTIAL_KINDS = ("omega", "e", "epsilon", "theta_E", "theta_P")

__all__ = [
    "PathSpec", "ClosingData", "PathError", "ContinuationError",
    "eta_plus", "theta_E_gamma", "theta_P_gamma_closed", "gamma_closing_values",
    "contour_integral", "loop_A", "loop_B", "gamma0_path",
    "laurent_coefficients", "theta_P_characterization_check",
    "construct_psi", "monodromy_track", "hitchin_checklist", "ChecklistEntry",
]


class PathError(ValueError):
    """Path violates clearance or sampling preconditions."""


class ContinuationError(RuntimeError):
    """Sheet tracking became ambiguous or quadrature failed to settle."""


def eta_plus(zeta: complex, bp: BranchPair) -> complex:
    """eta+ on the unit circle: zeta |zeta - alpha| |zeta - beta|."""
    zeta = complex(zeta)
    if abs(abs(zeta) - 1.0) > 1e-9:
        raise ValueError("eta+ is defined on the unit circle only")
    return zeta * abs(zeta - bp.alpha) * abs(zeta - bp.beta)


def theta_E_gamma(sign: int, bp: BranchPair) -> complex:
    """Closing integral of the exact differential: 2i eta+(1), -2i eta+(-1)."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if sign == 1:
        return 2j * eta_plus(1.0, bp)
    return -2j * eta_plus(-1.0, bp)


# ---------------------------------------------------------------------------
# frame-derived geometry

@dataclass(frozen=True)
class _Geometry:
    """Cached constants and coefficient functions for one Jacobi frame."""

    frame: JacobiFrame

    @cached_property
    def k(self) -> float:
        return self.frame.k

    @cached_property
    def K(self) -> float:
        return complete_K(self.k)

    @cached_property
    def E(self) -> float:
        return complete_E(self.k)

    @cached_property
    def z0(self) -> complex:
        return self.frame.z0

    @cached_property
    def branch_points(self) -> tuple[float, float, float, float]:
        return (1.0, -1.0, 1.0 / self.k, -1.0 / self.k)

    @cached_property
    def poles(self) -> tuple[complex, complex]:
        return (self.z0, -self.z0.conjugate())

    @cached_property
    def exact_scale(self) -> complex:
        """C with theta_E = i C d[w/D]; C = 4 nu (Re z0)^2 / c, real negative."""
        return 4.0 * self.frame.nu * self.z0.real ** 2 / self.frame.eta_to_w_scale

    def Q(self, z: complex) -> complex:
        k2 = self.k * self.k
        return (1.0 - z * z) * (1.0 - k2 * z * z)

    def dQ(self, z: complex) -> complex:
        k2 = self.k * self.k
        return -2.0 * z * (1.0 + k2 - 2.0 * k2 * z * z)

    def N(self, z: complex) -> complex:
        return z - 1j * self.z0.imag

    def D(self, z: complex) -> complex:
        return (z - self.z0) * (z + self.z0.conjugate())

    def coefficient(self, kind: str):
        """dz-coefficient of the named differential as a function of (z, w)."""
        k2 = self.k * self.k
        if kind == "omega":
            return lambda z, w: 1.0 / w
        if kind == "e":
            return lambda z, w: (1.0 - k2 * z * z) / w
        if kind == "epsilon":
            def eps(z, w):
                D, N = self.D(z), self.N(z)
                return ((1.0 - k2 * z * z) / w
                        + w * (D - 2.0 * N * N) / (D * D)
                        + N * self.dQ(z) / (2.0 * w * D))
            return eps
        if kind == "theta_E":
            C = self.exact_scale
            def thE(z, w):
                D, N = self.D(z), self.N(z)
                return 1j * C * (self.dQ(z) * D / (2.0 * w) - 2.0 * N * w) / (D * D)
            return thE
        if kind == "theta_P":
            eps = self.coefficient("epsilon")
            twoE, twoK = 2.0 * self.E, 2.0 * self.K
            return lambda z, w: twoE / w - twoK * eps(z, w)
        raise ValueError(f"unknown differential {kind!r}")

    def has_poles(self, kind: str) -> bool:
        return kind in ("epsilon", "theta_E", "theta_P")


# ---------------------------------------------------------------------------
# paths

@dataclass(frozen=True)
class PathSpec:
    """Polyline in the z-plane with the starting sheet of w.

    ``sheet`` is +1 or -1 relative to the principal square root of Q at the
    first point; the tracked w starts there and continues by nearest value.
    """

    points: tuple[complex, ...]
    sheet: int = 1

    def __post_init__(self):
        if len(self.points) < 2:
            raise ValueError("a path needs at least two points")
        if self.sheet not in (1, -1):
            raise ValueError("sheet must be +1 or -1")

    @property
    def closed(self) -> bool:
        return self.points[0] == self.points[-1]


def _seg_point_distance(a: complex, b: complex, p: complex) -> float:
    ab = b - a
    L2 = (ab * ab.conjugate()).real
    if L2 == 0.0:
        return abs(p - a)
    t = ((p - a) * ab.conjugate()).real / L2
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * ab))


#: Minimum distance of a contour path from branch points and double poles.
_CLEARANCE = 1e-3


def _check_clearance(path: PathSpec, centers) -> None:
    for a, b in zip(path.points[:-1], path.points[1:]):
        for c in centers:
            d = _seg_point_distance(a, b, c)
            if d < _CLEARANCE:
                raise PathError(
                    f"path passes within {d:.2e} of {c!r} (clearance {_CLEARANCE:.2e})")


def _grade(y_from: float, y_to: float) -> list[float]:
    """Geometric intermediate levels for a long vertical run toward the axis."""
    out = [y_from]
    y = y_from
    while abs(y) > 4.0 and abs(y) > 2.0 * abs(y_to) + 1.0:
        y = y / 2.0
        out.append(y)
    out.append(y_to)
    return out


def loop_A(frame: JacobiFrame) -> PathSpec:
    """Cycle around the branch points -1 and 1, oriented so that the
    holomorphic differential integrates to +4K on the starting sheet.

    The vertical edges sit at x = +-min(1.2, (1 + 1/k)/2) unless a double
    pole lies within 0.1 of them, and otherwise at the candidate in (1, 1/k)
    farthest from the poles and branch points.
    """
    h = _pick_height(frame)
    poles = (frame.z0, -frame.z0.conjugate())

    def gap(x, centers=poles + (1.0, 1.0 / frame.k)):  # the left edge mirrors it
        return min(_seg_point_distance(x - 1j * h, x + 1j * h, c) for c in centers)
    xa = min(1.2, 0.5 * (1.0 + 1.0 / frame.k))
    if gap(xa, poles) < 0.1:
        xa = max((1.0 + f * (xa - 1.0) for f in (1.0, 0.5, 1.5, 0.25, 1.75)), key=gap)
    pts = (-1j * h, xa - 1j * h, xa + 1j * h, -xa + 1j * h, -xa - 1j * h, -1j * h)
    return PathSpec(points=pts, sheet=1)


def loop_B(frame: JacobiFrame) -> PathSpec:
    """Cycle around the branch points 1 and 1/k; +2iK' for the first kind."""
    k = frame.k
    xB = 1.0 / k + max(0.25, 0.25 * (1.0 / k - 1.0))
    h = _pick_height(frame)
    pts = (-1j * h, 1j * h, xB + 1j * h, xB - 1j * h, -1j * h)
    return PathSpec(points=pts, sheet=1)


def _pick_height(frame: JacobiFrame) -> float:
    """Rectangle height maximizing distance from the double poles.

    Pole crossings cost no correctness (the residues vanish) but ruin the
    quadrature rate, so the loop geometry dodges them when it can.
    """
    z0 = frame.z0
    poles = (z0, -z0.conjugate())
    best, best_d = None, -1.0
    for h in (0.45, 0.3, 0.65, 0.2):
        d = min(min(abs(p.imag - s * h) for s in (1.0, -1.0)) for p in poles)
        if d > best_d:
            best, best_d = h, d
    return best


def gamma0_path(sign: int, frame: JacobiFrame) -> PathSpec:
    """Principal closing path over zeta = +1 (sign +) or -1 (sign -).

    Starts at f(+-1) = i x on the sheet w = -w+(x), drops to the real axis
    beside the origin, winds once around the branch point z = 1 crossing the
    cut midway between 1 and 1/k, and returns on the other sheet.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    x = frame.u if sign == 1 else frame.v
    if math.isinf(x) or abs(x) > 1e4:
        raise PathError("endpoint too close to nu = +-1; use a deck translate")
    k = frame.k
    xc = 0.5 * (1.0 + 1.0 / k)
    z0 = frame.z0
    poles = (z0, -z0.conjugate())

    def build(d, h):
        left = [complex(-d, y) for y in _grade(x, -h)]
        right = [complex(d, y) for y in _grade(x, h)][::-1]
        pts = [1j * x, *left, xc - 1j * h, xc + 1j * h, *right, 1j * x]
        return PathSpec(points=tuple(pts), sheet=-1)

    best, best_d = None, -1.0
    for d in (0.35, 0.5, 0.22):
        for h in (0.25, 0.4, 0.15):
            p = build(d, h)
            dist = min(min(_seg_point_distance(a, b, c)
                           for a, b in zip(p.points[:-1], p.points[1:]))
                       for c in poles)
            if dist > best_d:
                best, best_d = p, dist
    return best


# ---------------------------------------------------------------------------
# quadrature with sheet tracking

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(16)


def _track_sheet(geom: _Geometry, zs: np.ndarray, w0: complex) -> np.ndarray:
    """Continue w = sqrt(Q) by nearest value along the nodes zs, from w0.

    Each node takes the root of Q nearer to the previous value, so the sheet
    sign is a running product of sign flips; a tie keeps the sheet.  Raises
    ContinuationError when a step, including the first one from w0, moves w
    by more than 60 percent, which signals under-resolution near a branch
    point.
    """
    s = np.sqrt(geom.Q(zs))
    prev = np.concatenate(([w0], s[:-1]))
    w = s * np.cumprod(np.where((s * prev.conj()).real < 0.0, -1.0, 1.0))
    w_prev = np.concatenate(([w0], w[:-1]))
    bad = np.abs(w - w_prev) > 0.6 * np.abs(w_prev)
    if bad.any():
        raise ContinuationError(
            f"sheet tracking ambiguous near {complex(zs[bad.argmax()])!r}; "
            "refine the path")
    return w


def _walk_segment(geom: _Geometry, coeffs, z1: complex, z2: complex,
                  w_start: complex, nsub: int) -> tuple[list[complex], complex]:
    """Composite Gauss rule over [z1, z2] for each coefficient, tracking w
    once from w_start.

    Returns (integrals, w at z2); ContinuationError propagates from the
    sheet tracking.
    """
    half = 0.5 * (z2 - z1) / nsub
    mids = z1 + half * (2 * np.arange(nsub) + 1)
    zs = np.append((mids[:, None] + half * _GAUSS_X).ravel(), z2)
    w = _track_sheet(geom, zs, w_start)
    return [complex(half * (coeff(zs[:-1], w[:-1]).reshape(nsub, len(_GAUSS_W))
                            @ _GAUSS_W).sum()) for coeff in coeffs], complex(w[-1])


def _integrate(geom: _Geometry, coeffs, path: PathSpec) -> tuple[list[complex], complex]:
    """Integrate each coeff(z, w) dz along the path; returns (values, final w).

    Each segment is refined by doubling, one walk per level for all of them.
    A value freezes at the first level where two successive rules agree to
    1e-10 relative (1e-13 absolute), bit for bit as if integrated alone.
    """
    w = path.sheet * cmath.sqrt(geom.Q(path.points[0]))
    totals = [0.0 + 0.0j] * len(coeffs)
    for z1, z2 in zip(path.points[:-1], path.points[1:]):
        if z1 == z2:
            continue
        nsub = max(4, min(64, int(abs(z2 - z1) / 0.25) + 1))
        vals, open_ = [None] * len(coeffs), range(len(coeffs))
        for _ in range(13):
            try:
                new, w_end = _walk_segment(geom, [coeffs[i] for i in open_],
                                           z1, z2, w, nsub)
            except ContinuationError:
                nsub *= 2
                continue
            still = []
            for i, val in zip(open_, new):
                if not (vals[i] is not None and abs(val - vals[i]) <= max(
                        1e-13, 1e-10 * max(abs(val), 1.0))):
                    still.append(i)
                vals[i] = val
            open_ = still
            if not open_:
                break
            nsub *= 2
        else:
            raise ContinuationError(f"no quadrature convergence on [{z1!r}, {z2!r}]")
        totals = [t + v for t, v in zip(totals, vals)]
        w = w_end
    return totals, w


def contour_integral(kind: str, path: PathSpec, frame: JacobiFrame) -> complex:
    """Numerical line integral of a named differential along a path.

    The sheet of w is continued from the path's starting tag; the path must
    keep a clearance of 1e-3 from branch points, and from the double poles
    when the differential has them.
    """
    geom = _Geometry(frame)
    if kind not in DIFFERENTIAL_KINDS:
        raise ValueError(f"unknown differential {kind!r}")
    centers = list(geom.branch_points)
    if geom.has_poles(kind):
        centers += list(geom.poles)
    _check_clearance(path, centers)
    (value,), _ = _integrate(geom, [geom.coefficient(kind)], path)
    return value


def _theta_P_gamma_value(sign: int, frame: JacobiFrame) -> complex:
    """Closed form of the principal closing integral of theta_P.

    i [4E ImF(ix) - 4K Im(E - k i x)(x) - 4K G(x)] at x = u (sign +) or
    x = v (sign -), with G grouped so large |x| stays cancellation-free.
    An endpoint at infinity (nu = +-1 exactly) takes the limit from the
    x -> +infinity side.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    x = frame.u if sign == 1 else frame.v
    k = frame.k
    K, E = complete_K(k), complete_E(k)
    z0 = frame.z0
    x0, y0 = z0.real, z0.imag
    if math.isinf(x):
        G = -k * y0
    else:
        W = w_imag(x, k)
        dre = -((x - y0) ** 2 + x0 * x0)
        m_num = (x - y0) * ((1.0 + (1.0 + k * k) * x * x) / (W + k * x * x)
                            + k * x * y0) - k * x * x0 * x0
        G = m_num / dre
    return 1j * (4.0 * E * incomplete_F_imag(x, k)
                 - 4.0 * K * (incomplete_E_reg_imag(x, k) + G))


def theta_P_gamma_closed(sign: int, frame: JacobiFrame) -> complex:
    """Principal closing integral of theta_P in closed form, purely imaginary.

    Rejected within 1e-9 of nu = +-1, where the principal path runs through
    infinity and only one-sided limits exist; callers needing those limits
    use the internal value function.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    nu_gap = abs(frame.nu - 1.0) if sign == 1 else abs(frame.nu + 1.0)
    if nu_gap < 1e-9:
        raise ValueError("nu within 1e-9 of +-1; use a deck-translated representative")
    return _theta_P_gamma_value(sign, frame)


def gamma_closing_values(frame: JacobiFrame) -> dict[tuple[str, int], complex]:
    """Closing integrals of theta_E and theta_P over both principal paths.

    Contour quadrature is used where the paths exist, one pass over each
    path for the pair; when an endpoint sits at infinity (nu within the
    guard of +-1) the closed-form limit stands in.
    """
    geom = _Geometry(frame)
    pair = (geom.coefficient("theta_P"), geom.coefficient("theta_E"))
    out: dict[tuple[str, int], complex] = {}
    for s in (1, -1):
        out[("theta_E", s)] = theta_E_gamma(s, frame.pair)
        try:
            path = gamma0_path(s, frame)
            _check_clearance(path, geom.branch_points + geom.poles)
        except PathError:
            out[("theta_P", s)] = _theta_P_gamma_value(s, frame)
            continue
        (quad_P, quad_E), _ = _integrate(geom, pair, path)
        if abs(quad_E - out[("theta_E", s)]) > 1e-6:
            raise ContinuationError(f"gamma path quadrature inconsistent: {quad_E!r}")
        out[("theta_P", s)] = quad_P
    return out


# ---------------------------------------------------------------------------
# Laurent data at the double poles

def _pole_radius(geom: _Geometry, center: complex) -> float:
    """Laurent sampling radius at a center: 0.05, or 0.3 of the distance to
    the nearest other branch point or pole when that is smaller."""
    others = list(geom.branch_points) + \
        [p for p in geom.poles if abs(p - center) > 1e-12]
    return min(0.05, 0.3 * min(abs(center - c) for c in others))


def laurent_coefficients(kind: str, center: complex, frame: JacobiFrame,
                         orders=(-2, -1, 0), coeff=None) -> dict[int, complex]:
    """Laurent coefficients of a differential's dz-coefficient at a point.

    Samples a circle of 128 points around the center with continuous sheet
    tracking and projects onto powers; exponentially accurate for analytic
    data.  The starting sheet is the principal square root at the first
    sample, which is enough for the pole-order and ratio checks (a sheet
    flip scales every coefficient by -1).
    """
    geom = _Geometry(frame)
    if coeff is None:
        coeff = geom.coefficient(kind)
    rho = _pole_radius(geom, center)
    thetas = np.linspace(0.0, TWO_PI, 128, endpoint=False)
    zs = center + rho * np.exp(1j * thetas)
    vals = coeff(zs, _track_sheet(geom, zs, np.sqrt(geom.Q(zs[0]))))
    out = {}
    for mth in orders:
        out[mth] = (vals * np.exp(-1j * mth * thetas)).mean() / rho ** mth
    return out


def theta_P_characterization_check(frame: JacobiFrame) -> float:
    """Real part of pp(theta_P)/pp(theta_E) at the pole over zeta = 0.

    The period-normalized differential is characterized by this ratio being
    purely imaginary; the returned deviation should vanish to 1e-8.
    """
    z0 = frame.z0
    cP = laurent_coefficients("theta_P", z0, frame, orders=(-2,))[-2]
    cE = laurent_coefficients("theta_E", z0, frame, orders=(-2,))[-2]
    return (cP / cE).real


# ---------------------------------------------------------------------------
# minimal closing pair

@dataclass(frozen=True)
class ClosingData:
    """Integers and reals pinning the minimal closing differentials.

    psi_E = a theta_E closes with integrals 2 pi i (n, m); psi_P =
    b theta_E + l theta_P closes with integrals 2 pi i (gamma_plus,
    gamma_minus).  l = m'/gcd(m', m n') is the minimal imaginary period.
    """

    n: int
    m: int
    n_prime: int
    m_prime: int
    l: int
    a: float
    b: float
    gamma_plus: int
    gamma_minus: int
    residual: float
    #: (frame, gamma_closing_values) the integers were rounded from
    gamma_integrals: tuple | None = field(default=None, compare=False, repr=False)


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return abs(a), (1 if a >= 0 else -1), 0
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


def construct_psi(S: Fraction, T: Fraction, frame: JacobiFrame) -> ClosingData:
    """Build the minimal pair of differentials satisfying the closing
    conditions on a curve with S = n/m and T = n'/m'.

    The curve's measured S must match n/m, and its principal T value must
    match n'/m' up to the multivaluedness lattice Z<1, S>; the congruence
    arithmetic then runs on the principal representative.  The four closing
    integrals are evaluated by contour quadrature (gamma_closing_values),
    rounded to integers, and the largest rounding residual is reported; the
    basis integrals are kept in ``gamma_integrals`` with the frame, for the
    checklist to reuse.  The measured S and T must match to 1e-9 relative,
    and each closing integral must lie within 1e-6 of its integer.
    """
    S, T = Fraction(S), Fraction(T)
    n, m = S.numerator, S.denominator
    np_, mp_ = T.numerator, T.denominator
    if n <= 0:
        raise ValueError("S must be a positive rational")

    bp = frame.pair
    s_meas = S_value(bp)
    if abs(s_meas - float(S)) > 1e-9 * max(1.0, abs(float(S))):
        raise ValueError(f"curve has S = {s_meas!r}, not {S}")
    t_meas = t0_raw(s_meas, frame.k, frame.u, frame.v)
    # principal representative of T in the coset T + Z<1, S> = T + (1/m) Z
    shift = round(m * (t_meas - float(T)))
    t_rep = T + Fraction(shift, m)
    if abs(t_meas - float(t_rep)) > 1e-9 * max(1.0, abs(t_meas)):
        raise ValueError(
            f"curve has principal T = {t_meas!r}, not {T} modulo Z<1,{S}>")
    nr, mr = t_rep.numerator, t_rep.denominator

    eta1 = abs(1.0 - bp.alpha) * abs(1.0 - bp.beta)       # eta+(1) = +|..|
    a = math.pi * n / eta1

    g = math.gcd(mr, abs(m * nr))
    l = mr // g
    # smallest-|gamma_plus| integer solution of n G- - m G+ = m nr / g
    M = (m * nr) // g
    _, xg, yg = _ext_gcd(n, m)
    gamma_minus = M * xg
    gamma_plus = -M * yg
    j = -round(gamma_plus / n)
    gamma_plus += n * j
    gamma_minus += m * j

    I_plus = _theta_P_gamma_value(1, frame)
    b = (TWO_PI * gamma_plus - l * I_plus.imag) / (2.0 * eta1)

    # the four closing integrals, by quadrature where the paths exist
    vals = gamma_closing_values(frame)
    closing = {
        "psi_E_plus": (a * vals[("theta_E", 1)], n),
        "psi_E_minus": (a * vals[("theta_E", -1)], m),
        "psi_P_plus": (b * vals[("theta_E", 1)] + l * vals[("theta_P", 1)], gamma_plus),
        "psi_P_minus": (b * vals[("theta_E", -1)] + l * vals[("theta_P", -1)], gamma_minus),
    }
    residual = 0.0
    for name, (val, expect) in closing.items():
        got = val / (2j * math.pi)
        err = abs(got - round(got.real))
        residual = max(residual, err)
        if err > 1e-6:
            raise ContinuationError(
                f"closing integral {name} = {val!r} not near 2 pi i Z")
        if round(got.real) != expect:
            raise ContinuationError(
                f"closing integral {name} rounds to {round(got.real)}, expected {expect}")
    return ClosingData(n=n, m=m, n_prime=np_, m_prime=mp_, l=l, a=a, b=b,
                       gamma_plus=gamma_plus, gamma_minus=gamma_minus,
                       residual=residual, gamma_integrals=(frame, vals))


# ---------------------------------------------------------------------------
# monodromy around an annulus component

def monodromy_track(q: Fraction, loop_samples: int = 48, k: float = 0.5,
                    u_tilde0: float = 0.3,
                    contractible: bool = False) -> int:
    """Integer c with psi_P(end) - psi_P(start) = c psi_E around a loop.

    Tracks the non-exact closing differential continuously around the p = 1
    annulus at level q (one half-turn of the rescaled angle), or around a
    small contractible loop in the (k, angle) chart when ``contractible``.
    The annulus loop is oriented so that the closing integral over the
    gamma+ path gains +2 pi i per circuit, matching the deck-shift bookkeeping.
    """
    q = Fraction(q)
    mp_ = q.denominator
    l = mp_  # at p = 1, n = m = 1 so l = m'/gcd(m', n') = m'
    qf = float(q)
    rk = math.sqrt(k)

    if loop_samples < 8:
        raise ValueError("loop_samples must be at least 8")

    def sample(t: float) -> tuple[float, float]:
        """(k, u~) along the loop at parameter t in [0, 1]."""
        if contractible:
            return (k + 0.05 * math.sin(TWO_PI * t),
                    u_tilde0 + 0.2 * (math.cos(TWO_PI * t) - 1.0))
        U0 = angle_rescale(u_tilde0, rk)
        return k, angle_rescale(U0 + math.pi * t, 1.0 / rk)

    def principal(t: float) -> float:
        kk, ut = sample(t)
        mp = solve_level(1.0, qf, kk, ut)
        frame = build_frame(inverse_coords(mp))
        return _theta_P_gamma_value(1, frame).imag

    # continuity tracking of the gamma+ integral, with local bisection when
    # a principal-branch jump is crossed too fast
    ts = [j / loop_samples for j in range(loop_samples + 1)]
    I0 = principal(0.0)
    cont = [I0]
    idx = 1
    prev_t, prev_I = 0.0, I0
    while idx < len(ts):
        t = ts[idx]
        I_raw = principal(t)
        c = round((prev_I - I_raw) / TWO_PI)
        I_adj = I_raw + TWO_PI * c
        if abs(I_adj - prev_I) > 2.0 and (t - prev_t) > 1e-4:
            ts.insert(idx, 0.5 * (prev_t + t))
            continue
        cont.append(I_adj)
        prev_t, prev_I = t, I_adj
        idx += 1

    delta = cont[-1] - cont[0]
    turns = round(delta / TWO_PI)
    if abs(delta - TWO_PI * turns) > 1e-6 * max(1.0, abs(delta)) + 1e-6:
        raise ContinuationError(f"gamma+ integral shifted by {delta!r}, not 2 pi Z")
    # b(t) = (2 pi G+ - l I(t)) / (2 eta+(1)); a = pi n / eta+(1) with n = 1
    return -l * turns


# ---------------------------------------------------------------------------
# the spectral-data checklist

@dataclass(frozen=True)
class ChecklistEntry:
    item: str
    residual: float
    detail: str


def _closing_pair_coeffs(geom: _Geometry, closing: ClosingData | None):
    """Coefficient functions for the pair to run the checklist on."""
    thE = geom.coefficient("theta_E")
    thP = geom.coefficient("theta_P")
    if closing is None:
        return ("theta_E", thE), ("theta_P", thP)
    a, b, l = closing.a, closing.b, closing.l
    return (("psi_E", lambda z, w: a * thE(z, w)),
            ("psi_P", lambda z, w: b * thE(z, w) + l * thP(z, w)))


def hitchin_checklist(frame: JacobiFrame, closing: ClosingData | None = None,
                      rng: np.random.Generator | None = None) -> list[ChecklistEntry]:
    """Numerical validation of the spectral-data conditions for a curve.

    Runs on the constructed minimal closing pair when given, otherwise on
    the raw pair (theta_E, theta_P), whose closing integrals are generally
    not integral; that failure shows up in the closing entry.  That entry
    reuses the gamma integrals construct_psi rounded when the closing was
    built on this frame (the same quadrature, computed once) and integrates
    the paths otherwise; loops A and B take one pass each for the pair.  The
    quaternionic line-bundle condition is a one-parameter choice that this
    library does not construct; it is reported as a note.
    """
    rng = rng or np.random.default_rng(7)
    geom = _Geometry(frame)
    bp = frame.pair
    entries: list[ChecklistEntry] = []

    # real curve: zeta^4 conj(P(1/conj(zeta))) = P(zeta)
    zs = np.exp(1j * rng.uniform(0, TWO_PI, 16)) * rng.uniform(0.4, 2.0, 16)
    res = max(abs(z**4 * np.conj(bp.curve_poly(1.0 / np.conj(z))) - bp.curve_poly(z))
              / max(1.0, abs(bp.curve_poly(z))) for z in zs)
    entries.append(ChecklistEntry("P1 real curve", float(res),
                                  "max |z^4 conj P(1/conj z) - P(z)| / |P|"))

    margin = min(1.0 - abs(bp.alpha), 1.0 - abs(bp.beta))
    entries.append(ChecklistEntry("P2 no circle zeros", 0.0 if margin > 0 else 1.0,
                                  f"distance of branch points to circle: {margin:.3e}"))

    pair = _closing_pair_coeffs(geom, closing)
    pole_res = 0.0
    c2 = []  # leading coefficient at z0 of each differential, for P9
    for _, coeff in pair:
        for center in geom.poles:
            cs = laurent_coefficients("", center, frame, orders=(-2, -1), coeff=coeff)
            if center == geom.z0:
                c2.append(cs[-2])
            if abs(cs[-2]) < 1e-10:
                pole_res = max(pole_res, 1.0)
            pole_res = max(pole_res, abs(cs[-1]) * _pole_radius(geom, center)
                           / abs(cs[-2]))
    entries.append(ChecklistEntry("P3 double poles, no residues", float(pole_res),
                                  "normalized residue at the poles over 0, infinity"))

    # sample points near the unit-circle image for the symmetry checks
    test_z = [complex(x, y) for x, y in rng.uniform(-1.5, 1.5, (12, 2))]
    test_z = [z for z in test_z
              if min(abs(z - c) for c in list(geom.branch_points) + list(geom.poles)) > 0.15]
    sig_res = rho_res = 0.0
    for _, coeff in pair:
        for z in test_z:
            w = cmath.sqrt(geom.Q(z))
            scale = max(1.0, abs(coeff(z, w)))
            sig_res = max(sig_res, abs(coeff(z, -w) + coeff(z, w)) / scale)
            rho_res = max(rho_res, abs(coeff(-z.conjugate(), w.conjugate())
                                       - coeff(z, w).conjugate()) / scale)
    entries.append(ChecklistEntry("P4 involution odd", float(sig_res),
                                  "sigma* theta = -theta on samples"))
    entries.append(ChecklistEntry("P5 reality", float(rho_res),
                                  "rho* theta = -conj(theta) on samples"))

    periods = {lname: _integrate(geom, [coeff for _, coeff in pair], loop)[0]
               for lname, loop in (("A", loop_A(frame)), ("B", loop_B(frame)))}
    imag_res = int_res = 0.0
    details = []
    for j, (name, _) in enumerate(pair):
        for lname in ("A", "B"):
            val = periods[lname][j]
            imag_res = max(imag_res, abs(val.real) / TWO_PI)
            t = val.imag / TWO_PI
            int_res = max(int_res, abs(t - round(t)))
            details.append(f"{name}.{lname}={round(t)}")
    entries.append(ChecklistEntry("P6 imaginary periods", float(imag_res),
                                  "Re of periods / 2 pi"))
    entries.append(ChecklistEntry("P7 periods in 2 pi i Z", float(int_res),
                                  ", ".join(details)))

    close_res = 0.0
    details = []
    built_on, gvals = (closing and closing.gamma_integrals) or (None, None)
    if built_on != frame:
        gvals = gamma_closing_values(frame)
    for s in (1, -1):
        thE, thP = gvals[("theta_E", s)], gvals[("theta_P", s)]
        if closing is None:
            vals = {"theta_E": thE, "theta_P": thP}
        else:
            vals = {"psi_E": closing.a * thE,
                    "psi_P": closing.b * thE + closing.l * thP}
        for name, val in vals.items():
            t = val / (2j * math.pi)
            close_res = max(close_res, abs(t - round(t.real)))
            details.append(f"{name}.gamma{'+' if s == 1 else '-'}={t.real:.6f}")
    entries.append(ChecklistEntry("P8 closing integrals", float(close_res),
                                  ", ".join(details)))

    indep = abs((c2[1] / c2[0]).imag)
    entries.append(ChecklistEntry("P9 independent principal parts",
                                  0.0 if indep > 1e-6 else 1.0,
                                  f"|Im(pp ratio)| = {indep:.3e}"))
    entries.append(ChecklistEntry("P10 quaternionic line bundle", 0.0,
                                  "circle of line-bundle choices; not constructed"))
    return entries

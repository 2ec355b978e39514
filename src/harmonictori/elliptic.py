"""Legendre elliptic integrals on the imaginary axis and their lifts.

Complete integrals K, E are computed by the arithmetic-geometric mean, the
incomplete ones by adaptive quadrature of the real integrand forms obtained
by restricting to purely imaginary arguments.  The lifted versions extend
those integrals to the universal cover of the real projective line, which is
where the genus-one closing function lives; the winding-number helper keeps
the two descriptions in sync.

Conventions: the modulus k always lies in (0, 1); K' and E' denote the
complete integrals at the complementary modulus sqrt(1 - k^2).  One full
turn of the cover adds 2K' to the lifted F and 2(K' - E') to the lifted
regularized E, so that E*F~ - K*E~ gains exactly pi per turn by Legendre's
relation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from scipy.integrate import quad

TWO_PI = 2.0 * math.pi

#: Half-width (radians) of the guard band around the infinity chart boundary.
_BOUNDARY_EPS = 1e-9

__all__ = [
    "EllipticModulus", "LiftedAngle", "ChartBoundary",
    "complete_K", "complete_E", "complementary_modulus", "legendre_defect",
    "w_imag", "incomplete_F_imag", "incomplete_E_reg_imag",
    "lifted_F", "lifted_E", "wind",
]


class ChartBoundary(ValueError):
    """Raised when an angle sits on the infinity chart boundary.

    The finite chart value tan(x~/2) is meaningless within the guard band
    around odd multiples of pi; callers must switch to the cot(x~/2) chart
    or to a formula with an explicit limit there.
    """


def _check_modulus(k: float) -> float:
    k = float(k)
    if not (0.0 < k < 1.0) or math.isnan(k):
        raise ValueError(f"elliptic modulus must lie in (0,1), got {k!r}")
    return k


def complementary_modulus(k: float) -> float:
    k = _check_modulus(k)
    # (1-k)(1+k) keeps precision as k -> 1
    return math.sqrt((1.0 - k) * (1.0 + k))


@dataclass(frozen=True)
class EllipticModulus:
    """Modulus k of the Jacobi form w^2 = (1 - z^2)(1 - k^2 z^2)."""

    k: float

    def __post_init__(self):
        _check_modulus(self.k)

    @property
    def complement(self) -> float:
        return complementary_modulus(self.k)


def _as_k(k) -> float:
    if isinstance(k, EllipticModulus):
        return k.k
    return _check_modulus(k)


@lru_cache(maxsize=4096)
def _agm_KE(k: float) -> tuple[float, float]:
    """(K, E) at modulus k via the AGM iteration, keyed exactly by k bits."""
    a, b, c = 1.0, complementary_modulus(k), k
    csum = 0.5 * c * c
    power = 1.0
    for _ in range(60):
        if abs(a - b) <= 4e-16 * a:
            break
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        power *= 2.0
        csum += 0.5 * power * c * c
    K = math.pi / (a + b)  # a and b agree to machine precision here
    return K, K * (1.0 - csum)


def complete_K(k) -> float:
    """Complete elliptic integral of the first kind, modulus convention."""
    return _agm_KE(_as_k(k))[0]


def complete_E(k) -> float:
    """Complete elliptic integral of the second kind, modulus convention."""
    return _agm_KE(_as_k(k))[1]


def legendre_defect(k) -> float:
    """K'E + KE' - KK' - pi/2, identically zero in exact arithmetic."""
    k = _as_k(k)
    kp = complementary_modulus(k)
    K, E = _agm_KE(k)
    Kp, Ep = _agm_KE(kp)
    return Kp * E + K * Ep - K * Kp - 0.5 * math.pi


def w_imag(u: float, k) -> float:
    """w(iu) = +sqrt((1 + u^2)(1 + k^2 u^2)), the positive sheet value."""
    k = _as_k(k)
    u = float(u)
    if math.isinf(u):
        return math.inf
    return math.sqrt((1.0 + u * u) * (1.0 + k * k * u * u))


def _quad(f, lo: float, hi: float) -> float:
    val, _ = quad(f, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)
    return val


def incomplete_F_imag(x: float, k) -> float:
    """Im F(ix; k): odd, increasing, bounded by K'(k).

    Splits at |t| = 1 and substitutes t -> 1/t on the outer part so that
    arbitrarily large (or infinite) x costs the same as moderate x.
    """
    k = _as_k(k)
    x = float(x)
    if x == 0.0:
        return 0.0
    sgn, ax = math.copysign(1.0, x), abs(x)

    def inner(t):
        return 1.0 / math.sqrt((1.0 + t * t) * (1.0 + k * k * t * t))

    def outer(s):  # t = 1/s
        return 1.0 / math.sqrt((s * s + 1.0) * (s * s + k * k))

    if ax <= 1.0:
        return sgn * _quad(inner, 0.0, ax)
    lo = 0.0 if math.isinf(ax) else 1.0 / ax
    return sgn * (_quad(inner, 0.0, 1.0) + _quad(outer, lo, 1.0))


def incomplete_E_reg_imag(x: float, k) -> float:
    """Im(E(ix; k) - k ix): odd, increasing, bounded by K'(k) - E'(k)."""
    k = _as_k(k)
    x = float(x)
    if x == 0.0:
        return 0.0
    sgn, ax = math.copysign(1.0, x), abs(x)
    one_m_k2 = (1.0 - k) * (1.0 + k)

    def inner(t):
        a = math.sqrt(1.0 + t * t)
        return one_m_k2 / (a * (math.sqrt(1.0 + k * k * t * t) + k * a))

    def outer(s):  # t = 1/s
        a = math.sqrt(s * s + 1.0)
        return one_m_k2 / (a * (math.sqrt(s * s + k * k) + k * a))

    if ax <= 1.0:
        return sgn * _quad(inner, 0.0, ax)
    lo = 0.0 if math.isinf(ax) else 1.0 / ax
    return sgn * (_quad(inner, 0.0, 1.0) + _quad(outer, lo, 1.0))


def _reduce_turns(x_tilde: float) -> tuple[int, float]:
    """Split x~ into full turns plus a remainder in [-pi, pi)."""
    m = math.floor((x_tilde + math.pi) / TWO_PI)
    return m, x_tilde - TWO_PI * m


def lifted_F(x_tilde: float, k) -> float:
    """Analytic continuation of Im F(i tan(x~/2); k) to the whole line.

    F~(x~ + 2 pi) = F~(x~) + 2 K'(k), and on |x~| < pi it agrees with
    incomplete_F_imag(tan(x~/2), k).
    """
    k = _as_k(k)
    x_tilde = float(x_tilde)
    m, r = _reduce_turns(x_tilde)
    Kp = complete_K(complementary_modulus(k))

    def integrand(s):
        c, sn = math.cos(0.5 * s), math.sin(0.5 * s)
        return 0.5 / math.sqrt(c * c + k * k * sn * sn)

    return 2.0 * m * Kp + (_quad(integrand, 0.0, r) if r != 0.0 else 0.0)


def lifted_E(x_tilde: float, k) -> float:
    """Analytic continuation of Im(E - k z) along the cover.

    E~(x~ + 2 pi) = E~(x~) + 2 (K'(k) - E'(k)).
    """
    k = _as_k(k)
    x_tilde = float(x_tilde)
    m, r = _reduce_turns(x_tilde)
    kp = complementary_modulus(k)
    inc = complete_K(kp) - complete_E(kp)
    one_m_k2 = (1.0 - k) * (1.0 + k)

    def integrand(s):
        c, sn = math.cos(0.5 * s), math.sin(0.5 * s)
        return 0.5 * one_m_k2 / (math.sqrt(c * c + k * k * sn * sn) + k)

    return 2.0 * m * inc + (_quad(integrand, 0.0, r) if r != 0.0 else 0.0)


def wind(x_tilde: float, eps: float = _BOUNDARY_EPS) -> int:
    """The unique integer W with -pi < x~ - 2 pi W < pi.

    Within ``eps`` of an odd multiple of pi the finite chart degenerates and
    ChartBoundary is raised; callers must use the infinity-chart formulas.
    """
    x_tilde = float(x_tilde)
    m, r = _reduce_turns(x_tilde)
    if abs(abs(r) - math.pi) < eps:
        raise ChartBoundary(f"{x_tilde!r} lies on the infinity chart boundary")
    return m


@dataclass(frozen=True)
class LiftedAngle:
    """A point x~ of the universal cover of RP^1, with chart bookkeeping."""

    x_tilde: float
    boundary_eps: float = _BOUNDARY_EPS

    @property
    def at_infinity(self) -> bool:
        _, r = _reduce_turns(self.x_tilde)
        return abs(abs(r) - math.pi) < self.boundary_eps

    @property
    def winding(self) -> int:
        return wind(self.x_tilde, self.boundary_eps)

    @property
    def chart_value(self) -> float:
        """tan(x~/2) on the finite chart; ChartBoundary at infinity."""
        if self.at_infinity:
            raise ChartBoundary(f"{self.x_tilde!r} is at infinity")
        return math.tan(0.5 * self.x_tilde)

    @property
    def inverse_chart_value(self) -> float:
        """cot(x~/2), finite near the chart boundary."""
        t = math.tan(0.5 * self.x_tilde)
        return math.inf if t == 0.0 else 1.0 / t

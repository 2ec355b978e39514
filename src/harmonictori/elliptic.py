"""Legendre elliptic integrals on the imaginary axis and their lifts.

Every integral here is a closed form in Carlson's symmetric integrals R_F
and R_D (DLMF 19.25(i); Carlson 1995).  The complete K, E and their
complementary K', E' take the parameter k^2 and its complement 1 - k^2 both
at full precision.  On the imaginary axis the Jacobi imaginary
transformation (DLMF 19.7(ii)) turns Im F(ix; k) and Im(E(ix; k) - k ix)
into real integrals at the complementary modulus over the angle
phi = arctan(x), which R_F and R_D evaluate directly.  The lifted versions
extend those integrals to the universal cover of the real projective line,
which is where the genus-one closing function lives; _half_angle alone
decides which turn of the cover an angle lies in.  Adaptive quadrature of
the defining integrals is kept only in the tests, as an independent check.

The kernels _complete_KE (K and E at a modulus the caller has checked), _FE
(F and regularized E from one R_F and one R_D) and _half_angle (whole turns
and reduced half-angle of a cover angle, without a branch) take floats or
numpy arrays alike, so both level-set solvers in moduli evaluate the same
closed forms.  Floats go through the float-to-float
elliprf/elliprd of scipy.special.cython_special, arrays through the ufuncs
of the same names: one C code, the same bits, and no ufunc call per float.
tan, hypot and arctan are numpy's ufuncs for floats too (_ufunc), so an
array's values are its floats' bit for bit, from the same ufunc loop.

Conventions: the modulus k always lies in (0, 1); K' and E' denote the
complete integrals at the complementary modulus sqrt(1 - k^2), and
complementary_KE returns K' and K' - E' without forming that modulus.  One
full turn of the cover adds 2K' to the lifted F and 2(K' - E') to the lifted
regularized E, so that E*F~ - K*E~ gains exactly pi per turn by Legendre's
relation; moduli adds that pi itself, free of the relation's float defect.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import cython_special, elliprd, elliprf

TWO_PI = 2.0 * math.pi

__all__ = [
    "complete_K", "complete_E", "complementary_modulus", "complementary_KE",
    "legendre_defect",
    "w_imag", "incomplete_F_imag", "incomplete_E_reg_imag",
    "lifted_F", "lifted_E",
]


def _check_modulus(k: float) -> float:
    k = float(k)
    if not (0.0 < k < 1.0):
        raise ValueError(f"elliptic modulus must lie in (0,1), got {k!r}")
    return k


def complementary_modulus(k: float) -> float:
    k = _check_modulus(k)
    # (1-k)(1+k) keeps precision as k -> 1
    return math.sqrt((1.0 - k) * (1.0 + k))


def _complete(m, m1):
    """(K, K - E) at parameter m = 1 - m1, floats or arrays, as R_F(0, m1, 1)
    and m R_D(0, m1, 1)/3 (DLMF 19.25.1); m and m1 come in at full precision."""
    array = isinstance(m1, np.ndarray)
    rf, rd = (elliprf, elliprd) if array else (cython_special.elliprf, cython_special.elliprd)
    return rf(0.0, m1, 1.0), m * (rd(0.0, m1, 1.0) / 3.0)


def _complete_KE(k):
    """(K, E) at modulus k, a float or an array, which the caller has checked."""
    K, KmE = _complete(k * k, (1.0 - k) * (1.0 + k))
    return K, K - KmE


def complete_K(k) -> float:
    """Complete elliptic integral of the first kind, modulus convention."""
    return _complete_KE(_check_modulus(k))[0]


def complete_E(k) -> float:
    """Complete elliptic integral of the second kind, modulus convention."""
    return _complete_KE(_check_modulus(k))[1]


def complementary_KE(k) -> tuple[float, float]:
    """(K'(k), K'(k) - E'(k)).

    Exact as k -> 0, where complete_K(complementary_modulus(k)) loses the
    information in rounding sqrt(1 - k^2) (2e-2 relative at k = 1e-8).
    """
    k = _check_modulus(k)
    return _complete((1.0 - k) * (1.0 + k), k * k)


def legendre_defect(k) -> float:
    """K'E + KE' - KK' - pi/2, identically zero in exact arithmetic.

    The same Carlson forms give K, E at parameter k^2 and K', E' at 1 - k^2,
    so the defect checks the two evaluations against each other.
    """
    K, E = _complete_KE(_check_modulus(k))
    Kp, KmEp = complementary_KE(k)
    Ep = Kp - KmEp
    return Kp * E + K * Ep - K * Kp - 0.5 * math.pi


# The kernels below take floats or numpy arrays alike: the same arithmetic
# serves the scalar functions of this module and the batched level-set solver.
def _sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _w(x, k):
    """w(ix) = +sqrt((1 + x^2)(1 + k^2 x^2)), +inf at x = +-inf."""
    return _sqrt((1.0 + x * x) * (1.0 + k * k * x * x))


def _w_terms(x, k):
    """w(ix) and w(ix) - k x^2 = (1 + (1 + k^2) x^2)/(w(ix) + k x^2), free of cancellation."""
    w = _w(x, k)
    return w, (1.0 + (1.0 + k * k) * x * x) / (w + k * x * x)


def w_imag(u: float, k) -> float:
    """w(iu) = +sqrt((1 + u^2)(1 + k^2 u^2)), the positive sheet value."""
    return _w(float(u), _check_modulus(k))


# Kernels over phi in [-pi/2, pi/2], given as s = sin(phi), c = cos(phi), with
# y = c^2 + k^2 s^2 = 1 - k'^2 s^2.  At (s, c) = (1, 0) they are K' and K' - E',
# exact as k -> 0 because k never passes through sqrt(1 - k^2).
def _FE(s, c, k):
    """(F, E_reg) at phi: F(phi; k') = int_0^phi dt / sqrt(1 - k'^2 sin^2 t)
    and E_reg = int_0^phi k'^2 dt / (sqrt(1 - k'^2 sin^2 t) + k).

    E_reg is F(phi; k') - E(phi; k') + tan(phi) (sqrt(y) - k), written with
    R_D for the first difference and (y - k^2) = k'^2 c^2 for the second,
    so that neither cancels.
    """
    c2 = c * c
    y = c2 + k * k * s * s
    if isinstance(y, np.ndarray):
        rf, rd, root = elliprf(c2, y, 1.0), elliprd(c2, y, 1.0), np.sqrt(y)
    else:
        rf, rd = cython_special.elliprf(c2, y, 1.0), cython_special.elliprd(c2, y, 1.0)
        root = math.sqrt(y)
    return s * rf, (1.0 - k) * (1.0 + k) * (s * s * s * rd / 3.0 + s * c / (root + k))


def _ufunc(fn, x, *args):
    """The numpy ufunc fn(x, *args) in float64, of an array an array, of a float
    (a float32 or np.float64 taken as its float) a float, by the same loop."""
    return fn(x, *args, dtype=float) if isinstance(x, np.ndarray) else float(fn(float(x), *args))


def _axis_angle(x):
    """(sin, cos) of arctan(x), exact at x = +-inf, of a float or an array of
    finite values, by numpy's hypot (_ufunc)."""
    if not isinstance(x, np.ndarray) and math.isinf(x):
        return math.copysign(1.0, x), 0.0
    h = _ufunc(np.hypot, x, 1.0)
    return x / h, 1.0 / h


def incomplete_F_imag(x: float, k) -> float:
    """Im F(ix; k): odd, increasing, bounded by K'(k)."""
    return _FE(*_axis_angle(float(x)), _check_modulus(k))[0]


def incomplete_E_reg_imag(x: float, k) -> float:
    """Im(E(ix; k) - k ix): odd, increasing, bounded by K'(k) - E'(k)."""
    return _FE(*_axis_angle(float(x)), _check_modulus(k))[1]


def _chart_value(x_tilde):
    """tan(x~/2) of a float or an array by numpy's tan (_ufunc), finite at
    every finite float angle: at a float odd multiple of pi it is large
    (1.6e16 at pi, 1.6e18 at 29 pi) and signed by the side the float lies
    on.  A non-finite angle has none: numpy's tan warns and returns nan."""
    return _ufunc(np.tan, 0.5 * x_tilde)


def _half_angle(x_tilde):
    """Turns m (a float), (sin, cos) of the reduced half-angle x~/2 - m pi in
    [-pi/2, pi/2] and the chart value u = tan(x~/2), of a float or an array.

    The reduced angle is atan(u), so (sin, cos) = (u, 1)/sqrt(1 + u^2), where
    u^2 cannot overflow; a float next to an odd multiple of pi lies on the
    side its tan lies on, and no last bit of the arctan moves m: the floor's
    argument lies within about 1e-15 max(1, |x~|) of m + 1/2.
    """
    u = _chart_value(x_tilde)
    c = 1.0 / _sqrt(1.0 + u * u)
    return ((0.5 * x_tilde - _ufunc(np.arctan, u)) / math.pi + 0.5) // 1.0, u * c, c, u


def _lifted_integrals(x_tilde: float, k: float) -> tuple[float, float]:
    """lifted_F and lifted_E from one _half_angle, at a checked modulus and
    at float(x~), not in the caller's float type."""
    x_tilde = float(x_tilde)
    if not math.isfinite(x_tilde):
        raise ValueError(f"the angle must be finite, got {x_tilde!r}")
    m, s, c, _ = _half_angle(x_tilde)
    F, E = _FE(s, c, k)
    if not m:
        return F, E
    Kp, KmEp = complementary_KE(k)
    return 2.0 * m * Kp + F, 2.0 * m * KmEp + E


def lifted_F(x_tilde: float, k) -> float:
    """Analytic continuation of Im F(i tan(x~/2); k) to the whole line.

    F~(x~ + 2 pi) = F~(x~) + 2 K'(k), and on |x~| < pi it agrees with
    incomplete_F_imag(tan(x~/2), k).
    """
    return _lifted_integrals(x_tilde, _check_modulus(k))[0]


def lifted_E(x_tilde: float, k) -> float:
    """Analytic continuation of Im(E - k z) along the cover.

    E~(x~ + 2 pi) = E~(x~) + 2 (K'(k) - E'(k)).
    """
    return _lifted_integrals(x_tilde, _check_modulus(k))[1]

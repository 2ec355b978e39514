"""Genus-one curve geometry: branch pairs, Jacobi normalization, coordinates.

A genus-one curve eta^2 = (zeta - a)(1 - conj(a) zeta)(zeta - b)(1 - conj(b) zeta)
is a point (a, b) of the space of ordered branch pairs inside the unit disc.
The Moebius map f carries (a, 1/conj(a), b, 1/conj(b)) to (1, -1, 1/k, -1/k),
the unit circle to the imaginary axis and the disc interior to the right half
plane.  Its zero mu and pole nu on the unit circle are the preimages of
-+(1 + k)/(1 - k) under the map g taking (a, 1/conj(a), b) to (0, infinity, 1).
On top of f sit the coordinates (p, k, u, v) with i u = f(1) and
i v = f(-1), and their lifts (u~, v~) to the universal cover, where the deck
transformation acts by half-turns of the rescaled angles.  The inverse map
from coordinates to branch pairs is written once, in real arithmetic on
numpy arrays, so a whole level-set leaf is mapped at once and
inverse_coords is its one-point case; the chart value tan(x~/2) is finite
at every float angle, so the same formulas serve the chart boundary.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .elliptic import TWO_PI, _chart_value, _check_modulus, _half_angle, _sqrt, _ufunc, _w

__all__ = [
    "BranchPair", "JacobiFrame", "ModuliPoint",
    "S_value", "jacobi_modulus", "circle_points", "build_frame",
    "forward_coords", "inverse_coords",
    "lambda_swap", "chi_negate", "deck_lambda_tilde", "deck_iota_tilde",
    "angle_rescale",
]


# why a point has no branch pair
_OUTSIDE_DISC = "branch points must lie in the open unit disc"
_NOT_DISTINCT = "branch points must be distinct"
_OFF_CHART = "u = v is outside the coordinate chart"


@dataclass(frozen=True)
class BranchPair:
    """Ordered pair of distinct branch points in the open unit disc."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        a, b = complex(self.alpha), complex(self.beta)
        if not (abs(a) < 1.0 and abs(b) < 1.0):  # also rejects nan and inf
            raise ValueError(_OUTSIDE_DISC)
        if a == b:
            raise ValueError(_NOT_DISTINCT)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    @property
    def alpha_mirror(self) -> complex:
        """Reflection 1/conj(alpha) through the unit circle."""
        return cmath.inf if self.alpha == 0 else 1.0 / self.alpha.conjugate()

    @property
    def beta_mirror(self) -> complex:
        return cmath.inf if self.beta == 0 else 1.0 / self.beta.conjugate()

    def curve_poly(self, zeta: complex) -> complex:
        """P(zeta) defining the curve eta^2 = P(zeta)."""
        a, b = self.alpha, self.beta
        return ((zeta - a) * (1.0 - a.conjugate() * zeta)
                * (zeta - b) * (1.0 - b.conjugate() * zeta))


def S_value(bp: BranchPair) -> float:
    """S = |1 - alpha||1 - beta| / (|1 + alpha||1 + beta|), positive."""
    a, b = bp.alpha, bp.beta
    return (abs(1.0 - a) * abs(1.0 - b)) / (abs(1.0 + a) * abs(1.0 + b))


def jacobi_modulus(bp: BranchPair) -> float:
    """k = (|1 - conj(a) b| - |a - b|) / (|1 - conj(a) b| + |a - b|) in (0,1)."""
    num = abs(1.0 - bp.alpha.conjugate() * bp.beta)
    dif = abs(bp.alpha - bp.beta)
    k = (num - dif) / (num + dif)
    if not 1e-12 <= k <= 1.0 - 1e-12:
        raise ValueError(f"degenerate modulus k={k!r}; curve too close to a nodal limit")
    return k


def circle_points(bp: BranchPair) -> tuple[complex, complex]:
    """The unit-circle points (mu, nu) that f sends to 0 and infinity.

    g(z) = r (z - alpha)/(conj(alpha) z - 1), with r = (conj(alpha) beta - 1)
    / (beta - alpha), sends alpha to 0, 1/conj(alpha) to infinity and beta to
    1.  It maps the unit circle onto |w| = |r|, as |z - alpha| = |conj(alpha)
    z - 1| for |z| = 1, and jacobi_modulus's k makes |r| = (1 + k)/(1 - k), so
    mu = g^{-1}(-|r|) and nu = g^{-1}(|r|), with g^{-1}(w) = (w - r alpha)
    / (conj(alpha) w - r).  No denominator vanishes inside the disc.
    """
    a = bp.alpha
    r = (a.conjugate() * bp.beta - 1.0) / (bp.beta - a)
    mu, nu = ((w - r * a) / (a.conjugate() * w - r) for w in (-abs(r), abs(r)))
    return mu, nu


@dataclass(frozen=True)
class JacobiFrame:
    """Normalization data of a genus-one curve.

    Holds the modulus k, the unit-circle points mu (to 0) and nu (to infinity),
    the scale of the Moebius map f and the center image z0 = f(0), which has
    positive real part.  f maps the unit circle into the imaginary axis and
    satisfies f(infinity) = -conj(z0).  The chart angles of f(+-1) are finite.
    """

    pair: BranchPair
    k: float
    mu: complex
    nu: complex
    scale: complex

    @cached_property
    def z0(self) -> complex:
        return self.f(0.0)

    def f(self, zeta: complex) -> complex:
        if cmath.isinf(zeta):
            return self.scale
        d = zeta - self.nu
        if d == 0:
            return cmath.inf
        return self.scale * (zeta - self.mu) / d

    def f_inv(self, z: complex) -> complex:
        z0 = self.z0
        if cmath.isinf(z):
            return self.nu
        d = z + z0.conjugate()
        if d == 0:
            return cmath.inf
        return self.nu * (z - z0) / d

    def _chart_angle(self, zeta: float) -> float:
        """2 atan Im f(zeta) = 2 atan2(Im(scale (zeta - mu) conj(zeta - nu)),
        |zeta - nu|^2) with mu, nu put back on the unit circle, so zeta - nu
        is not radial near zeta = nu; finite there, and pi at zeta = nu."""
        mu, nu = self.mu / abs(self.mu), self.nu / abs(self.nu)
        d = zeta - nu
        num = (self.scale * (zeta - mu) * d.conjugate()).imag
        return math.pi if d == 0 else 2.0 * math.atan2(num, abs(d) ** 2)

    @cached_property
    def u_tilde(self) -> float:
        """The chart angle of f(1) in [-pi, pi]."""
        return self._chart_angle(1.0)

    @cached_property
    def v_tilde(self) -> float:
        """The chart angle of f(-1) in [-pi, pi]."""
        return self._chart_angle(-1.0)

    @cached_property
    def u(self) -> float:
        """tan(u~/2), finite: i u = f(1) up to rounding."""
        return _chart_value(self.u_tilde)

    @cached_property
    def v(self) -> float:
        """tan(v~/2), finite: i v = f(-1) up to rounding."""
        return _chart_value(self.v_tilde)

    @cached_property
    def eta_to_w_scale(self) -> complex:
        """Constant c with w = c eta / (zeta - nu)^2 mapping eta+ to w+."""
        mu = self.mu
        eta_mu = mu * abs(mu - self.pair.alpha) * abs(mu - self.pair.beta)
        return (mu - self.nu) ** 2 / eta_mu


def build_frame(bp: BranchPair) -> JacobiFrame:
    """Construct the Jacobi frame of a branch pair and sanity-check it."""
    k = jacobi_modulus(bp)
    mu, nu = circle_points(bp)
    scale = (bp.alpha - nu) / (bp.alpha - mu)
    frame = JacobiFrame(pair=bp, k=k, mu=mu, nu=nu, scale=scale)
    # cheap label check: a mislabeled (mu, nu) flips these values
    f_beta = frame.f(bp.beta)
    if abs(f_beta - 1.0 / k) > 1e-6 * (1.0 + 1.0 / k):
        raise ValueError(f"frame normalization failed: f(beta)={f_beta!r}, 1/k={1.0/k!r}")
    if frame.z0.real <= 0.0:
        raise ValueError("frame normalization failed: Re z0 <= 0")
    return frame


def _float(x) -> float:
    """float(x), or +-inf where x is a rational past the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _check_ratio(p: float) -> float:
    """The ratio p = S as a float, which must lie in (0, inf) (_float)."""
    p = _float(p)
    if not 0.0 < p < math.inf:
        raise ValueError("p must be finite" if p == math.inf else "p must be positive")
    return p


@dataclass(frozen=True)
class ModuliPoint:
    """A point (p, k, u~, v~) of the universal cover, as floats, with u~ < v~ < u~ + 2 pi."""

    p: float
    k: float
    u_tilde: float
    v_tilde: float

    def __post_init__(self):
        object.__setattr__(self, "p", _check_ratio(self.p))
        object.__setattr__(self, "k", _check_modulus(self.k))
        object.__setattr__(self, "u_tilde", float(self.u_tilde))
        object.__setattr__(self, "v_tilde", float(self.v_tilde))
        if not (self.u_tilde < self.v_tilde < self.u_tilde + TWO_PI):
            raise ValueError("need u~ < v~ < u~ + 2 pi")

    @property
    def u(self) -> float:
        return _chart_value(self.u_tilde)

    @property
    def v(self) -> float:
        return _chart_value(self.v_tilde)


def forward_coords(bp: BranchPair) -> ModuliPoint:
    """Coordinates (p, k, u~, v~) of a branch pair, principal lift.

    p is the closing ratio S(alpha, beta); u~ is the frame's chart angle in
    [-pi, pi] and v~ the unique lift of its own above it.
    """
    frame = build_frame(bp)
    u_tilde, v_tilde = frame.u_tilde, frame.v_tilde
    if v_tilde <= u_tilde:
        v_tilde += TWO_PI
    return ModuliPoint(p=S_value(bp), k=frame.k, u_tilde=u_tilde, v_tilde=v_tilde)


def _divide(ar, ai, br, bi):
    """(ar + i ai)/(br + i bi) by Smith's rule, as CPython divides complex numbers."""
    swap = abs(br) < abs(bi)
    big, small, a, b = np.where(swap, (bi, br, ai, ar), (br, bi, ar, ai))
    ratio = small / big
    denom = big + small * ratio
    return (a + b * ratio) / denom, (1 - 2 * swap) * (b - a * ratio) / denom


def _center(p, k, u, v, wu=None):
    """(Re, Im) of z0 = f(0), the two-circle intersection, at finite chart
    values u and v (floats or arrays), given w(iu) when known."""
    wu, wv = _w(u, k) if wu is None else wu, _w(v, k)
    den = p * wv + wu
    return _sqrt(p * wu * wv) * abs(u - v) / den, (p * u * wv + v * wu) / den


def _branch_parts(p, k, u, v):
    """Re and Im of alpha = nu_hat (1 - z0)/(1 + conj(z0)) and of beta, the
    same with 1/k for 1, where z0 = x + i y is _center and
    nu_hat = (iu + conj(z0))/(iu - z0), at arrays of finite chart values.

    Real arithmetic in the steps of CPython's complex arithmetic, so the map
    and the complex form agree bit for bit (numpy's complex * and / differ
    in the last bit).
    """
    x, y = _center(p, k, u, v)
    nu_re, nu_im = _divide(x, u - y, -x, u - y)
    parts = []
    for c in (1.0, 1.0 / k):
        m = c - x
        parts += _divide(nu_re * m + nu_im * y, nu_im * m - nu_re * y, c + x, -y)
    return parts


def inverse_coords(mp: ModuliPoint) -> BranchPair:
    """Branch pair of a moduli point: z0 from the two-circle intersection,
    then alpha = f^{-1}(1), beta = f^{-1}(1/k); the one-point case of
    _inverse_coords_array.

    Evaluation is overflow-safe: tan never overflows in double precision,
    and the formulas stay accurate up to its largest values.
    """
    angles = np.array([[mp.u_tilde], [mp.v_tilde]])
    (alpha,), (beta,), (why,) = _inverse_coords_array(mp.p, mp.k, *angles)
    if why is not None:
        raise ValueError(why)
    return BranchPair(alpha=complex(alpha), beta=complex(beta))


def _inverse_coords_array(p, k, u_tilde, v_tilde):
    """Branch pairs of arrays of moduli points: alpha, beta and the reason
    each point has none, or None; nan angles give nan values and no reason."""
    u, v = _chart_value(u_tilde), _chart_value(v_tilde)
    with np.errstate(divide="ignore", invalid="ignore"):
        ar, ai, br, bi = parts = _branch_parts(p, k, u, v)
    # the chart's check, then BranchPair's; the first one failing wins
    reasons = np.full(u.shape, None, dtype=object)
    reasons[(ar == br) & (ai == bi)] = _NOT_DISTINCT
    reasons[(np.hypot(ar, ai) >= 1.0) | (np.hypot(br, bi) >= 1.0)] = _OUTSIDE_DISC
    reasons[u == v] = _OFF_CHART
    alpha, beta = np.empty((2, *u.shape), complex)
    alpha.real, alpha.imag, beta.real, beta.imag = parts
    return alpha, beta, reasons.tolist()


def lambda_swap(bp: BranchPair) -> BranchPair:
    """The relabeling (alpha, beta) -> (beta, alpha).

    In coordinates it sends (p, k, u, v) to (p, k, -1/(k u), -1/(k v)), a
    half-rotation of the rescaled circle.
    """
    return BranchPair(alpha=bp.beta, beta=bp.alpha)


def chi_negate(bp: BranchPair) -> BranchPair:
    """The inversion symmetry (alpha, beta) -> (-alpha, -beta).

    Sends the closing ratio S to 1/S and swaps the roles of u and v.
    """
    return BranchPair(alpha=-bp.alpha, beta=-bp.beta)


def angle_rescale(x_tilde: float, s: float) -> float:
    """The rescale 2 pi m + 2 atan(s tan(x~/2)) of a finite float x~ (a float32
    x~ or s as its float) by a positive finite s, m its turn (_half_angle),
    order preserving; of an array, the float calls' values bit for bit
    (elliptic._ufunc).  Next to an odd multiple of pi it has the sign of the
    side x~ lies on, as tan(x~/2)."""
    s = float(s)
    if not 0.0 < s < math.inf:
        raise ValueError(f"the scale must be positive and finite, got {s!r}")
    if not isinstance(x_tilde, np.ndarray):
        x_tilde = float(x_tilde)
        if not math.isfinite(x_tilde):
            raise ValueError(f"the angle must be finite, got {x_tilde!r}")
    m, _, _, u = _half_angle(x_tilde)
    return TWO_PI * m + 2.0 * _ufunc(np.arctan, s * u)


def deck_lambda_tilde(mp: ModuliPoint, inverse: bool = False) -> ModuliPoint:
    """Generator of the deck group: +pi on the rescaled angles U~, V~.

    Applying it twice gives the full turn (u~, v~) -> (u~ + 2 pi, v~ + 2 pi);
    downstairs it projects to the relabeling swap.
    """
    rk = math.sqrt(mp.k)
    shift = -math.pi if inverse else math.pi
    ut = angle_rescale(angle_rescale(mp.u_tilde, rk) + shift, 1.0 / rk)
    vt = angle_rescale(angle_rescale(mp.v_tilde, rk) + shift, 1.0 / rk)
    return ModuliPoint(p=mp.p, k=mp.k, u_tilde=ut, v_tilde=vt)


def deck_iota_tilde(mp: ModuliPoint, inverse: bool = False) -> ModuliPoint:
    """Full-turn deck transformation (u~, v~) -> (u~ +- 2 pi, v~ +- 2 pi)."""
    shift = -TWO_PI if inverse else TWO_PI
    return ModuliPoint(p=mp.p, k=mp.k, u_tilde=mp.u_tilde + shift,
                       v_tilde=mp.v_tilde + shift)

"""Genus-one curve geometry: branch pairs, Jacobi normalization, coordinates.

A genus-one curve eta^2 = (zeta - a)(1 - conj(a) zeta)(zeta - b)(1 - conj(b) zeta)
is a point (a, b) of the space of ordered branch pairs inside the unit disc.
The Moebius map f carries (a, 1/conj(a), b, 1/conj(b)) to (1, -1, 1/k, -1/k),
the unit circle to the imaginary axis and the disc interior to the right half
plane.  On top of f sit the coordinates (p, k, u, v) with i u = f(1) and
i v = f(-1), and their lifts (u~, v~) to the universal cover, where the deck
transformation acts by half-turns of the rescaled angles.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

from .elliptic import TWO_PI, _reduce_turns, w_imag

__all__ = [
    "BranchPair", "JacobiFrame", "ModuliPoint",
    "jacobi_modulus", "circle_points", "build_frame",
    "forward_coords", "inverse_coords",
    "lambda_swap", "chi_negate", "deck_lambda_tilde", "deck_iota_tilde",
    "angle_rescale",
]


@dataclass(frozen=True)
class BranchPair:
    """Ordered pair of distinct branch points in the open unit disc."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        a, b = complex(self.alpha), complex(self.beta)
        if abs(a) >= 1.0 or abs(b) >= 1.0:
            raise ValueError("branch points must lie in the open unit disc")
        if a == b:
            raise ValueError("branch points must be distinct")
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


def jacobi_modulus(bp: BranchPair) -> float:
    """k = (|1 - conj(a) b| - |a - b|) / (|1 - conj(a) b| + |a - b|) in (0,1)."""
    num = abs(1.0 - bp.alpha.conjugate() * bp.beta)
    dif = abs(bp.alpha - bp.beta)
    k = (num - dif) / (num + dif)
    if k < 1e-12 or k > 1.0 - 1e-12:
        raise ValueError(f"degenerate modulus k={k!r}; curve too close to a nodal limit")
    return k


def _branch_circle_center(bp: BranchPair) -> complex | None:
    """Center of the circle through alpha, 1/conj(alpha), beta.

    The circle is orthogonal to the unit circle, so its center c satisfies
    Re(conj(z) c) = (1 + |z|^2)/2 for z = alpha and z = beta; that linear
    system is solved directly.  Returns None when the three points are
    collinear with the origin (the circle degenerates to a line).
    """
    a, b = bp.alpha, bp.beta
    det = (a.conjugate() * b).imag  # = ax*by - ay*bx
    scale = max(abs(a), abs(b), 1.0)
    if abs(det) < 1e-12 * scale:
        return None
    ra = 0.5 * (1.0 + abs(a) ** 2)
    rb = 0.5 * (1.0 + abs(b) ** 2)
    cx = (ra * b.imag - rb * a.imag) / det
    cy = (rb * a.real - ra * b.real) / det
    return complex(cx, cy)


def _arc_parameter(z: complex, center: complex | None, direction: complex) -> float:
    """Angle parameterizing the branch circle (or projective line) position."""
    if center is None:
        # line through the origin: s e^{i phi} -> 2 atan(s), with infinity at pi
        if cmath.isinf(z):
            return math.pi
        s = (z * direction.conjugate()).real
        return 2.0 * math.atan(s)
    return cmath.phase(z - center)


def _on_ccw_arc(theta: float, start: float, end: float) -> bool:
    """Whether angle theta lies on the counterclockwise arc from start to end."""
    span = (end - start) % TWO_PI
    return (theta - start) % TWO_PI < span


def circle_points(bp: BranchPair) -> tuple[complex, complex]:
    """The two unit-circle points of the branch circle, labeled (mu, nu).

    mu is the intersection point separated from beta by the pair
    {alpha, 1/conj(alpha)} along the branch circle, i.e. the one lying
    between alpha and its mirror; nu lies between beta and its mirror.
    """
    a = bp.alpha
    center = _branch_circle_center(bp)
    if center is None:
        direction = (a if a != 0 else bp.beta)
        direction /= abs(direction)
        cand = (direction, -direction)
    else:
        r2 = abs(center) ** 2 - 1.0
        if r2 <= 0.0:
            raise ValueError("branch circle not orthogonal to the unit circle")
        c_hat = center / abs(center)
        aa = 1.0 / abs(center)
        bb = math.sqrt(max(0.0, 1.0 - aa * aa))
        cand = (aa * c_hat + bb * 1j * c_hat, aa * c_hat - bb * 1j * c_hat)
        direction = c_hat  # unused in circle branch
    th_a = _arc_parameter(a, center, direction)
    th_am = _arc_parameter(bp.alpha_mirror, center, direction)
    th_b = _arc_parameter(bp.beta, center, direction)
    beta_in = _on_ccw_arc(th_b, th_a, th_am)
    for x, y in (cand, cand[::-1]):
        if _on_ccw_arc(_arc_parameter(x, center, direction), th_a, th_am) != beta_in:
            return x, y
    raise ValueError("could not separate the unit-circle intersection points")


@dataclass(frozen=True)
class JacobiFrame:
    """Normalization data of a genus-one curve.

    Holds the modulus k, the unit-circle points mu (to 0) and nu (to infinity),
    the scale of the Moebius map f and the center image z0 = f(0), which has
    positive real part.  f maps the unit circle into the imaginary axis and
    satisfies f(infinity) = -conj(z0).
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

    @cached_property
    def u(self) -> float:
        """u with i u = f(1); infinite when nu = 1."""
        z = self.f(1.0)
        return math.inf if cmath.isinf(z) else z.imag

    @cached_property
    def v(self) -> float:
        """v with i v = f(-1); infinite when nu = -1."""
        z = self.f(-1.0)
        return math.inf if cmath.isinf(z) else z.imag

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


@dataclass(frozen=True)
class ModuliPoint:
    """A point (p, k, u~, v~) of the universal cover, with u~ < v~ < u~ + 2 pi."""

    p: float
    k: float
    u_tilde: float
    v_tilde: float

    def __post_init__(self):
        if not self.p > 0.0:
            raise ValueError("p must be positive")
        if not (0.0 < self.k < 1.0):
            raise ValueError("k must lie in (0,1)")
        if not (self.u_tilde < self.v_tilde < self.u_tilde + TWO_PI):
            raise ValueError("need u~ < v~ < u~ + 2 pi")

    @property
    def u(self) -> float:
        return math.tan(0.5 * self.u_tilde)

    @property
    def v(self) -> float:
        return math.tan(0.5 * self.v_tilde)


def forward_coords(bp: BranchPair) -> ModuliPoint:
    """Coordinates (p, k, u~, v~) of a branch pair, principal lift.

    p is the closing ratio S(alpha, beta); u~ is lifted into (-pi, pi] and v~
    is the unique lift above it.  A value of f(+-1) at infinity lands on the
    chart boundary u~ = pi (or shifts v~ accordingly).
    """
    from .moduli import S_value  # cycle-free at call time

    frame = build_frame(bp)
    p = S_value(bp)
    u, v = frame.u, frame.v
    u_tilde = math.pi if math.isinf(u) else 2.0 * math.atan(u)
    v_raw = math.pi if math.isinf(v) else 2.0 * math.atan(v)
    v_tilde = v_raw if v_raw > u_tilde else v_raw + TWO_PI
    return ModuliPoint(p=p, k=frame.k, u_tilde=u_tilde, v_tilde=v_tilde)


def _chart_value(x_tilde: float) -> float:
    """tan(x~/2); exact odd multiples of pi map to +inf (cot chart origin)."""
    _, r = _reduce_turns(x_tilde)
    if abs(r) == math.pi:
        return math.inf
    return math.tan(0.5 * x_tilde)


def inverse_coords(mp: ModuliPoint) -> BranchPair:
    """Branch pair of a moduli point: z0 from the two-circle intersection,
    then alpha = f^{-1}(1), beta = f^{-1}(1/k).

    Evaluation is overflow-safe through the infinity chart: tan never
    overflows in double precision and actual infinities take limits.
    """
    p, k = mp.p, mp.k
    u, v = _chart_value(mp.u_tilde), _chart_value(mp.v_tilde)
    if u == v:
        raise ValueError("u = v is outside the coordinate chart")
    wu, wv = w_imag(u, k), w_imag(v, k)

    if math.isinf(u):
        z0 = complex(math.sqrt(p * wv / k), v)
        nu_hat = 1.0 + 0j  # limit of (iu + conj(z0))/(iu - z0)
    elif math.isinf(v):
        z0 = complex(math.sqrt(wu / (p * k)), u)
        nu_hat = (1j * u + z0.conjugate()) / (1j * u - z0)
    else:
        den = p * wv + wu
        z0 = complex(math.sqrt(p * wu * wv) * abs(u - v) / den,
                     (p * u * wv + v * wu) / den)
        nu_hat = (1j * u + z0.conjugate()) / (1j * u - z0)
    alpha = nu_hat * (1.0 - z0) / (1.0 + z0.conjugate())
    beta = nu_hat * (1.0 / k - z0) / (1.0 / k + z0.conjugate())
    return BranchPair(alpha=alpha, beta=beta)


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
    """Winding-preserving rescale 2 pi W + 2 atan(s tan(x~/2)).

    Fixes odd multiples of pi; order preserving for s > 0.
    """
    m, r = _reduce_turns(x_tilde)
    if abs(r) == math.pi:
        return x_tilde
    return TWO_PI * m + 2.0 * math.atan(s * math.tan(0.5 * r))


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

"""Differentials on a genus-one curve: periods, closing integrals, checklist.

Everything is computed in the Jacobi-form z-plane, where the curve is
w^2 = Q(z) = (1 - z^2)(1 - k^2 z^2) and the interesting differentials are

    omega    = dz/w                          (first kind)
    e        = (1 - k^2 z^2) dz/w            (second kind, pole at infinity)
    epsilon  = e + d[(z - i Im z0) w / ((z - z0)(z + conj(z0)))]
    theta_E  = i d(eta/zeta), expressed through w and the frame constant
    theta_P  = 2E omega - 2K epsilon         (periods 0 and 2 pi i)

Contour integration lays out each path segment's panels by distance, each
at most twice as long as its distance from the nearest branch point or
double pole, and takes the 33-point Kronrod rule on every panel with the
16-point Gauss rule nested in it: a value settles on one level when the two
agree, and a segment halves its panels otherwise.  The sheet of w is
tracked by nearest continuation, for all open segments of all contours of a
frame at once, one level after another, each distinct segment once, on one
set of flat panel arrays.  Homology representatives are
rectangles crossing the real axis inside the gaps between branch points,
and the closing paths join the two points over zeta = +-1 while winding once
around z = 1, following the principal route.  Integrals of the
period-normalized differential over those paths have the closed forms used
by the moduli-space level function, and the quadrature here is the
independent check of them.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from types import SimpleNamespace

import numpy as np

from .curves import (
    _OFF_CHART, BranchPair, JacobiFrame, S_value, _center, deck_lambda_tilde,
)
from .elliptic import TWO_PI, _axis_angle, _chart_value, _check_modulus, _complete_KE, _half_angle
from .moduli import _chart_terms, solve_level, t0_raw

DIFFERENTIAL_KINDS = ("omega", "e", "epsilon", "theta_E", "theta_P")
_POLE_KINDS = DIFFERENTIAL_KINDS[2:]  # with double poles; _Geometry._theta's order

__all__ = [
    "PathSpec", "ClosingData", "PathError", "ContinuationError", "PoleError",
    "eta_plus", "theta_E_gamma", "theta_P_gamma_closed", "gamma_closing_values",
    "contour_integral", "loop_A", "loop_B", "gamma0_path",
    "laurent_coefficients", "theta_P_characterization_check",
    "construct_psi", "monodromy_track", "hitchin_checklist", "ChecklistEntry",
]


class PathError(ValueError):
    """Path violates clearance or sampling preconditions."""


class ContinuationError(RuntimeError):
    """Sheet tracking became ambiguous or quadrature failed to settle."""


class PoleError(ValueError):
    """A double pole of the differentials sits on, or too near, a branch point."""


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
    return 2j * sign * eta_plus(float(sign), bp)


# ---------------------------------------------------------------------------
# frame-derived geometry

class _Geometry:
    """Constants and coefficient functions for one Jacobi frame."""

    def __init__(self, frame: JacobiFrame):
        self.frame, self.k, self.z0 = frame, frame.k, frame.z0
        self.K, self.E = _complete_KE(_check_modulus(self.k))
        self.branch_points = (1.0, -1.0, 1.0 / self.k, -1.0 / self.k)
        self.poles = (self.z0, -self.z0.conjugate())
        # C with theta_E = i C d[w/D]; C = 4 nu (Re z0)^2 / c, real negative
        self.exact_scale = 4.0 * frame.nu * self.z0.real ** 2 / frame.eta_to_w_scale

    def Q(self, z: complex) -> complex:
        z2 = z * z
        return (1.0 - z2) * (1.0 - self.k * self.k * z2)

    def dQ(self, z: complex) -> complex:
        k2 = self.k * self.k
        return -2.0 * z * (1.0 + k2 - 2.0 * k2 * z * z)

    def N(self, z: complex) -> complex:
        return z - 1j * self.z0.imag

    def D(self, z: complex) -> complex:
        return (z - self.z0) * (z + self.z0.conjugate())

    def _theta(self, z, w):
        """(epsilon, theta_E, theta_P) dz-coefficients from one D, N and dQ."""
        k2 = self.k * self.k
        D, N, dQ = self.D(z), self.N(z), self.dQ(z)
        eps = ((1.0 - k2 * z * z) / w + w * (D - 2.0 * N * N) / (D * D)
               + N * dQ / (2.0 * w * D))
        thE = 1j * self.exact_scale * (dQ * D / (2.0 * w) - 2.0 * N * w) / (D * D)
        return eps, thE, 2.0 * self.E / w - 2.0 * self.K * eps

    def coefficient(self, kind: str):
        """dz-coefficient of the named differential as a function of (z, w)."""
        k2 = self.k * self.k
        if kind == "omega":
            return lambda z, w: 1.0 / w
        if kind == "e":
            return lambda z, w: (1.0 - k2 * z * z) / w
        if kind in _POLE_KINDS:
            j = _POLE_KINDS.index(kind)
            return lambda z, w: self._theta(z, w)[j]
        raise ValueError(f"unknown differential {kind!r}")

    def pair(self, closing: ClosingData | None = None):
        """(theta_E, theta_P), or (psi_E, psi_P) of a closing pair, as one f(z, w)."""
        def pair(z, w):
            _, thE, thP = self._theta(z, w)
            return (thE, thP) if closing is None else closing.psi(thE, thP)
        return pair


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


def _distances(a, b, centers) -> np.ndarray:
    """Distance of each segment [a, b] (rows) from each center (columns)."""
    a, b = np.asarray(a, complex)[:, None], np.asarray(b, complex)[:, None]
    p, ab = np.asarray(centers, complex), b - a
    L2 = (ab * ab.conj()).real
    t = np.divide(((p - a) * ab.conj()).real, L2, out=np.zeros((len(a), len(p))),
                  where=L2 != 0.0)
    return np.abs(p - (a + np.clip(t, 0.0, 1.0) * ab))


#: Minimum distance of a contour path from branch points and double poles.
_CLEARANCE = 1e-3


def loop_A(frame: JacobiFrame) -> PathSpec:
    """Cycle around the branch points -1 and 1, oriented so that the
    holomorphic differential integrates to +4K on the starting sheet.

    The vertical edges sit at x = +-min(1.2, (1 + 1/k)/2) unless a double
    pole lies within 0.1 of them, and otherwise at the candidate in (1, 1/k)
    farthest from the poles and branch points.
    """
    return _contours(frame, ())["A"]


def loop_B(frame: JacobiFrame) -> PathSpec:
    """Cycle around the branch points 1 and 1/k; +2iK' for the first kind."""
    return _contours(frame, ())["B"]


#: gamma0_path's nine candidate (d, i h): the half-width of its vertical runs
#: beside the origin and the height of its cut crossing, d outer; and their
#: corners -d - i h and d + i h, below and above the cut.
_GAMMA_D, _GAMMA_IH = np.repeat([0.35, 0.5, 0.22], 3), 1j * np.tile([0.25, 0.4, 0.15], 3)
_GAMMA_LOW, _GAMMA_HIGH = -_GAMMA_D - _GAMMA_IH, _GAMMA_D + _GAMMA_IH


def gamma0_path(sign: int, frame: JacobiFrame) -> PathSpec:
    """Principal closing path over zeta = +1 (sign +) or -1 (sign -).

    Starts at f(+-1) = i x on the sheet w = -w+(x), drops to the real axis
    beside the origin, winds once around the branch point z = 1 crossing the
    cut midway between 1 and 1/k, and returns on the other sheet.  Each run
    is one segment, however long: the quadrature grades its panels.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if sign not in (paths := _contours(frame, (sign,))):
        raise PathError("endpoint too close to nu = +-1; use a deck translate")
    return paths[sign]


def _contours(frame: JacobiFrame, signs, check: bool = False) -> dict:
    """The closing paths over the given signs, keyed by sign, then loops A
    and B, keyed "A" and "B", chosen from one _distances table of every
    candidate segment: each closing path's nine (d, h) and loop A's default
    and fallback edges.  Of a closing path's candidates, the first within a
    relative 1e-12 of the farthest from the poles is built; it is left out
    where its endpoint lies beyond 1e4 or, with check, where it passes
    within _CLEARANCE of a branch point or double pole.  Both loops take the
    height farthest from the poles: crossing one costs no correctness (the
    residues vanish) but ruins the quadrature rate."""
    y = frame.z0.imag  # of both poles, z0 and -conj(z0)
    k, h = frame.k, max((0.45, 0.3, 0.65, 0.2), key=lambda h: min(abs(y - h), abs(y + h)))
    centers = (1.0, -1.0, 1.0 / k, -1.0 / k, frame.z0, -frame.z0.conjugate())
    xc = 0.5 * (1.0 + 1.0 / k)
    signs = [s for s in signs if abs(frame.u if s == 1 else frame.v) <= 1e4]
    ix = 1j * np.array([frame.u if s == 1 else frame.v for s in signs]).reshape(-1, 1)
    # the eight points of each closing path's nine candidates: (point, sign, candidate)
    pts = np.empty((8, len(signs), 9), complex)
    pts[0] = pts[7] = ix
    pts[1], pts[2], pts[3] = -_GAMMA_D + ix, _GAMMA_LOW, xc - _GAMMA_IH
    pts[4], pts[5], pts[6] = xc + _GAMMA_IH, _GAMMA_HIGH, _GAMMA_D + ix
    xa = min(1.2, xc)
    edges = np.concatenate(([xa], 1.0 + np.array([1.0, 0.5, 1.5, 0.25, 1.75]) * (xa - 1.0)))
    dist = _distances(np.concatenate((pts[:-1].ravel(), edges - 1j * h)),
                      np.concatenate((pts[1:].ravel(), edges + 1j * h)), centers)
    paths = dist[:-6].reshape(7, len(signs), 9, 6)
    clearance = paths[..., 4:].min(axis=(0, 3))
    best = np.argmax(clearance >= clearance.max(axis=1, keepdims=True) * (1.0 - 1e-12), axis=1)
    out = {}
    for i, (s, j) in enumerate(zip(signs, best.tolist())):
        if not (check and (paths[:, i, j] < _CLEARANCE).any()):
            out[s] = PathSpec(points=tuple(pts[:, i, j].tolist()), sheet=-1)
    gaps = dist[-6:]
    if gaps[0, 4:].min() < 0.1:  # a pole near the default edge: the fallback
        xa = float(edges[1:][gaps[1:, [0, 2, 4, 5]].min(axis=1).argmax()])
    out["A"] = PathSpec(points=(-1j * h, xa - 1j * h, xa + 1j * h, -xa + 1j * h,
                                -xa - 1j * h, -1j * h), sheet=1)
    xB = 1.0 / k + max(0.25, 0.25 * (1.0 / k - 1.0))
    out["B"] = PathSpec(points=(-1j * h, 1j * h, xB + 1j * h, xB - 1j * h, -1j * h), sheet=1)
    return out


# ---------------------------------------------------------------------------
# quadrature with sheet tracking

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(16)

# The 33-point Kronrod extension of the 16-point Gauss rule on [-1, 1]
# (Piessens et al., QUADPACK, 1983; Laurie, Math. Comp. 66, 1997), exact
# through degree 49: its new nodes in [0, 1), and the weights of its nodes in
# [0, 1) in increasing order.  _RULE_X runs from -1 to 1 with the Gauss nodes
# at the odd places; the rows of _RULE_W are the Kronrod weights and their
# excess over the Gauss weights (zero at the new nodes), whose sum is K - G.
_NEW_X = (0.0, 0.18916857901808373, 0.37148378087841627, 0.5404076763521397,
          0.6897411066817623, 0.8142402870624444, 0.9091576670123429,
          0.9715059509693926, 0.9982392741454446)
_HALF_W = (0.0951542160804983, 0.09472840124723005, 0.09343867406092123,
           0.09129203282819166, 0.08833750257911273, 0.08459580379259064,
           0.08005394126371929, 0.07476982388559955, 0.06886299519153125,
           0.062358806011834855, 0.055205633095422174, 0.047506215976407015,
           0.039512951202421966, 0.031260543647380526, 0.022498859440049444,
           0.013257930688091158, 0.004742777049247318)
_half_x = np.sort(np.concatenate((_NEW_X, _GAUSS_X[8:])))
_RULE_X = np.concatenate((-_half_x[:0:-1], _half_x))
_RULE_W = np.array([_HALF_W[:0:-1] + _HALF_W] * 2)
_RULE_W[1, 1::2] -= _GAUSS_W
del _half_x

#: Powers of 3, as many as a grid down to the distance floor 2^-40 takes.
_POW3 = 3.0 ** np.arange(28)


def _layout(z1, z2, centers) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The panels of the segments [z1, z2], segment by segment: the ends ta <
    tb of each, as fractions from 0 to 1, and its segment's index.  Each
    panel is at most twice as long as its distance from the nearest center
    (branch point or double pole).

    In the segment's own coordinate, where it runs from 0 to 1, a center
    lies at t0 + i h; the squared distances of two centers differ by a linear
    function of t, so the points nearest each center form an interval, whose
    ends are breakpoints.  In its interval a center lays out the grid
    t1 +- d 3^j (j = 0, 1, ...), t1 being the segment's point nearest it and
    d their distance (floored at 2^-40); every panel of that grid is at most
    twice as long as its distance from the center.
    """
    a = np.asarray(z1, complex)[:, None]
    rel = (np.asarray(centers, complex) - a) / (np.asarray(z2, complex)[:, None] - a)
    t0, h2 = rel.real, rel.imag * rel.imag
    t1 = np.clip(t0, 0.0, 1.0)
    d = np.maximum(np.abs(rel - t1), 2.0 ** -40)
    # center p is nearer than q where t <= cross (t0_q > t0_p) or t >= cross
    # (t0_q < t0_p); equal t0 give +-inf, and nan for a tie, which is ignored
    slope = t0[:, None, :] - t0[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = 0.5 * (t0[:, :, None] + t0[:, None, :] - (h2[:, :, None] - h2[:, None, :]) / slope)
    lo = np.where(slope < 0.0, cross, 0.0).max(axis=2)[..., None]
    hi = np.where(slope >= 0.0, np.fmin(cross, 1.0), 1.0).min(axis=2)[..., None]
    r = d[..., None] * _POW3[:max(0, int(-math.log(d.min(), 3.0)) + 2)]
    grid = np.concatenate((t1[..., None] - r, t1[..., None] + r), axis=-1)
    grid = np.where((lo < grid) & (grid < hi), grid, 1.0).reshape(len(grid), -1)
    t = np.sort(np.concatenate((np.where(lo < hi, lo, 0.0)[..., 0], grid,
                                np.ones((len(grid), 1))), axis=1), axis=1)
    # a panel ends at each breakpoint past the last, and starts at the one
    # before it, which equals the last
    ends = t[:, 1:] > t[:, :-1]
    return t[:, :-1][ends], t[:, 1:][ends], np.nonzero(ends)[0]


def _track_runs(geom: _Geometry, zs: np.ndarray, starts, heads: np.ndarray):
    """Continue w = sqrt(Q) along the run zs[heads[i]:heads[i + 1]] from
    starts[i], each node taking the root nearer to the last (a tie keeps the
    sheet).  Returns sqrt(Q(zs)), the sign of w against it, and the steps
    moving w by over 60 percent: under-resolution near a branch point."""
    s = np.sqrt(geom.Q(zs))
    prev = np.concatenate(([0j], s[:-1]))
    prev[heads] = starts
    flips = np.cumsum((s * prev.conj()).real < 0.0)
    before = np.zeros(len(zs), int)  # the flips before each run, from its head on
    before[heads[1:]] = flips[heads[1:] - 1]
    sign = 1.0 - 2.0 * ((flips - np.maximum.accumulate(before)) & 1)
    w = s * sign
    w_prev = np.concatenate(([0j], w[:-1]))
    w_prev[heads] = starts
    return s, sign, np.abs(w - w_prev) > 0.6 * np.abs(w_prev)


def _track_sheet(geom: _Geometry, zs: np.ndarray, starts, heads=(0,)) -> np.ndarray:
    """w along the runs zs[heads[i]:heads[i + 1]] from starts[i] (one run from
    a w0 by default); ContinuationError where a step is ambiguous."""
    s, sign, bad = _track_runs(geom, zs, starts, np.asarray(heads))
    if bad.any():
        raise ContinuationError(f"sheet tracking ambiguous near "
                                f"{complex(zs[bad.argmax()])!r}; refine the path")
    return s * sign


def _sweep(geom: _Geometry, integrand, segs: SimpleNamespace) -> None:
    """One refinement level of the open segments, with one sheet track, one
    integrand call and one reduction by both rules: each segment's panels
    (their 33 nodes each, then z2) are tracked from the principal sqrt(Q(z1)).
    An ambiguous track halves every panel of that segment.  Otherwise each
    open value whose Kronrod and Gauss sums agree to 1e-10 relative (1e-13
    absolute) keeps its Kronrod sum; a value left open halves the panels, and
    once none is left open the segment keeps its end.  segs holds flat arrays:
    the segments z1, z2; the open ones' panels ta < tb (fractions) and their
    segment seg, in order; the (value, segment) vals and open_ flags; and the
    settled ones' sqrt(Q(z2)) s_end and tracked sign there sign_end (else 0)."""
    ta, tb, seg = segs.ta, segs.tb, segs.seg
    first = np.concatenate(([True], seg[1:] != seg[:-1]))
    lo = np.flatnonzero(first)  # each open segment's first panel
    ids, rank, n = seg[lo], np.cumsum(first) - 1, len(lo)
    dz = (segs.z2 - segs.z1)[seg]
    half = 0.5 * (tb - ta) * dz
    mids = segs.z1[seg] + 0.5 * (ta + tb) * dz
    nodes = (mids[:, None] + half[:, None] * _RULE_X).ravel()
    # zs holds each segment's nodes, then its z2
    at = (np.arange(len(nodes)).reshape(-1, 33) + rank[:, None]).ravel()
    heads = 33 * lo + np.arange(n)
    ends = np.append(heads[1:], len(nodes) + n) - 1
    zs = np.empty(len(nodes) + n, complex)
    zs[at], zs[ends] = nodes, segs.z2[ids]
    s, sign, bad = _track_runs(geom, zs, np.sqrt(geom.Q(segs.z1[ids])), heads)
    # each panel's sums by a product and a sum over its own 33 nodes, so that
    # they round as for a lone segment, whatever the other segments
    f = np.reshape(integrand(nodes, (s * sign)[at]), (-1, len(half), 1, 33))
    sums = np.add.reduceat((f * _RULE_W).sum(axis=-1) * half[:, None], lo, axis=1)
    kron, excess = sums[..., 0], sums[..., 1]
    ok = (np.abs(excess) <= np.maximum(1e-13, 1e-10 * np.maximum(np.abs(kron), 1.0))) \
        & ~np.logical_or.reduceat(bad, heads)
    open_ = segs.open_[:, ids]
    segs.vals[:, ids] = np.where(ok & open_, kron, segs.vals[:, ids])
    segs.open_[:, ids] = open_ = open_ & ~ok
    done = ~open_.any(axis=0)
    segs.s_end[ids[done]], segs.sign_end[ids[done]] = s[ends[done]], sign[ends[done]]
    keep = ~done[rank]
    ta, tb = np.repeat(ta[keep], 2), np.repeat(tb[keep], 2)
    ta[1::2] = tb[::2] = 0.5 * (ta[::2] + tb[::2])
    segs.ta, segs.tb, segs.seg = ta, tb, np.repeat(seg[keep], 2)


def _integrate(geom: _Geometry, integrand, count: int, *paths: PathSpec) -> list:
    """Integrate the count outputs of integrand(z, w) dz along each path;
    returns each path's (values, final w), or raises ContinuationError at
    the first segment, in path order, that did not settle.

    Each distinct segment of the paths is integrated once, tracked from the
    principal sqrt(Q) at its own start, and its values serve every path it
    lies on.  Every segment's panels are laid out at once (_layout), graded
    by distance to the branch points and double poles, and each panel takes
    the 33-point Kronrod rule with the 16-point Gauss rule nested in it, so
    that a value settles on one level when the two agree.  Each of at most
    13 levels is one _sweep of the open segments, and a segment with an
    ambiguous track or an open value has every panel halved for the next.
    The sheets of the segments are chained along each path afterwards, exact
    as the integrands are odd in w.  Every value is bit for bit as if
    integrated alone, path by path and one segment after the other, on
    levels under 16 384 nodes: numpy elides the temporaries of larger arrays
    (256 KiB of complex values), which can round a complex product otherwise.
    """
    index: dict = {}  # each distinct segment (z1, z2), in path order
    runs = [[index.setdefault(zz, len(index)) for zz in zip(path.points[:-1], path.points[1:])
             if zz[0] != zz[1]] for path in paths]
    n = len(index)
    z1, z2 = np.array(list(index), complex).reshape(n, 2).T
    ta, tb, seg = _layout(z1, z2, geom.branch_points + geom.poles) if n else ([], [], [])
    segs = SimpleNamespace(z1=z1, z2=z2, ta=ta, tb=tb, seg=seg, s_end=np.zeros(n, complex),
                           vals=np.zeros((count, n), complex), open_=np.ones((count, n), bool),
                           sign_end=np.zeros(n))
    for _ in range(13):
        if len(segs.seg):
            _sweep(geom, integrand, segs)
    pairs, vals = list(index), segs.vals.T.tolist()
    s_end, sign_end = segs.s_end.tolist(), segs.sign_end.tolist()
    out = []
    for path, run in zip(paths, runs):
        sign, w = float(path.sheet), path.sheet * cmath.sqrt(geom.Q(path.points[0]))
        totals = [0.0 + 0.0j] * count
        for i in run:
            if not sign_end[i]:
                raise ContinuationError("no quadrature convergence on [%r, %r]" % pairs[i])
            totals = [t + (v if sign > 0 else -v) for t, v in zip(totals, vals[i])]
            sign *= sign_end[i]
            w = complex(s_end[i] * sign)
        out.append((totals, w))
    return out


def contour_integral(kind: str, path: PathSpec, frame: JacobiFrame) -> complex:
    """Numerical line integral of a named differential along a path.

    The sheet of w is continued from the path's starting tag; the path must
    keep a clearance of 1e-3 from branch points, and from the double poles
    when the differential has them.
    """
    geom = _Geometry(frame)
    coeff = geom.coefficient(kind)
    centers = list(geom.branch_points)
    if kind in _POLE_KINDS:
        centers += list(geom.poles)
    d = _distances(path.points[:-1], path.points[1:], centers)
    if (near := np.argwhere(d < _CLEARANCE)).size:
        i, j = near[0]
        raise PathError(f"path passes within {d[i, j]:.2e} of {centers[j]!r} "
                        f"(clearance {_CLEARANCE:.2e})")
    [((value,), _)] = _integrate(geom, lambda z, w: (coeff(z, w),), 1, path)
    return value


def _theta_P_gamma_value(sign: int, frame: JacobiFrame) -> complex:
    """Closed form of the principal closing integral of theta_P.

    i [4E ImF(ix) - 4K Im(E - k i x)(x) - 4K G(x)] at the frame's finite
    chart value x = u (sign +) or x = v (sign -), with G grouped so large |x|
    stays cancellation-free; a chart value stays far below 1e154, so x^2
    cannot overflow.
    """
    x, z0 = frame.u if sign == 1 else frame.v, frame.z0
    return 1j * _gamma_imag(frame.k, *_complete_KE(frame.k), x, z0.real, z0.imag)


def _gamma_imag(k, K, E, x, x0, y0, terms=None):
    """Im of _theta_P_gamma_value at the chart value x and z0 = x0 + i y0,
    given K(k) and E(k), on floats or arrays, and x's terms when known, the
    last four of _chart_terms: w(ix), w(ix) - k x^2, F and E_reg."""
    _, mx, F, E_reg = _chart_terms(k, K, E, x, *_axis_angle(x))[2:] if terms is None else terms
    d = x - y0
    m_num = d * (mx + k * x * y0) - k * x * x0 * x0
    return 4.0 * E * F - 4.0 * K * (E_reg - m_num / (d * d + x0 * x0))


def _gamma_plus(p, k, K, E, u, v, terms=None):
    """Im of the gamma+ closing integral of theta_P at chart values u and v,
    floats or arrays, given K(k) and E(k) and u's terms when known
    (_gamma_imag): the closed form at u and the chart's z0 (_center) rather
    than the frame of inverse_coords, with that route's checks at every
    point, u != v and z0 finite with Re z0 > 0, on floats by float compares."""
    same = u == v
    if same.any() if isinstance(same, np.ndarray) else same:
        raise ValueError(_OFF_CHART)
    x0, y0 = _center(p, k, u, v, None if terms is None else terms[0])
    if not isinstance(x0, np.ndarray):
        if not (0.0 < x0 < math.inf and math.isfinite(y0)):
            raise ValueError(f"z0 = {complex(x0, y0)!r} is not finite with Re z0 > 0")
        return _gamma_imag(k, K, E, u, x0, y0, terms)
    bad = np.flatnonzero(~((0.0 < x0) & (x0 < math.inf) & np.isfinite(y0)))
    if bad.size:
        z0 = complex(np.ravel(x0)[bad[0]], np.ravel(y0)[bad[0]])
        raise ValueError(f"z0 = {z0!r} is not finite with Re z0 > 0")
    return _gamma_imag(k, K, E, u, x0, y0, terms)


def theta_P_gamma_closed(sign: int, frame: JacobiFrame) -> complex:
    """Principal closing integral of theta_P in closed form, purely imaginary.

    Rejected within 1e-9 of nu = +-1, where the principal path runs through
    infinity and the value jumps; callers needing a value there use the
    internal value function, on the side of the frame's chart angle.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    nu_gap = abs(frame.nu - 1.0) if sign == 1 else abs(frame.nu + 1.0)
    if nu_gap < 1e-9:
        raise ValueError("nu within 1e-9 of +-1; use a deck-translated representative")
    return _theta_P_gamma_value(sign, frame)


def gamma_closing_values(frame: JacobiFrame) -> dict[tuple[str, int | str], complex]:
    """Integrals of theta_E and theta_P over both principal closing paths,
    keyed (kind, +1 or -1), and over loops A and B, keyed (kind, "A" or "B").

    The checklist's one quadrature pass over every contour, independent of
    construct_psi's closed forms; the closed form stands in where no closing
    path exists (nu near +-1, a pole or branch point in the way).  theta_E
    over a closing path is its closed form, checked against the quadrature.
    A segment that does not settle raises ContinuationError.
    """
    geom = _Geometry(frame)
    paths = _contours(frame, (1, -1), check=True)
    out = {}
    for s in (1, -1):
        out[("theta_E", s)] = theta_E_gamma(s, frame.pair)
        if s not in paths:
            out[("theta_P", s)] = _theta_P_gamma_value(s, frame)
    results = _integrate(geom, geom.pair(), 2, *paths.values())
    for key, ((quad_E, quad_P), _) in zip(paths, results):
        out[("theta_P", key)] = quad_P
        if key in ("A", "B"):
            out[("theta_E", key)] = quad_E
        elif abs(quad_E - out[("theta_E", key)]) > 1e-6:
            raise ContinuationError(f"gamma path quadrature inconsistent: {quad_E!r}")
    return out


# ---------------------------------------------------------------------------
# Laurent data at the double poles

def _pole_radius(geom: _Geometry, center: complex) -> float:
    """Laurent sampling radius at a center: 0.05, or 0.3 of the distance to
    the nearest other branch point or pole when that is smaller.  Rounding
    the samples moves the normalized residue by about 2e-17 max(1, |center|) / rho,
    so rho below 1e-6 max(1, |center|) is refused like a pole on a branch point."""
    others = list(geom.branch_points) + \
        [p for p in geom.poles if abs(p - center) > 1e-12]
    rho = min(0.05, 0.3 * min(abs(center - c) for c in others))
    if not rho > 1e-6 * max(1.0, abs(center)):
        raise PoleError(f"double pole {center!r} sits on a branch point (radius {rho:.1e})")
    return rho


#: The sample angles of a Laurent circle, and its points on the unit circle.
_THETAS = np.linspace(0.0, TWO_PI, 128, endpoint=False)
_CIRCLE = np.exp(1j * _THETAS)


@cache
def _rows(orders: tuple) -> np.ndarray:
    """The projection rows exp(-i m theta) of the orders m on the samples."""
    return np.exp(-1j * np.multiply.outer(orders, _THETAS))


def _circles(geom: _Geometry, centers, rhos) -> tuple[np.ndarray, np.ndarray]:
    """The 128 samples of each center's Laurent circle of radius rho, and w
    there, tracked around each circle from the principal square root at its
    first sample: all circles in one _track_sheet call."""
    zs = np.concatenate([center + rho * _CIRCLE for center, rho in zip(centers, rhos)])
    heads = np.arange(0, len(zs), 128)
    return zs, _track_sheet(geom, zs, np.sqrt(geom.Q(zs[heads])), heads)


def _project(vals: np.ndarray, rhos, orders) -> list[dict[int, complex]]:
    """Laurent coefficients of the given orders at each circle of _circles,
    from a coefficient's values on their samples (the last axis of vals)."""
    means = (vals.reshape(*vals.shape[:-1], len(rhos), 1, 128)
             * _rows(tuple(orders))).sum(axis=-1) / 128
    return [{mth: means[..., j, i] / rho ** mth for i, mth in enumerate(orders)}
            for j, rho in enumerate(rhos)]


def laurent_coefficients(kind: str, center: complex, frame: JacobiFrame,
                         orders=(-2, -1, 0), coeff=None) -> dict[int, complex]:
    """Laurent coefficients of a differential's dz-coefficient at a point.

    Samples a circle of 128 points around the center with continuous sheet
    tracking and projects onto powers; exponentially accurate for analytic
    data.  The starting sheet is the principal square root at the first
    sample, which is enough for the pole-order and ratio checks (a sheet
    flip scales every coefficient by -1).  A coeff returning several
    coefficients at once, like _Geometry.pair, gives an array per order.
    """
    geom = _Geometry(frame)
    rho = _pole_radius(geom, center)
    vals = (coeff or geom.coefficient(kind))(*_circles(geom, [center], [rho]))
    return _project(np.asarray(vals), [rho], orders)[0]


def theta_P_characterization_check(frame: JacobiFrame) -> float:
    """Real part of pp(theta_P)/pp(theta_E) at the pole over zeta = 0.

    The period-normalized differential is characterized by this ratio being
    purely imaginary; the returned deviation should vanish to 1e-8.
    """
    cE, cP = laurent_coefficients("", frame.z0, frame, (-2,), _Geometry(frame).pair())[-2]
    return (cP / cE).real


# ---------------------------------------------------------------------------
# minimal closing pair

@dataclass(frozen=True)
class ClosingData:
    """Integers and reals pinning the minimal closing differentials.

    psi_E = a theta_E closes with integrals 2 pi i (n, m); psi_P =
    b theta_E + l theta_P closes with integrals 2 pi i (gamma_plus,
    gamma_minus).  l = m'/gcd(m', m n') is the minimal imaginary period.
    ``residual`` is the closed-form closing integrals' rounding residual;
    the checklist's P8 checks the integers by quadrature.
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

    def psi(self, theta_E, theta_P):
        """(psi_E, psi_P) = (a theta_E, b theta_E + l theta_P), on values or arrays."""
        return self.a * theta_E, self.b * theta_E + self.l * theta_P


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
    integrals come from the closed forms of theta_E and theta_P over the
    closing paths, with no quadrature, and the largest rounding residual is
    reported.  The measured S and T must match to 1e-9 relative, and each
    closing integral must lie within 1e-6 of its integer.
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

    # the four closing integrals in closed form
    E_plus, E_minus = theta_E_gamma(1, bp), theta_E_gamma(-1, bp)
    closing = {
        "psi_E_plus": (a * E_plus, n),
        "psi_E_minus": (a * E_minus, m),
        "psi_P_plus": (b * E_plus + l * I_plus, gamma_plus),
        "psi_P_minus": (b * E_minus + l * _theta_P_gamma_value(-1, frame), gamma_minus),
    }
    residual = 0.0
    for name, (val, expect) in closing.items():
        err = abs(val / (2j * math.pi) - expect)
        if not err <= 1e-6:
            raise ValueError(f"closing integral {name} = {val!r} is not 2 pi i {expect}")
        residual = max(residual, err)
    return ClosingData(n=n, m=m, n_prime=np_, m_prime=mp_, l=l, a=a, b=b,
                       gamma_plus=gamma_plus, gamma_minus=gamma_minus, residual=residual)


# ---------------------------------------------------------------------------
# monodromy around an annulus component

def monodromy_track(q: Fraction, loop_samples: int = 48, k: float = 0.5,
                    u_tilde0: float = 0.3,
                    contractible: bool = False) -> int:
    """Integer c with psi_P(end) - psi_P(start) = c psi_E around a loop.

    The loop runs once around the p = 1 annulus at level q (one half-turn of
    the rescaled angle), or around a small contractible loop in the
    (k, angle) chart when ``contractible``.  The annulus loop is oriented so
    that the closing integral over the gamma+ path gains +2 pi i per
    circuit, matching the deck-shift bookkeeping.  The principal gamma+
    value P jumps by -4 pi where the held angle u~ crosses an odd multiple
    of pi, for E F - K E_reg at the reduced angle loses the pi per turn of
    E F~ - K E~ (E K' + K E' - K K' = pi/2).  So L = P + 4 pi m, m the turn
    of u~ (elliptic._half_angle), is continuous along the level set, and the
    loop's integer is read off L(1) - L(0), which must lie on 2 pi Z.  The
    start is one cold solve_level at u~0.  At p = 1 the deck generator
    (curves.deck_lambda_tilde, +pi on the rescaled angles) leaves T~ fixed,
    and an annulus loop is one of its orbits, so the loop's end is the deck
    image of its start.  Each end is one float pass: its held angle's turn
    and (s, c) (_half_angle), its _chart_terms, and gamma+ from those terms.
    A contractible loop's ends coincide, so it takes one pass and its shift
    is 0.0 whenever its start solves.  ``loop_samples`` (an integer, at
    least 8) no longer changes the work or the result."""
    if not 0.0 < k < 1.0 or contractible and not 0.05 < k < 0.95:
        raise ValueError(f"k={k!r} outside (0, 1), or (0.05, 0.95) for a contractible loop")
    if not math.isfinite(u_tilde0):
        raise ValueError(f"the start angle u_tilde0 must be finite, got {u_tilde0!r}")
    try:
        loop_samples = operator.index(loop_samples)
    except TypeError:
        raise ValueError(f"loop_samples must be an integer, got {loop_samples!r}") from None
    if loop_samples < 8:
        raise ValueError("loop_samples must be at least 8")
    q, k = Fraction(q), float(k)
    l = q.denominator  # at p = 1, n = m = 1 so l = m'/gcd(m', n') = m'
    start = solve_level(1.0, float(q), k, u_tilde0)
    (K, E), ends = _complete_KE(k), []
    for mp in (start,) if contractible else (start, deck_lambda_tilde(start)):
        m, s, c, u = _half_angle(mp.u_tilde)
        terms = _chart_terms(k, K, E, u, s, c)[2:]
        ends.append((_gamma_plus(1.0, k, K, E, u, _chart_value(mp.v_tilde), terms), m))
    (P0, m0), (P1, m1) = ends[0], ends[-1]
    delta = P1 - P0 + 4.0 * math.pi * (m1 - m0)
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


@cache
def _checklist_samples() -> tuple[np.ndarray, np.ndarray]:
    """The checklist's fixed samples, drawn once: 16 points for P1 and 12 for
    P4 and P5 (those far enough from the branch points and poles are used)."""
    rng = np.random.default_rng(7)
    p1_z = np.exp(1j * rng.uniform(0, TWO_PI, 16)) * rng.uniform(0.4, 2.0, 16)
    xy = rng.uniform(-1.5, 1.5, (12, 2))
    return p1_z, xy[:, 0] + 1j * xy[:, 1]


def hitchin_checklist(frame: JacobiFrame,
                      closing: ClosingData | None = None) -> list[ChecklistEntry]:
    """Numerical validation of the spectral-data conditions for a curve.

    Runs on the constructed minimal closing pair when given, otherwise on
    the raw pair (theta_E, theta_P), whose closing integrals are generally
    not integral; that failure shows up in the closing entry.  The period
    and closing entries form psi_E = a theta_E and psi_P = b theta_E +
    l theta_P from one quadrature pass over every contour, and P8 measures
    the closing integrals / 2 pi i against the closing's integers (n, m,
    gamma_plus, gamma_minus), or the nearest integers for the raw pair.  The
    quaternionic line bundle, a circle of choices, is not constructed, so
    the list has no entry for it: each entry's residual is one the
    checklist computes.
    """
    p1_z, test_z = _checklist_samples()
    geom = _Geometry(frame)
    bp = frame.pair
    entries: list[ChecklistEntry] = []

    # real curve: zeta^4 conj(P(1/conj(zeta))) = P(zeta)
    P, P_inv = np.split(bp.curve_poly(np.concatenate((p1_z, 1.0 / np.conj(p1_z)))), 2)
    res = (np.abs(p1_z**4 * np.conj(P_inv) - P) / np.maximum(1.0, np.abs(P))).max()
    entries.append(ChecklistEntry("P1 real curve", float(res),
                                  "max |z^4 conj P(1/conj z) - P(z)| / |P|"))

    margin = min(1.0 - abs(bp.alpha), 1.0 - abs(bp.beta))
    entries.append(ChecklistEntry("P2 no circle zeros", 0.0 if margin > 0 else 1.0,
                                  f"distance of branch points to circle: {margin:.3e}"))

    rhos = [_pole_radius(geom, center) for center in geom.poles]
    circles, w_circles = _circles(geom, geom.poles, rhos)
    # sample points near the unit-circle image for the symmetry checks
    z = test_z[np.abs(test_z[:, None] - np.array(geom.branch_points + geom.poles)).min(axis=1)
               > 0.15]
    w = np.sqrt(geom.Q(z))
    # one evaluation of the pair: on both Laurent circles, and at (z, w),
    # (z, -w) and (-conj z, conj w)
    vals = np.array(geom.pair(closing)(np.concatenate((circles, z, z, -z.conj())),
                                       np.concatenate((w_circles, w, -w, w.conj()))))
    laurent = _project(vals[:, :len(circles)], rhos, (-2, -1))
    c2 = laurent[0][-2]  # leading coefficient at z0 of each differential, for P9
    pole_res = 0.0
    for rho, cs in zip(rhos, laurent):
        for lead, residue in zip(cs[-2], cs[-1]):
            if abs(lead) < 1e-10:
                pole_res = max(pole_res, 1.0)
            pole_res = max(pole_res, abs(residue) * rho / abs(lead))
    entries.append(ChecklistEntry("P3 double poles, no residues", float(pole_res),
                                  "normalized residue at the poles over 0, infinity"))

    f, f_sigma, f_rho = np.split(vals[:, len(circles):], 3, axis=1)
    scale = np.maximum(1.0, np.abs(f))
    sig_res = (np.abs(f_sigma + f) / scale).max(initial=0.0)
    rho_res = (np.abs(f_rho - f.conj()) / scale).max(initial=0.0)
    entries.append(ChecklistEntry("P4 involution odd", float(sig_res),
                                  "sigma* theta = -theta on samples"))
    entries.append(ChecklistEntry("P5 reality", float(rho_res),
                                  "rho* theta = -conj(theta) on samples"))

    gvals = gamma_closing_values(frame)
    names = ("theta_E", "theta_P") if closing is None else ("psi_E", "psi_P")

    def integrals(key):
        pair = gvals[("theta_E", key)], gvals[("theta_P", key)]
        return dict(zip(names, pair if closing is None else closing.psi(*pair)))

    loops = {lname: integrals(lname) for lname in ("A", "B")}
    periods = [(f"{name}.{lname}", loops[lname][name] / TWO_PI)
               for name in loops["A"] for lname in loops]
    entries.append(ChecklistEntry("P6 imaginary periods",
                                  max(abs(t.real) for _, t in periods), "Re of periods / 2 pi"))
    entries.append(ChecklistEntry("P7 periods in 2 pi i Z",
                                  max(abs(t.imag - round(t.imag)) for _, t in periods),
                                  ", ".join(f"{label}={round(t.imag)}" for label, t in periods)))

    sides = {"gamma+": integrals(1), "gamma-": integrals(-1)}
    closes = [(f"{name}.{side}", sides[side][name] / (2j * math.pi))
              for name in sides["gamma+"] for side in sides]
    expected = (None,) * 4 if closing is None else (
        closing.n, closing.m, closing.gamma_plus, closing.gamma_minus)
    close_res = max(abs(t - (round(t.real) if n is None else n))
                    for (_, t), n in zip(closes, expected))
    against = "nearest integers" if closing is None else f"closing integers {expected}"
    entries.append(ChecklistEntry("P8 closing integrals", float(close_res),
                                  f"quadrature / 2 pi i against {against}: "
                                  + ", ".join(f"{label}={t.real:.6f}" for label, t in closes)))

    indep = abs((c2[1] / c2[0]).imag)
    entries.append(ChecklistEntry("P9 independent principal parts",
                                  0.0 if indep > 1e-6 else 1.0,
                                  f"|Im(pp ratio)| = {indep:.3e}"))
    return entries

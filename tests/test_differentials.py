"""Periods, closing integrals, the minimal pair and the checklist."""

import cmath
import dataclasses
import itertools
import math
import random
import re
from fractions import Fraction
from functools import cache
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from harmonictori import curves, differentials, moduli, verify
from harmonictori.curves import (
    BranchPair, ModuliPoint, angle_rescale, build_frame, inverse_coords,
)
from harmonictori.differentials import (
    _RULE_W, _RULE_X, ContinuationError, PathError, PathSpec, PoleError,
    _Geometry, _gamma_imag, _integrate, _sweep, _theta_P_gamma_value,
    _track_sheet, construct_psi, contour_integral,
    eta_plus, gamma0_path, gamma_closing_values, hitchin_checklist, laurent_coefficients, loop_A,
    loop_B, monodromy_track, theta_E_gamma, theta_P_characterization_check,
    theta_P_gamma_closed,
)
from harmonictori.elliptic import (
    _chart_value, _complete_KE, _half_angle, complementary_KE, complementary_modulus, complete_E,
    complete_K,
)
from harmonictori.config import DEFAULTS
from harmonictori.moduli import (
    LevelSolveError, S_value, moduli_summary, solve_level, spectral_test, t0_raw, t_tilde_raw,
)

RNG = np.random.default_rng(23)


def random_frame(radius=0.75, max_uv=25.0):
    while True:
        a = complex(*RNG.uniform(-radius, radius, 2))
        b = complex(*RNG.uniform(-radius, radius, 2))
        if abs(a) >= radius or abs(b) >= radius or abs(a - b) < 0.08:
            continue
        fr = build_frame(BranchPair(a, b))
        if max(abs(fr.u), abs(fr.v)) < max_uv:
            return fr


class TestEtaPlus:
    def test_values(self):
        bp = BranchPair(0.0, 0.5)
        assert eta_plus(1.0, bp) == pytest.approx(0.5)
        bp = BranchPair(0.3, -0.3)
        assert eta_plus(-1.0, bp) == pytest.approx(-1.3 * 0.7)

    def test_squares_to_curve_polynomial(self):
        bp = BranchPair(0.2 + 0.4j, -0.5 + 0.1j)
        for th in RNG.uniform(0, 2 * math.pi, 12):
            z = cmath.exp(1j * th)
            assert eta_plus(z, bp) ** 2 == pytest.approx(bp.curve_poly(z), rel=1e-12)

    def test_off_circle_rejected(self):
        with pytest.raises(ValueError):
            eta_plus(0.5, BranchPair(0.0, 0.5))


class TestClosedGammaForms:
    def test_exact_differential_values(self):
        bp = BranchPair(0.0, 0.5)
        assert theta_E_gamma(1, bp) == pytest.approx(1j)
        bp2 = BranchPair(0.3, -0.3)
        assert theta_E_gamma(-1, bp2) == pytest.approx(2j * 1.3 * 0.7)

    def test_ratio_is_S(self):
        for _ in range(20):
            fr = random_frame()
            bp = fr.pair
            ratio = theta_E_gamma(1, bp) / theta_E_gamma(-1, bp)
            assert ratio == pytest.approx(S_value(bp), rel=1e-12)

    def test_positive_imaginary(self):
        for _ in range(20):
            bp = random_frame().pair
            for s in (1, -1):
                v = theta_E_gamma(s, bp)
                assert abs(v.real) < 1e-15
                assert v.imag > 0

    def test_theta_P_purely_imaginary(self):
        for _ in range(10):
            fr = random_frame()
            for s in (1, -1):
                assert abs(theta_P_gamma_closed(s, fr).real) < 1e-9

    def test_chi_fixed_gamma_relation(self):
        # on an inversion-fixed curve the gamma integrals differ by a full
        # 2 pi i: S * gamma- - gamma+ = 2 pi i T0 with T0 = -1 there
        a = 0.45 * cmath.exp(0.8j)
        fr = build_frame(BranchPair(a, -a))
        val = S_value(fr.pair) * theta_P_gamma_closed(-1, fr) \
            - theta_P_gamma_closed(1, fr)
        assert val == pytest.approx(-2j * math.pi, abs=1e-9)

    def test_rejects_nu_at_one(self):
        fr = build_frame(BranchPair(0.3, -0.3))  # nu = -1 exactly
        with pytest.raises(ValueError):
            theta_P_gamma_closed(-1, fr)


class TestPeriodTable:
    def test_all_periods(self):
        for _ in range(10):
            fr = random_frame()
            k = fr.k
            K, E = complete_K(k), complete_E(k)
            kp = complementary_modulus(k)
            Kp, Ep = complete_K(kp), complete_E(kp)
            A, B = loop_A(fr), loop_B(fr)
            table = [
                ("omega", A, 4 * K), ("e", A, 4 * E), ("epsilon", A, 4 * E),
                ("theta_P", A, 0.0), ("theta_E", A, 0.0),
                ("omega", B, 2j * Kp), ("e", B, 2j * (Kp - Ep)),
                ("epsilon", B, 2j * (Kp - Ep)),
                ("theta_P", B, 2j * math.pi), ("theta_E", B, 0.0),
            ]
            for kind, loop, expect in table:
                val = contour_integral(kind, loop, fr)
                scale = max(1.0, abs(expect))
                assert abs(val - expect) / scale < 1e-8, (kind, val, expect)

    def test_loop_A_fallback_edges_keep_the_periods(self, monkeypatch):
        # of 300 pairs from verify's draw with |z| <= 0.97, those with a
        # double pole within 0.1 of loop A's default edge x = min(1.2,
        # (1 + 1/k)/2) move the edge between 1 and 1/k; the loops keep the
        # periods 4K and 2iK' of dz/w, and the checklist's quadrature pass
        # integrates the same loops
        rng = np.random.default_rng(24)
        passes, inner = [], differentials._integrate

        def recorded(geom, integrand, count, *paths):
            passes.append(paths)
            return inner(geom, integrand, count, *paths)
        monkeypatch.setattr(differentials, "_integrate", recorded)
        taken = 0
        for _ in range(300):
            fr = build_frame(verify._random_pair(rng, 0.97))
            A, B = loop_A(fr), loop_B(fr)
            xa, h = min(1.2, 0.5 * (1.0 + 1.0 / fr.k)), A.points[2].imag
            if min(math.hypot(p.real - xa, max(0.0, abs(p.imag) - h))
                   for p in (fr.z0, -fr.z0.conjugate())) >= 0.1:
                continue
            taken += 1
            assert 1.0 < A.points[1].real < 1.0 / fr.k
            Kp, _ = complementary_KE(fr.k)
            assert abs(contour_integral("omega", A, fr) - 4.0 * complete_K(fr.k)) < 1e-8
            assert abs(contour_integral("omega", B, fr) - 2j * Kp) < 1e-8
            passes.clear()
            vals = gamma_closing_values(fr)
            assert passes[0][-2:] == (A, B)
            assert abs(vals[("theta_P", "A")]) < 1e-8
            assert abs(vals[("theta_P", "B")] - 2j * math.pi) < 1e-8
        assert taken >= 5

    def test_axis_route_oracle_for_B_periods(self):
        # independent realization of the B-cycle along the imaginary axis:
        # the first kind integrates directly; the second kind has its pole at
        # infinity on this route and needs the finite part (subtract k y) plus
        # the analytic tail beyond y = R
        from scipy.integrate import quad
        fr = random_frame()
        k = fr.k
        R = 1e6

        def W(y):
            return math.sqrt((1 + y * y) * (1 + k * k * y * y))

        def inv_W_far(s):  # y = 1/s
            return 1.0 / math.sqrt((s * s + 1) * (s * s + k * k))

        body, _ = quad(lambda y: 1 / W(y), 0, 1, epsabs=1e-13)
        far, _ = quad(inv_W_far, 1 / R, 1, epsabs=1e-13)
        tail = 1 / (k * R) - (1 + 1 / k**2) / (6 * k * R**3)
        axis_omega = 2j * (body + far + tail)
        assert contour_integral("omega", loop_B(fr), fr) == pytest.approx(
            axis_omega, abs=1e-8)

        def e_reg(y):  # (1 + k^2 y^2)/W - k, integrable finite part
            return (1 + k * k * y * y) / W(y) - k

        def e_reg_far(s):  # y = 1/s substitution of the same integrand
            y = 1 / s
            return e_reg(y) / (s * s)

        body_e, _ = quad(e_reg, 0, 1, epsabs=1e-13)
        far_e, _ = quad(e_reg_far, 1 / R, 1, epsabs=1e-13)
        tail_e = (1 - k * k) / (2 * k * R)
        axis_e = 2j * (body_e + far_e + tail_e)
        assert contour_integral("e", loop_B(fr), fr) == pytest.approx(
            axis_e, abs=1e-7)

    def test_epsilon_has_no_pole_at_nu(self):
        # a small loop in the zeta-plane around nu maps to a large closed
        # contour in z; epsilon integrates to zero around it
        fr = random_frame(max_uv=8.0)
        thetas = np.linspace(0, 2 * math.pi, 40, endpoint=False)
        zs = [fr.f(fr.nu * (1 + 0.05 * cmath.exp(1j * t))) for t in thetas]
        path = PathSpec(points=tuple(zs) + (zs[0],), sheet=1)
        val = contour_integral("epsilon", path, fr)
        assert abs(val) < 1e-8


class TestSheetTracking:
    FRAME = build_frame(BranchPair(0.2, -0.4))  # k = 2/7: branch points +-1, +-3.5

    def test_circle_around_one_branch_point_flips_sheet(self):
        geom = _Geometry(self.FRAME)
        zs = 1.0 + 0.2 * np.exp(1j * np.linspace(0.0, 2 * math.pi, 65))
        w0 = cmath.sqrt(geom.Q(zs[0]))
        w = _track_sheet(geom, zs, w0)
        assert w[0] == w0
        assert w[-1] == pytest.approx(-w0, abs=1e-14)

    def test_loop_A_returns_to_start(self):
        geom = _Geometry(self.FRAME)
        pts = loop_A(self.FRAME).points
        zs = np.concatenate([np.linspace(a, b, 200, endpoint=False)
                             for a, b in zip(pts[:-1], pts[1:])] + [[pts[-1]]])
        w0 = cmath.sqrt(geom.Q(zs[0]))
        assert _track_sheet(geom, zs, w0)[-1] == pytest.approx(w0, abs=1e-14)

    def test_matches_scalar_nearest_value_loop(self):
        geom = _Geometry(self.FRAME)
        zs = 1.0 + 0.3 * np.exp(1j * np.linspace(0.0, 5 * math.pi, 90)) \
            * np.linspace(1.0, 2.0, 90)
        w_prev = -cmath.sqrt(geom.Q(zs[0]))
        expect = []
        for z in zs:
            s = cmath.sqrt(geom.Q(z))
            w_prev = s if abs(s - w_prev) <= abs(s + w_prev) else -s
            expect.append(w_prev)
        w = _track_sheet(geom, zs, -cmath.sqrt(geom.Q(zs[0])))
        assert np.abs(w - np.array(expect)).max() < 1e-15 * np.abs(w).max()

    def test_under_resolved_nodes_raise(self):
        geom = _Geometry(self.FRAME)
        zs = 1.0 + 0.05 * np.exp(0.5j * math.pi * np.arange(5))  # quarter turns
        with pytest.raises(ContinuationError):
            _track_sheet(geom, zs, cmath.sqrt(geom.Q(zs[0])))

    def test_refinement_recovers_period(self):
        # the first segment grazes the branch point 1 at distance 0.005; on 17
        # equal panels the sheet cannot be followed there, and the level's sweep
        # halves that segment's panels alone, while the other settles on its
        # first level and leaves the level's panels.  Laid out by distance,
        # the grazing segment needs no halving, and the integral matches the
        # lone loop bit for bit
        fr = self.FRAME
        geom = _Geometry(fr)
        z1, z2 = 1.005 - 2j, 1.005 + 2j
        omega = geom.coefficient("omega")
        equal = np.linspace(0.0, 1.0, 18)
        with pytest.raises(ContinuationError):
            reference_walk_segment(geom, [omega], z1, z2, cmath.sqrt(geom.Q(z1)), equal)
        segs = SimpleNamespace(
            z1=np.array([z1, -1.2 + 2j]), z2=np.array([z2, -1.2 - 2j]), ta=np.tile(equal[:-1], 2),
            tb=np.tile(equal[1:], 2), seg=np.repeat([0, 1], 17), vals=np.zeros((1, 2), complex),
            open_=np.ones((1, 2), bool), s_end=np.zeros(2, complex), sign_end=np.zeros(2))
        _sweep(geom, lambda z, w: (omega(z, w),), segs)
        assert np.array_equal(segs.seg, np.zeros(34, int))
        assert np.array_equal(np.append(segs.ta, 1.0)[::2], equal)
        assert np.array_equal(segs.tb, np.append(segs.ta[1:], 1.0))
        assert segs.open_.tolist() == [[True, False]]
        assert (segs.vals[0, 0], segs.sign_end[0]) == (0.0, 0.0)
        assert segs.vals[0, 1] != 0.0 and abs(segs.sign_end[1]) == 1.0
        t = layout_one(z1, z2, geom.branch_points + geom.poles)
        reference_walk_segment(geom, [omega], z1, z2, cmath.sqrt(geom.Q(z1)), t)
        path = PathSpec(points=(z1, z2, -1.2 + 2j, -1.2 - 2j, z1), sheet=1)
        val = contour_integral("omega", path, fr)
        assert val == pytest.approx(4 * complete_K(fr.k), abs=1e-8)
        (ref,), w_ref = reference_integrate(geom, [omega], path)
        [((new,), w_new)] = _integrate(geom, lambda z, w: (omega(z, w),), 1, path)
        assert (bits(new), bits(w_new)) == (bits(ref), bits(w_ref))


def bits(z):
    return z.real.hex(), z.imag.hex()


def layout_one(z1, z2, centers):
    """The breakpoints of the panels _layout gives the one segment [z1, z2]."""
    ta, tb, seg = differentials._layout([z1], [z2], centers)
    assert not seg.any() and np.array_equal(ta[1:], tb[:-1])
    return np.append(ta, tb[-1])


def halve(t):
    """The breakpoints t with the midpoint of each panel added."""
    return np.append(np.column_stack((t[:-1], 0.5 * (t[:-1] + t[1:]))).ravel(), t[-1])


def level_nodes(segs):
    """The points a level of _sweep tracks: 33 nodes a panel and one z2 a segment."""
    return 33 * len(segs.seg) + len(set(segs.seg.tolist()))


def spectral_frame(S, T, k=0.5, angle=0.3):
    return build_frame(inverse_coords(solve_level(float(S), float(T), k, angle)))


# The quadrature as a lone loop: one walk per segment and level, each segment
# laid out alone and tracked from the w where the previous one ended, its
# panel sums by both rules added by np.add.reduceat, as the level's one
# reduction adds them.  The fused sweep of a level must give its values and
# final w bit for bit.

def reference_track_sheet(geom, zs, w0):
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


def reference_walk_segment(geom, coeffs, z1, z2, w_start, t):
    """Each coefficient's Kronrod sum over the panels t of [z1, z2], and its
    excess over the Gauss sum."""
    half = 0.5 * (t[1:] - t[:-1]) * (z2 - z1)
    mids = z1 + 0.5 * (t[:-1] + t[1:]) * (z2 - z1)
    zs = np.append((mids[:, None] + half[:, None] * _RULE_X).ravel(), z2)
    w = reference_track_sheet(geom, zs, w_start)
    sums = []
    for coeff in coeffs:
        panels = (np.reshape(coeff(zs[:-1], w[:-1]), (-1, 1, 33)) * _RULE_W).sum(axis=-1)
        kron, excess = np.add.reduceat(panels * half[:, None], [0])[0]
        sums.append((complex(kron), complex(excess)))
    return sums, complex(w[-1])


def reference_integrate(geom, coeffs, path, walk=reference_walk_segment):
    w = path.sheet * cmath.sqrt(geom.Q(path.points[0]))
    totals = [0.0 + 0.0j] * len(coeffs)
    for z1, z2 in zip(path.points[:-1], path.points[1:]):
        if z1 == z2:
            continue
        t = layout_one(z1, z2, geom.branch_points + geom.poles)
        vals, open_ = [None] * len(coeffs), range(len(coeffs))
        for _ in range(13):
            try:
                new, w_end = walk(geom, [coeffs[i] for i in open_], z1, z2, w, t)
            except ContinuationError:
                t = halve(t)
                continue
            still = []
            for i, (kron, excess) in zip(open_, new):
                if abs(excess) <= max(1e-13, 1e-10 * max(abs(kron), 1.0)):
                    vals[i] = kron
                else:
                    still.append(i)
            open_ = still
            if not open_:
                break
            t = halve(t)
        else:
            raise ContinuationError(f"no quadrature convergence on [{z1!r}, {z2!r}]")
        totals = [total + v for total, v in zip(totals, vals)]
        w = w_end
    return totals, w


def reference_coefficients(geom):
    """theta_E and theta_P written out one function each, as the reference
    for the shared evaluation of _Geometry.pair."""
    k2 = geom.k * geom.k

    def eps(z, w):
        D, N = geom.D(z), geom.N(z)
        return ((1.0 - k2 * z * z) / w
                + w * (D - 2.0 * N * N) / (D * D)
                + N * geom.dQ(z) / (2.0 * w * D))
    C = geom.exact_scale

    def thE(z, w):
        D, N = geom.D(z), geom.N(z)
        return 1j * C * (geom.dQ(z) * D / (2.0 * w) - 2.0 * N * w) / (D * D)
    twoE, twoK = 2.0 * geom.E, 2.0 * geom.K
    return thE, lambda z, w: twoE / w - twoK * eps(z, w)


def alone(coeff):
    return lambda z, w: (coeff(z, w),)


SMALL_K = spectral_frame(1, 1, k=0.05)  # the second level of its four paths: 4 626 nodes


class TestFusedQuadrature:
    def test_pair_equals_lone_integrations(self, monkeypatch):
        # one pass over both gamma paths and loops A and B, one sweep per
        # level for both coefficients of the pair, gives each path's values,
        # and its final w, bit for bit as that path integrated alone and as
        # the per-segment walks of one coefficient at a time do, also when one
        # value freezes at a coarser level than the other (the gamma paths of
        # the symmetric-annulus curve at k = 0.75) and on a level of 4 626
        # nodes (SMALL_K)
        one_open = [0]  # segment levels that refined one value only

        def counted(geom, integrand, segs):
            one_open[0] += int((segs.open_[:, np.unique(segs.seg)].sum(axis=0) == 1).sum())
            return _sweep(geom, integrand, segs)
        monkeypatch.setattr(differentials, "_sweep", counted)
        frames = [random_frame() for _ in range(6)] + [spectral_frame(1, 1, k=0.75), SMALL_K]
        for fr in frames:
            geom = _Geometry(fr)
            paths = (gamma0_path(1, fr), gamma0_path(-1, fr), loop_A(fr), loop_B(fr))
            together = _integrate(geom, geom.pair(), 2, *paths)
            assert len(together) == len(paths)
            for path, (values, w_end) in zip(paths, together):
                [(lone_pair, w_pair)] = _integrate(geom, geom.pair(), 2, path)
                assert ([bits(v) for v in values], bits(w_end)) == (
                    [bits(v) for v in lone_pair], bits(w_pair))
                for kind, coeff, value in zip(("theta_E", "theta_P"),
                                              reference_coefficients(geom), values):
                    (ref,), w_ref = reference_integrate(geom, [coeff], path)
                    assert bits(value) == bits(ref)
                    assert bits(w_end) == bits(w_ref)
                    lone_coeff = alone(geom.coefficient(kind))
                    [((lone,), w_lone)] = _integrate(geom, lone_coeff, 1, path)
                    assert (bits(lone), bits(w_lone)) == (bits(ref), bits(w_ref))
        assert one_open[0] > 0

    def test_closing_values_equal_contour_integrals(self):
        for fr in [random_frame() for _ in range(4)] + [spectral_frame(1, 1, k=0.75)]:
            vals = gamma_closing_values(fr)
            for s in (1, -1):
                path = gamma0_path(s, fr)
                assert bits(vals[("theta_P", s)]) == bits(
                    contour_integral("theta_P", path, fr))

    def test_one_track_per_level_on_the_gamma_path(self, monkeypatch):
        # the k = 0.05 gamma- path alone: its levels are the most walks any
        # of its segments took, two, and each level is one sheet track
        fr = SMALL_K
        geom = _Geometry(fr)
        walks = {}

        def walk(geom, coeffs, z1, z2, *args):
            walks[z1, z2] = walks.get((z1, z2), 0) + 1
            return reference_walk_segment(geom, coeffs, z1, z2, *args)
        reference_integrate(geom, [geom.coefficient("theta_E"), geom.coefficient("theta_P")],
                            gamma0_path(-1, fr), walk=walk)
        tracks = []
        track_runs = differentials._track_runs

        def counted(geom, zs, *args):
            tracks.append(len(zs))
            return track_runs(geom, zs, *args)
        monkeypatch.setattr(differentials, "_track_runs", counted)
        _integrate(geom, geom.pair(), 2, gamma0_path(-1, fr))
        assert len(tracks) == max(walks.values()) == 2

    def test_the_largest_levels_equal_lone_integrations(self, monkeypatch):
        # the paths of the checklist's quadrature pass on the symmetric
        # annulus at k = 1e-6 (the gamma- path refused there, as by
        # gamma_closing_values) peak at 11 422 nodes a level, near the 16 384
        # of numpy's temporary elision: the fused pass still gives each
        # path's values and final w bit for bit as that path integrated alone
        fr = spectral_frame(1, 1, k=1e-6)
        geom = _Geometry(fr)
        paths = [loop_A(fr), loop_B(fr)] + [
            path for key, path in differentials._contours(fr, (1, -1), check=True).items()
            if key in (1, -1)]
        sizes = []

        def counted(geom, integrand, segs):
            sizes.append(level_nodes(segs))
            return _sweep(geom, integrand, segs)
        monkeypatch.setattr(differentials, "_sweep", counted)
        together = _integrate(geom, geom.pair(), 2, *paths)
        assert len(paths) == 3 and 8192 < max(sizes) < 16384
        for path, (values, w_end) in zip(paths, together):
            [(lone, w_lone)] = _integrate(geom, geom.pair(), 2, path)
            assert ([bits(v) for v in values], bits(w_end)) == (
                [bits(v) for v in lone], bits(w_lone))


class TestClosingReuse:
    S, T = Fraction(1, 3), Fraction(1, 4)

    def count_gamma_calls(self, monkeypatch):
        calls = []
        inner = differentials.gamma_closing_values

        def counted(frame):
            calls.append(frame)
            return inner(frame)
        monkeypatch.setattr(differentials, "gamma_closing_values", counted)
        return calls

    def count_passes(self, monkeypatch):
        counts = {"_integrate": 0, "_sweep": 0}
        for name in counts:
            def counted(*args, name=name, inner=getattr(differentials, name)):
                counts[name] += 1
                return inner(*args)
            monkeypatch.setattr(differentials, name, counted)
        return counts

    def test_pipeline_integrates_gamma_paths_once(self, monkeypatch):
        # construct_psi runs on closed forms; the checklist's one
        # gamma_closing_values call is the pipeline's only one
        calls = self.count_gamma_calls(monkeypatch)
        fr = spectral_frame(self.S, self.T)
        cd = construct_psi(self.S, self.T, fr)
        assert calls == []
        hitchin_checklist(fr, cd)
        assert calls == [fr]

    def test_one_quadrature_pass_per_curve(self, monkeypatch):
        # construct_psi makes no quadrature; the checklist integrates both
        # closing paths and loops A and B in one pass of two levels, with a
        # closing or without one
        counts = self.count_passes(monkeypatch)
        fr = spectral_frame(self.S, self.T)
        cd = construct_psi(self.S, self.T, fr)
        assert counts == {"_integrate": 0, "_sweep": 0}
        hitchin_checklist(fr, cd)
        assert counts["_integrate"] == 1 and counts["_sweep"] <= 2
        hitchin_checklist(fr)
        assert counts["_integrate"] == 2

    def test_closing_from_another_frame_is_flagged(self, monkeypatch):
        cd = construct_psi(self.S, self.T, spectral_frame(self.S, self.T))
        other = spectral_frame(self.S, self.T, k=0.4)
        calls = self.count_gamma_calls(monkeypatch)
        p8 = {e.item: e for e in hitchin_checklist(other, cd)}["P8 closing integrals"]
        assert calls == [other]
        assert p8.residual > 1e-3

    def test_closing_integers_checked_by_quadrature(self):
        # P8 compares the quadrature with the closing's own integers, so a
        # closing whose integer is off by one fails, though the values are
        # integral
        fr = spectral_frame(self.S, self.T)
        cd = construct_psi(self.S, self.T, fr)
        wrong = dataclasses.replace(cd, gamma_plus=cd.gamma_plus + 1)
        p8 = {e.item: e for e in hitchin_checklist(fr, wrong)}["P8 closing integrals"]
        assert p8.residual >= 0.5


class TestGammaQuadrature:
    def test_closed_vs_quadrature(self):
        # the closed forms are construct_psi's values: random pairs and the
        # census mix, spectral frames at k = 0.05 and 0.85 and the
        # symmetric annulus
        census = [spectral_frame(Fraction(1, 3), Fraction(1, 4), k=0.05),
                  spectral_frame(Fraction(5, 2), Fraction(1, 2), k=0.85), SMALL_K,
                  spectral_frame(1, 1, k=0.75)]
        for fr in [random_frame() for _ in range(8)] + census:
            for s in (1, -1):
                closed = theta_P_gamma_closed(s, fr)
                quad = contour_integral("theta_P", gamma0_path(s, fr), fr)
                assert abs(closed - quad) < 1e-8

    def test_exact_gamma_quadrature(self):
        fr = random_frame()
        for s in (1, -1):
            quad = contour_integral("theta_E", gamma0_path(s, fr), fr)
            assert quad == pytest.approx(theta_E_gamma(s, fr.pair), abs=1e-8)

    def test_path_clearance_enforced(self):
        fr = build_frame(BranchPair(0.2, -0.4))
        bad = PathSpec(points=(0.5 - 0.5j, 1.0, 0.5 + 0.5j), sheet=1)
        with pytest.raises(PathError):
            contour_integral("omega", bad, fr)

    def test_unknown_kind_rejected_before_the_path(self):
        fr = build_frame(BranchPair(0.2, -0.4))
        bad = PathSpec(points=(0.5 - 0.5j, 1.0, 0.5 + 0.5j), sheet=1)
        with pytest.raises(ValueError, match=re.escape("unknown differential 'zeta'")):
            contour_integral("zeta", bad, fr)


class TestCharacterization:
    def test_ratio_purely_imaginary(self):
        for _ in range(20):
            fr = random_frame()
            assert abs(theta_P_characterization_check(fr)) < 1e-8

    def test_adding_exact_part_breaks_it(self):
        fr = random_frame()
        from harmonictori.differentials import _Geometry
        geom = _Geometry(fr)
        thP, thE = geom.coefficient("theta_P"), geom.coefficient("theta_E")
        mixed = lambda z, w: thP(z, w) + 0.1 * thE(z, w)
        cP = laurent_coefficients("", fr.z0, fr, orders=(-2,), coeff=mixed)[-2]
        cE = laurent_coefficients("theta_E", fr.z0, fr, orders=(-2,))[-2]
        assert abs((cP / cE).real - 0.1) < 1e-8

    def test_invariant_under_deck(self):
        from harmonictori.curves import deck_lambda_tilde, forward_coords
        bp = BranchPair(0.25 + 0.3j, -0.4 - 0.1j)
        d1 = theta_P_characterization_check(build_frame(bp))
        mp = deck_lambda_tilde(forward_coords(bp))
        d2 = theta_P_characterization_check(build_frame(inverse_coords(mp)))
        assert abs(d1) < 1e-8 and abs(d2) < 1e-8


class TestConstructPsi:
    @pytest.mark.parametrize("S,T,l_expect", [
        (Fraction(1), Fraction(0), 1),
        (Fraction(1), Fraction(1, 2), 2),
        (Fraction(1, 3), Fraction(0), 1),
        (Fraction(1, 3), Fraction(1, 4), 4),
        (Fraction(2), Fraction(1, 3), 3),
    ])
    def test_targets(self, S, T, l_expect):
        mp = solve_level(float(S), float(T), 0.5, 0.3)
        fr = build_frame(inverse_coords(mp))
        cd = construct_psi(S, T, fr)
        assert cd.l == l_expect
        assert cd.residual < 1e-6

    def test_trivial_level(self):
        # T = 0 target: l = 1 and equal closing integers when S = 1
        mp = solve_level(1.0, 0.0, 0.5, 0.3)
        fr = build_frame(inverse_coords(mp))
        cd = construct_psi(Fraction(1), Fraction(0), fr)
        assert cd.l == 1
        assert cd.gamma_plus - cd.gamma_minus == \
            -round(t0_raw(1.0, fr.k, fr.u, fr.v))

    def test_integer_combinations_close(self):
        # 2 psi_E + 3 psi_P closes with multipliers (2n + 3G+, 2m + 3G-)
        S, T = Fraction(1, 3), Fraction(1, 4)
        mp = solve_level(float(S), float(T), 0.5, 0.3)
        fr = build_frame(inverse_coords(mp))
        cd = construct_psi(S, T, fr)
        for s, expect in ((1, 2 * cd.n + 3 * cd.gamma_plus),
                          (-1, 2 * cd.m + 3 * cd.gamma_minus)):
            thE = theta_E_gamma(s, fr.pair)
            thP = theta_P_gamma_closed(s, fr)
            val = 2 * (cd.a * thE) + 3 * (cd.b * thE + cd.l * thP)
            assert val / (2j * math.pi) == pytest.approx(expect, abs=1e-8)

    def test_minimality(self):
        # halving l breaks integrality of the closing pair on the 1/3 curve
        S, T = Fraction(1, 3), Fraction(1, 4)
        mp = solve_level(float(S), float(T), 0.5, 0.3)
        fr = build_frame(inverse_coords(mp))
        cd = construct_psi(S, T, fr)
        half_l = cd.l // 2
        I_plus = theta_P_gamma_closed(1, fr)
        I_minus = theta_P_gamma_closed(-1, fr)
        eta1 = abs(1 - fr.pair.alpha) * abs(1 - fr.pair.beta)
        etam = abs(1 + fr.pair.alpha) * abs(1 + fr.pair.beta)
        worst = 1.0
        for gp in range(-12, 13):
            b = (2 * math.pi * gp - half_l * I_plus.imag) / (2 * eta1)
            gm = (2 * etam * b + half_l * I_minus.imag) / (2 * math.pi)
            worst = min(worst, abs(gm - round(gm)))
        assert worst > 1e-3

    def test_wrong_rationals_rejected(self):
        mp = solve_level(1.0, 0.0, 0.5, 0.3)
        fr = build_frame(inverse_coords(mp))
        with pytest.raises(ValueError):
            construct_psi(Fraction(2), Fraction(0), fr)
        with pytest.raises(ValueError):
            construct_psi(Fraction(1), Fraction(1, 7), fr)


def record_solves(monkeypatch):
    """Record monodromy_track's solve_level and deck_lambda_tilde calls, one
    (name, args, kw, result) each, and fail the test on any moduli._lockstep
    call."""
    calls = []

    def recorder(name, fn):
        def recorded(*args, **kw):
            result = fn(*args, **kw)
            calls.append((name, args, kw, result))
            return result
        monkeypatch.setattr(differentials, name, recorded)
    recorder("solve_level", solve_level)
    recorder("deck_lambda_tilde", curves.deck_lambda_tilde)
    monkeypatch.setattr(moduli, "_lockstep", lambda *args: pytest.fail("the loop ran _lockstep"))
    return calls


def check_loop_solves(calls, q, k, u_tilde0=0.3, contractible=False):
    """A loop's recorded calls are one solve_level, with positional
    (1.0, q, k, u~0), which returns a ModuliPoint on its level within
    solver_tol at that held angle, and for an annulus one deck_lambda_tilde
    of that point, whose u~ is the loop's at t = 1.  Returns the loop's two
    ends: the start, and the deck image of the start bit for bit, or for a
    contractible loop the start itself."""
    assert [name for name, *_ in calls] == ["solve_level"] + ["deck_lambda_tilde"] * (not contractible)
    (_, args, kw, start), *deck = calls
    assert args == (1.0, float(q), k, u_tilde0) and kw == {}
    assert isinstance(start, ModuliPoint) and (start.p, start.k, start.u_tilde) == (1.0, k, u_tilde0)
    assert start.u_tilde < start.v_tilde < start.u_tilde + 2 * math.pi
    assert abs(t_tilde_raw(1.0, k, start.u_tilde, start.v_tilde) - float(q)) < DEFAULTS.solver_tol
    if contractible:
        return start, start
    [(_, args, kw, end)] = deck
    assert args[0] is start and (args[1:], kw) == ((), {})
    image = curves.deck_lambda_tilde(start)
    assert (end.u_tilde.hex(), end.v_tilde.hex()) == (image.u_tilde.hex(), image.v_tilde.hex())
    assert end.u_tilde == loop_point(1.0, k, u_tilde0)[1]
    return start, end


def tracked_monodromy(monkeypatch, q, loop_samples, k=0.5, u_tilde0=0.3, contractible=False):
    """monodromy_track, with check_loop_solves on the solves it makes."""
    calls = record_solves(monkeypatch)
    turns = monodromy_track(q, loop_samples, k, u_tilde0, contractible)
    check_loop_solves(calls, q, k, u_tilde0, contractible)
    return turns


class TestMonodromy:
    def test_integer_annulus(self, monkeypatch):
        assert tracked_monodromy(monkeypatch, Fraction(0), loop_samples=32) == -1

    def test_half_annulus(self, monkeypatch):
        assert tracked_monodromy(monkeypatch, Fraction(1, 2), loop_samples=32) == -2

    def test_contractible(self, monkeypatch):
        assert tracked_monodromy(monkeypatch, Fraction(1, 2), loop_samples=24,
                                 contractible=True) == 0

    @pytest.mark.parametrize("k", [1e-4, 1e-3, 3e-3, 0.05])
    @pytest.mark.parametrize("q", [Fraction(n, d) for d, ns in (
        (1, (-3, 0, 2)), (2, (-5, 1, 3)), (3, (-7, 1, 5)), (5, (-3,)), (7, (-20, 2, 3, 16)))
        for n in ns])
    def test_eight_samples_at_small_k_give_minus_d(self, q, k):
        # at k <= 3e-3 with 8 samples one step's gamma+ change exceeds pi
        # (4.77 at q = 1/2), so a rule that takes each step to the nearest
        # whole turn (reference_monodromy's) misses turns and returns 0 or
        # -2d on most of these cells without an error
        for u_tilde0 in (-math.pi, 0.3, 2.0, -2.0, 2.5, 3.1):
            assert monodromy_track(q, 8, k, u_tilde0) == moduli_summary(Fraction(1), q).monodromy

    @pytest.mark.parametrize("samples", [8, 1024])
    @pytest.mark.parametrize("q, u_tilde0", [
        (Fraction(-3, 2), 0.3), (Fraction(-3, 2), 2.0), (Fraction(-2), 2.0),
        (Fraction(-11, 7), 0.3)])
    def test_a_loop_at_k_1e_5_gives_minus_d_at_any_sample_count(self, q, u_tilde0, samples,
                                                                monkeypatch):
        # solving every sample between the ends raised LevelSolveError on
        # these loops at 1 024 samples, and solving the end from the
        # rescaled round trip of u~0 raised it at any count: with its start
        # solved at u~0 and its end the deck image, no sample count changes
        # a loop
        turns = tracked_monodromy(monkeypatch, q, samples, 1e-5, u_tilde0)
        assert turns == moduli_summary(Fraction(1), q).monodromy

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(q=st.integers(1, 13).flatmap(
               lambda d: st.integers(-3 * d, 3 * d).map(lambda n: Fraction(n, d))),
           log_k=st.floats(math.log(1e-4), math.log(0.99)), k_contractible=st.floats(0.06, 0.94),
           u_tilde0=st.floats(-math.pi, math.pi), samples=st.integers(8, 128))
    def test_a_loop_gives_moduli_summary_or_raises(self, q, log_k, k_contractible, u_tilde0,
                                                   samples):
        # k is drawn log-uniformly, so the small k where a level is hardest
        # to solve is as likely as the middle
        try:
            turns = monodromy_track(q, samples, math.exp(log_k), u_tilde0)
        except LevelSolveError:
            turns = None
        assert turns in (None, moduli_summary(Fraction(1), q).monodromy)
        assert monodromy_track(q, samples, k_contractible, u_tilde0, contractible=True) == 0

    def test_the_small_k_probe_at_k_1e_5_gives_minus_d_on_every_loop(self):
        # solving the end a second time raised LevelSolveError on 30 of these
        outcomes = small_k_probe(1e-5)
        assert len(outcomes) == 267
        assert all(got == moduli_summary(Fraction(1), q).monodromy for q, _, got in outcomes)

    def test_the_small_k_probe_at_k_1e_6_fails_only_to_solve_a_start_at_minus_pi(self):
        # the 29 failures are roots that no float represents at a held angle
        # at an odd multiple of pi; every other loop gives -d
        outcomes = small_k_probe(1e-6)
        failed = [(q, u_tilde0) for q, u_tilde0, got in outcomes if got is LevelSolveError]
        assert len(failed) == 29 and {u_tilde0 for _, u_tilde0 in failed} == {-math.pi}
        assert all(got == moduli_summary(Fraction(1), q).monodromy
                   for q, _, got in outcomes if got is not LevelSolveError)

    def test_the_property_s_shrunk_counterexample(self):
        # test_a_loop_gives_moduli_summary_or_raises shrank the nearest-turn
        # rule's failures to this loop, where that rule returns 0
        assert monodromy_track(Fraction(0), 8, math.exp(-5.0), -1.0) == -1

    @pytest.mark.parametrize("k", [1e-3, 0.3, 0.9])
    @pytest.mark.parametrize("q", [Fraction(0), Fraction(1, 2), Fraction(-5, 3)])
    def test_the_lift_is_continuous_where_the_principal_value_jumps(self, q, k):
        # across a float odd multiple of pi of the held angle u~, the turn m
        # of u~ steps by 1 and the principal gamma+ value P by -4 pi, while
        # the lift L = P + 4 pi m moves by O(delta): about 2.4 delta / k
        def lifted(u_tilde):
            v_tilde = solve_level(1.0, float(q), k, u_tilde).v_tilde
            P = differentials._gamma_plus(1.0, k, *_complete_KE(k), _chart_value(u_tilde),
                                          _chart_value(v_tilde))
            m = _half_angle(u_tilde)[0]
            return P, m, P + 4.0 * math.pi * m

        for j, delta in itertools.product((-1, 0, 1), 10.0 ** -np.arange(3, 10)):
            (P0, m0, L0), (P1, m1, L1) = (lifted((2 * j + 1) * math.pi + s * delta)
                                          for s in (-1, 1))
            assert m1 - m0 == 1
            assert abs(P1 - P0 + 4.0 * math.pi) <= 5.0 * delta / k
            assert abs(L1 - L0) <= 5.0 * delta / k

    @pytest.mark.parametrize("contractible, samples", itertools.product(
        (False, True), (64, 96, 128)))
    def test_benchmark_loops_make_one_solve(self, contractible, samples, bench_inputs):
        # the benchmark checks each loop by sampling one of the solve_level
        # calls that it makes with (p, q, k, angle) as positional arguments:
        # every loop makes one, at its start (check_loop_solves).
        # Over two loops of each kind and length at seeds 1, 2 and 3, each
        # returns the cold frame loop's integer
        loops = [(job, calls) for job, calls in recorded_bench_loops(bench_inputs)
                 if (job["contractible"], job["samples"]) == (contractible, samples)]
        assert len(loops) >= 6
        for job, calls in loops:
            check_loop_solves(calls, Fraction(job["q"]), job["k"], job["u_tilde0"], contractible)
        for seed in (1, 2, 3):
            jobs = [job for job in loop_jobs(bench_inputs, seed)
                    if (job["contractible"], job["samples"]) == (contractible, samples)]
            assert len(jobs) >= 2
            for job in jobs[:2]:
                args = Fraction(job["q"]), samples, job["k"], job["u_tilde0"], contractible
                assert monodromy_track(*args) == reference_monodromy(*args)

    @pytest.mark.parametrize("contractible", [False, True])
    def test_loop_samples_change_neither_the_work_nor_the_result(self, contractible,
                                                                 monkeypatch):
        # the loop solves its start and takes its end whatever its sample
        # count: 8 and 1 024 samples make the same calls on the same floats
        # and return the same integer
        def recorded_calls(samples):
            calls = record_solves(monkeypatch)
            turns = monodromy_track(Fraction(1, 2), samples, 0.5, 0.3, contractible)
            monkeypatch.undo()
            return turns, [(name, mp.u_tilde.hex(), mp.v_tilde.hex()) for name, _, _, mp in calls]
        few, many = recorded_calls(8), recorded_calls(1024)
        assert few == many and few[0] == (0 if contractible else -2)

    def test_an_annulus_loop_ends_on_the_deck_image_of_its_start(self, bench_inputs):
        # one annulus loop is one orbit of the deck generator, +pi on both
        # rescaled angles, which leaves T~ fixed at p = 1: on the benchmark's
        # annulus loops the end is deck_lambda_tilde of the start
        # (check_loop_solves), and it lies on the start's level to 1e-9
        annuli = [(job, calls) for job, calls in recorded_bench_loops(bench_inputs)
                  if not job["contractible"]]
        assert len(annuli) == 468
        for job, calls in annuli:
            q = Fraction(job["q"])
            _, end = check_loop_solves(calls, q, job["k"], job["u_tilde0"])
            assert abs(t_tilde_raw(1.0, end.k, end.u_tilde, end.v_tilde) - float(q)) <= 1e-9

    @pytest.mark.parametrize("k, u_tilde0, contractible, samples, message", [
        (0.0, 0.3, False, 16, "k=0.0 outside"), (-0.1, 0.3, False, 16, "k=-0.1 outside"),
        (1.0, 0.3, False, 16, "k=1.0 outside"), (math.nan, 0.3, False, 16, "k=nan outside"),
        (0.03, 0.3, True, 16, "k=0.03 outside"), (0.97, 0.3, True, 16, "k=0.97 outside"),
        (0.05, 0.3, True, 16, "k=0.05 outside"),
        # math.tan(inf) raised "math domain error"; nan failed in the first solve
        (0.5, math.inf, False, 16, "u_tilde0 must be finite, got inf"),
        (0.5, math.nan, False, 16, "u_tilde0 must be finite, got nan"),
        (0.5, -math.inf, True, 16, "u_tilde0 must be finite, got -inf"),
        (0.5, math.nan, True, 16, "u_tilde0 must be finite, got nan"),
        # range() raised TypeError on the floats, and '<' on the string
        (0.5, 0.3, False, 96.0, "loop_samples must be an integer, got 96.0"),
        (0.5, 0.3, True, 9.5, "loop_samples must be an integer, got 9.5"),
        (0.5, 0.3, False, "96", "loop_samples must be an integer, got '96'"),
        (0.5, 0.3, False, 7, "loop_samples must be at least 8"),
        (0.5, 0.3, False, np.int64(7), "loop_samples must be at least 8")])
    def test_out_of_range_input_rejected(self, k, u_tilde0, contractible, samples, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            monodromy_track(Fraction(1, 2), loop_samples=samples, k=k, u_tilde0=u_tilde0,
                            contractible=contractible)

    @pytest.mark.parametrize("contractible", [False, True])
    @pytest.mark.parametrize("u_tilde0", [1e12, 2e16, 1e17])
    def test_a_start_angle_near_the_float_limit_fails_to_solve(self, u_tilde0, contractible):
        # where a held angle's band holds one float or none, the loop fails
        # with LevelSolveError, not ZeroDivisionError (2e16, 1e17)
        with pytest.raises(LevelSolveError, match="no convergence for q=0.5: residual "):
            monodromy_track(Fraction(1, 2), 64, 0.5, u_tilde0, contractible)

    @pytest.mark.parametrize("samples", [np.int64(16), np.int32(16), np.uint8(16)])
    def test_numpy_integer_loop_samples(self, samples):
        assert monodromy_track(Fraction(1, 2), samples) == monodromy_track(Fraction(1, 2), 16)

    @pytest.mark.parametrize("k, u_tilde0, contractible", [
        (0.2, -1.0, False), (0.85, 2.0, False), (0.3, 1.0, True), (0.75, -2.5, True)])
    @pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(-3, 5), Fraction(2, 7), Fraction(0)])
    def test_the_deck_image_end_gives_the_cold_loop_off_the_benchmark(
            self, q, k, u_tilde0, contractible, monkeypatch):
        # the loop's end is the deck image of its start: on loops away from
        # the benchmark's k and start angles the start still solves its
        # level to solver_tol (check_loop_solves), and the loop returns the
        # integer of cold solves and the frame route at every sample
        turns = tracked_monodromy(monkeypatch, q, 32, k, u_tilde0, contractible)
        monkeypatch.undo()
        assert turns == reference_monodromy(q, 32, k, u_tilde0, contractible)

    @pytest.mark.parametrize("contractible", [False, True])
    def test_loop_gamma_plus_is_the_closed_form_at_its_chart_values(
            self, contractible, monkeypatch, bench_inputs):
        # the loop's gamma+ is one float pass per end, from the held angle's
        # (s, c) of _half_angle and its _chart_terms, where _gamma_plus alone
        # takes _axis_angle's: on every benchmark loop of seeds 1-3 each
        # value is, bit for bit, the two-end array form's (two_end_array_form)
        seen = []

        def recorded(*args):
            seen.append((args, gamma_plus(*args)))
            return seen[-1][1]
        gamma_plus = differentials._gamma_plus
        monkeypatch.setattr(differentials, "_gamma_plus", recorded)
        loops = []
        for job, calls in recorded_bench_loops(bench_inputs):
            if job["contractible"] == contractible:
                seen.clear()
                monodromy_track(Fraction(job["q"]), job["samples"], job["k"],
                                job["u_tilde0"], contractible)
                loops.append((job["k"], calls, list(seen)))
        monkeypatch.undo()
        assert len(loops) == (156 if contractible else 468)
        for k, calls, seen in loops:
            assert len(seen) == 2 - contractible
            ends = [point for _, _, _, point in calls]
            values, _ = two_end_array_form(k, ends[0], ends[-1])
            for (args, value), want in zip(seen, values):
                assert all(type(x) is float for x in (*args[:6], *args[6])), args
                assert value.hex() == want.hex()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(q=st.integers(1, 13).flatmap(
               lambda d: st.integers(-3 * d, 3 * d).map(lambda n: Fraction(n, d))),
           log_k=st.floats(math.log(1e-6), math.log(1.0 - 1e-6)),
           u_tilde0=st.one_of(st.sampled_from([j * math.pi for j in (-3, -1, 1, 3)]),
                              st.floats(-3.0 * math.pi, 3.0 * math.pi)))
    def test_the_float_pass_gives_the_two_end_array_form_s_integer(self, q, log_k, u_tilde0):
        # wherever the start solves, the loop's integer, or its
        # ContinuationError, is the two-end array form's at the same ends
        k = math.exp(log_k)
        with pytest.MonkeyPatch.context() as patch:
            calls = record_solves(patch)
            try:
                got = monodromy_track(q, 8, k, u_tilde0)
            except LevelSolveError:
                return
            except ContinuationError:
                got = ContinuationError
        (_, _, _, start), (_, _, _, end) = calls
        (P0, P1), (m0, m1) = two_end_array_form(k, start, end)
        delta = float(P1 - P0) + 4.0 * math.pi * (m1 - m0)
        turns = round(delta / (2 * math.pi))
        if abs(delta - 2 * math.pi * turns) > 1e-6 * max(1.0, abs(delta)) + 1e-6:
            assert got is ContinuationError
        else:
            assert got == -q.denominator * turns


def two_end_array_form(k, start, end):
    """The gamma+ values and turns of a loop's two ends as one two-element
    array pass: _level_part on both held angles stacked, then _gamma_plus
    on its terms, as monodromy_track evaluated them before its float pass."""
    u, v = np.array([(mp.u_tilde, mp.v_tilde) for mp in (start, end)]).T
    K, E = _complete_KE(k)
    terms = moduli._level_part(k, K, E, u)
    P = differentials._gamma_plus(1.0, k, K, E, terms[1], _chart_value(v), terms[2:])
    return P.tolist(), [_half_angle(x)[0] for x in u.tolist()]


def frame_gamma_plus(mp):
    """The gamma+ value through the branch pair and its Jacobi frame."""
    return _theta_P_gamma_value(1, build_frame(inverse_coords(mp))).imag


def chart_gamma_plus(mp):
    """The loop's gamma+ value at one moduli point: _gamma_plus at the
    point's floats and chart values.  At a float odd multiple of pi it takes
    the side the float lies on (the right of -pi and -3 pi, 4 pi off the
    left); monodromy_track absorbs that."""
    chart = differentials._chart_value
    return differentials._gamma_plus(mp.p, mp.k, *_complete_KE(mp.k),
                                     chart(mp.u_tilde), chart(mp.v_tilde))


def loop_point(t, k, u_tilde0=0.3, contractible=False):
    """(k, u~) of the loop at parameter t in [0, 1].  monodromy_track solves
    a loop at u~0 itself, and takes an annulus loop's end, at t = 1, from
    the deck map; a contractible loop's ends coincide."""
    if contractible:
        return (k + 0.05 * float(np.sin(2 * math.pi * t)),
                u_tilde0 + 0.2 * (float(np.cos(2 * math.pi * t)) - 1.0))
    rk = math.sqrt(k)
    return k, angle_rescale(angle_rescale(u_tilde0, rk) + math.pi * t, 1.0 / rk)


def small_k_probe(k):
    """(q, u~0, integer, or LevelSolveError where the loop raised it) of the
    267 annulus loops at k of the small-k probe: q = n/d with d in
    {1, 2, 3, 7, 13} and every n coprime to d with |n| <= 2d, u~0 in
    {-pi, 0.3, 2}, and 8 samples."""
    outcomes = []
    for d in (1, 2, 3, 7, 13):
        for q in (Fraction(n, d) for n in range(-2 * d, 2 * d + 1) if math.gcd(n, d) == 1):
            for u_tilde0 in (-math.pi, 0.3, 2.0):
                try:
                    got = monodromy_track(q, 8, k, u_tilde0)
                except LevelSolveError:
                    got = LevelSolveError
                outcomes.append((q, u_tilde0, got))
    return outcomes


def loop_jobs(inputs, seed):
    """The loops of the benchmark's annulus_loop workload at a seed, from its
    input generators ``inputs`` (the bench_inputs fixture)."""
    return inputs.loop_jobs(random.Random(f"annulus_loop:{seed}"), 20)


@cache
def recorded_bench_loops(inputs):
    """(job, calls) of record_solves for every loop of the benchmark's
    annulus_loop workload at seeds 1, 2 and 3, recorded once per session."""
    loops = []
    with pytest.MonkeyPatch.context() as patch:
        for seed in (1, 2, 3):
            for job in loop_jobs(inputs, seed):
                calls = record_solves(patch)
                monodromy_track(Fraction(job["q"]), job["samples"], job["k"],
                                job["u_tilde0"], job["contractible"])
                patch.undo()
                loops.append((job, calls))
    return loops


def reference_monodromy(q, loop_samples, k, u_tilde0=0.3, contractible=False):
    """The loop's integer from cold solves and the frame route at every
    sample, by the nearest-turn rule: each step's principal gamma+ change
    taken to the nearest whole turn, and a step whose change exceeds 2
    bisected down to 1e-4.  The rule cannot see a step that changes by more
    than pi, so it aliases at small k (it returns 0 at k = 1e-3 with 8
    samples, q = 1/2); it is kept only as an independent route on loops with
    k in [0.05, 0.95] and 32 or more samples."""
    l, qf = Fraction(q).denominator, float(q)

    def principal(t):
        return frame_gamma_plus(solve_level(1.0, qf, *loop_point(t, k, u_tilde0, contractible)))

    ts = [j / loop_samples for j in range(loop_samples + 1)]
    cont, prev_t, idx = [principal(0.0)], 0.0, 1
    while idx < len(ts):
        value = principal(ts[idx])
        value += 2 * math.pi * round((cont[-1] - value) / (2 * math.pi))
        if abs(value - cont[-1]) > 2.0 and ts[idx] - prev_t > 1e-4:
            ts.insert(idx, 0.5 * (prev_t + ts[idx]))
            continue
        cont.append(value)
        prev_t, idx = ts[idx], idx + 1
    return -l * round((cont[-1] - cont[0]) / (2 * math.pi))


class TestChartRoute:
    """The loop's gamma+ value read off the chart, against the frame route."""

    def test_matches_the_frame_route(self):
        # near the diagonal u = v or an odd multiple of pi the round trip
        # through the branch pair loses digits (3.5e-4 at v~ - u~ = 1.8e-3),
        # so the points keep away from both
        rng = np.random.default_rng(31)
        worst, n = 0.0, 0
        while n < 1000:
            ut = float(rng.uniform(-math.pi + 0.05, math.pi - 0.05))
            vt = ut + float(rng.uniform(0.5, 2 * math.pi - 0.5))
            if abs(vt - math.pi) < 0.05:
                continue
            mp = ModuliPoint(1.0, float(rng.uniform(0.05, 0.95)), ut, vt)
            worst = max(worst, abs(chart_gamma_plus(mp) - frame_gamma_plus(mp)))
            n += 1
        assert worst < 1e-11

    def test_matches_the_frame_route_with_u_on_the_chart_boundary(self):
        # u~ exactly on a float odd multiple of pi, where nu lies within
        # rounding of zeta = 1: the two routes may take opposite sides of the
        # boundary, so they agree up to whole multiples of 2 pi
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(3000):
            ut = float(rng.choice([-3 * math.pi, -math.pi, math.pi, 3 * math.pi]))
            vt = ut + float(rng.uniform(0.05, 2 * math.pi - 0.05))
            p, k = float(rng.choice([0.5, 1.0, 2.0])), float(rng.uniform(0.05, 0.95))
            mp = ModuliPoint(p, k, ut, vt)
            gap = chart_gamma_plus(mp) - frame_gamma_plus(mp)
            worst = max(worst, abs(gap - 2 * math.pi * round(gap / (2 * math.pi))))
        assert worst < 1e-10

    @pytest.mark.parametrize("u_tilde, v_tilde", [(math.pi, math.pi + 1.0), (0.3, math.pi),
                                                  (-math.pi, 2.0), (math.pi - 4.0, math.pi)])
    def test_finite_at_infinite_chart_values(self, u_tilde, v_tilde):
        for k in (0.1, 0.5, 0.9):
            value = chart_gamma_plus(ModuliPoint(1.0, k, u_tilde, v_tilde))
            assert math.isfinite(value)
            below = chart_gamma_plus(ModuliPoint(1.0, k, u_tilde, v_tilde - 1e-9))
            assert abs(value - below) < 1e-6

    def test_continuous_from_the_left_where_the_frame_breaks(self):
        # u~ is the float 3 pi (chart value tan(u~/2) = 5.4e15): the round
        # trip gives nu = 0.9999999999999999, frame.u = -0.5 and -0.752 rather
        # than the left limit 5.836
        mp = ModuliPoint(1.0, 0.45491254410216786, 9.42477796076938, 12.273052843795298)
        value = chart_gamma_plus(mp)
        for step in (1e-9, 1e-12):
            left = ModuliPoint(1.0, mp.k, mp.u_tilde - step, mp.v_tilde)
            assert abs(value - chart_gamma_plus(left)) < 1e-6
            assert abs(value - frame_gamma_plus(left)) < 1e-6

    def test_off_the_chart_raises_as_inverse_coords(self, monkeypatch):
        # a ModuliPoint keeps u~ < v~ < u~ + 2 pi, so u = v needs a stand-in
        # chart, which like the real one takes floats or arrays
        mp = ModuliPoint(1.0, 0.5, 0.3, 2.0)
        for module in (curves, differentials):
            monkeypatch.setattr(module, "_chart_value", lambda x: np.full(np.shape(x), 0.7))
        for route in (inverse_coords, chart_gamma_plus):
            with pytest.raises(ValueError, match="u = v is outside the coordinate chart"):
                route(mp)

    @pytest.mark.parametrize("x0, y0", [(0.0, 0.3), (-1.0, 0.3), (math.inf, 0.3),
                                        (math.nan, 0.3), (1.0, math.nan), (1.0, -math.inf)])
    def test_z0_must_be_finite_in_the_right_half_plane(self, x0, y0, monkeypatch):
        monkeypatch.setattr(differentials, "_center", lambda *args: (x0, y0))
        with pytest.raises(ValueError, match="Re z0 > 0"):
            chart_gamma_plus(ModuliPoint(1.0, 0.5, 0.3, 2.0))

    def test_array_pass_is_the_one_point_value_bit_for_bit(self):
        # the loop's one gamma+ pass over its samples, at ratios other than 1
        # too and with held angles on float odd multiples of pi
        rng = np.random.default_rng(37)
        n = 400
        ps, ks = rng.choice([0.5, 1.0, 2.0], n), rng.uniform(0.05, 0.95, n)
        u_tilde = np.where(rng.random(n) < 0.2, rng.choice([-math.pi, math.pi, 3 * math.pi], n),
                           rng.uniform(-3 * math.pi, 3 * math.pi, n))
        v_tilde = u_tilde + rng.uniform(0.05, 2 * math.pi - 0.05, n)
        values = differentials._gamma_plus(ps, ks, *_complete_KE(ks),
                                           _chart_value(u_tilde), _chart_value(v_tilde))
        one = [chart_gamma_plus(ModuliPoint(*point))
               for point in zip(ps.tolist(), ks.tolist(), u_tilde.tolist(), v_tilde.tolist())]
        assert [x.hex() for x in values.tolist()] == [x.hex() for x in one]

    def test_array_pass_checks_every_point(self, monkeypatch):
        K, E = _complete_KE(np.full(3, 0.5))
        u = np.array([0.3, 1.0, -0.5])
        with pytest.raises(ValueError, match="u = v is outside the coordinate chart"):
            differentials._gamma_plus(1.0, 0.5, K, E, u, np.array([2.0, 1.0, 0.4]))
        centers = np.array([1.0, 0.0, math.nan]), np.array([0.3, 0.3, 0.3])
        monkeypatch.setattr(differentials, "_center", lambda *args: centers)
        with pytest.raises(ValueError, match=re.escape("z0 = 0.3j is not finite with Re z0 > 0")):
            differentials._gamma_plus(1.0, 0.5, K, E, u, np.array([2.0, 2.5, 0.4]))

    def test_float_pass_checks_u_against_v(self):
        K, E = _complete_KE(0.5)
        with pytest.raises(ValueError, match="u = v is outside the coordinate chart"):
            differentials._gamma_plus(1.0, 0.5, K, E, 0.7, 0.7)

    @pytest.mark.parametrize("x0, y0", [(0.0, 0.3), (-1.0, 0.3), (math.inf, 0.3),
                                        (math.nan, 0.3), (1.0, math.nan), (1.0, -math.inf)])
    def test_float_pass_rejects_z0_with_the_array_pass_s_message(self, x0, y0, monkeypatch):
        K, E = _complete_KE(0.5)
        message = re.escape(f"z0 = {complex(x0, y0)!r} is not finite with Re z0 > 0")
        monkeypatch.setattr(differentials, "_center", lambda *args: (x0, y0))
        with pytest.raises(ValueError, match=message):
            differentials._gamma_plus(1.0, 0.5, K, E, 0.3, 2.0)
        centers = np.array([1.0, x0]), np.array([0.3, y0])
        monkeypatch.setattr(differentials, "_center", lambda *args: centers)
        with pytest.raises(ValueError, match=message):
            differentials._gamma_plus(1.0, 0.5, K, E, np.array([0.3, 0.4]), np.array([2.0, 2.5]))

    def test_float32_modulus_evaluates_in_double(self):
        value = chart_gamma_plus(ModuliPoint(1.0, np.float32(0.25), 0.3, 2.0))
        assert type(value) is float and value == -4.625921940083428

    @pytest.mark.parametrize("q, k, u_tilde0, contractible", [
        (Fraction(0), 0.5, 0.3, False), (Fraction(1, 2), 0.1, 0.3, False),
        (Fraction(-3, 5), 0.9, -2.0, False), (Fraction(2, 7), 0.3, 2.5, False),
        (Fraction(1, 2), 0.1, 0.3, True), (Fraction(1, 3), 0.9, -1.0, True)])
    def test_loop_matches_the_cold_frame_loop(self, q, k, u_tilde0, contractible):
        assert monodromy_track(q, 48, k, u_tilde0, contractible) == reference_monodromy(
            q, 48, k, u_tilde0, contractible)


class TestChecklist:
    def test_spectral_curve_passes(self):
        S, T = Fraction(1, 3), Fraction(1, 4)
        mp = solve_level(float(S), float(T), 0.5, 0.3)
        fr = build_frame(inverse_coords(mp))
        cd = construct_psi(S, T, fr)
        entries = hitchin_checklist(fr, cd)
        assert len(entries) == 9
        for e in entries:
            assert e.residual < 1e-7, (e.item, e.residual, e.detail)

    def test_generic_curve_fails_closing_only(self):
        fr = random_frame()
        entries = {e.item: e for e in hitchin_checklist(fr)}
        assert entries["P8 closing integrals"].residual > 1e-3
        for name, e in entries.items():
            if name != "P8 closing integrals":
                assert e.residual < 1e-7, (name, e.residual)

    @pytest.mark.parametrize("beta", [0.9, 0.4j])
    def test_pole_on_branch_point_raises(self, beta):
        # alpha = 0 is a branch point under the pole z0 = f(0) = f(alpha) = 1
        fr = build_frame(BranchPair(0.0, beta))
        assert fr.z0 == 1.0
        with pytest.raises(PoleError, match="sits on a branch point"):
            hitchin_checklist(fr)
        with pytest.raises(PoleError):
            laurent_coefficients("theta_P", fr.z0, fr)

    @pytest.mark.parametrize("alpha, beta, z0", [
        (0.005444539706311043 + 0.09069569672266486j,
         -0.005444539706310932 - 0.09069569672266456j, 1.19988),
        (0.006214353151227617 + 0.0945302683069286j,
         -0.0062143531512277375 - 0.09453026830692907j, 1.20930),
    ])
    def test_loop_A_edge_dodges_the_poles(self, alpha, beta, z0):
        # symmetric-annulus curves whose pole z0 lies 1.2e-4 and 9e-3 from
        # loop A's default edge x = 1.2; on the first the quadrature of that
        # edge does not settle in 13 levels.  The edge moves off the poles
        # and every entry holds
        bp = BranchPair(alpha, beta)
        fr = build_frame(bp)
        S, T = spectral_test(bp)
        for e in hitchin_checklist(fr, construct_psi(S, T, fr)):
            assert e.residual < 1e-7, (e.item, e.residual, e.detail)
        assert abs(fr.z0 - z0) < 1e-5
        assert min(abs(z.real - z0) for z in loop_A(fr).points) > 0.1

    def test_loop_failure_is_reported_by_the_checklist(self, monkeypatch):
        # a segment of loop A that does not settle in 13 levels fails the
        # checklist with its own message, after the closing paths settled.
        # No curve of the domain is known to do so any longer (the pair of
        # TestGradedPanels::test_pair_near_k_one_completes did), so the sweep
        # here drops the panels of loop A's segments, which stay open
        fr = spectral_frame(Fraction(1, 3), Fraction(1, 4))
        corners = loop_A(fr).points
        inner = differentials._sweep

        def stuck(geom, integrand, segs):
            others = ~np.isin(segs.z1[segs.seg], corners)
            segs.ta, segs.tb, segs.seg = segs.ta[others], segs.tb[others], segs.seg[others]
            if others.any():
                inner(geom, integrand, segs)
        cd = construct_psi(Fraction(1, 3), Fraction(1, 4), fr)
        monkeypatch.setattr(differentials, "_sweep", stuck)
        message = f"no quadrature convergence on [{corners[0]!r}, {corners[1]!r}]"
        for closing in (cd, None):
            with pytest.raises(ContinuationError, match=re.escape(message)):
                hitchin_checklist(fr, closing)

    def test_pair_laurent_equals_each_differential_alone(self):
        # P3 and P9 sample one circle with one sheet track per pole for both
        # differentials of the pair
        S, T = Fraction(1, 3), Fraction(1, 4)
        fr = spectral_frame(S, T)
        cd = construct_psi(S, T, fr)
        geom = _Geometry(fr)
        thE, thP = reference_coefficients(geom)
        cases = [(None, (thE, thP)),
                 (cd, (lambda z, w: cd.a * thE(z, w),
                       lambda z, w: cd.b * thE(z, w) + cd.l * thP(z, w)))]
        for closing, coeffs in cases:
            for center in geom.poles:
                pair = geom.pair(closing)
                both = laurent_coefficients("", center, fr, (-2, -1), coeff=pair)
                for j, coeff in enumerate(coeffs):
                    one = laurent_coefficients("", center, fr, (-2, -1), coeff=coeff)
                    for order in (-2, -1):
                        assert bits(complex(both[order][j])) == bits(complex(one[order]))

    def test_symmetry_samples_match_scalar_evaluation(self):
        # P4 and P5 take one array call per variant for the pair; numpy and
        # CPython complex division may round differently, by at most 1e-14
        S, T = Fraction(1, 3), Fraction(1, 4)
        cases = [(random_frame(), None) for _ in range(4)]
        fr = spectral_frame(S, T)
        cases.append((fr, construct_psi(S, T, fr)))
        for fr, closing in cases:
            geom = _Geometry(fr)
            thE, thP = reference_coefficients(geom)
            coeffs = (thE, thP) if closing is None else (
                lambda z, w: closing.a * thE(z, w),
                lambda z, w: closing.b * thE(z, w) + closing.l * thP(z, w))
            rng = np.random.default_rng(7)
            rng.uniform(0, 2 * math.pi, 16), rng.uniform(0.4, 2.0, 16)  # the P1 samples
            test_z = [complex(x, y) for x, y in rng.uniform(-1.5, 1.5, (12, 2))]
            test_z = [z for z in test_z if min(abs(z - c) for c in
                                               geom.branch_points + geom.poles) > 0.15]
            sig = rho = 0.0
            for coeff in coeffs:
                for z in test_z:
                    w = cmath.sqrt(geom.Q(z))
                    scale = max(1.0, abs(coeff(z, w)))
                    sig = max(sig, abs(coeff(z, -w) + coeff(z, w)) / scale)
                    rho = max(rho, abs(coeff(-z.conjugate(), w.conjugate())
                                       - coeff(z, w).conjugate()) / scale)
            entries = {e.item: e.residual for e in hitchin_checklist(fr, closing)}
            assert abs(entries["P4 involution odd"] - sig) <= 1e-14
            assert abs(entries["P5 reality"] - rho) <= 1e-14

    def test_pole_orders(self):
        fr = random_frame()
        for kind in ("theta_E", "theta_P"):
            for center in (fr.z0, -fr.z0.conjugate()):
                cs = laurent_coefficients(kind, center, fr, orders=(-2, -1))
                assert abs(cs[-2]) > 1e-8
                assert abs(cs[-1]) / abs(cs[-2]) < 1e-8


def recorded_pass(frame, closing=None):
    """The checklist's entries, with the paths and results of each _integrate call."""
    passes, inner = [], differentials._integrate

    def recorded(*args):
        passes.append((args[3:], inner(*args)))
        return passes[-1][1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(differentials, "_integrate", recorded)
        return hitchin_checklist(frame, closing), passes


class TestDomainEdges:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(radius=st.floats(0.0, 0.97), phase=st.floats(-math.pi, math.pi),
           k=st.floats(0.02, 0.98), turn=st.floats(-math.pi, math.pi))
    def test_checklist_holds_across_the_disc(self, radius, phase, k, turn):
        # beta at pseudo-hyperbolic distance (1 - k)/(1 + k) from alpha has
        # Jacobi modulus k.  A double pole too near a branch point to resolve
        # is refused; otherwise every entry but the closing one holds to
        # 1e-10, and the one pass gives the closed-form gamma integrals
        alpha = cmath.rect(radius, phase)
        w = cmath.rect((1.0 - k) / (1.0 + k), turn)
        beta = (w + alpha) / (1.0 + alpha.conjugate() * w)
        assume(abs(beta) <= 0.97)
        fr = build_frame(BranchPair(alpha, beta))
        try:
            entries, passes = recorded_pass(fr)
        except PoleError:
            geom = _Geometry(fr)
            assert min(abs(p - c) for p in geom.poles for c in geom.branch_points) < 1e-5 * max(
                1.0, abs(fr.z0))
            return
        for e in entries:
            if e.item != "P8 closing integrals":
                assert e.residual <= 1e-10, (alpha, beta, e)
        [(paths, results)] = passes
        for s in (1, -1):
            try:
                path = gamma0_path(s, fr)
            except PathError:
                continue
            if path in paths:
                (quad_E, quad_P), _ = results[paths.index(path)]
                assert abs(quad_E - theta_E_gamma(s, fr.pair)) < 1e-8
                assert abs(quad_P - theta_P_gamma_closed(s, fr)) < 1e-8

    def test_pole_too_near_a_branch_point_is_refused(self):
        # alpha = 0 puts the pole over zeta = 0 on the branch point 1; with
        # this beta it lands 6.9e-17 off it, where the Laurent circle rounded
        # onto the pole and P9 read 1 from a nan.  At alpha = 1e-8 the circle
        # resolves the residue to about 1e-9 only, and is refused too
        beta = 0.32297080723688154 + 0.08246798641817431j
        for alpha in (0j, 1e-8):
            with pytest.raises(PoleError, match="sits on a branch point"):
                hitchin_checklist(build_frame(BranchPair(alpha, beta)))
        entries = {e.item: e for e in hitchin_checklist(build_frame(BranchPair(1e-4, beta)))}
        assert entries["P3 double poles, no residues"].residual <= 1e-10

    def test_closing_endpoint_far_along_the_axis(self):
        # a pair real to 1e-198 has nu = 1 + 1.3e-198i, so f(1) = -5.1e197 i;
        # the frame's chart angle there is -pi and its chart value finite
        alpha = 0.5 + 9.748103524112001e-199j
        beta = 0.7142857142857142 + 1.0344926188853551e-198j
        fr = build_frame(BranchPair(alpha, beta))
        assert math.isfinite(fr.u) and fr.u < -1e15
        for e in hitchin_checklist(fr):
            if e.item != "P8 closing integrals":
                assert e.residual <= 1e-10, e
        # the closed form at the largest chart value, tan(pi/2) = 1.6e16
        z0 = 0.3 + 0.2j
        KE = _complete_KE(0.5)
        for sign in (1.0, -1.0):
            edge = _gamma_imag(0.5, *KE, sign * math.tan(math.pi / 2), z0.real, z0.imag)
            assert math.isfinite(edge)
            assert abs(edge - _gamma_imag(0.5, *KE, sign * 1e15, z0.real, z0.imag)) < 1e-14


@pytest.mark.parametrize("loop_samples", [7, 0])
def test_too_few_loop_samples_rejected(loop_samples):
    with pytest.raises(ValueError, match=re.escape("loop_samples must be at least 8")):
        monodromy_track(Fraction(1, 3), loop_samples=loop_samples)


def checklist_nodes(frame, closing=None):
    """The checklist's entries and the nodes its quadrature evaluated."""
    nodes, inner = [0], differentials._sweep

    def counted(geom, integrand, segs):
        def sized(z, w):
            nodes[0] += len(z)
            return integrand(z, w)
        return inner(geom, sized, segs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(differentials, "_sweep", counted)
        return hitchin_checklist(frame, closing), nodes[0]


class TestGradedPanels:
    def test_kronrod_rule_against_mpmath(self):
        # exact through degree 49, positive weights, the Gauss rule nested at
        # the odd nodes; the excess row integrates degree 31 and below to 0
        x, w = np.polynomial.legendre.leggauss(16)
        assert np.array_equal(_RULE_X[1::2], x)
        assert np.array_equal(_RULE_W[1, ::2], _RULE_W[0, ::2])
        assert np.abs(_RULE_W[0, 1::2] - _RULE_W[1, 1::2] - w).max() <= 1e-16
        assert (_RULE_W[0] > 0.0).all() and np.array_equal(_RULE_X, -_RULE_X[::-1])
        with mp.workdps(50):
            xs = [mp.mpf(float(v)) for v in _RULE_X]
            for row, degree in ((_RULE_W[0], 49), (_RULE_W[1], 31)):
                ws = [mp.mpf(float(v)) for v in row]
                for j in range(degree + 1):
                    exact = mp.mpf(2) / (j + 1) if j % 2 == 0 and degree == 49 else 0
                    assert abs(mp.fsum(a * b ** j for a, b in zip(ws, xs)) - exact) < 1e-15

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(z1=st.complex_numbers(max_magnitude=50.0), z2=st.complex_numbers(max_magnitude=50.0),
           centers=st.lists(st.complex_numbers(max_magnitude=50.0), min_size=1, max_size=6),
           mirror=st.booleans())
    def test_each_panel_within_twice_its_distance(self, z1, z2, centers, mirror):
        # a panel is at most twice as long as its distance from every center,
        # also for a center and its mirror image across the segment (a tie),
        # up to the rounding of the panel ends: a few ulps of |z1| + |z2|
        assume(abs(z2 - z1) > 1e-3)
        if mirror:
            rel = (centers[0] - z1) / (z2 - z1)
            centers = centers + [z1 + rel.conjugate() * (z2 - z1)]
        t = layout_one(z1, z2, centers)
        assert t[0] == 0.0 and t[-1] == 1.0 and (np.diff(t) > 0.0).all()
        a, b = z1 + t[:-1] * (z2 - z1), z1 + t[1:] * (z2 - z1)
        d = np.maximum(differentials._distances(a, b, centers).min(axis=1),
                       2.0 ** -40 * abs(z2 - z1))
        assert (np.abs(b - a) <= 2.0 * d + 1e-14 * (abs(z1) + abs(z2))).all()

    def test_nodes_grow_slowly_as_k_falls(self):
        # the contours' lengths grow like 1/k, the nodes only like log(1/k)
        for S, T in ((Fraction(1, 3), Fraction(1, 4)), (Fraction(1), Fraction(1, 3))):
            counts = []
            for k in (1e-2, 1e-4):
                fr = spectral_frame(S, T, k=k)
                entries, nodes = checklist_nodes(fr, construct_psi(S, T, fr))
                assert all(e.residual < 1e-10 for e in entries)
                counts.append(nodes)
            assert counts[1] <= 4 * counts[0]

    @pytest.mark.parametrize("one_minus_k", [1e-5, 1e-7])
    @pytest.mark.parametrize("S, T, angle", [
        (Fraction(1, 3), Fraction(1, 4), 0.3),
        (Fraction(1), Fraction(1, 3), 2.0),
        (Fraction(5, 2), Fraction(-6, 5), 2.0),
    ])
    def test_checklist_completes_near_k_one(self, S, T, angle, one_minus_k):
        # loop A's vertical edges pass between the branch points 1 and 1/k,
        # 2 (1 - k) apart; uniform panels could not follow the sheet there
        fr = spectral_frame(S, T, k=1.0 - one_minus_k, angle=angle)
        for e in hitchin_checklist(fr, construct_psi(S, T, fr)):
            assert e.residual < 1e-7, (e.item, e.residual, e.detail)

    def test_pair_near_k_one_completes(self):
        # k within 3e-10 of 1, where loop A did not settle on uniform panels
        bp = BranchPair(0.5, 0.5000000001)
        fr = build_frame(bp)
        S, T = spectral_test(bp)
        for e in hitchin_checklist(fr, construct_psi(S, T, fr)):
            assert e.residual < 1e-6, (e.item, e.residual, e.detail)


def census_curves(inputs, seed):
    """The curve-info inputs of the benchmark's curve census at a seed, from
    its input generators ``inputs`` (the bench_inputs fixture)."""
    jobs, _ = inputs.curve_jobs(random.Random(f"curve_census:{seed}"), 20,
                                solve_level, inverse_coords)
    return [BranchPair(complex(*job["alpha"]), complex(*job["beta"])) for job in jobs]


def grade(y_from, y_to):
    """Geometric intermediate levels of a long vertical run toward the axis."""
    out = [y_from]
    y = y_from
    while abs(y) > 4.0 and abs(y) > 2.0 * abs(y_to) + 1.0:
        y = y / 2.0
        out.append(y)
    out.append(y_to)
    return out


def nine_candidate_choice(sign, frame):
    """(d, h) of gamma0_path by the rule that built all nine candidate paths,
    their vertical runs graded, and kept the first within a relative 1e-12
    of the largest clearance from the poles."""
    x = frame.u if sign == 1 else frame.v
    xc = 0.5 * (1.0 + 1.0 / frame.k)
    poles = (frame.z0, -frame.z0.conjugate())

    def gap(pts):
        out = math.inf
        for a, b in zip(pts[:-1], pts[1:]):
            for p in poles:
                t = min(1.0, max(0.0, ((p - a) * (b - a).conjugate()).real / abs(b - a) ** 2))
                out = min(out, abs(p - (a + t * (b - a))))
        return out
    gaps = []
    for d in (0.35, 0.5, 0.22):
        for h in (0.25, 0.4, 0.15):
            left = [complex(-d, y) for y in grade(x, -h)]
            right = [complex(d, y) for y in grade(x, h)][::-1]
            gaps.append((gap([1j * x, *left, xc - 1j * h, xc + 1j * h, *right, 1j * x]), d, h))
    largest = max(g for g, _, _ in gaps)
    return next((d, h) for g, d, h in gaps if g >= largest * (1.0 - 1e-12))


class TestCensus:
    @pytest.mark.parametrize("seed", [1, 2, 3, 21])
    def test_gamma0_path_takes_the_nine_candidate_choice(self, seed, bench_inputs):
        for bp in census_curves(bench_inputs, seed):
            fr = build_frame(bp)
            for sign in (1, -1):
                try:
                    path = gamma0_path(sign, fr)
                except PathError:
                    continue
                assert (-path.points[1].real, -path.points[2].imag) == nine_candidate_choice(
                    sign, fr)
                assert path.points[1].imag == path.points[-2].imag == (
                    fr.u if sign == 1 else fr.v)

    def test_one_sweep_per_curve(self, monkeypatch, bench_inputs):
        # each segment mostly settles on its first level, and each level of a
        # curve's four paths is one sweep: at most 1.3 sweeps per curve.  No
        # level reaches the 16 384 nodes of numpy's temporary elision, below
        # which a fused level rounds as its paths integrated alone
        sweeps, nodes, inner = [0], [], differentials._sweep

        def counted(geom, integrand, segs):
            sweeps[0] += 1
            nodes.append(level_nodes(segs))
            return inner(geom, integrand, segs)
        monkeypatch.setattr(differentials, "_sweep", counted)
        curves = census_curves(bench_inputs, 1)
        for bp in curves:
            fr = build_frame(bp)
            detected = spectral_test(bp, 50)
            hitchin_checklist(fr, None if detected is None else construct_psi(*detected, fr))
        assert sweeps[0] <= 1.3 * len(curves)
        assert max(nodes) < 16384

    def test_fixed_structure_per_curve(self, monkeypatch, bench_inputs):
        # on the census's seed-1 curves one gamma_closing_values call makes
        # one _distances table for every path choice and one _layout call,
        # which lays out each distinct segment (z1, z2) of its paths once, in
        # path order; and the checklist evaluates the pair once for P3-P5
        # besides once per quadrature level
        counts = dict.fromkeys(("gamma_closing_values", "_distances", "_layout", "_sweep"), 0)
        laid_out, passes = [], []

        def counting(name):
            inner = getattr(differentials, name)

            def counted(*args):
                counts[name] += 1
                if name == "_layout":
                    laid_out.append(list(zip(args[0].tolist(), args[1].tolist())))
                return inner(*args)
            monkeypatch.setattr(differentials, name, counted)
        for name in counts:
            counting(name)
        inner_integrate = differentials._integrate

        def recorded(geom, integrand, count, *paths):
            passes.append(paths)
            return inner_integrate(geom, integrand, count, *paths)
        monkeypatch.setattr(differentials, "_integrate", recorded)
        theta_calls, inner_theta = [0], _Geometry._theta

        def theta(self, z, w):
            theta_calls[0] += 1
            return inner_theta(self, z, w)
        monkeypatch.setattr(_Geometry, "_theta", theta)
        curves = census_curves(bench_inputs, 1)
        for bp in curves:
            fr = build_frame(bp)
            detected = spectral_test(bp, 50)
            closing = None if detected is None else construct_psi(*detected, fr)
            before = dict(counts, theta=theta_calls[0])
            hitchin_checklist(fr, closing)
            assert counts["gamma_closing_values"] - before["gamma_closing_values"] == 1
            assert counts["_distances"] - before["_distances"] == 1
            assert counts["_layout"] - before["_layout"] == 1
            assert theta_calls[0] - before["theta"] == 1 + counts["_sweep"] - before["_sweep"]
            segments = [(z1, z2) for path in passes[-1]
                        for z1, z2 in zip(path.points[:-1], path.points[1:]) if z1 != z2]
            assert laid_out[-1] == list(dict.fromkeys(segments))
        assert len(passes) == len(laid_out) == len(curves)
        # the closing paths share their three middle segments on most curves
        shared = sum(len(segs) < sum(len(path.points) - 1 for path in paths)
                     for segs, paths in zip(laid_out, passes))
        assert shared > len(curves) / 2

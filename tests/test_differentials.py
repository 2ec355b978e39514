"""Periods, closing integrals, the minimal pair and the checklist."""

import cmath
import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from harmonictori import curves, differentials, moduli
from harmonictori.curves import (
    BranchPair, ModuliPoint, angle_rescale, build_frame, inverse_coords,
)
from harmonictori.differentials import (
    _BLOCK, _GAUSS_W, _GAUSS_X, ContinuationError, PathError, PathSpec, PoleError,
    _Geometry, _Segment, _chart_gamma_plus, _integrate, _sweep, _theta_P_gamma_imag,
    _theta_P_gamma_value,
    _track_sheet, construct_psi, contour_integral,
    eta_plus, gamma0_path, gamma_closing_values, hitchin_checklist, laurent_coefficients, loop_A,
    loop_B, monodromy_track, theta_E_gamma, theta_P_characterization_check,
    theta_P_gamma_closed,
)
from harmonictori.elliptic import complementary_modulus, complete_E, complete_K
from harmonictori.config import DEFAULTS
from harmonictori.moduli import S_value, solve_level, spectral_test, t0_raw, t_tilde_raw

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
        # the first segment grazes the branch point 1 at distance 0.005; its
        # starting rule of 17 panels cannot follow the sheet there, and the
        # block sweep doubles that segment alone
        fr = self.FRAME
        geom = _Geometry(fr)
        z1, z2 = 1.005 - 2j, 1.005 + 2j
        omega = geom.coefficient("omega")
        with pytest.raises(ContinuationError):
            reference_walk_segment(geom, [omega], z1, z2, cmath.sqrt(geom.Q(z1)), 17)
        grazing = _Segment(z1, z2, 17, [None], [0])
        easy = _Segment(-1.2 + 2j, -1.2 - 2j, 17, [None], [0])
        _sweep(geom, lambda z, w: (omega(z, w),), [grazing, easy])
        assert (grazing.nsub, grazing.vals, grazing.end) == (34, [None], None)
        assert (easy.nsub, easy.vals[0] is not None) == (34, True)
        path = PathSpec(points=(z1, z2, -1.2 + 2j, -1.2 - 2j, z1), sheet=1)
        val = contour_integral("omega", path, fr)
        assert val == pytest.approx(4 * complete_K(fr.k), abs=1e-8)
        (ref,), w_ref = reference_integrate(geom, [omega], path)
        [((new,), w_new)] = _integrate(geom, lambda z, w: (omega(z, w),), 1, path)
        assert (bits(new), bits(w_new)) == (bits(ref), bits(w_ref))


def bits(z):
    return z.real.hex(), z.imag.hex()


def spectral_frame(S, T, k=0.5, angle=0.3):
    return build_frame(inverse_coords(solve_level(float(S), float(T), k, angle)))


# The quadrature as it was before the block sweep: one walk per segment and
# level, each segment tracked from the w where the previous one ended and its
# panel sums added by np.add.reduceat, as the block's one reduction adds them.
# The block sweep must give its values and final w bit for bit.

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


def reference_walk_segment(geom, coeffs, z1, z2, w_start, nsub):
    half = 0.5 * (z2 - z1) / nsub
    mids = z1 + half * (2 * np.arange(nsub) + 1)
    zs = np.append((mids[:, None] + half * _GAUSS_X).ravel(), z2)
    w = reference_track_sheet(geom, zs, w_start)
    return [complex(half * np.add.reduceat(coeff(zs[:-1], w[:-1]).reshape(nsub, len(_GAUSS_W))
                                           @ _GAUSS_W, [0])[0])
            for coeff in coeffs], complex(w[-1])


def reference_integrate(geom, coeffs, path, walk=reference_walk_segment):
    w = path.sheet * cmath.sqrt(geom.Q(path.points[0]))
    totals = [0.0 + 0.0j] * len(coeffs)
    for z1, z2 in zip(path.points[:-1], path.points[1:]):
        if z1 == z2:
            continue
        nsub = max(2, min(32, int(abs(z2 - z1) / 0.5) + 1))
        vals, open_ = [None] * len(coeffs), range(len(coeffs))
        for _ in range(13):
            try:
                new, w_end = walk(geom, [coeffs[i] for i in open_], z1, z2, w, nsub)
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


SMALL_K = spectral_frame(1, 1, k=0.05)  # its gamma- levels span several blocks


class TestFusedQuadrature:
    def test_pair_equals_lone_integrations(self, monkeypatch):
        # one pass over both gamma paths and loops A and B, one sweep per
        # block for both coefficients of the pair, gives each path's values,
        # and its final w, bit for bit as that path integrated alone and as
        # the per-segment walks of one coefficient at a time do, also when one
        # value freezes at a coarser level than the other (the gamma paths of
        # the symmetric-annulus curve at k = 0.75) and when a level spans
        # several blocks (SMALL_K)
        one_open = [0]  # segment levels that refined one value only

        def counted(geom, integrand, segs):
            one_open[0] += sum(len(seg.open_) == 1 for seg in segs)
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

    def test_one_track_per_level_on_loop_B(self, monkeypatch):
        # loop B at k = 0.5 fits in one block: its levels are the most walks
        # any of its segments took, and each level is one sheet track
        fr = spectral_frame(Fraction(1, 3), Fraction(1, 4))
        geom = _Geometry(fr)
        walks = {}

        def walk(geom, coeffs, z1, z2, *args):
            walks[z1, z2] = walks.get((z1, z2), 0) + 1
            return reference_walk_segment(geom, coeffs, z1, z2, *args)
        reference_integrate(geom, [geom.coefficient("theta_E"), geom.coefficient("theta_P")],
                            loop_B(fr), walk=walk)
        tracks = []
        track_runs = differentials._track_runs

        def counted(geom, zs, *args):
            tracks.append(len(zs))
            return track_runs(geom, zs, *args)
        monkeypatch.setattr(differentials, "_track_runs", counted)
        _integrate(geom, geom.pair(), 2, loop_B(fr))
        assert len(tracks) == max(walks.values()) > 1

    def test_no_evaluation_exceeds_the_block(self, monkeypatch):
        # an integrand call takes at most _BLOCK nodes unless its block is one
        # segment; on the k = 0.05 gamma- path some level needs several blocks
        sizes, per_level = [], []
        blocks = differentials._blocks

        def split(segs):
            out = list(blocks(segs))
            per_level.append(len(out))
            return out

        def counted(geom, integrand, segs):
            def sized(z, w):
                sizes.append((len(z), len(segs)))
                return integrand(z, w)
            return _sweep(geom, sized, segs)
        monkeypatch.setattr(differentials, "_blocks", split)
        monkeypatch.setattr(differentials, "_sweep", counted)
        for fr in (SMALL_K, spectral_frame(1, 1, k=0.75)):
            geom = _Geometry(fr)
            for path in (loop_A(fr), loop_B(fr), gamma0_path(1, fr), gamma0_path(-1, fr)):
                _integrate(geom, geom.pair(), 2, path)
        assert sizes and all(n <= _BLOCK or segs == 1 for n, segs in sizes)
        assert max(per_level) > 1


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


def tracked_monodromy(monkeypatch, q, **kwargs):
    """monodromy_track, with a check that every sample it solves (warm-started
    from the last one) solves its level to solver_tol."""
    solves = []

    def recorded(*args, **kw):
        mp = solve_level(*args, **kw)
        solves.append((args, mp))
        return mp
    monkeypatch.setattr(differentials, "solve_level", recorded)
    turns = monodromy_track(q, **kwargs)
    assert len(solves) > kwargs["loop_samples"]
    for (p, qf, k, angle), mp in solves:
        assert (p, qf, mp.k, mp.u_tilde) == (1.0, float(q), k, angle)
        assert abs(t_tilde_raw(p, k, mp.u_tilde, mp.v_tilde) - qf) < DEFAULTS.solver_tol
    return turns


class TestMonodromy:
    def test_integer_annulus(self, monkeypatch):
        assert tracked_monodromy(monkeypatch, Fraction(0), loop_samples=32) == -1

    def test_half_annulus(self, monkeypatch):
        assert tracked_monodromy(monkeypatch, Fraction(1, 2), loop_samples=32) == -2

    def test_contractible(self, monkeypatch):
        assert tracked_monodromy(monkeypatch, Fraction(1, 2), loop_samples=24,
                                 contractible=True) == 0

    @pytest.mark.parametrize("q, k, contractible", [
        (Fraction(1, 2), 0.5, False), (Fraction(0), 0.5, False),
        (Fraction(-3, 5), 0.1, False), (Fraction(1, 2), 0.05, False),
        (Fraction(1, 2), 0.5, True)])
    def test_warm_start_takes_few_evaluations(self, q, k, contractible, monkeypatch):
        # a cold solve takes 5 to 9 evaluations of T~ from the band midpoint;
        # each sample after the first starts from the offset v~ - u~
        # extrapolated through the last accepted ones, and from the fifth
        # sample on the cubic predictor leaves about one checked Newton step
        counts, evaluations = [], [0]
        t_tilde = moduli._t_tilde

        def counted(*args):
            evaluations[0] += 1
            return t_tilde(*args)

        def recorded(*args, **kw):
            evaluations[0] = 0
            mp = solve_level(*args, **kw)
            counts.append(evaluations[0])
            return mp
        monkeypatch.setattr(moduli, "_t_tilde", counted)
        monkeypatch.setattr(differentials, "solve_level", recorded)
        monodromy_track(q, loop_samples=96, k=k, contractible=contractible)
        assert len(counts) == 97
        assert 0 < max(counts[1:]) <= 5
        assert max(counts[4:]) <= 4
        assert sum(counts[4:]) / len(counts[4:]) <= 2.5

    @pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(-3, 5), Fraction(2, 7), Fraction(0)])
    @pytest.mark.parametrize("u_tilde0", [0.3, -2.0, 2.5, 3.1])
    def test_inserted_midpoints(self, q, u_tilde0, monkeypatch):
        # at k = 0.05 eight samples cross a principal-branch jump too fast, so
        # the loop bisects a step; the predictor must only ever see accepted
        # samples (a rejected t seen twice would divide by zero), and each
        # sample, inserted or not, takes one solve_level
        angles = []

        def recorded(*args, **kw):
            angles.append(args[3])
            return solve_level(*args, **kw)
        monkeypatch.setattr(differentials, "solve_level", recorded)
        turns = monodromy_track(q, 8, 0.05, u_tilde0)
        assert len(angles) > 9
        assert len(angles) == len(set(angles))
        monkeypatch.undo()
        assert turns == reference_monodromy(q, 8, 0.05, u_tilde0)

    @pytest.mark.parametrize("k, contractible", [
        (0.0, False), (-0.1, False), (1.0, False), (math.nan, False),
        (0.03, True), (0.97, True), (0.05, True)])
    def test_modulus_out_of_range_rejected(self, k, contractible):
        with pytest.raises(ValueError, match=r"k=.*outside"):
            monodromy_track(Fraction(1, 2), loop_samples=16, k=k, contractible=contractible)


def frame_gamma_plus(mp):
    """The gamma+ value through the branch pair and its Jacobi frame."""
    return _theta_P_gamma_value(1, build_frame(inverse_coords(mp))).imag


def reference_monodromy(q, loop_samples, k, u_tilde0=0.3, contractible=False):
    """monodromy_track with cold solves and the frame route at every sample."""
    l, qf, rk = Fraction(q).denominator, float(q), math.sqrt(k)

    def principal(t):
        if contractible:
            kk = k + 0.05 * math.sin(2 * math.pi * t)
            ut = u_tilde0 + 0.2 * (math.cos(2 * math.pi * t) - 1.0)
        else:
            kk, ut = k, angle_rescale(angle_rescale(u_tilde0, rk) + math.pi * t, 1.0 / rk)
        return frame_gamma_plus(solve_level(1.0, qf, kk, ut))

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
            worst = max(worst, abs(_chart_gamma_plus(mp) - frame_gamma_plus(mp)))
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
            gap = _chart_gamma_plus(mp) - frame_gamma_plus(mp)
            worst = max(worst, abs(gap - 2 * math.pi * round(gap / (2 * math.pi))))
        assert worst < 1e-10

    @pytest.mark.parametrize("u_tilde, v_tilde", [(math.pi, math.pi + 1.0), (0.3, math.pi),
                                                  (-math.pi, 2.0), (math.pi - 4.0, math.pi)])
    def test_finite_at_infinite_chart_values(self, u_tilde, v_tilde):
        for k in (0.1, 0.5, 0.9):
            value = _chart_gamma_plus(ModuliPoint(1.0, k, u_tilde, v_tilde))
            assert math.isfinite(value)
            below = _chart_gamma_plus(ModuliPoint(1.0, k, u_tilde, v_tilde - 1e-9))
            assert abs(value - below) < 1e-6

    def test_continuous_from_the_left_where_the_frame_breaks(self):
        # u~ is the float 3 pi (chart value tan(u~/2) = 5.4e15): the round
        # trip gives nu = 0.9999999999999999, frame.u = -0.5 and -0.752 rather
        # than the left limit 5.836
        mp = ModuliPoint(1.0, 0.45491254410216786, 9.42477796076938, 12.273052843795298)
        value = _chart_gamma_plus(mp)
        for step in (1e-9, 1e-12):
            left = ModuliPoint(1.0, mp.k, mp.u_tilde - step, mp.v_tilde)
            assert abs(value - _chart_gamma_plus(left)) < 1e-6
            assert abs(value - frame_gamma_plus(left)) < 1e-6

    def test_off_the_chart_raises_as_inverse_coords(self, monkeypatch):
        # a ModuliPoint keeps u~ < v~ < u~ + 2 pi, so u = v needs a stand-in
        # chart, which like the real one takes floats or arrays
        mp = ModuliPoint(1.0, 0.5, 0.3, 2.0)
        for module in (curves, differentials):
            monkeypatch.setattr(module, "_chart_value", lambda x: np.full(np.shape(x), 0.7))
        for route in (inverse_coords, _chart_gamma_plus):
            with pytest.raises(ValueError, match="u = v is outside the coordinate chart"):
                route(mp)

    @pytest.mark.parametrize("x0, y0", [(0.0, 0.3), (-1.0, 0.3), (math.inf, 0.3),
                                        (math.nan, 0.3), (1.0, math.nan), (1.0, -math.inf)])
    def test_z0_must_be_finite_in_the_right_half_plane(self, x0, y0, monkeypatch):
        monkeypatch.setattr(differentials, "_center", lambda p, k, u, v: (x0, y0))
        with pytest.raises(ValueError, match="Re z0 > 0"):
            _chart_gamma_plus(ModuliPoint(1.0, 0.5, 0.3, 2.0))

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
        assert len(entries) == 10
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

    def test_loop_failure_is_reported_by_the_checklist(self):
        # k within 3e-10 of 1: the quadrature of loop A cannot separate the
        # branch points 1 and 1/k, but the closing paths settle.  The one pass
        # keeps the loop's failure for the checklist, which reads the periods
        bp = BranchPair(0.5, 0.5000000001)
        fr = build_frame(bp)
        S, T = spectral_test(bp)
        cd = construct_psi(S, T, fr)
        assert cd.residual < 1e-6
        for closing in (cd, None):
            with pytest.raises(ContinuationError, match=r"no quadrature convergence on \["):
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
        for sign in (1.0, -1.0):
            edge = _theta_P_gamma_imag(0.5, sign * math.tan(math.pi / 2), z0)
            assert math.isfinite(edge)
            assert abs(edge - _theta_P_gamma_imag(0.5, sign * 1e15, z0)) < 1e-14


@pytest.mark.parametrize("loop_samples", [7, 0])
def test_too_few_loop_samples_rejected(loop_samples):
    with pytest.raises(ValueError, match=re.escape("loop_samples must be at least 8")):
        monodromy_track(Fraction(1, 3), loop_samples=loop_samples)

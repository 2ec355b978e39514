"""Periods, closing integrals, the minimal pair and the checklist."""

import cmath
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from harmonictori import differentials
from harmonictori.curves import BranchPair, build_frame, inverse_coords
from harmonictori.differentials import (
    ContinuationError, PathError, PathSpec, _Geometry, _integrate, _track_sheet,
    _walk_segment, construct_psi, contour_integral, eta_plus, gamma0_path,
    gamma_closing_values, hitchin_checklist, laurent_coefficients, loop_A,
    loop_B, monodromy_track, theta_E_gamma, theta_P_characterization_check,
    theta_P_gamma_closed,
)
from harmonictori.elliptic import complementary_modulus, complete_E, complete_K
from harmonictori.moduli import S_value, solve_level, spectral_test, t0_raw

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
        # starting rule of 17 panels cannot follow the sheet there
        fr = self.FRAME
        geom = _Geometry(fr)
        z1, z2 = 1.005 - 2j, 1.005 + 2j
        with pytest.raises(ContinuationError):
            _walk_segment(geom, [geom.coefficient("omega")], z1, z2,
                          cmath.sqrt(geom.Q(z1)), 17)
        path = PathSpec(points=(z1, z2, -1.2 + 2j, -1.2 - 2j, z1), sheet=1)
        val = contour_integral("omega", path, fr)
        assert val == pytest.approx(4 * complete_K(fr.k), abs=1e-8)


def bits(z):
    return z.real.hex(), z.imag.hex()


def spectral_frame(S, T, k=0.5, angle=0.3):
    return build_frame(inverse_coords(solve_level(float(S), float(T), k, angle)))


class TestFusedQuadrature:
    def test_pair_equals_lone_integrations(self, monkeypatch):
        # one pass over a path for two coefficients gives each value, and the
        # final w, bit for bit as integrating each coefficient alone does,
        # also when one value freezes at a coarser level than the other (the
        # gamma paths of the symmetric-annulus curve at k = 0.75)
        walked = []

        def counted(geom, coeffs, *args):
            walked.append(len(coeffs))
            return _walk_segment(geom, coeffs, *args)
        monkeypatch.setattr(differentials, "_walk_segment", counted)
        one_open = 0  # levels that refined one value only
        for fr in [random_frame() for _ in range(6)] + [spectral_frame(1, 1, k=0.75)]:
            geom = _Geometry(fr)
            pair = [geom.coefficient("theta_P"), geom.coefficient("theta_E")]
            for path in (loop_A(fr), loop_B(fr), gamma0_path(1, fr), gamma0_path(-1, fr)):
                walked.clear()
                values, w_end = _integrate(geom, pair, path)
                one_open += walked.count(1)
                for coeff, value in zip(pair, values):
                    (alone,), w_alone = _integrate(geom, [coeff], path)
                    assert bits(value) == bits(alone)
                    assert bits(w_end) == bits(w_alone)
        assert one_open > 0

    def test_closing_values_equal_contour_integrals(self):
        for fr in [random_frame() for _ in range(4)] + [spectral_frame(1, 1, k=0.75)]:
            vals = gamma_closing_values(fr)
            for s in (1, -1):
                path = gamma0_path(s, fr)
                assert bits(vals[("theta_P", s)]) == bits(
                    contour_integral("theta_P", path, fr))


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

    def test_pipeline_integrates_gamma_paths_once(self, monkeypatch):
        calls = self.count_gamma_calls(monkeypatch)
        fr = spectral_frame(self.S, self.T)
        hitchin_checklist(fr, construct_psi(self.S, self.T, fr))
        assert len(calls) == 1
        # an equal frame built again is the same curve
        hitchin_checklist(build_frame(fr.pair), construct_psi(self.S, self.T, fr))
        assert len(calls) == 2

    def test_reused_closing_entry_equals_recomputation(self, monkeypatch):
        fr = spectral_frame(self.S, self.T)
        cd = construct_psi(self.S, self.T, fr)
        assert cd.gamma_integrals[0] == fr
        reused = hitchin_checklist(fr, cd)
        calls = self.count_gamma_calls(monkeypatch)
        again = hitchin_checklist(fr, dataclasses.replace(cd, gamma_integrals=None))
        assert len(calls) == 1
        assert [(e.item, e.residual.hex(), e.detail) for e in reused] == \
            [(e.item, e.residual.hex(), e.detail) for e in again]

    def test_closing_from_another_frame_is_flagged(self, monkeypatch):
        cd = construct_psi(self.S, self.T, spectral_frame(self.S, self.T))
        other = spectral_frame(self.S, self.T, k=0.4)
        calls = self.count_gamma_calls(monkeypatch)
        p8 = {e.item: e for e in hitchin_checklist(other, cd)}["P8 closing integrals"]
        assert calls == [other]
        assert p8.residual > 1e-3


class TestGammaQuadrature:
    def test_closed_vs_quadrature(self):
        for _ in range(8):
            fr = random_frame()
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


class TestMonodromy:
    def test_integer_annulus(self):
        assert monodromy_track(Fraction(0), loop_samples=32) == -1

    def test_half_annulus(self):
        assert monodromy_track(Fraction(1, 2), loop_samples=32) == -2

    def test_contractible(self):
        assert monodromy_track(Fraction(1, 2), loop_samples=24,
                               contractible=True) == 0


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

    def test_pole_orders(self):
        fr = random_frame()
        for kind in ("theta_E", "theta_P"):
            for center in (fr.z0, -fr.z0.conjugate()):
                cs = laurent_coefficients(kind, center, fr, orders=(-2, -1))
                assert abs(cs[-2]) > 1e-8
                assert abs(cs[-1]) / abs(cs[-2]) < 1e-8

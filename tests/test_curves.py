"""Branch pairs, Jacobi frames, moduli coordinates, deck and symmetry maps."""

import cmath
import math
from types import SimpleNamespace

import numpy as np
import pytest

from harmonictori.curves import (
    BranchPair, ModuliPoint, _chart_value, _inverse_coords_array, angle_rescale,
    build_frame, chi_negate, circle_points, deck_iota_tilde, deck_lambda_tilde,
    forward_coords, inverse_coords, jacobi_modulus, lambda_swap,
)
from harmonictori.elliptic import w_imag
from harmonictori.moduli import S_value

RNG = np.random.default_rng(5)


def random_pair(radius=0.8, min_gap=5e-2):
    while True:
        a = complex(*RNG.uniform(-radius, radius, 2))
        b = complex(*RNG.uniform(-radius, radius, 2))
        if abs(a) < radius and abs(b) < radius and abs(a - b) > min_gap:
            return BranchPair(a, b)


def circle_fit_oracle(z1, z2, z3):
    """Brute-force circle through three points (center, radius)."""
    ax, ay, bx, by, cx, cy = z1.real, z1.imag, z2.real, z2.imag, z3.real, z3.imag
    d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay)
          + (cx**2 + cy**2) * (ay - by)) / d
    uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx)
          + (cx**2 + cy**2) * (bx - ax)) / d
    c = complex(ux, uy)
    return c, abs(z1 - c)


class TestBranchPair:
    def test_validation(self):
        with pytest.raises(ValueError):
            BranchPair(1.0, 0.5)
        with pytest.raises(ValueError):
            BranchPair(0.5, 0.5)

    @pytest.mark.parametrize("alpha, beta", [
        (complex(math.nan, 0.0), 0.3), (0.3, complex(0.0, math.nan)),
        (complex(math.inf, 0.0), 0.3), (0.3, complex(-math.inf, 0.0)),
    ], ids=["alpha_nan", "beta_nan", "alpha_inf", "beta_inf"])
    def test_rejects_non_finite_points(self, alpha, beta):
        with pytest.raises(ValueError, match="open unit disc"):
            BranchPair(alpha, beta)

    def test_mirrors(self):
        bp = BranchPair(0.5j, 0.2)
        assert bp.alpha_mirror == pytest.approx(2j)
        assert bp.beta_mirror == pytest.approx(5.0)

    def test_curve_poly_real_section(self):
        bp = random_pair()
        for _ in range(8):
            z = complex(*RNG.uniform(-2, 2, 2))
            lhs = z**4 * bp.curve_poly(1 / z.conjugate()).conjugate()
            assert lhs == pytest.approx(bp.curve_poly(z), rel=1e-12)


class TestModulus:
    def test_symmetric_value(self):
        assert jacobi_modulus(BranchPair(0.3, -0.3)) == pytest.approx(0.49 / 1.69)

    def test_swap_invariance(self):
        for _ in range(20):
            bp = random_pair()
            assert jacobi_modulus(lambda_swap(bp)) == pytest.approx(
                jacobi_modulus(bp), rel=1e-12)

    def test_chi_invariance(self):
        for _ in range(20):
            bp = random_pair()
            assert jacobi_modulus(chi_negate(bp)) == pytest.approx(
                jacobi_modulus(bp), rel=1e-12)


    def test_nan_modulus_rejected(self):
        # a pair that bypasses BranchPair's checks
        bad = SimpleNamespace(alpha=complex(math.nan, 0.0), beta=0.3 + 0j)
        with pytest.raises(ValueError, match="degenerate modulus"):
            jacobi_modulus(bad)


class TestCirclePoints:
    def test_real_axis_configuration(self):
        mu, nu = circle_points(BranchPair(0.5, -0.5))
        assert mu == pytest.approx(1.0)
        assert nu == pytest.approx(-1.0)

    def test_imaginary_axis_configuration(self):
        mu, nu = circle_points(BranchPair(0.5j, -0.5j))
        assert mu == pytest.approx(1j)
        assert nu == pytest.approx(-1j)

    def test_same_ray_configuration(self):
        mu, nu = circle_points(BranchPair(0.5, 0.25))
        assert mu == pytest.approx(1.0)
        assert nu == pytest.approx(-1.0)

    def test_alpha_at_origin(self):
        mu, nu = circle_points(BranchPair(0.0, 0.5))
        assert mu == pytest.approx(-1.0)
        assert nu == pytest.approx(1.0)

    def test_unit_modulus(self):
        for _ in range(50):
            mu, nu = circle_points(random_pair())
            assert abs(abs(mu) - 1.0) < 1e-12
            assert abs(abs(nu) - 1.0) < 1e-12

    def test_between_ordering_against_circle_fit(self):
        # mu sits on the arc between alpha and its mirror, on the circle
        # fitted through the three defining points
        for _ in range(30):
            bp = random_pair()
            if abs((bp.alpha.conjugate() * bp.beta).imag) < 1e-3:
                continue
            mu, nu = circle_points(bp)
            c, r = circle_fit_oracle(bp.alpha, bp.alpha_mirror, bp.beta)
            for z in (mu, nu):
                assert abs(abs(z - c) - r) < 1e-9
            th = lambda z: cmath.phase(z - c)
            a1, a2, tb = th(bp.alpha), th(bp.alpha_mirror), th(bp.beta)
            span = (a2 - a1) % (2 * math.pi)
            in_arc = lambda t: (t - a1) % (2 * math.pi) < span
            assert in_arc(th(mu)) != in_arc(tb)
            assert in_arc(th(nu)) == in_arc(tb)

    def test_relabel_swaps(self):
        for _ in range(20):
            bp = random_pair()
            mu, nu = circle_points(bp)
            mu2, nu2 = circle_points(lambda_swap(bp))
            assert mu2 == pytest.approx(nu, abs=1e-12)
            assert nu2 == pytest.approx(mu, abs=1e-12)


class TestJacobiFrame:
    def test_normalization_at_example(self):
        fr = build_frame(BranchPair(0.5, -0.5))
        k = fr.k
        assert fr.f(0.5) == pytest.approx(1.0, abs=1e-10)
        assert fr.f(2.0) == pytest.approx(-1.0, abs=1e-10)
        assert fr.f(-0.5) == pytest.approx(1.0 / k, abs=1e-10)

    def test_invariants_random(self):
        for _ in range(100):
            bp = random_pair()
            fr = build_frame(bp)
            assert fr.f(bp.alpha) == pytest.approx(1.0, abs=1e-10)
            assert fr.f(bp.alpha_mirror) == pytest.approx(-1.0, abs=1e-10)
            assert fr.f(bp.beta) == pytest.approx(1.0 / fr.k, rel=1e-10)
            assert fr.f(bp.beta_mirror) == pytest.approx(-1.0 / fr.k, rel=1e-10)
            assert fr.z0.real > 0
            assert fr.scale == pytest.approx(-fr.z0.conjugate(), rel=1e-10)

    def test_normalization_near_the_circle(self):
        # pairs just off a line through the origin, where a circle fitted
        # through alpha, 1/conj(alpha) and beta has its centre near infinity
        pairs = [BranchPair(a * cmath.exp(1j * th), b * cmath.exp(1j * (th + d)))
                 for a in (0.004, -0.03, 0.3) for b in (0.99, -0.99999)
                 for d in (1e-12, 1e-11, 1e-10, 1e-9) for th in (0.3, 2.1, 4.4)]
        # and seeded pairs reaching |z| = 0.999999; k carries a relative
        # rounding error of about 1e-16/k, so k < 1e-6 is out of reach of 1e-9
        rng = np.random.default_rng(13)
        while len(pairs) < 272:
            radii, turns = rng.uniform(-0.999999, 0.999999, 2), rng.uniform(size=2)
            a, b = radii * np.exp(2j * math.pi * turns)
            if abs(a - b) > 1e-2 and jacobi_modulus(BranchPair(a, b)) > 1e-6:
                pairs.append(BranchPair(a, b))
        worst = 0.0
        for bp in pairs:
            fr = build_frame(bp)
            worst = max(worst, abs(fr.f(bp.alpha) - 1.0),
                        abs(fr.f(bp.alpha_mirror) + 1.0),
                        fr.k * abs(fr.f(bp.beta) - 1.0 / fr.k),
                        abs(fr.scale + fr.z0.conjugate()) / abs(fr.scale),
                        abs(abs(fr.mu) - 1.0), abs(abs(fr.nu) - 1.0))
        assert worst < 1e-9

    def test_chart_angles_are_finite_through_nu(self):
        # nu = -1 exactly: f(-1) is infinite, its chart angle pi (atan2(0, 0)
        # would read 0) and its chart value finite
        fr = build_frame(BranchPair(0.3, -0.3))
        assert fr.nu == -1.0
        assert fr.v_tilde == math.pi and math.isfinite(fr.v)
        rng = np.random.default_rng(23)
        for _ in range(200):
            a, b = rng.uniform(-0.55, 0.55, (2, 2)) @ np.array([1.0, 1j])
            fr = build_frame(BranchPair(a, b))
            assert abs(fr.u_tilde - 2.0 * math.atan(fr.f(1.0).imag)) <= 4e-15
            assert abs(fr.v_tilde - 2.0 * math.atan(fr.f(-1.0).imag)) <= 4e-15

    def test_unit_circle_to_imaginary_axis(self):
        bp = random_pair()
        fr = build_frame(bp)
        for th in np.linspace(0, 2 * math.pi, 16, endpoint=False):
            z = fr.f(cmath.exp(1j * th))
            if cmath.isinf(z):
                continue
            assert abs(z.real) < 1e-10 * max(1.0, abs(z))

    def test_f_inverse(self):
        bp = random_pair()
        fr = build_frame(bp)
        for _ in range(8):
            z = complex(*RNG.uniform(-0.9, 0.9, 2))
            assert fr.f_inv(fr.f(z)) == pytest.approx(z, abs=1e-11)

    def test_disc_to_right_half_plane(self):
        for _ in range(20):
            bp = random_pair()
            fr = build_frame(bp)
            z = complex(*RNG.uniform(-0.5, 0.5, 2))
            assert fr.f(z).real > 0

    def test_sheet_convention(self):
        # transported eta+ agrees with the positive w on the imaginary axis
        from harmonictori.differentials import eta_plus
        for _ in range(10):
            bp = random_pair()
            fr = build_frame(bp)
            c = fr.eta_to_w_scale
            for th in RNG.uniform(0, 2 * math.pi, 8):
                zeta = cmath.exp(1j * th)
                if abs(zeta - fr.nu) < 0.2:
                    continue
                w = c * eta_plus(zeta, bp) / (zeta - fr.nu) ** 2
                x = fr.f(zeta).imag
                expect = math.sqrt((1 + x * x) * (1 + fr.k**2 * x * x))
                assert w == pytest.approx(expect, rel=1e-9)


class TestCoordinates:
    def test_symmetric_pair_p(self):
        mp = forward_coords(BranchPair(0.3, -0.3))
        assert mp.p == pytest.approx(1.0)

    def test_third(self):
        mp = forward_coords(BranchPair(0.0, 0.5))
        assert mp.p == pytest.approx(1.0 / 3.0)

    def test_round_trip(self):
        worst = 0.0
        for _ in range(200):
            bp = random_pair()
            mp = forward_coords(bp)
            bp2 = inverse_coords(mp)
            worst = max(worst, abs(bp2.alpha - bp.alpha), abs(bp2.beta - bp.beta))
        assert worst < 1e-9

    def test_band_invariant(self):
        for _ in range(100):
            mp = forward_coords(random_pair())
            assert -math.pi < mp.u_tilde <= math.pi
            assert mp.u_tilde < mp.v_tilde < mp.u_tilde + 2 * math.pi

    def test_inverse_recomputes_p(self):
        mp = ModuliPoint(p=1.0, k=0.5, u_tilde=0.4, v_tilde=2.2)
        bp = inverse_coords(mp)
        assert S_value(bp) == pytest.approx(1.0, abs=1e-10)
        assert abs(bp.alpha) < 1 and abs(bp.beta) < 1
        # the mirror-symmetric band v~ = -u~ also reproduces S = 1
        sym = inverse_coords(ModuliPoint(p=1.0, k=0.5, u_tilde=-1.1, v_tilde=1.1))
        assert S_value(sym) == pytest.approx(1.0, abs=1e-10)

    def test_round_trip_from_moduli_points(self):
        # the other order: principal-band points are reproduced exactly
        worst = 0.0
        for _ in range(100):
            p = RNG.uniform(0.25, 4.0)
            k = RNG.uniform(0.08, 0.92)
            ut = RNG.uniform(-math.pi + 1e-3, math.pi - 1e-3)
            vt = ut + RNG.uniform(0.05, 2 * math.pi - 0.05)
            mp = ModuliPoint(p=p, k=k, u_tilde=ut, v_tilde=vt)
            back = forward_coords(inverse_coords(mp))
            worst = max(worst, abs(back.p - p), abs(back.k - k),
                        abs(back.u_tilde - ut), abs(back.v_tilde - vt))
        assert worst < 1e-9

    def test_round_trip_with_u_on_the_chart_boundary(self):
        # u~ is the float pi: nu = 1.0000000000000004 lies off the unit
        # circle by rounding, so 1 - nu is radial and, unless nu is put back
        # on the circle, the frame reads u~ = pi/2
        mp = ModuliPoint(2.0, 0.3217894089186045, math.pi, 3.9268510575976245)
        back = forward_coords(inverse_coords(mp))
        assert back.u_tilde == pytest.approx(math.pi, abs=1e-12)
        assert back.v_tilde == pytest.approx(mp.v_tilde, abs=1e-12)

    @pytest.mark.parametrize("k", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_round_trip_near_the_diagonal(self, p, k):
        # v~ - u~ down to 1e-4, where mu and nu are close to each other
        worst = 0.0
        for ut in (-2.5, -0.7, 0.4, 1.9):
            for gap in (1e-2, 1e-3, 1e-4):
                back = forward_coords(inverse_coords(ModuliPoint(p, k, ut, ut + gap)))
                worst = max(worst, abs(back.u_tilde - ut),
                            abs(back.v_tilde - (ut + gap)))
        assert worst < 1e-10

    def test_z0_right_half_plane(self):
        for _ in range(200):
            p = RNG.uniform(0.2, 5.0)
            k = RNG.uniform(0.05, 0.95)
            ut = RNG.uniform(-math.pi, math.pi)
            vt = ut + RNG.uniform(0.05, 2 * math.pi - 0.05)
            bp = inverse_coords(ModuliPoint(p=p, k=k, u_tilde=ut, v_tilde=vt))
            fr = build_frame(bp)
            assert fr.z0.real > 0

    def test_band_validation(self):
        with pytest.raises(ValueError):
            ModuliPoint(p=1.0, k=0.5, u_tilde=0.0, v_tilde=7.0)
        with pytest.raises(ValueError):
            ModuliPoint(p=1.0, k=0.5, u_tilde=0.5, v_tilde=0.4)


def bits(z):
    """The exact bits of a complex number, sign of zero included."""
    return z.real.hex(), z.imag.hex()


def complex_form(p, k, u_tilde, v_tilde):
    """The branch pair by CPython complex arithmetic: the reference that
    inverse_coords' real arithmetic follows step for step."""
    u, v = _chart_value(u_tilde), _chart_value(v_tilde)
    wu, wv = w_imag(u, k), w_imag(v, k)
    den = p * wv + wu
    z0 = complex(math.sqrt(p * wu * wv) * abs(u - v) / den, (p * u * wv + v * wu) / den)
    nu_hat = (1j * u + z0.conjugate()) / (1j * u - z0)
    return (nu_hat * (1.0 - z0) / (1.0 + z0.conjugate()),
            nu_hat * (1.0 / k - z0) / (1.0 / k + z0.conjugate()))


def seeded_points(rng, n, held=None):
    """(k, u~, v~) arrays in the band; held = "u" or "v" puts that angle on
    the chart boundary, an odd multiple of pi."""
    k = rng.uniform(0.01, 0.99, n)
    odd_pi = math.pi * (2 * rng.integers(-2, 3, n) + 1)
    if held == "u":
        ut = odd_pi
    elif held == "v":
        ut = odd_pi - rng.uniform(1e-6, 2 * math.pi - 1e-6, n)
    else:
        ut = rng.uniform(-10.0, 10.0, n)
    vt = odd_pi if held == "v" else ut + rng.uniform(1e-6, 2 * math.pi - 1e-6, n)
    return k, ut, vt


class TestInverseCoordsArray:
    @pytest.mark.parametrize("held", [None, "u", "v"])
    @pytest.mark.parametrize("p", [1 / 3, 1.0, 5 / 2])
    def test_matches_scalar_and_complex_form(self, p, held):
        rng = np.random.default_rng(11)
        k, ut, vt = seeded_points(rng, 300, held)
        if held is not None:
            assert all(abs(math.remainder(float(x), 2 * math.pi)) == math.pi
                       for x in (ut if held == "u" else vt))
        alpha, beta, reasons = _inverse_coords_array(p, k, ut, vt)
        assert reasons == [None] * 300
        for i in range(300):
            bp = inverse_coords(ModuliPoint(p, float(k[i]), float(ut[i]), float(vt[i])))
            assert (bits(bp.alpha), bits(bp.beta)) == (bits(complex(alpha[i])),
                                                       bits(complex(beta[i])))
            ref = complex_form(p, float(k[i]), float(ut[i]), float(vt[i]))
            assert (bits(bp.alpha), bits(bp.beta)) == tuple(map(bits, ref))

    def test_u_equals_v_fails_with_the_scalar_message(self):
        # u~ = v~ lies outside the band, which is how u = v arises
        with pytest.raises(ValueError) as err:
            inverse_coords(SimpleNamespace(p=0.5, k=0.5, u_tilde=1.0, v_tilde=1.0))
        k, ut, vt = seeded_points(np.random.default_rng(4), 3)
        ut[1] = vt[1]
        alpha, beta, reasons = _inverse_coords_array(0.5, k, ut, vt)
        assert reasons == [None, str(err.value), None]
        assert str(err.value) == "u = v is outside the coordinate chart"

    @pytest.mark.parametrize("k, u_tilde, v_tilde, message", [
        # k one ulp below 1: 1/k rounds so that beta lands on alpha
        (1.0 - 2.0 ** -53, -2.9835689989791114, -2.7690265000151197,
         "branch points must be distinct"),
        # k = 1e-300: beta rounds onto the unit circle
        (1e-300, 0.3, 2.0, "branch points must lie in the open unit disc"),
    ])
    def test_rejections_carry_the_scalar_message(self, k, u_tilde, v_tilde, message):
        with pytest.raises(ValueError, match=message):
            inverse_coords(ModuliPoint(1.0, k, u_tilde, v_tilde))
        ks, ut, vt = seeded_points(np.random.default_rng(6), 3)
        ks[1], ut[1], vt[1] = k, u_tilde, v_tilde
        assert _inverse_coords_array(1.0, ks, ut, vt)[2] == [None, message, None]

    def test_nan_angles_give_nan_and_no_reason(self):
        k, ut, vt = seeded_points(np.random.default_rng(5), 4)
        vt[2] = np.nan
        alpha, beta, reasons = _inverse_coords_array(2.0, k, ut, vt)
        assert reasons == [None] * 4
        assert np.isnan(alpha[2]) and np.isnan(beta[2])
        assert not np.isnan(np.delete(alpha, 2)).any()


class TestSymmetries:
    def test_lambda_involution(self):
        bp = random_pair()
        assert lambda_swap(lambda_swap(bp)) == bp

    def test_lambda_coordinates(self):
        # (p, k, u, v) -> (p, k, -1/(ku), -1/(kv))
        for _ in range(50):
            bp = random_pair()
            fr = build_frame(bp)
            fr2 = build_frame(lambda_swap(bp))
            if min(abs(fr.u), abs(fr.v)) < 1e-3 or max(abs(fr.u), abs(fr.v)) > 1e3:
                continue
            assert fr2.k == pytest.approx(fr.k, rel=1e-12)
            assert fr2.u == pytest.approx(-1.0 / (fr.k * fr.u), rel=1e-9)
            assert fr2.v == pytest.approx(-1.0 / (fr.k * fr.v), rel=1e-9)

    def test_lambda_rescaled_half_turn(self):
        for _ in range(20):
            bp = random_pair()
            fr = build_frame(bp)
            fr2 = build_frame(lambda_swap(bp))
            if abs(fr.u) > 1e3 or abs(fr.u) < 1e-3:
                continue
            U_old = math.sqrt(fr.k) * fr.u
            U_new = math.sqrt(fr2.k) * fr2.u
            assert U_new == pytest.approx(-1.0 / U_old, rel=1e-9)

    def test_chi_involution_and_S(self):
        for _ in range(100):
            bp = random_pair()
            assert chi_negate(chi_negate(bp)) == bp
            assert S_value(chi_negate(bp)) * S_value(bp) == pytest.approx(1.0, abs=1e-12)

    def test_chi_swaps_u_and_v(self):
        for _ in range(20):
            bp = random_pair()
            fr = build_frame(bp)
            fr2 = build_frame(chi_negate(bp))
            assert fr2.u == pytest.approx(fr.v, rel=1e-9, abs=1e-9)
            assert fr2.v == pytest.approx(fr.u, rel=1e-9, abs=1e-9)


class TestDeck:
    def test_lambda_squared_is_iota(self):
        for _ in range(20):
            mp = forward_coords(random_pair())
            twice = deck_lambda_tilde(deck_lambda_tilde(mp))
            iota = deck_iota_tilde(mp)
            assert twice.u_tilde == pytest.approx(iota.u_tilde, abs=1e-12)
            assert twice.v_tilde == pytest.approx(iota.v_tilde, abs=1e-12)

    def test_projects_to_swap(self):
        for _ in range(20):
            bp = random_pair()
            mp = forward_coords(bp)
            down = inverse_coords(deck_lambda_tilde(mp))
            swapped = lambda_swap(bp)
            assert down.alpha == pytest.approx(swapped.alpha, abs=1e-9)
            assert down.beta == pytest.approx(swapped.beta, abs=1e-9)

    def test_band_preserved(self):
        for _ in range(50):
            mp = forward_coords(random_pair())
            out = deck_lambda_tilde(mp)
            assert out.u_tilde < out.v_tilde < out.u_tilde + 2 * math.pi

    def test_inverse(self):
        mp = forward_coords(random_pair())
        back = deck_lambda_tilde(deck_lambda_tilde(mp), inverse=True)
        assert back.u_tilde == pytest.approx(mp.u_tilde, abs=1e-12)

    def test_rescale_fixes_boundary(self):
        assert angle_rescale(math.pi, 0.7) == math.pi
        assert angle_rescale(-3 * math.pi, 0.7) == -3 * math.pi

    def test_rescale_order_preserving(self):
        xs = np.linspace(-7, 7, 101)
        ys = [angle_rescale(x, 0.6) for x in xs]
        assert all(b > a for a, b in zip(ys, ys[1:]))
